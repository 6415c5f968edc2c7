"""Shared generators for property-style tests and a scripted loopback peer."""

import random
import socket
import threading
import time

from tlsaudit import wire
from tlsaudit.configuration import Configuration
from tlsaudit.grading import flags
from tlsaudit.registry import CipherDb, Version, sort_offer

ALL_VERSIONS = (Version.SSLv2, Version.SSLv3, Version.TLS1_0,
                Version.TLS1_1, Version.TLS1_2, Version.TLS1_3)


def random_configuration(rng: random.Random, db: CipherDb) -> Configuration:
    all_ids = sorted(db.suites)
    suites = rng.sample(all_ids, rng.randint(1, 16))
    versions = frozenset(v for v in ALL_VERSIONS if rng.random() < 0.4)
    if not versions:
        versions = frozenset({Version.TLS1_2})
    tickets = rng.random() < 0.5
    hint = rng.choice([None, 300, 86400, 604800, 10_000_000]) if tickets else None
    dh_bits = (rng.choice([None, 512, 768, 1024, 2048])
               if "DHE" in flags(db, suites) else None)
    dh_common = (rng.random() < 0.5) if dh_bits is not None else None
    return Configuration(
        supported_suites=suites, preferred_suite=rng.choice(suites),
        versions=versions,
        server_preference=rng.random() < 0.5,
        tls_compression=rng.random() < 0.2,
        session_id_resumption=rng.random() < 0.5,
        session_tickets=tickets,
        ticket_lifetime_hint_s=hint,
        dh_prime_bits=dh_bits,
        dh_group_common=dh_common,
        heartbleed_vulnerable=rng.random() < 0.1,
    )


def reassemble(db: CipherDb, config: Configuration, *, suites=None,
               versions=None, tls_compression=None) -> Configuration:
    """Copy a Configuration with some grading inputs replaced; the DH group
    and the preferred suite are re-projected so invariants keep holding."""
    suites = sorted(config.supported_suites) if suites is None else sorted(suites)
    preferred = (config.preferred_suite if config.preferred_suite in suites
                 else sort_offer(db, suites)[0])
    dh_bits = config.dh_prime_bits if "DHE" in flags(db, suites) else None
    return Configuration(
        supported_suites=suites, preferred_suite=preferred,
        versions=config.versions if versions is None else frozenset(versions),
        server_preference=config.server_preference,
        extensions=config.extensions,
        tls_compression=(config.tls_compression if tls_compression is None
                         else tls_compression),
        session_id_resumption=config.session_id_resumption,
        session_tickets=config.session_tickets,
        ticket_lifetime_hint_s=config.ticket_lifetime_hint_s,
        dh_prime_bits=dh_bits,
        dh_group_common=config.dh_group_common if dh_bits is not None else None,
        heartbleed_vulnerable=config.heartbleed_vulnerable,
        cert_sig_alg=config.cert_sig_alg,
    )


# the flags a version-1 configuration held beside its suites, in the order
# that version wrote them
V1_COMPONENT_FLAGS = (
    "DES", "TRIPLE_DES", "RC4", "IDEA", "SEED", "CAMELLIA", "ARIA", "CHACHA",
    "AES", "AES_GCM", "AEAD", "CBC", "MD5", "SHA1", "SHA256", "SHA384",
    "NULL", "EXPORT",
)
V1_KEX_FLAGS = ("RSA", "DHE", "ECDHE")


def version_1_json(db: CipherDb, config: Configuration, names=None) -> dict:
    """``config.to_json()`` as record schema version 1 wrote it: with a
    ``component_flags`` and a ``kex_flags`` object after the suites, each
    flag true when ``names`` holds it; by default ``names`` is what the
    suites imply, as a scan wrote them."""
    if names is None:
        names = flags(db, config.supported_suites)
    obj = config.to_json()
    head = {key: obj.pop(key) for key in ("versions", "supported_suites")}
    return {**head,
            "component_flags": {n: n in names for n in V1_COMPONENT_FLAGS},
            "kex_flags": {n: n in names for n in V1_KEX_FLAGS}, **obj}


class LoopbackPeer:
    """A loopback listener that serves one connection from a script.

    Each step is bytes to send (in its own segment: TCP_NODELAY is on),
    seconds to sleep, or a callable that takes the connection and whose
    result (a record it read, say) is appended to ``received``. A step that
    finds the client gone (``OSError``, ``WireError``) ends the script early.
    Then the connection closes. Leaving the ``with`` block joins the peer's
    one thread and checks that it has ended.
    """

    def __init__(self, *steps, host: str = "127.0.0.1"):
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, 0), family=family)
        self.address = self._listener.getsockname()[:2]
        self.received = []
        self._thread = threading.Thread(target=self._serve, args=(steps,),
                                        daemon=True)
        self._thread.start()

    def _serve(self, steps) -> None:
        conn, _ = self._listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                for step in steps:
                    if isinstance(step, bytes):
                        conn.sendall(step)
                    elif callable(step):
                        self.received.append(step(conn))
                    else:
                        time.sleep(step)
            except (OSError, wire.WireError):
                pass  # the client hung up

    def __enter__(self) -> "LoopbackPeer":
        return self

    def __exit__(self, exc_type, *_) -> None:
        self._thread.join(timeout=5)
        self._listener.close()
        if exc_type is None:
            assert not self._thread.is_alive()


def until_closed(conn) -> None:
    """A peer step: read and drop whatever comes until the client closes."""
    while conn.recv(4096):
        pass


# the header of a 16 KB TLS handshake record, which no trickle completes
TLS_RECORD_HEADER = bytes([wire.ContentType.HANDSHAKE, 3, 3, 0x40, 0x00])


def trickles(prefix: bytes):
    """A peer step: read the client's first bytes, then send ``prefix`` and
    then zeros one byte every 0.2 s, 15 bytes (3 s) in all."""
    def step(conn) -> None:
        conn.recv(4096)
        for byte in (prefix + bytes(15))[:15]:
            conn.sendall(bytes([byte]))
            time.sleep(0.2)
    return step

