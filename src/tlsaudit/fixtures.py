r"""Configurable local TLS endpoints used as ground truth in tests.

A FixtureSpec fully prescribes an endpoint's observable behavior;
``projection`` computes the Configuration a correct scanner must recover
from it. Legacy behaviors no modern stack will speak (SSLv2, TLS
compression, heartbeat over-read) are emulated at the record layer: only
the bytes the scanner inspects are produced.

Each server flight goes out in one write, as the engine's client flights
do and as real TLS stacks do; split writes would stall every completed
handshake on Nagle's algorithm against the peer's delayed ACK.

``FixtureEndpoint._serve`` is the one loop that reads a client record and
writes a reply: ``_hello_reply`` answers the first record and
``_record_reply`` each later one, full and abbreviated handshakes alike,
each returning its reply's bytes and the state the next record is read in.
A record the handshake does not allow at that point ends the connection.

Each endpoint runs one thread for its whole life: it accepts and serves its
connections one at a time, in arrival order; a waiting connection sits in
the listen backlog. No thread is started per connection, so a connection's
server-side cost is the handshake itself. A client that holds a connection
open without sending delays the next one by at most the 5 s read timeout.

The thread looks for ``stop()`` only when ``accept()`` times out, every
``_POLL_S``; so every ``stop()`` returns one ``_POLL_S`` after the thread
last entered ``accept()``.

Every endpoint sends one of two self-signed certificates with CN
``fixture.test``, checked in as ``data/fixture-rsa.der`` and
``data/fixture-ecdsa.der``. No peer parses them: the negotiated suite fixes
the key type a scanner records. They were made with the OpenSSL CLI, their
private keys discarded::

    openssl req -x509 -newkey rsa:2048 -nodes -keyout /dev/null \
        -subj /CN=fixture.test -days 36500 -outform DER -out fixture-rsa.der
    openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:P-256 -nodes \
        -keyout /dev/null -subj /CN=fixture.test -days 36500 \
        -outform DER -out fixture-ecdsa.der
"""
from __future__ import annotations

import csv
import logging
import os
import random
import socket
import struct
import threading
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import wire
from .configuration import Configuration
from .dhprimes import (
    ALL_PRIME_NAMES, COMMON_PRIME_NAMES, named_prime, prime_bits,
    prime_is_common,
)
from .registry import (
    KEX_RANK, Auth, CipherDb, CipherFamily, CipherMode, Kex, Mac, Version,
    cert_compatible, sort_offer, suite_label,
)
from .wire import (
    AlertDescription, ClientHello, Compression, ContentType, ExtType, HsType,
    NewSessionTicket, ServerHello, WireError,
)

logger = logging.getLogger(__name__)

_POLL_S = 0.5  # seconds between the accept loop's looks for stop()

HEARTBEAT_OFF = "off"
HEARTBEAT_PATCHED = "patched"
HEARTBEAT_VULNERABLE = "vulnerable-emulation"

_FIXTURE_BODY = b"<html><body>fixture endpoint</body></html>"


class FixtureError(ValueError):
    pass


@dataclass
class FixtureSpec:
    versions: frozenset[Version]
    suites: tuple[int, ...]  # server preference order
    server_preference: bool = False
    session_id_cache: bool = False
    tickets: Optional[int] = None  # lifetime hint seconds
    compression: bool = False
    ffdhe_prime: Optional[str] = None  # a dhprimes name; None is modp2048
    heartbeat: str = HEARTBEAT_OFF
    server_header: str = "fixture"
    cert_kind: str = "RSA"  # RSA | ECDSA

    def __post_init__(self):
        self.versions = frozenset(self.versions)
        self.suites = tuple(self.suites)
        if not self.suites:
            raise FixtureError("spec needs at least one suite")
        if self.cert_kind not in ("RSA", "ECDSA"):
            raise FixtureError(f"unknown cert kind {self.cert_kind!r}")
        if self.heartbeat not in (HEARTBEAT_OFF, HEARTBEAT_PATCHED,
                                  HEARTBEAT_VULNERABLE):
            raise FixtureError(f"unknown heartbeat mode {self.heartbeat!r}")
        if self.ffdhe_prime is not None and self.ffdhe_prime not in ALL_PRIME_NAMES:
            raise FixtureError(f"unknown DH prime {self.ffdhe_prime!r}")

    def resolved_prime(self) -> bytes:
        """The DH prime the endpoint sends; modp2048 when none is set."""
        return named_prime(self.ffdhe_prime or "modp2048")

    def to_json(self) -> dict:
        return {
            "versions": sorted(v.label for v in self.versions),
            "suites": [f"0x{s:04X}" for s in self.suites],
            "server_preference": self.server_preference,
            "session_id_cache": self.session_id_cache,
            "tickets": self.tickets,
            "compression": self.compression,
            "ffdhe_prime": self.ffdhe_prime,
            "heartbeat": self.heartbeat,
            "server_header": self.server_header,
            "cert_kind": self.cert_kind,
        }


# -- self-signed certificates (checked in; see the module docstring) -------

_CERTIFICATES = {kind: resources.files("tlsaudit.data").joinpath(
                     f"fixture-{kind.lower()}.der").read_bytes()
                 for kind in ("RSA", "ECDSA")}


def fixture_certificate(kind: str) -> bytes:
    try:
        return _CERTIFICATES[kind]
    except KeyError:
        raise FixtureError(f"unknown cert kind {kind!r}") from None


# -- the endpoint ------------------------------------------------------------

class FixtureEndpoint:
    """Live endpoint handle; also records a capture log for assertions."""

    def __init__(self, spec: FixtureSpec, db: CipherDb):
        self.spec = spec
        self.db = db
        self.capture: list[dict] = []
        self._session_cache: set[bytes] = set()
        self._tickets: set[bytes] = set()
        self.cert_der = fixture_certificate(spec.cert_kind)

        for suite_id in spec.suites:
            info = db.get(suite_id)
            if info is None:
                raise FixtureError(f"spec suite 0x{suite_id:04X} not in registry")
            if info.min_version == Version.TLS1_3:
                continue  # 1.3 selection is emulated from the versions set
            if info.auth != Auth(spec.cert_kind):
                raise FixtureError(
                    f"suite {info.name} incompatible with {spec.cert_kind} certificate")

        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(_POLL_S)
        self.target: tuple[str, int] = self._listener.getsockname()
        self.host, self.port = self.target
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        # idempotent: joining an ended thread and closing a closed socket
        # are no-ops
        self._stopping.set()
        self._thread.join()
        self._listener.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def _log(self, entry: dict) -> None:
        self.capture.append(entry)  # only the serving thread logs

    # -- connection handling ------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _address = self._listener.accept()
            except socket.timeout:
                if self._stopping.is_set():
                    return
                continue
            self._handle(sock)

    def _handle(self, sock: socket.socket) -> None:
        try:
            self._serve(sock)
        except (WireError, OSError, socket.timeout) as exc:
            self._log({"event": "connection_error", "error": str(exc)})
        except Exception:
            logger.exception("fixture endpoint on port %d: handler failed",
                             self.port)
        finally:
            # a bare close() with unread input would send RST, not FIN
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the peer has already gone
            sock.close()

    def _serve(self, sock: socket.socket) -> None:
        """The one reader of a connection's client records and the one writer
        of its replies: each record gets at most one reply, in one write,
        until a reply's state is None. A read error after the first record
        ends the connection unlogged; any other error reaches ``_handle``."""
        sock.settimeout(5.0)
        first = sock.recv(1, socket.MSG_PEEK)
        if not first:
            return
        if first[0] & 0x80:  # an SSLv2 header; no TLS content type has it
            wire.read_sslv2_record(sock)
            answered = Version.SSLv2 in self.spec.versions
            self._log({"event": "sslv2_hello", "answered": answered})
            reply, state = (wire.encode_sslv2_server_hello(self.cert_der)
                            if answered else b""), None
        else:
            ctype, _ver, payload = wire.read_record(sock)
            reply, state = self._hello_reply(ctype, payload)
        while True:
            if reply:
                sock.sendall(reply)
            if state is None:
                return
            try:
                ctype, _ver, payload = wire.read_record(sock)
            except (WireError, socket.timeout, OSError):
                return
            reply, state = self._record_reply(state, ctype, payload)

    def _hello_reply(self, ctype: int, payload: bytes):
        """The reply to a connection's first TLS record, and the state
        ``(version, finished, ticket_wanted)`` the next record is read in;
        None when the connection ends after the reply."""
        unexpected = wire.alert(AlertDescription.UNEXPECTED_MESSAGE), None
        if ctype != ContentType.HANDSHAKE:
            return unexpected
        messages = list(wire.iter_handshake_messages(payload))
        if not messages or messages[0][0] != HsType.CLIENT_HELLO:
            return unexpected
        hello = ClientHello.parse(messages[0][1])
        self._log({
            "event": "client_hello",
            "version": hello.version.label,
            "suites": list(map(suite_label, hello.suites)),
            "extensions": sorted(hello.extensions),
            "compression": list(hello.compression),
            "session_id": hello.session_id.hex(),
        })
        spec, db = self.spec, self.db

        raw = hello.extensions.get(ExtType.SUPPORTED_VERSIONS) or b"\x00"
        words = raw[1:1 + raw[0]]
        if (Version.TLS1_3 in spec.versions and Version.TLS1_3.value
                in struct.unpack_from(f">{len(words) >> 1}H", words)):
            suite = next((s for s in (0x1301, 0x1302, 0x1303)
                          if s in hello.suites), 0x1301)
            sh = ServerHello(version=Version.TLS1_2, random=os.urandom(32),
                             session_id=hello.session_id, suite=suite,
                             compression=Compression.NULL,
                             extensions={ExtType.SUPPORTED_VERSIONS: b"\x03\x04"})
            return wire.record(ContentType.HANDSHAKE, Version.TLS1_2,
                               sh.encode()), None

        tls_versions = [v for v in spec.versions
                        if v not in (Version.SSLv2, Version.TLS1_3)
                        and v <= hello.version]
        if not tls_versions:
            return wire.alert(AlertDescription.PROTOCOL_VERSION), None
        version = max(tls_versions, key=lambda v: v.value)

        offered = set(hello.suites)
        usable = [s for s in spec.suites
                  if s in offered and db[s].min_version <= version]
        if not usable:
            return wire.alert(AlertDescription.HANDSHAKE_FAILURE), None
        if spec.server_preference:
            suite = usable[0]
        else:
            suite = next(s for s in hello.suites if s in usable)

        selected_compression = Compression.NULL
        if spec.compression:
            for method in (Compression.DEFLATE, Compression.LZS):
                if method in hello.compression:
                    selected_compression = method
                    break

        acked: dict[int, bytes] = {}
        if ExtType.SERVER_NAME in hello.extensions:
            acked[ExtType.SERVER_NAME] = b""
        if ExtType.RENEGOTIATION_INFO in hello.extensions:
            acked[ExtType.RENEGOTIATION_INFO] = b"\x00"
        client_ticket = hello.extensions.get(ExtType.SESSION_TICKET)
        if client_ticket is not None and spec.tickets is not None:
            acked[ExtType.SESSION_TICKET] = b""
        if ExtType.HEARTBEAT in hello.extensions and spec.heartbeat != HEARTBEAT_OFF:
            acked[ExtType.HEARTBEAT] = b"\x01"

        # the caches hold only what this endpoint issued, so a hit implies
        # the spec resumes that way; only an id hit echoes the id
        id_hit = hello.session_id in self._session_cache
        resumed = id_hit or client_ticket in self._tickets
        if resumed:
            self._log({"event": "abbreviated", "suite": suite_label(suite)})
            session_id = hello.session_id if id_hit else b""
        else:
            session_id = os.urandom(32) if spec.session_id_cache else b""
            if session_id:
                self._session_cache.add(session_id)

        flight = ServerHello(version=version, random=os.urandom(32),
                             session_id=session_id, suite=suite,
                             compression=selected_compression,
                             extensions=acked).encode()
        if resumed:
            return (wire.record(ContentType.HANDSHAKE, version, flight)
                    + wire.finished_records(version)), (version, True, False)
        flight += wire.encode_certificate([self.cert_der])
        info = db[suite]
        if info.kex == Kex.DHE:
            flight += wire.encode_dhe_ske(spec.resolved_prime())
        elif info.kex == Kex.ECDHE:
            flight += wire.encode_ecdhe_ske()
        flight += wire.handshake_message(HsType.SERVER_HELLO_DONE, b"")
        return (wire.record(ContentType.HANDSHAKE, version, flight),
                (version, False, ExtType.SESSION_TICKET in acked))

    def _record_reply(self, state, ctype: int, payload: bytes):
        """The reply to a client record after the server's hello flight, and
        the state the next record is read in. Before the client's Finished:
        skip ChangeCipherSpec, answer heartbeats, and on Finished send the
        server's finished flight, with a ticket first when negotiated. After
        it: answer heartbeats and the first GET or HEAD. An alert or a
        record out of place ends the connection."""
        version, finished, ticket_wanted = state
        if ctype == ContentType.HEARTBEAT:
            return self._heartbeat_reply(state, payload)
        if not finished and ctype == ContentType.CHANGE_CIPHER_SPEC:
            return b"", state
        if not finished and ctype == ContentType.HANDSHAKE:
            hs_types = [t for t, _body in wire.iter_handshake_messages(payload)]
            if HsType.FINISHED not in hs_types:
                return b"", state
            flight = b""
            if ticket_wanted:
                token = os.urandom(48)
                self._tickets.add(token)
                flight = wire.record(
                    ContentType.HANDSHAKE, version,
                    NewSessionTicket(self.spec.tickets, token).encode())
            return (flight + wire.finished_records(version),
                    (version, True, ticket_wanted))
        if finished and ctype == ContentType.APPLICATION_DATA:
            if not payload.startswith((b"GET", b"HEAD")):
                return b"", state
            self._log({"event": "http_request"})
            return self._http_response(version), None
        return b"", None

    def _http_response(self, version: Version) -> bytes:
        head = (f"HTTP/1.1 200 OK\r\nServer: {self.spec.server_header}\r\n"
                f"Content-Length: {len(_FIXTURE_BODY)}\r\n"
                "Connection: close\r\n\r\n").encode()
        return wire.record(ContentType.APPLICATION_DATA, version,
                           head + _FIXTURE_BODY)

    def _heartbeat_reply(self, state, payload: bytes):
        if self.spec.heartbeat == HEARTBEAT_OFF:
            return wire.alert(AlertDescription.UNEXPECTED_MESSAGE), None
        try:
            msg_type, claimed, rest = wire.parse_heartbeat(payload)
        except WireError:
            return b"", None
        if msg_type != wire.HEARTBEAT_REQUEST:
            return b"", state
        actual = rest[:max(0, len(rest) - 16)]  # strip sender padding
        if self.spec.heartbeat == HEARTBEAT_VULNERABLE:
            # the defining bug: trust the claimed length
            echo = actual + os.urandom(max(0, claimed - len(actual)))
        else:
            echo = actual[:claimed] if claimed < len(actual) else actual
        self._log({"event": "heartbeat", "claimed": claimed,
                   "echoed": len(echo)})
        body = wire.encode_heartbeat(wire.HEARTBEAT_RESPONSE, len(echo), echo)
        return wire.record(ContentType.HEARTBEAT, state[0], body), state


def spawn(spec: FixtureSpec, db: CipherDb) -> FixtureEndpoint:
    return FixtureEndpoint(spec, db)


# -- projection: the round-trip oracle ---------------------------------------

def enumerable_suites(spec: FixtureSpec, db: CipherDb) -> list[int]:
    """The suites a scanner enumerating at TLS 1.2-and-below can observe,
    in the engine's canonical offer order."""
    tls_versions = [v for v in spec.versions
                    if v not in (Version.SSLv2, Version.TLS1_3)]
    if not tls_versions:
        return []
    at = max(tls_versions, key=lambda v: v.value)
    offerable = set(cert_compatible(db, Auth(spec.cert_kind)))
    return sort_offer(db, [s for s in spec.suites
                           if s in offerable and db[s].min_version <= at])


def projection(spec: FixtureSpec, db: CipherDb) -> Configuration:
    supported = enumerable_suites(spec, db)
    if not supported:
        raise FixtureError("spec exposes no enumerable suites; not probeable")
    if spec.server_preference:
        preferred = next(s for s in spec.suites if s in supported)
    else:
        preferred = supported[0]
    detected_preference = spec.server_preference and len(supported) >= 2

    has_dhe = any(db[s].kex == Kex.DHE for s in supported)
    dh_bits: Optional[int] = None
    dh_common: Optional[bool] = None
    if has_dhe:
        prime = spec.resolved_prime()
        dh_bits = prime_bits(prime)
        dh_common = prime_is_common(prime)

    extensions = {"server_name", "renegotiation_info"}
    if spec.tickets is not None:
        extensions.add("session_ticket")
    if spec.heartbeat != HEARTBEAT_OFF:
        extensions.add("heartbeat")

    return Configuration(
        supported_suites=supported, preferred_suite=preferred,
        versions=spec.versions,
        server_preference=detected_preference,
        extensions=frozenset(extensions),
        tls_compression=spec.compression,
        session_id_resumption=spec.session_id_cache,
        session_tickets=spec.tickets is not None,
        ticket_lifetime_hint_s=spec.tickets,
        dh_prime_bits=dh_bits,
        dh_group_common=dh_common,
        heartbleed_vulnerable=spec.heartbeat == HEARTBEAT_VULNERABLE,
        cert_sig_alg=spec.cert_kind,
    )


# -- bundled corpus -----------------------------------------------------------

_FAMILY_COLUMNS = {
    "rc4": CipherFamily.RC4, "des": CipherFamily.DES,
    "3des": CipherFamily.TRIPLE_DES, "aria": CipherFamily.ARIA,
    "camellia": CipherFamily.CAMELLIA, "idea": CipherFamily.IDEA,
    "seed": CipherFamily.SEED, "chacha": CipherFamily.CHACHA,
}

_VERSION_COLUMNS = (
    (Version.TLS1_3, "tls13"), (Version.TLS1_2, "tls12"),
    (Version.TLS1_1, "tls11"), (Version.TLS1_0, "tls10"),
    (Version.SSLv3, "sslv3"), (Version.SSLv2, "sslv2"),
)


def representative_suites(db: CipherDb, row: dict) -> list[int]:
    """Pick a concrete suite set realizing a published flag row. Unlisted
    aspects default to the most secure choice available (AEAD + PFS first)."""
    truthy = lambda k: row.get(k, "0") == "1"
    allowed_kex = {k for k, col in ((Kex.ECDHE, "ke_ecdhe"), (Kex.DHE, "ke_dhe"),
                                    (Kex.RSA, "ke_rsa")) if truthy(col)}
    banned = {fam for col, fam in _FAMILY_COLUMNS.items() if not truthy(col)}
    candidates = sorted(
        (i for i in db.suites.values()
         if i.kex in allowed_kex and i.cipher_family not in banned
         and i.cipher_family != CipherFamily.NULL
         and i.auth == Auth.RSA and not i.unsupported_by_engine
         and i.min_version != Version.TLS1_3
         and not (i.is_export and not truthy("export"))
         and not (i.mac == Mac.MD5 and not truthy("md5"))
         and not (i.is_aead and not truthy("aead"))
         and not (i.cipher_family == CipherFamily.AES
                  and i.cipher_mode == CipherMode.GCM and not truthy("aes_gcm"))),
        key=lambda i: (not i.is_aead, KEX_RANK[i.kex], i.id))
    suites: list[int] = []

    def need(pred, what):
        for info in candidates:
            if pred(info):
                if info.id not in suites:
                    suites.append(info.id)
                return
        raise FixtureError(f"no registry suite can realize {what} for row {row}")

    need(lambda i: (i.cipher_family == CipherFamily.AES
                    and i.cipher_mode == CipherMode.CBC), "aes-cbc")
    for col, fam in _FAMILY_COLUMNS.items():
        if truthy(col):
            need(lambda i, f=fam: i.cipher_family == f, col)
    if truthy("export"):
        need(lambda i: i.is_export, "export")
    if truthy("md5"):
        need(lambda i: i.mac == Mac.MD5, "md5")
    if truthy("aes_gcm"):
        need(lambda i: (i.cipher_family == CipherFamily.AES
                        and i.cipher_mode == CipherMode.GCM), "aes_gcm")
    if truthy("aead"):
        need(lambda i: i.is_aead, "aead")
    for kex in allowed_kex:
        need(lambda i, k=kex: i.kex == k, kex.value)
    return sorted(suites, key=lambda s: (not db[s].is_aead,
                                         KEX_RANK[db[s].kex], s))


def _read_bundled_csv(name: str) -> list[dict]:
    text = resources.files("tlsaudit.data").joinpath(name).read_text()
    return list(csv.DictReader(text.splitlines()))


def ubuntu_default_rows() -> list[dict]:
    return _read_bundled_csv("ubuntu_defaults.csv")


def top_as_rows() -> list[dict]:
    return _read_bundled_csv("top_as_configs.csv")


def ubuntu_default_configurations(db: CipherDb) -> list[tuple[str, Configuration, str]]:
    """(label, Configuration, library profile name) per bundled default."""
    out = []
    for row in ubuntu_default_rows():
        label = f"{row['server']}-{row['ubuntu']}-{row['openssl']}"
        profile = f"openssl-{row['openssl'].rstrip('/')}"
        out.append((label, row_configuration(db, row), profile))
    return out


def row_fixture_spec(db: CipherDb, row: dict) -> FixtureSpec:
    """A servable FixtureSpec realizing a published table row (SSLv2 rows
    keep their flag via record-layer emulation)."""
    truthy = lambda k: row.get(k, "0") == "1"
    suites = representative_suites(db, row)
    versions = frozenset(v for v, col in _VERSION_COLUMNS if truthy(col))
    dh_raw = row.get("dh_group", "-")
    prime = None
    if dh_raw not in ("-", "") and truthy("ke_dhe"):
        prime = {768: "modp768", 1024: "modp1024",
                 1536: "modp1536", 2048: "modp2048"}[int(dh_raw)]
    return FixtureSpec(
        versions=versions,
        suites=tuple(suites),
        server_preference=truthy("server_pref"),
        session_id_cache=truthy("session_id"),
        tickets=300 if truthy("session_ticket") else None,
        ffdhe_prime=prime,
        heartbeat=(HEARTBEAT_VULNERABLE if truthy("heartbleed")
                   else HEARTBEAT_OFF),
        server_header=f"{row.get('server', 'fixture')}",
        cert_kind="RSA",
    )


def row_configuration(db: CipherDb, row: dict) -> Configuration:
    """Configuration for a published table row: the projection of the row's
    fixture, so the row that is graded is the row that is served."""
    return projection(row_fixture_spec(db, row), db)


def random_spec(rng: random.Random, db: CipherDb) -> FixtureSpec:
    """Seeded random spec: ≥2 suites, TLS 1.2 present, every version covered
    by at least one usable suite.

    Not every spec is probeable: about one in ten shares no suite with the
    browser union, so it refuses the scanner's baseline offer and the site is
    excluded with TLS_ALERT, while ``projection`` still returns its
    configuration."""
    cert_kind = rng.choice(["RSA", "ECDSA"])
    pool = cert_compatible(db, Auth(cert_kind))
    legacy = [s for s in pool if db[s].min_version <= Version.SSLv3]
    count = rng.randint(2, min(12, len(pool)))
    chosen = {rng.choice(legacy)}  # guarantee a suite usable at old versions
    while len(chosen) < count:
        chosen.add(rng.choice(pool))
    suites = list(chosen)
    rng.shuffle(suites)

    versions = {Version.TLS1_2}
    for v in (Version.TLS1_1, Version.TLS1_0):
        if rng.random() < 0.6:
            versions.add(v)
    if Version.TLS1_0 in versions and rng.random() < 0.25:
        versions.add(Version.SSLv3)
    if rng.random() < 0.2:
        versions.add(Version.TLS1_3)
    if rng.random() < 0.1:
        versions.add(Version.SSLv2)

    has_dhe = any(db[s].kex == Kex.DHE for s in suites)
    prime = rng.choice(list(COMMON_PRIME_NAMES) + ["local1024"]) if has_dhe else None
    tickets = rng.choice([None, 300, 86400, 1209600])
    return FixtureSpec(
        versions=frozenset(versions),
        suites=tuple(suites),
        server_preference=rng.random() < 0.5,
        session_id_cache=rng.random() < 0.5,
        tickets=tickets,
        compression=rng.random() < 0.2,
        ffdhe_prime=prime,
        heartbeat=rng.choice([HEARTBEAT_OFF, HEARTBEAT_OFF, HEARTBEAT_PATCHED,
                              HEARTBEAT_VULNERABLE]),
        server_header=f"fixture/{rng.randint(0, 999)}",
        cert_kind=cert_kind,
    )


def bundled_corpus(db: CipherDb, seed: int = 0, random_count: int = 20) -> list[FixtureSpec]:
    """10 Ubuntu-default rows + 10 top-AS rows spanning all grades + seeded
    random specs."""
    specs = [row_fixture_spec(db, row) for row in ubuntu_default_rows()]
    rows = top_as_rows()
    picked: list[dict] = []
    seen_grades: set[str] = set()
    for row in rows:  # one row per distinct grade first
        if row["grade"] not in seen_grades:
            picked.append(row)
            seen_grades.add(row["grade"])
    for row in rows:  # then fill to 10 in table order
        if len(picked) >= 10:
            break
        if row not in picked:
            picked.append(row)
    specs += [row_fixture_spec(db, row) for row in picked]
    rng = random.Random(seed)
    specs += [random_spec(rng, db) for _ in range(random_count)]
    return specs
