"""Single-exchange TLS probing engine.

Each operation dials the ``(host, port)`` address it is given once, through
``HandshakeEngine._dial``: connect, run one exchange, close, and map a
timeout, socket error or bad bytes to a ``ProbeStatus`` and a detail. The
engine's timeout bounds the whole connection, from connect to the end of its
exchange: every read and write gets only the time left before that deadline,
and every read only the bytes left under ``READ_BYTE_CAP``. A handshake
drives its offer far enough to collect the evidence it needs (ServerHello,
ServerKeyExchange, ticket), aborting early unless the offer resumes a session
or asks for a GET. Record protection is not implemented: the engine reads
configuration evidence off the plaintext flight, which is sufficient for the
bundled endpoints and keeps remote load minimal.

``handshake`` keeps the status and detail in its outcome; the SSLv2, TLS 1.3
and Heartbleed probes give ``"<STATUS>: <detail>"`` in one error field, None
when the server answered (an alert too). Only ``probe`` retries. The special
probes never call it: ``perfbench/layers.py`` pairs each traced engine call
with one trace entry, and a nested ``probe`` would add a second.

One driver, ``_Connection.read_until``, folds server records into that
connection's state until the caller has what it needs or an alert arrives;
the socket bounds its time and bytes. SSLv2 has its own record format, so
its probe reads its one reply itself.
"""
from __future__ import annotations

import contextlib
import os
import socket
import struct
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import wire
from .registry import CipherDb, Kex, Version
from .wire import (
    AlertDescription, ClientHello, Compression, ContentType, EXTENSION_CODES,
    EXTENSION_NAMES, ExtType, HsType, NewSessionTicket, ServerHello,
    ServerKeyExchange, WireError,
)

HEARTBLEED_OVERREAD_CAP = 16 * 1024
# bytes one connection may read: a 100 KiB certificate list (OpenSSL's
# SSL_MAX_CERT_LIST_DEFAULT) plus a 16 KiB heartbeat echo or HTTP head fits
# with room to spare, and a flood of records or an endless body ends here
READ_BYTE_CAP = 256 * 1024

_KNOWN_EXTENSIONS = frozenset(EXTENSION_CODES)
# what the hello carries for an offered extension; any other is empty
_EXTENSION_BODIES = {
    ExtType.HEARTBEAT: b"\x01",  # peer_allowed_to_send
    ExtType.ALPN: wire.vec16(wire.vec8(b"http/1.1")),
    ExtType.STATUS_REQUEST: b"\x01\x00\x00\x00\x00",
}


class ProbeStatus(Enum):
    NEGOTIATED = "NEGOTIATED"
    TLS_ALERT = "TLS_ALERT"
    TCP_FAILURE = "TCP_FAILURE"
    TIMEOUT = "TIMEOUT"
    PROTOCOL_ERROR = "PROTOCOL_ERROR"


class OfferError(ValueError):
    """Invalid HandshakeOffer."""


@dataclass
class HandshakeOffer:
    suites: list[int]
    # every probe but the version walk and TLS 1.3 offers this range
    max_version: Version = Version.TLS1_2
    min_version: Version = Version.SSLv3
    extensions: set[str] = field(default_factory=set)
    compression_methods: list[int] = field(default_factory=lambda: [Compression.NULL])
    sni_name: str = ""
    resumption_session_id: bytes = b""
    resumption_ticket: Optional[bytes] = None
    supported_versions: Optional[list[Version]] = None
    # drive through Finished instead of aborting after the server flight
    complete: bool = False
    http_get: bool = False

    def validate(self) -> None:
        if not self.suites:
            raise OfferError("offer must list at least one cipher suite")
        if self.max_version < self.min_version:
            raise OfferError("max_version below min_version")
        if Compression.NULL not in self.compression_methods:
            raise OfferError("compression list must include null")
        unknown = self.extensions - _KNOWN_EXTENSIONS
        if unknown:
            raise OfferError(f"unknown extensions {sorted(unknown)}")


@dataclass
class HttpResult:
    status_code: int
    server_header: Optional[str]


@dataclass
class HandshakeOutcome:
    status: ProbeStatus
    selected_version: Optional[Version] = None
    selected_suite: Optional[int] = None
    selected_compression: Optional[int] = None
    acknowledged_extensions: set[str] = field(default_factory=set)
    server_key_exchange: Optional[ServerKeyExchange] = None
    session_id: bytes = b""
    ticket: Optional[bytes] = None
    ticket_lifetime_hint_s: Optional[int] = None
    resumed: bool = False
    alert_code: Optional[int] = None
    error: Optional[str] = None
    http: Optional[HttpResult] = None
    retried: bool = False


@dataclass
class HeartbleedResult:
    heartbeat_acknowledged: bool
    vulnerable: bool
    evidence_len: int = 0
    error: Optional[str] = None

    def __post_init__(self):
        if self.vulnerable and not (self.heartbeat_acknowledged and self.evidence_len > 0):
            raise ValueError("vulnerable result requires heartbeat ack and leaked bytes")


class _DeadlineSocket:
    """A connected socket whose every ``recv`` and ``sendall`` gets only the
    time left before ``deadline`` (``time.monotonic``); past it, either
    raises ``socket.timeout``. ``recv`` also reads at most the bytes left
    under ``READ_BYTE_CAP``, and once they are spent raises ``WireError``."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._deadline = deadline
        self._bytes_left = READ_BYTE_CAP

    def _arm(self) -> None:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise socket.timeout("deadline passed")
        self._sock.settimeout(left)

    def recv(self, n: int) -> bytes:
        if not self._bytes_left:
            raise WireError(f"more than {READ_BYTE_CAP} bytes on one connection")
        self._arm()
        data = self._sock.recv(min(n, self._bytes_left))
        self._bytes_left -= len(data)
        return data

    def sendall(self, data: bytes) -> None:
        self._arm()
        self._sock.sendall(data)


@dataclass
class _Connection:
    """What the server's records on one connection have shown so far."""

    sock: _DeadlineSocket
    db: CipherDb
    server_hello: Optional[ServerHello] = None
    kex: Optional[ServerKeyExchange] = None
    ticket: Optional[bytes] = None
    ticket_lifetime_hint_s: Optional[int] = None
    resumed: bool = False
    hello_done: bool = False
    finished: bool = False
    alert: Optional[bytes] = None
    app_data: bytearray = field(default_factory=bytearray)
    heartbeat: Optional[bytes] = None

    @property
    def acked_extensions(self) -> set[str]:
        if self.server_hello is None:
            return set()
        return {EXTENSION_NAMES[code] for code in self.server_hello.extensions
                if code in EXTENSION_NAMES}

    def read_until(self, done) -> bool:
        """Read server records into this state until ``done(self)`` holds;
        False when an alert (now or earlier) stops the read first."""
        while not done(self):
            if self.alert is not None:
                return False
            ctype, _ver, payload = wire.read_record(self.sock)
            if ctype == ContentType.ALERT:
                self.alert = payload
            elif ctype == ContentType.CHANGE_CIPHER_SPEC:
                if self.server_hello is None:
                    raise WireError("change_cipher_spec before server hello")
                if not self.hello_done:
                    # abbreviated handshake: server skipped straight to its
                    # finished flight
                    self.resumed = True
            elif ctype == ContentType.HANDSHAKE:
                for hs_type, body in wire.iter_handshake_messages(payload):
                    self._on_message(hs_type, body)
            elif ctype == ContentType.APPLICATION_DATA and self.finished:
                self.app_data.extend(payload)
            elif ctype == ContentType.HEARTBEAT and self.server_hello is not None:
                self.heartbeat = payload
            else:
                raise WireError(f"unexpected record type {ctype}")
        return True

    def _on_message(self, hs_type: int, body: bytes) -> None:
        if hs_type == HsType.SERVER_HELLO:
            self.server_hello = ServerHello.parse(body)
        elif hs_type == HsType.SERVER_KEY_EXCHANGE:
            if self.server_hello is None:
                raise WireError("key exchange before server hello")
            info = self.db.get(self.server_hello.suite)
            is_ffdhe = info is not None and info.kex == Kex.DHE
            self.kex = ServerKeyExchange.parse_for_suite(body, is_ffdhe)
        elif hs_type == HsType.NEW_SESSION_TICKET:
            nst = NewSessionTicket.parse(body)
            self.ticket = nst.ticket
            self.ticket_lifetime_hint_s = nst.lifetime_hint_s
        elif hs_type == HsType.SERVER_HELLO_DONE:
            self.hello_done = True
        elif hs_type == HsType.FINISHED:
            self.finished = True


def _flight_done(conn: _Connection) -> bool:
    # the rest of a 1.3 flight is encrypted; the selection is all the
    # evidence a probe needs
    return (conn.hello_done or conn.finished
            or (conn.server_hello is not None
                and conn.server_hello.selected_version == Version.TLS1_3))


def _checked_hello(conn: _Connection, offer: HandshakeOffer) -> ServerHello:
    """The connection's ServerHello, once it selects what ``offer`` allows: an
    offered suite and, unless abbreviated or TLS 1.3, a version in range."""
    hello = conn.server_hello
    if hello is None:
        raise WireError("no server hello received")
    if hello.suite not in offer.suites:
        raise WireError(f"server selected unoffered suite 0x{hello.suite:04X}")
    version = hello.selected_version
    if not conn.resumed and version != Version.TLS1_3 and not (
            offer.min_version <= version <= offer.max_version):
        raise WireError(f"server selected out-of-range version {version.label}")
    return hello


class HandshakeEngine:
    """Stateless per call; safe to use from many workers concurrently."""

    def __init__(self, db: CipherDb, timeout: float):
        self.db = db
        self.timeout = timeout

    # -- offer construction ------------------------------------------------

    def _hello_record(self, offer: HandshakeOffer) -> bytes:
        extensions: dict[int, bytes] = {}
        if offer.sni_name:
            entry = b"\x00" + wire.vec16(offer.sni_name.encode("idna"))
            extensions[ExtType.SERVER_NAME] = wire.vec16(entry)
        for ext in sorted(offer.extensions):
            code = EXTENSION_CODES[ext]
            extensions.setdefault(code, (offer.resumption_ticket or b"")
                                  if code == ExtType.SESSION_TICKET
                                  else _EXTENSION_BODIES.get(code, b""))
        if offer.supported_versions:
            body = b"".join(struct.pack(">H", v.value) for v in offer.supported_versions)
            extensions[ExtType.SUPPORTED_VERSIONS] = wire.vec8(body)
        hello = ClientHello(
            version=offer.max_version if offer.max_version != Version.TLS1_3 else Version.TLS1_2,
            random=os.urandom(32),
            session_id=offer.resumption_session_id,
            suites=list(offer.suites),
            compression=list(offer.compression_methods),
            extensions=extensions,
        )
        record_version = Version.SSLv3 if offer.max_version == Version.SSLv3 else Version.TLS1_0
        return wire.record(ContentType.HANDSHAKE, record_version, hello.encode())

    # -- core exchange -----------------------------------------------------

    def _dial(self, address: tuple[str, int], exchange: Callable[[_DeadlineSocket], object],
              ) -> tuple[object, Optional[HandshakeOutcome]]:
        """Connect, ``exchange(sock)``, close, all within ``timeout``: ``(result,
        None)``, or ``(None, failed)`` with the status and detail of what
        stopped it."""
        deadline = time.monotonic() + self.timeout
        sock = None
        try:
            sock = socket.create_connection(address, timeout=self.timeout)
            return exchange(_DeadlineSocket(sock, deadline)), None
        except socket.timeout:
            stage = "connect" if sock is None else "read"
            return None, HandshakeOutcome(ProbeStatus.TIMEOUT, error=f"{stage} timeout")
        except WireError as exc:
            return None, HandshakeOutcome(ProbeStatus.PROTOCOL_ERROR, error=str(exc))
        except OSError as exc:
            return None, HandshakeOutcome(ProbeStatus.TCP_FAILURE, error=str(exc))
        finally:
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()

    def handshake(self, address: tuple[str, int],
                  offer: HandshakeOffer) -> HandshakeOutcome:
        offer.validate()
        outcome, failed = self._dial(
            address, lambda sock: self._run(sock, offer, address[0]))
        return failed or outcome

    def _open(self, sock: _DeadlineSocket, offer: HandshakeOffer) -> _Connection:
        """Send ``offer``'s hello and read the server flight, up to any alert."""
        sock.sendall(self._hello_record(offer))
        conn = _Connection(sock, self.db)
        conn.read_until(_flight_done)
        return conn

    def _run(self, sock: _DeadlineSocket, offer: HandshakeOffer,
             host: str) -> HandshakeOutcome:
        conn = self._open(sock, offer)
        if conn.alert is not None:
            code = conn.alert[1] if len(conn.alert) >= 2 else None
            if code != AlertDescription.CLOSE_NOTIFY:
                return HandshakeOutcome(ProbeStatus.TLS_ALERT, alert_code=code)
        server_hello = _checked_hello(conn, offer)
        resumed = conn.resumed
        selected_version = server_hello.selected_version

        http_result = None
        needs_completion = offer.complete or offer.http_get or resumed
        if needs_completion and selected_version != Version.TLS1_3:
            http_result = self._finish(conn, selected_version, offer, host)
        else:  # evidence collected; abort without Finished
            with contextlib.suppress(OSError):
                sock.sendall(wire.alert(AlertDescription.CLOSE_NOTIFY,
                                        min(selected_version, Version.TLS1_2),
                                        fatal=False))

        resumed_final = resumed and (
            (offer.resumption_session_id
             and server_hello.session_id == offer.resumption_session_id)
            or offer.resumption_ticket is not None
        )
        return HandshakeOutcome(
            status=ProbeStatus.NEGOTIATED,
            selected_version=selected_version,
            selected_suite=server_hello.suite,
            selected_compression=server_hello.compression,
            acknowledged_extensions=conn.acked_extensions,
            server_key_exchange=conn.kex,
            session_id=server_hello.session_id,
            ticket=conn.ticket,
            ticket_lifetime_hint_s=conn.ticket_lifetime_hint_s,
            resumed=bool(resumed_final),
            http=http_result,
        )

    def _finish(self, conn: _Connection, version: Version,
                offer: HandshakeOffer, host: str) -> Optional[HttpResult]:
        """Complete the message flow (no record protection is applied), then
        send the GET when the offer asks for one, naming the SNI name or else
        the dialled ``host`` in its Host header."""
        flight = wire.finished_records(version)
        if not conn.resumed:
            cke = wire.handshake_message(HsType.CLIENT_KEY_EXCHANGE,
                                         wire.vec16(os.urandom(48)))
            flight = wire.record(ContentType.HANDSHAKE, version, cke) + flight
        conn.sock.sendall(flight)

        # the server's finished flight (full handshake) incl. any ticket
        if not conn.read_until(lambda c: c.finished or c.resumed):
            raise WireError(f"alert during finish: {conn.alert!r}")
        if not offer.http_get:
            return None

        host = offer.sni_name or (f"[{host}]" if ":" in host else host)
        request = (f"GET / HTTP/1.1\r\nHost: {host}\r\n"
                   "Connection: close\r\n\r\n").encode()
        conn.sock.sendall(wire.record(ContentType.APPLICATION_DATA, version, request))
        try:
            # only the headers are parsed: read to their end
            conn.read_until(lambda c: b"\r\n\r\n" in c.app_data)
        except WireError:
            pass  # the server closed the connection, or sent too many bytes
        return _parse_http(bytes(conn.app_data))

    # -- retry wrapper (the caller-visible API) ----------------------------

    def probe(self, address: tuple[str, int],
              offer: HandshakeOffer) -> HandshakeOutcome:
        """handshake() with exactly one retry when ``_dial`` reports TCP_FAILURE
        or TIMEOUT as ``status``, its detail in ``error``. The special probes
        give ``"<STATUS>: <detail>"`` instead and never retry. A TLS alert is
        signal, not noise, and is never retried."""
        outcome = self.handshake(address, offer)
        if outcome.status in (ProbeStatus.TCP_FAILURE, ProbeStatus.TIMEOUT):
            retry = self.handshake(address, offer)
            retry.retried = True
            return retry
        return outcome

    # -- special probes ----------------------------------------------------

    def sslv2_probe(self, address: tuple[str, int]) -> tuple[bool, Optional[str]]:
        """(supported, error annotation). Errors are absence of proof only."""
        def exchange(sock):
            sock.sendall(wire.encode_sslv2_client_hello())
            try:
                return wire.parse_sslv2_server_hello(wire.read_sslv2_record(sock))
            except WireError:  # closed before a whole record: no hello
                return False

        supported, failed = self._dial(address, exchange)
        return bool(supported), _annotation(failed)

    def tls13_probe(self, address: tuple[str, int],
                    suites: list[int]) -> tuple[bool, Optional[str]]:
        """(supported, error annotation), as ``sslv2_probe``."""
        offer = HandshakeOffer(
            min_version=Version.TLS1_2,
            suites=[0x1301, 0x1302, 0x1303] + list(suites),
            supported_versions=[Version.TLS1_3, Version.TLS1_2],
        )
        outcome, failed = self._dial(
            address, lambda sock: self._run(sock, offer, address[0]))
        return (failed is None and outcome.selected_version == Version.TLS1_3,
                _annotation(failed))

    def heartbleed_probe(self, address: tuple[str, int],
                         suites: list[int]) -> HeartbleedResult:
        """Active over-read check, capped at 16 KB; leaked bytes are measured
        and discarded, never persisted."""
        offer = HandshakeOffer(suites=list(suites), extensions={"heartbeat"})
        acknowledged = False  # by a checked ServerHello
        def exchange(sock):
            nonlocal acknowledged
            conn = self._open(sock, offer)
            if conn.alert is None:
                version = _checked_hello(conn, offer).selected_version
                acknowledged = "heartbeat" in conn.acked_extensions
            if acknowledged:
                payload_sent = os.urandom(16)
                claimed = len(payload_sent) + HEARTBLEED_OVERREAD_CAP
                hb = wire.encode_heartbeat(wire.HEARTBEAT_REQUEST, claimed, payload_sent)
                sock.sendall(wire.record(ContentType.HEARTBEAT, version, hb))
                if conn.read_until(lambda c: c.heartbeat is not None):
                    returned = len(wire.parse_heartbeat(conn.heartbeat)[2])
                    leaked = max(0, returned - len(payload_sent) - 16)  # minus padding
                    return HeartbleedResult(True, leaked > 0, evidence_len=leaked)
            return HeartbleedResult(acknowledged, False)  # an alert answers too

        result, failed = self._dial(address, exchange)
        return result or HeartbleedResult(acknowledged, False,
                                          error=_annotation(failed))


def _annotation(failed: Optional[HandshakeOutcome]) -> Optional[str]:
    """The special probes' error field: ``"<STATUS>: <detail>"`` for a
    failed ``_dial``, None when the server answered."""
    return None if failed is None else f"{failed.status.value}: {failed.error}"


def _parse_http(raw: bytes) -> HttpResult:
    if not raw.startswith(b"HTTP/"):
        raise WireError("no HTTP response over TLS")
    head = raw.partition(b"\r\n\r\n")[0]
    lines = head.decode("latin-1").split("\r\n")
    try:
        status_code = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise WireError(f"bad HTTP status line {lines[0]!r}") from None
    server_header = None
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "server":
            server_header = value.strip()
            break
    return HttpResult(status_code=status_code, server_header=server_header)
