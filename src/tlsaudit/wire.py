"""TLS record-layer framing and handshake message encoding.

Shared by the probing engine and the local test endpoints. Covers the
plaintext handshake flight (hello messages, certificate, key exchange,
ticket), the historical SSLv2 hello format, and heartbeat messages.

Parser contract: every parser here reads bytes a peer chose, so malformed,
truncated or hostile input raises ``WireError`` and nothing else; callers
catch that one exception (with the socket's own errors) at the connection
boundary.

Both ends of every probe run this codec on each record and message, so
fields are read in place with precompiled ``struct.Struct`` objects and
length-checked against the reader's stored end, without slicing first.
"""
from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .registry import Version


class WireError(Exception):
    """Unparseable or truncated protocol bytes."""


class ContentType(IntEnum):
    CHANGE_CIPHER_SPEC = 20
    ALERT = 21
    HANDSHAKE = 22
    APPLICATION_DATA = 23
    HEARTBEAT = 24


class HsType(IntEnum):
    CLIENT_HELLO = 1
    SERVER_HELLO = 2
    NEW_SESSION_TICKET = 4
    CERTIFICATE = 11
    SERVER_KEY_EXCHANGE = 12
    SERVER_HELLO_DONE = 14
    CLIENT_KEY_EXCHANGE = 16
    FINISHED = 20


class ExtType(IntEnum):
    SERVER_NAME = 0
    STATUS_REQUEST = 5
    HEARTBEAT = 15
    ALPN = 16
    SIGNED_CERTIFICATE_TIMESTAMP = 18
    EXTENDED_MASTER_SECRET = 23
    SESSION_TICKET = 35
    SUPPORTED_VERSIONS = 43
    RENEGOTIATION_INFO = 0xFF01


# extension names used in offers/outcomes <-> wire code points
EXTENSION_CODES = {
    "server_name": ExtType.SERVER_NAME,
    "status_request": ExtType.STATUS_REQUEST,
    "heartbeat": ExtType.HEARTBEAT,
    "alpn": ExtType.ALPN,
    "signed_certificate_timestamp": ExtType.SIGNED_CERTIFICATE_TIMESTAMP,
    "extended_master_secret": ExtType.EXTENDED_MASTER_SECRET,
    "session_ticket": ExtType.SESSION_TICKET,
    "supported_versions": ExtType.SUPPORTED_VERSIONS,
    "renegotiation_info": ExtType.RENEGOTIATION_INFO,
}
EXTENSION_NAMES = {v: k for k, v in EXTENSION_CODES.items()}


class Compression(IntEnum):
    NULL = 0
    DEFLATE = 1
    LZS = 64


class AlertDescription(IntEnum):
    CLOSE_NOTIFY = 0
    UNEXPECTED_MESSAGE = 10
    HANDSHAKE_FAILURE = 40
    PROTOCOL_VERSION = 70


MAX_RECORD = 1 << 14

_CONTENT_TYPES = frozenset(t.value for t in ContentType)

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U8_U16 = struct.Struct(">BH")  # a 24-bit length as its high byte and low word
_U16_U8 = struct.Struct(">HB")  # ServerHello's suite and compression method
_RECORD_HEADER = struct.Struct(">BHH")  # content type, version word, length

# every protocol version by its wire word; a word missing here is unknown
VERSION_BY_WORD = {v.value: v for v in Version}


class Reader:
    """Cursor over immutable bytes with length-prefixed vector helpers.

    Every read checks its bounds against the stored end before it touches
    the bytes; a short read raises ``WireError("truncated: wanted N, have
    M")``, with M counted after any length prefix already read.
    """

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.end = len(data)

    def remaining(self) -> int:
        return self.end - self.pos

    def take(self, n: int) -> bytes:
        pos = self.pos
        stop = pos + n
        if stop > self.end:
            raise _truncated(n, self.end - pos)
        self.pos = stop
        return self.data[pos:stop]

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise _truncated(1, 0)
        self.pos = pos + 1
        return self.data[pos]

    def u16(self) -> int:
        pos = self.pos
        if pos + 2 > self.end:
            raise _truncated(2, self.end - pos)
        self.pos = pos + 2
        return _U16.unpack_from(self.data, pos)[0]

    def u24(self) -> int:
        pos = self.pos
        if pos + 3 > self.end:
            raise _truncated(3, self.end - pos)
        self.pos = pos + 3
        high, low = _U8_U16.unpack_from(self.data, pos)
        return (high << 16) | low

    def u32(self) -> int:
        pos = self.pos
        if pos + 4 > self.end:
            raise _truncated(4, self.end - pos)
        self.pos = pos + 4
        return _U32.unpack_from(self.data, pos)[0]

    # the vectors inline their length read: they run once per field of
    # every hello and extension

    def vec8(self) -> bytes:
        pos, end = self.pos, self.end
        if pos >= end:
            raise _truncated(1, 0)
        start = pos + 1
        stop = start + self.data[pos]
        if stop > end:
            raise _truncated(stop - start, end - start)
        self.pos = stop
        return self.data[start:stop]

    def vec16(self) -> bytes:
        pos, end = self.pos, self.end
        if pos + 2 > end:
            raise _truncated(2, end - pos)
        start = pos + 2
        stop = start + _U16.unpack_from(self.data, pos)[0]
        if stop > end:
            raise _truncated(stop - start, end - start)
        self.pos = stop
        return self.data[start:stop]


def _truncated(wanted: int, have: int) -> WireError:
    return WireError(f"truncated: wanted {wanted}, have {have}")


def vec8(data: bytes) -> bytes:
    return bytes([len(data)]) + data


def vec16(data: bytes) -> bytes:
    return _U16.pack(len(data)) + data


def vec24(data: bytes) -> bytes:
    return _U32.pack(len(data) & 0xFFFFFF)[1:] + data


def record(content_type: int, version: Version, payload: bytes) -> bytes:
    return _RECORD_HEADER.pack(content_type, version.value, len(payload)) + payload


def handshake_message(hs_type: int, body: bytes) -> bytes:
    return bytes([hs_type]) + vec24(body)


def finished_records(version: Version) -> bytes:
    """The ChangeCipherSpec and Finished records that end either flight."""
    return (record(ContentType.CHANGE_CIPHER_SPEC, version, b"\x01")
            + record(ContentType.HANDSHAKE, version,
                     handshake_message(HsType.FINISHED, os.urandom(12))))


def read_record(sock) -> tuple[int, int, bytes]:
    """Read one TLS record; returns (content_type, version_word, payload)."""
    header = _recv_exact(sock, 5)
    ctype, ver, length = _RECORD_HEADER.unpack(header)
    if ctype not in _CONTENT_TYPES:
        raise WireError(f"not a TLS record (content type {ctype})")
    if length > MAX_RECORD + 2048:
        raise WireError(f"oversized record ({length} bytes)")
    return ctype, ver, _recv_exact(sock, length)


def _recv_exact(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise WireError("connection closed mid-record")
        buf += chunk
    return buf


def _encode_extensions(extensions: dict[int, bytes]) -> bytes:
    """The hello extension block; empty when there are no extensions."""
    if not extensions:
        return b""
    return vec16(b"".join(_U16.pack(t) + vec16(v)
                          for t, v in extensions.items()))


def _parse_extensions(r: Reader) -> dict[int, bytes]:
    """The extension block that ends a hello, if ``r`` has one left."""
    extensions: dict[int, bytes] = {}
    if r.remaining():
        er = Reader(r.vec16())
        while er.remaining():
            etype = er.u16()
            extensions[etype] = er.vec16()
    return extensions


@dataclass
class ClientHello:
    version: Version
    random: bytes
    session_id: bytes
    suites: list[int]
    compression: list[int]
    extensions: dict[int, bytes] = field(default_factory=dict)

    def encode(self) -> bytes:
        n = len(self.suites)
        body = b"".join((
            _U16.pack(self.version.value),
            self.random,
            vec8(self.session_id),
            struct.pack(f">H{n}H", 2 * n, *self.suites),
            vec8(bytes(self.compression)),
            _encode_extensions(self.extensions),
        ))
        return handshake_message(HsType.CLIENT_HELLO, body)

    @classmethod
    def parse(cls, body: bytes) -> "ClientHello":
        r = Reader(body)
        version = _version_from_word(r.u16())
        rand = r.take(32)
        session_id = r.vec8()
        suites_raw = r.vec16()
        if len(suites_raw) & 1:
            raise WireError(
                f"odd-length cipher suite vector ({len(suites_raw)} bytes)")
        suites = list(struct.unpack(f">{len(suites_raw) >> 1}H", suites_raw))
        compression = list(r.vec8())
        return cls(version, rand, session_id, suites, compression,
                   _parse_extensions(r))


@dataclass
class ServerHello:
    version: Version
    random: bytes
    session_id: bytes
    suite: int
    compression: int
    extensions: dict[int, bytes] = field(default_factory=dict)

    def encode(self) -> bytes:
        body = b"".join((
            _U16.pack(self.version.value),
            self.random,
            vec8(self.session_id),
            _U16_U8.pack(self.suite, self.compression),
            _encode_extensions(self.extensions),
        ))
        return handshake_message(HsType.SERVER_HELLO, body)

    @classmethod
    def parse(cls, body: bytes) -> "ServerHello":
        r = Reader(body)
        version = _version_from_word(r.u16())
        rand = r.take(32)
        session_id = r.vec8()
        suite = r.u16()
        compression = r.u8()
        return cls(version, rand, session_id, suite, compression,
                   _parse_extensions(r))

    @property
    def selected_version(self) -> Version:
        """Negotiated version, honoring the supported_versions extension."""
        sv = self.extensions.get(ExtType.SUPPORTED_VERSIONS)
        if sv is not None and len(sv) == 2:
            return _version_from_word(_U16.unpack(sv)[0])
        return self.version


def _version_from_word(word: int) -> Version:
    try:
        return VERSION_BY_WORD[word]
    except KeyError:
        raise WireError(f"unknown protocol version word 0x{word:04X}") from None


@dataclass
class ServerKeyExchange:
    """Parsed enough to read group parameters; signatures are not checked."""

    group_kind: str  # "FFDHE" or "ECDHE"
    dh_prime: Optional[bytes] = None

    @classmethod
    def parse_for_suite(cls, body: bytes, kex_is_ffdhe: bool) -> "ServerKeyExchange":
        r = Reader(body)
        if kex_is_ffdhe:
            prime = r.vec16()
            r.vec16()  # generator
            r.vec16()  # public value
            return cls(group_kind="FFDHE", dh_prime=prime)
        curve_type = r.u8()
        if curve_type != 3:
            raise WireError(f"unsupported ECDHE curve_type {curve_type}")
        r.u16()  # named curve
        r.vec8()  # point
        return cls(group_kind="ECDHE")


def encode_dhe_ske(prime: bytes) -> bytes:
    public = os.urandom(len(prime))
    body = vec16(prime) + vec16(b"\x02") + vec16(public)  # generator 2
    return handshake_message(HsType.SERVER_KEY_EXCHANGE, body)


def encode_ecdhe_ske() -> bytes:
    point = b"\x04" + os.urandom(64)
    body = bytes([3]) + _U16.pack(0x0017) + vec8(point)  # secp256r1
    return handshake_message(HsType.SERVER_KEY_EXCHANGE, body)


@dataclass
class NewSessionTicket:
    lifetime_hint_s: int
    ticket: bytes

    def encode(self) -> bytes:
        return handshake_message(
            HsType.NEW_SESSION_TICKET,
            _U32.pack(self.lifetime_hint_s) + vec16(self.ticket),
        )

    @classmethod
    def parse(cls, body: bytes) -> "NewSessionTicket":
        r = Reader(body)
        return cls(lifetime_hint_s=r.u32(), ticket=r.vec16())


def encode_certificate(der_chain: list[bytes]) -> bytes:
    chain = b"".join(vec24(der) for der in der_chain)
    return handshake_message(HsType.CERTIFICATE, vec24(chain))


def parse_certificate(body: bytes) -> list[bytes]:
    r = Reader(body)
    chain_raw = Reader(r.take(r.u24()))
    certs = []
    while chain_raw.remaining():
        certs.append(chain_raw.take(chain_raw.u24()))
    return certs


def iter_handshake_messages(payload: bytes):
    """Split one or more handshake messages out of a record payload."""
    r = Reader(payload)
    while r.remaining():
        hs_type = r.u8()
        body = r.take(r.u24())
        yield hs_type, body


def alert(description: int, version: Version = Version.TLS1_2,
          fatal: bool = True) -> bytes:
    return record(ContentType.ALERT, version, bytes([2 if fatal else 1, description]))


# --- heartbeat (message layout per the heartbeat extension RFC) ---

HEARTBEAT_REQUEST = 1
HEARTBEAT_RESPONSE = 2


def encode_heartbeat(msg_type: int, claimed_length: int, payload: bytes) -> bytes:
    return (bytes([msg_type]) + _U16.pack(claimed_length) + payload
            + os.urandom(16))  # the minimum padding


def parse_heartbeat(data: bytes) -> tuple[int, int, bytes]:
    """Returns (msg_type, claimed_payload_length, rest-of-message bytes)."""
    if len(data) < 3:
        raise WireError("short heartbeat message")
    return data[0], _U16.unpack_from(data, 1)[0], data[3:]


# --- historical SSLv2 hello format ---

SSLV2_CLIENT_HELLO = 1
SSLV2_SERVER_HELLO = 4

# export-era two-byte-header cipher kinds; v2-only servers predate modern suites
SSLV2_CIPHER_KINDS = [0x010080, 0x020080, 0x040080, 0x050080, 0x060040, 0x0700C0]


def encode_sslv2_client_hello() -> bytes:
    challenge = os.urandom(16)
    specs = b"".join(k.to_bytes(3, "big") for k in SSLV2_CIPHER_KINDS)
    body = (bytes([SSLV2_CLIENT_HELLO]) + struct.pack(">H", Version.SSLv2.value)
            + struct.pack(">HHH", len(specs), 0, len(challenge))
            + specs + challenge)
    return struct.pack(">H", 0x8000 | len(body)) + body


def encode_sslv2_server_hello(cert: bytes = b"") -> bytes:
    spec = bytes([0x01, 0x00, 0x80])
    body = (bytes([SSLV2_SERVER_HELLO, 0, 1])  # no session hit, X.509 cert type
            + struct.pack(">HHHH", Version.SSLv2.value, len(cert), len(spec), 16)
            + cert + spec + os.urandom(16))
    return struct.pack(">H", 0x8000 | len(body)) + body


def read_sslv2_record(sock) -> bytes:
    """Read one record in the SSLv2 two-byte-header format: the header, then
    as many bytes as its 15-bit length gives (at most 32,767). Bytes whose
    first lacks the high bit begin no such record: only those two are read.
    A peer that closes before the whole record is a ``WireError``."""
    header = _recv_exact(sock, 2)
    if not header[0] & 0x80:
        return header
    return header + _recv_exact(sock, _U16.unpack(header)[0] & 0x7FFF)


def parse_sslv2_server_hello(data: bytes) -> bool:
    """True iff the bytes begin a valid SSLv2 ServerHello."""
    if len(data) < 2 or not (data[0] & 0x80):
        return False
    body = data[2:2 + (_U16.unpack_from(data)[0] & 0x7FFF)]
    return len(body) >= 5 and body[0] == SSLV2_SERVER_HELLO
