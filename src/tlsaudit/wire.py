"""TLS record-layer framing and handshake message encoding.

Shared by the probing engine and the local test endpoints. Covers the
plaintext handshake flight (hello messages, certificate, key exchange,
ticket), the historical SSLv2 hello format, and heartbeat messages.
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
    SUPPORTED_GROUPS = 10
    EC_POINT_FORMATS = 11
    SIGNATURE_ALGORITHMS = 13
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
    INTERNAL_ERROR = 80


MAX_RECORD = 1 << 14


class Reader:
    """Cursor over immutable bytes with length-prefixed vector helpers."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> bytes:
        if self.remaining() < n:
            raise WireError(f"truncated: wanted {n}, have {self.remaining()}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u24(self) -> int:
        b = self.take(3)
        return (b[0] << 16) | (b[1] << 8) | b[2]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def vec8(self) -> bytes:
        return self.take(self.u8())

    def vec16(self) -> bytes:
        return self.take(self.u16())


def vec8(data: bytes) -> bytes:
    return bytes([len(data)]) + data


def vec16(data: bytes) -> bytes:
    return struct.pack(">H", len(data)) + data


def vec24(data: bytes) -> bytes:
    n = len(data)
    return bytes([(n >> 16) & 0xFF, (n >> 8) & 0xFF, n & 0xFF]) + data


def record(content_type: int, version: Version, payload: bytes) -> bytes:
    return struct.pack(">BHH", content_type, version.value, len(payload)) + payload


def handshake_message(hs_type: int, body: bytes) -> bytes:
    return bytes([hs_type]) + vec24(body)


def read_record(sock) -> tuple[int, int, bytes]:
    """Read one TLS record; returns (content_type, version_word, payload)."""
    header = _recv_exact(sock, 5)
    ctype, ver, length = struct.unpack(">BHH", header)
    if ctype not in iter(ContentType) and not (0x80 & ctype):
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
    return vec16(b"".join(struct.pack(">H", t) + vec16(v)
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
        body = struct.pack(">H", self.version.value)
        body += self.random
        body += vec8(self.session_id)
        body += vec16(b"".join(struct.pack(">H", s) for s in self.suites))
        body += vec8(bytes(self.compression))
        body += _encode_extensions(self.extensions)
        return handshake_message(HsType.CLIENT_HELLO, body)

    @classmethod
    def parse(cls, body: bytes) -> "ClientHello":
        r = Reader(body)
        version = _version_from_word(r.u16())
        rand = r.take(32)
        session_id = r.vec8()
        suites_raw = r.vec16()
        suites = [
            struct.unpack(">H", suites_raw[i:i + 2])[0]
            for i in range(0, len(suites_raw), 2)
        ]
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
        body = struct.pack(">H", self.version.value)
        body += self.random
        body += vec8(self.session_id)
        body += struct.pack(">HB", self.suite, self.compression)
        body += _encode_extensions(self.extensions)
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
            return _version_from_word(struct.unpack(">H", sv)[0])
        return self.version


def _version_from_word(word: int) -> Version:
    try:
        return Version(word)
    except ValueError:
        raise WireError(f"unknown protocol version word 0x{word:04X}") from None


@dataclass
class ServerKeyExchange:
    """Parsed enough to read group parameters; signatures are not checked."""

    group_kind: str  # "FFDHE" or "ECDHE"
    dh_prime: Optional[bytes] = None
    named_curve: Optional[int] = None

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
        curve = r.u16()
        r.vec8()  # point
        return cls(group_kind="ECDHE", named_curve=curve)


def encode_dhe_ske(prime: bytes) -> bytes:
    public = os.urandom(len(prime))
    body = vec16(prime) + vec16(b"\x02") + vec16(public)  # generator 2
    return handshake_message(HsType.SERVER_KEY_EXCHANGE, body)


def encode_ecdhe_ske() -> bytes:
    point = b"\x04" + os.urandom(64)
    body = bytes([3]) + struct.pack(">H", 0x0017) + vec8(point)  # secp256r1
    return handshake_message(HsType.SERVER_KEY_EXCHANGE, body)


@dataclass
class NewSessionTicket:
    lifetime_hint_s: int
    ticket: bytes

    def encode(self) -> bytes:
        return handshake_message(
            HsType.NEW_SESSION_TICKET,
            struct.pack(">I", self.lifetime_hint_s) + vec16(self.ticket),
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
    return (bytes([msg_type]) + struct.pack(">H", claimed_length) + payload
            + os.urandom(16))  # the minimum padding


def parse_heartbeat(data: bytes) -> tuple[int, int, bytes]:
    """Returns (msg_type, claimed_payload_length, rest-of-message bytes)."""
    if len(data) < 3:
        raise WireError("short heartbeat message")
    return data[0], struct.unpack(">H", data[1:3])[0], data[3:]


# --- historical SSLv2 hello format ---

SSLV2_CLIENT_HELLO = 1
SSLV2_SERVER_HELLO = 4

# export-era two-byte-header cipher kinds; v2-only servers predate modern suites
SSLV2_CIPHER_KINDS = [0x010080, 0x020080, 0x040080, 0x050080, 0x060040, 0x0700C0]


def encode_sslv2_client_hello() -> bytes:
    challenge = os.urandom(16)
    specs = b"".join(
        bytes([(k >> 16) & 0xFF, (k >> 8) & 0xFF, k & 0xFF])
        for k in SSLV2_CIPHER_KINDS
    )
    body = (bytes([SSLV2_CLIENT_HELLO]) + struct.pack(">H", Version.SSLv2.value)
            + struct.pack(">HHH", len(specs), 0, len(challenge))
            + specs + challenge)
    return struct.pack(">H", 0x8000 | len(body)) + body


def looks_like_sslv2(first_bytes: bytes) -> bool:
    return len(first_bytes) >= 3 and bool(first_bytes[0] & 0x80)


def encode_sslv2_server_hello(cert: bytes = b"") -> bytes:
    spec = bytes([0x01, 0x00, 0x80])
    body = (bytes([SSLV2_SERVER_HELLO, 0, 1])  # no session hit, X.509 cert type
            + struct.pack(">H", Version.SSLv2.value)
            + struct.pack(">HHH", len(cert), len(spec), 16)
            + cert + spec + os.urandom(16))
    return struct.pack(">H", 0x8000 | len(body)) + body


def parse_sslv2_server_hello(data: bytes) -> bool:
    """True iff the bytes begin a valid SSLv2 ServerHello."""
    if len(data) < 2 or not (data[0] & 0x80):
        return False
    length = ((data[0] & 0x7F) << 8) | data[1]
    body = data[2:2 + length]
    return len(body) >= 5 and body[0] == SSLV2_SERVER_HELLO
