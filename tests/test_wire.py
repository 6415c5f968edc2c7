import os
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsaudit import wire
from tlsaudit.engine import HandshakeEngine, HandshakeOffer
from tlsaudit.registry import Version


def test_vector_helpers_round_trip():
    assert wire.vec8(b"ab") == b"\x02ab"
    assert wire.vec16(b"ab") == b"\x00\x02ab"
    assert wire.vec24(b"ab") == b"\x00\x00\x02ab"
    r = wire.Reader(wire.vec16(b"hello"))
    assert r.vec16() == b"hello"
    assert r.remaining() == 0


def test_reader_truncation_raises():
    # the text reaches traces as a PROTOCOL_ERROR annotation; "have" counts
    # what is left after any length prefix already read
    cases = [
        (lambda r: r.vec16(), b"\x00\x10short", "truncated: wanted 16, have 5"),
        (lambda r: r.vec16(), b"\x00", "truncated: wanted 2, have 1"),
        (lambda r: r.vec8(), b"", "truncated: wanted 1, have 0"),
        (lambda r: r.vec8(), b"\x04ab", "truncated: wanted 4, have 2"),
        (lambda r: r.u8(), b"", "truncated: wanted 1, have 0"),
        (lambda r: r.u16(), b"\x01", "truncated: wanted 2, have 1"),
        (lambda r: r.u24(), b"\x01\x02", "truncated: wanted 3, have 2"),
        (lambda r: r.u32(), b"\x01\x02\x03", "truncated: wanted 4, have 3"),
        (lambda r: r.take(5), b"abc", "truncated: wanted 5, have 3"),
        (lambda r: list(wire.iter_handshake_messages(r.data)), b"\x02\x00",
         "truncated: wanted 3, have 1"),
    ]
    for read, data, text in cases:
        with pytest.raises(wire.WireError) as exc:
            read(wire.Reader(data))
        assert str(exc.value) == text


def test_record_read_round_trip():
    a, b = socket.socketpair()
    try:
        payload = b"\x01" * 100
        a.sendall(wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2,
                              payload))
        ctype, ver, got = wire.read_record(b)
        assert ctype == wire.ContentType.HANDSHAKE
        assert ver == Version.TLS1_2.value
        assert got == payload
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("ctype", [0, 19, 25, 0x80, 0x90, 0xFF])
def test_an_unknown_record_type_is_refused_at_its_header(ctype):
    a, b = socket.socketpair()
    with a, b:
        body = b"abcd" * 4096
        a.sendall(bytes([ctype]) + b"\x03\x03" + len(body).to_bytes(2, "big")
                  + body)
        with pytest.raises(wire.WireError) as err:
            wire.read_record(b)
        assert str(err.value) == f"not a TLS record (content type {ctype})"
        # only the five header bytes were consumed
        a.close()
        rest = b""
        while chunk := b.recv(65536):
            rest += chunk
        assert rest == body


def test_client_hello_round_trip():
    hello = wire.ClientHello(
        version=Version.TLS1_2, random=os.urandom(32),
        session_id=b"\xaa" * 8, suites=[0xC02F, 0x009C],
        compression=[0],
        extensions={wire.ExtType.SERVER_NAME: b"\x00\x00"},
    )
    encoded = hello.encode()
    msgs = list(wire.iter_handshake_messages(encoded))
    assert len(msgs) == 1
    hs_type, body = msgs[0]
    assert hs_type == wire.HsType.CLIENT_HELLO
    parsed = wire.ClientHello.parse(body)
    assert parsed == hello


def test_server_hello_round_trip_and_selected_version():
    hello = wire.ServerHello(
        version=Version.TLS1_2, random=os.urandom(32), session_id=b"",
        suite=0x1301, compression=0,
        extensions={wire.ExtType.SUPPORTED_VERSIONS: b"\x03\x04"},
    )
    _, body = next(wire.iter_handshake_messages(hello.encode()))
    parsed = wire.ServerHello.parse(body)
    assert parsed.suite == 0x1301
    assert parsed.selected_version is Version.TLS1_3


def test_certificate_round_trip():
    chain = [b"cert-one", b"cert-two-longer"]
    encoded = wire.encode_certificate(chain)
    hs_type, body = next(wire.iter_handshake_messages(encoded))
    assert hs_type == wire.HsType.CERTIFICATE
    assert wire.parse_certificate(body) == chain


def test_ske_round_trips():
    prime = os.urandom(128)
    _, body = next(wire.iter_handshake_messages(wire.encode_dhe_ske(prime)))
    ske = wire.ServerKeyExchange.parse_for_suite(body, kex_is_ffdhe=True)
    assert ske.group_kind == "FFDHE" and ske.dh_prime == prime

    _, body = next(wire.iter_handshake_messages(wire.encode_ecdhe_ske()))
    ske = wire.ServerKeyExchange.parse_for_suite(body, kex_is_ffdhe=False)
    assert ske.group_kind == "ECDHE" and ske.dh_prime is None


def test_new_session_ticket_round_trip():
    nst = wire.NewSessionTicket(lifetime_hint_s=7200, ticket=os.urandom(48))
    _, body = next(wire.iter_handshake_messages(nst.encode()))
    assert wire.NewSessionTicket.parse(body) == nst


def test_heartbeat_round_trip():
    payload = b"ping"
    data = wire.encode_heartbeat(wire.HEARTBEAT_REQUEST, 4, payload)
    msg_type, claimed, rest = wire.parse_heartbeat(data)
    assert msg_type == wire.HEARTBEAT_REQUEST
    assert claimed == 4
    assert rest.startswith(payload)


def test_sslv2_hello_detection():
    assert wire.parse_sslv2_server_hello(wire.encode_sslv2_server_hello())


def test_alert_encoding():
    data = wire.alert(wire.AlertDescription.HANDSHAKE_FAILURE)
    assert data[0] == wire.ContentType.ALERT
    assert data[-1] == wire.AlertDescription.HANDSHAKE_FAILURE
    assert data[-2] == 2  # fatal


# -- golden bytes: what each encoder emits for fixed inputs ------------------

# the 29-suite browser union, in its preference order
_BROWSER_UNION = [
    0xC02B, 0xC02C, 0xC02F, 0xC030, 0xCCA8, 0xCCA9, 0x009C, 0x009D, 0xC009,
    0xC00A, 0xC013, 0xC014, 0xC023, 0xC024, 0xC027, 0xC028, 0xC008, 0xC012,
    0x0032, 0x0033, 0x0038, 0x0039, 0x0040, 0x006A, 0x002F, 0x0035, 0x003C,
    0x003D, 0x000A,
]


def _golden_client_hello_record() -> bytes:
    sni = wire.vec16(b"\x00" + wire.vec16(b"example.com"))
    hello = wire.ClientHello(
        version=Version.TLS1_2, random=bytes(range(32)), session_id=b"",
        suites=_BROWSER_UNION, compression=[0],
        extensions={wire.ExtType.SERVER_NAME: sni,
                    wire.ExtType.RENEGOTIATION_INFO: b""})
    return wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_0, hello.encode())


def _golden_server_hello() -> bytes:
    return wire.ServerHello(
        version=Version.TLS1_2, random=bytes(range(32, 64)),
        session_id=bytes(range(0xA0, 0xC0)), suite=0xC02F, compression=0,
        extensions={wire.ExtType.RENEGOTIATION_INFO: b"\x00",
                    wire.ExtType.SESSION_TICKET: b"",
                    wire.ExtType.HEARTBEAT: b"\x01"}).encode()


GOLDEN = {
    "client_hello_record": (
        _golden_client_hello_record,
        "160301007f0100007b0303000102030405060708090a0b0c0d0e0f10111213141516"
        "1718191a1b1c1d1e1f00003ac02bc02cc02fc030cca8cca9009c009dc009c00ac013"
        "c014c023c024c027c028c008c01200320033003800390040006a002f0035003c003d"
        "000a0100001800000010000e00000b6578616d706c652e636f6dff010000"),
    "server_hello": (
        _golden_server_hello,
        "020000560303202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
        "3c3d3e3f20a0a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc"
        "bdbebfc02f00000eff0100010000230000000f000101"),
    "certificate": (
        lambda: wire.encode_certificate([b"\x30\x03\x02\x01\x01", bytes(range(40))]),
        "0b0000360000330000053003020101000028000102030405060708090a0b0c0d0e0f"
        "101112131415161718191a1b1c1d1e1f2021222324252627"),
    "new_session_ticket": (
        lambda: wire.NewSessionTicket(7200, bytes(range(48))).encode(),
        "0400003600001c200030000102030405060708090a0b0c0d0e0f1011121314151617"
        "18191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f"),
    "alert_record": (
        lambda: wire.alert(wire.AlertDescription.HANDSHAKE_FAILURE, Version.TLS1_1),
        "15030200020228"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_encoders_emit_the_golden_bytes(name):
    build, expected = GOLDEN[name]
    assert build().hex() == expected


def test_engine_hello_record_matches_the_golden_bytes(db):
    offer = HandshakeOffer(suites=_BROWSER_UNION, sni_name="example.com",
                           extensions={"renegotiation_info"})
    record = bytearray(HandshakeEngine(db, timeout=3.0)._hello_record(offer))
    record[11:43] = bytes(range(32))  # the hello's random, after 11 header bytes
    assert record.hex() == GOLDEN["client_hello_record"][1]


def test_golden_client_hello_parses_back():
    record = _golden_client_hello_record()
    (hs_type, body), = wire.iter_handshake_messages(record[5:])
    hello = wire.ClientHello.parse(body)
    assert hs_type == wire.HsType.CLIENT_HELLO
    assert hello.suites == _BROWSER_UNION
    assert sorted(hello.extensions) == [wire.ExtType.SERVER_NAME,
                                        wire.ExtType.RENEGOTIATION_INFO]


# -- malformed bytes raise WireError and nothing else -------------------------

def test_odd_length_suite_vector_is_a_wire_error():
    body = (b"\x03\x03" + bytes(32) + b"\x00"
            + b"\x00\x03\xc0\x2f\x00" + b"\x01\x00")
    with pytest.raises(wire.WireError, match=r"odd-length cipher suite vector \(3 bytes\)"):
        wire.ClientHello.parse(body)


def test_unknown_version_word_is_a_wire_error():
    body = b"\x7f\x12" + bytes(32) + b"\x00" + b"\xc0\x2f\x00"
    with pytest.raises(wire.WireError, match="unknown protocol version word 0x7F12"):
        wire.ServerHello.parse(body)


def _body(message: bytes) -> bytes:
    return next(wire.iter_handshake_messages(message))[1]


# one well-formed input per parser, which the fuzzer truncates and mutates
_VALID = {
    "ClientHello.parse": _body(_golden_client_hello_record()[5:]),
    "ServerHello.parse": _body(_golden_server_hello()),
    "parse_certificate": _body(GOLDEN["certificate"][0]()),
    "iter_handshake_messages": (_golden_server_hello()
                                + wire.encode_certificate([b"der"])
                                + wire.handshake_message(wire.HsType.SERVER_HELLO_DONE, b"")),
    "ske_ffdhe": _body(wire.encode_dhe_ske(bytes(range(1, 65)))),
    "ske_ecdhe": _body(wire.encode_ecdhe_ske()),
    "NewSessionTicket.parse": _body(GOLDEN["new_session_ticket"][0]()),
    "parse_heartbeat": wire.encode_heartbeat(wire.HEARTBEAT_REQUEST, 4, b"ping"),
}


def _server_hello_and_version(data):
    return wire.ServerHello.parse(data).selected_version


_PARSERS = {
    "ClientHello.parse": wire.ClientHello.parse,
    "ServerHello.parse": _server_hello_and_version,
    "parse_certificate": wire.parse_certificate,
    "iter_handshake_messages": lambda data: list(wire.iter_handshake_messages(data)),
    "ske_ffdhe": lambda data: wire.ServerKeyExchange.parse_for_suite(data, True),
    "ske_ecdhe": lambda data: wire.ServerKeyExchange.parse_for_suite(data, False),
    "NewSessionTicket.parse": wire.NewSessionTicket.parse,
    "parse_heartbeat": wire.parse_heartbeat,
}


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(data)))
        action = draw(st.sampled_from(("set", "insert", "delete", "cut")))
        if action == "set":
            data[i:i + 1] = bytes([draw(st.integers(0, 255))])
        elif action == "insert":
            data[i:i] = draw(st.binary(min_size=1, max_size=4))
        elif action == "delete":
            del data[i:i + draw(st.integers(1, 4))]
        else:
            del data[i:]
    return bytes(data)


@pytest.mark.parametrize("name", sorted(_PARSERS))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_wire_error(name, data):
    raw = data.draw(st.one_of(st.binary(max_size=200), _mutated(_VALID[name])))
    try:
        _PARSERS[name](raw)
    except wire.WireError:
        pass


@pytest.mark.parametrize("name", sorted(_PARSERS))
def test_fuzz_seeds_are_valid(name):
    _PARSERS[name](_VALID[name])


# -- encode -> parse round trips ----------------------------------------------

_versions = st.sampled_from(list(Version))
_extensions = st.dictionaries(st.integers(0, 0xFFFF), st.binary(max_size=40),
                              max_size=6)


@settings(max_examples=200, deadline=None)
@given(version=_versions, random=st.binary(min_size=32, max_size=32),
       session_id=st.binary(max_size=32),
       suites=st.lists(st.integers(0, 0xFFFF), max_size=120),
       compression=st.lists(st.integers(0, 255), max_size=4),
       extensions=_extensions)
def test_client_hello_round_trips(version, random, session_id, suites,
                                  compression, extensions):
    hello = wire.ClientHello(version, random, session_id, suites, compression,
                             extensions)
    (hs_type, body), = wire.iter_handshake_messages(hello.encode())
    assert hs_type == wire.HsType.CLIENT_HELLO
    assert wire.ClientHello.parse(body) == hello


@settings(max_examples=200, deadline=None)
@given(version=_versions, random=st.binary(min_size=32, max_size=32),
       session_id=st.binary(max_size=32), suite=st.integers(0, 0xFFFF),
       compression=st.integers(0, 255), extensions=_extensions)
def test_server_hello_round_trips(version, random, session_id, suite,
                                  compression, extensions):
    hello = wire.ServerHello(version, random, session_id, suite, compression,
                             extensions)
    (hs_type, body), = wire.iter_handshake_messages(hello.encode())
    assert hs_type == wire.HsType.SERVER_HELLO
    assert wire.ServerHello.parse(body) == hello


@settings(max_examples=200, deadline=None)
@given(lifetime=st.integers(0, 2**32 - 1), ticket=st.binary(max_size=300))
def test_new_session_ticket_round_trips(lifetime, ticket):
    nst = wire.NewSessionTicket(lifetime_hint_s=lifetime, ticket=ticket)
    (hs_type, body), = wire.iter_handshake_messages(nst.encode())
    assert hs_type == wire.HsType.NEW_SESSION_TICKET
    assert wire.NewSessionTicket.parse(body) == nst


@settings(max_examples=200, deadline=None)
@given(chain=st.lists(st.binary(max_size=300), max_size=5))
def test_certificate_round_trips(chain):
    (hs_type, body), = wire.iter_handshake_messages(wire.encode_certificate(chain))
    assert hs_type == wire.HsType.CERTIFICATE
    assert wire.parse_certificate(body) == chain
