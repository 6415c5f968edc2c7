import os
import socket

import pytest

from tlsaudit import wire
from tlsaudit.registry import Version


def test_vector_helpers_round_trip():
    assert wire.vec8(b"ab") == b"\x02ab"
    assert wire.vec16(b"ab") == b"\x00\x02ab"
    assert wire.vec24(b"ab") == b"\x00\x00\x02ab"
    r = wire.Reader(wire.vec16(b"hello"))
    assert r.vec16() == b"hello"
    assert r.remaining() == 0


def test_reader_truncation_raises():
    r = wire.Reader(b"\x00\x10short")
    with pytest.raises(wire.WireError):
        r.vec16()


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
    assert ske.group_kind == "ECDHE" and ske.named_curve == 0x0017


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
    hello = wire.encode_sslv2_client_hello()
    assert wire.looks_like_sslv2(hello[:5])
    assert not wire.looks_like_sslv2(
        wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2, b"\x01")[:5])
    assert wire.parse_sslv2_server_hello(wire.encode_sslv2_server_hello())


def test_alert_encoding():
    data = wire.alert(wire.AlertDescription.HANDSHAKE_FAILURE)
    assert data[0] == wire.ContentType.ALERT
    assert data[-1] == wire.AlertDescription.HANDSHAKE_FAILURE
    assert data[-2] == 2  # fatal
