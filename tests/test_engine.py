import errno
import os
import socket
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from helpers import TLS_RECORD_HEADER, LoopbackPeer, trickles, until_closed

from tlsaudit import engine as engine_module
from tlsaudit import fixtures, wire
from tlsaudit.engine import (HandshakeEngine, HandshakeOffer, HandshakeOutcome,
                             HeartbleedResult, OfferError, ProbeStatus)
from tlsaudit.records import split_target
from tlsaudit.registry import Version

RICH_SPEC = fixtures.FixtureSpec(
    versions=frozenset({Version.TLS1_0, Version.TLS1_1, Version.TLS1_2}),
    suites=(0xC02F, 0xC030, 0x009C, 0x002F),
    server_preference=True,
    session_id_cache=True,
    tickets=3600,
    server_header="nginx/1.14.0 (Ubuntu)",
)


@pytest.fixture(scope="module")
def endpoint(db):
    with fixtures.spawn(RICH_SPEC, db) as ep:
        yield ep


@pytest.fixture(scope="module")
def engine(db):
    return HandshakeEngine(db, timeout=3.0)


def test_offer_validation():
    with pytest.raises(OfferError):
        HandshakeOffer(max_version=Version.TLS1_2,
                       min_version=Version.TLS1_2, suites=[]).validate()
    with pytest.raises(OfferError):
        HandshakeOffer(max_version=Version.SSLv3,
                       min_version=Version.TLS1_2,
                       suites=[0xC02F]).validate()


def test_negotiation_picks_server_preference(engine, endpoint):
    offer = HandshakeOffer(max_version=Version.TLS1_2,
                           min_version=Version.SSLv3,
                           suites=[0x002F, 0xC02F])
    outcome = engine.probe(endpoint.target, offer)
    assert outcome.status is ProbeStatus.NEGOTIATED
    assert outcome.selected_suite == 0xC02F
    assert outcome.selected_version is Version.TLS1_2


def test_no_overlap_yields_alert(engine, endpoint):
    offer = HandshakeOffer(max_version=Version.TLS1_2,
                           min_version=Version.SSLv3, suites=[0x0005])
    outcome = engine.probe(endpoint.target, offer)
    assert outcome.status is ProbeStatus.TLS_ALERT
    assert outcome.alert_code is not None


def test_version_capping(engine, endpoint):
    offer = HandshakeOffer(max_version=Version.TLS1_0,
                           min_version=Version.SSLv3,
                           suites=[0x002F])
    outcome = engine.probe(endpoint.target, offer)
    assert outcome.status is ProbeStatus.NEGOTIATED
    assert outcome.selected_version is Version.TLS1_0


def test_tcp_failure_status(engine):
    outcome = engine.probe(("127.0.0.1", 1), HandshakeOffer(
        max_version=Version.TLS1_2, min_version=Version.SSLv3,
        suites=[0xC02F]))
    assert outcome.status in (ProbeStatus.TCP_FAILURE, ProbeStatus.TIMEOUT)
    assert outcome.retried  # transport failures are retried exactly once


def test_unsplittable_target_is_tcp_failure(engine):
    outcome = engine.probe(split_target("localhost:https"), HandshakeOffer(
        max_version=Version.TLS1_2, min_version=Version.SSLv3,
        suites=[0xC02F]))
    assert outcome.status is ProbeStatus.TCP_FAILURE


def _get_offer(suites):
    """The offer of the orchestrator's baseline GET, without SNI."""
    return HandshakeOffer(suites=suites, extensions={"renegotiation_info"},
                          http_get=True)


def test_http_get(engine, endpoint):
    outcome = engine.probe(endpoint.target, _get_offer([0xC02F, 0x002F]))
    assert outcome.status is ProbeStatus.NEGOTIATED
    assert outcome.http is not None
    assert outcome.http.status_code == 200
    assert outcome.http.server_header == "nginx/1.14.0 (Ubuntu)"


def test_http_response_split_over_many_records(db):
    response = (b"HTTP/1.1 200 OK\r\nServer: nginx/1.14.0 (Ubuntu)\r\n"
                b"Content-Length: 600\r\n\r\n" + b"x" * 600)
    client, server = socket.socketpair()
    with client, server:
        conn = engine_module._Connection(client, db, finished=True)
        for start in range(0, len(response), 7):
            server.sendall(wire.record(wire.ContentType.APPLICATION_DATA,
                                       Version.TLS1_2, response[start:start + 7]))
        server.sendall(wire.record(wire.ContentType.ALERT, Version.TLS1_2,
                                   b"\x01\x00"))
        assert not conn.read_until(lambda c: False)
    assert bytes(conn.app_data) == response
    assert (engine_module._parse_http(bytes(conn.app_data))
            == engine_module._parse_http(response)
            == engine_module.HttpResult(200, "nginx/1.14.0 (Ubuntu)"))


@pytest.mark.parametrize("host, sni_name, header", [
    ("127.0.0.1", "", b"Host: 127.0.0.1\r\n"),
    ("::1", "", b"Host: [::1]\r\n"),
    ("::1", "example.test", b"Host: example.test\r\n"),
])
def test_get_names_the_sni_name_or_the_dialled_host(db, engine, host, sni_name,
                                                    header):
    client, server = socket.socketpair()
    with client, server:
        finished = wire.handshake_message(wire.HsType.FINISHED, bytes(12))
        server.sendall(
            wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2, finished)
            + wire.record(wire.ContentType.APPLICATION_DATA, Version.TLS1_2,
                          b"HTTP/1.1 200 OK\r\n\r\n"))
        offer = HandshakeOffer(suites=[0xC02F], sni_name=sni_name,
                               http_get=True)
        http = engine._finish(engine_module._Connection(client, db),
                              Version.TLS1_2, offer, host)
        client.shutdown(socket.SHUT_WR)
        sent = b""
        while chunk := server.recv(4096):
            sent += chunk
    assert http == engine_module.HttpResult(200, None)
    assert header in sent


@pytest.mark.parametrize("head_ends", [True, False],
                         ids=["multi-MiB body", "endless header block"])
def test_http_read_stops_at_the_headers_or_the_cap(db, engine, monkeypatch,
                                                   head_ends):
    head = b"HTTP/1.1 200 OK\r\nServer: nginx/1.14.0 (Ubuntu)\r\n"
    if head_ends:
        head += b"Content-Length: 4194304\r\n\r\n"
    response = head + b"x" * (4 << 20)
    chunk = 16 * 1024

    def in_records(version):
        # one reply of many records, which the engine reads one by one
        return b"".join(wire.record(wire.ContentType.APPLICATION_DATA, version,
                                    response[start:start + chunk])
                        for start in range(0, len(response), chunk))

    read = []
    parse = engine_module._parse_http
    monkeypatch.setattr(engine_module, "_parse_http",
                        lambda raw: read.append(len(raw)) or parse(raw))
    with fixtures.spawn(RICH_SPEC, db) as ep:
        plain = engine.probe(ep.target, _get_offer([0xC02F]))
        ep._http_response = in_records
        big = engine.probe(ep.target, _get_offer([0xC02F]))
    assert big.status is plain.status is ProbeStatus.NEGOTIATED
    assert big.http == plain.http == engine_module.HttpResult(
        200, "nginx/1.14.0 (Ubuntu)")
    assert read[0] < chunk <= read[1] <= engine_module.READ_BYTE_CAP


def test_session_id_resumption(engine, endpoint):
    establish = engine.probe(endpoint.target, HandshakeOffer(
        max_version=Version.TLS1_2, min_version=Version.SSLv3,
        suites=[0xC02F], complete=True))
    assert establish.status is ProbeStatus.NEGOTIATED
    assert establish.session_id
    resumed = engine.probe(endpoint.target, HandshakeOffer(
        suites=[0xC02F], resumption_session_id=establish.session_id,
        complete=True))
    assert resumed.status is ProbeStatus.NEGOTIATED
    assert resumed.resumed


def test_ticket_resumption(engine, endpoint):
    establish = engine.probe(endpoint.target, HandshakeOffer(
        max_version=Version.TLS1_2, min_version=Version.SSLv3,
        suites=[0xC02F], extensions={"session_ticket"}, complete=True))
    assert establish.ticket
    assert establish.ticket_lifetime_hint_s == 3600
    resumed = engine.probe(endpoint.target, HandshakeOffer(
        suites=[0xC02F], extensions={"session_ticket"},
        resumption_ticket=establish.ticket, complete=True))
    assert resumed.resumed


def test_sslv2_probe_negative(engine, endpoint):
    supported, _err = engine.sslv2_probe(endpoint.target)
    assert not supported


def test_tls13_probe_negative(engine, endpoint):
    assert engine.tls13_probe(endpoint.target, [0xC02F]) == (False, None)


def test_heartbleed_probe_off(engine, endpoint):
    result = engine.heartbleed_probe(endpoint.target, [0xC02F])
    assert not result.heartbeat_acknowledged
    assert not result.vulnerable


def test_heartbleed_probe_vulnerable(db, engine):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True, heartbeat=fixtures.HEARTBEAT_VULNERABLE)
    with fixtures.spawn(spec, db) as ep:
        result = engine.heartbleed_probe(ep.target, [0xC02F])
    assert result.heartbeat_acknowledged
    assert result.vulnerable
    assert result.evidence_len > 0


def test_heartbleed_probe_patched(db, engine):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True, heartbeat=fixtures.HEARTBEAT_PATCHED)
    with fixtures.spawn(spec, db) as ep:
        result = engine.heartbleed_probe(ep.target, [0xC02F])
    assert result.heartbeat_acknowledged
    assert not result.vulnerable


def _leaks_under_an_unoffered_suite(conn):
    """Acks heartbeat in a ServerHello that picks RC4-SHA, then answers any
    heartbeat with 2,000 bytes more than it was sent."""
    wire.read_record(conn)
    hello = wire.ServerHello(Version.TLS1_2, bytes(32), b"", 0x0005, 0,
                             {wire.ExtType.HEARTBEAT: b"\x01"})
    done = wire.handshake_message(wire.HsType.SERVER_HELLO_DONE, b"")
    conn.sendall(wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2,
                             hello.encode() + done))
    _ctype, _ver, payload = wire.read_record(conn)  # or the client hangs up
    echo = payload[3:19] + bytes(2000)
    conn.sendall(wire.record(wire.ContentType.HEARTBEAT, Version.TLS1_2,
                             wire.encode_heartbeat(wire.HEARTBEAT_RESPONSE,
                                                   len(echo), echo)))


@pytest.mark.parametrize("server, error", [
    (until_closed, "TIMEOUT: read timeout"),
    (wire.read_record, "PROTOCOL_ERROR: connection closed mid-record"),
    (_leaks_under_an_unoffered_suite,
     "PROTOCOL_ERROR: server selected unoffered suite 0x0005"),
], ids=["silent", "closes_after_hello", "unoffered_suite"])
def test_heartbleed_probe_without_server_hello(db, server, error):
    """No ServerHello, or one that ``handshake`` too would reject."""
    with LoopbackPeer(server) as peer:
        result = HandshakeEngine(db, timeout=0.5).heartbleed_probe(
            peer.address, [0xC02F])
    assert not result.heartbeat_acknowledged
    assert not result.vulnerable
    assert result.error == error


def test_heartbleed_probe_answered_by_an_alert(db):
    """A server that acks heartbeat and then answers the request with an
    alert has answered: no leak, and no error."""
    hello = wire.ServerHello(Version.TLS1_2, bytes(32), b"", 0xC02F, 0,
                             {wire.ExtType.HEARTBEAT: b"\x01"})
    flight = wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2,
                         hello.encode() + wire.encode_ecdhe_ske()
                         + wire.handshake_message(wire.HsType.SERVER_HELLO_DONE, b""))
    with LoopbackPeer(wire.read_record, flight, wire.read_record,
                      wire.alert(wire.AlertDescription.UNEXPECTED_MESSAGE),
                      until_closed) as peer:
        result = HandshakeEngine(db, timeout=3.0).heartbleed_probe(
            peer.address, [0xC02F])
    assert result == HeartbleedResult(True, False)


def test_heartbleed_result_invariant():
    with pytest.raises(ValueError):
        HeartbleedResult(heartbeat_acknowledged=False, vulnerable=True)


def test_sslv2_probe_emulated(db, engine):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.SSLv2, Version.TLS1_0, Version.TLS1_2}),
        suites=(0xC02F, 0x002F), server_preference=False)
    with fixtures.spawn(spec, db) as ep:
        supported, _err = engine.sslv2_probe(ep.target)
    assert supported


def _sslv2_probe_answered_by(db, *writes):
    """``sslv2_probe`` against a peer that reads the hello, sends each of
    ``writes`` in its own TCP segment, then closes."""
    steps = [wire.read_sslv2_record]
    for n, data in enumerate(writes):
        if n:
            steps.append(0.2)  # the client reads the last write alone
        steps.append(data)
    with LoopbackPeer(*steps) as peer:
        return HandshakeEngine(db, timeout=3.0).sslv2_probe(peer.address)


def test_sslv2_probe_reads_a_hello_split_across_writes(db):
    hello = wire.encode_sslv2_server_hello(fixtures.fixture_certificate("RSA"))
    assert _sslv2_probe_answered_by(db, hello[:2], hello[2:]) == (True, None)


@pytest.mark.parametrize("reply", [
    b"\x80", b"\x80\x20\x04\x00",
    wire.alert(wire.AlertDescription.HANDSHAKE_FAILURE)],
    ids=["half_header", "torn_body", "tls_alert"])
def test_sslv2_probe_without_a_whole_hello(db, reply):
    assert _sslv2_probe_answered_by(db, reply) == (False, None)


def test_tls13_probe_positive(db, engine):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2, Version.TLS1_3}),
        suites=(0xC02F,), server_preference=True)
    with fixtures.spawn(spec, db) as ep:
        assert engine.tls13_probe(ep.target, [0xC02F]) == (True, None)


# -- one dial path: one status per failure, one error format ----------------

_CALLS = {
    "handshake": lambda eng, address: eng.handshake(
        address, HandshakeOffer(suites=[0xC02F])),
    "sslv2_probe": lambda eng, address: eng.sslv2_probe(address),
    "tls13_probe": lambda eng, address: eng.tls13_probe(address, [0xC02F]),
    "heartbleed_probe": lambda eng, address: eng.heartbleed_probe(
        address, [0xC02F]),
}


def _failed(call, status, detail):
    """What ``call`` returns when its dial fails with ``status``: the
    handshake keeps status and detail apart, the special probes give
    ``"<STATUS>: <detail>"``."""
    annotation = f"{status.value}: {detail}"
    return {"handshake": HandshakeOutcome(status, error=detail),
            "sslv2_probe": (False, annotation),
            "tls13_probe": (False, annotation),
            "heartbleed_probe": HeartbleedResult(False, False, error=annotation),
            }[call]


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_a_refused_port_is_a_tcp_failure(db, call):
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))  # bound but not listening: refused
        result = _CALLS[call](HandshakeEngine(db, timeout=3.0),
                              closed.getsockname())
    refused = ConnectionRefusedError(errno.ECONNREFUSED,
                                     os.strerror(errno.ECONNREFUSED))
    assert result == _failed(call, ProbeStatus.TCP_FAILURE, str(refused))


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_a_silent_peer_is_a_read_timeout(db, call):
    with LoopbackPeer(until_closed) as peer:
        result = _CALLS[call](HandshakeEngine(db, timeout=0.3), peer.address)
    assert result == _failed(call, ProbeStatus.TIMEOUT, "read timeout")


_BYTE_CAP_DETAIL = f"more than {engine_module.READ_BYTE_CAP} bytes on one connection"


# an empty HelloRequest, which the engine skips
_HELLO_REQUEST = wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2,
                             wire.handshake_message(0, b""))
# a whole Certificate message in one full-size record
_CERTIFICATE_RECORD = wire.record(
    wire.ContentType.HANDSHAKE, Version.TLS1_2,
    wire.handshake_message(wire.HsType.CERTIFICATE, bytes(wire.MAX_RECORD - 4)))


def _floods(records: bytes):
    """A peer step: read the ClientHello, then send ``records``, which never
    end the server flight, again and again until the client hangs up."""
    def step(conn) -> None:
        wire.read_record(conn)
        while True:
            conn.sendall(records)
    return step


@pytest.mark.parametrize("call", ["handshake", "tls13_probe", "heartbleed_probe"])
def test_a_record_flood_is_a_protocol_error_within_the_timeout(db, call):
    timeout = 1.0
    started = time.monotonic()
    with LoopbackPeer(_floods(_HELLO_REQUEST * 64)) as peer:
        result = _CALLS[call](HandshakeEngine(db, timeout=timeout), peer.address)
    assert time.monotonic() - started < timeout
    assert result == _failed(call, ProbeStatus.PROTOCOL_ERROR, _BYTE_CAP_DETAIL)


def _dial_as(monkeypatch, sock_class) -> None:
    """Make each connection the engine dials a ``sock_class`` socket."""
    def connect(address, timeout):
        sock = sock_class(fileno=create_connection(address).detach())
        sock.settimeout(timeout)
        return sock

    create_connection = socket.create_connection
    monkeypatch.setattr(engine_module.socket, "create_connection", connect)


@pytest.fixture
def client_reads(monkeypatch):
    """The bytes read on each connection the engine dials, counted on the
    client's side, one entry per dial."""
    reads = []

    class Counting(socket.socket):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            reads.append(0)

        def recv(self, n, *flags):
            data = super().recv(n, *flags)
            reads[-1] += len(data)
            return data

    _dial_as(monkeypatch, Counting)
    return reads


@pytest.mark.parametrize("call", ["handshake", "tls13_probe", "heartbleed_probe"])
def test_a_stream_of_full_records_stops_at_the_byte_cap(db, client_reads, call):
    with LoopbackPeer(_floods(_CERTIFICATE_RECORD)) as peer:
        result = _CALLS[call](HandshakeEngine(db, timeout=3.0), peer.address)
    assert client_reads == [engine_module.READ_BYTE_CAP]
    assert result == _failed(call, ProbeStatus.PROTOCOL_ERROR, _BYTE_CAP_DETAIL)


@pytest.mark.parametrize("call", ["probe", "sslv2_probe", "tls13_probe",
                                  "heartbleed_probe"])
def test_a_trickling_peer_is_a_read_timeout_within_the_timeout(db, call):
    """A peer that sends a byte every 0.2 s never completes a record: the
    timeout bounds the whole connection, not each read. ``probe`` dials
    twice; its retry meets a peer that never answers."""
    timeout = 0.5
    calls = dict(_CALLS, probe=lambda eng, address: eng.probe(
        address, HandshakeOffer(suites=[0xC02F])))
    prefix = b"\xff\xff" if call == "sslv2_probe" else TLS_RECORD_HEADER
    with LoopbackPeer(trickles(prefix)) as peer:
        started = time.monotonic()
        result = calls[call](HandshakeEngine(db, timeout=timeout), peer.address)
        elapsed = time.monotonic() - started
    dials = 2 if call == "probe" else 1
    assert elapsed < dials * timeout + 0.25
    if call == "probe":
        assert result == HandshakeOutcome(ProbeStatus.TIMEOUT,
                                          error="read timeout", retried=True)
    else:
        assert result == _failed(call, ProbeStatus.TIMEOUT, "read timeout")


def test_a_failing_close_keeps_a_finished_exchange(db, monkeypatch):
    class FailingClose(socket.socket):
        def close(self):
            super().close()
            raise OSError("close failed")

    _dial_as(monkeypatch, FailingClose)
    hello = wire.encode_sslv2_server_hello(fixtures.fixture_certificate("RSA"))
    with LoopbackPeer(wire.read_sslv2_record, hello) as peer:
        assert HandshakeEngine(db, timeout=3.0).sslv2_probe(peer.address) == (
            True, None)


def _server_flight(version: Version, heartbeat: bool) -> bytes:
    """A ServerHello for the suite every call offers, and ServerHelloDone."""
    extensions = {wire.ExtType.HEARTBEAT: b"\x01"} if heartbeat else {}
    if version is Version.TLS1_3:
        extensions[wire.ExtType.SUPPORTED_VERSIONS] = struct.pack(">H", version.value)
    hello = wire.ServerHello(min(version, Version.TLS1_2), bytes(32), b"",
                             0xC02F, 0, extensions)
    done = wire.handshake_message(wire.HsType.SERVER_HELLO_DONE, b"")
    return wire.record(wire.ContentType.HANDSHAKE, Version.TLS1_2,
                       hello.encode() + done)


_PIECES = st.one_of(
    # a record of any content type
    st.builds(lambda ctype, payload: wire.record(ctype, Version.TLS1_2, payload),
              st.sampled_from(list(wire.ContentType)) | st.integers(0, 255),
              st.binary(max_size=48)),
    st.builds(_server_flight, st.sampled_from(
        [Version.TLS1_0, Version.TLS1_2, Version.TLS1_3]), st.booleans()),
    st.integers(1, 512).map(lambda n: _HELLO_REQUEST * n),  # a burst
    st.integers(1, 20).map(lambda n: _CERTIFICATE_RECORD * n),  # to 320 KiB
    # a header that claims more than 18 KiB
    st.integers(18 * 1024 + 1, 0xFFFF).map(
        lambda n: struct.pack(">BHH", wire.ContentType.HANDSHAKE, 0x0303, n)),
    st.sampled_from([0.15, 0.25]),  # a stall, under or past the timeout
)


@st.composite
def _peer_scripts(draw) -> list:
    """Steps of a ``LoopbackPeer`` that reads the client's opening, then
    sends pieces, each maybe split over two segments, and stalls."""
    steps = [lambda conn: conn.recv(4096)]
    for piece in draw(st.lists(_PIECES, min_size=1, max_size=3)):
        cut = draw(st.integers(0, len(piece))) if isinstance(piece, bytes) else 0
        steps += [piece[:cut], 0.005, piece[cut:]] if cut else [piece]
    return steps


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(call=st.sampled_from(sorted(_CALLS)), script=_peer_scripts())
def test_a_hostile_peer_ends_each_call_within_its_bounds(db, client_reads,
                                                          call, script):
    """Whatever a peer sends, each call returns without raising, within its
    timeout and a margin, having read at most ``READ_BYTE_CAP`` bytes."""
    timeout = 0.2
    client_reads.clear()
    with LoopbackPeer(*script) as peer:
        started = time.monotonic()
        _CALLS[call](HandshakeEngine(db, timeout=timeout), peer.address)
        elapsed = time.monotonic() - started
    assert elapsed < timeout + 0.25
    assert len(client_reads) == 1
    assert client_reads[0] <= engine_module.READ_BYTE_CAP
