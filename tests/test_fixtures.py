import random
import socket
import threading
import time

import pytest

from tlsaudit import fixtures, wire
from tlsaudit.engine import HandshakeEngine, HandshakeOffer, ProbeStatus
from tlsaudit.grading import flags
from tlsaudit.orchestrator import SiteProber
from tlsaudit.registry import Version
from tlsaudit.wire import ContentType


@pytest.mark.parametrize("prime", ["modp999", "ffff", ""])
def test_spec_takes_only_named_dh_primes(prime):
    with pytest.raises(fixtures.FixtureError, match="unknown DH prime"):
        fixtures.FixtureSpec(versions=frozenset({Version.TLS1_2}),
                             suites=(0x0033,), ffdhe_prime=prime)


def test_bad_heartbeat_value_rejected():
    with pytest.raises(ValueError):
        fixtures.FixtureSpec(
            versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
            server_preference=True, heartbeat="sometimes")


def test_projection_reflects_spec(db):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_1, Version.TLS1_2}),
        suites=(0xC02F, 0x009C, 0x002F),
        server_preference=True,
        tickets=600,
        session_id_cache=True,
        compression=True,
    )
    config = fixtures.projection(spec, db)
    assert config.versions == spec.versions
    assert config.supported_suites == frozenset(spec.suites)
    assert config.preferred_suite == 0xC02F
    assert config.server_preference
    assert config.session_tickets and config.ticket_lifetime_hint_s == 600
    assert config.session_id_resumption
    assert config.tls_compression
    assert {"ECDHE", "RSA"} <= flags(db, config.supported_suites)


def test_projection_no_preference_uses_offer_order(db):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}),
        suites=(0x002F, 0xC02F),  # server would prefer the weak one
        server_preference=False,
    )
    config = fixtures.projection(spec, db)
    # without server preference the client's best choice wins
    assert config.preferred_suite == 0xC02F
    assert not config.server_preference


def test_single_suite_never_reports_preference(db):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True)
    config = fixtures.projection(spec, db)
    assert not config.server_preference


def test_enumerable_suites_respect_version_floor(db):
    # TLS1.2-only suites are not enumerable on a TLS1.0-max server
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_0}),
        suites=(0xC02F, 0x002F), server_preference=True)
    assert fixtures.enumerable_suites(spec, db) == [0x002F]


_RSA_ENCRYPTION = bytes.fromhex("06092A864886F70D010101")
_EC_PUBLIC_KEY = bytes.fromhex("06072A8648CE3D0201")


@pytest.mark.parametrize("kind, key_oid, other_oid", [
    ("RSA", _RSA_ENCRYPTION, _EC_PUBLIC_KEY),
    ("ECDSA", _EC_PUBLIC_KEY, _RSA_ENCRYPTION),
])
def test_certificate_carries_its_key_type(kind, key_oid, other_oid):
    cert = fixtures.fixture_certificate(kind)
    assert key_oid in cert and other_oid not in cert


def test_unknown_certificate_kind_rejected():
    with pytest.raises(fixtures.FixtureError):
        fixtures.fixture_certificate("DSA")


@pytest.mark.parametrize("kind, suite", [("RSA", 0xC02F), ("ECDSA", 0xC02B)],
                         ids=["RSA", "ECDSA"])
def test_endpoint_sends_its_fixture_certificate(db, kind, suite):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(suite,),
        server_preference=True, cert_kind=kind)
    hello = wire.ClientHello(version=Version.TLS1_2, random=bytes(32),
                             session_id=b"", suites=[suite], compression=[0],
                             extensions={})
    with fixtures.spawn(spec, db) as ep:
        with socket.create_connection(ep.target, timeout=3.0) as sock:
            sock.sendall(wire.record(ContentType.HANDSHAKE, Version.TLS1_2,
                                     hello.encode()))
            _ctype, _ver, flight = wire.read_record(sock)
    chains = [wire.parse_certificate(body)
              for hs_type, body in wire.iter_handshake_messages(flight)
              if hs_type == wire.HsType.CERTIFICATE]
    assert chains == [[fixtures.fixture_certificate(spec.cert_kind)]]


def test_capture_log_and_stop_idempotent(db):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True)
    ep = fixtures.spawn(spec, db)
    try:
        from tlsaudit.engine import HandshakeEngine, HandshakeOffer
        engine = HandshakeEngine(db, timeout=3.0)
        engine.probe(ep.target, HandshakeOffer(
            max_version=Version.TLS1_2, min_version=Version.SSLv3,
            suites=[0xC02F, 0x002F]))
        assert any(entry["event"] == "client_hello" for entry in ep.capture)
    finally:
        ep.stop()
        ep.stop()  # idempotent


def test_random_specs_are_valid_and_varied(db):
    rng = random.Random(42)
    specs = [fixtures.random_spec(rng, db) for _ in range(20)]
    assert all(len(s.suites) >= 2 for s in specs)
    assert all(Version.TLS1_2 in s.versions for s in specs)
    assert len({s.suites for s in specs}) > 1


def test_bundled_corpus_composition(db):
    specs = fixtures.bundled_corpus(db, seed=1)
    assert len(specs) == 40
    # seeded regeneration is deterministic
    assert fixtures.bundled_corpus(db, seed=1) == specs
    assert fixtures.bundled_corpus(db, seed=2) != specs


def test_representative_rows_grade_like_the_table(db):
    rows = fixtures.top_as_rows()
    assert len(rows) == 50
    grades = {row["grade"] for row in rows}
    # the published top-AS table carries no F rows
    assert grades == {"A", "B", "C"}


class _RecordingSocket:
    """Passes every call to ``sock`` and keeps each ``sendall`` payload."""

    def __init__(self, sock, writes: list):
        self._sock = sock
        self.writes = writes

    def sendall(self, data):
        self.writes.append(bytes(data))
        self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _content_types(data: bytes) -> list[int]:
    reader, types = wire.Reader(data), []
    while reader.remaining():
        types.append(reader.u8())
        reader.u16()
        reader.vec16()
    return types


@pytest.mark.parametrize("method", ["TICKET", "SESSION_ID"])
def test_each_server_flight_is_one_write(db, method):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True, session_id_cache=True, tickets=300)
    connections: list[list[bytes]] = []
    lock = threading.Lock()
    engine = HandshakeEngine(db, timeout=3.0)
    with fixtures.spawn(spec, db) as ep:
        serve = ep._serve

        def recording_serve(sock):
            writes: list[bytes] = []
            with lock:
                connections.append(writes)
            serve(_RecordingSocket(sock, writes))

        ep._serve = recording_serve
        full = engine.handshake(ep.target, HandshakeOffer(
            max_version=Version.TLS1_2, min_version=Version.TLS1_2,
            suites=[0xC02F], extensions={"session_ticket"}, complete=True))
        replay = (HandshakeOffer(suites=[0xC02F], extensions={"session_ticket"},
                                 resumption_ticket=full.ticket,
                                 complete=True)
                  if method == "TICKET" else
                  HandshakeOffer(suites=[0xC02F], complete=True,
                                 resumption_session_id=full.session_id))
        resumed = engine.probe(ep.target, replay)
    assert full.status == ProbeStatus.NEGOTIATED and not full.resumed
    assert resumed.status == ProbeStatus.NEGOTIATED and resumed.resumed
    handshake, ccs = ContentType.HANDSHAKE, ContentType.CHANGE_CIPHER_SPEC
    full_writes, abbreviated_writes = connections
    # ServerHello..ServerHelloDone, then NewSessionTicket + CCS + Finished
    assert [_content_types(w) for w in full_writes] == [
        [handshake], [handshake, ccs, handshake]]
    # ServerHello + CCS + Finished
    assert [_content_types(w) for w in abbreviated_writes] == [
        [handshake, ccs, handshake]]


_HS, _CCS = ContentType.HANDSHAKE, ContentType.CHANGE_CIPHER_SPEC
_APP, _HB = ContentType.APPLICATION_DATA, ContentType.HEARTBEAT
_FINISHED = (_HS, wire.handshake_message(wire.HsType.FINISHED, bytes(12)))
_HEARTBEAT = (_HB, wire.encode_heartbeat(wire.HEARTBEAT_REQUEST, 4, b"ping"))
_CLOSED = "closed"


# (resume?, [(record sent or None, content types of the reply or _CLOSED)]);
# a reply of [] means the server answers nothing and keeps the connection.
@pytest.mark.parametrize("resume, steps", [
    (False, [((_APP, b"GET / HTTP/1.1\r\n\r\n"), _CLOSED)]),
    (True, [((_CCS, b"\x01"), _CLOSED)]),
    (False, [(_HEARTBEAT, [_HB]), ((_CCS, b"\x01"), []),
             (_FINISHED, [_CCS, _HS]), (_HEARTBEAT, [_HB])]),
    (False, [(_FINISHED, [_CCS, _HS]), ((_APP, b"POST / HTTP/1.1\r\n\r\n"), []),
             ((_APP, b"GET / HTTP/1.1\r\n\r\n"), [_APP]), (None, _CLOSED)]),
], ids=["app-data-before-finished", "ccs-after-abbreviated-hello",
        "heartbeat-before-and-after-finished", "non-get-ignored-then-get"])
def test_server_record_loop_reactions(db, resume, steps):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True, session_id_cache=True,
        heartbeat=fixtures.HEARTBEAT_PATCHED)
    tls12 = Version.TLS1_2
    with fixtures.spawn(spec, db) as ep:
        session_id = b""
        if resume:
            full = HandshakeEngine(db, timeout=3.0).handshake(
                ep.target, HandshakeOffer(
                    max_version=tls12, min_version=tls12, suites=[0xC02F],
                    complete=True))
            session_id = full.session_id
        hello = wire.ClientHello(
            version=tls12, random=bytes(32), session_id=session_id,
            suites=[0xC02F], compression=[0],
            extensions={wire.ExtType.HEARTBEAT: b"\x01"})
        with socket.create_connection((ep.host, ep.port), timeout=3.0) as sock:
            sock.sendall(wire.record(_HS, tls12, hello.encode()))
            # the server's first flight: one record, or three when abbreviated
            flight = [wire.read_record(sock)[0] for _ in range(3 if resume else 1)]
            assert flight == ([_HS, _CCS, _HS] if resume else [_HS])
            for sent, reply in steps:
                if sent is not None:
                    sock.sendall(wire.record(sent[0], tls12, sent[1]))
                if reply == _CLOSED:
                    assert sock.recv(1) == b""
                else:
                    assert [wire.read_record(sock)[0] for _ in reply] == reply


_SERVED_SPEC = fixtures.FixtureSpec(
    versions=frozenset({Version.TLS1_0, Version.TLS1_2}),
    suites=(0xC02F, 0x009C, 0x002F), server_preference=True,
    session_id_cache=True, tickets=300)


def test_one_thread_serves_every_connection(db):
    engine = HandshakeEngine(db, timeout=3.0)
    offer = HandshakeOffer(max_version=Version.TLS1_2,
                           min_version=Version.TLS1_2, suites=[0xC02F])
    seen: list[tuple[int, threading.Thread]] = []
    with fixtures.spawn(_SERVED_SPEC, db) as ep:
        serve = ep._serve

        def counting_serve(sock):
            # counted while the connection is being served, when a thread
            # started for it would still be alive
            seen.append((threading.active_count(), threading.current_thread()))
            serve(sock)

        ep._serve = counting_serve
        before = threading.active_count()
        for _ in range(20):
            assert engine.handshake(ep.target, offer).status == ProbeStatus.NEGOTIATED
        assert threading.active_count() == before
    assert [count for count, _thread in seen] == [before] * 20
    assert len({id(thread) for _count, thread in seen}) == 1


def _garbage(ep):
    with socket.create_connection((ep.host, ep.port), timeout=3.0) as sock:
        sock.sendall(b"\x16\x03\x01\x00\x05garbage, not a handshake\r\n")
        while sock.recv(4096):  # until the server closes
            pass


def _closed_mid_flight(ep):
    hello = wire.record(ContentType.HANDSHAKE, Version.TLS1_2, wire.ClientHello(
        version=Version.TLS1_2, random=bytes(32), session_id=b"",
        suites=[0xC02F], compression=[0], extensions={}).encode())
    with socket.create_connection((ep.host, ep.port), timeout=3.0) as sock:
        sock.sendall(hello[:len(hello) // 2])


def _handler_raises(ep):
    serve = ep._serve

    def raise_once(sock):
        ep._serve = serve
        raise RuntimeError("handler bug")

    ep._serve = raise_once
    with socket.create_connection((ep.host, ep.port), timeout=3.0) as sock:
        assert sock.recv(1) == b""  # closed by the server after the error


@pytest.mark.parametrize("abuse", [_garbage, _closed_mid_flight, _handler_raises],
                         ids=["garbage", "closed-mid-flight", "handler-raises"])
def test_endpoint_serves_on_after_a_broken_connection(db, fast_policy, abuse):
    with fixtures.spawn(_SERVED_SPEC, db) as ep:
        abuse(ep)
        config, trace = SiteProber(db, fast_policy).probe_site(ep.target)
    assert trace.exclusion_reason is None
    assert config.to_json() == fixtures.projection(_SERVED_SPEC, db).to_json()


@pytest.mark.parametrize("split", [1, 2])
def test_sslv2_hello_split_after_its_first_bytes(db, split):
    """A first segment of one or two bytes of an SSLv2 hello still gets the
    SSLv2 answer, not a TLS alert."""
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.SSLv2, Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True)
    hello = wire.encode_sslv2_client_hello()
    with fixtures.spawn(spec, db) as ep:
        with socket.create_connection(ep.target, timeout=3.0) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(hello[:split])
            time.sleep(0.2)  # the endpoint sees the first segment alone
            sock.sendall(hello[split:])
            reply = wire.read_sslv2_record(sock)
        capture = list(ep.capture)
    assert wire.parse_sslv2_server_hello(reply)
    assert capture == [{"event": "sslv2_hello", "answered": True}]


def test_odd_length_suite_vector_is_logged_not_raised(db, monkeypatch):
    body = (b"\x03\x03" + bytes(32) + b"\x00"
            + b"\x00\x03\xc0\x2f\x00" + b"\x01\x00")
    hello = wire.record(ContentType.HANDSHAKE, Version.TLS1_0,
                        wire.handshake_message(wire.HsType.CLIENT_HELLO, body))
    unhandled = []
    monkeypatch.setattr(fixtures.logger, "exception",
                        lambda *args: unhandled.append(args))
    with fixtures.spawn(_SERVED_SPEC, db) as ep:
        with socket.create_connection((ep.host, ep.port), timeout=3.0) as sock:
            sock.sendall(hello)
            assert sock.recv(1) == b""  # closed by the server
        capture = list(ep.capture)
    assert unhandled == []
    assert capture == [{"event": "connection_error",
                        "error": "odd-length cipher suite vector (3 bytes)"}]


def test_stop_is_idempotent_and_ends_the_worker(db):
    ep = fixtures.spawn(_SERVED_SPEC, db)
    worker = ep._thread
    assert worker.is_alive()
    ep.stop()
    assert not worker.is_alive()
    ep.stop()
    assert not worker.is_alive()


def test_an_endpoint_runs_one_thread(db):
    before = set(threading.enumerate())
    ep = fixtures.spawn(_SERVED_SPEC, db)
    assert set(threading.enumerate()) - before == {ep._thread}
    ep.stop()
    assert not ep._thread.is_alive()


def test_every_stop_waits_out_the_poll(db):
    """stop() returns one poll after the thread last entered accept(): with
    no connection served, and right after a heartbleed probe, which ends its
    connection while the endpoint may still be serving it."""
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True, heartbeat=fixtures.HEARTBEAT_VULNERABLE)
    engine = HandshakeEngine(db, timeout=3.0)
    waits = []
    for probe in (False, True, True, True):
        ep = fixtures.spawn(spec, db)
        if probe:
            assert engine.heartbleed_probe(ep.target, [0xC02F]).vulnerable
        started = time.perf_counter()
        ep.stop()
        waits.append(time.perf_counter() - started)
    assert min(waits) >= fixtures._POLL_S / 2, waits
