import dataclasses

import pytest
from helpers import TLS_RECORD_HEADER, LoopbackPeer, trickles, until_closed

from tlsaudit import dhprimes, fixtures, orchestrator, wire
from tlsaudit.engine import (HandshakeOutcome, HeartbleedResult, HttpResult,
                             ProbeStatus)
from tlsaudit.orchestrator import (ProbePolicy, ProbeTrace, Site, SiteProber,
                                   configuration_of)
from tlsaudit.registry import Auth, Version, cert_compatible, suite_label

RICH_SPEC = fixtures.FixtureSpec(
    versions=frozenset({Version.TLS1_0, Version.TLS1_1, Version.TLS1_2}),
    suites=(0xC02F, 0xC030, 0xC013, 0x0033, 0x009C, 0x002F, 0x000A),
    server_preference=True,
    session_id_cache=True,
    tickets=86400,
    ffdhe_prime="modp2048",
    server_header="Apache/2.4.29 (Ubuntu)",
)


@pytest.fixture(scope="module")
def probed(db, fast_policy):
    with fixtures.spawn(RICH_SPEC, db) as ep:
        prober = SiteProber(db, fast_policy)
        config, trace = prober.probe_site(ep.target)
    return config, trace


def test_round_trip_matches_projection(db, probed):
    config, _trace = probed
    assert config is not None
    expected = fixtures.projection(RICH_SPEC, db)
    assert config.to_json() == expected.to_json()


def test_budget_within_published_bounds(probed):
    _config, trace = probed
    assert 14 <= trace.handshake_count <= 93


def test_enumeration_uses_supported_plus_one(probed):
    config, trace = probed
    assert trace.count("enumerate") == len(config.supported_suites) + 1


def test_preference_always_two_handshakes(probed):
    _config, trace = probed
    assert trace.count("preference") == 2


def test_resumption_always_four_handshakes(probed):
    _config, trace = probed
    resumption_kinds = ("resume_establish_id", "resume_id",
                        "resume_establish_ticket", "resume_ticket")
    assert sum(trace.count(k) for k in resumption_kinds) == 4


def test_trace_records_server_header(probed):
    _config, trace = probed
    assert trace.server_header == "Apache/2.4.29 (Ubuntu)"


def test_trace_json_is_self_contained(probed):
    _config, trace = probed
    obj = trace.to_json()
    assert obj["handshake_count"] == trace.handshake_count
    assert len(obj["entries"]) == trace.handshake_count
    assert all("offer" in e and "outcome" in e for e in obj["entries"])


def test_dead_target_is_excluded(db, fast_policy):
    prober = SiteProber(db, ProbePolicy(timeout_s=1.0, delay_max_s=0.0))
    config, trace = prober.probe_site(("127.0.0.1", 1))
    assert config is None
    assert trace.exclusion_reason is not None


def test_single_suite_server_not_preference(db, fast_policy):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0xC02F,),
        server_preference=True)
    with fixtures.spawn(spec, db) as ep:
        config, trace = SiteProber(db, fast_policy).probe_site(ep.target)
    assert config is not None
    assert not config.server_preference
    assert 14 <= trace.handshake_count <= 93


def test_dh_prime_classification(db, probed):
    config, _trace = probed
    assert config.dh_prime_bits == 2048
    assert config.dh_group_common is True


def test_uncommon_prime_detected(db, fast_policy):
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}),
        suites=(0x0033, 0x002F), server_preference=True,
        ffdhe_prime="local1024")
    with fixtures.spawn(spec, db) as ep:
        config, _trace = SiteProber(db, fast_policy).probe_site(ep.target)
    assert config.dh_prime_bits == 1024
    assert config.dh_group_common is False


@pytest.mark.parametrize("suite, key_type", [
    (0xC02F, Auth.RSA),    # ECDHE-RSA-AES128-GCM-SHA256
    (0xC02B, Auth.ECDSA),  # ECDHE-ECDSA-AES128-GCM-SHA256
    (0x0032, Auth.DSS),    # DHE-DSS-AES128-SHA; the engine offers no DSS suite
], ids=["rsa", "ecdsa", "dss"])
def test_certificate_key_type_comes_from_the_baseline_suite(
        db, fast_policy, monkeypatch, suite, key_type):
    def server(answers_all: bool):
        """Picks ``suite`` when offered, else the offer's first suite; unless
        ``answers_all``, it answers only the baseline and its GET."""
        def probe(target, offer):
            if not answers_all and "renegotiation_info" not in offer.extensions:
                return HandshakeOutcome(ProbeStatus.TLS_ALERT, alert_code=40)
            return HandshakeOutcome(
                ProbeStatus.NEGOTIATED, selected_version=Version.TLS1_2,
                selected_suite=suite if suite in offer.suites else offer.suites[0],
                http=HttpResult(200, None))
        return probe

    offer_suites = cert_compatible(db, key_type)
    assert bool(offer_suites) == (key_type != Auth.DSS)
    prober = SiteProber(db, fast_policy)
    monkeypatch.setattr(prober.engine, "sslv2_probe", lambda target: (False, None))
    monkeypatch.setattr(prober.engine, "tls13_probe",
                        lambda target, suites: (False, None))
    monkeypatch.setattr(prober.engine, "probe", server(answers_all=False))
    config, trace = prober.probe_site(("127.0.0.1", 1))
    assert (config, trace.exclusion_reason) == (None, "NO_SUITES")
    assert [e.offer["suites"] for e in trace.entries if e.kind == "enumerate"] == (
        [[suite_label(s) for s in offer_suites]] if offer_suites else [])
    monkeypatch.setattr(prober.engine, "probe", server(answers_all=True))
    config, trace = prober.probe_site(("127.0.0.1", 1))
    if offer_suites:
        assert config.cert_sig_alg == key_type.value
    else:  # excluded right after the baseline and its GET: no walk, no offers
        assert (config, trace.exclusion_reason) == (None, "NO_SUITES")
        assert [e.kind for e in trace.entries] == ["baseline", "baseline_get"]


def test_an_excluded_trace_has_no_configuration(db):
    trace = ProbeTrace(exclusion_reason="NO_HTTP")
    assert configuration_of(trace.to_json(), db) is None


# the kinds a graded trace holds a fixed number of
COUNTED_KINDS = ["baseline", "sslv2_probe", "tls13_probe", "preference",
                 "extensions", "compression", "resume_id",
                 "resume_establish_ticket"]


@pytest.mark.parametrize("kind", COUNTED_KINDS + ["enumerate"])
def test_a_trace_without_a_kind_names_it(db, probed, kind):
    """A trace file is input from outside the program: one that lacks a
    kind of evidence raises ValueError naming that kind."""
    trace_json = probed[1].to_json()
    trace_json["entries"] = [e for e in trace_json["entries"] if e["kind"] != kind]
    with pytest.raises(ValueError, match=f"'{kind}'"):
        configuration_of(trace_json, db)


@pytest.mark.parametrize("kind", COUNTED_KINDS)
def test_a_trace_with_a_doubled_kind_names_it(db, probed, kind):
    trace_json = probed[1].to_json()
    trace_json["entries"] += [e for e in trace_json["entries"] if e["kind"] == kind]
    with pytest.raises(ValueError, match=f"'{kind}'"):
        configuration_of(trace_json, db)


def test_a_graded_trace_whose_baseline_failed_names_it(db, probed):
    trace_json = probed[1].to_json()
    trace_json["entries"][0] = {**trace_json["entries"][0],
                                "outcome": {"status": "TIMEOUT"}}
    with pytest.raises(ValueError, match="'baseline'"):
        configuration_of(trace_json, db)


def test_heartbleed_error_reaches_trace(db, fast_policy, monkeypatch):
    prober = SiteProber(db, fast_policy)
    monkeypatch.setattr(prober.engine, "probe", lambda target, offer: HandshakeOutcome(
        ProbeStatus.NEGOTIATED, acknowledged_extensions={"heartbeat"}))
    results = iter([HeartbleedResult(True, False, error="TIMEOUT: read timeout"),
                    HeartbleedResult(True, False)])
    monkeypatch.setattr(prober.engine, "heartbleed_probe",
                        lambda target, suites: next(results))
    for extra in ({"error": "TIMEOUT: read timeout"}, {}):
        site = Site(("127.0.0.1", 1))
        prober.probe_extensions(site, [0xC02F])
        assert site.trace.entries[-1].kind == "heartbleed"
        assert site.trace.entries[-1].outcome == {
            "acknowledged": True, "vulnerable": False, "evidence_len": 0, **extra}


def test_sslv2_error_reaches_trace(db, probed, monkeypatch):
    _config, trace = probed
    assert [e.outcome for e in trace.entries if e.kind == "sslv2_probe"] == [
        {"supported": False}]

    prober = SiteProber(db, ProbePolicy(timeout_s=0.5, delay_max_s=0.0))
    monkeypatch.setattr(prober.engine, "tls13_probe",
                        lambda target, suites: (False, None))
    with LoopbackPeer(until_closed) as peer:  # accepts, then never answers
        site = Site(peer.address)
        prober.version_walk(site, Version.SSLv3, [0x002F])
    assert [(e.kind, e.outcome) for e in site.trace.entries] == [
        ("sslv2_probe", {"supported": False, "error": "TIMEOUT: read timeout"}),
        ("tls13_probe", {"supported": False})]


def test_entries_keep_engine_facts(db, fast_policy, monkeypatch):
    """Every entry built from a HandshakeOutcome carries its ``retried``; the
    SSLv2, TLS 1.3 and Heartbleed entries have none to carry. Only the offer
    handshakes feed the DH prime, not the GET or the two resumes."""
    spec = dataclasses.replace(RICH_SPEC, heartbeat=fixtures.HEARTBEAT_PATCHED)
    prober = SiteProber(db, fast_policy)
    probe = prober.engine.probe  # the GET and both resumes go through it
    uncommon = wire.ServerKeyExchange("FFDHE", dhprimes.named_prime("local1024"))

    def marked(target, offer):
        outcome = probe(target, offer)
        outcome.retried = True
        if (offer.http_get or offer.resumption_session_id
                or offer.resumption_ticket is not None):
            outcome.server_key_exchange = uncommon
        return outcome

    monkeypatch.setattr(prober.engine, "probe", marked)
    with fixtures.spawn(spec, db) as ep:
        config, trace = prober.probe_site(ep.target)
    assert (config.dh_prime_bits, config.dh_group_common) == (2048, True)
    entries = trace.to_json()["entries"]
    kinds = [e["kind"] for e in entries]
    for kind in ("baseline_get", "resume_id", "resume_ticket", "sslv2_probe",
                 "tls13_probe", "heartbleed"):
        assert kinds.count(kind) == 1
    assert [e["kind"] for e in entries if not e["retried"]] == [
        "sslv2_probe", "tls13_probe", "heartbleed"]


def test_a_trickling_site_is_excluded_for_timeout(db):
    """Against a peer that sends a byte every 0.2 s, the baseline handshake
    and its one retry each end at the timeout, and the site is excluded."""
    timeout = 0.5
    prober = SiteProber(db, ProbePolicy(timeout_s=timeout, delay_max_s=0.0))
    with LoopbackPeer(trickles(TLS_RECORD_HEADER)) as peer:
        config, trace = prober.probe_site(peer.address)
    assert (config, trace.exclusion_reason) == (None, "TIMEOUT")
    assert [(e.kind, e.retried) for e in trace.entries] == [("baseline", True)]
    assert trace.wall_time_s < 2 * timeout + 0.25


def test_each_site_draws_its_own_delays(db, monkeypatch):
    """One pacing delay per trace entry, within the policy's bounds, and the
    same for a site whichever site the prober ran before it."""
    policy = ProbePolicy(timeout_s=3.0, delay_min_s=0.01, delay_max_s=0.02,
                         seed=7)
    delays = []
    monkeypatch.setattr(orchestrator.time, "sleep", delays.append)
    single = fixtures.FixtureSpec(versions=frozenset({Version.TLS1_2}),
                                  suites=(0xC02F,), server_preference=True)
    with fixtures.spawn(RICH_SPEC, db) as a, fixtures.spawn(single, db) as b:
        runs = []
        for order in ((a, b), (b, a)):
            prober, drawn = SiteProber(db, policy), {}
            for ep in order:
                delays.clear()
                _config, trace = prober.probe_site(ep.target)
                assert len(delays) == trace.handshake_count
                assert all(0.01 <= d <= 0.02 for d in delays)
                drawn[ep.target] = list(delays)
            runs.append(drawn)
    assert runs[0] == runs[1]


def test_a_prober_keeps_nothing_of_a_site(db, fast_policy):
    prober = SiteProber(db, fast_policy)
    before = dict(vars(prober))
    assert set(before) == {"db", "policy", "engine"}
    spec = fixtures.FixtureSpec(versions=frozenset({Version.TLS1_2}),
                                suites=(0xC02F,), server_preference=True)
    with fixtures.spawn(spec, db) as ep:
        config, _trace = prober.probe_site(ep.target)
    assert config is not None
    assert vars(prober) == before


def test_trace_fields_are_what_to_json_writes(probed):
    """Every field is written; only ``handshake_count`` and ``eligible``
    are derived."""
    _config, trace = probed
    fields = {f.name for f in dataclasses.fields(ProbeTrace)}
    assert fields == set(trace.to_json()) - {"handshake_count", "eligible"}


def test_policy_json_round_trip():
    policy = ProbePolicy.from_json({"timeout_ms": 2500, "delay_max_ms": 0,
                                    "retry": 1, "seed": 7})
    assert policy.timeout_s == 2.5
    assert policy.delay_max_s == 0.0
    assert policy.seed == 7


@pytest.mark.parametrize("obj, message", [
    ([1], "expected a JSON object, not list"),
    ({"timeout_ms": "5"}, "timeout_ms must be a number, not '5'"),
    ({"delay_min_ms": None}, "delay_min_ms must be a number, not None"),
    ({"delay_max_ms": True}, "delay_max_ms must be a number, not True"),
    ({"seed": 1.5}, "seed must be an integer or null, not 1.5"),
    ({"timeout_ms": -5},
     "timeout_ms must be above 0 and at most 86400000 (a day), not -5"),
    ({"timeout_ms": float("nan")},
     "timeout_ms must be above 0 and at most 86400000 (a day), not nan"),
    # 0 would make every socket non-blocking
    ({"timeout_ms": 0},
     "timeout_ms must be above 0 and at most 86400000 (a day), not 0"),
    # a socket timeout this long overflows
    ({"timeout_ms": 1e16},
     "timeout_ms must be above 0 and at most 86400000 (a day), not 1e+16"),
    ({"delay_min_ms": -5000, "delay_max_ms": 1},
     "delay_min_ms must be 0 to 86400000 (a day), not -5000"),
    ({"delay_max_ms": float("inf")},
     "delay_max_ms must be 0 to 86400000 (a day), not inf"),
    # the default maximum is 2000, so pacing would draw from 2 to 3 s
    ({"delay_min_ms": 3000},
     "delay_min_ms (3000) must not exceed delay_max_ms (2000)"),
    # a maximum of 0 would pace nothing
    ({"delay_min_ms": 500, "delay_max_ms": 0},
     "delay_min_ms (500) must not exceed delay_max_ms (0)"),
])
def test_policy_json_rejects_a_wrong_type(obj, message):
    with pytest.raises(ValueError) as err:
        ProbePolicy.from_json(obj)
    assert str(err.value) == message


def test_policy_json_takes_a_float_and_a_null_seed():
    policy = ProbePolicy.from_json({"timeout_ms": 2.5, "seed": None})
    assert (policy.timeout_s, policy.seed) == (0.0025, None)
