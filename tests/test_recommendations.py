import pytest

from tlsaudit import cipherstring as cs
from tlsaudit import fixtures
from tlsaudit.configuration import Configuration
from tlsaudit.grading import Grade
from tlsaudit.registry import Version, load_registry


@pytest.fixture(scope="module")
def profiles():
    return cs.load_all_profiles()


def _config(db, suite_names, **kw):
    by_name = {info.name: s for s, info in db.suites.items()}
    suites = [by_name[n] for n in suite_names]
    kw.setdefault("versions", frozenset({Version.TLS1_2}))
    kw.setdefault("server_preference", True)
    return Configuration(supported_suites=suites, preferred_suite=suites[0],
                         **kw)


ECDHE_GCM = [
    "TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256",
    "TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384",
]


def test_consistency_match(db, profiles):
    rec = cs.Recommendation.from_json({"cipher_string": "ECDHE+AESGCM"})
    config = _config(db, ECDHE_GCM)
    assert cs.consistent(config, rec, db, profiles)


def test_consistency_rc4_violation(db, profiles):
    rec = cs.Recommendation.from_json({"cipher_string": "ECDHE+AESGCM"})
    config = _config(db, ECDHE_GCM + ["TLS_RSA_WITH_RC4_128_SHA"])
    assert not cs.consistent(config, rec, db, profiles)


def test_consistency_disjoint(db, profiles):
    rec = cs.Recommendation.from_json({"cipher_string": "ECDHE+AESGCM"})
    config = _config(db, ["TLS_RSA_WITH_AES_128_CBC_SHA"])
    assert not cs.consistent(config, rec, db, profiles)


def test_consistency_non_cipher_directives(db, profiles):
    config = _config(db, ECDHE_GCM, session_tickets=True)
    rec = cs.Recommendation.from_json(
        {"protocols": ["TLS1.2"], "session_tickets": True})
    assert cs.consistent(config, rec, db, profiles)
    rec2 = cs.Recommendation.from_json(
        {"protocols": ["TLS1.2"], "session_tickets": False})
    assert not cs.consistent(config, rec2, db, profiles)


def test_consistent_expands_each_cipher_string_once(profiles, monkeypatch):
    db = load_registry()  # its own db: expansions are kept per db
    configs = [_config(db, ECDHE_GCM),
               _config(db, ECDHE_GCM + ["TLS_RSA_WITH_RC4_128_SHA"])]
    configs += [config for _label, config, _profile
                in fixtures.ubuntu_default_configurations(db)]
    recs = [cs.Recommendation.from_json({"cipher_string": text})
            for text in ("ECDHE+AESGCM:!RC4", "HIGH:!aNULL:!MD5",
                         "ALL:-RC4:+AESGCM")]
    # a fresh db per call keeps nothing between calls
    want = [cs.consistent(config, rec, load_registry(), profiles)
            for rec in recs for config in configs]
    assert any(want) and not all(want)
    calls = []
    real = cs.expand
    monkeypatch.setattr(cs, "expand",
                        lambda *args: calls.append(args) or real(*args))
    assert [cs.consistent(config, rec, db, profiles)
            for rec in recs for config in configs] == want
    assert len(calls) == len(recs)


def test_recommendation_requires_a_directive():
    with pytest.raises(cs.RecommendationError):
        cs.Recommendation()


def test_recommendation_json_round_trip():
    obj = {"cipher_string": "ECDHE+AESGCM:!RC4", "protocols": ["TLS1.2"],
           "server_preference": True, "dh_params_bits": 2048}
    rec = cs.Recommendation.from_json(obj)
    assert rec.to_json() == obj


def test_apply_to_default_overrides(db):
    label, default, profile_name = fixtures.ubuntu_default_configurations(db)[2]
    profile = cs.load_profile(profile_name)
    rec = cs.Recommendation.from_json(
        {"cipher_string": "ECDHE+AESGCM:!RC4:!MD5",
         "protocols": ["TLS1.2"], "server_preference": True})
    applied = cs.apply_to_default(rec, default, db, profile)
    assert applied.versions == frozenset({Version.TLS1_2})
    assert applied.server_preference
    assert all(db[s].kex.value == "ECDHE" and db[s].is_aead
               for s in applied.supported_suites)


def test_apply_to_default_empty_suites_rejected(db):
    label, default, profile_name = fixtures.ubuntu_default_configurations(db)[1]
    profile = cs.load_profile(profile_name)  # 1.0.2g has no DES suites
    rec = cs.Recommendation.from_json({"cipher_string": "DES"})
    with pytest.raises(cs.RecommendationError):
        cs.apply_to_default(rec, default, db, profile)


def test_grade_recommendation_strong_string(db):
    defaults = [(label, config, cs.load_profile(name))
                for label, config, name
                in fixtures.ubuntu_default_configurations(db)]
    rec = cs.Recommendation.from_json(
        {"cipher_string": "ECDHE+AESGCM:!RC4:!MD5",
         "protocols": ["TLS1.2"], "server_preference": True})
    per_default, summary = cs.grade_recommendation(rec, defaults, db)
    report = per_default["Nginx-18.04-1.1.0g"]
    assert report.overall is Grade.A
    assert summary["best"] is Grade.A


def test_grade_recommendation_weak_string_downgrades(db):
    defaults = [(label, config, cs.load_profile(name))
                for label, config, name
                in fixtures.ubuntu_default_configurations(db)]
    rec = cs.Recommendation.from_json({"cipher_string": "RC4+SHA"})
    per_default, summary = cs.grade_recommendation(rec, defaults, db)
    assert summary["best"] <= Grade.C
