"""Acceptance suite.

Each criterion prints one PASS/FAIL line on the live terminal (bypassing
capture) in addition to the normal pytest verdict.
"""

import dataclasses
import json
import random
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from helpers import random_configuration
from test_cipherstring import EXPANSION_CORPUS, oracle_expand
from test_grading import _STRIP_FEATURES, strip_feature
from test_report import make_records
from tlsaudit import cipherstring as cs
from tlsaudit import fixtures, report as report_mod
from tlsaudit.configuration import Configuration
from tlsaudit.grading import (Category, Grade, derive_vulnerabilities,
                              downgrade_table, grade, grade_compression,
                              grade_preferred)
from tlsaudit.orchestrator import ProbePolicy, SiteProber, configuration_of
from tlsaudit.records import Eligibility
from tlsaudit.registry import Version


def announce(capsys, number, ok, description):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[criterion {number}] {verdict} — {description}")


def criterion(capsys, number, description):
    """Context manager: prints the per-criterion verdict line."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            announce(capsys, number, exc_type is None, description)
            return False
    return _Ctx()


# -- criterion 1: stock Ubuntu defaults grade exactly as published ------------

def test_criterion_1_ubuntu_defaults(db, capsys):
    with criterion(capsys, 1, "Ubuntu default configurations grade exactly "
                              "as published"):
        start = time.monotonic()
        configs = fixtures.ubuntu_default_configurations(db)
        got = [grade(config, db).overall.value for _label, config, _p in configs]
        elapsed = time.monotonic() - start
        assert got == ["C", "C", "B", "B", "F", "C", "C", "B", "B", "B"]
        # the C-or-F row grades C once the Heartbleed flag is cleared
        f_config = configs[4][1]
        patched = dataclasses.replace(f_config, heartbleed_vulnerable=False)
        assert grade(patched, db).overall is Grade.C
        assert elapsed < 1.0


# -- criterion 2: top-AS table rows, >= 45/50 ---------------------------------

def test_criterion_2_top_as_rows(db, capsys):
    with criterion(capsys, 2, "top-AS configuration rows match >= 45/50 with "
                              "only attributable misses"):
        start = time.monotonic()
        rows = fixtures.top_as_rows()
        assert len(rows) == 50
        mismatches = []
        for n, row in enumerate(rows):
            config = fixtures.row_configuration(db, row)
            report = grade(config, db)
            if report.overall.value != row["grade"]:
                mismatches.append((n, row, report))
        elapsed = time.monotonic() - start
        assert 50 - len(mismatches) >= 45
        for n, row, report in mismatches:
            # documented conflict: the Cloudflare rows advertise no server
            # preference, which caps the preferred-suite category below the
            # printed grade
            assert row["as_name"].startswith("Cloudflare")
            assert row["server_pref"] == "0"
            assert report.per_category[Category.PREFERRED].value != row["grade"]
        assert elapsed < 1.0


# -- criteria 3 & 4: corpus round trip and handshake budget -------------------

@pytest.fixture(scope="module")
def corpus_run(db):
    specs = fixtures.bundled_corpus(db, seed=7)
    prober = SiteProber(db, ProbePolicy(timeout_s=3.0, delay_max_s=0.0))
    results = []
    endpoints = []
    start = time.monotonic()
    try:
        for spec in specs:
            endpoints.append(fixtures.spawn(spec, db))
            config, trace = prober.probe_site(endpoints[-1].target)
            results.append((spec, config, trace))
    finally:
        # each stop() waits up to one accept() poll: wait them out together
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(fixtures.FixtureEndpoint.stop, endpoints))
    return results, time.monotonic() - start


def test_criterion_3_round_trip(db, corpus_run, capsys):
    with criterion(capsys, 3, "probe_site(spawn(spec)) == projection(spec) "
                              "for the full fixture corpus"):
        results, elapsed = corpus_run
        assert len(results) >= 30
        for spec, config, _trace in results:
            assert config is not None, spec
            expected = fixtures.projection(spec, db)
            assert config.to_json() == expected.to_json(), spec
        assert elapsed < 120.0


def test_criterion_4_handshake_budget(corpus_run, capsys):
    with criterion(capsys, 4, "14 <= handshakes <= 93 per probe; cipher "
                              "enumeration uses exactly |supported|+1"):
        results, _elapsed = corpus_run
        for _spec, config, trace in results:
            assert 14 <= trace.handshake_count <= 93, trace.handshake_count
            assert trace.count("enumerate") == len(config.supported_suites) + 1


def test_each_configuration_derives_from_its_trace(db, corpus_run):
    """The trace's JSON alone, read back, gives the configuration again."""
    results, _elapsed = corpus_run
    for spec, config, trace in results:
        trace_json = json.loads(json.dumps(trace.to_json()))
        derived = configuration_of(trace_json, db)
        assert derived.to_json() == config.to_json(), spec


# -- criterion 5: grader properties over 1000 seeded configurations -----------

def test_criterion_5_grader_properties(db, capsys):
    with criterion(capsys, 5, "grader properties hold on 1000 seeded-random "
                              "configurations"):
        rng = random.Random(0xBEEF)
        for _ in range(1000):
            config = random_configuration(rng, db)
            report = grade(config, db)
            assert report.overall == min(report.per_category.values())
            assert grade_preferred(config, db) in (Grade.A, Grade.B)
            assert grade_compression(config) in (Grade.A, Grade.C)
            for feature in _STRIP_FEATURES:
                stripped = strip_feature(db, config, feature)
                if stripped is None:
                    continue
                assert grade(stripped, db).overall >= report.overall, feature


# -- criterion 6: cipher-string expansion vs independent oracle ---------------

def test_criterion_6_cipherstring_oracle(db, capsys):
    with criterion(capsys, 6, "20-string expansion corpus matches the "
                              "independent oracle on every bundled profile"):
        assert len(EXPANSION_CORPUS) == 20
        for profile_name in cs.BUNDLED_PROFILES:
            profile = cs.load_profile(profile_name)
            for text in EXPANSION_CORPUS:
                got = cs.expand(cs.parse_cipher_string(text), db,
                                profile.suites)
                assert got == oracle_expand(text, db, profile.suites), (
                    profile_name, text)
                assert set(got) <= profile.suites
        # permanent-exclusion semantics
        profile = cs.load_profile("openssl-1.0.1")
        assert cs.expand(cs.parse_cipher_string("RC4:!RC4:RC4"), db,
                         profile.suites) == []


# -- criterion 7: consistency semantics ---------------------------------------

def test_criterion_7_consistency(db, capsys):
    with criterion(capsys, 7, "recommendation consistency passes the match / "
                              "violation / disjoint examples"):
        profiles = cs.load_all_profiles()
        rec = cs.Recommendation.from_json({"cipher_string": "ECDHE+AESGCM"})

        def config_of(suites):
            return Configuration(
                supported_suites=suites, preferred_suite=suites[0],
                versions=frozenset({Version.TLS1_2}), server_preference=True)

        match = config_of([0xC02B, 0xC02F])
        violation = config_of([0xC02B, 0xC02F, 0x0005])   # adds RC4
        disjoint = config_of([0x002F, 0x0035])            # static-RSA CBC only
        assert cs.consistent(match, rec, db, profiles)
        assert not cs.consistent(violation, rec, db, profiles)
        assert not cs.consistent(disjoint, rec, db, profiles)


# -- criterion 8: report aggregation vs brute-force recounts ------------------

def test_criterion_8_report_recounts(db, capsys):
    with criterion(capsys, 8, "report aggregations match brute-force recounts "
                              "on a 1000-record synthetic corpus"):
        rng = random.Random(0xC0DE)
        records = make_records(db, rng, 1000, n_as=25)
        graded = [r for r in records if r.eligibility is Eligibility.GRADED]

        dist = report_mod.grade_distribution(records)
        recount = Counter(r.grade_report.overall.value for r in graded)
        assert dist["counts"] == {g: recount.get(g, 0) for g in "ABCF"}
        assert abs(sum(dist["proportions"].values()) - 1.0) < 1e-9

        for group_key, group_of in (
                ("asn", lambda r: str(r.asn["number"])),
                ("config", lambda r: report_mod.config_key(r.configuration))):
            series = report_mod.cdf_by_group_rank(records, group_key)
            keys = [group_of(r) for r in graded]  # one key per graded record
            totals = Counter(keys)
            ranked = sorted(totals, key=lambda g: (-totals[g], g))
            for grade_label, points in series.items():
                members = [key for r, key in zip(graded, keys)
                           if r.grade_report.overall.value == grade_label]
                if not members:
                    assert points == []
                    continue
                fractions = [f for _k, f in points]
                assert fractions == sorted(fractions)  # monotone
                assert abs(fractions[-1] - 1.0) < 1e-9  # terminal
                for k, frac in points:
                    top = set(ranked[:k])
                    covered = sum(1 for key in members if key in top)
                    assert frac == covered / len(members)

        dom = report_mod.dominance(records)
        key_recount = Counter(report_mod.config_key(r.configuration)
                              for r in graded)
        assert dict(dom["config_counts"]) == dict(key_recount)

        table = downgrade_table([r.grade_report for r in graded])
        for g in (Grade.B, Grade.C, Grade.F):
            for category in Category:
                expected = sum(
                    1 for r in graded
                    if r.grade_report.overall == g
                    and r.grade_report.per_category[category] == g
                ) / len(graded)
                assert table[g][category] == expected


# -- criterion 9: vulnerability derivation truth table ------------------------

def test_criterion_9_vulnerability_truth_table(db, capsys):
    with criterion(capsys, 9, "crime/poodle/freak/heartbleed derivation "
                              "verified on the 16-configuration truth table"):
        combos = [(compression, ssl3_cbc, export_rsa, heartbleed)
                  for compression in (False, True)
                  for ssl3_cbc in (False, True)
                  for export_rsa in (False, True)
                  for heartbleed in (False, True)]
        assert len(combos) == 16
        for compression, ssl3_cbc, export_rsa, heartbleed in combos:
            suites = [0xC02F]                       # AEAD ECDHE baseline
            versions = {Version.TLS1_2}
            if ssl3_cbc:
                suites.append(0x002F)               # CBC suite
                versions.add(Version.SSLv3)
            if export_rsa:
                suites.append(0x0003)               # RSA-kex export suite
            config = Configuration(
                supported_suites=suites, preferred_suite=0xC02F,
                versions=frozenset(versions),
                server_preference=True,
                tls_compression=compression,
                heartbleed_vulnerable=heartbleed,
            )
            vulns = derive_vulnerabilities(config, db)
            assert vulns.crime == compression
            assert vulns.poodle == ssl3_cbc
            assert vulns.freak == export_rsa
            assert vulns.heartbleed == heartbleed
