import dataclasses
import random

import pytest

from helpers import random_configuration, reassemble
from tlsaudit import fixtures
from tlsaudit.configuration import Configuration
from tlsaudit.grading import (Category, Grade, GradeReport,
                              derive_vulnerabilities, downgrade_table, grade,
                              grade_compression, grade_preferred)
from tlsaudit.registry import CipherFamily, Mac, Version

TABLE_UBUNTU_GRADES = ["C", "C", "B", "B", "F", "C", "C", "B", "B", "B"]


def test_ubuntu_default_grades(db):
    configs = fixtures.ubuntu_default_configurations(db)
    got = [grade(config, db).overall.value for _, config, _ in configs]
    assert got == TABLE_UBUNTU_GRADES


def test_heartbleed_row_grades_both_ways(db):
    # The one F row owes its F to Heartbleed; without the flag it grades C.
    rows = fixtures.ubuntu_default_rows()
    f_row = rows[4]
    config = fixtures.row_configuration(db, f_row)
    assert grade(config, db).overall is Grade.F
    patched = dataclasses.replace(config, heartbleed_vulnerable=False)
    assert grade(patched, db).overall is Grade.C


def test_top_as_grades(db):
    rows = fixtures.top_as_rows()
    mismatches = []
    for n, row in enumerate(rows):
        config = fixtures.row_configuration(db, row)
        report = grade(config, db)
        if report.overall.value != row["grade"]:
            mismatches.append((n, row["as_name"], row["grade"],
                               report.overall.value, report.per_category))
    assert len(mismatches) <= 5
    for n, as_name, want, got, per_category in mismatches:
        # every miss must be the documented server-preference conflict
        assert as_name.startswith("Cloudflare"), (n, as_name, want, got)
        assert per_category[Category.PREFERRED].value != want


def test_overall_is_minimum(db, rng):
    for _ in range(200):
        config = random_configuration(rng, db)
        report = grade(config, db)
        assert report.overall == min(report.per_category.values())


_STRIP_FEATURES = ("rc4", "des", "md5", "null", "export",
                   "sslv2", "sslv3", "compression")


def strip_feature(db, config: Configuration, feature: str):
    """Remove one insecure feature; None when absent or not removable."""
    if feature in ("rc4", "des", "md5", "null", "export"):
        def bad(s):
            info = db[s]
            return {"rc4": info.cipher_family is CipherFamily.RC4,
                    "des": info.cipher_family is CipherFamily.DES,
                    "md5": info.mac is Mac.MD5,
                    "null": info.cipher_family is CipherFamily.NULL,
                    "export": info.is_export}[feature]
        keep = [s for s in config.supported_suites if not bad(s)]
        if len(keep) == len(config.supported_suites) or not keep:
            return None
        return reassemble(db, config, suites=keep)
    if feature in ("sslv2", "sslv3"):
        version = Version.SSLv2 if feature == "sslv2" else Version.SSLv3
        if version not in config.versions or len(config.versions) == 1:
            return None
        return reassemble(db, config, versions=config.versions - {version})
    if feature == "compression":
        if not config.tls_compression:
            return None
        return reassemble(db, config, tls_compression=False)
    raise AssertionError(feature)


def test_monotonicity_under_feature_removal(db, rng):
    for _ in range(200):
        config = random_configuration(rng, db)
        before = grade(config, db).overall
        for feature in _STRIP_FEATURES:
            stripped = strip_feature(db, config, feature)
            if stripped is None:
                continue
            after = grade(stripped, db).overall
            assert after >= before, (feature, before, after)


def test_preferred_and_compression_ranges(db, rng):
    for _ in range(200):
        config = random_configuration(rng, db)
        assert grade_preferred(config, db) in (Grade.A, Grade.B)
        assert grade_compression(config) in (Grade.A, Grade.C)


def test_vulnerability_derivation_corners(db):
    base = fixtures.ubuntu_default_configurations(db)[7][1]  # a B-grade config
    vulns = derive_vulnerabilities(base, db)
    assert not vulns.crime and not vulns.heartbleed
    compressed = dataclasses.replace(base, tls_compression=True)
    assert derive_vulnerabilities(compressed, db).crime


def test_downgrade_table_single_report():
    report = GradeReport(
        per_category={Category.PROTOCOL: Grade.A,
                      Category.KEY_EXCHANGE: Grade.C,
                      Category.CIPHERS_MAC: Grade.A,
                      Category.PREFERRED: Grade.B,
                      Category.COMPRESSION: Grade.A,
                      Category.TICKET_LIFETIME: Grade.A,
                      Category.VULNERABILITIES: Grade.A},
        overall=Grade.C,
        downgrade_reasons={},
    )
    table = downgrade_table([report])
    assert table[Grade.C][Category.KEY_EXCHANGE] == 1.0
    flat = [frac for row in table.values() for cat, frac in row.items()
            if not (row is table[Grade.C] and cat is Category.KEY_EXCHANGE)]
    assert all(f == 0.0 for f in flat)


def test_grade_report_json_round_trip(db, rng):
    for _ in range(20):
        report = grade(random_configuration(rng, db), db)
        again = GradeReport.from_json(report.to_json())
        assert again.overall == report.overall
        assert again.per_category == report.per_category


def test_stock_default_grade_reports_survive_json(db):
    # a loaded report equals the graded one: nothing grade() sets is lost
    for label, config, _ in fixtures.ubuntu_default_configurations(db):
        report = grade(config, db)
        assert GradeReport.from_json(report.to_json()) == report, label


def test_grade_total_ordering():
    assert Grade.A > Grade.B > Grade.C > Grade.F
    assert min(Grade.A, Grade.F) is Grade.F
