import dataclasses
import json
import random
import tracemalloc
from collections import Counter, defaultdict

import pytest

from helpers import random_configuration
from tlsaudit import fixtures
from tlsaudit import report as report_mod
from tlsaudit.configuration import Configuration
from tlsaudit.grading import grade
from tlsaudit.records import Eligibility, ScanRecord, open_output
from tlsaudit.registry import SharedDecoder


def make_records(db, rng, n, n_as=12):
    records = []
    for i in range(n):
        if rng.random() < 0.05:
            records.append(ScanRecord(domain=f"x{i}.test",
                                      eligibility=Eligibility.EXCLUDED,
                                      exclusion_reason="DNS"))
            continue
        config = random_configuration(rng, db)
        asn = rng.randint(1, n_as)
        records.append(ScanRecord(
            domain=f"x{i}.test", rank=i + 1, address="127.0.0.1",
            eligibility=Eligibility.GRADED,
            asn={"number": asn, "name": f"AS-{asn}"},
            configuration=config,
            grade_report=grade(config, db),
        ))
    return records


def test_config_key_stability(db, rng):
    config = random_configuration(rng, db)
    key = report_mod.config_key(config)
    # key survives a serialization round trip (field-order independence)
    from tlsaudit.configuration import Configuration
    again = Configuration.from_json(
        json.loads(json.dumps(config.to_json(), sort_keys=True)))
    assert report_mod.config_key(again) == key
    other = random_configuration(rng, db)
    assert report_mod.config_key(other) != key


def test_config_key_is_pinned(db):
    # the bytes behind the dominance and cdf-config CSVs' config_key column
    label, config, _profile = fixtures.ubuntu_default_configurations(db)[0]
    assert label == "Nginx-14.04-1.0.1f"
    assert report_mod.config_key(config) == (
        "e0d33eabc9f0d6155ee3adf367fffe5f07e5b866faa1bd3e652fd44cea0bdfd9")


def test_distribution_trivial_and_empty(db, rng):
    records = make_records(db, rng, 40)
    dist = report_mod.grade_distribution(records)
    assert abs(sum(dist["proportions"].values()) - 1.0) < 1e-9
    assert sum(dist["counts"].values()) == dist["graded"]
    empty = report_mod.grade_distribution([])
    assert empty["graded"] == 0
    assert all(v == 0.0 for v in empty["proportions"].values())


def test_distribution_matches_recount(db, rng):
    records = make_records(db, rng, 300)
    dist = report_mod.grade_distribution(records)
    recount = Counter(r.grade_report.overall.value for r in records
                      if r.eligibility is Eligibility.GRADED)
    for g in "ABCF":
        assert dist["counts"][g] == recount.get(g, 0)


def test_cdf_all_one_group(db, rng):
    config = random_configuration(rng, db)
    records = [ScanRecord(domain=f"d{i}.test", eligibility=Eligibility.GRADED,
                          asn={"number": 1, "name": "only"},
                          configuration=config,
                          grade_report=grade(config, db))
               for i in range(5)]
    series = report_mod.cdf_by_group_rank(records, "asn")
    lit = series[grade(config, db).overall.value]
    assert lit[0] == (1, 1.0)


def test_cdf_monotone_and_terminal(db, rng):
    records = make_records(db, rng, 300)
    for group_key in ("asn", "config"):
        series = report_mod.cdf_by_group_rank(records, group_key)
        for grade_label, points in series.items():
            fractions = [f for _k, f in points]
            assert fractions == sorted(fractions)
            if points:
                assert abs(fractions[-1] - 1.0) < 1e-9


def test_cdf_matches_recount(db, rng):
    records = make_records(db, rng, 300)
    series = report_mod.cdf_by_group_rank(records, "asn")
    graded = [r for r in records if r.eligibility is Eligibility.GRADED]
    totals = Counter(r.asn["number"] for r in graded)
    ranked = sorted(totals, key=lambda g: (-totals[g], str(g)))
    for grade_label, points in series.items():
        members = [r for r in graded
                   if r.grade_report.overall.value == grade_label]
        if not members:
            assert points == []
            continue
        for k, frac in points:
            top = set(str(g) for g in ranked[:k])
            covered = sum(1 for r in members if str(r.asn["number"]) in top)
            assert abs(frac - covered / len(members)) < 1e-12


def test_dominance_counts_and_top5(db, rng):
    records = make_records(db, rng, 300)
    dom = report_mod.dominance(records)
    graded = [r for r in records if r.eligibility is Eligibility.GRADED]
    recount = Counter(report_mod.config_key(r.configuration) for r in graded)
    assert dict(dom["config_counts"]) == dict(recount)
    counts = [c for _k, c in dom["config_counts"]]
    assert counts == sorted(counts, reverse=True)
    for asn, info in dom["per_as_top5"].items():
        assert len(info["top"]) <= 5
        per_as = Counter(report_mod.config_key(r.configuration)
                         for r in graded if str(r.asn["number"]) == asn)
        want = sorted(per_as.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert info["top"] == want


def test_emit_csv_and_json(db, rng, tmp_path):
    records = make_records(db, rng, 60)
    dist = report_mod.build(records, "dist")
    csv_path = tmp_path / "dist.csv"
    with open_output(csv_path, "report") as out:
        report_mod.emit("dist", dist, "csv", out)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "grade,count,proportion"
    assert len(lines) == 5

    cdf = report_mod.build(records, "cdf-config")
    cdf_path = tmp_path / "cdf.csv"
    with open_output(cdf_path, "report") as out:
        report_mod.emit("cdf-config", cdf, "csv", out)
    assert cdf_path.read_text().splitlines()[0] == "k,grade,fraction"

    json_path = tmp_path / "dist.json"
    with open_output(json_path, "report") as out:
        report_mod.emit("dist", dist, "json", out)
    assert json.loads(json_path.read_text()) == dist


def test_unknown_kind_rejected(db, rng):
    with pytest.raises(ValueError):
        report_mod.build([], "nope")
    with pytest.raises(ValueError):
        report_mod.emit("nope", {}, "csv", "/dev/null")


def test_per_record_rows(db, rng):
    records = make_records(db, rng, 50)
    rows = list(report_mod.per_record_rows(records))
    graded = [r for r in records if r.eligibility is Eligibility.GRADED]
    assert len(rows) == len(graded)
    assert all(row["grade"] in "ABCF" for row in rows)


@pytest.mark.parametrize("domain, tld", [
    ("site1.example.org", "org"),
    ("example.com:8443", "com"),
    ("127.0.0.1:8443", None),
    ("127.0.0.1", None),
    ("[::1]:443", None),
    ("::1", None),
    ("fe80::1%eth0", None),
    ("10.0.0.1.example", "example"),
    ("host.123", "123"),
    ("example.com.", "com"),
    ("example.com.:443", "com"),
    ("Example.COM", "com"),
    ("localhost", "localhost"),
])
def test_per_record_tld(db, rng, domain, tld):
    record = dataclasses.replace(make_records(db, rng, 1, n_as=1)[0],
                                 domain=domain)
    assert record.eligibility is Eligibility.GRADED
    [row] = report_mod.per_record_rows([record])
    assert row["tld"] == tld


def test_ip_literal_tld_is_an_empty_csv_cell(db, rng, tmp_path):
    record = dataclasses.replace(make_records(db, rng, 1, n_as=1)[0],
                                 domain="127.0.0.1:8443")
    path = tmp_path / "records.csv"
    with open_output(path, "report") as out:
        report_mod.emit("records", report_mod.build([record], "records"),
                        "csv", out)
    header, row = path.read_text(encoding="utf-8").splitlines()
    assert header.endswith(",tld")
    assert row.startswith("127.0.0.1:8443,") and row.endswith(",")


def repeated_records(db, rng, n, distinct):
    """A corpus whose graded records share ``distinct`` configurations, each
    record holding its own equal copy, as ``load_records`` gives."""
    pool = [random_configuration(rng, db) for _ in range(distinct)]
    records = []
    for i in range(n):
        if i % 9 == 8:
            records.append(ScanRecord(domain=f"x{i}.test",
                                      eligibility=Eligibility.EXCLUDED))
            continue
        source = pool[i] if i < distinct else rng.choice(pool)
        config = Configuration.from_json(source.to_json())
        asn = rng.randint(1, 6)
        records.append(ScanRecord(
            domain=f"x{i}.test", eligibility=Eligibility.GRADED,
            asn={"number": asn, "name": f"AS-{asn}"},
            configuration=config, grade_report=grade(config, db)))
    return records


def test_config_folds_key_each_distinct_configuration_once(db, rng,
                                                          monkeypatch):
    records = repeated_records(db, rng, 400, distinct=12)
    graded = [r for r in records if r.eligibility is Eligibility.GRADED]
    # the same folds with one config_key call per record
    keys = [report_mod.config_key(r.configuration) for r in graded]
    assert len(set(keys)) == 12
    by_key = [dataclasses.replace(r, asn={"number": key, "name": ""})
              for r, key in zip(graded, keys)]
    want_cdf = report_mod.cdf_by_group_rank(by_key, "asn")
    counts = Counter(keys)
    per_as = defaultdict(Counter)
    for r, key in zip(graded, keys):
        per_as[str(r.asn["number"])][key] += 1

    def by_count(counter):
        return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    want_dominance = {
        "config_counts": by_count(counts),
        "per_as_top5": {
            asn: {"as_name": f"AS-{asn}", "top": by_count(per_as[asn])[:5]}
            for asn in sorted(per_as, key=lambda a: (-sum(per_as[a].values()),
                                                     a))},
    }

    calls = []
    real = report_mod.config_key
    monkeypatch.setattr(report_mod, "config_key",
                        lambda config: calls.append(config) or real(config))
    assert report_mod.build(records, "cdf-config") == want_cdf
    assert len(calls) == 12
    calls.clear()
    assert report_mod.build(records, "dominance") == want_dominance
    assert len(calls) == 12


def distinct_records(db, count):
    """A generator of ``count`` graded records whose configurations never
    repeat, each decoded on its own from the seed-3 configurations, as
    ``iter_records`` gives them once its memo is dropped."""
    rng = random.Random(3)
    pool = [random_configuration(rng, db) for _ in range(count)]
    pool = [(config.to_json(), grade(config, db)) for config in pool]
    return (ScanRecord(domain=f"x{n}.test", eligibility=Eligibility.GRADED,
                       asn={"number": n % 7, "name": "AS"},
                       configuration=Configuration.from_json(config),
                       grade_report=report)
            for n, (config, report) in enumerate(pool))


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_config_keyer_memo_is_bounded(db, monkeypatch):
    """With ``SharedDecoder.PROBE`` lowered, keying twice the distinct
    configurations peaks within 1.2 times the smaller count's peak: the
    keyer drops its memo by ``SharedDecoder``'s rule. It kept every
    configuration it keyed, about 1.5 kB each, for the whole fold."""
    monkeypatch.setattr(SharedDecoder, "PROBE", 64)
    peaks = []
    for count in (1_000, 2_000):
        records, key_of = distinct_records(db, count), report_mod._config_keyer()
        peaks.append(_traced_peak(lambda: all(map(key_of, records))))
    assert peaks[1] <= 1.2 * peaks[0], peaks


@pytest.mark.parametrize("which", ["cdf-config", "dominance"])
def test_config_folds_grow_by_their_groups_alone(db, monkeypatch, which):
    """Over configurations that never repeat, a fold keeps per distinct
    configuration only what its report holds for that group: its key and
    counts, and for ``cdf-config`` a point per grade. So its traced peak
    grows by under 1,000 bytes per added configuration (about 570 for
    ``cdf-config`` and 300 for ``dominance``), where keeping each
    configuration for the whole fold grew it by 1,700-2,100."""
    monkeypatch.setattr(SharedDecoder, "PROBE", 64)
    peaks = []
    for count in (1_000, 2_000):
        records = distinct_records(db, count)
        peaks.append(_traced_peak(lambda: report_mod.build(records, which)))
    assert peaks[1] - peaks[0] <= 1_000 * 1_000, peaks
