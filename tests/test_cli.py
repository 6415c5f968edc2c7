import argparse
import json
from pathlib import Path

import pytest

from tlsaudit import cli, fixtures
from tlsaudit.grading import grade


def write_defaults_jsonl(db, path):
    with open(path, "w", encoding="utf-8") as fh:
        for label, config, _profile in fixtures.ubuntu_default_configurations(db):
            fh.write(json.dumps({"label": label,
                                 "configuration": config.to_json()}) + "\n")


def test_cmd_grade_table_rows(db, tmp_path, capsys):
    infile = tmp_path / "configs.jsonl"
    write_defaults_jsonl(db, infile)
    out = tmp_path / "grades.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 0
    grades = [json.loads(line)["grade_report"]["overall"]
              for line in out.read_text().splitlines()]
    assert grades == ["C", "C", "B", "B", "F", "C", "C", "B", "B", "B"]


def test_cmd_grade_empty_file(tmp_path):
    infile = tmp_path / "empty.jsonl"
    infile.write_text("")
    out = tmp_path / "out.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 0
    assert out.read_text() == ""


def test_cmd_grade_invalid_record(db, tmp_path, capsys):
    infile = tmp_path / "bad.jsonl"
    infile.write_text('{"not": "a config"}\n')
    out = tmp_path / "out.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 1
    assert "invalid record" in capsys.readouterr().err


def test_cmd_grade_missing_file(tmp_path):
    assert cli.main(["grade", "--in", str(tmp_path / "nope.jsonl")]) == 1


def test_cmd_scan_fixture_targets(db, tmp_path):
    specs = fixtures.bundled_corpus(db, seed=9)[:2]
    endpoints = [fixtures.spawn(s, db) for s in specs]
    try:
        targets = tmp_path / "targets.csv"
        targets.write_text("".join(f"{n},{ep.target}\n"
                                   for n, ep in enumerate(endpoints, 1)))
        out = tmp_path / "scan.jsonl"
        rc = cli.main(["scan", "--targets", str(targets), "--out", str(out)])
    finally:
        for ep in endpoints:
            ep.stop()
    assert rc == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    for record, spec in zip(records, specs):
        expected = grade(fixtures.projection(spec, db), db)
        assert record["grade_report"]["overall"] == expected.overall.value


def test_cmd_scan_ethics_refusal(tmp_path, capsys):
    targets = tmp_path / "targets.csv"
    targets.write_text("1,192.0.2.77:443\n")
    out = tmp_path / "scan.jsonl"
    assert cli.main(["scan", "--targets", str(targets),
                     "--out", str(out)]) == 2
    assert "ethics" in capsys.readouterr().err


def test_cmd_scan_seed_applies_over_policy_file(tmp_path, monkeypatch):
    targets = tmp_path / "targets.csv"
    targets.write_text("1,localhost\n")
    policy_file = tmp_path / "policy.json"
    policy_file.write_text(json.dumps({"timeout_ms": 2500, "delay_max_ms": 0,
                                       "seed": 3}))
    seen = []
    monkeypatch.setattr(cli.pipeline, "run_scan",
                        lambda targets, policy, *rest: seen.append(policy))
    base = ["scan", "--targets", str(targets), "--out",
            str(tmp_path / "o.jsonl"), "--policy", str(policy_file)]
    assert cli.main(base + ["--seed", "42"]) == 0
    assert cli.main(base) == 0
    assert [p.seed for p in seen] == [42, 3]
    assert all(p.timeout_s == 2.5 and p.delay_max_s == 0.0 for p in seen)


def test_every_long_option_is_in_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    parsers = [cli._build_parser()]
    options = set()
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            options.update(o for o in action.option_strings
                           if o.startswith("--") and o != "--help")
    assert options
    assert sorted(o for o in options if o not in readme) == []


def test_cmd_scan_bad_targets(tmp_path):
    assert cli.main(["scan", "--targets", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
    empty = tmp_path / "empty.csv"
    empty.write_text("malformed\n")
    assert cli.main(["scan", "--targets", str(empty),
                     "--out", str(tmp_path / "o.jsonl")]) == 1


def test_cmd_check_rec(db, tmp_path):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({
        "cipher_string": "ECDHE+AESGCM:!RC4:!MD5",
        "protocols": ["TLS1.2"], "server_preference": True}) + "\n")
    out = tmp_path / "rec-report.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--defaults",
                     "--out", str(out)]) == 0
    entry = json.loads(out.read_text())
    assert entry["best"] == "A"
    assert entry["grades"]["Nginx-18.04-1.1.0g"]["overall"] == "A"


def test_cmd_check_rec_malformed_string(tmp_path, capsys):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "ECDHE+!BOGUS"}) + "\n")
    assert cli.main(["check-rec", "--recs", str(recs), "--defaults"]) == 1
    assert "offset" in capsys.readouterr().err


def test_cmd_check_rec_unknown_protocol(tmp_path, capsys):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"protocols": ["TLS1.2"]}) + "\n"
                    + json.dumps({"protocols": ["TLS1.2", "TLSv9"]}) + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--defaults",
                     "--out", str(out)]) == 1
    assert ("recs line 2: unknown protocol version 'TLSv9'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_cmd_check_rec_needs_a_config_source(tmp_path):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "HIGH"}) + "\n")
    assert cli.main(["check-rec", "--recs", str(recs)]) == 1


def test_cmd_report_unknown_kind(tmp_path):
    records = tmp_path / "records.jsonl"
    records.write_text("")
    assert cli.main(["report", "--records", str(records), "--which", "wat",
                     "--out", str(tmp_path / "o.csv")]) == 1


def test_cmd_report_dist(db, tmp_path):
    from helpers import random_configuration
    import random
    from tlsaudit.pipeline import Eligibility, ScanRecord
    rng = random.Random(5)
    records = tmp_path / "records.jsonl"
    with open(records, "w") as fh:
        for i in range(10):
            config = random_configuration(rng, db)
            rec = ScanRecord(domain=f"d{i}.test",
                             eligibility=Eligibility.GRADED,
                             configuration=config,
                             grade_report=grade(config, db))
            fh.write(json.dumps(rec.to_json()) + "\n")
    out = tmp_path / "dist.csv"
    assert cli.main(["report", "--records", str(records), "--which", "dist",
                     "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "grade,count,proportion"
    assert sum(int(l.split(",")[1]) for l in lines[1:]) == 10


def test_cmd_fixtures(tmp_path, capsys):
    out_dir = tmp_path / "fx"
    assert cli.main(["fixtures", "--out-dir", str(out_dir),
                     "--seed", "4"]) == 0
    specs = sorted(out_dir.glob("spec-*.json"))
    assert len(specs) == 40
    assert (out_dir / "ubuntu_defaults.jsonl").exists()
    # specs are valid and reloadable
    from tlsaudit.fixtures import FixtureSpec
    FixtureSpec.from_json(json.loads(specs[0].read_text()))
