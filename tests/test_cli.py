import argparse
import ast
import json
import sys
from pathlib import Path

import pytest

from tlsaudit import cli, fixtures, pipeline
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


@pytest.mark.parametrize("field, value", [
    ("versions", None), ("supported_suites", None), ("cert_sig_alg", ["rsa"]),
    ("cert_sig_alg", 5), ("extensions", [5]),
])
def test_cmd_grade_repeated_lines_around_a_wrongly_typed_one(
        db, tmp_path, capsys, field, value):
    configs = [config for _label, config, _profile
               in fixtures.ubuntu_default_configurations(db)[:2]]
    a, b = (config.to_json() for config in configs)
    bad = dict(a, **{field: value})
    lines = [{"label": "a1", "configuration": a}, b,
             {"label": "bad", "configuration": bad},
             {"label": "a2", "configuration": a}, "", {"configuration": b},
             a]
    infile = tmp_path / "configs.jsonl"
    infile.write_text("".join((json.dumps(obj) if obj else "") + "\n"
                              for obj in lines))
    out = tmp_path / "grades.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("line 3: invalid record: ")
    ra, rb = (grade(config, db).to_json() for config in configs)
    assert [json.loads(line) for line in out.read_text().splitlines()] == [
        {"grade_report": ra, "label": "a1"}, {"grade_report": rb},
        {"grade_report": ra, "label": "a2"}, {"grade_report": rb},
        {"grade_report": ra}]


@pytest.mark.parametrize("line", ["[1]", "5", '"text"', "null"])
def test_cmd_grade_line_not_an_object(db, tmp_path, capsys, line):
    config = fixtures.ubuntu_default_configurations(db)[0][1]
    good = json.dumps(config.to_json())
    infile = tmp_path / "configs.jsonl"
    infile.write_text(f"{good}\n{line}\n{good}\n")
    out = tmp_path / "grades.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("line 2: invalid record: ")
    report = grade(config, db).to_json()
    assert [json.loads(l) for l in out.read_text().splitlines()] == [
        {"grade_report": report}] * 2


def test_cmd_grade_loosely_typed_scalar(db, tmp_path, capsys):
    good = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    loose = dict(good, server_preference=int(good["server_preference"]))
    infile = tmp_path / "configs.jsonl"
    infile.write_text(json.dumps(good) + "\n" + json.dumps(loose) + "\n")
    out = tmp_path / "grades.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"line 2: invalid record: server_preference must be a bool, "
                   f"not {loose['server_preference']}"]
    assert len(out.read_text().splitlines()) == 1


def _int_flag(config_json: dict) -> dict:
    """``config_json`` with its ``AES`` flag written as ``1``: equal to
    ``true`` under ``==``, but a different report key."""
    flags = dict(config_json["component_flags"])
    flags["AES"] = int(flags["AES"])
    return dict(config_json, component_flags=flags)


def test_cmd_grade_int_flag(db, tmp_path, capsys):
    good = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    infile = tmp_path / "configs.jsonl"
    infile.write_text(json.dumps(good) + "\n" + json.dumps(_int_flag(good)) + "\n")
    out = tmp_path / "grades.jsonl"
    assert cli.main(["grade", "--in", str(infile), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"line 2: invalid record: component_flags['AES'] must be "
                   f"a bool, not {int(good['component_flags']['AES'])}"]
    assert len(out.read_text().splitlines()) == 1


def test_cmd_scan_fixture_targets(db, tmp_path):
    specs = fixtures.bundled_corpus(db, seed=9)[:2]
    endpoints = [fixtures.spawn(s, db) for s in specs]
    try:
        targets = tmp_path / "targets.csv"
        targets.write_text("".join(f"{n},{ep.host}:{ep.port}\n"
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


def test_cmd_scan_refuses_the_whole_list_before_writing(db, tmp_path, capsys):
    """A loopback target ahead of a non-loopback one is not scanned either:
    the refusal comes before ``--out`` is created."""
    with fixtures.spawn(fixtures.bundled_corpus(db, seed=9)[0], db) as ep:
        targets = tmp_path / "targets.csv"
        targets.write_text(f"1,{ep.host}:{ep.port}\n2,192.0.2.77:443\n")
        out = tmp_path / "scan.jsonl"
        assert cli.main(["scan", "--targets", str(targets),
                         "--out", str(out)]) == 2
        assert ep.capture == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "refused: 192.0.2.77:443 resolves to non-loopback 192.0.2.77;")
    assert not out.exists()


def test_cmd_scan_refusal_leaves_a_torn_out_as_it_was(tmp_path):
    targets = tmp_path / "targets.csv"
    targets.write_text("1,127.0.0.1:1\n2,192.0.2.77:443\n")
    out = tmp_path / "scan.jsonl"
    out.write_bytes(b'{"schema_version": 1, "domain": "127.0.0.1:9", "ra')
    before = out.read_bytes()
    assert cli.main(["scan", "--targets", str(targets),
                     "--out", str(out)]) == 2
    assert out.read_bytes() == before


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


def test_cmd_scan_asn_table_not_utf8(tmp_path, capsys):
    targets = tmp_path / "targets.csv"
    targets.write_text("1,localhost\n")
    table = tmp_path / "asn.csv"
    table.write_bytes("prefix,asn,as_name\n10.0.0.0/8,64500,Caf\u00e9Net\n"
                      .encode("latin-1"))
    out = tmp_path / "scan.jsonl"
    assert cli.main(["scan", "--targets", str(targets), "--out", str(out),
                     "--asn-table", str(table)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: cannot read asn table: 'utf-8' codec can't decode byte 0xe9")
    assert not out.exists()


_NOT_UTF8 = '{"label": "caf\u00e9"}\n'.encode("latin-1")
_SCAN = ["scan", "--targets", "{targets}", "--out", "{out}"]
_RECORDS = ["report", "--records", "{records}", "--which", "dist",
            "--out", "{report}"]


# (files written as they are, argv with {file} paths, stderr line prefix)
@pytest.mark.parametrize("files, argv, prefix", [
    ({"targets": "1,caf\u00e9.test\n".encode("latin-1")}, _SCAN,
     "error: cannot read targets: 'utf-8' codec can't decode byte 0xe9"),
    ({"in": _NOT_UTF8}, ["grade", "--in", "{in}"],
     "error: cannot read configurations: 'utf-8' codec can't decode"),
    ({"recs": _NOT_UTF8}, ["check-rec", "--defaults", "--recs", "{recs}"],
     "error: cannot read recommendations: 'utf-8' codec can't decode"),
    ({"records": _NOT_UTF8}, _RECORDS,
     "error: cannot read records: 'utf-8' codec can't decode"),
    # a torn final line is not cut while a complete line is malformed
    ({"targets": b"1,localhost\n",
      "out": b'{"domain": "localhost"}\nnot json\n{"dom'}, _SCAN,
     "error: {out}:2: bad record: Expecting value"),
    ({"targets": b"1,localhost\n", "out": b'{"domain": ["a"]}\n'}, _SCAN,
     "error: {out}:1: bad record: domain must be a string, not ['a']"),
    ({"targets": b"1,localhost\n", "out": b'{"rank": 1}\n'}, _SCAN,
     "error: {out}:1: bad record: domain is required"),
    ({"targets": b"1,localhost\n", "policy": b"[1]"},
     _SCAN + ["--policy", "{policy}"],
     "error: bad policy file: expected a JSON object, not list"),
    ({"targets": b"1,localhost\n", "policy": b'{"timeout_ms": "5"}'},
     _SCAN + ["--policy", "{policy}"],
     "error: bad policy file: timeout_ms must be a number, not '5'"),
    # a missing file, for each input option
    ({}, _SCAN, "error: cannot read targets: [Errno 2]"),
    ({"targets": b"1,localhost\n"}, _SCAN + ["--policy", "{policy}"],
     "error: cannot read policy file: [Errno 2]"),
    ({"targets": b"1,localhost\n"}, _SCAN + ["--asn-table", "{asn}"],
     "error: cannot read asn table: [Errno 2]"),
    ({}, ["grade", "--in", "{in}"],
     "error: cannot read configurations: [Errno 2]"),
    ({}, ["check-rec", "--defaults", "--recs", "{recs}"],
     "error: cannot read recommendations: [Errno 2]"),
    ({"recs": b'{"cipher_string": "HIGH"}\n'},
     ["check-rec", "--configs", "{configs}", "--recs", "{recs}"],
     "error: cannot read configs file: [Errno 2]"),
    ({}, _RECORDS, "error: cannot read records: [Errno 2]"),
    # the report kind is checked before the records file is read
    ({}, ["report", "--records", "{records}", "--which", "bogus",
          "--out", "{report}"], "error: unknown report kind 'bogus'"),
    # a policy value out of range, with a resumable --out left as it is
    *(({"targets": b"1,localhost\n", "out": b'{"domain": "localhost"}\n',
        "policy": policy}, _SCAN + ["--policy", "{policy}"],
       f"error: bad policy file: {message}")
      for policy, message in (
          (b'{"timeout_ms": -5}', "timeout_ms must be above 0"),
          (b'{"timeout_ms": NaN}', "timeout_ms must be above 0"),
          (b'{"timeout_ms": 0}', "timeout_ms must be above 0"),
          (b'{"delay_min_ms": -5000, "delay_max_ms": 1}',
           "delay_min_ms must be 0 to 86400000"))),
], ids=["targets-latin-1", "grade-in-latin-1", "recs-latin-1",
        "records-latin-1", "resume-not-json", "resume-domain-list",
        "resume-without-domain",
        "policy-list", "policy-string-ms", "targets-missing",
        "policy-missing", "asn-table-missing", "grade-in-missing",
        "recs-missing", "configs-missing", "records-missing",
        "report-kind-before-records",
        "policy-negative-timeout", "policy-nan-timeout", "policy-zero-timeout",
        "policy-negative-delay"])
def test_bad_input_file_is_one_error_line(tmp_path, capsys, files, argv,
                                          prefix):
    paths = {name: str(tmp_path / name) for name in (
        "targets", "out", "policy", "asn", "in", "recs", "configs",
        "records", "report")}
    for name, content in files.items():
        Path(paths[name]).write_bytes(content)
    assert cli.main([arg.format_map(paths) for arg in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix.format_map(paths))
    assert {name: Path(paths[name]).read_bytes() for name in files} == files
    assert not Path(paths["report"]).exists()


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
    assert capsys.readouterr().err.splitlines() == [
        "error: bad recs file: line 2: unknown protocol version 'TLSv9'"]
    assert not out.exists()


def test_cmd_check_rec_wrongly_typed_config(db, tmp_path, capsys):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "HIGH"}) + "\n")
    config = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps(config) + "\n"
                       + json.dumps(dict(config, versions=None)) + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--configs",
                     str(configs), "--out", str(out)]) == 1
    assert "error: bad configs file: " in capsys.readouterr().err
    assert not out.exists()


def test_cmd_check_rec_int_flag_config(db, tmp_path, capsys):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "HIGH"}) + "\n")
    config = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps(config) + "\n\n"
                       + json.dumps(_int_flag(config)) + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--configs",
                     str(configs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "error: bad configs file: line 3: component_flags['AES'] must be a bool")
    assert not out.exists()


@pytest.mark.parametrize("line", ["[1]", "5"])
def test_cmd_check_rec_config_line_not_an_object(db, tmp_path, capsys, line):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "HIGH"}) + "\n")
    config = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps(config) + "\n" + line + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--configs",
                     str(configs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: bad configs file: ")
    assert not out.exists()


@pytest.mark.parametrize("line", [
    "5", "[1]", '{"protocols": 5}', '{"cipher_string": 5}',
    '{"dh_params_bits": "2048"}', '{"session_tickets": "no"}',
    '{"cipher_string": "HIGH", "source": 5}',
])
def test_cmd_check_rec_rec_line_wrongly_typed(tmp_path, capsys, line):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "HIGH"}) + "\n" + line + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--defaults",
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: bad recs file: line 2: ")
    assert not out.exists()


def test_cmd_check_rec_config_label_not_a_string(db, tmp_path, capsys):
    recs = tmp_path / "recs.jsonl"
    recs.write_text(json.dumps({"cipher_string": "HIGH"}) + "\n")
    config = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    configs = tmp_path / "configs.jsonl"
    configs.write_text(json.dumps({"label": "a", "configuration": config}) + "\n"
                       + json.dumps({"label": [1], "configuration": config})
                       + "\n")
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--configs",
                     str(configs), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: bad configs file: line 2: label must be a string, not [1]"]
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


@pytest.mark.parametrize("field, value", [
    ("supported_suites", None), ("versions", None), ("dh_prime_bits", [1024]),
])
def test_cmd_report_wrongly_typed_field(db, tmp_path, capsys, field, value):
    from tlsaudit.pipeline import Eligibility, ScanRecord
    config = fixtures.ubuntu_default_configurations(db)[0][1]
    good = ScanRecord(domain="a.test", eligibility=Eligibility.GRADED,
                      configuration=config,
                      grade_report=grade(config, db)).to_json()
    bad = json.loads(json.dumps(good))
    bad["configuration"][field] = value
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    out = tmp_path / "out.csv"
    assert cli.main(["report", "--records", str(records), "--which",
                     "dominance", "--out", str(out)]) == 1
    assert (f"error: {records}:2: bad record: "
            in capsys.readouterr().err)
    assert not out.exists()


def _record_field(name, value):
    def edit(record):
        record[name] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_record_field("asn", [1]), "asn must be an object or null, not [1]"),
    (_record_field("asn", {"name": "x"}), "asn.number is required"),
    (_record_field("domain", 5), "domain must be a string, not 5"),
    (_record_field("server_software", "nginx"),
     "server_software must be an object or null, not 'nginx'"),
    (lambda record: record["grade_report"].update(categories=[]),
     "categories must be an object, not []"),
    (lambda record: record.pop("domain"), "domain is required"),
    (lambda record: record.pop("eligibility"), "eligibility is required"),
    (_record_field("configuration", {}), "versions is required"),
    (lambda record: record["configuration"].pop("session_tickets"),
     "session_tickets is required"),
    (lambda record: record["grade_report"].pop("overall"),
     "overall is required"),
    (lambda record: record["grade_report"].pop("categories"),
     "categories is required"),
    (lambda record: record["configuration"]["supported_suites"].append("-0x1"),
     "a suite id must be 0x and four hex digits, not '-0x1'"),
    (lambda record: record["configuration"]["supported_suites"].append(" 0xc02f "),
     "a suite id must be 0x and four hex digits, not ' 0xc02f '"),
    (lambda record: record["configuration"].update(preferred_suite="0x1C02F"),
     "a suite id must be 0x and four hex digits, not '0x1C02F'"),
    (lambda record: record["configuration"].update(preferred_suite="0x_c0_2f"),
     "a suite id must be 0x and four hex digits, not '0x_c0_2f'"),
], ids=["asn-list", "asn-without-number", "domain-int",
        "server-software-string", "categories-list", "without-domain",
        "without-eligibility", "empty-configuration",
        "configuration-without-session-tickets", "without-overall",
        "without-categories", "negative-suite", "spaced-suite",
        "five-digit-preferred-suite", "underscored-preferred-suite"])
def test_cmd_report_wrongly_typed_record_field(db, tmp_path, capsys, edit,
                                               message):
    from tlsaudit.pipeline import Eligibility, ScanRecord
    config = fixtures.ubuntu_default_configurations(db)[0][1]
    good = ScanRecord(domain="a.test", eligibility=Eligibility.GRADED,
                      asn={"number": 64500, "name": "AS-TEST"},
                      server_software={"name": "nginx", "version": None},
                      configuration=config,
                      grade_report=grade(config, db)).to_json()
    bad = json.loads(json.dumps(good))
    edit(bad)
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    for which in ("dominance", "records"):
        out = tmp_path / f"{which}.csv"
        assert cli.main(["report", "--records", str(records), "--which",
                         which, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {records}:2: bad record: {message}"]
        assert not out.exists()


def test_cmd_report_int_flag(db, tmp_path, capsys):
    from tlsaudit.pipeline import Eligibility, ScanRecord
    config = fixtures.ubuntu_default_configurations(db)[0][1]
    good = ScanRecord(domain="a.test", eligibility=Eligibility.GRADED,
                      configuration=config,
                      grade_report=grade(config, db)).to_json()
    bad = dict(good, configuration=_int_flag(good["configuration"]))
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    out = tmp_path / "out.csv"
    assert cli.main(["report", "--records", str(records), "--which",
                     "dominance", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {records}:2: bad record: ")
    assert "component_flags['AES'] must be a bool" in err
    assert not out.exists()


def _graded_line(db, **fields):
    from tlsaudit.pipeline import Eligibility, ScanRecord
    config = fixtures.ubuntu_default_configurations(db)[0][1]
    record = ScanRecord(domain="a", eligibility=Eligibility.GRADED,
                        configuration=config,
                        grade_report=grade(config, db)).to_json()
    return dict(record, **fields)


@pytest.mark.parametrize("line, message", [
    (lambda db: {"domain": "a", "eligibility": "GRADED", "configuration": {}},
     "versions is required"),
    (lambda db: _graded_line(db, configuration=None),
     "GRADED records need a configuration"),
    (lambda db: _graded_line(db, grade_report=None),
     "GRADED records need a grade_report"),
    (lambda db: _graded_line(db, eligibility="EXCLUDED", configuration=None),
     "EXCLUDED records carry no grade_report"),
], ids=["empty-configuration", "no-configuration", "no-grade-report",
        "excluded-with-grade-report"])
def test_cmd_report_record_without_its_graded_fields(db, tmp_path, capsys,
                                                     line, message):
    records = tmp_path / "records.jsonl"
    records.write_text(json.dumps(line(db)) + "\n")
    for which in ("dist", "records"):
        out = tmp_path / f"{which}.csv"
        assert cli.main(["report", "--records", str(records), "--which",
                         which, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {records}:1: bad record: {message}"]
        assert not out.exists()


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



# -- JSON nested too deeply for the decoder -------------------------------------

_DEEP = b"[" * 100_000 + b"]" * 100_000 + b"\n"
_HIGH = b'{"cipher_string": "HIGH"}\n'


@pytest.mark.parametrize("files, argv, prefix", [
    ({"in": _DEEP}, ["grade", "--in", "{in}"],
     "line 1: invalid record: JSON nested too deeply"),
    ({"recs": _DEEP}, ["check-rec", "--defaults", "--recs", "{recs}"],
     "error: bad recs file: line 1: JSON nested too deeply"),
    ({"recs": _HIGH, "configs": _DEEP},
     ["check-rec", "--configs", "{configs}", "--recs", "{recs}"],
     "error: bad configs file: line 1: JSON nested too deeply"),
    ({"records": _DEEP}, _RECORDS,
     "error: {records}:1: bad record: JSON nested too deeply"),
    ({"targets": b"1,localhost\n", "policy": _DEEP},
     _SCAN + ["--policy", "{policy}"],
     "error: bad policy file: JSON nested too deeply"),
    ({"targets": b"1,localhost\n", "out": _DEEP}, _SCAN,
     "error: {out}:1: bad record: JSON nested too deeply"),
], ids=["grade-in", "recs", "configs", "records", "policy", "resume-out"])
def test_deeply_nested_json_is_one_error_line(tmp_path, capsys, files, argv,
                                              prefix):
    """``json.loads`` raises RecursionError on deep nesting; every JSON input
    reports it as malformed input, with exit 1 and one stderr line."""
    test_bad_input_file_is_one_error_line(tmp_path, capsys, files, argv, prefix)


def _nested_in_versions(config: dict, depth: int) -> str:
    """``config``'s JSON with ``versions`` a list ``depth`` deep."""
    return json.dumps(dict(config, versions="X")).replace(
        '"X"', "[" * depth + "]" * depth)


def test_json_nested_near_the_recursion_limit_is_an_input_error(db, tmp_path,
                                                                capsys):
    """Around the depth where ``json.loads`` stops, a line either fails to
    parse or decodes to a wrongly typed configuration: an input error either
    way, in ``grade --in`` and in ``load_records``."""
    config = fixtures.ubuntu_default_configurations(db)[0][1].to_json()
    limit = sys.getrecursionlimit()
    nested = [_nested_in_versions(config, depth)
              for depth in range(limit - 150, limit + 5)]
    infile = tmp_path / "in.jsonl"
    infile.write_text("".join(f'{{"configuration": {text}}}\n'
                              for text in nested))
    capsys.readouterr()
    assert cli.main(["grade", "--in", str(infile), "--out",
                     str(tmp_path / "out.jsonl")]) == cli.EXIT_INPUT
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == [
        f"line {n}" for n in range(1, len(nested) + 1)]
    assert any(line.endswith("JSON nested too deeply") for line in err)
    records = tmp_path / "records.jsonl"
    for text in nested:
        records.write_text(f'{{"domain": "a", "eligibility": "GRADED", '
                           f'"configuration": {text}}}\n')
        with pytest.raises(pipeline.PipelineError):
            pipeline.load_records(records)


# -- check-rec --configs labels ---------------------------------------------------

@pytest.mark.parametrize("labels, message", [
    (["x", "x"], "line 2: label 'x' is already used"),
    # line 2 has no label of its own, so it is config-2
    (["config-2", None], "line 2: label 'config-2' is already used"),
], ids=["repeated", "default-clash"])
def test_cmd_check_rec_repeated_label(db, tmp_path, capsys, labels, message):
    """Results are keyed by label, so a label may name one line only."""
    recs = tmp_path / "recs.jsonl"
    recs.write_bytes(_HIGH)
    configs = tmp_path / "configs.jsonl"
    defaults = fixtures.ubuntu_default_configurations(db)
    configs.write_text("".join(
        json.dumps({"configuration": config.to_json()}
                   | ({"label": label} if label else {})) + "\n"
        for label, (_name, config, _profile) in zip(labels, defaults)))
    out = tmp_path / "out.jsonl"
    assert cli.main(["check-rec", "--recs", str(recs), "--configs",
                     str(configs), "--out", str(out)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        f"error: bad configs file: {message}"]
    assert not out.exists()


def test_cli_parses_json_only_through_parse_json():
    """Every JSON input goes through ``registry.parse_json``, the one parse
    that turns a RecursionError into an input error."""
    src = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"
    calls = [f"{module}:{node.lineno}"
             for module in ("cli.py", "pipeline.py")
             for node in ast.walk(ast.parse((src / module).read_text(
                 encoding="utf-8")))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "loads")]
    assert calls == []
