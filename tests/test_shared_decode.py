"""Each reader decodes a distinct configuration or grade report once.

``pipeline.load_records`` and ``grade --in`` keep one object per distinct
``configuration`` (and ``grade_report``) JSON value for the length of one
call. The property tests compare both readers with a fresh decode of each
line: equal output, records with equal JSON sharing one object, and a
wrongly typed line failing with its own line number even after an
equal-valued, well-typed one. They run again with a ``SharedDecoder`` that
drops its memo almost at once, as it does on a file whose values rarely
repeat. The memory tests bound the bytes a loaded record costs when few
distinct configurations back many records, and when each record has its
own.
"""

import dataclasses
import json
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_configuration
from tlsaudit import cli, pipeline
from tlsaudit.configuration import Configuration
from tlsaudit.grading import grade
from tlsaudit.pipeline import Eligibility, PipelineError, ScanRecord
from tlsaudit.registry import SharedDecoder, check_fields

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def pool(db):
    """A few configurations with every optional integer set, and their
    grade reports, as JSON."""
    rng = random.Random(5)
    configs = [dataclasses.replace(random_configuration(rng, db),
                                   dh_prime_bits=1024) for _ in range(3)]
    return [(c.to_json(), grade(c, db).to_json()) for c in configs]


def _reversed(obj: dict) -> dict:
    """``obj`` with its keys in reverse order: an equal value, another repr."""
    return dict(reversed(obj.items()))


# how a line's configuration differs from its pool entry; the last two are
# wrongly typed and so an input error
_VARIANTS = ("same", "reordered", "one-for-true", "float-for-int")


@st.composite
def _lines(draw, pool):
    """(configuration JSON, grade report JSON, separators) per line: pool
    values repeated, some reordered, some wrongly typed."""
    out = []
    for _ in range(draw(st.integers(1, 12))):
        config, report = draw(st.sampled_from(pool))
        variant = draw(st.sampled_from(_VARIANTS))
        config = json.loads(json.dumps(config))
        if variant == "reordered":
            config = _reversed(config)
            config["component_flags"] = _reversed(config["component_flags"])
            report = _reversed(report)
        elif variant == "one-for-true":
            config["server_preference"] = int(config["server_preference"])
        elif variant == "float-for-int":
            config["dh_prime_bits"] = float(config["dh_prime_bits"])
        separators = draw(st.sampled_from(((", ", ": "), (",", ":"))))
        out.append((config, report, separators))
    return out


def _fresh_records(lines: list[str]):
    """What a fresh decode of each line gives: the records, or the first bad
    line's number and message."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        try:
            records.append(ScanRecord.from_json(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            return None, (lineno, str(exc))
    return records, None


def _assert_loads_as_fresh(tmp_path, lines: list[str],
                           check_sharing: bool) -> None:
    path = tmp_path / "records.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want, bad = _fresh_records(lines)
    if bad is not None:
        with pytest.raises(PipelineError) as err:
            pipeline.load_records(path)
        assert str(err.value) == f"{path}:{bad[0]}: bad record: {bad[1]}"
        return
    got = pipeline.load_records(path)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    if not check_sharing:
        return
    objs = [json.loads(line) for line in lines]
    for field in ("configuration", "grade_report"):
        first = {}
        for obj, record in zip(objs, got):
            value = getattr(record, field)
            shared = first.setdefault(repr(obj[field]), value)
            assert shared is value, field


# the default probe, which these short files never reach, and a memo that
# is dropped at the second distinct value that no call has repeated
_PROBES = pytest.mark.parametrize("probe", [SharedDecoder.PROBE, 1],
                                  ids=["shared", "dropped"])


@_PROBES
@_SETTINGS
@given(data=st.data())
def test_load_records_decodes_as_each_line_alone(db, pool, tmp_path,
                                                 monkeypatch, probe, data):
    monkeypatch.setattr(SharedDecoder, "PROBE", probe)
    lines = []
    for n, (config, report, separators) in enumerate(data.draw(_lines(pool))):
        lines.append(json.dumps(
            {"domain": f"x{n}.test", "eligibility": "GRADED",
             "asn": {"number": 64500 + n % 3, "name": "AS"},
             "configuration": config, "grade_report": report},
            separators=separators))
    _assert_loads_as_fresh(tmp_path, lines, check_sharing=probe > 1)


def _fresh_grades(db, lines: list[str]):
    """``grade --in`` output lines and stderr lines, decoding each line
    alone."""
    out, err = [], []
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = check_fields(json.loads(line), cli._LABELED_FIELDS)
            config = Configuration.from_json(obj["configuration"])
        except (ValueError, KeyError, TypeError) as exc:
            err.append(f"line {lineno}: invalid record: {exc}")
            continue
        out.append(json.dumps({"grade_report": grade(config, db).to_json(),
                               "label": obj["label"]}))
    return out, err


@_PROBES
@_SETTINGS
@given(data=st.data())
def test_grade_in_grades_as_each_line_alone(db, pool, tmp_path, capsys,
                                            monkeypatch, probe, data):
    monkeypatch.setattr(SharedDecoder, "PROBE", probe)
    lines = [json.dumps({"label": f"c{n}", "configuration": config},
                        separators=separators)
             for n, (config, _report, separators)
             in enumerate(data.draw(_lines(pool)))]
    infile, outfile = tmp_path / "configs.jsonl", tmp_path / "grades.jsonl"
    infile.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want_out, want_err = _fresh_grades(db, lines)
    capsys.readouterr()
    code = cli.main(["grade", "--in", str(infile), "--out", str(outfile)])
    assert code == (cli.EXIT_INPUT if want_err else cli.EXIT_OK)
    assert capsys.readouterr().err.splitlines() == want_err
    assert outfile.read_text(encoding="utf-8").splitlines() == want_out


@pytest.mark.parametrize("field, value, message", [
    ("server_preference", 1, "server_preference must be a bool, not 1"),
    ("dh_prime_bits", 1024.0,
     "dh_prime_bits must be an integer or null, not 1024.0"),
])
def test_a_wrongly_typed_repeat_fails_on_its_own_line(db, pool, tmp_path,
                                                      capsys, field, value,
                                                      message):
    """Equal to the line before under ``==``, but of another JSON type."""
    config, report = pool[0]
    bad = dict(config, **{field: value})
    assert bad == config
    record = {"domain": "a.test", "eligibility": "GRADED",
              "configuration": config, "grade_report": report}
    lines = [record, record, dict(record, configuration=bad)]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines))
    with pytest.raises(PipelineError) as err:
        pipeline.load_records(path)
    assert str(err.value) == f"{path}:3: bad record: {message}"

    infile = tmp_path / "configs.jsonl"
    infile.write_text("".join(json.dumps({"label": "c", "configuration": c})
                              + "\n" for c in (config, bad, config, bad)))
    capsys.readouterr()
    assert cli.main(["grade", "--in", str(infile), "--out",
                     str(tmp_path / "out.jsonl")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [
        f"line {n}: invalid record: {message}" for n in (2, 4)]


def test_load_records_memory_per_record(db, tmp_path):
    """4,000 records backed by 8 distinct configurations hold one
    configuration and grade report object per distinct value: a loaded
    record takes at most 1,600 bytes (about 1,300 measured). Decoding each
    record's own copy took about 5,400."""
    rng = random.Random(3)
    configs = [random_configuration(rng, db) for _ in range(8)]
    reports = [grade(c, db) for c in configs]
    count = 4_000
    path = tmp_path / "records.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(count):
            k = rng.randrange(len(configs))
            fh.write(json.dumps(ScanRecord(
                domain=f"site{n}.example.com", rank=n + 1, address="192.0.2.1",
                eligibility=Eligibility.GRADED,
                started_at="2020-01-01T00:00:00+00:00",
                finished_at="2020-01-01T00:00:01+00:00",
                server_software={"name": "nginx", "version": "1.18.0"},
                os_hint="ubuntu", asn={"number": 64500 + n % 50, "name": "AS"},
                configuration=configs[k], grade_report=reports[k],
                trace_ref=None).to_json()) + "\n")
    tracemalloc.start()
    try:
        records = pipeline.load_records(path)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(records) == count
    assert size <= 1_600 * count, f"{size / count:.0f} B per record"


def test_shared_decoder_drops_its_memo_when_values_rarely_repeat():
    """Past ``PROBE`` values, a memo holding more values than it has
    answered calls is dropped; later values are decoded on their own."""
    probe = SharedDecoder.PROBE
    decoded = []
    shared = SharedDecoder(lambda obj: decoded.append(obj) or dict(obj))
    first = [shared({"n": n}) for n in range(probe)]
    assert shared({"n": 0}) is first[0]
    assert len(shared.memo) == probe and len(decoded) == probe
    shared({"n": probe})
    assert shared.memo is None
    again = shared({"n": 0})
    assert again == first[0] and again is not first[0]
    assert len(decoded) == probe + 2


def test_shared_decoder_keeps_its_memo_while_values_repeat():
    """Each value called three times: two of every three calls are answered
    from the memo, so it keeps every value, well past ``PROBE``."""
    shared = SharedDecoder(dict)
    count = 3 * SharedDecoder.PROBE
    for n in range(count):
        first = shared({"n": n})
        assert shared({"n": n}) is first and shared({"n": n}) is first
    assert len(shared.memo) == count


def test_load_records_memory_per_record_without_repeats(db, tmp_path,
                                                        monkeypatch):
    """2,000 records, each with its own configuration: once the memo of
    configurations is dropped, its keys are freed, and the load peaks at
    about 4,800 bytes a record under ``tracemalloc`` (grade reports still
    repeat, and are shared). Keeping a key per configuration until the load
    returned peaked at about 5,700, and decoding each record's own copy of
    both objects at about 5,500. ``PROBE`` is lowered so that the memo is
    dropped early in a small file."""
    monkeypatch.setattr(SharedDecoder, "PROBE", 512)
    rng = random.Random(3)
    count = 2_000
    path = tmp_path / "records.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(count):
            config = random_configuration(rng, db)
            fh.write(json.dumps(ScanRecord(
                domain=f"site{n}.example.com", rank=n + 1, address="192.0.2.1",
                eligibility=Eligibility.GRADED,
                started_at="2020-01-01T00:00:00+00:00",
                finished_at="2020-01-01T00:00:01+00:00",
                server_software={"name": "nginx", "version": "1.18.0"},
                os_hint="ubuntu", asn={"number": 64500 + n % 50, "name": "AS"},
                configuration=config, grade_report=grade(config, db),
                trace_ref=None).to_json()) + "\n")
    tracemalloc.start()
    try:
        records = pipeline.load_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({repr(r.configuration) for r in records}) > 0.99 * count
    assert peak <= 5_200 * count, f"{peak / count:.0f} B per record"
