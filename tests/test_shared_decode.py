"""Each reader decodes a distinct configuration or grade report text once.

``pipeline.load_records`` and ``grade --in`` keep one object per distinct
``configuration`` (and ``grade_report``) JSON text for the length of one
call, found by its text in a line in the writer's layout. The property
tests compare both readers with a fresh decode of each line: equal output,
records of lines in the writer's layout with equal JSON sharing one object,
and a wrongly typed line failing with its own line number even after an
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
from tlsaudit import cli, pipeline, registry
from tlsaudit.configuration import Configuration
from tlsaudit.grading import grade
from tlsaudit.records import Eligibility, PipelineError, ScanRecord
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

# how a line differs from the writer's layout, which ``SharedLayout`` reads
# by text: none; a placeholder's escape in a string; the member's key text
# in a string, in a key (an escaped quote starts it) or nested one level
# down; a second member after the real one, the last holding the member's
# placeholder string; the shared member first; a malformed member; the
# line in a list; the line cut short
_TWISTS = ("writer", "escape", "marker-in-string", "marker-in-key", "nested",
           "second-null", "second-object", "second-placeholder",
           "member-first", "malformed", "listed", "truncated")


@st.composite
def _lines(draw, pool):
    """(configuration JSON, grade report JSON, separators, twist, another
    configuration JSON, cut) per line: pool values repeated, some reordered,
    some wrongly typed, some in the writer's layout and some not."""
    out = []
    for _ in range(draw(st.integers(1, 12))):
        config, report = draw(st.sampled_from(pool))
        variant = draw(st.sampled_from(_VARIANTS))
        config = json.loads(json.dumps(config))
        if variant == "reordered":
            config = _reversed(config)
            report = _reversed(report)
            report["categories"] = _reversed(report["categories"])
        elif variant == "one-for-true":
            config["server_preference"] = int(config["server_preference"])
        elif variant == "float-for-int":
            config["dh_prime_bits"] = float(config["dh_prime_bits"])
        # the writer's layout about half the time, twisted or compact else
        separators = draw(st.sampled_from(((", ", ": "), (", ", ": "),
                                           (",", ":"))))
        twist = draw(st.one_of(st.just("writer"), st.sampled_from(_TWISTS)))
        out.append((config, report, separators, twist,
                    draw(st.sampled_from(pool))[0], draw(st.floats(0, 1))))
    return out


def _line(members: list, name: str, twist: str, other: dict, cut: float,
          separators) -> str:
    """The JSON text of an object of ``members`` (key, value) as
    ``json.dumps`` writes it with ``separators``, with ``twist`` applied
    around the shared member ``name``; the first string member is the one
    a twist of a string changes."""
    item, key = separators
    text = {k: json.dumps(v, separators=separators) for k, v in members}
    order = [k for k, _ in members]
    string = next(k for k, v in members if type(v) is str)
    if twist == "escape":
        text[string] = json.dumps(f"x{chr(cut >= 0.5)}y")
    elif twist == "marker-in-string":
        text[string] = json.dumps(f'"{name}": {{"{name}": {{}}, "trace_ref": ')
    elif twist in ("marker-in-key", "nested"):
        inner = {f'v"{name}': {"a": 1}} if twist == "marker-in-key" else {
            name: other}
        order.insert(0, "note")
        text["note"] = json.dumps(inner, separators=separators)
    elif twist.startswith("second-"):
        order.append(f"{name}-2")
        text[f"{name}-2"] = json.dumps({"second-null": None,
                                        "second-object": other,
                                        "second-placeholder": "\x00"}[twist],
                                       separators=separators)
    elif twist == "member-first":
        order.remove(name)
        order.insert(0, name)
    elif twist == "malformed":
        text[name] = text[name][:-1] + item + "}"
    line = "{" + item.join(f'{json.dumps(k.removesuffix("-2"))}{key}{text[k]}'
                           for k in order) + "}"
    if twist == "listed":
        return f"[{line}]"
    return line[:max(1, int(cut * len(line)))] if twist == "truncated" else line


def _record_line(n: int, config, report, separators, twist, other,
                 cut) -> str:
    """A GRADED record's line: in the writer's layout, with ``trace_ref``
    and ``exclusion_reason`` after the grade report, unless ``twist`` or
    ``separators`` says otherwise."""
    members = [("schema_version", 1), ("domain", f"x{n}.test"),
               ("rank", n + 1), ("address", "192.0.2.1"),
               ("started_at", None), ("finished_at", None),
               ("eligibility", "GRADED"),
               ("server_software", {"name": "nginx", "version": "1.18.0"}),
               ("os_hint", None), ("asn", {"number": 64500 + n % 3,
                                           "name": "AS"}),
               ("configuration", config), ("grade_report", report),
               ("trace_ref", None), ("exclusion_reason", None)]
    if twist == "member-first":
        members.insert(0, members.pop(11))  # the grade report first
        twist = "writer"
    return _line(members, "configuration", twist, other, cut, separators)


def _grade_line(n: int, config, separators, twist, other, cut) -> str:
    """A ``grade --in`` line: ``{"label": .., "configuration": {..}}``,
    unless ``twist`` or ``separators`` says otherwise."""
    return _line([("label", f"c{n}"), ("configuration", config)],
                 "configuration", twist, other, cut, separators)


def _fresh_records(lines: list[str]):
    """What a fresh decode of each line gives: the records, or the first bad
    line's number and message. The reader strips each line of JSON's
    whitespace."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        try:
            records.append(ScanRecord.from_json(json.loads(line.strip(" \t\r\n"))))
        except (ValueError, KeyError, TypeError) as exc:
            return None, (lineno, str(exc))
    return records, None


def _assert_loads_as_fresh(tmp_path, lines: list[str],
                           writer: list[bool]) -> None:
    """``load_records`` reads ``lines`` as a fresh decode of each does, and
    the records of the lines flagged in ``writer`` share one object per
    distinct configuration and grade report."""
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
    objs = [json.loads(line) for line in lines]
    for field in ("configuration", "grade_report"):
        first = {}
        for obj, record, shares in zip(objs, got, writer):
            value = getattr(record, field)
            if shares:
                assert first.setdefault(repr(obj[field]), value) is value, field


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
    drawn = data.draw(_lines(pool))
    lines = [_record_line(n, *line) for n, line in enumerate(drawn)]
    # records share objects only while the memo lasts, and only those of
    # lines in the writer's layout, whose members are found by their text
    writer = [probe > 1 and separators == (", ", ": ") and twist == "writer"
              for _, _, separators, twist, _, _ in drawn]
    _assert_loads_as_fresh(tmp_path, lines, writer)


def _fresh_grades(db, lines: list[str]):
    """``grade --in`` output lines and stderr lines, decoding each line
    alone, as read from the file with its newline."""
    out, err = [], []
    for lineno, line in enumerate(lines, start=1):
        try:
            obj = check_fields(json.loads(line + "\n"), cli._LABELED_FIELDS)
            config = Configuration.from_json(obj.get("configuration", obj))
        except (ValueError, KeyError, TypeError) as exc:
            err.append(f"line {lineno}: invalid record: {exc}")
            continue
        out_obj = {"grade_report": grade(config, db).to_json()}
        if "label" in obj:
            out_obj["label"] = obj["label"]
        out.append(json.dumps(out_obj))
    return out, err


@_PROBES
@_SETTINGS
@given(data=st.data())
def test_grade_in_grades_as_each_line_alone(db, pool, tmp_path, capsys,
                                            monkeypatch, probe, data):
    monkeypatch.setattr(SharedDecoder, "PROBE", probe)
    lines = [_grade_line(n, config, *rest)
             for n, (config, _report, *rest)
             in enumerate(data.draw(_lines(pool)))]
    infile, outfile = tmp_path / "configs.jsonl", tmp_path / "grades.jsonl"
    infile.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want_out, want_err = _fresh_grades(db, lines)
    capsys.readouterr()
    code = cli.main(["grade", "--in", str(infile), "--out", str(outfile)])
    assert code == (cli.EXIT_INPUT if want_err else cli.EXIT_OK)
    assert capsys.readouterr().err.splitlines() == want_err
    assert outfile.read_text(encoding="utf-8").splitlines() == want_out


def test_grade_in_reads_a_bare_line_as_a_fresh_decode_does(db, pool,
                                                           tmp_path, capsys):
    """A bare line is looked up by its text, but only one that a fresh
    decode reads as a bare configuration gives that configuration's report:
    one with a label keeps it, one whose escaped ``configuration`` key holds
    another configuration grades that one, and one with a form feed before
    it, which ``str.strip`` would take off, is still an error."""
    (config, _), (other, _) = pool[0], pool[1]
    text = json.dumps(config)
    lines = [text, text, json.dumps(dict(config, label="x")), "  " + text,
             '{"\\u0063onfiguration": ' + json.dumps(other) + ", " + text[1:],
             "\x0c" + text, json.dumps(dict(config, server_preference=1)),
             f"[{text}]", text]
    infile, outfile = tmp_path / "configs.jsonl", tmp_path / "grades.jsonl"
    infile.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    want_out, want_err = _fresh_grades(db, lines)
    assert len(want_out) == 6 and len(want_err) == 3
    capsys.readouterr()
    assert cli.main(["grade", "--in", str(infile), "--out",
                     str(outfile)]) == cli.EXIT_INPUT
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


def test_shared_decoder_tells_types_apart():
    """``{"x": true}`` and ``{"x": 1}`` parse to equal values but are
    decoded one by one; the same text, in another string object, is decoded
    once."""
    decoded = []
    shared = SharedDecoder(lambda text: decoded.append(text) or json.loads(text))
    true = shared('{"x": true}')
    one = shared('{"x": 1}')
    assert true == one and true is not one
    assert [type(json.loads(text)["x"]) for text in decoded] == [bool, int]
    again = shared(json.dumps({"x": True}))
    assert again is true and len(decoded) == 2


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
    """Past ``PROBE`` keys, a memo holding more keys than it has answered
    calls is dropped; later keys are decoded on their own."""
    probe = SharedDecoder.PROBE
    decoded = []
    shared = SharedDecoder(lambda text: decoded.append(text) or json.loads(text))
    first = [shared(json.dumps({"n": n})) for n in range(probe)]
    assert shared(json.dumps({"n": 0})) is first[0]
    assert len(shared.memo) == probe and len(decoded) == probe
    shared(json.dumps({"n": probe}))
    assert shared.memo is None
    again = shared(json.dumps({"n": 0}))
    assert again == first[0] and again is not first[0]
    assert len(decoded) == probe + 2


def test_shared_decoder_keeps_its_memo_while_values_repeat():
    """Each key called three times: two of every three calls are answered
    from the memo, so it keeps every key, well past ``PROBE``."""
    shared = SharedDecoder(json.loads)
    count = 3 * SharedDecoder.PROBE
    for n in range(count):
        first = shared(json.dumps({"n": n}))
        assert shared(json.dumps({"n": n})) is first
        assert shared(json.dumps({"n": n})) is first
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


def test_each_text_is_decoded_once_and_no_line_is_parsed_whole(
        db, tmp_path, monkeypatch, capsys):
    """On a seeded 1,000-record corpus in the writer's layout, both readers
    run ``Configuration.from_json`` once per distinct configuration text,
    and ``parse_json`` never receives a whole line that holds one: each
    text is parsed alone on its first line, and the rest of every line
    without it."""
    rng = random.Random(17)
    configs = [random_configuration(rng, db) for _ in range(40)]
    reports = [grade(config, db) for config in configs]
    records = []
    for n in range(1_000):
        k = min(int(rng.paretovariate(1.0)) - 1, len(configs) - 1)
        graded = n % 10 != 9
        records.append(json.dumps(ScanRecord(
            domain=f"site{n}.example.com", rank=n + 1, address="192.0.2.1",
            eligibility=Eligibility.GRADED if graded else Eligibility.EXCLUDED,
            asn={"number": 64500 + n % 30, "name": "AS"},
            configuration=configs[k] if graded else None,
            grade_report=reports[k] if graded else None,
            exclusion_reason=None if graded else "DNS").to_json()))
    shared = [line for line in records if '"configuration": {' in line]
    texts = {json.dumps(json.loads(line)["configuration"]) for line in shared}
    labeled = [json.dumps({"label": f"c{n}", "configuration":
                           json.loads(line)["configuration"]})
               for n, line in enumerate(shared)]
    assert 1 < len(texts) < 40 and len(shared) == 900

    decoded, parsed = [], []
    from_json, parse_json = Configuration.from_json, registry.parse_json
    monkeypatch.setattr(Configuration, "from_json",
                        lambda obj: decoded.append(obj) or from_json(obj))
    monkeypatch.setattr(registry, "parse_json",
                        lambda text: parsed.append(text) or parse_json(text))
    for lines, read in (
            (records, lambda path: [r.to_json()
                                    for r in pipeline.load_records(path)]),
            (labeled, lambda path: cli.main(["grade", "--in", str(path),
                                             "--out", str(tmp_path / "o")]))):
        path = tmp_path / "in.jsonl"
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        decoded.clear()
        parsed.clear()
        got = read(path)
        assert got == 0 or got == [json.loads(line) for line in lines]
        assert len(decoded) == len(texts)
        assert sorted(text for text in parsed if text in texts) == sorted(texts)
        whole = {text.strip() for text in parsed}
        assert not whole & set(shared) and not whole & set(labeled)
    assert capsys.readouterr().err == ""


def test_grade_in_memory_per_line_without_repeats(db, tmp_path, monkeypatch):
    """``grade --in`` over 2,000 and 4,000 lines, each with its own
    configuration: once the memo is dropped, its keys, the texts among them,
    are freed, and nothing else keeps a configuration or its report, so the
    peak under ``tracemalloc`` does not grow with the lines (0.6-1.2 MB;
    keeping each configuration's report until the end peaked at 7.8 and
    14.4 MB). ``PROBE`` is lowered so that the memo is dropped early in
    a small file."""
    monkeypatch.setattr(SharedDecoder, "PROBE", 512)
    rng = random.Random(3)
    lines = [json.dumps({"label": f"c{n}", "configuration":
                         random_configuration(rng, db).to_json()}) + "\n"
             for n in range(4_000)]
    peaks = []
    for count in (2_000, 4_000):
        infile = tmp_path / f"configs-{count}.jsonl"
        infile.write_text("".join(lines[:count]), encoding="utf-8")
        tracemalloc.start()
        try:
            code = cli.main(["grade", "--in", str(infile),
                             "--out", str(tmp_path / "grades.jsonl")])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
    assert peaks[1] <= 1.2 * peaks[0], peaks
    assert peaks[1] <= 500 * 4_000, f"{peaks[1] / 4_000:.0f} B per line"
