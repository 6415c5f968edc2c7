"""One text rule for every input file, so that each reader of a file reads
the same lines.

An input file is UTF-8, with a BOM at its start skipped; a JSON-lines input
splits at ``\\n`` alone, skips a line of JSON whitespace (space, tab, CR,
LF) alone, and reads every other line exactly when ``json.loads`` does. A
property writes scan outputs from drawn lines, with blank lines, other
whitespace around records or alone, BOMs, CRLF endings, lone CRs and a torn
tail, and checks that ``report``'s reader (``iter_records``) and a resumed
scan's (``recorded_domains``) agree with each other and with ``json.loads``
line by line. The cases after it pin the same rule for ``grade --in`` and
for the inputs that are not JSON lines: targets, ASN table and policy.
"""

import json
import logging
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_configuration
from tlsaudit import cli, pipeline
from tlsaudit.grading import grade
from tlsaudit.pipeline import Target, run_scan
from tlsaudit.records import (Eligibility, PipelineError, ScanRecord,
                              iter_records, recorded_domains)

BOM = "\ufeff"
_JSON_SPACE = " \t\r\n"
# JSON's whitespace, a lone CR among it, and characters that Python's
# ``str.strip`` or ``bytes.strip`` takes for whitespace but JSON does not
_SPACES = ["", " ", "\t", "\r", " \t\r"]
_OTHER = ["\x0b", "\x0c", "\x1c", "\u00a0", "\u2028", "\u3000", BOM]


@pytest.fixture(scope="module")
def record_text(db):
    """The JSON text of a scan record for domain ``d<n>.test``, as the scan
    writes it: EXCLUDED for an even ``n``, GRADED for an odd one."""
    config = random_configuration(random.Random(40), db)
    report = grade(config, db)

    def text(n: int) -> str:
        if n % 2:
            record = ScanRecord(f"d{n}.test", Eligibility.GRADED, rank=n,
                                configuration=config, grade_report=report)
        else:
            record = ScanRecord(f"d{n}.test", Eligibility.EXCLUDED, rank=n,
                                exclusion_reason="DNS")
        return json.dumps(record.to_json())
    return text


@st.composite
def _scan_outputs(draw, record_text):
    """(BOM or "", complete lines with their endings, torn tail or None):
    records, blank lines and two records split by a lone CR, each with
    whitespace around it, JSON's alone or, in some files, any other too."""
    around = st.sampled_from(_SPACES + (_OTHER if draw(st.booleans()) else []))
    lines = []
    for n in range(draw(st.integers(0, 6))):
        body = draw(st.sampled_from(("record",) * 3 + ("blank", "two")))
        text = {"record": record_text(n), "blank": "",
                "two": record_text(n) + "\r" + record_text(n + 100)}[body]
        lines.append(draw(around) + text + draw(around)
                     + draw(st.sampled_from(("\n", "\r\n"))))
    torn = None
    if draw(st.booleans()):
        text = record_text(draw(st.integers(200, 201)))
        torn = text[:draw(st.integers(1, len(text) - 1))]
    return draw(st.sampled_from(("", BOM))), lines, torn


def _json_loads_lines(text: str, strip: bool):
    """The domains of the complete lines of ``text``, less one BOM at its
    start, as ``json.loads`` reads each line that is not JSON whitespace
    alone, stripped of it or as it is; or, at the first line that it
    refuses, that line's number and message."""
    domains = []
    lines = [line + "\n" for line in text.removeprefix(BOM).split("\n")[:-1]]
    for lineno, line in enumerate(lines, start=1):
        if not line.strip(_JSON_SPACE):
            continue
        try:
            domains.append(json.loads(
                line.strip(_JSON_SPACE) if strip else line)["domain"])
        except ValueError as exc:
            return None, (lineno, str(exc))
    return domains, None


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_report_and_resume_read_a_scan_output_as_json_loads(record_text,
                                                            tmp_path, data):
    """``iter_records`` reads the lines as ``json.loads`` reads each
    stripped of JSON whitespace, and ``recorded_domains`` as it reads each
    whole: the two succeed together, with the same domains, or fail at the
    same line. With a torn tail, ``recorded_domains`` gives the domains of
    the complete lines and cuts the tail, unless a complete line is bad;
    then the file stays as it was."""
    bom, lines, torn = data.draw(_scan_outputs(record_text))
    path = tmp_path / "scan.jsonl"
    path.write_bytes((bom + "".join(lines) + (torn or "")).encode("utf-8"))
    stripped, stripped_bad = _json_loads_lines(bom + "".join(lines), True)
    whole, whole_bad = _json_loads_lines(bom + "".join(lines), False)
    assert (stripped_bad is None) is (whole_bad is None)

    if torn is None:
        if stripped_bad is None:
            assert [r.domain for r in iter_records(path)] == stripped
        else:
            with pytest.raises(PipelineError) as err:
                list(iter_records(path))
            assert str(err.value) == (f"{path}:{stripped_bad[0]}: "
                                      f"bad record: {stripped_bad[1]}")
    before = path.read_bytes()
    if whole_bad is None:
        assert recorded_domains(path) == set(whole)
        assert path.read_bytes() == (bom + "".join(lines)).encode("utf-8")
        assert [r.domain for r in iter_records(path)] == whole
    else:
        with pytest.raises(PipelineError) as err:
            recorded_domains(path)
        assert str(err.value) == (f"{path}:{whole_bad[0]}: "
                                  f"bad record: {whole_bad[1]}")
        assert path.read_bytes() == before
        assert whole_bad[0] == stripped_bad[0]


def test_a_scan_output_with_a_bom_is_resumed_and_reported(record_text,
                                                           tmp_path, db,
                                                           fast_policy):
    # closed loopback ports: each site is excluded after its baseline
    out = tmp_path / "scan.jsonl"
    first = json.dumps(ScanRecord("127.0.0.1:1", Eligibility.EXCLUDED, rank=1,
                                  exclusion_reason="TCP_FAILURE").to_json())
    out.write_bytes(f"{BOM}{first}\n{record_text(1)}\n".encode("utf-8"))
    again = run_scan([Target(1, "127.0.0.1:1"), Target(2, "127.0.0.1:2")],
                     fast_policy, db, out)
    assert [r.domain for r in again] == ["127.0.0.1:2"]
    assert [r.domain for r in pipeline.load_records(out)] == [
        "127.0.0.1:1", "d1.test", "127.0.0.1:2"]
    assert cli.main(["report", "--records", str(out), "--which", "dist",
                     "--out", str(tmp_path / "dist.csv")]) == cli.EXIT_OK


# lines that ``json.loads`` refuses with ``Expecting value``, and that some
# reader once skipped or stripped: a no-break space or a vertical tab
# alone, and a value after a form feed
_REFUSED = [("nbsp", "\u00a0"), ("vt", "\x0b"), ("ff", "\x0c{}")]


@pytest.mark.parametrize("line", [text for _, text in _REFUSED],
                         ids=[name for name, _ in _REFUSED])
def test_a_line_json_refuses_is_an_error_for_every_reader(record_text, db,
                                                          tmp_path, capsys,
                                                          line):
    with pytest.raises(json.JSONDecodeError, match="^Expecting value"):
        json.loads(line.replace("{}", record_text(0)) + "\n")
    records = tmp_path / "scan.jsonl"
    records.write_text(f"{record_text(0)}\n{line.replace('{}', record_text(2))}"
                       "\n", encoding="utf-8")
    with pytest.raises(PipelineError,
                       match=f"^{re.escape(str(records))}:2: bad record: "
                             "Expecting value"):
        recorded_domains(records)
    assert cli.main(["report", "--records", str(records), "--which", "dist",
                     "--out", str(tmp_path / "dist.csv")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: {records}:2: bad record: Expecting value")

    config = json.dumps(random_configuration(random.Random(1), db).to_json())
    configs = tmp_path / "configs.jsonl"
    configs.write_text(f"{config}\n{line.replace('{}', config)}\n",
                       encoding="utf-8")
    assert cli.main(["grade", "--in", str(configs),
                     "--out", str(tmp_path / "grades.jsonl")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        "line 2: invalid record: Expecting value")


# -- the inputs that are not JSON lines -----------------------------------------

@pytest.mark.parametrize("header", ["", "rank,domain\r\n"], ids=["bare", "header"])
def test_a_targets_csv_with_a_bom_keeps_its_first_target(tmp_path, caplog,
                                                         header):
    path = tmp_path / "targets.csv"
    path.write_bytes(f"{BOM}{header}1,a.test\r\n2,b.test\r\n".encode("utf-8"))
    with caplog.at_level(logging.WARNING):
        targets = pipeline.load_targets(path)
    assert targets == [Target(1, "a.test"), Target(2, "b.test")]
    assert caplog.records == []


@pytest.mark.parametrize("header", ["", "prefix,asn,as_name\n"],
                         ids=["bare", "header"])
def test_an_asn_table_with_a_bom_keeps_its_first_prefix(tmp_path, caplog,
                                                        header):
    path = tmp_path / "asn.csv"
    path.write_bytes(f"{BOM}{header}10.0.0.0/8,64500,TenNet\n"
                     "192.0.2.0/24,64501,DocNet\n".encode("utf-8"))
    with caplog.at_level(logging.WARNING):
        table = pipeline.load_asn_table(path)
    assert pipeline.annotate_asn("10.1.2.3", table) == {
        "number": 64500, "name": "TenNet"}
    assert pipeline.annotate_asn("192.0.2.9", table) == {
        "number": 64501, "name": "DocNet"}
    assert caplog.records == []


def test_a_policy_file_with_a_bom_is_read(tmp_path):
    path = tmp_path / "policy.json"
    path.write_bytes(f'{BOM}{{"timeout_ms": 250, "delay_max_ms": 0}}\n'
                     .encode("utf-8"))
    policy = pipeline.load_policy(path)
    assert (policy.timeout_s, policy.delay_max_s) == (0.25, 0.0)
