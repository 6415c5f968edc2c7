"""A wrongly typed field in any input file is an input error, never exit 3.

Every JSON input of the CLI goes through one field-type check,
``registry.check_fields``. The tests replace one value of a valid input (a
field, or an element of a list or object in it) with a value of another JSON
type and run the command that reads it: the command must exit 0 or 1, print
one stderr line exactly when it exits 1, and change no input file. One test
tries each other JSON type two levels down; a hypothesis property draws any
value three levels down. The AST guard checks that each decoder of
a CLI input calls ``check_fields`` and makes no type test of its own.
"""

import ast
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlsaudit import cli, fixtures
from tlsaudit.grading import grade
from tlsaudit.records import Eligibility, ScanRecord
from tlsaudit.registry import Version

SRC = Path(__file__).resolve().parent.parent / "src" / "tlsaudit"

_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=4))
# a strategy for each JSON type, as ``json.loads`` gives it
_JSON = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(-2 ** 70, 2 ** 70),
    float: st.floats(),  # NaN and infinities too: json.loads reads them
    str: st.text(max_size=6),
    list: st.lists(_SCALARS, max_size=3),
    dict: st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3),
}

_RECS_ARGV = ["check-rec", "--recs", "{recs}", "--configs", "{configs}",
              "--out", "{report}"]
_SCAN_ARGV = ["scan", "--targets", "{targets}", "--out", "{out}"]
# input -> (argv, the file whose last line is edited)
_CASES = {
    "grade-in": (["grade", "--in", "{in}", "--out", "{report}"], "in"),
    "check-rec-configs": (_RECS_ARGV, "configs"),
    "check-rec-recs": (_RECS_ARGV, "recs"),
    "report-records": (["report", "--records", "{records}", "--which",
                        "{which}", "--out", "{report}"], "records"),
    # the resumable --out already holds the one target, so no scan starts
    "scan-policy": (_SCAN_ARGV + ["--policy", "{policy}"], "policy"),
    "scan-resume": (_SCAN_ARGV, "out"),
}
_WHICH = ("dist", "cdf-asn", "cdf-config", "downgrades", "dominance",
          "records")


def _inputs(db) -> dict[str, list]:
    """Valid JSON lines of each input file, with every optional field set."""
    spec = fixtures.FixtureSpec(
        versions=frozenset({Version.TLS1_2}), suites=(0x0033, 0xC02F),
        session_id_cache=True, tickets=300, ffdhe_prime="modp2048")
    config = fixtures.projection(spec, db)
    record = ScanRecord(
        domain="localhost", rank=1, address="127.0.0.1",
        started_at="2020-01-01T00:00:00+00:00",
        finished_at="2020-01-01T00:00:01+00:00",
        eligibility=Eligibility.GRADED,
        server_software={"name": "nginx", "version": "1.18.0"},
        os_hint="ubuntu", asn={"number": 64500, "name": "AS-TEST"},
        configuration=config, grade_report=grade(config, db),
        trace_ref="localhost.trace.json").to_json()
    labeled = {"label": "a", "configuration": config.to_json()}
    return {
        "in": [labeled, labeled],
        "configs": [labeled, labeled],
        "recs": [{"cipher_string": "HIGH"},
                 {"cipher_string": "ECDHE+AESGCM:!RC4", "protocols": ["TLS1.2"],
                  "server_preference": True, "session_tickets": False,
                  "dh_params_bits": 2048, "source": {"id": "rec-1"}}],
        "records": [record, record],
        "policy": [{"timeout_ms": 2500, "delay_min_ms": 0, "delay_max_ms": 0,
                    "seed": 7}],
        "out": [record],
    }


def _paths(obj, depth: int = 3) -> list[tuple]:
    """The path to each value inside ``obj``, at most ``depth`` levels down."""
    out = []
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        out.append((key,))
        if depth > 1 and isinstance(value, (dict, list)):
            out += [(key, *path) for path in _paths(value, depth - 1)]
    return out


def _edited(obj, path: tuple, value):
    obj = json.loads(json.dumps(obj))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return obj


@pytest.fixture(scope="module")
def inputs(db):
    return _inputs(db)


def _value_at(obj, path: tuple):
    for key in path:
        obj = obj[key]
    return obj


def _check_edit(inputs, tmp_path, capsys, case: str, path: tuple, value,
                which: str = "dominance") -> None:
    """Run ``case``'s command with the value at ``path`` in the last line of
    its input replaced by ``value``: exit 0 or 1, one stderr line exactly on
    exit 1, and no input file changed."""
    argv, edited = _CASES[case]
    lines = inputs[edited]
    files = {name: "".join(json.dumps(obj) + "\n" for obj in objs).encode()
             for name, objs in inputs.items()}
    files[edited] = "".join(
        json.dumps(obj) + "\n"
        for obj in lines[:-1] + [_edited(lines[-1], path, value)]).encode()
    files["targets"] = b"1,localhost\n"
    paths = {name: str(tmp_path / name) for name in files}
    for name, content in files.items():
        Path(paths[name]).write_bytes(content)
    report = tmp_path / "report"
    report.unlink(missing_ok=True)
    paths.update(report=str(report), which=which)
    capsys.readouterr()

    code = cli.main([arg.format_map(paths) for arg in argv])

    assert code in (cli.EXIT_OK, cli.EXIT_INPUT), (path, value)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == (code == cli.EXIT_INPUT), (path, value, err)
    assert {name: Path(paths[name]).read_bytes() for name in files} == files


# one value of each JSON type
_EACH_TYPE = (None, True, 7, float("nan"), "x", [1], {"k": 1})


@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_other_json_type_is_an_input_error(inputs, tmp_path, capsys,
                                                case):
    """Every field, and every element of a list or object field, two levels
    down, replaced by a value of each other JSON type."""
    _, edited = _CASES[case]
    line = inputs[edited][-1]
    for path in _paths(line, depth=2):
        old = _value_at(line, path)
        for value in _EACH_TYPE:
            if type(value) is not type(old):
                _check_edit(inputs, tmp_path, capsys, case, path, value)


@pytest.mark.parametrize("case", sorted(_CASES))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_wrongly_typed_value_is_an_input_error(inputs, tmp_path, capsys,
                                                 case, data):
    """Any value three levels down replaced by any value of another JSON
    type, for any report kind."""
    line = inputs[_CASES[case][1]][-1]
    path = data.draw(st.sampled_from(_paths(line)), label="path")
    kind = data.draw(st.sampled_from(
        [kind for kind in _JSON if kind is not type(_value_at(line, path))]),
        label="kind")
    _check_edit(inputs, tmp_path, capsys, case, path,
                data.draw(_JSON[kind], label="value"),
                which=data.draw(st.sampled_from(_WHICH), label="which"))


# -- every decoder of a CLI input calls the one checker ------------------------

# (module, function) of each decoder of a CLI input file
DECODERS = [
    ("configuration.py", "Configuration.from_json"),
    ("grading.py", "GradeReport.from_json"),
    ("cipherstring.py", "Recommendation.from_json"),
    ("records.py", "ScanRecord.from_json"),
    ("records.py", "recorded_domains"),
    ("orchestrator.py", "ProbePolicy.from_json"),
]


def _functions(tree: ast.Module) -> dict[str, ast.AST]:
    """Module-level functions and class methods, by qualified name."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{item.name}", item) for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return out


def _decoder_faults(source: str, names) -> dict[str, str]:
    """What is wrong with each named decoder in ``source``: not defined, no
    call to ``check_fields``, or a type test (``isinstance``, ``type``) of
    its own."""
    functions = _functions(ast.parse(source))
    faults = {}
    for name in names:
        if name not in functions:
            faults[name] = "not defined"
            continue
        called = {node.func.id for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        if "check_fields" not in called:
            faults[name] = "no check_fields call"
        elif called & {"isinstance", "type"}:
            faults[name] = "own type test"
    return faults


def test_every_input_decoder_calls_check_fields():
    faults = {}
    for module in sorted({module for module, _ in DECODERS}):
        faults.update(_decoder_faults(
            (SRC / module).read_text(encoding="utf-8"),
            [name for m, name in DECODERS if m == module]))
    assert faults == {}


_SAMPLE = '''
def checked(obj):
    return check_fields(obj, _FIELDS)["a"]

class Good:
    @classmethod
    def from_json(cls, obj):
        check_fields(obj, _FIELDS)
        return cls(obj["a"])

class Unchecked:
    @classmethod
    def from_json(cls, obj):
        return cls(obj["a"])

class OwnTest:
    @classmethod
    def from_json(cls, obj):
        check_fields(obj, _FIELDS)
        if not isinstance(obj["a"], str):
            raise ValueError("a must be a string")
        return cls(obj["a"])
'''


def test_decoder_guard_finds_each_fault():
    assert _decoder_faults(_SAMPLE, [
        "checked", "Good.from_json", "Unchecked.from_json",
        "OwnTest.from_json", "Missing.from_json"]) == {
        "Unchecked.from_json": "no check_fields call",
        "OwnTest.from_json": "own type test",
        "Missing.from_json": "not defined"}
