"""The decode path's fast paths against their references, and a count of
the work a corpus read takes.

``registry.parse_json`` calls the ``json`` decoder's C scanner directly;
a property compares it with ``json.loads`` over any text or bytes.
``registry.check_fields`` checks a ``Fields`` table's plain rows in one loop
and words a fault by going through the rows in order; a sweep and a
property compare it, for every row table in the package, with the
row-order loop alone, kept here as the reference. Last, on the seeded
corpus of ``test_report_stream.py``, ``iter_records`` and ``grade --in``
decode each distinct text once and parse no line whole that is in the
writer's layout: a fallback to the whole-line parse keeps every output
the same, so only a count shows it.
"""

import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_report_stream import corpus_lines, write_corpus
from tlsaudit import (cipherstring, cli, configuration, grading, orchestrator,
                      pipeline, registry)
from tlsaudit import records as records_mod
from tlsaudit.configuration import Configuration
from tlsaudit.grading import GradeReport
from tlsaudit.registry import check_fields, parse_json

# -- parse_json is json.loads ------------------------------------------------

_JSON_SPACE = st.sampled_from(["", " ", "\n", "\t\r ", "\x0b", "\u00a0", "\u3000"])

_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(blacklist_categories=()), max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=3), children,
                                        max_size=3)),
    max_leaves=8)


@st.composite
def _inputs(draw):
    """A JSON text (NaN and Infinity included, lone surrogates raw or
    escaped), twisted: cut short, with extra data, a BOM or a stray
    character, and wrapped in whitespace, JSON's or another; or any text;
    or its bytes in one of the encodings ``json.loads`` detects."""
    text = json.dumps(draw(_VALUES), ensure_ascii=draw(st.booleans()))
    twist = draw(st.sampled_from(("none", "cut", "extra", "bom", "stray",
                                  "any")))
    if twist == "cut":
        text = text[:draw(st.integers(0, len(text)))]
    elif twist == "extra":
        text += draw(st.sampled_from((" 1", "}", "]", ",", "x", "[]", "\x00",
                                      "\ud800")))
    elif twist == "bom":
        text = "\ufeff" + text
    elif twist == "stray":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.characters(blacklist_categories=())) + text[at:]
    elif twist == "any":
        text = draw(st.text(st.characters(blacklist_categories=()),
                            max_size=12))
    text = draw(_JSON_SPACE) + text + draw(_JSON_SPACE)
    encoding = draw(st.sampled_from((None, None, "utf-8", "utf-8-sig",
                                     "utf-16", "utf-16-le", "utf-32-be")))
    if encoding is None:
        return text
    return text.encode(encoding, "surrogatepass")


def _outcome(parse, text):
    """The value's repr (so NaN equals NaN, and -0.0 differs from 0.0), or
    the type and message of the ValueError raised."""
    try:
        return "value", repr(parse(text))
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=600, deadline=None)
@given(text=_inputs())
def test_parse_json_returns_or_raises_as_json_loads(text):
    assert _outcome(parse_json, text) == _outcome(json.loads, text)


@pytest.mark.parametrize("text", [
    '{"a": 1}', ' {"a": 1}', '{"a": 1} \n', '{"a": 1}\x0b', '\ufeff{}', '{} {}',
    '[NaN, Infinity, -Infinity]', '"\\ud800"', '"\ud800"', '', ' ', '{"a" 1}',
    b'{"a": 1}', '{"a": 1}'.encode("utf-16"), b'\xff', 'nul', '[1,]'])
def test_parse_json_returns_or_raises_as_json_loads_on_the_edges(text):
    assert _outcome(parse_json, text) == _outcome(json.loads, text)


# -- check_fields is the row-order loop ----------------------------------------

TABLES = {
    "configuration._FIELDS": configuration._FIELDS,
    "records._RECORD_FIELDS": records_mod._RECORD_FIELDS,
    "records._ASN_FIELDS": records_mod._ASN_FIELDS,
    "records._DOMAIN_FIELDS": records_mod._DOMAIN_FIELDS,
    "grading._REPORT_FIELDS": grading._REPORT_FIELDS,
    "cli._LABELED_FIELDS": cli._LABELED_FIELDS,
    "cipherstring._FIELDS": cipherstring._FIELDS,
    "orchestrator._POLICY_FIELDS": orchestrator._POLICY_FIELDS,
}


def test_every_row_table_is_listed():
    """Each module's ``Fields`` tables are in ``TABLES``."""
    found = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
             for module in (cipherstring, cli, configuration, grading,
                            orchestrator, pipeline, records_mod, registry)
             for name, value in vars(module).items()
             if type(value) is registry.Fields}
    assert found == set(TABLES)


def _reference(obj, rows, where, required):
    """The row-order loop: required names first, then each row in order,
    a ``name[]`` row over the elements of field ``name``."""
    if type(obj) is not dict:
        raise ValueError(f"expected a JSON object, not {type(obj).__name__}")
    for name in required:
        if name not in obj:
            raise ValueError(f"{where}{name} is required")
    for name, types, expected in rows:
        if not name.endswith("[]"):
            if name in obj and type(obj[name]) not in types:
                raise ValueError(
                    f"{where}{name} must be {expected}, not {obj[name]!r}")
            continue
        name = name[:-2]
        items = obj.get(name)
        items = (items.items() if type(items) is dict
                 else enumerate(items) if type(items) is list else ())
        for key, value in items:
            if type(value) not in types:
                raise ValueError(
                    f"{where}{name}[{key!r}] must be {expected}, not {value!r}")
    return obj


def _same_first_fault(obj, table, where=""):
    try:
        _reference(obj, table.rows, where, table.required)
        want = None
    except ValueError as exc:
        want = str(exc)
    try:
        assert check_fields(obj, table, where) is obj
        got = None
    except ValueError as exc:
        got = str(exc)
    assert got == want


# one value of each JSON type, as json.loads gives them
_SAMPLES = {bool: True, int: 7, float: 2.5, str: "x", list: [], dict: {},
            type(None): None}


def _sample(types, element_types=(), elements=2):
    """A value of the first JSON type in ``types``; a list or an object
    holds ``elements`` values of the first type in ``element_types``."""
    kind = next(t for t in _SAMPLES if t in types)
    inner = [_sample(element_types)] * elements if element_types else []
    if kind is list:
        return inner
    if kind is dict:
        return {f"k{n}": value for n, value in enumerate(inner)}
    return _SAMPLES[kind]


def _plain_and_elements(table):
    """Each field name with a plain row or a required one: its types (all
    of them when it has no plain row), and its element types or ()."""
    elements = {name[:-2]: types for name, types, _ in table.rows
                if name.endswith("[]")}
    fields = {name: types for name, types, _ in table.rows
              if not name.endswith("[]")}
    fields.update((name, frozenset(_SAMPLES)) for name in table.required
                  if name not in fields)
    return {name: (types, elements.get(name, ())) for name, types in fields.items()}


def _valid(table) -> dict:
    return {name: _sample(types, element_types)
            for name, (types, element_types) in _plain_and_elements(table).items()}


def _faults(table):
    """Per field: a wrongly typed value, a wrongly typed element, and its
    absence when it is required; those that the table can show."""
    out = []
    for name, (types, element_types) in _plain_and_elements(table).items():
        others = [t for t in _SAMPLES if t not in types]
        if others:
            out.append((name, _SAMPLES[others[0]]))
        if element_types:
            bad = _SAMPLES[next(t for t in _SAMPLES if t not in element_types)]
            kind = next(t for t in _SAMPLES if t in types)
            out.append((name, [bad] if kind is list else {"k0": True, "k1": bad}))
        if name in table.required:
            out.append((name, KeyError))
    return out


@pytest.mark.parametrize("table_name", sorted(TABLES))
def test_check_fields_raises_the_row_order_loops_first_fault(table_name):
    """A valid object; each fault alone; each pair of faults; every fault at
    once; and objects that are not objects."""
    table = TABLES[table_name]
    base = _valid(table)
    _same_first_fault(base, table)
    faults = _faults(table)
    assert faults
    for count in (1, 2, len(faults)):
        for chosen in itertools.combinations(faults, count):
            obj = dict(base)
            for name, value in chosen:
                if value is KeyError:
                    obj.pop(name, None)
                else:
                    obj[name] = value
            _same_first_fault(obj, table, "asn.")
    for other in ([], "x", None, 1, [base]):
        _same_first_fault(other, table)


@st.composite
def _drawn_object(draw, table):
    """Each field absent, well typed or of any JSON type, a list or an
    object holding elements of any type; and an unknown field or none."""
    obj = {}
    json_types = list(_SAMPLES)
    for name, (types, element_types) in _plain_and_elements(table).items():
        how = draw(st.sampled_from(("valid", "valid", "absent", "any")))
        if how == "absent":
            continue
        pool = [t for t in json_types if t in types] if how == "valid" else json_types
        kind = draw(st.sampled_from(pool))
        if kind in (list, dict):
            inner = draw(st.lists(st.sampled_from(
                [t for t in json_types if t in element_types] * 3 + json_types
                if element_types else json_types), max_size=3))
            values = [_SAMPLES[t] for t in inner]
            obj[name] = values if kind is list else {
                f"k{n}": v for n, v in enumerate(values)}
        else:
            obj[name] = _SAMPLES[kind]
    if draw(st.booleans()):
        obj["unknown"] = draw(st.sampled_from(list(_SAMPLES.values())))
    return obj


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_check_fields_agrees_with_the_row_order_loop(data):
    table = TABLES[data.draw(st.sampled_from(sorted(TABLES)))]
    _same_first_fault(data.draw(_drawn_object(table)), table,
                      data.draw(st.sampled_from(("", "asn."))))


@settings(max_examples=300, deadline=None)
@given(value=_VALUES)
def test_shown_is_repr_within_its_depth(value):
    """The value of an error message is written as ``repr`` writes it."""
    assert registry.shown(value) == repr(value)


def test_shown_cuts_what_lies_deeper():
    assert registry.shown([[1, {"a": [2]}], [[]], {}], 2) == \
        "[[1, {...}], [[]], {}]"
    assert registry.shown([[[[0]]]] * 2, 1) == "[[...], [...]]"


# -- the decode work of a corpus, by count -------------------------------------

def test_a_corpus_decodes_each_text_once_and_parses_no_line_whole(
        db, tmp_path, monkeypatch, capsys):
    """On the seeded corpus of ``test_report_stream.py``, ``iter_records``
    runs ``Configuration.from_json`` once per distinct configuration text
    and ``GradeReport.from_json`` once per distinct grade-report text, and
    ``grade --in`` runs the first once per distinct text too, over labeled
    lines and over bare ones. ``parse_json`` gets each text once and no
    whole line that holds a configuration, and it never needs
    ``json.loads``."""
    records = tmp_path / "records.jsonl"
    write_corpus(records, corpus_lines(db, 0x5EED, 240))
    lines = records.read_text(encoding="utf-8").splitlines()
    objs = [json.loads(line) for line in lines]
    shared = {line for line, obj in zip(lines, objs) if obj["configuration"]}
    configs = {json.dumps(obj["configuration"]) for obj in objs
               if obj["configuration"]}
    reports = {json.dumps(obj["grade_report"]) for obj in objs
               if obj["grade_report"]}
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text("".join(
        json.dumps({"label": obj["domain"], "configuration": obj["configuration"]})
        + "\n" for obj in objs if obj["configuration"]), encoding="utf-8")
    bare = tmp_path / "bare.jsonl"
    bare.write_text("".join(json.dumps(obj["configuration"]) + "\n"
                            for obj in objs if obj["configuration"]),
                    encoding="utf-8")
    assert len(shared) == 216 and 1 < len(configs) < len(shared)

    calls = {"config": 0, "report": 0, "loads": 0}
    parsed = []
    config_from_json = Configuration.from_json
    report_from_json = GradeReport.from_json
    loads, parse = json.loads, registry.parse_json

    def count(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(Configuration, "from_json",
                        count("config", config_from_json))
    monkeypatch.setattr(GradeReport, "from_json",
                        count("report", report_from_json))
    monkeypatch.setattr(json, "loads", count("loads", loads))
    monkeypatch.setattr(registry, "parse_json",
                        lambda text: parsed.append(text.strip()) or parse(text))

    assert sum(1 for _ in records_mod.iter_records(records)) == len(lines)
    assert calls == {"config": len(configs), "report": len(reports), "loads": 0}
    assert not set(parsed) & shared
    assert sorted(text for text in parsed if text in configs | reports) == \
        sorted(configs | reports)

    for path in (labeled, bare):
        calls.update(config=0, report=0)
        parsed.clear()
        assert cli.main(["grade", "--in", str(path),
                         "--out", str(tmp_path / "grades.jsonl")]) == 0
        assert calls == {"config": len(configs), "report": 0, "loads": 0}
        # a bare line is a configuration's text, parsed once like the others
        whole = set(path.read_text(encoding="utf-8").splitlines())
        assert not set(parsed) & (whole - configs)
        assert sorted(text for text in parsed
                      if text in configs) == sorted(configs)
    assert capsys.readouterr().err == ""
