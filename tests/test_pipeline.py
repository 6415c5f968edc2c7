import ipaddress
import json
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlsaudit import fixtures, pipeline
from tlsaudit.grading import grade
from tlsaudit.pipeline import (Eligibility, PipelineError, ScanOptions,
                               ScanRecord, Target, annotate_asn, load_asn_table,
                               load_targets, parse_prefix, parse_server_header,
                               run_scan)
from tlsaudit.registry import Version


# -- target ingestion ------------------------------------------------------

def test_load_targets_order_and_header(tmp_path):
    path = tmp_path / "targets.csv"
    path.write_text("rank,domain\n1,example.com\n2,example.org\n"
                    "3,example.net\n")
    targets = load_targets(path)
    assert [t.domain for t in targets] == ["example.com", "example.org",
                                           "example.net"]
    assert [t.rank for t in targets] == [1, 2, 3]


def test_load_targets_duplicates_dropped(tmp_path, caplog):
    path = tmp_path / "targets.csv"
    path.write_text("1,dup.com\n2,dup.com\n3,ok.com\n")
    with caplog.at_level(logging.WARNING):
        targets = load_targets(path)
    assert [t.domain for t in targets] == ["dup.com", "ok.com"]
    assert "duplicate" in caplog.text


def test_load_targets_malformed_rows_skipped(tmp_path, caplog):
    path = tmp_path / "targets.csv"
    path.write_text("1,good.com\nnot-a-row\nxyz,bad-rank.com\n,\n2,ok.com\n")
    with caplog.at_level(logging.WARNING):
        targets = load_targets(path)
    assert [t.domain for t in targets] == ["good.com", "ok.com"]
    assert "line 2" in caplog.text
    assert "line 3" in caplog.text


def test_target_host_port_split():
    assert Target(1, "example.com").host_port == ("example.com", 443)
    assert Target(1, "127.0.0.1:8443").host_port == ("127.0.0.1", 8443)


# -- Server header parsing ---------------------------------------------------

def test_parse_server_header_examples():
    assert parse_server_header("nginx/1.14.0 (Ubuntu)") == {
        "name": "nginx", "version": "1.14.0", "os_hint": "ubuntu"}
    assert parse_server_header("") == {
        "name": None, "version": None, "os_hint": None}
    assert parse_server_header("Apache") == {
        "name": "apache", "version": None, "os_hint": None}


def test_parse_server_header_case_and_products():
    assert parse_server_header("Microsoft-IIS/10.0")["name"] == "microsoft-iis"
    assert parse_server_header("CLOUDFLARE")["name"] == "cloudflare"
    assert parse_server_header("LiteSpeed")["name"] == "litespeed"
    assert parse_server_header("Apache/2.4.29 (Ubuntu) OpenSSL/1.1.1") == {
        "name": "apache", "version": "2.4.29", "os_hint": "ubuntu"}
    assert parse_server_header("TotallyCustom/9")["name"] is None


# -- ASN annotation -----------------------------------------------------------

ASN_CSV = """prefix,asn,as_name
10.0.0.0/8,64500,BigNet
10.1.0.0/16,64501,SmallNet
192.0.2.0/24,64502,TestNet
"""


def test_annotate_asn_longest_prefix(tmp_path):
    path = tmp_path / "asn.csv"
    path.write_text(ASN_CSV)
    table = load_asn_table(path)
    assert annotate_asn("10.1.2.3", table) == {"number": 64501,
                                               "name": "SmallNet"}
    assert annotate_asn("10.9.9.9", table) == {"number": 64500,
                                               "name": "BigNet"}
    assert annotate_asn("203.0.113.5", table) is None


def test_annotate_asn_matches_brute_force(tmp_path):
    path = tmp_path / "asn.csv"
    path.write_text(ASN_CSV)
    table = load_asn_table(path)
    for address in ("10.0.0.1", "10.1.0.1", "10.1.255.255", "192.0.2.200",
                    "172.16.0.1", "10.255.0.1"):
        got = annotate_asn(address, table)
        ip = ipaddress.ip_address(address)
        candidates = [(net.prefixlen, asn, name) for net, asn, name in table
                      if ip in net]
        if not candidates:
            assert got is None
        else:
            _plen, asn, name = max(candidates)
            assert got == {"number": asn, "name": name}


_BITS = {4: 32, 6: 128}
_NETWORK = {4: ipaddress.IPv4Network, 6: ipaddress.IPv6Network}
_ADDRESS = {4: ipaddress.IPv4Address, 6: ipaddress.IPv6Address}


@st.composite
def _asn_tables(draw):
    """Rows (version, network, prefix length) cut from a few anchor addresses,
    so prefixes nest and repeat, plus addresses near and away from them."""
    anchors = [(v, a % 2 ** _BITS[v]) for v, a in draw(st.lists(
        st.tuples(st.sampled_from((4, 6)), st.integers(0, 2 ** 128 - 1)),
        min_size=1, max_size=4))]
    rows = []
    for version, anchor in draw(st.lists(st.sampled_from(anchors), max_size=30)):
        bits = _BITS[version]
        plen = draw(st.one_of(st.sampled_from((0, 8, 16, 24, bits - 1, bits)),
                              st.integers(0, bits)))
        rows.append((version, anchor >> (bits - plen) << (bits - plen), plen))
    addresses = []
    for version, anchor in anchors:
        flip = draw(st.integers(0, 2 ** _BITS[version] - 1))
        shift = draw(st.integers(0, _BITS[version]))
        addresses += [(version, anchor), (version, anchor ^ (flip >> shift))]
    addresses += [(v, a % 2 ** _BITS[v]) for v, a in draw(st.lists(
        st.tuples(st.sampled_from((4, 6)), st.integers(0, 2 ** 128 - 1)),
        max_size=4))]
    return rows, addresses


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_asn_tables())
def test_asn_table_matches_brute_force_property(tmp_path, case):
    rows, addresses = case
    path = tmp_path / "asn.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prefix,asn,as_name\n")
        for n, (version, network, plen) in enumerate(rows):
            fh.write(f"{_NETWORK[version]((network, plen))},{64512 + n % 3},row{n}\n")
    table = load_asn_table(path)

    first = {}  # (version, network, plen) -> its earliest row number
    for n, row in enumerate(rows):
        first.setdefault(row, n)
    assert sorted(str(net) for net, _asn, _name in table) == sorted(
        str(_NETWORK[v]((net, plen))) for v, net, plen in first)

    for version, value in addresses:
        best = None  # longest match; the earlier row wins on equal length
        for n, (v, network, plen) in enumerate(rows):
            shift = _BITS[v] - plen
            if (v == version and value >> shift == network >> shift
                    and (best is None or plen > rows[best][2])):
                best = n
        address = str(_ADDRESS[version](value))
        expected = (None if best is None
                    else {"number": 64512 + best % 3, "name": f"row{best}"})
        assert annotate_asn(address, table) == expected


def _prefix_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _reference_prefix(text):
    network = ipaddress.ip_network(text)
    return network.version, int(network.network_address), network.prefixlen


_PREFIX_EXAMPLES = (
    "10.0.0.0/8", "10.0.0.1/8", "010.0.0.0/8", "10.0.0.0/08", "10.0.0.0/008",
    "10.0.0.0/0008", "0.0.0.0/0", "10.0.0.0/32", "10.0.0.0/33",
    "::/0", "::/128", "::/129", "2001:db8::/32", "2001:db8::1/32",
    "2001:0db8:0000::/48", "::ffff:10.0.0.0/104", "fe80::%1/64",
    " 10.0.0.0/8", "10.0.0.0/8 ", "10.0.0.0 /8", "10.0.0.0/+8",
    "10.0.0.0/-8", "10.0.0.0/\u0668", "10.0.0.0/\u00b2", "10.0.0.0/255.0.0.0",
    "10.0.0.0/0.255.255.255", "2001:db8::/ffff::", "10.0.0.1", "::1",
    "10.0.0.0/", "/8", "10.0.0.0//8", "10.0.0.0/8/8", "", "bogus",
    "10.0.0.0\x00/8", "1.2.3/24", "1:2:3:4:5:6:7:8:9/64",
    "10.0.0.0/" + "9" * 5000,  # more digits than int() converts
)


@pytest.mark.parametrize("text", _PREFIX_EXAMPLES,
                         ids=lambda text: ascii(text[:24]))
def test_parse_prefix_matches_ipaddress_examples(text):
    assert (_prefix_outcome(parse_prefix, text)
            == _prefix_outcome(_reference_prefix, text))


@st.composite
def _prefix_texts(draw):
    """Prefix strings near the valid forms: host bits set or cleared,
    out-of-range lengths, zero padding, signs, spaces, masks and noise."""
    version = draw(st.sampled_from((4, 6)))
    bits = _BITS[version]
    plen = draw(st.integers(0, bits + 2))
    value = draw(st.integers(0, 2 ** bits - 1))
    if draw(st.booleans()):
        shift = max(bits - plen, 0)
        value = value >> shift << shift
    address = str(_ADDRESS[version](value))
    length = str(plen)
    edit = draw(st.sampled_from(("none", "pad-length", "pad-octet", "sign",
                                 "space", "netmask", "hostmask", "bare",
                                 "scope", "noise")))
    if edit == "pad-length":
        length = "0" * draw(st.integers(1, 3)) + length
    elif edit == "pad-octet":
        address = "0" + address
    elif edit == "sign":
        length = draw(st.sampled_from("+-")) + length
    elif edit == "space":
        return draw(st.sampled_from((" {}/{}", "{}/{} ", "{} /{}", "{}/ {}"))
                    ).format(address, length)
    elif edit == "netmask":
        mask = (2 ** bits - 1) ^ (2 ** (bits - min(plen, bits)) - 1)
        length = str(_ADDRESS[version](mask))
    elif edit == "hostmask":
        length = str(_ADDRESS[version](2 ** (bits - min(plen, bits)) - 1))
    elif edit == "bare":
        return address
    elif edit == "scope":
        address += "%" + draw(st.sampled_from(("1", "eth0", "")))
    elif edit == "noise":
        return draw(st.text(alphabet="0123456789abcdef:./%+- \u0668\u00b2",
                            max_size=24))
    return f"{address}/{length}"


@settings(max_examples=500, deadline=None)
@given(_prefix_texts())
def test_parse_prefix_matches_ipaddress_property(text):
    assert (_prefix_outcome(parse_prefix, text)
            == _prefix_outcome(_reference_prefix, text))


# -- record invariants --------------------------------------------------------

def test_record_invariants(db, rng):
    from helpers import random_configuration
    config = random_configuration(rng, db)
    with pytest.raises(PipelineError):
        ScanRecord(domain="a.test", eligibility=Eligibility.GRADED,
                   grade_report=grade(config, db))
    with pytest.raises(PipelineError):
        ScanRecord(domain="a.test", eligibility=Eligibility.EXCLUDED,
                   configuration=config)


def test_record_json_round_trip(db, rng):
    from helpers import random_configuration
    config = random_configuration(rng, db)
    record = ScanRecord(
        domain="a.test", rank=3, address="127.0.0.1",
        eligibility=Eligibility.GRADED, configuration=config,
        grade_report=grade(config, db),
        asn={"number": 1, "name": "x"})
    again = ScanRecord.from_json(json.loads(json.dumps(record.to_json())))
    assert again.domain == record.domain
    assert again.configuration.to_json() == config.to_json()
    assert again.grade_report.overall == record.grade_report.overall


def _set_overall(obj, value):
    obj["grade_report"]["overall"] = value


def _set_category(obj, value):
    obj["grade_report"]["categories"][value] = "A"


def _set_category_grade(obj, value):
    obj["grade_report"]["categories"]["protocol"] = value


def _set_reason_grade(obj, value):
    obj["grade_report"]["reasons"][value] = ["protocol"]


def _set_reason_category(obj, value):
    obj["grade_report"]["reasons"]["B"] = [value]


def _set_eligibility(obj, value):
    obj["eligibility"] = value


def _set_version(obj, value):
    obj["configuration"]["versions"] = [value]


@pytest.mark.parametrize("edit, message", [
    (_set_overall, "'Z' is not a valid Grade"),
    (_set_category, "'Z' is not a valid Category"),
    (_set_category_grade, "'Z' is not a valid Grade"),
    (_set_reason_grade, "'Z' is not a valid Grade"),
    (_set_reason_category, "'Z' is not a valid Category"),
    (_set_eligibility, "'Z' is not a valid Eligibility"),
    (_set_version, "unknown protocol version 'Z'"),
])
def test_load_records_names_the_line_of_an_unknown_value(db, rng, tmp_path,
                                                          edit, message):
    from helpers import random_configuration
    config = random_configuration(rng, db)
    good = ScanRecord(domain="a.test", eligibility=Eligibility.GRADED,
                      configuration=config,
                      grade_report=grade(config, db)).to_json()
    bad = json.loads(json.dumps(good))
    edit(bad, "Z")
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(PipelineError) as err:
        pipeline.load_records(path)
    assert f"{path}:2: bad record: {message}" == str(err.value)


# -- scan driver --------------------------------------------------------------

def test_run_scan_over_fixtures(db, fast_policy, tmp_path):
    specs = fixtures.bundled_corpus(db, seed=5)[:3]
    endpoints = [fixtures.spawn(s, db) for s in specs]
    try:
        targets = ([Target(n + 1, ep.target)
                    for n, ep in enumerate(endpoints)]
                   + [Target(4, "no-such-host.invalid")])
        out = tmp_path / "scan.jsonl"
        options = ScanOptions()
        records = run_scan(targets, fast_policy, db, out, options)
    finally:
        for ep in endpoints:
            ep.stop()

    assert len(records) == len(targets)
    for record, spec in zip(records, specs):
        assert record.eligibility is Eligibility.GRADED
        expected = grade(fixtures.projection(spec, db), db)
        assert record.grade_report.overall == expected.overall
    assert records[-1].eligibility is Eligibility.EXCLUDED
    assert records[-1].exclusion_reason == "DNS"

    # every line is self-contained and reloadable
    loaded = pipeline.load_records(out)
    assert len(loaded) == len(targets)

    # rerun with the checkpoint: everything skipped, file unchanged
    again = run_scan(targets, fast_policy, db, out, options)
    assert again == []
    assert len(pipeline.load_records(out)) == len(targets)


def test_run_scan_cuts_torn_tail_and_resumes(db, fast_policy, tmp_path):
    # closed loopback ports: each site is excluded after its baseline
    targets = [Target(1, "127.0.0.1:1"), Target(2, "127.0.0.1:2")]
    out = tmp_path / "scan.jsonl"
    run_scan(targets[:1], fast_policy, db, out)
    with open(out, "a", encoding="utf-8") as fh:  # a crash mid-write
        fh.write('{"schema_version": 1, "domain": "127.0.0.1:2", "ra')
    again = run_scan(targets, fast_policy, db, out)
    assert [r.domain for r in again] == ["127.0.0.1:2"]
    assert [r.domain for r in pipeline.load_records(out)] == [
        "127.0.0.1:1", "127.0.0.1:2"]


def test_scan_refuses_non_loopback_without_flag(db, fast_policy, tmp_path):
    out = tmp_path / "scan.jsonl"
    with pytest.raises(PipelineError):
        run_scan([Target(1, "192.0.2.9:443")], fast_policy, db, out,
                 ScanOptions(allow_non_loopback=False))
    assert not out.exists() or out.read_text() == ""
