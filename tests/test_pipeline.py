import ast
import csv
import inspect
import ipaddress
import json
import logging
import random
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from helpers import LoopbackPeer

from tlsaudit import fixtures, pipeline, wire
from tlsaudit.grading import grade
from tlsaudit.orchestrator import ProbeTrace, SiteProber
from tlsaudit.pipeline import (ScanOptions, Target, annotate_asn,
                               load_asn_table, load_targets, parse_prefix,
                               parse_server_header, run_scan)
from tlsaudit.records import (Eligibility, PipelineError, ScanRecord,
                              split_target)
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


_HOSTNAMES = st.from_regex(
    r"[a-z0-9]([a-z0-9-]{0,12}[a-z0-9])?(\.[a-z0-9]([a-z0-9-]{0,12}[a-z0-9])?){0,3}",
    fullmatch=True)


@settings(max_examples=300, deadline=None)
@given(host=st.one_of(st.ip_addresses(v=4).map(str),
                      st.ip_addresses(v=6).map(str), _HOSTNAMES),
       port=st.integers(0, 65535))
def test_split_target_reads_back_a_formatted_address(host, port):
    target = f"[{host}]:{port}" if ":" in host else f"{host}:{port}"
    assert split_target(target) == (host, port)


@pytest.mark.parametrize("target, address", [
    ("::1", ("::1", 443)),
    ("[::1]", ("::1", 443)),
    ("[::1]:8443", ("::1", 8443)),
    ("2001:db8::1", ("2001:db8::1", 443)),
    ("2001:db8::8443", ("2001:db8::8443", 443)),
    ("[2001:db8::1]", ("2001:db8::1", 443)),
    ("localhost:https", ("localhost:https", 443)),
    ("localhost:", ("localhost:", 443)),
    ("[::1]:https", ("[::1]:https", 443)),
    ("[::1", ("[::1", 443)),
])
def test_split_target_forms_without_a_numeric_port(target, address):
    assert split_target(target) == address


def _scan_one_alerting_listener(db, policy, bind, target):
    """Scan ``target`` (``{port}`` filled in) against a listener on ``bind``
    that answers the ClientHello with a handshake_failure alert; return the
    record and that ClientHello."""
    with LoopbackPeer(wire.read_record,
                      wire.alert(wire.AlertDescription.HANDSHAKE_FAILURE),
                      host=bind) as peer:
        record = pipeline.scan_one(SiteProber(db, policy), db,
                                   Target(1, target.format(port=peer.address[1])),
                                   bind, ScanOptions())
    _ctype, _version, payload = peer.received[0]
    (_type, body), *_ = wire.iter_handshake_messages(payload)
    return record, wire.ClientHello.parse(body)


def test_scan_reaches_an_ipv6_loopback_listener(db, fast_policy):
    """A bracketed IPv6 target gets past DNS to a socket: a listener on
    ``::1`` that answers the ClientHello with a handshake_failure alert
    excludes the site for that alert. An IP literal is sent as no
    server_name (RFC 6066)."""
    record, hello = _scan_one_alerting_listener(
        db, fast_policy, "::1", "[::1]:{port}")
    assert record.eligibility is Eligibility.EXCLUDED
    assert (record.exclusion_reason, record.address) == ("TLS_ALERT", "::1")
    assert wire.ExtType.SERVER_NAME not in hello.extensions


def test_scan_sends_a_host_name_as_server_name(db, fast_policy):
    record, hello = _scan_one_alerting_listener(
        db, fast_policy, "127.0.0.1", "localhost:{port}")
    assert (record.exclusion_reason, record.address) == ("TLS_ALERT", "127.0.0.1")
    # server_name_list, one host_name entry: type 0, then its length and name
    assert hello.extensions[wire.ExtType.SERVER_NAME] == (
        b"\x00\x0c\x00\x00\x09localhost")


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
    rows = [(ipaddress.ip_network(prefix), int(asn), name)
            for prefix, asn, name in list(csv.reader(ASN_CSV.splitlines()))[1:]]
    for address in ("10.0.0.1", "10.1.0.1", "10.1.255.255", "192.0.2.200",
                    "172.16.0.1", "10.255.0.1"):
        got = annotate_asn(address, table)
        ip = ipaddress.ip_address(address)
        candidates = [(net.prefixlen, asn, name) for net, asn, name in rows
                      if ip in net]
        if not candidates:
            assert got is None
        else:
            _plen, asn, name = max(candidates)
            assert got == {"number": asn, "name": name}


def test_asn_out_of_range_is_a_malformed_row(tmp_path, caplog):
    path = tmp_path / "asn.csv"
    path.write_text("prefix,asn,as_name\n"
                    "10.0.0.0/8,4294967296,TooBig\n"
                    "10.1.0.0/16,-1,Negative\n"
                    "10.2.0.0/16,4294967295,Largest\n"
                    "10.3.0.0/16,0,Zero\n")
    with caplog.at_level(logging.WARNING):
        table = load_asn_table(path)
    assert "asn table line 2: asn 4294967296 outside 0..4294967295" in caplog.text
    assert "asn table line 3: asn -1 outside 0..4294967295" in caplog.text
    assert annotate_asn("10.0.0.1", table) is None
    assert annotate_asn("10.1.0.1", table) is None
    assert annotate_asn("10.2.0.1", table) == {"number": 4294967295,
                                               "name": "Largest"}
    assert annotate_asn("10.3.0.1", table) == {"number": 0, "name": "Zero"}


def test_asn_names_round_trip(tmp_path):
    names = ["Caf\u00e9Net", "\u4e2d\u56fd\u7535\u4fe1", "Acme, Inc.",
             'Say "hi", world', "", "\U0001f310 Net"]
    path = tmp_path / "asn.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prefix", "asn", "as_name"])
        for n, name in enumerate(names):
            writer.writerow([f"10.{n}.0.0/16", 64500 + n, name])
            writer.writerow([f"2001:db8:{n}::/48", 64600 + n, name])
    table = load_asn_table(path)
    for n, name in enumerate(names):
        assert annotate_asn(f"10.{n}.1.2", table) == {"number": 64500 + n,
                                                      "name": name}
        assert annotate_asn(f"2001:db8:{n}::9", table) == {"number": 64600 + n,
                                                           "name": name}


def test_asn_table_keeps_earliest_row_and_resolves_every_level():
    table = pipeline.AsnTable([
        (4, 0x0A000000, 8, 64500, "BigNet"),
        (4, 0x0A010000, 16, 64501, "SmallNet"),
        (4, 0x0A000000, 8, 64502, "LaterBigNet"),  # a repeat keeps the first
        (6, 0x20010DB8 << 96, 32, 64503, "V6Net"),
        (6, 0x20010DB8 << 96, 64, 64504, "V6Longer"),
    ])
    assert annotate_asn("10.1.2.3", table) == {"number": 64501, "name": "SmallNet"}
    assert annotate_asn("10.2.0.1", table) == {"number": 64500, "name": "BigNet"}
    assert annotate_asn("2001:db8::1", table) == {"number": 64504,
                                                  "name": "V6Longer"}
    assert annotate_asn("2001:db8:0:1::", table) == {"number": 64503,
                                                     "name": "V6Net"}


def _stores_to_self(node: ast.AST) -> list[int]:
    """Line of each assignment or deletion, in ``node``, whose target is
    ``self`` or reached through it (``self.x``, ``self.x[k]``)."""
    lines = []
    for sub in ast.walk(node):
        if (isinstance(sub, (ast.Attribute, ast.Subscript))
                and isinstance(sub.ctx, (ast.Store, ast.Del))):
            root = sub
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "self":
                lines.append(sub.lineno)
    return lines


def test_asn_table_is_read_only_after_its_constructor():
    """Lookups may run on many threads at once: the table's one public
    method is ``lookup``, and no method but ``__init__`` writes to it."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(pipeline.AsnTable)))
    methods = [node for node in tree.body[0].body
               if isinstance(node, ast.FunctionDef)]
    assert {m.name: _stores_to_self(m) for m in methods
            if m.name != "__init__" and _stores_to_self(m)} == {}
    public = {m.name for m in methods
              if not m.name.startswith("_") or m.name.endswith("__")}
    assert public == {"__init__", "lookup"}


def test_asn_table_memory_per_row(tmp_path):
    """A loaded table holds no Python object per prefix: about 20k rows of
    the benchmark's mix (80% IPv4 /8../24, 20% IPv6 /19../48) take at most
    64 bytes a row."""
    rng = random.Random(11)
    count = 20_000
    path = tmp_path / "asn.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prefix,asn,as_name\n")
        for _ in range(count):
            asn = rng.randint(1, 399_999)
            if rng.random() < 0.8:
                plen = rng.choice((8, 12, 16, 16, 19, 20, 22, 23, 24, 24, 24))
                net = ipaddress.IPv4Network((rng.getrandbits(plen) << 32 - plen,
                                             plen))
            else:
                plen = rng.randint(19, 48)
                net = ipaddress.IPv6Network(
                    (((0b001 << 125) | rng.getrandbits(125))
                     >> 128 - plen << 128 - plen, plen))
            fh.write(f"{net},{asn},AS-{asn}\n")
    tracemalloc.start()
    try:
        table = load_asn_table(path)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 64 * count, f"{size / count:.1f} B per row"


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
        targets = ([Target(n + 1, f"{ep.host}:{ep.port}")
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


def test_scan_one_writes_the_trace_as_one_json_line(db, fast_policy, tmp_path):
    prober = SiteProber(db, fast_policy)
    traces = []
    probe_site = prober.probe_site

    def keeping_probe_site(*args, **kwargs):
        config, trace = probe_site(*args, **kwargs)
        traces.append(trace)
        return config, trace

    prober.probe_site = keeping_probe_site
    with fixtures.spawn(fixtures.bundled_corpus(db, seed=5)[0], db) as ep:
        record = pipeline.scan_one(prober, db, Target(1, f"{ep.host}:{ep.port}"),
                                   ep.host, ScanOptions(trace_dir=str(tmp_path)))
    text = Path(record.trace_ref).read_text(encoding="utf-8")
    assert "\n" not in text
    assert json.loads(text) == traces[0].to_json()


def test_each_target_gets_its_own_trace_file(db, tmp_path):
    """``localhost:8443`` and ``localhost_8443`` once shared one file."""
    class StandIn:
        """Answers each ``probe_site`` with the next trace; dials nothing."""
        def __init__(self):
            self.reasons = iter(["TLS_ALERT", "NO_HTTP"])

        def probe_site(self, address, sni_name=""):
            return None, ProbeTrace(exclusion_reason=next(self.reasons))

    prober, options = StandIn(), ScanOptions(trace_dir=str(tmp_path))
    records = [pipeline.scan_one(prober, db, Target(n, domain), "127.0.0.1",
                                 options)
               for n, domain in enumerate(["localhost:8443", "localhost_8443"])]
    assert records[0].trace_ref != records[1].trace_ref
    for record, reason in zip(records, ["TLS_ALERT", "NO_HTTP"]):
        trace = json.loads(Path(record.trace_ref).read_text(encoding="utf-8"))
        assert (record.exclusion_reason, trace["exclusion_reason"]) == (reason, reason)


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


def test_run_scan_refuses_a_mixed_list_before_touching_disk(db, fast_policy,
                                                            tmp_path):
    """A loopback target ahead of a non-loopback one is refused with it:
    the torn tail of ``out`` is not cut, and neither the trace directory nor
    a missing output directory is made."""
    targets = [Target(1, "127.0.0.1:1"), Target(2, "192.0.2.9:443")]
    traces = tmp_path / "traces"
    options = ScanOptions(allow_non_loopback=False, trace_dir=str(traces))
    out = tmp_path / "scan.jsonl"
    out.write_bytes(b'{"schema_version": 1, "domain": "127.0.0.1:9"}\n'
                    b'{"schema_version": 1, "domain": "127.0.0.1:8", "ra')
    before = out.read_bytes()
    with pytest.raises(pipeline.ScanRefused,
                       match="^192.0.2.9:443 resolves to non-loopback"):
        run_scan(targets, fast_policy, db, out, options)
    assert out.read_bytes() == before
    assert not traces.exists()

    missing = tmp_path / "missing" / "scan.jsonl"
    with pytest.raises(pipeline.ScanRefused):
        run_scan(targets, fast_policy, db, missing, options)
    assert not missing.parent.exists()
    assert not traces.exists()


@pytest.mark.parametrize("allow", [False, True])
def test_run_scan_records_a_domain_listed_twice_once(db, fast_policy, tmp_path,
                                                     allow):
    # a closed loopback port: the site is excluded after its baseline
    targets = [Target(1, "127.0.0.1:1"), Target(2, "127.0.0.1:1")]
    out = tmp_path / "scan.jsonl"
    records = run_scan(targets, fast_policy, db, out,
                       ScanOptions(allow_non_loopback=allow))
    assert [r.domain for r in records] == ["127.0.0.1:1"]
    assert [r.domain for r in pipeline.load_records(out)] == ["127.0.0.1:1"]


_RESOLVE = "resolve 127.0.0.1"


@pytest.mark.parametrize("allow, events", [
    (False, [_RESOLVE] * 3 + ["scan 127.0.0.1:2", "scan 127.0.0.1:3"]),
    (True, [_RESOLVE, "scan 127.0.0.1:2", _RESOLVE, "scan 127.0.0.1:3"]),
])
def test_run_scan_resolves_each_target_once(db, fast_policy, tmp_path,
                                            monkeypatch, allow, events):
    """Gated, every target is resolved before the first is scanned, a
    recorded one too, since the gate checks the whole list. Ungated, a target
    is resolved as the scan reaches it, and a recorded one not at all."""
    seen = []
    resolve, scan_one = pipeline._resolve, pipeline.scan_one

    def resolving(host):
        seen.append(f"resolve {host}")
        return resolve(host)

    def scanning(prober, db, target, *rest):
        seen.append(f"scan {target.domain}")
        return scan_one(prober, db, target, *rest)

    monkeypatch.setattr(pipeline, "_resolve", resolving)
    monkeypatch.setattr(pipeline, "scan_one", scanning)
    out = tmp_path / "scan.jsonl"
    out.write_text('{"domain": "127.0.0.1:1"}\n')
    run_scan([Target(n, f"127.0.0.1:{n}") for n in (1, 2, 3)], fast_policy,
             db, out, ScanOptions(allow_non_loopback=allow))
    assert seen == events
