"""Seeded input generators. The same seed always yields the same inputs.

* ``scan_corpus``: the bundled fixture corpus (10 Ubuntu-default rows, 10
  top-AS rows, ``random_count`` seeded random specs), optionally cut to its
  first ``limit`` specs.
* ``asn_rows``: a synthetic ASN table of IPv4 and IPv6 prefixes with a
  nested chain of prefixes covering 127.0.0.1 (plus near-miss decoys), so the
  longest-prefix match is decided only by the most specific entry.
  ``write_asn_csv`` writes it and computes that match by brute force.
* ``analyze_corpus``: scan records whose configurations are drawn from a
  Zipf-skewed pool (heavy sharing, long unique tail) and whose ASNs follow a
  second Zipf law, plus the configuration and recommendation inputs of the
  offline commands.
* ``recommendations``: cipher-string recommendations built from the
  grammar's own keywords with ``!``, ``+`` and ``-`` modifiers, protocol
  sets in ``TLS1.x`` labels, and the other directive fields.

tlsaudit is imported inside the functions, once the caller has put the
checkout's source on the path.
"""
from __future__ import annotations

import ipaddress
import itertools
import random
from dataclasses import dataclass

LOOPBACK = "127.0.0.1"
# Nested prefixes that cover 127.0.0.1, least to most specific, and decoys
# next to them that do not.
_LOOPBACK_CHAIN = ("127.0.0.0/8", "127.0.0.0/16", "127.0.0.0/24", "127.0.0.0/29")
_LOOPBACK_DECOYS = ("127.0.0.8/29", "127.0.1.0/24", "127.1.0.0/16")


@dataclass(frozen=True)
class AsnRow:
    prefix: str
    asn: int
    name: str
    version: int
    network: int
    prefixlen: int


def _row(prefix: str, asn: int) -> AsnRow:
    net = ipaddress.ip_network(prefix)
    return AsnRow(prefix, asn, f"AS-{asn}", net.version,
                  int(net.network_address), net.prefixlen)


def _random_row(rng: random.Random) -> AsnRow:
    asn = rng.randint(1, 399_999)
    if rng.random() < 0.8:
        while True:
            plen = rng.choice((8, 12, 16, 16, 19, 20, 22, 23, 24, 24, 24))
            net = rng.getrandbits(32) >> (32 - plen) << (32 - plen)
            if net >> 24 != 127:
                break
        octets = ".".join(str(net >> shift & 0xFF) for shift in (24, 16, 8, 0))
        return AsnRow(f"{octets}/{plen}", asn, f"AS-{asn}", 4, net, plen)
    plen = rng.randint(19, 48)
    net = ((0b001 << 125) | rng.getrandbits(125)) >> (128 - plen) << (128 - plen)
    groups = ":".join(f"{net >> shift & 0xFFFF:x}" for shift in range(112, -1, -16))
    return AsnRow(f"{groups}/{plen}", asn, f"AS-{asn}", 6, net, plen)


def asn_rows(seed: int, count: int):
    """Yield ``count`` rows: about 80% IPv4 (/8 to /24, never inside 127/8)
    and 20% IPv6 (/19 to /48 in 2000::/3); the loopback chain and decoys sit
    at seeded positions. Rows are made one at a time, so the table is never
    held in memory."""
    rng = random.Random(f"asn-table/{seed}")
    special = [_row(p, rng.randint(64512, 65534))
               for p in _LOOPBACK_CHAIN + _LOOPBACK_DECOYS]
    rng.shuffle(special)
    at = dict(zip(sorted(rng.sample(range(count), len(special))), special))
    for n in range(count):
        yield at[n] if n in at else _random_row(rng)


def write_asn_csv(rows, path, address: str = LOOPBACK):
    """Write ``rows`` as the ``prefix,asn,as_name`` CSV that
    ``load_asn_table`` reads, and return the brute-force longest-prefix match
    of ``address`` over every row, computed on integers: the record's
    ``asn`` field, or None. On equal lengths the earlier row wins."""
    ip = int(ipaddress.IPv4Address(address))
    best = None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("prefix,asn,as_name\n")
        for r in rows:
            fh.write(f"{r.prefix},{r.asn},{r.name}\n")
            if (r.version == 4
                    and ip >> (32 - r.prefixlen) == r.network >> (32 - r.prefixlen)
                    and (best is None or r.prefixlen > best.prefixlen)):
                best = r
    return None if best is None else {"number": best.asn, "name": best.name}


def scan_corpus(db, seed: int, random_count: int, limit=None):
    from tlsaudit import fixtures
    specs = fixtures.bundled_corpus(db, seed=seed, random_count=random_count)
    return specs[:limit] if limit else specs


def _zipf_cum_weights(n: int, s: float) -> list[float]:
    return list(itertools.accumulate(1.0 / (k ** s) for k in range(1, n + 1)))


# -- recommendations ----------------------------------------------------------

_PROTOCOL_LABELS = ("TLS1.0", "TLS1.1", "TLS1.2", "TLS1.3")
_MODIFIERS = ("!", "+", "-")


def _term(rng: random.Random, keywords: list[str]) -> str:
    return "+".join(rng.sample(keywords, rng.choice((1, 1, 1, 2))))


def recommendations(seed: int, count: int) -> list[dict]:
    """Recommendation objects as ``check-rec --recs`` reads them."""
    from tlsaudit.cipherstring import KEYWORDS
    keywords = sorted(KEYWORDS)
    rng = random.Random(f"recommendations/{seed}")
    recs = []
    for n in range(count):
        rest = [_term(rng, keywords) for _ in range(rng.randint(0, 1))]
        rest += [rng.choice(_MODIFIERS) + _term(rng, keywords)
                 for _ in range(rng.randint(1, 5))]
        rng.shuffle(rest)
        terms = [_term(rng, keywords)] + rest
        rec: dict = {"cipher_string": ":".join(terms),
                     "source": {"id": f"rec-{n}"}}
        if rng.random() < 0.7:
            rec["protocols"] = sorted(rng.sample(_PROTOCOL_LABELS,
                                                 rng.randint(1, 3)))
        if rng.random() < 0.5:
            rec["server_preference"] = rng.random() < 0.7
        if rng.random() < 0.4:
            rec["session_tickets"] = rng.random() < 0.5
        if rng.random() < 0.3:
            rec["dh_params_bits"] = rng.choice((1024, 2048, 4096))
        recs.append(rec)
    return recs


# -- the offline (analyze) corpus ---------------------------------------------

@dataclass
class AnalyzeCorpus:
    records: list[dict]          # ScanRecord JSON objects
    grade_inputs: list[dict]     # {"label", "configuration"} for ``grade``
    rec_configs: list[dict]      # {"label", "configuration"} for ``check-rec``
    recs: list[dict]             # recommendation objects


def _configuration_pool(db, rng: random.Random, size: int):
    from tlsaudit import fixtures
    pool = [config for _label, config, _p in fixtures.ubuntu_default_configurations(db)]
    pool += [fixtures.row_configuration(db, row) for row in fixtures.top_as_rows()]
    while len(pool) < size:
        pool.append(fixtures.projection(fixtures.random_spec(rng, db), db))
    pool = pool[:size]
    rng.shuffle(pool)
    return pool


_SERVERS = (({"name": "nginx", "version": "1.18.0"}, "ubuntu"),
            ({"name": "apache", "version": "2.4.41"}, "ubuntu"),
            ({"name": "microsoft-iis", "version": "10.0"}, None),
            (None, None))


def analyze_corpus(db, seed: int, records: int, pool_size: int, asns: int,
                   rec_count: int, rec_config_count: int) -> AnalyzeCorpus:
    from tlsaudit.grading import grade
    from tlsaudit.pipeline import Eligibility, ScanRecord
    rng = random.Random(f"analyze/{seed}")
    pool = _configuration_pool(db, rng, pool_size)
    reports = [grade(config, db) for config in pool]
    config_cw = _zipf_cum_weights(len(pool), 1.1)
    asn_numbers = rng.sample(range(1, 400_000), asns)
    asn_cw = _zipf_cum_weights(asns, 1.3)
    tlds = ("com", "org", "net", "de", "uk", "io")

    out = []
    for n in range(records):
        domain = f"site{n}.example.{rng.choice(tlds)}"
        asn_number = rng.choices(asn_numbers, cum_weights=asn_cw)[0]
        asn = {"number": asn_number, "name": f"AS-{asn_number}"}
        if rng.random() < 0.08:
            record = ScanRecord(domain=domain, rank=n + 1, address="192.0.2.1",
                                eligibility=Eligibility.EXCLUDED, asn=asn,
                                exclusion_reason=rng.choice(("DNS", "NO_HTTP")))
        else:
            k = rng.choices(range(len(pool)), cum_weights=config_cw)[0]
            software, os_hint = rng.choice(_SERVERS)
            record = ScanRecord(domain=domain, rank=n + 1, address="192.0.2.1",
                                eligibility=Eligibility.GRADED, asn=asn,
                                server_software=software, os_hint=os_hint,
                                configuration=pool[k], grade_report=reports[k])
        out.append(record.to_json())

    grade_inputs = [{"label": f"cfg-{n}", "configuration": r["configuration"]}
                    for n, r in enumerate(out) if r["configuration"]]
    picks = rng.sample(range(len(pool)), min(rec_config_count, len(pool)))
    rec_configs = [{"label": f"pool-{k}", "configuration": pool[k].to_json()}
                   for k in picks]
    return AnalyzeCorpus(out, grade_inputs, rec_configs,
                         recommendations(seed, rec_count))
