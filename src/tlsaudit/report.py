"""Corpus-level aggregation: grade distributions, CDFs by group rank,
configuration dominance, and downgrade-reason tables.

Each report is one fold over a stream of records: it reads any iterable
once and keeps only per-grade, per-AS and per-configuration counters, so its
memory grows with the number of distinct groups, not of records. The
``records`` kind keeps nothing: its rows are made as the records pass, and
``emit`` writes each as it comes, to a handle from ``records.open_output``
that replaces the file only once the report is whole. Outputs are
deterministic (ties broken lexicographically) so emitted files are stable.
A fold that groups by configuration computes ``config_key`` once per
distinct configuration, in a ``registry.SharedDecoder`` keyed by the
configuration itself for that one fold, whose memo is dropped once
configurations rarely repeat.

``config_key`` takes its SHA-256 from the interpreter's built-in module
(``_sha2``, ``_sha256`` before Python 3.12), as ``random`` does for SHA-512:
``hashlib`` would map OpenSSL's libcrypto, about 3.6 MB of resident memory,
for the same digest.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from collections.abc import Iterator
from typing import Callable, Iterable, Optional

from .configuration import Configuration
from .grading import Category, Grade, downgrade_table
from .records import (Eligibility, PipelineError, ScanRecord, is_ip_literal,
                      split_target)
from .registry import SharedDecoder

try:
    from _sha2 import sha256
except ImportError:  # Python 3.10 and 3.11
    from _sha256 import sha256

GRADE_ORDER = (Grade.A, Grade.B, Grade.C, Grade.F)


def config_key(config: Configuration) -> str:
    """Canonical hash of a Configuration. Identical grading-relevant fields
    give identical keys regardless of serialization order."""
    canonical = json.dumps(config.to_json(), sort_keys=True,
                           separators=(",", ":"))
    return sha256(canonical.encode("utf-8")).hexdigest()


def _graded(records: Iterable[ScanRecord]) -> Iterator[ScanRecord]:
    return (r for r in records if r.eligibility is Eligibility.GRADED)


def grade_distribution(records: Iterable[ScanRecord]) -> dict:
    counts: Counter = Counter()
    excluded = 0
    for r in records:
        if r.eligibility is Eligibility.GRADED:
            counts[r.grade_report.overall] += 1
        else:
            excluded += 1
    total = sum(counts.values())
    return {
        "counts": {g.value: counts.get(g, 0) for g in GRADE_ORDER},
        "proportions": {g.value: (counts.get(g, 0) / total if total else 0.0)
                        for g in GRADE_ORDER},
        "graded": total,
        "excluded": excluded,
    }


def _config_keyer() -> Callable[[ScanRecord], str]:
    """``config_key`` of a record's configuration, computed once per
    distinct configuration for the one fold that makes this keyer, in a
    ``SharedDecoder`` keyed by the configuration: its memo is dropped once
    configurations rarely repeat."""
    keys = SharedDecoder(config_key)
    return lambda r: keys(r.configuration)


def _asn_of(r: ScanRecord) -> Optional[str]:
    return None if r.asn is None else str(r.asn["number"])


def cdf_by_group_rank(records: Iterable[ScanRecord],
                      group_key: str) -> dict[str, list[tuple[int, float]]]:
    """Per-grade cumulative fraction of sites covered by the top-k groups.

    Groups are ranked by descending total site count (ties by group id);
    each grade's series is monotone and ends at 1.0 when the grade occurs.
    A record with no group (no ASN) is left out.
    """
    if group_key == "asn":
        group_of = _asn_of
    elif group_key == "config":
        group_of = _config_keyer()
    else:
        raise ValueError(f"unknown group key {group_key!r}")
    per_grade_group: dict[Grade, Counter] = defaultdict(Counter)
    for r in _graded(records):
        group = group_of(r)
        if group is not None:
            per_grade_group[r.grade_report.overall][group] += 1

    group_totals: Counter = Counter()
    for counts in per_grade_group.values():
        group_totals.update(counts)
    ranked = sorted(group_totals, key=lambda g: (-group_totals[g], g))

    series: dict[str, list[tuple[int, float]]] = {}
    for grade in GRADE_ORDER:
        counts = per_grade_group.get(grade, Counter())
        total = sum(counts.values())
        if not total:
            series[grade.value] = []
            continue
        points = []
        running = 0
        for k, group in enumerate(ranked, start=1):
            running += counts.get(group, 0)
            points.append((k, running / total))
        series[grade.value] = points
    return series


def dominance(records: Iterable[ScanRecord]) -> dict:
    """Per-configuration site counts and the five most dominant
    configurations within each AS, named as its first record names it."""
    key_of = _config_keyer()
    config_counts: Counter = Counter()
    per_as: dict[str, Counter] = defaultdict(Counter)
    as_names: dict[str, str] = {}
    for r in _graded(records):
        key = key_of(r)
        config_counts[key] += 1
        if r.asn is None:
            continue
        asn = str(r.asn["number"])
        per_as[asn][key] += 1
        as_names.setdefault(asn, r.asn.get("name", ""))

    ordered = sorted(config_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    top5 = {}
    for asn in sorted(per_as, key=lambda a: (-sum(per_as[a].values()), a)):
        rows = sorted(per_as[asn].items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        top5[asn] = {"as_name": as_names[asn], "top": rows}
    return {"config_counts": ordered, "per_as_top5": top5}


def _tld(domain: str) -> Optional[str]:
    """The last label of ``domain``'s host, lowercased, after one trailing
    root dot; None for an IP literal, which has no TLD."""
    host = split_target(domain)[0]
    if is_ip_literal(host):
        return None
    return host.removesuffix(".").rsplit(".", 1)[-1].lower()


def per_record_rows(records: Iterable[ScanRecord]) -> Iterator[dict]:
    """Tidy per-record rows (grade, server, tld, rank) for external
    statistics tooling, one per graded record as it passes."""
    for r in _graded(records):
        yield {
            "domain": r.domain,
            "rank": r.rank,
            "grade": r.grade_report.overall.value,
            "server": (r.server_software or {}).get("name"),
            "os_hint": r.os_hint,
            "asn": (r.asn or {}).get("number"),
            "tld": _tld(r.domain),
        }


def downgrades(records: Iterable[ScanRecord]) -> dict:
    table = downgrade_table(r.grade_report for r in _graded(records))
    return {
        g.value: {c.value: frac for c, frac in row.items()}
        for g, row in table.items()
    }


# -- emission -------------------------------------------------------------------

def _distribution_rows(report: dict):
    yield "grade", "count", "proportion"
    for g in GRADE_ORDER:
        yield (g.value, report["counts"][g.value],
               f"{report['proportions'][g.value]:.9f}")


def _cdf_rows(series: dict):
    yield "k", "grade", "fraction"
    for g in GRADE_ORDER:
        for k, frac in series.get(g.value, []):
            yield k, g.value, f"{frac:.9f}"


def _downgrades_rows(table: dict):
    yield "grade", "category", "proportion"
    for g in GRADE_ORDER:
        row = table.get(g.value, {})
        for c in Category:
            yield g.value, c.value, f"{row.get(c.value, 0.0):.9f}"


def _dominance_rows(report: dict):
    yield "scope", "asn", "as_name", "config_key", "count"
    for key, count in report["config_counts"]:
        yield "global", "", "", key, count
    for asn, info in report["per_as_top5"].items():
        for key, count in info["top"]:
            yield "as_top5", asn, info["as_name"], key, count


def _records_rows(rows: Iterable[dict]):
    columns = ("domain", "rank", "grade", "server", "os_hint", "asn", "tld")
    yield columns
    for row in rows:
        yield [row[k] for k in columns]  # csv writes None as ""


# report kind -> (fold over a record stream, CSV rows of a built report,
# header first)
_KINDS = {
    "dist": (grade_distribution, _distribution_rows),
    "cdf-asn": (lambda records: cdf_by_group_rank(records, "asn"), _cdf_rows),
    "cdf-config": (lambda records: cdf_by_group_rank(records, "config"),
                   _cdf_rows),
    "downgrades": (downgrades, _downgrades_rows),
    "dominance": (dominance, _dominance_rows),
    "records": (per_record_rows, _records_rows),
}


def kind(which: str):
    """The builder and CSV rows of report kind ``which``; an unknown kind is
    a ``PipelineError``."""
    try:
        return _KINDS[which]
    except KeyError:
        raise PipelineError(f"unknown report kind {which!r}") from None


def build(records: Iterable[ScanRecord], which: str):
    """Report ``which`` over ``records``, which it reads once. The
    ``records`` kind is a lazy stream of rows that ``emit`` consumes."""
    builder, _ = kind(which)
    return builder(records)


def _write_json_array(rows: Iterable, fh) -> None:
    """``json.dumps(list(rows))``, written one element at a time."""
    fh.write("[")
    for n, row in enumerate(rows):
        if n:
            fh.write(", ")
        fh.write(json.dumps(row))
    fh.write("]\n")


def emit(which: str, data, fmt: str, fh) -> None:
    """Write a built report to ``fh`` as CSV or JSON with LF line endings. A
    report that is a stream of rows is written as the rows come."""
    _, rows = kind(which)
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    if fmt == "csv":
        csv.writer(fh, lineterminator="\n").writerows(rows(data))
    elif isinstance(data, Iterator):
        _write_json_array(data, fh)
    else:
        fh.write(json.dumps(data) + "\n")
