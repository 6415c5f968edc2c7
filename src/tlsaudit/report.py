"""Corpus-level aggregation: grade distributions, CDFs by group rank,
configuration dominance, and downgrade-reason tables.

All operations are pure folds over an immutable record list; outputs are
deterministic (ties broken lexicographically) so emitted files are stable.
A fold that groups by configuration computes ``config_key`` once per
distinct configuration, in a dict that lives for that one fold.

``hashlib`` is imported inside ``config_key``, not at the top: its
``_hashlib`` maps OpenSSL's libcrypto (about 3.6 MB of resident memory),
and only the ``cdf-config`` and ``dominance`` kinds hash. Every process that
imports this module, ``tlsaudit scan`` among them, would pay for it
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from typing import Iterable, Optional

from .configuration import Configuration
from .grading import Category, Grade, downgrade_table
from .pipeline import (Eligibility, PipelineError, ScanRecord, is_ip_literal,
                       split_target)

GRADE_ORDER = (Grade.A, Grade.B, Grade.C, Grade.F)


def config_key(config: Configuration) -> str:
    """Canonical hash of a Configuration. Identical grading-relevant fields
    give identical keys regardless of serialization order."""
    import hashlib  # maps OpenSSL's libcrypto; only two report kinds hash
    canonical = json.dumps(config.to_json(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _graded(records: Iterable[ScanRecord]) -> list[ScanRecord]:
    return [r for r in records if r.eligibility is Eligibility.GRADED]


def grade_distribution(records: Iterable[ScanRecord]) -> dict:
    records = list(records)
    graded = _graded(records)
    counts = Counter(r.grade_report.overall for r in graded)
    total = len(graded)
    return {
        "counts": {g.value: counts.get(g, 0) for g in GRADE_ORDER},
        "proportions": {g.value: (counts.get(g, 0) / total if total else 0.0)
                        for g in GRADE_ORDER},
        "graded": total,
        "excluded": sum(1 for r in records
                        if r.eligibility is Eligibility.EXCLUDED),
    }


def _config_keys(records: list[ScanRecord]) -> list[str]:
    """``config_key`` of each record's configuration, computed once per
    distinct configuration."""
    keys: dict[Configuration, str] = {}
    out = []
    for r in records:
        key = keys.get(r.configuration)
        if key is None:
            key = keys[r.configuration] = config_key(r.configuration)
        out.append(key)
    return out


def _groups(graded: list[ScanRecord], group_key: str) -> list[Optional[str]]:
    """Each record's group id under ``group_key``; None for no group."""
    if group_key == "asn":
        return [None if r.asn is None else str(r.asn["number"])
                for r in graded]
    if group_key == "config":
        return _config_keys(graded)
    raise ValueError(f"unknown group key {group_key!r}")


def cdf_by_group_rank(records: Iterable[ScanRecord],
                      group_key: str) -> dict[str, list[tuple[int, float]]]:
    """Per-grade cumulative fraction of sites covered by the top-k groups.

    Groups are ranked by descending total site count (ties by group id);
    each grade's series is monotone and ends at 1.0 when the grade occurs.
    """
    graded = _graded(records)
    grouped = [(r.grade_report.overall, group)
               for r, group in zip(graded, _groups(graded, group_key))
               if group is not None]
    group_totals: Counter = Counter(group for _g, group in grouped)
    ranked = sorted(group_totals, key=lambda g: (-group_totals[g], g))

    per_grade_group: dict[Grade, Counter] = defaultdict(Counter)
    grade_totals: Counter = Counter()
    for g, group in grouped:
        per_grade_group[g][group] += 1
        grade_totals[g] += 1

    series: dict[str, list[tuple[int, float]]] = {}
    for grade in GRADE_ORDER:
        if not grade_totals[grade]:
            series[grade.value] = []
            continue
        points = []
        running = 0
        for k, group in enumerate(ranked, start=1):
            running += per_grade_group[grade].get(group, 0)
            points.append((k, running / grade_totals[grade]))
        series[grade.value] = points
    return series


def dominance(records: Iterable[ScanRecord]) -> dict:
    """Per-configuration site counts and the five most dominant
    configurations within each AS."""
    graded = _graded(records)
    keyed = list(zip(graded, _config_keys(graded)))
    config_counts: Counter = Counter(key for _r, key in keyed)
    ordered = sorted(config_counts.items(), key=lambda kv: (-kv[1], kv[0]))

    per_as: dict[str, Counter] = defaultdict(Counter)
    as_names: dict[str, str] = {}
    for r, key in keyed:
        if r.asn is None:
            continue
        asn = str(r.asn["number"])
        per_as[asn][key] += 1
        as_names.setdefault(asn, r.asn.get("name", ""))

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


def per_record_rows(records: Iterable[ScanRecord]) -> list[dict]:
    """Tidy per-record rows (grade, server, tld, rank) for external
    statistics tooling."""
    rows = []
    for r in _graded(records):
        rows.append({
            "domain": r.domain,
            "rank": r.rank,
            "grade": r.grade_report.overall.value,
            "server": (r.server_software or {}).get("name"),
            "os_hint": r.os_hint,
            "asn": (r.asn or {}).get("number"),
            "tld": _tld(r.domain),
        })
    return rows


def downgrades(records: Iterable[ScanRecord]) -> dict:
    reports = [r.grade_report for r in _graded(records)]
    table = downgrade_table(reports)
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


def _records_rows(rows: list[dict]):
    columns = ("domain", "rank", "grade", "server", "os_hint", "asn", "tld")
    yield columns
    for row in rows:
        yield [row[k] for k in columns]  # csv writes None as ""


# report kind -> (builder over the record list, CSV rows of a built report,
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
    builder, _ = kind(which)
    return builder(list(records))


def emit(which: str, data, fmt: str, out_path) -> None:
    """Write a built report as UTF-8 CSV or JSON with LF line endings."""
    if fmt == "json":
        text = json.dumps(data) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(kind(which)[1](data))
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
