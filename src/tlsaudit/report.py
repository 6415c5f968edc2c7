"""Corpus-level aggregation: grade distributions, CDFs by group rank,
configuration dominance, and downgrade-reason tables.

All operations are pure folds over an immutable record list; outputs are
deterministic (ties broken lexicographically) so emitted files are stable.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from collections import Counter, defaultdict
from typing import Iterable, Optional

from .configuration import Configuration
from .grading import Category, Grade, downgrade_table
from .pipeline import Eligibility, ScanRecord

GRADE_ORDER = (Grade.A, Grade.B, Grade.C, Grade.F)


def config_key(config: Configuration) -> str:
    """Canonical hash of a Configuration. Identical grading-relevant fields
    give identical keys regardless of serialization order."""
    canonical = json.dumps(config.to_json(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _graded(records: Iterable[ScanRecord]) -> list[ScanRecord]:
    return [r for r in records
            if r.eligibility is Eligibility.GRADED and r.grade_report]


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


def _group_of(record: ScanRecord, group_key: str) -> Optional[str]:
    if group_key == "asn":
        if record.asn is None:
            return None
        return str(record.asn["number"])
    if group_key == "config":
        return config_key(record.configuration)
    raise ValueError(f"unknown group key {group_key!r}")


def cdf_by_group_rank(records: Iterable[ScanRecord],
                      group_key: str) -> dict[str, list[tuple[int, float]]]:
    """Per-grade cumulative fraction of sites covered by the top-k groups.

    Groups are ranked by descending total site count (ties by group id);
    each grade's series is monotone and ends at 1.0 when the grade occurs.
    """
    grouped = [(r.grade_report.overall, group) for r in _graded(records)
               if (group := _group_of(r, group_key)) is not None]
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
    keyed = [(r, config_key(r.configuration)) for r in _graded(records)]
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


def per_record_rows(records: Iterable[ScanRecord]) -> list[dict]:
    """Tidy per-record rows (grade, server, tld, rank) for external
    statistics tooling."""
    rows = []
    for r in _graded(records):
        tld = r.domain.rsplit(":", 1)[0].rsplit(".", 1)[-1]
        rows.append({
            "domain": r.domain,
            "rank": r.rank,
            "grade": r.grade_report.overall.value,
            "server": (r.server_software or {}).get("name"),
            "os_hint": r.os_hint,
            "asn": (r.asn or {}).get("number"),
            "tld": tld,
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

def _distribution_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grade", "count", "proportion"])
    for g in GRADE_ORDER:
        writer.writerow([g.value, report["counts"][g.value],
                         f"{report['proportions'][g.value]:.9f}"])
    return buf.getvalue()


def _cdf_csv(series: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "grade", "fraction"])
    for g in GRADE_ORDER:
        for k, frac in series.get(g.value, []):
            writer.writerow([k, g.value, f"{frac:.9f}"])
    return buf.getvalue()


def _downgrades_csv(table: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["grade", "category", "proportion"])
    for g in GRADE_ORDER:
        row = table.get(g.value, {})
        for c in Category:
            writer.writerow([g.value, c.value, f"{row.get(c.value, 0.0):.9f}"])
    return buf.getvalue()


def _dominance_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scope", "asn", "as_name", "config_key", "count"])
    for key, count in report["config_counts"]:
        writer.writerow(["global", "", "", key, count])
    for asn, info in report["per_as_top5"].items():
        for key, count in info["top"]:
            writer.writerow(["as_top5", asn, info["as_name"], key, count])
    return buf.getvalue()


def _records_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    columns = ["domain", "rank", "grade", "server", "os_hint", "asn", "tld"]
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: ("" if row[k] is None else row[k])
                         for k in columns})
    return buf.getvalue()


# report kind -> (builder over the record list, CSV emitter)
_KINDS = {
    "dist": (grade_distribution, _distribution_csv),
    "cdf-asn": (lambda records: cdf_by_group_rank(records, "asn"), _cdf_csv),
    "cdf-config": (lambda records: cdf_by_group_rank(records, "config"),
                   _cdf_csv),
    "downgrades": (downgrades, _downgrades_csv),
    "dominance": (dominance, _dominance_csv),
    "records": (per_record_rows, _records_csv),
}


def _kind(which: str):
    try:
        return _KINDS[which]
    except KeyError:
        raise ValueError(f"unknown report kind {which!r}") from None


def build(records: Iterable[ScanRecord], which: str):
    builder, _ = _kind(which)
    return builder(list(records))


def emit(which: str, data, fmt: str, out_path) -> None:
    """Write a built report as UTF-8 CSV or JSON with LF line endings."""
    if fmt == "json":
        text = json.dumps(data, indent=1, sort_keys=False) + "\n"
    elif fmt == "csv":
        text = _kind(which)[1](data)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
