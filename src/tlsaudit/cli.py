"""Command-line entry point.

Subcommands: ``scan`` (the only one that opens sockets), ``grade``,
``check-rec``, ``report``, and ``fixtures``. Exit codes: 0 success,
1 input error, 2 policy/ethics refusal, 3 runtime failure. An input file that
cannot be read, is not UTF-8, or holds a malformed line is a
``pipeline.PipelineError``, which ``main`` alone reports: one ``error:`` line,
exit 1 (``grade`` reports each bad line instead, and goes on past it).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import cipherstring, fixtures, pipeline, report as report_mod
from .configuration import Configuration
from .grading import grade
from .orchestrator import ProbePolicy
from .registry import (
    OBJECT, STR, SharedDecoder, check_fields, load_registry, parse_json,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_POLICY = 2
EXIT_RUNTIME = 3

# a ``grade --in`` or ``check-rec --configs`` line: a configuration, or an
# object holding one with a label
_LABELED_FIELDS = (("label", STR, "a string"),
                   ("configuration", OBJECT, "an object"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlsaudit",
        description="HTTPS configuration auditor: probe, grade, and report.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="probe a target list and grade it")
    p_scan.add_argument("--targets", required=True,
                        help="CSV of rank,domain rows")
    p_scan.add_argument("--out", required=True, help="output JSONL path")
    p_scan.add_argument("--policy", help="probe policy JSON file")
    p_scan.add_argument("--asn-table",
                        help="UTF-8 CSV of prefix,asn,as_name rows")
    p_scan.add_argument("--trace-dir", help="directory for per-site traces")
    p_scan.add_argument("--seed", type=int, help="politeness jitter seed")
    p_scan.add_argument("--i-understand-scanning-ethics", action="store_true",
                        dest="ethics",
                        help="required to scan anything outside loopback")

    p_grade = sub.add_parser("grade", help="grade configurations offline")
    p_grade.add_argument("--in", dest="infile", required=True,
                         help="JSONL of Configuration objects")
    p_grade.add_argument("--out", help="output JSONL (default stdout)")

    p_rec = sub.add_parser("check-rec",
                           help="analyze cipher-string recommendations")
    p_rec.add_argument("--recs", required=True,
                       help="JSONL of recommendation objects")
    p_rec.add_argument("--configs",
                       help="JSONL of labeled configurations to check")
    p_rec.add_argument("--defaults", action="store_true",
                       help="grade against the bundled stock defaults")
    p_rec.add_argument("--out", help="output JSONL (default stdout)")

    p_rep = sub.add_parser("report", help="aggregate scan records")
    p_rep.add_argument("--records", required=True, help="scan JSONL")
    p_rep.add_argument("--which", required=True,
                       help="dist | cdf-asn | cdf-config | downgrades | "
                            "dominance | records")
    p_rep.add_argument("--format", default="csv", choices=("csv", "json"))
    p_rep.add_argument("--out", required=True)

    p_fix = sub.add_parser("fixtures",
                           help="write the bundled fixture corpus to disk")
    p_fix.add_argument("--out-dir", required=True)
    p_fix.add_argument("--seed", type=int, default=0)
    return parser


def _write_jsonl(path, objects) -> None:
    """One JSON line per object, to ``path`` or, when it is None, stdout."""
    with (open(path, "w", encoding="utf-8") if path
          else contextlib.nullcontext(sys.stdout)) as out:
        for obj in objects:
            out.write(json.dumps(obj) + "\n")


def cmd_scan(args) -> int:
    db = load_registry()
    targets = pipeline.load_targets(args.targets)
    if not targets:
        raise pipeline.PipelineError("no valid targets")

    policy = ProbePolicy(delay_min_s=0.0, delay_max_s=0.0, seed=args.seed)
    if args.policy:
        policy = pipeline.load_policy(args.policy)
        if args.seed is not None:
            policy = dataclasses.replace(policy, seed=args.seed)

    options = pipeline.ScanOptions(
        allow_non_loopback=args.ethics,
        trace_dir=args.trace_dir,
        asn_table=(pipeline.load_asn_table(args.asn_table)
                   if args.asn_table else None),
    )
    try:
        if not args.ethics:  # refuse the whole list before --out is touched
            pipeline.refuse_outside_loopback(targets)
        pipeline.run_scan(targets, policy, db, args.out, options)
    except pipeline.ScanRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_POLICY
    return EXIT_OK


def cmd_grade(args) -> int:
    db = load_registry()
    errors = 0
    graded = []
    # a corpus repeats a few configurations many times: decode and grade each
    # once
    configurations = SharedDecoder(Configuration.from_json)
    reports: dict[Configuration, dict] = {}
    with pipeline.open_input(args.infile, "configurations") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = check_fields(parse_json(line), _LABELED_FIELDS)
                label = obj.get("label")
                config = configurations(obj.get("configuration", obj))
                result = reports.get(config)
                if result is None:
                    result = reports[config] = grade(config, db).to_json()
            except (ValueError, KeyError, TypeError) as exc:
                print(f"line {lineno}: invalid record: {exc}", file=sys.stderr)
                errors += 1
                continue
            out_obj = {"grade_report": result}
            if label is not None:
                out_obj["label"] = label
            graded.append(out_obj)
    _write_jsonl(args.out, graded)
    return EXIT_INPUT if errors else EXIT_OK


def cmd_check_rec(args) -> int:
    db = load_registry()
    if not args.configs and not args.defaults:
        raise pipeline.PipelineError("need --configs or --defaults")
    profiles = cipherstring.load_all_profiles()

    # label -> configuration; a label names one line
    configs: dict[str, Configuration] = {}
    if args.configs:
        with pipeline.open_input(args.configs, "configs file") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = check_fields(parse_json(line), _LABELED_FIELDS)
                    label = obj.get("label", f"config-{lineno}")
                    if label in configs:
                        raise ValueError(f"label {label!r} is already used")
                    configs[label] = Configuration.from_json(
                        obj.get("configuration", obj))
                except (ValueError, KeyError, TypeError) as exc:
                    raise pipeline.PipelineError(
                        f"bad configs file: line {lineno}: {exc}") from None

    defaults = ([(label, config, cipherstring.load_profile(profile_name))
                 for label, config, profile_name
                 in fixtures.ubuntu_default_configurations(db)]
                if args.defaults else None)

    recs = []
    with pipeline.open_input(args.recs, "recommendations") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                recs.append(cipherstring.Recommendation.from_json(
                    parse_json(line)))
            except ValueError as exc:  # CipherStringError, RecommendationError
                raise pipeline.PipelineError(
                    f"bad recs file: line {lineno}: {exc}") from None

    results = []
    for rec in recs:
        entry: dict = {"recommendation": rec.to_json()}
        if defaults is not None:
            try:
                per_default, summary = cipherstring.grade_recommendation(
                    rec, defaults, db, profiles)
            except cipherstring.RecommendationError as exc:
                entry["error"] = str(exc)
                results.append(entry)
                continue
            entry["grades"] = {
                label: (r if isinstance(r, dict) else r.to_json())
                for label, r in per_default.items()
            }
            entry["best"] = summary["best"].value
            entry["worst"] = summary["worst"].value
        if configs:
            entry["consistent"] = {
                label: cipherstring.consistent(config, rec, db, profiles)
                for label, config in configs.items()
            }
        results.append(entry)

    _write_jsonl(args.out, results)
    return EXIT_OK


def cmd_report(args) -> int:
    report_mod.kind(args.which)  # an unknown kind fails before the long load
    records = pipeline.load_records(args.records)
    data = report_mod.build(records, args.which)
    report_mod.emit(args.which, data, args.format, args.out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    db = load_registry()
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = fixtures.bundled_corpus(db, seed=args.seed)
    for n, spec in enumerate(specs):
        path = out_dir / f"spec-{n:03d}.json"
        path.write_text(json.dumps(spec.to_json()) + "\n", encoding="utf-8")
    with open(out_dir / "ubuntu_defaults.jsonl", "w", encoding="utf-8") as fh:
        for label, config, profile in fixtures.ubuntu_default_configurations(db):
            fh.write(json.dumps({"label": label, "profile": profile,
                                 "configuration": config.to_json()}) + "\n")
    print(f"wrote {len(specs)} fixture specs and the stock defaults "
          f"to {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "scan": cmd_scan,
    "grade": cmd_grade,
    "check-rec": cmd_check_rec,
    "report": cmd_report,
    "fixtures": cmd_fixtures,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except pipeline.PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # pragma: no cover - defensive catch-all
        logger.exception("unhandled failure")
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
