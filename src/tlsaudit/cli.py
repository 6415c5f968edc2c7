"""Command-line entry point.

Subcommands: ``scan`` (the only one that opens sockets), ``grade``,
``check-rec``, ``report``, and ``fixtures``. The prober and the fixture
server are imported by the commands that use them, so ``grade``, ``report``
and ``check-rec --configs`` load no ``socket``. Exit codes: 0 success,
1 input error, 2 policy/ethics refusal, 3 runtime failure. An input file that
cannot be read, is not UTF-8, or holds a malformed line, or an output file
that cannot be written, is a ``records.PipelineError``, which ``main`` alone
reports: one ``error:`` line, exit 1 (``grade`` reports each bad line
instead, and goes on past it). Every command but ``scan`` opens its output
first, with ``records.open_output``, and writes each line as its input
passes; the file is replaced only once the output is whole.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from . import cipherstring, records, report as report_mod
from .configuration import Configuration
from .grading import grade
from .registry import (
    OBJECT, STR, Fields, SharedLayout, check_fields, load_registry,
    parse_json, text_decoder,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_POLICY = 2
EXIT_RUNTIME = 3


class _ReportText(str):
    """A grade report's JSON text, as ``grade``'s decoder makes it from a
    configuration: a type that no JSON value has, so a string in the line is
    never taken for one."""


# a ``grade --in`` or ``check-rec --configs`` line: a configuration, or an
# object holding one with a label (which ``SharedLayout`` may have decoded
# to its grade report's text)
_LABELED_FIELDS = Fields(("label", STR, "a string"),
                         ("configuration", OBJECT | {_ReportText}, "an object"))


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
    p_scan.add_argument("--i-understand-scanning-ethics", action="store_true",
                        dest="ethics",
                        help="required to scan anything outside loopback")

    p_grade = sub.add_parser("grade", help="grade configurations offline")
    p_grade.add_argument("--in", dest="infile", required=True,
                         help="JSONL of Configuration objects, each bare or "
                              'as {"label": ..., "configuration": ...}')
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


def cmd_scan(args) -> int:
    from . import pipeline
    from .orchestrator import ProbePolicy
    db = load_registry()
    targets = pipeline.load_targets(args.targets)
    if not targets:
        raise records.PipelineError("no valid targets")

    # without a policy file: a policy file's defaults, unpaced when the
    # ethics gate keeps the scan on loopback
    policy = (pipeline.load_policy(args.policy) if args.policy else
              ProbePolicy() if args.ethics else ProbePolicy(delay_max_s=0.0))

    options = pipeline.ScanOptions(
        allow_non_loopback=args.ethics,
        trace_dir=args.trace_dir,
        asn_table=(pipeline.load_asn_table(args.asn_table)
                   if args.asn_table else None),
    )
    try:
        pipeline.run_scan(targets, policy, db, args.out, options)
    except pipeline.ScanRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_POLICY
    return EXIT_OK


def cmd_grade(args) -> int:
    db = load_registry()
    errors = 0

    def report_of(config) -> _ReportText:
        return _ReportText(json.dumps(
            grade(Configuration.from_json(config), db).to_json()))

    def bare_report(config) -> _ReportText:
        if type(config) is not dict or {"label", "configuration"} & config.keys():
            raise ValueError("a labeled line")  # read in full, below
        return report_of(config)

    # a corpus repeats a few configurations many times: find a repeat by its
    # text, a bare line's or a labeled line's member, and decode and grade it
    # once, straight to its report's JSON text
    reports = text_decoder(bare_report)
    parse = SharedLayout((("configuration", reports),))

    def bare(line: str) -> Optional[_ReportText]:
        """A bare configuration's report, found by the line's text."""
        if '"configuration"' not in line:
            try:
                return reports(line.strip(" \t\r\n"))
            except (ValueError, KeyError, TypeError):
                pass
        return None

    with records.open_output(args.out, "grades") as out:
        for lineno, line in records.input_lines(args.infile,
                                                "configurations"):
            try:
                label, report = None, bare(line)
                if report is None:
                    obj = check_fields(parse(line), _LABELED_FIELDS)
                    label = obj.get("label")
                    report = obj.get("configuration", obj)
                    if type(report) is not _ReportText:
                        report = report_of(report)
            except (ValueError, KeyError, TypeError) as exc:
                print(f"line {lineno}: invalid record: {exc}", file=sys.stderr)
                errors += 1
                continue
            # the text of json.dumps({"grade_report": ..., "label": label})
            out.write(f'{{"grade_report": {report}}}\n' if label is None else
                      f'{{"grade_report": {report}, '
                      f'"label": {json.dumps(label)}}}\n')
    return EXIT_INPUT if errors else EXIT_OK


def cmd_check_rec(args) -> int:
    db = load_registry()
    if not args.configs and not args.defaults:
        raise records.PipelineError("need --configs or --defaults")
    profiles = cipherstring.load_all_profiles()
    by_name = {profile.name: profile for profile in profiles}
    defaults = None
    if args.defaults:
        from . import fixtures
        defaults = [(label, config, by_name[profile_name])
                    for label, config, profile_name
                    in fixtures.ubuntu_default_configurations(db)]
    with records.open_output(args.out, "recommendation checks") as out:
        # label -> configuration; a label names one line
        configs: dict[str, Configuration] = {}
        for lineno, line in (records.input_lines(args.configs, "configs file")
                             if args.configs else ()):
            try:
                obj = check_fields(parse_json(line), _LABELED_FIELDS)
                label = obj.get("label", f"config-{lineno}")
                if label in configs:
                    raise ValueError(f"label {label!r} is already used")
                configs[label] = Configuration.from_json(
                    obj.get("configuration", obj))
            except (ValueError, KeyError, TypeError) as exc:
                raise records.PipelineError(
                    f"bad configs file: line {lineno}: {exc}") from None

        for lineno, line in records.input_lines(args.recs, "recommendations"):
            try:
                rec = cipherstring.Recommendation.from_json(parse_json(line))
            except ValueError as exc:  # CipherStringError, RecommendationError
                raise records.PipelineError(
                    f"bad recs file: line {lineno}: {exc}") from None
            entry: dict = {"recommendation": rec.to_json()}
            if defaults is not None:
                try:
                    per_default, summary = cipherstring.grade_recommendation(
                        rec, defaults, db, profiles)
                except cipherstring.RecommendationError as exc:
                    out.write(json.dumps({**entry, "error": str(exc)}) + "\n")
                    continue
                entry.update(grades={
                    label: (r if isinstance(r, dict) else r.to_json())
                    for label, r in per_default.items()
                }, best=summary["best"].value, worst=summary["worst"].value)
            if configs:
                entry["consistent"] = {
                    label: cipherstring.consistent(config, rec, db, profiles)
                    for label, config in configs.items()
                }
            out.write(json.dumps(entry) + "\n")
    return EXIT_OK


def cmd_report(args) -> int:
    with records.open_output(args.out, "report") as out:
        # the stream opens the records file at its first record, so an
        # unknown kind fails before the long read
        data = report_mod.build(records.iter_records(args.records), args.which)
        report_mod.emit(args.which, data, args.format, out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    from . import fixtures
    db = load_registry()
    out_dir = Path(args.out_dir)
    records.make_directory(out_dir, "fixture specs")
    specs = fixtures.bundled_corpus(db, seed=args.seed)
    for n, spec in enumerate(specs):
        with records.open_output(out_dir / f"spec-{n:03d}.json",
                                 "fixture spec") as out:
            out.write(json.dumps(spec.to_json()) + "\n")
    with records.open_output(out_dir / "ubuntu_defaults.jsonl",
                             "stock defaults") as out:
        for label, config, profile in fixtures.ubuntu_default_configurations(db):
            out.write(json.dumps({"label": label, "profile": profile,
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
    except records.PipelineError as exc:
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
