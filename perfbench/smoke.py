"""Smoke check of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload at the ``smoke`` scale (two specs, a few hundred
records), untraced and traced, and fails unless:

* each run exits 0 and its last line is a correct result carrying every
  metric ``BENCHMARK.json`` names for that mode, with its unit;
* every end-to-end metric named for the workload is printed with its unit
  and sample count;
* in a traced scan, each site's handshake spans per kind, read from each
  span's own arguments, equal ``ProbeTrace.count`` of that kind (enumerate
  and preference offers look alike, so those two are counted together),
  and zipping the spans with the trace entries finds no disagreement;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from collections import Counter, defaultdict

import checkout

NAMED = {
    "scan": ("scan.sites_per_s", "scan.site_p50_ms", "scan.site_p90_ms"),
    "roundtrip": ("roundtrip.specs_per_s", "roundtrip.spec_p50_ms"),
    "analyze": ("grade.configs_per_s", "report.wall_s", "check_rec.wall_s"),
}
COMMON = ("setup_s", "error_ratio", "peak_rss_mb")
_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+)\s*(.*)$")


def _bench(args, cwd=checkout.ROOT):
    cmd = [sys.executable, "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_runs(spec) -> None:
    for workload in NAMED:
        for trace in (0, 1):
            proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                           "--trace", str(trace), "--scale", "smoke"])
            where = f"{workload} trace {trace}"
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                raise AssertionError(f"{where}: exit {proc.returncode}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            assert sorted(got) == sorted(m["name"] for m in wanted), where
            for m in wanted:
                assert got[m["name"]]["unit"] == m["unit"], (where, m["name"])
                assert isinstance(got[m["name"]]["value"], (int, float)), (where, m["name"])
            printed = {}
            for line in lines:
                match = _LINE.match(line)
                if match:
                    printed[match.group(1)] = match.group(3, 4)
            for name in COMMON + NAMED[workload]:
                assert name in printed, (where, name)
                unit, detail = printed[name]
                assert unit, (where, name)
                assert name == "peak_rss_mb" or "n=" in detail, (where, name)
            print(f"ok   {where}: {len(got)} metrics, {result['attempted']} operations")


def check_kind_counts() -> None:
    checkout.import_tlsaudit()
    import layers
    from spans import Tracer
    from workloads import Scan

    workload = Scan(3, "smoke")
    workload.setup()
    tracer = Tracer(layers.SITE_ROOTS)
    try:
        layers.install(tracer)
        try:
            workload.run(count=workload.trace_ops())
        finally:
            tracer.unwrap_all()
    finally:
        workload.teardown()
    traces = {s.site: s.info for s in tracer.spans
              if s.name == "orchestrator.probe_site"}
    spans_per_kind = defaultdict(Counter)
    for s in tracer.spans:
        if s.name in layers.HANDSHAKE_SPANS:
            spans_per_kind[s.site][s.label] += 1
    assert traces and set(spans_per_kind) == set(traces)
    for site, trace in traces.items():
        want = Counter()
        for kind in layers.KINDS:
            label = (layers.ENUMERATE_OR_PREFERENCE
                     if kind in ("enumerate", "preference") else kind)
            want[label] += trace.count(kind)
        assert spans_per_kind[site] == +want, (site, spans_per_kind[site], want)
    labelled = layers.label_handshakes(tracer.spans)
    total = sum(len(v) for v in labelled.values())
    assert total == sum(t.handshake_count for t in traces.values())
    print(f"ok   traced scan: {len(traces)} sites, {total} handshake spans "
          "match ProbeTrace.count per kind")


def check_bare_directory() -> None:
    bare = checkout.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(checkout.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(checkout.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "scan", "--seed", "1", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "benchmark ran without a tlsaudit source"
        assert '"correct"' not in proc.stdout, "printed a result without a source"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            checkout.WORK.rmdir()
        except OSError:
            pass
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_runs(spec)
    check_kind_counts()
    check_bare_directory()
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
