"""tlsaudit benchmark.

    python3 perfbench/run.py --workload scan|roundtrip|analyze|all
                             --seed N --seconds S --trace 0|1

Builds nothing: it imports tlsaudit from the checkout's ``src``. Set-up runs
at least five times and for at least a second; ``setup_s`` is the median,
at the reference CPU speed (see ``workloads.reference_seconds``).

With ``--trace 0`` the workload runs untraced for S seconds and the
end-to-end metrics are reported. With ``--trace 1`` it makes a fixed set of
operations (one corpus pass on ``scan``, 16 specs on ``roundtrip``, two
passes on ``analyze``) untraced, then again with every layer's entry points
wrapped, and reports the per-layer metrics; the spans go to ``.bench_out/``
as gzipped JSON lines.

Every operation is checked against ground truth. The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every check passed, 1 when one failed, and 2 when
the checkout cannot be benchmarked.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import checkout
from stats import describe

# Set-up repeats at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have
# passed (at most SETUP_MAX_REPEATS), so a set-up of a few milliseconds still
# gets a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_S = 5, 20, 1.0
E2E = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput", "1/s"),
       ("latency_mean_ms", "ms"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan", "roundtrip", "analyze", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is for perfbench/smoke.py")
    return parser.parse_args(argv)


def _line(name, value, unit, samples=None) -> None:
    if isinstance(samples, list):
        detail = describe(samples, unit)
    else:
        detail = f"n={samples}" if samples is not None else ""
    print(f"metric {name} = {value:.6g} {unit}  {detail}".rstrip())


def _setups(workload) -> tuple[list[float], list[float]]:
    """Set the workload up repeatedly, keeping the last set-up. Returns the
    duration of each set-up, and the reference computation's time before the
    first and after each (see ``workloads.reference_seconds``)."""
    from workloads import reference_seconds
    times, references = [], [reference_seconds()]
    while True:
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
        references.append(reference_seconds())
        if len(times) >= SETUP_MAX_REPEATS or (
                len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_S):
            return times, references
        workload.teardown()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(workload, args):
    """Set up, run and verify the workload. Returns (set-up and reference
    times, failure messages, operations checked, the summary of the
    untraced run, per-layer metrics or None)."""
    import layers
    from spans import Tracer

    setup_tracer = Tracer()
    per_layer = None
    if args.trace:
        layers.install(setup_tracer)
    try:
        try:
            setup_times = _setups(workload)
        finally:
            setup_tracer.unwrap_all()
        if not args.trace:
            run = workload.run(deadline=time.perf_counter() + args.seconds)
            runs = [run]
        else:
            run = workload.run(count=workload.trace_ops())
            tracer = Tracer(layers.SITE_ROOTS)
            layers.install(tracer)
            workload.tracer = tracer
            try:
                traced = workload.run(count=run.ops)
            finally:
                tracer.unwrap_all()
                workload.tracer = None
            runs = [run, traced]
        attempted, failures = 0, []
        for r in runs:
            checked, failed = workload.verify(r)
            attempted += checked
            failures += failed
        if args.trace:
            try:
                per_layer = layers.derive(setup_tracer.spans, tracer.spans, run, traced)
            except layers.TraceMismatch as exc:
                failures.append(f"trace: {exc}")
            checkout.OUT.mkdir(exist_ok=True)
            tracer.dump(checkout.OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        print(f"inputs {workload.inputs_note}")
        summary = workload.summary(run)
    finally:
        workload.teardown()
        try:
            checkout.WORK.rmdir()
        except OSError:
            pass
    return setup_times, failures, attempted, summary, per_layer


def run_workload(args) -> int:
    import layers
    from workloads import WORKLOADS, reference_scale

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    (setups, references), failures, attempted, (e2e, named), per_layer = \
        _measure(workload, args)
    for message in failures[:20]:
        print(f"FAIL {message}")
    if len(failures) > 20:
        print(f"FAIL ... {len(failures) - 20} more")

    # The median set-up at the reference CPU speed, as analyze passes are
    # timed: set-up is pure CPU work too.
    e2e["setup_s"] = statistics.median(setups) * reference_scale(references)
    e2e["peak_rss_mb"] = _peak_rss_mb()
    _line("setup_s", e2e["setup_s"], "s", len(setups))
    _line("setup.measured_s", statistics.median(setups), "s", setups)
    _line("setup.reference_ms", statistics.median(references) * 1e3, "ms",
          len(references))
    _line("error_ratio", len(failures) / attempted, "ratio",
          f"{attempted} (failed {len(failures)})")
    _line("peak_rss_mb", e2e["peak_rss_mb"], "MB")
    for name, value, unit, samples in named:
        _line(name, value, unit, samples)

    if args.trace:
        units, metrics = dict(layers.PER_LAYER), per_layer or {}
        for name, unit in units.items():
            if name in metrics:
                _line(name, metrics[name], unit)
    else:
        units, metrics = dict(E2E), e2e
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        code = 0
        for name in ("scan", "roundtrip", "analyze"):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
            code = max(code, subprocess.run(cmd, cwd=checkout.ROOT).returncode)
        return code
    try:
        checkout.import_tlsaudit()
    except (checkout.CheckoutError, ImportError) as exc:
        print(f"perfbench: cannot benchmark this checkout: {exc}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
