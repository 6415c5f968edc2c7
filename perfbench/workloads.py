"""The benchmark's workloads. Each is a closed loop with one client: the next
operation starts when the previous one has finished, with no pacing.

* ``scan``: ``pipeline.run_scan`` over the seeded corpus, served by one
  child process, with a synthetic ASN table and a trace directory. One
  operation is one site.
* ``roundtrip``: spawn a fixture in this process, ``probe_site`` it, compare
  with ``projection`` and stop it. One operation is one spec.
* ``analyze``: the offline CLI commands on a seeded record corpus. One
  operation is one pass (``grade``, six ``report`` kinds, two ``check-rec``),
  timed at a reference CPU speed (see ``reference_seconds``).

``run`` executes operations until a deadline, or for an exact count: a
traced run makes the fixed ``trace_ops()`` operations once untraced and
once traced. ``verify`` checks every operation against ground truth after
the loop.
"""
from __future__ import annotations

import contextlib
import csv
import datetime
import json
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checkout
import inputs
from stats import percentile

from tlsaudit import cipherstring, cli, fixtures, pipeline, registry
from tlsaudit.configuration import Configuration
from tlsaudit.grading import Category, grade
from tlsaudit.orchestrator import ProbePolicy, SiteProber
from tlsaudit.registry import Version

HERE = Path(__file__).resolve().parent

SCALES = {
    "full": {
        "scan": {"random_count": 40, "limit": None, "asn_prefixes": 100_000},
        "roundtrip": {"random_count": 40, "limit": None},
        "analyze": {"records": 1000, "pool": 300, "asns": 300, "recs": 24,
                    "rec_configs": 8},
    },
    # Tiny sizes for perfbench/smoke.py.
    "smoke": {
        "scan": {"random_count": 2, "limit": 2, "asn_prefixes": 2_000},
        "roundtrip": {"random_count": 2, "limit": 2},
        "analyze": {"records": 300, "pool": 40, "asns": 30, "recs": 4,
                    "rec_configs": 3},
    },
}


@dataclass
class Run:
    ops: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    results: list = field(default_factory=list)
    parts_s: dict = field(default_factory=dict)


def _more(done: int, deadline, count) -> bool:
    """Whether a loop that has made ``done`` operations makes another: at
    least one, then until the count or the deadline is reached."""
    return ((count is None or done < count)
            and (deadline is None or done == 0 or time.perf_counter() < deadline))


def baseline_eligible(specs, db) -> list[bool]:
    """Per spec, whether a correct scanner grades it rather than excluding it.

    The baseline handshake offers the browser union at TLS 1.2 and below; a
    spec sharing none of those suites refuses it with an alert, and the site
    is recorded as EXCLUDED with reason TLS_ALERT after that one handshake.
    ``fixtures.projection`` does not model this, so the benchmark does.
    """
    union = frozenset(registry.browser_union(db))
    return [any(s in union for s in spec.suites
                if db[s].min_version != Version.TLS1_3)
            for spec in specs]


def _graded_latencies(run, eligible) -> list[float]:
    """Latencies of the operations that recover a configuration. Sites that
    refuse the baseline offer end after one handshake; mixing them in would
    make the figure depend on how many the seed happened to draw."""
    return [ms for (i, *_rest), ms in zip(run.results, run.latencies_ms)
            if eligible[i]]


def _budget_problems(handshakes: int, enumerates: int, supported: int) -> list[str]:
    problems = []
    if not 14 <= handshakes <= 93:
        problems.append(f"{handshakes} handshakes, outside 14..93")
    if enumerates != supported + 1:
        problems.append(f"enumerate used {enumerates} handshakes for "
                        f"{supported} supported suites")
    return problems


# The host's CPU speed can drift by a third over minutes, which no statistic
# over a 20-second run removes. So a fixed reference computation runs between
# the operations of a scan or analyze run and around the set-ups, and the
# gated figures scale CPU work to the speed at which that computation takes
# REFERENCE_NOMINAL_S. The scale uses the median reference time of the run:
# one 40 ms sample is too short to stand for the speed during the operation
# next to it. The benchmark's work slows less than the reference loop when
# the host slows: on a 2-vCPU Intel Xeon VM, log pass time moved 0.54 times
# as much as log reference time within one run of analyze passes, and the
# exponent that best matched sets of runs made at different times was 0.6
# for analyze passes and 1 for set-ups. So the scale is the speed ratio to
# the power REFERENCE_EXPONENT. The report lines stay unscaled.
REFERENCE_NOMINAL_S = 0.040
REFERENCE_EXPONENT = 0.7


def reference_seconds() -> float:
    """Wall time of a fixed pure-Python computation of the dict, list and
    string work the offline commands do: a yardstick for the host's
    current CPU speed."""
    start = time.perf_counter()
    table: dict[str, list[int]] = {}
    for i in range(60_000):
        row = table.setdefault(f"k{i % 257}", [])
        row.append(i * 7919 % 1013)
        if len(row) > 8:
            row.sort()
            del row[:4]
    return time.perf_counter() - start


def reference_scale(references) -> float:
    """The factor that takes CPU time measured while the reference took
    ``references`` (seconds) to the reference speed."""
    return ((REFERENCE_NOMINAL_S / statistics.median(references))
            ** REFERENCE_EXPONENT)


class Workload:
    name = ""
    inputs_note = ""  # one line describing the generated inputs

    def __init__(self, seed: int, scale: str = "full"):
        self.seed = seed
        self.size = SCALES[scale][self.name]
        self.tracer = None
        self._setups = 0
        self._runs = 0
        self._kept = set(vars(self)) | {"_kept"}

    def span(self, name: str):
        """A span the benchmark opens itself, recorded only when traced."""
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def setup(self) -> None:
        self.dir = checkout.WORK / f"{self.name}-{self._setups}"
        self._setups += 1
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.db = registry.load_registry()
        self._setup()

    def teardown(self) -> None:
        """Stop what set-up started and drop everything it built, so that a
        repeated set-up does not hold two set-ups' data at once."""
        try:
            self._teardown()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)
            for attr in set(vars(self)) - self._kept:
                delattr(self, attr)

    def run(self, deadline=None, count=None) -> Run:
        self._runs += 1
        out = Run()
        start, cpu = time.perf_counter(), time.process_time()
        self._loop(out, deadline, count)
        # The reference computations (pure CPU) are not the workload's.
        reference = sum(out.parts_s.get("reference", ()))
        out.wall_s = time.perf_counter() - start - reference
        out.cpu_s = time.process_time() - cpu - reference
        return out

    def trace_ops(self) -> int:
        """The fixed operation count of a traced run, so its counts are exact
        and comparable between versions."""
        raise NotImplementedError

    def _setup(self):
        raise NotImplementedError

    def _teardown(self):
        pass

    def _loop(self, out: Run, deadline, count):
        raise NotImplementedError

    def verify(self, run: Run) -> tuple[int, list[str]]:
        """(operations checked, one message per failed operation)."""
        raise NotImplementedError

    def summary(self, run: Run) -> tuple[dict, list[tuple]]:
        """The end-to-end metrics, and the workload's named metrics as
        (name, value, unit, samples) for the report lines."""
        raise NotImplementedError


# -- scan ----------------------------------------------------------------------

class FixtureProcess:
    """The scan corpus served by fixture_server.py in a child process."""

    def __init__(self, seed: int, random_count: int, limit):
        cmd = [sys.executable, str(HERE / "fixture_server.py"),
               "--seed", str(seed), "--random-count", str(random_count)]
        if limit:
            cmd += ["--limit", str(limit)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, cwd=checkout.ROOT)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("fixture server exited before serving")
            self.fixtures = json.loads(line)["fixtures"]
        except BaseException:
            self.close()
            raise

    def cpu_seconds(self) -> float:
        """The CPU time the server process has used so far."""
        self.proc.stdin.write(b"cpu\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["cpu_s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _iso_ms(start: str, end: str) -> float:
    delta = (datetime.datetime.fromisoformat(end)
             - datetime.datetime.fromisoformat(start))
    return delta.total_seconds() * 1e3


class Scan(Workload):
    name = "scan"

    def _setup(self):
        size, db = self.size, self.db
        self.specs = inputs.scan_corpus(db, self.seed, size["random_count"],
                                        size["limit"])
        self.eligible = baseline_eligible(self.specs, db)
        self.expected = [fixtures.projection(s, db) for s in self.specs]
        self.expected_grades = [grade(c, db).to_json() for c in self.expected]
        self.expected_asn = inputs.write_asn_csv(
            inputs.asn_rows(self.seed, size["asn_prefixes"]), self.dir / "asn.csv")
        self.asn_table = pipeline.load_asn_table(self.dir / "asn.csv")
        self.server = FixtureProcess(self.seed, size["random_count"], size["limit"])
        served = self.server.fixtures
        if [f["spec"] for f in served] != [s.to_json() for s in self.specs]:
            raise RuntimeError("fixture server corpus differs from the scanner's")
        self.targets = [pipeline.Target(rank=n + 1,
                                        domain=f"{inputs.LOOPBACK}:{f['port']}")
                        for n, f in enumerate(served)]
        self.policy = ProbePolicy(delay_min_s=0.0, delay_max_s=0.0, seed=self.seed)
        self.inputs_note = (f"{len(self.specs)} specs, {self.eligible.count(False)} "
                            "refusing the baseline offer; "
                            f"{size['asn_prefixes']} ASN prefixes")

    def trace_ops(self):
        return len(self.targets)  # one pass over the corpus

    def _teardown(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.close()

    def _loop(self, out, deadline, count):
        visits = []
        passno = 0
        references = out.parts_s["reference"] = []
        server_cpu = self.server.cpu_seconds()
        while _more(len(visits), deadline, count):
            pass_dir = self.dir / f"run{self._runs}-pass{passno}"
            passno += 1

            def targets():
                for i, target in enumerate(self.targets):
                    if not _more(len(visits), deadline, count):
                        return
                    references.append(reference_seconds())
                    visits.append(i)
                    yield target
            first = len(visits)
            records = pipeline.run_scan(
                targets(), self.policy, self.db, pass_dir / "scan.jsonl",
                pipeline.ScanOptions(trace_dir=str(pass_dir / "traces"),
                                     asn_table=self.asn_table))
            if len(records) != len(visits) - first:
                raise RuntimeError("run_scan returned a record count unlike "
                                   "its target count")
            out.results += [(i, pass_dir, r)
                            for i, r in zip(visits[first:], records)]
        out.ops = len(visits)
        out.parts_s["server_cpu"] = [self.server.cpu_seconds() - server_cpu]
        out.latencies_ms = [_iso_ms(r.started_at, r.finished_at)
                            for _i, _d, r in out.results]

    def verify(self, run):
        failures = []
        reread = {}
        for n, (i, pass_dir, record) in enumerate(run.results):
            if pass_dir not in reread:
                reread[pass_dir] = iter(pipeline.load_records(pass_dir / "scan.jsonl"))
            problems = self._check(i, record, next(reread[pass_dir], None))
            if problems:
                failures.append(f"site {n} (spec {i}): {'; '.join(problems)}")
        return run.ops, failures

    def _check(self, i, record, stored) -> list[str]:
        problems = []
        if stored is None or stored.to_json() != record.to_json():
            problems.append("output line differs from the returned record")
        if record.asn != self.expected_asn:
            problems.append(f"asn {record.asn} != longest-prefix {self.expected_asn}")
        trace = json.loads(Path(record.trace_ref).read_text(encoding="utf-8"))
        if not self.eligible[i]:
            if (record.eligibility is not pipeline.Eligibility.EXCLUDED
                    or record.exclusion_reason != "TLS_ALERT"
                    or trace["handshake_count"] != 1):
                problems.append(f"{record.eligibility.value} ({record.exclusion_reason}) "
                                f"after {trace['handshake_count']} handshakes, want "
                                "EXCLUDED (TLS_ALERT) after the baseline")
            return problems
        if record.eligibility is not pipeline.Eligibility.GRADED:
            return problems + [f"{record.eligibility.value}: {record.exclusion_reason}"]
        if record.configuration.to_json() != self.expected[i].to_json():
            problems.append("configuration differs from projection(spec)")
        if record.grade_report.to_json() != self.expected_grades[i]:
            problems.append("grade differs from grade(projection(spec))")
        enumerates = sum(1 for e in trace["entries"] if e["kind"] == "enumerate")
        problems += _budget_problems(trace["handshake_count"], enumerates,
                                     len(self.expected[i].supported_suites))
        return problems

    def summary(self, run):
        # A site's time is timer waits (delayed ACK) plus the CPU work of the
        # scanner and the server, one after the other. The gated figures
        # scale only the CPU part to the reference speed (see
        # REFERENCE_NOMINAL_S); the report lines stay unscaled.
        rate = run.ops / run.wall_s
        graded = _graded_latencies(run, self.eligible)
        reference_ms = [r * 1e3 for r in run.parts_s["reference"]]
        cpu_s = run.cpu_s + run.parts_s["server_cpu"][0]
        scale = reference_scale(run.parts_s["reference"])
        stretch = 1 + cpu_s * (scale - 1) / run.wall_s
        return ({"throughput": rate / stretch,
                 "latency_mean_ms": statistics.fmean(graded) * stretch},
                [("scan.sites_per_s", rate, "1/s", run.ops),
                 ("scan.reference_ms", percentile(reference_ms, 50), "ms",
                  reference_ms),
                 ("scan.cpu_share", cpu_s / run.wall_s, "ratio", run.ops),
                 ("scan.site_p50_ms", percentile(graded, 50), "ms", graded),
                 ("scan.site_p90_ms", percentile(graded, 90), "ms", graded)])


# -- roundtrip -----------------------------------------------------------------

class Roundtrip(Workload):
    name = "roundtrip"

    def _setup(self):
        self.specs = inputs.scan_corpus(self.db, self.seed, self.size["random_count"],
                                        self.size["limit"])
        self.eligible = baseline_eligible(self.specs, self.db)
        # Certificate keys are generated once per process; do it before timing.
        for kind in ("RSA", "ECDSA"):
            fixtures.fixture_certificate(kind)
        self.inputs_note = (f"{len(self.specs)} specs, {self.eligible.count(False)} "
                            "refusing the baseline offer")
        self.order = list(range(len(self.specs)))
        random.Random(f"roundtrip/{self.seed}").shuffle(self.order)
        self.prober = SiteProber(self.db, ProbePolicy(delay_min_s=0.0,
                                                      delay_max_s=0.0,
                                                      seed=self.seed))

    def trace_ops(self):
        return min(len(self.specs), 16)

    def _loop(self, out, deadline, count):
        while _more(out.ops, deadline, count):
            i = self.order[out.ops % len(self.order)]
            spec = self.specs[i]
            start = time.perf_counter()
            with self.span("roundtrip.spec"):
                endpoint = fixtures.spawn(spec, self.db)
                try:
                    config, trace = self.prober.probe_site(endpoint.target)
                    expected = fixtures.projection(spec, self.db)
                    same = (config is not None
                            and config.to_json() == expected.to_json())
                finally:
                    endpoint.stop()
            out.latencies_ms.append((time.perf_counter() - start) * 1e3)
            out.results.append((i, config, trace, expected, same))
            out.ops += 1

    def verify(self, run):
        failures = []
        for n, (i, config, trace, expected, same) in enumerate(run.results):
            if not self.eligible[i]:
                if (config is not None or trace.exclusion_reason != "TLS_ALERT"
                        or trace.handshake_count != 1):
                    failures.append(f"spec {n} ({i}): want EXCLUDED (TLS_ALERT) "
                                    "after the baseline handshake")
                continue
            if not same:
                failures.append(f"spec {n} ({i}): configuration differs from "
                                "projection(spec)")
                continue
            problems = []
            if grade(config, self.db).to_json() != grade(expected, self.db).to_json():
                problems.append("grade differs from grade(projection(spec))")
            problems += _budget_problems(trace.handshake_count,
                                         trace.count("enumerate"),
                                         len(expected.supported_suites))
            if problems:
                failures.append(f"spec {n} ({i}): {'; '.join(problems)}")
        return run.ops, failures

    def summary(self, run):
        rate = run.ops / run.wall_s
        graded = _graded_latencies(run, self.eligible)
        return ({"throughput": rate, "latency_mean_ms": statistics.fmean(graded)},
                [("roundtrip.specs_per_s", rate, "1/s", run.ops),
                 ("roundtrip.spec_p50_ms", percentile(graded, 50), "ms", graded)])


# -- analyze -------------------------------------------------------------------

_REPORTS = ("dist", "cdf-asn", "cdf-config", "downgrades", "dominance", "records")
_PARTS = ("grade", "report", "check_rec")

def _write_jsonl(path, objs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _read_jsonl(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_csv(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Analyze(Workload):
    name = "analyze"

    def _setup(self):
        size, db, d = self.size, self.db, self.dir
        corpus = inputs.analyze_corpus(db, self.seed, size["records"], size["pool"],
                                       size["asns"], size["recs"],
                                       size["rec_configs"])
        _write_jsonl(d / "records.jsonl", corpus.records)
        _write_jsonl(d / "configs.jsonl", corpus.grade_inputs)
        _write_jsonl(d / "recs.jsonl", corpus.recs)
        _write_jsonl(d / "rec_configs.jsonl", corpus.rec_configs)

        configured = [r for r in corpus.records if r["configuration"]]
        self.grade_oracle = [{"grade_report": r["grade_report"], "label": g["label"]}
                             for r, g in zip(configured, corpus.grade_inputs)]
        self.grade_counts = Counter(r["grade_report"]["overall"] for r in configured)
        self.graded = len(configured)
        distinct = len({json.dumps(r["configuration"], sort_keys=True)
                        for r in configured})
        self.inputs_note = (f"{len(corpus.records)} records, {distinct} distinct "
                            f"configurations, {len(corpus.recs)} recommendations, "
                            f"{len(corpus.rec_configs)} check-rec configurations")

        profiles = cipherstring.load_all_profiles()
        defaults = [(label, config, cipherstring.load_profile(profile))
                    for label, config, profile
                    in fixtures.ubuntu_default_configurations(db)]
        configs = [(c["label"], Configuration.from_json(c["configuration"]))
                   for c in corpus.rec_configs]
        self.rec_oracle = []
        for obj in corpus.recs:
            rec = cipherstring.Recommendation.from_json(obj)
            try:
                _per, summary = cipherstring.grade_recommendation(
                    rec, defaults, db, profiles)
                expected = {"best": summary["best"].value,
                            "worst": summary["worst"].value}
            except cipherstring.RecommendationError as exc:
                expected = {"error": str(exc)}
            self.rec_oracle.append((expected, {
                label: cipherstring.consistent(config, rec, db, profiles)
                for label, config in configs}))

    def _commands(self, out_dir: Path) -> list[tuple[str, str, list[str]]]:
        """(part, label, argv) of one pass, writing its outputs to out_dir."""
        d = self.dir
        recs = ["check-rec", "--recs", str(d / "recs.jsonl")]
        cmds = [("grade", "grade", ["grade", "--in", str(d / "configs.jsonl"),
                                    "--out", str(out_dir / "grades.jsonl")])]
        cmds += [("report", which,
                  ["report", "--records", str(d / "records.jsonl"), "--which",
                   which, "--out", str(out_dir / f"{which}.csv")])
                 for which in _REPORTS]
        cmds += [("check_rec", "defaults",
                  recs + ["--defaults", "--out", str(out_dir / "defaults.jsonl")]),
                 ("check_rec", "configs",
                  recs + ["--configs", str(d / "rec_configs.jsonl"),
                          "--out", str(out_dir / "configs.jsonl")])]
        return cmds

    def trace_ops(self):
        return 2

    def _loop(self, out, deadline, count):
        out.parts_s = {part: [] for part in _PARTS}
        out.parts_s["reference"] = [reference_seconds()]
        while _more(out.ops, deadline, count):
            out_dir = self.dir / f"run{self._runs}-pass{out.ops}"
            out_dir.mkdir()
            times = dict.fromkeys(_PARTS, 0.0)
            codes = []
            for part, _label, argv in self._commands(out_dir):
                start = time.perf_counter()
                codes.append(cli.main(argv))
                times[part] += time.perf_counter() - start
            for part, seconds in times.items():
                out.parts_s[part].append(seconds)
            out.parts_s["reference"].append(reference_seconds())
            out.latencies_ms.append(sum(times.values()) * 1e3)
            out.results.append((out_dir, codes))
            out.ops += 1

    def verify(self, run):
        failures = []
        attempted = 0
        for n, (out_dir, codes) in enumerate(run.results):
            attempted += len(codes)
            for (part, label, argv), code in zip(self._commands(out_dir), codes):
                problem = (f"exited {code}" if code != 0
                           else self._check(part, label, out_dir))
                if problem:
                    failures.append(f"pass {n}: {argv[0]} {label}: {problem}")
        return attempted, failures

    def _check(self, part, label, out_dir):
        if part == "grade":
            if _read_jsonl(out_dir / "grades.jsonl") != self.grade_oracle:
                return "grades differ from the oracle"
        elif part == "report":
            return self._check_report(label, _read_csv(out_dir / f"{label}.csv"))
        elif label == "defaults":
            got = _read_jsonl(out_dir / "defaults.jsonl")
            want = [expected for expected, _c in self.rec_oracle]
            if [{k: e.get(k) for k in w} for e, w in zip(got, want)] != want \
                    or len(got) != len(want):
                return "best/worst differ from the oracle"
        else:
            got = _read_jsonl(out_dir / "configs.jsonl")
            if [e.get("consistent") for e in got] != [c for _e, c in self.rec_oracle]:
                return "consistent values differ from the oracle"
        return None

    def _check_report(self, which, rows):
        graded = self.graded
        if which == "dist":
            got = {r["grade"]: int(r["count"]) for r in rows}
            want = {g: self.grade_counts.get(g, 0) for g in ("A", "B", "C", "F")}
            return None if got == want else f"counts {got} != recount {want}"
        if which == "records":
            return None if len(rows) == graded else f"{len(rows)} rows for {graded} graded"
        if which == "dominance":
            total = sum(int(r["count"]) for r in rows if r["scope"] == "global")
            return None if total == graded else f"global counts sum to {total}"
        if which == "downgrades":
            want = 4 * len(Category)
            return None if len(rows) == want else f"{len(rows)} rows, want {want}"
        last = {}
        for r in rows:
            last[r["grade"]] = float(r["fraction"])
        if set(last) != {g for g, c in self.grade_counts.items() if c} or any(
                abs(v - 1.0) > 1e-9 for v in last.values()):
            return f"CDF does not end at 1 for every occurring grade: {last}"
        return None

    def summary(self, run):
        parts = run.parts_s
        configs_per_s = len(self.grade_oracle) * run.ops / sum(parts["grade"])
        reference_ms = [r * 1e3 for r in parts["reference"]]
        scale = reference_scale(parts["reference"])
        scaled_ms = [ms * scale for ms in run.latencies_ms]
        return ({"throughput": run.ops * 1e3 / sum(scaled_ms),
                 "latency_mean_ms": statistics.fmean(scaled_ms)},
                [("analyze.passes_per_s", run.ops / run.wall_s, "1/s", run.ops),
                 ("analyze.reference_ms", percentile(reference_ms, 50), "ms",
                  reference_ms),
                 ("grade.configs_per_s", configs_per_s, "1/s", run.ops),
                 ("report.wall_s", percentile(parts["report"], 50), "s",
                  parts["report"]),
                 ("check_rec.wall_s", percentile(parts["check_rec"], 50), "s",
                  parts["check_rec"])])


WORKLOADS = {w.name: w for w in (Scan, Roundtrip, Analyze)}
