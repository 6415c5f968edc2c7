"""Wall time and peak RSS of each ``tlsaudit report`` kind, and of
``tlsaudit grade``, on the benchmark's ``analyze`` corpus at scale, for one
or more source trees.

    python3 tools/report_stream_bench.py --src OLD/src --src NEW/src \\
        --sizes 10000 100000 --runs 3 --work /tmp/rs --out figures.json

The corpus of N records is the records of
``perfbench/inputs.analyze_corpus(db, 7, N, 300, 300, 24, 8)``, written as
JSONL one record at a time so that the generator itself stays small; the
script first checks that its lines equal that function's at 1,000 records.
The smaller sizes are prefixes of the larger ones, as in that function.
The kind ``grade`` runs ``grade --in`` over that function's ``grade_inputs``
for the same records: one ``{"label": "cfg-<record index>", "configuration":
…}`` line per configured record.

Each report runs in a fresh process that calls ``tlsaudit.cli.main``, timed
from spawn to exit; its CPU time is the child's user plus system time from
``os.wait4``, and its peak RSS the child's own ``VmHWM``. The runs of one kind and size
alternate between the trees, the first tree first on even runs. Each
output is compared across trees byte for byte.

``--gc`` instead times the cyclic garbage collector inside one ``report``
run per tree and size (``gc.callbacks``), and reports its share of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("dist", "cdf-asn", "cdf-config", "downgrades", "dominance", "records")
POOL, ASNS = 300, 300


def corpus_lines(db, seed: int, records: int):
    """The JSON lines of ``analyze_corpus(db, seed, records, ...).records``,
    one at a time: the same draws from the same generator, in order."""
    import inputs
    from tlsaudit.grading import grade
    from tlsaudit.records import Eligibility, ScanRecord
    rng = random.Random(f"analyze/{seed}")
    pool = inputs._configuration_pool(db, rng, POOL)
    reports = [grade(config, db) for config in pool]
    config_cw = inputs._zipf_cum_weights(len(pool), 1.1)
    asn_numbers = rng.sample(range(1, 400_000), ASNS)
    asn_cw = inputs._zipf_cum_weights(ASNS, 1.3)
    tlds = ("com", "org", "net", "de", "uk", "io")
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
            software, os_hint = rng.choice(inputs._SERVERS)
            record = ScanRecord(domain=domain, rank=n + 1, address="192.0.2.1",
                                eligibility=Eligibility.GRADED, asn=asn,
                                server_software=software, os_hint=os_hint,
                                configuration=pool[k], grade_report=reports[k])
        yield json.dumps(record.to_json()) + "\n"


def write_corpora(work: Path, sizes: list[int]) -> dict[int, Path]:
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import inputs
    from tlsaudit.registry import load_registry
    db = load_registry()
    want = [json.dumps(r) + "\n"
            for r in inputs.analyze_corpus(db, 7, 1000, POOL, ASNS, 24, 8).records]
    assert list(corpus_lines(db, 7, 1000)) == want, "corpus differs"
    paths = {n: work / f"records-{n}.jsonl" for n in sizes}
    handles = {n: open(path, "w", encoding="utf-8") for n, path in paths.items()}
    for i, line in enumerate(corpus_lines(db, 7, max(sizes))):
        for n, fh in handles.items():
            if i < n:
                fh.write(line)
    for fh in handles.values():
        fh.close()
    for n, path in paths.items():
        with open(path, encoding="utf-8") as src, \
                open(work / f"configs-{n}.jsonl", "w", encoding="utf-8") as dst:
            for i, line in enumerate(src):
                config = json.loads(line)["configuration"]
                if config:
                    dst.write(json.dumps({"label": f"cfg-{i}",
                                          "configuration": config}) + "\n")
    return paths


# runs one command and prints its peak RSS (VmHWM, in kB): ``ru_maxrss``
# would count the RSS that the child inherited from this process at fork
_CHILD = """
import sys
from tlsaudit import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
sys.exit(code)
"""


def run_report(src: str, records: Path, which: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    if which == "grade":
        configs = records.with_name(records.name.replace("records", "configs"))
        argv = ["grade", "--in", str(configs)]
    else:
        argv = ["report", "--records", str(records), "--which", which]
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, *argv,
                             "--out", str(out)], env=env,
                            stdout=subprocess.PIPE, text=True)
    peak_kb = proc.stdout.read()
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.stdout.close()
    assert os.waitstatus_to_exitcode(status) == 0, f"{src} {which} failed"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": int(peak_kb) / 1024, "sha256": digest}


_GC_CHILD = """
import gc, json, sys, time
from tlsaudit import cli
spent = [0.0]
counts = [0, 0, 0]
started = {}
def timer(phase, info):
    if phase == "start":
        started["t"] = time.perf_counter()
    else:
        spent[0] += time.perf_counter() - started["t"]
        counts[info["generation"]] += 1
gc.callbacks.append(timer)
start = time.perf_counter()
assert cli.main(sys.argv[1:]) == 0
wall = time.perf_counter() - start
print(json.dumps({"wall_s": wall, "gc_s": spent[0], "gc_share": spent[0] / wall,
                  "collections": counts}))
"""


def gc_share(src: str, records: Path, which: str, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _GC_CHILD, "report",
                           "--records", str(records), "--which", which,
                           "--out", str(out)], env=env, check=True,
                          capture_output=True, text=True)
    out.unlink()
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", action="append", required=True,
                        help="a tree's src directory; give one per tree")
    parser.add_argument("--sizes", type=int, nargs="+", default=[10_000, 100_000])
    parser.add_argument("--kinds", nargs="+", default=list(KINDS),
                        help="report kinds, and grade")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--gc", metavar="KIND",
                        help="time the cyclic GC in one run of KIND instead")
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for the corpora and outputs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    args.work.mkdir(parents=True, exist_ok=True)
    corpora = write_corpora(args.work, args.sizes)
    result = {"sizes": {n: path.stat().st_size for n, path in corpora.items()},
              "trees": args.src, "figures": []}
    if args.gc:
        for n, path in corpora.items():
            for src in args.src:
                row = gc_share(src, path, args.gc, args.work / "out")
                result["figures"].append(dict(row, src=src, records=n, kind=args.gc))
                print(json.dumps(result["figures"][-1]), flush=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n")
        return

    for n, path in corpora.items():
        for which in args.kinds:
            runs = {src: [] for src in args.src}
            for i in range(args.runs):
                order = args.src if i % 2 == 0 else args.src[::-1]
                for src in order:
                    runs[src].append(run_report(src, path, which,
                                                args.work / "out"))
            digests = {r["sha256"] for rs in runs.values() for r in rs}
            for src, rs in runs.items():
                row = {"src": src, "records": n, "kind": which,
                       "wall_s": [round(r["wall_s"], 3) for r in rs],
                       "cpu_s": [round(r["cpu_s"], 3) for r in rs],
                       "peak_rss_mb": [round(r["peak_rss_mb"], 2) for r in rs],
                       "wall_s_median": round(statistics.median(
                           r["wall_s"] for r in rs), 3),
                       "cpu_s_median": round(statistics.median(
                           r["cpu_s"] for r in rs), 3),
                       "peak_rss_mb_median": round(statistics.median(
                           r["peak_rss_mb"] for r in rs), 2),
                       "outputs_identical": len(digests) == 1}
                result["figures"].append(row)
                print(json.dumps(row), flush=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
