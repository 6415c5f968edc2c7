"""Exactly-once resume, proven by killing the scan.

A child process runs ``tlsaudit scan`` against fixture endpoints served by
this process and gets SIGKILL at seeded points: once after its k-th record
line, and once, resumed, while a site is mid-probe. A last resume runs here
to the end. Every target must then be recorded exactly once with no torn
line, and every record and trace must equal an uninterrupted run's, apart
from timestamps, the trace's ``wall_time_s`` and its entries' ``elapsed_ms``.
Each graded record's configuration must also derive again from its own trace
file, through ``orchestrator.configuration_of``.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from tlsaudit import cli, fixtures
from tlsaudit.orchestrator import configuration_of

SRC = Path(__file__).resolve().parent.parent / "src"
SITES = 4
# a fixed pause before each of a site's ~20 handshakes makes it last about
# 0.1 s, long enough to kill a scan in the middle of one
POLICY = {"timeout_ms": 3000, "delay_min_ms": 5, "delay_max_ms": 5}
_CHILD = "import sys; from tlsaudit import cli; sys.exit(cli.main(sys.argv[1:]))"


@pytest.fixture(scope="module")
def endpoints(db):
    served = []
    try:
        for spec in fixtures.bundled_corpus(db, seed=0)[:SITES]:
            served.append(fixtures.spawn(spec, db))
        yield served
    finally:
        # each stop() waits up to one accept() poll: wait them out together
        with ThreadPoolExecutor(max_workers=SITES) as pool:
            list(pool.map(fixtures.FixtureEndpoint.stop, served))


def _scan_args(endpoints, workdir: Path) -> list[str]:
    """``tlsaudit scan`` arguments whose inputs and outputs are in ``workdir``."""
    workdir.mkdir()
    targets = workdir / "targets.csv"
    targets.write_text("".join(f"{n},{ep.host}:{ep.port}\n"
                               for n, ep in enumerate(endpoints, 1)))
    policy = workdir / "policy.json"
    policy.write_text(json.dumps(POLICY))
    return ["scan", "--targets", str(targets), "--out", str(workdir / "scan.jsonl"),
            "--trace-dir", str(workdir / "traces"), "--policy", str(policy)]


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


def _outputs(workdir: Path):
    """The scan's records and traces, without what differs between two runs:
    timestamps, the trace's directory, its ``wall_time_s`` and its entries'
    ``elapsed_ms``."""
    data = (workdir / "scan.jsonl").read_bytes()
    assert data.endswith(b"\n"), "torn final line"
    records = [json.loads(line) for line in data.splitlines()]
    for record in records:
        del record["started_at"], record["finished_at"]
        record["trace_ref"] = Path(record["trace_ref"]).name
    traces = {}
    for path in (workdir / "traces").iterdir():
        traces[path.name] = json.loads(path.read_text(encoding="utf-8"))
        del traces[path.name]["wall_time_s"]
        for entry in traces[path.name]["entries"]:
            del entry["elapsed_ms"]
    return records, traces


@pytest.fixture(scope="module")
def uninterrupted(endpoints, tmp_path_factory):
    workdir = tmp_path_factory.mktemp("uninterrupted") / "scan"
    assert cli.main(_scan_args(endpoints, workdir)) == 0
    return _outputs(workdir)


def _kill_when(args: list[str], ready) -> None:
    """Run the scan in a child process and SIGKILL it once ``ready()``."""
    child = subprocess.Popen([sys.executable, "-c", _CHILD, *args],
                             env=dict(os.environ, PYTHONPATH=str(SRC)),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30
        while not ready():
            assert child.poll() is None, "the scan ended before its kill"
            assert time.monotonic() < deadline, "no kill point in 30 s"
            time.sleep(0.001)
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        _out, err = child.communicate()
    assert child.returncode == -signal.SIGKILL, err.decode()


@pytest.mark.parametrize("seed", [1, 2])
def test_a_killed_scan_resumes_exactly_once(db, endpoints, uninterrupted,
                                            tmp_path, seed):
    rng = random.Random(seed)
    workdir = tmp_path / "scan"
    args = _scan_args(endpoints, workdir)
    out = workdir / "scan.jsonl"

    k = rng.randint(1, SITES - 2)
    _kill_when(args, lambda: _lines(out) >= k)
    recorded = _lines(out)
    assert recorded < SITES

    # resumed, then killed after ``events`` of the next site's connections
    capture = endpoints[recorded].capture
    events = len(capture) + rng.randint(1, 5)
    _kill_when(args, lambda: len(capture) >= events)
    assert _lines(out) == recorded, "the kill came between sites"

    assert cli.main(args) == 0
    records, traces = _outputs(workdir)
    assert [r["domain"] for r in records] == [f"{ep.host}:{ep.port}"
                                              for ep in endpoints]
    assert (records, traces) == uninterrupted
    graded = [r for r in records if r["eligibility"] == "GRADED"]
    assert graded
    for record in graded:
        derived = configuration_of(traces[record["trace_ref"]], db)
        assert derived.to_json() == record["configuration"], record["domain"]
