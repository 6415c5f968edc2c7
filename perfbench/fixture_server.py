"""Serve the seeded scan corpus from a process of its own.

    python3 perfbench/fixture_server.py --seed N --random-count K [--limit L]

Spawns one fixture endpoint per spec, prints one JSON line
``{"fixtures": [{"port": P, "spec": {...}}, ...]}`` and serves until its
standard input is closed, then exits. Each ``cpu`` line on standard input
is answered with ``{"cpu_s": S}``, the CPU time the process has used. Running the servers here keeps their
CPU work off the scanner's interpreter lock.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import checkout
import inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--random-count", type=int, required=True)
    parser.add_argument("--limit", type=int)
    args = parser.parse_args(argv)
    checkout.import_tlsaudit()
    from tlsaudit import fixtures, registry

    db = registry.load_registry()
    specs = inputs.scan_corpus(db, args.seed, args.random_count, args.limit)
    endpoints = [fixtures.spawn(spec, db) for spec in specs]
    print(json.dumps({"fixtures": [{"port": ep.port, "spec": ep.spec.to_json()}
                                   for ep in endpoints]}), flush=True)
    for line in sys.stdin:
        if line.strip() == "cpu":
            print(json.dumps({"cpu_s": time.process_time()}), flush=True)
    # The endpoints' server threads are daemons and end with the process;
    # stopping each one would wait out its poll interval.
    return 0


if __name__ == "__main__":
    sys.exit(main())
