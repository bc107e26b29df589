#!/usr/bin/env python3
"""Spread of each metric over repeated benchmark runs.

    python3 perfbench/spread.py --workload settle_basins --runs 10 [--first-seed 1]
        [--save perfbench/out/settle.jsonl]
    python3 perfbench/spread.py --load perfbench/out/settle.jsonl

Runs ``run.py --trace 0`` once per seed (first-seed, first-seed + 1, ...),
one run at a time and for BENCHMARK.json's ``run_seconds``, and prints for
every metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile distance as a share
of the median.  A change to a metric is resolved only when it exceeds that
share; compare it with the metric's bound in BENCHMARK.json.  ``--save``
keeps the raw result lines so two sets can be compared later; ``--load``
summarises saved lines instead of running.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    return result


def summarise(results):
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    shares = {(r["failed"], r["attempted"]) for r in results}
    print(f"{len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed/attempted={sorted(shares)}")
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{'' if bound is None else bound:>6}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--load", type=Path)
    args = parser.parse_args()
    if args.load:
        results = [json.loads(line) for line in args.load.read_text(encoding="utf-8").splitlines()]
    else:
        if not args.workload:
            parser.error("--workload is required unless --load is given")
        bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(args.workload, seed, bench["run_seconds"]))
            if args.save:
                args.save.parent.mkdir(parents=True, exist_ok=True)
                with args.save.open("a", encoding="utf-8") as fh:
                    fh.write(json.dumps(results[-1]) + "\n")
    summarise(results)


if __name__ == "__main__":
    main()
