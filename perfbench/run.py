#!/usr/bin/env python3
"""modnod benchmark: three closed-loop workloads of the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One caller in one process and thread runs
the workload's seeded task list round after round, each task to completion,
for the whole rounds that end nearest to S seconds (more if the tail
percentile needs more samples); then every output is checked against independent references (``oracle.py``),
and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tasks_per_s,
task_p50_ms, task_tail_ms, setup_s, peak_rss_mb).  With ``--trace 1``,
rounds alternate untraced and traced, the metrics are the per-layer ones
from the traced rounds, and the spans go to ``perfbench/out/``.

``setup_s`` is the median over SETUP_PROBES fresh processes of the time
from process start, through importing modnod and building the inputs, to
the point where the first timed task would start.  Half of the probes run
just before the timed rounds and half just after, so they sample the same
stretch of the machine's speed as the rounds do.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("diagram_scenarios", "settle_basins", "cli_queries")
SETUP_PROBES = 10
#: a percentile needs this many samples beyond it to be reported as a tail
TAIL_SAMPLES = 10


def import_program():
    """Import modnod from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    try:
        import modnod
    except ImportError as exc:
        raise SystemExit(f"cannot import modnod from {src}: {exc}")
    if Path(modnod.__file__).resolve().parent != (src / "modnod").resolve():
        raise SystemExit(f"imported modnod from {modnod.__file__}, not from {src}")
    import modnod.cli  # noqa: F401  (the CLI workloads call it)


def setup(name, seed):
    """Everything before the first timed task: import and build inputs."""
    import_program()
    workload = importlib.import_module(name)
    return workload, workload.build(seed)


def probe_setup(args):
    """Child process: set up, then report the monotonic clock."""
    setup(args.workload, args.seed)
    print(repr(time.monotonic()))


def measure_setup(args, probes):
    """Seconds from start to the first timed task, for ``probes`` fresh
    processes."""
    times = []
    for _ in range(probes):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return times


def timed_rounds(workload, tasks, args, workdir, tracer):
    """Whole rounds of the task list, as many as end nearest to the run
    length, and at least enough for the tail percentile to have
    TAIL_SAMPLES samples beyond it.  With a tracer, odd rounds are traced."""
    min_samples = math.ceil(TAIL_SAMPLES * 100 / (100 - workload.TAIL_PERCENTILE))
    rounds, latencies, round_times = [], [], {False: [], True: []}
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        per_round = elapsed / max(len(rounds), 1)
        enough = elapsed + per_round / 2 >= args.seconds and len(latencies) >= min_samples
        if enough and (tracer is None or tracer.rounds > 0):
            break
        r = len(rounds)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        outputs = []
        round_start = time.perf_counter()
        for i, task in enumerate(tasks):
            if traced:
                tracer.task = f"r{r}.t{i}"
            t0 = time.perf_counter()
            outputs.append(workload.run(task, workdir / f"r{r}" / f"t{i}"))
            latencies.append(time.perf_counter() - t0)
        round_times[traced].append(time.perf_counter() - round_start)
        if traced:
            tracer.uninstall()
            tracer.rounds += 1
        rounds.append(outputs)
    wall = time.perf_counter() - begin
    return rounds, latencies, wall, round_times


def percentile(values, q):
    """Linear-interpolation percentile of a sample (numpy's default rule)."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tally(tasks, verdicts):
    attempted = failed = 0
    unexpected = []
    for r, row in enumerate(verdicts):
        for task, verdict in zip(tasks, row):
            attempted += 1
            if verdict is None:
                continue
            failed += 1
            if task.known_fault is None:
                unexpected.append(f"round {r} {task.label}: {verdict}")
            elif r == 0:
                print(f"# known fault, {task.label}: {verdict}", file=sys.stderr)
    return attempted, failed, unexpected


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return probe_setup(args)

    workdir = OUT / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        workload, tasks = setup(args.workload, args.seed)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        half = SETUP_PROBES // 2
        probes = measure_setup(args, half) if tracer is None else []
        rounds, latencies, wall, round_times = timed_rounds(workload, tasks, args, workdir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            probes += measure_setup(args, SETUP_PROBES - half)

        try:
            verdicts = workload.check(tasks, rounds)
        except Exception as exc:  # a check that cannot run leaves the run unverified
            verdicts = None
            print(f"# checks failed to run: {exc!r}", file=sys.stderr)
        if verdicts is None:
            attempted, failed, unexpected = len(latencies), len(latencies), ["checks did not run"]
        else:
            attempted, failed, unexpected = tally(tasks, verdicts)
        for line in unexpected[:10]:
            print(f"# FAILED {line}", file=sys.stderr)

        q = workload.TAIL_PERCENTILE
        summary = (f"# {args.workload} seed={args.seed} rounds={len(rounds)} "
                   f"tasks/round={len(tasks)} samples={len(latencies)} tail=p{q}")
        if tracer is None:
            setup_s = statistics.median(probes)
            metrics = {
                "tasks_per_s": (len(latencies) / wall, "1/s"),
                "task_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
                "task_tail_ms": (1e3 * percentile(latencies, q), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            print(summary + " setup_probes_s=" + ",".join(f"{t:.3f}" for t in probes))
        else:
            untraced = statistics.median(round_times[False])
            traced = statistics.median(round_times[True])
            overhead = traced / untraced - 1.0
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "tracing_overhead": overhead})
            metrics = {k: (v["value"], v["unit"]) for k, v in tracer.metrics().items()}
            print(summary + f" traced_rounds={tracer.rounds} tracing_overhead={100 * overhead:.1f}%"
                  f" spans={trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
