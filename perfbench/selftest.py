#!/usr/bin/env python3
"""Self-tests of the benchmark's checks and references.

    python3 perfbench/selftest.py

Part 1 shows that the checks reject perturbed outputs: a shifted CSV
coordinate, a flipped ``stable`` flag, a moved event, a wrong attractor,
and wrong CLI query results.  Part 2 shows that the reference code
reproduces the closed forms the checks rely on.  Prints one PASS/FAIL line
per case and exits 1 if any fails.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cli_queries  # noqa: E402
import diagram_scenarios  # noqa: E402
import oracle  # noqa: E402
import settle_basins  # noqa: E402
from common import CliResult  # noqa: E402

FAILURES = []


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def edit_copy(src: Path, dst: Path, name: str, edit):
    shutil.copytree(src, dst)
    path = dst / name
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return CliResult(0, dst, "")


def replace_field(line: str, index: int, value: str) -> str:
    cells = line.split(",")
    cells[index] = value
    return ",".join(cells)


# ---------------------------------------------------------------------------
# part 1: the checks reject perturbed outputs


def diagram_cases(tmp: Path):
    [task] = [t for t in diagram_scenarios.build(0) if t.inputs["params"].get("n") == 2]
    good = diagram_scenarios.run(task, tmp / "good")
    report("diagram: unperturbed output passes", diagram_scenarios.check_output(task, good) is None,
           str(diagram_scenarios.check_output(task, good)))

    lines = (good.outdir / "diagram.csv").read_text(encoding="utf-8").splitlines()
    point = next(i for i, l in enumerate(lines[1:], 1) if ",-1," not in l and float(l.split(",")[3]) > 0.3)
    event = next(i for i, l in enumerate(lines) if ",-1," in l and "Pitchfork" in l)
    stable_col = lines[0].split(",").index("stable")

    def shift_coordinate(text):
        rows = text.splitlines()
        rows[point] = replace_field(rows[point], 3, repr(float(rows[point].split(",")[3]) + 1e-9))
        return "\n".join(rows) + "\n"

    def flip_stable(text):
        rows = text.splitlines()
        flag = rows[point].split(",")[stable_col]
        rows[point] = replace_field(rows[point], stable_col, "false" if flag == "true" else "true")
        return "\n".join(rows) + "\n"

    def move_event(text):
        rows = text.splitlines()
        rows[event] = replace_field(rows[event], 2, repr(float(rows[event].split(",")[2]) + 1e-3))
        return "\n".join(rows) + "\n"

    def drop_event(text):
        rows = text.splitlines()
        del rows[event]
        return "\n".join(rows) + "\n"

    def relabel_pitchfork(text):
        return text.replace("Pitchfork", "Transcritical")

    def fill_marker(text):
        return text.replace('fill="white"', 'fill="#1f77b4"')

    cases = [("shifted CSV coordinate (1e-9)", "diagram.csv", shift_coordinate),
             ("flipped stable flag", "diagram.csv", flip_stable),
             ("moved event (1e-3 in u0)", "diagram.csv", move_event),
             ("missing event", "diagram.csv", drop_event),
             ("wrong classification", "diagram.csv", relabel_pitchfork),
             ("supercritical marker on a subcritical pitchfork", "diagram.svg", fill_marker)]
    for k, (name, file, edit) in enumerate(cases):
        bad = edit_copy(good.outdir, tmp / f"bad{k}", file, edit)
        verdict = diagram_scenarios.check_output(task, bad)
        report(f"diagram: rejects {name}", verdict is not None)

    # byte comparison across rounds
    rounds = [[good], [edit_copy(good.outdir, tmp / "later", "diagram.svg",
                                 lambda t: t.replace("</svg>", "<!-- -->\n</svg>"))]]
    verdicts = diagram_scenarios.check([task], rounds)
    report("diagram: rejects a later round that differs in bytes", verdicts[1][0] is not None)


def settle_cases(tmp: Path):
    folds = {n: oracle.folds("two_node", {"m_strength": 1.0, "n": n}, 0.0, 1.0) for n in (1, 2)}
    report("settle: window folds are the reference folds",
           all(folds[n] == [u] for n, u in settle_basins.WINDOW_FOLDS.items()), str(folds))
    tasks = settle_basins.build(0)
    window = next(t for t in tasks if t.label.startswith("window:n1-arm"))
    good = settle_basins.run(window, None)
    report("settle: settled arm state passes", settle_basins.check_state(window, good) is None,
           str(settle_basins.check_state(window, good)))
    # the neutral state is a stable equilibrium too, but not the attractor of this x0
    verdict = settle_basins.check_state(window, np.zeros(2))
    report("settle: rejects the wrong attractor (neutral instead of arm)", verdict is not None)
    verdict = settle_basins.check_state(window, good + 1e-6)
    report("settle: rejects a state off the equilibrium by 1e-6", verdict is not None)
    bracket = next(t for t in tasks if t.label.startswith("bracket:m2-dr+0.02"))
    below = bracket.inputs["x0"].copy()
    below[2:] = 0.0
    below = bracket.inputs["model"].polish(below, bracket.inputs["u0"])
    verdict = settle_basins.check_state(bracket, below)
    report("settle: rejects the undecided steering saddle above the transition", verdict is not None)


def cli_cases(tmp: Path):
    tasks = cli_queries.build(0)

    def json_edit(edit):
        def apply(text):
            doc = json.loads(text)
            edit(doc)
            return json.dumps(doc, indent=2) + "\n"
        return apply

    cases = [("reduce", "g_vv off by 2%", lambda d: d.update(g_vv=d["g_vv"] * 1.02)),
             ("analyze", "u0_star off by 1e-8", lambda d: d.update(u0_star=d["u0_star"] * (1 + 1e-8))),
             ("equilibrium", "x_1 off by 1e-9", lambda d: d["x"].__setitem__(0, d["x"][0] + 1e-9)),
             ("equilibrium", "flipped stable flag", lambda d: d.update(stable=not d["stable"]))]
    for k, (kind, name, edit) in enumerate(cases):
        task = next(t for t in tasks if t.kind == kind and t.known_fault is None)
        good = cli_queries.run(task, tmp / f"good{k}")
        verdict = cli_queries.check_output(task, good)
        report(f"{kind}: unperturbed output passes", verdict is None, str(verdict))
        bad = edit_copy(good.outdir, tmp / f"bad{k}", cli_queries.OUTPUTS[kind], json_edit(edit))
        report(f"{kind}: rejects {name}", cli_queries.check_output(task, bad) is not None)

    task = next(t for t in tasks if t.kind == "simulate")
    good = cli_queries.run(task, tmp / "sim-good")
    report("simulate: unperturbed output passes", cli_queries.check_output(task, good) is None,
           str(cli_queries.check_output(task, good)))

    def nudge_last(text):
        rows = text.rstrip("\n").split("\n")
        rows[-1] = replace_field(rows[-1], 1, repr(float(rows[-1].split(",")[1]) + 1e-5))
        return "\n".join(rows) + "\n"

    bad = edit_copy(good.outdir, tmp / "sim-bad", "trajectory.csv", nudge_last)
    report("simulate: rejects a final state moved by 1e-5", cli_queries.check_output(task, bad) is not None)

    def extra_row(text):
        # the row a drifting clock adds: one more step a rounding error long
        rows = text.rstrip("\n").split("\n")
        cells = rows[-1].split(",")
        rows.append(",".join([repr(float(cells[0]) + 1.4e-12)] + cells[1:]))
        return "\n".join(rows) + "\n"

    bad = edit_copy(good.outdir, tmp / "sim-extra", "trajectory.csv", extra_row)
    report("simulate: rejects an extra row 1.4e-12 after t_end",
           cli_queries.check_output(task, bad) is not None)

    for task in (t for t in tasks if t.label.startswith(f"{t.kind} large-shift")):
        out = cli_queries.run(task, tmp / task.label.replace(" ", "_"))
        verdict = cli_queries.check_output(task, out)
        expect_fail = task.known_fault is not None
        report(f"{task.label}: {'fails' if expect_fail else 'passes'} as documented",
               (verdict is not None) == expect_fail, str(verdict))
    report("large shift: exactly analyze s=20, reduce s=18 and reduce s=20 may fail",
           sorted(t.label for t in tasks if t.known_fault)
           == ["analyze large-shift s=20", "reduce large-shift s=18", "reduce large-shift s=20"])


# ---------------------------------------------------------------------------
# part 2: the references reproduce the closed forms


def reference_cases():
    steer = oracle.steering_events(1.0, 0.3, 2.0, 0.05, 11.0)
    want = {"dr": [1.0424105], "st": [1.2224880, 3.3154557, 9.9999999727]}
    ok = all(len(steer[k]) == len(v) and all(abs(a - b) <= 5e-8 for a, b in zip(steer[k], v))
             for k, v in want.items())
    report("steering events of drive_steer m_bar=2 on dr/st", ok, str(steer))
    steer0 = oracle.steering_events(1.0, 0.3, 0.0, 0.05, 4.0)
    report("steering events of drive_steer m_bar=0 at 1/beta",
           all(abs(v[0] - 10 / 3) < 1e-12 for v in steer0.values()), str(steer0))

    neutral = {"two_node": (oracle.two_node(), (0.0, 1.5), [1.0]),
               "ring": (oracle.ring(0.5), (0.05, 1.2), [0.5]),
               "drive_steer": (oracle.drive_steer(m_bar=2.0), (0.05, 11.0), [1.0, 10 / 3])}
    for name, (model, (lo, hi), want_u0) in neutral.items():
        got = oracle.neutral_events(model, lo, hi)
        report(f"neutral events of {name} at 1/lambda", np.allclose(got, want_u0, atol=1e-12), str(got))

    kinds = [oracle.neutral_kind("two_node", {"n": n}, 1.0) for n in (1, 2, 3)]
    report("two-node classifications Transcritical / subcritical / supercritical",
           kinds == [("Transcritical", False), ("Pitchfork", True), ("Pitchfork", False)], str(kinds))

    # reduced map of the ring: the closed forms against finite differences of
    # g(v, u0) = <w, F(v 1, u0)> on the invariant consensus line
    w = np.ones(oracle.RING_N) / oracle.RING_N
    for m_bar, shift in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.5, 1.5), (0.2, 3.0)):
        model = oracle.ring(m_bar, shift)
        g = lambda v, u: float(w @ model.F(v * np.ones(oracle.RING_N), u))
        f = model.F(0.3 * np.ones(oracle.RING_N), 0.7)
        invariant = np.ptp(f) <= 1e-15 * max(1.0, np.max(np.abs(f)))
        h, k = 1e-3, 1e-4
        fd = {"g_vv": (g(h, .5) - 2 * g(0, .5) + g(-h, .5)) / h ** 2,
              "g_vvv": (g(2 * h, .5) - 2 * g(h, .5) + 2 * g(-h, .5) - g(-2 * h, .5)) / (2 * h ** 3),
              "g_vu0": (g(h, .5 + k) - g(-h, .5 + k) - g(h, .5 - k) + g(-h, .5 - k)) / (4 * h * k)}
        closed = oracle.ring_reduced_map(m_bar, shift)
        ok = invariant and all(abs(fd[key] - closed[key]) <= 1e-4 * max(1.0, abs(closed[key]))
                               for key in fd)
        report(f"ring reduced map closed forms at m_bar={m_bar}, s={shift}", ok,
               f"fd {fd}, closed {closed}")
    closed = oracle.ring_reduced_map(0.5, 20.0)
    report("ring reduced map at s=20: g_vv = 4 m_bar + 2, g_vvv = 24 m_bar + 4",
           abs(closed["g_vv"] - 4.0) < 1e-12 and abs(closed["g_vvv"] - 16.0) < 1e-12, str(closed))

    # the overflow-free saturation against the defining formula, and its
    # derivatives at 0 against finite differences
    z = np.linspace(-3, 3, 61)
    for s in (0.0, 0.5, 3.0):
        model = oracle.Model(np.zeros((1, 1)), (), 1, s)
        direct = (np.tanh(z - s) + math.tanh(s)) / (1 - math.tanh(s) ** 2)
        h = 1e-3
        d2 = (model.S(h) - 2 * model.S(0.0) + model.S(-h)) / h ** 2
        d3 = (model.S(2 * h) - 2 * model.S(h) + 2 * model.S(-h) - model.S(-2 * h)) / (2 * h ** 3)
        ok = (np.allclose(model.S(z), direct, rtol=1e-13, atol=1e-15)
              and np.allclose(model.dS(z), (1 - np.tanh(z - s) ** 2) / (1 - math.tanh(s) ** 2),
                              rtol=1e-12)
              and abs(d2 - model.d2S0()) < 1e-5 and abs(d3 - model.d3S0()) < 1e-4)
        report(f"shifted saturation identity and S''(0), S'''(0) at s={s}", ok)
    big = oracle.Model(np.zeros((1, 1)), (), 1, 20.0)
    report("shifted saturation at s=20 is finite with S(0) = 0, S'(0) = 1",
           big.S(0.0) == 0.0 and abs(big.dS(0.0) - 1.0) < 1e-15 and np.isfinite(big.S(0.01))
           and abs(big.S(0.01) / 0.01 - 1.0) < 0.05)

    # the reference Jacobian against central differences of the reference field
    rng = np.random.default_rng(7)
    worst = 0.0
    for model in (oracle.two_node(1.3, 2), oracle.ring(0.7, 1.0), oracle.drive_steer(1.2, 0.4, 2.0),
                  oracle.two_node(0.8, 3)):
        x, u0 = rng.uniform(-1, 1, model.N), rng.uniform(0.2, 2.0)
        fd = np.column_stack([(model.F(x + e, u0) - model.F(x - e, u0)) / 2e-6
                              for e in 1e-6 * np.eye(model.N)])
        worst = max(worst, float(np.max(np.abs(fd - model.J(x, u0)))))
    report("reference Jacobian matches central differences", worst < 1e-7, f"{worst:.1e}")


def main():
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as tmp:
        tmp = Path(tmp)
        for part in (diagram_cases, settle_cases, cli_cases):
            sub = tmp / part.__name__
            sub.mkdir()
            part(sub)
    reference_cases()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
