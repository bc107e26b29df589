"""Workload ``cli_queries``: a seeded stream of short in-process CLI commands.

Each round runs ``analyze``, ``reduce``, ``equilibrium`` and ``simulate``
(fixed-step RK4 over a modest ``t_end``) on configs drawn from the scenario
parameter grids and from inline ring models with a shifted saturation at
moderate shift s.  Per-call overhead, config parsing, file writing and
``integrate`` do the work here; ``settle`` does none.

Every round also runs four fixed large-shift operations (ring with
``Saturation.shifted`` at s = 18 and s = 20, ``analyze`` and ``reduce``).
The shifted saturation divides by 1 - tanh(s)**2, which cancels to nothing
at these shifts, so ``analyze`` at s = 20 reports u0* = NaN, ``reduce`` at
s = 20 exits 1 and ``reduce`` at s = 18 returns wrong coefficients.  These
three are counted as failed until that fault is mended; their inputs do not
depend on the seed, so the failed share is the same in every run.
``analyze`` at s = 18 is right and is checked like every other operation.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

import oracle
from common import EIG_TOL, RESIDUAL_TOL, Task, close, run_cli

TAIL_PERCENTILE = 98
T_END = 40.0
DT = 0.01

LARGE_SHIFT_FAULT = "shifted saturation divides by 1 - tanh(s)**2 (model.Saturation)"
LARGE_SHIFT = [("analyze", 18.0), ("analyze", 20.0), ("reduce", 18.0), ("reduce", 20.0)]
#: the large-shift operations the fault breaks; ``analyze`` at s = 18 is
#: right today and must pass like any other operation
LARGE_SHIFT_FAILING = {("analyze", 20.0), ("reduce", 18.0), ("reduce", 20.0)}
LARGE_SHIFT_M_BAR = 0.5

#: the reduced-map closed forms hold exactly; modnod's finite differences
#: reach them to about 0.1%
REDUCE_REL = 0.01
#: RK4's global error is of order h**4 times the solution's scale; at
#: h = 0.01 that is 1e-8, over 100 times the largest relative final-state
#: error seen on these configs (6e-11 over 280 runs)
RK4_TOL = DT ** 4


def _ring_model_doc(m_bar, shift):
    model = oracle.ring(m_bar, shift)
    doc = model.to_json()
    return {"model": {k: doc[k] for k in ("A", "M", "n", "saturation")}}, model


def _draw_scenario(rng, name):
    if name == "two_node":
        params = {"m_strength": float(rng.uniform(0.5, 2.0)), "n": int(rng.integers(1, 4))}
    elif name == "influencer_ring":
        params = {"m_bar": float(rng.uniform(0.1, 1.0))}
    else:
        # alpha > beta keeps a strict leading eigenvalue
        params = {"alpha": float(rng.uniform(1.0, 2.0)), "beta": float(rng.uniform(0.2, 0.6)),
                  "m_bar": float(rng.uniform(0.0, 2.0))}
    return {"scenario": {"name": name, **params}}, oracle.scenario(name, params)


def _draw(rng, family):
    if family == "shifted_ring":
        return _ring_model_doc(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.25, 3.0)))
    return _draw_scenario(rng, family)


def _equilibrium_guess(rng, family, model, params):
    """A point on an equilibrium branch, from the scalar references, and its u0."""
    if family == "two_node":
        x1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 0.8)
        return oracle.two_node_state(x1, params["m_strength"], params["n"])
    if family in ("influencer_ring", "shifted_ring"):
        shift = model.shift
        m_bar = model.T[0, 1, 0]
        # negative consensus exists for every m_bar >= 0; the shifted S is
        # bounded below by -(1 + exp(-2 s)) / 2 <= -1/2
        a = -rng.uniform(0.2, 0.45)
        return a * np.ones(oracle.RING_N), float(oracle.ring_u0(a, m_bar, shift))
    a = rng.uniform(0.5, 0.95)
    alpha = -model.A[0, 1]
    x = rng.choice([-1.0, 1.0]) * np.array([a, -a, 0.0, 0.0])
    return x, float(np.arctanh(a) / (alpha * a))


def build(seed):
    rng = np.random.default_rng(seed)
    tasks = []

    def add(kind, family, doc, model, params, known_fault=None, **inputs):
        doc = dict(doc, params=params)
        tasks.append(Task(kind, f"{kind} {family}", {"config": json.dumps(doc), "model": model,
                                                     "family": family, **inputs},
                          known_fault))

    for family in ("two_node", "influencer_ring", "drive_steer", "shifted_ring", "two_node"):
        doc, model = _draw(rng, family)
        add("analyze", family, doc, model, {})
    for family in ("influencer_ring", "shifted_ring") * 2 + ("influencer_ring",):
        doc, model = _draw(rng, family)
        add("reduce", family, doc, model, {})
    for family in ("two_node",) * 3 + ("influencer_ring", "shifted_ring") + ("drive_steer",) * 2 \
            + ("shifted_ring",):
        doc, model = _draw(rng, family)
        params = doc.get("scenario", {})
        x, u0 = _equilibrium_guess(rng, family, model, params)
        x0 = x + 0.03 * rng.standard_normal(model.N)
        add("equilibrium", family, doc, model, {"u0": u0, "x0": x0.tolist()}, u0=u0)
    for family, (lo, hi) in (("drive_steer", (1.5, 3.0)), ("shifted_ring", (0.7, 1.0))):
        doc, model = _draw(rng, family)
        vals, vecs = np.linalg.eig(model.A)
        lead = vecs[:, np.argmax(vals.real)].real
        u0 = float(rng.uniform(lo, hi))
        x0 = rng.choice([-1.0, 1.0]) * 0.3 * lead + 0.02 * rng.standard_normal(model.N)
        add("simulate", family, doc, model, {"u0": u0, "x0": x0.tolist(), "t_end": T_END},
            u0=u0, x0=x0)
    for kind, shift in LARGE_SHIFT:
        doc, model = _ring_model_doc(LARGE_SHIFT_M_BAR, shift)
        fault = LARGE_SHIFT_FAULT if (kind, shift) in LARGE_SHIFT_FAILING else None
        add(kind, f"large-shift s={shift:g}", doc, model, {}, known_fault=fault)

    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


def run(task, outdir):
    return run_cli([task.kind, "--config", task.inputs["config"]], outdir)


# ---------------------------------------------------------------------------
# checks


def _load(result, name):
    return json.loads((result.outdir / name).read_text(encoding="utf-8"))


def check_analyze(task, result, problems):
    doc = _load(result, "analysis.json")
    A = task.inputs["model"].A
    vals = np.linalg.eigvals(A)
    lam = float(np.max(vals.real))
    u0_star = 1.0 / (float(task.inputs["model"].dS(0.0)) * lam)
    if not close(doc["u0_star"], u0_star, 1e-10):
        problems.append(f"u0_star {doc['u0_star']!r}, reference 1/lambda_max = {u0_star!r}")
    if not close(doc["lambda_max"], lam, 1e-10):
        problems.append(f"lambda_max {doc['lambda_max']!r}, reference {lam!r}")
    others = np.sort(vals.real)[:-1]
    if not close(doc["spectral_gap"], lam - others[-1], 1e-9):
        problems.append(f"spectral_gap {doc['spectral_gap']!r}, reference {lam - others[-1]!r}")
    if not np.allclose(np.sort(doc["spectrum_real"]), np.sort(vals.real), atol=1e-9):
        problems.append("spectrum differs from the reference eigenvalues")
    v, w = np.array(doc["v_max"]), np.array(doc["w_max"])
    if not (np.linalg.norm(A @ v - lam * v) <= 1e-9 and abs(np.linalg.norm(v) - 1) <= 1e-12):
        problems.append("v_max is not a unit right eigenvector for lambda_max")
    if not (np.linalg.norm(w @ A - lam * w) <= 1e-9 * np.linalg.norm(w) and abs(w @ v - 1) <= 1e-9):
        problems.append("w_max is not a left eigenvector paired to v_max")


def check_reduce(task, result, problems):
    doc = _load(result, "reduce.json")
    model = task.inputs["model"]
    want = oracle.ring_reduced_map(model.T[0, 1, 0], model.shift)
    for key, rel in (("u0_star", 1e-10), ("g_vu0", REDUCE_REL), ("g_vv", REDUCE_REL),
                     ("g_vvv", REDUCE_REL)):
        if not close(doc[key], want[key], rel):
            problems.append(f"{key} {doc[key]!r}, closed form {want[key]!r}")
    if abs(want["g_vv"]) > 1e-4 * abs(want["g_vu0"]):
        kind = "Transcritical"
    elif want["g_vvv"] * want["g_vu0"] < 0:
        kind = "SupercriticalPitchfork"
    else:
        kind = "SubcriticalPitchfork"
    if doc["classification"] != kind:
        problems.append(f"classification {doc['classification']}, closed form {kind}")
    if not np.allclose(doc["kernel"], np.ones(oracle.RING_N), atol=1e-9):
        problems.append("kernel is not the max-entry-normalised consensus vector")


def check_equilibrium(task, result, problems):
    doc = _load(result, "equilibrium.json")
    model, u0 = task.inputs["model"], task.inputs["u0"]
    x = np.array(doc["x"])
    if doc["u0"] != u0:
        problems.append(f"u0 {doc['u0']!r} is not the requested {u0!r}")
    res = np.linalg.norm(model.F(x, u0))
    if not res <= RESIDUAL_TOL:
        problems.append(f"residual {res:.2e}")
    lead = model.leading_eig(x, u0)
    if not abs(lead - doc["leading_jac_eig"]) <= EIG_TOL:
        problems.append(f"leading eigenvalue {doc['leading_jac_eig']!r}, reference {lead!r}")
    if abs(lead) > 1e-12 and doc["stable"] != (lead < 0):
        problems.append(f"stable={doc['stable']} but leading eigenvalue {lead:.3e}")


def check_simulate(task, result, problems):
    rows = list(csv.reader(io.StringIO((result.outdir / "trajectory.csv").read_text(encoding="utf-8"))))
    model, u0, x0 = task.inputs["model"], task.inputs["u0"], task.inputs["x0"]
    if rows[0] != ["t"] + [f"x_{i + 1}" for i in range(model.N)]:
        problems.append(f"unexpected header {rows[0]}")
        return
    data = np.array(rows[1:], dtype=float)
    t = data[:, 0]
    steps = round(T_END / DT)
    # exactly one row per step on the uniform grid k * DT; a clock that
    # drifts past T_END adds a row a rounding error long
    if not (len(t) == steps + 1 and np.allclose(t, DT * np.arange(steps + 1), rtol=0, atol=1e-9)):
        problems.append(f"time grid: {len(t)} samples from {t[0]!r} to {t[-1]!r}, "
                        f"expected {steps + 1} at multiples of {DT}")
    if not np.array_equal(data[0, 1:], x0):
        problems.append("first row is not x0")
    ref = oracle.trajectory_end(model, x0, u0, t[-1])
    err = np.linalg.norm(data[-1, 1:] - ref) / max(1.0, np.linalg.norm(ref))
    if not err <= RK4_TOL:
        problems.append(f"final state off the DOP853 reference by {err:.2e} (relative) "
                        f"> {RK4_TOL:.0e}")


CHECKS = {"analyze": check_analyze, "reduce": check_reduce,
          "equilibrium": check_equilibrium, "simulate": check_simulate}
OUTPUTS = {"analyze": "analysis.json", "reduce": "reduce.json",
           "equilibrium": "equilibrium.json", "simulate": "trajectory.csv"}


def check_output(task, result):
    if result.code != 0:
        return f"exit {result.code}: {result.stderr.strip()[-200:]}"
    problems = []
    spec = _load(result, "spec.json")
    if spec != task.inputs["model"].to_json():
        problems.append("spec.json differs from the requested model")
    CHECKS[task.kind](task, result, problems)
    return "; ".join(problems[:4]) if problems else None


def check(tasks, rounds):
    """Round 0 against the references; later rounds byte-identical to it."""
    verdicts = [[None] * len(tasks) for _ in rounds]
    for i, task in enumerate(tasks):
        first = rounds[0][i]
        try:
            verdicts[0][i] = check_output(task, first)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            verdicts[0][i] = f"unreadable output: {exc!r}"
        files = (OUTPUTS[task.kind], "spec.json")
        golden = None if first.code != 0 else [(first.outdir / f).read_bytes() for f in files]
        for r in range(1, len(rounds)):
            res = rounds[r][i]
            if res.code != first.code:
                verdicts[r][i] = f"exit {res.code}, round 0 exited {first.code}"
            elif golden is not None and [(res.outdir / f).read_bytes() for f in files] != golden:
                verdicts[r][i] = "output differs from round 0"
            else:
                verdicts[r][i] = verdicts[0][i]
    return verdicts
