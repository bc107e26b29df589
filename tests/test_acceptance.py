"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.

Note on criterion 2: the required anchor for the cross-derivative g_vu0 is
3, but the closed-form consensus-subspace oracle (see test_reduction) and
the branch asymptotics a^2 ~ 6*(u0 - 1/2) both prove the true value under
the all-ones kernel normalization is lambda_max = 2; the 3 is inconsistent
with the other two anchors (g_vv = 4*m_bar, g_vvv = -2), which do hold.
That sub-check is asserted as required and is expected to fail; the full
analysis lives in the project notes.
"""

import json

import numpy as np
import pytest

from modnod import (
    EventKind,
    NetworkSpec,
    NotSettled,
    StepParams,
    branch_point_at,
    build_drive_steer,
    build_influencer_ring,
    build_two_node,
    critical_attention,
    diagram,
    jacobian,
    leading_eigenpair,
    ls_derivatives,
    max_entry_normalized,
    newton_equilibrium,
    settle,
    trace_branch,
    vector_field,
)
from modnod.cli import main as cli_main
from modnod.config import parse_config, spec_to_json
from modnod.reduction import Classification
from modnod.scenarios import drive_steer_label


def finish(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num}] {status} - {desc}")
    for f in failures:
        print(f"    {f}")
    assert not failures, f"criterion {num} failed: {failures}"


def check(failures, cond, message):
    if not cond:
        failures.append(message)


# -- criterion 1 --------------------------------------------------------------

def test_criterion_1_critical_attention():
    failures = []
    for m in (0.0, 1.0, 2.5):
        for n in (1, 2, 3):
            got = critical_attention(build_two_node(m, n))
            check(failures, abs(got - 1.0) < 1e-10,
                  f"two_node(m={m}, n={n}): u0* = {got!r}, expected 1")
    for m_bar in (0.0, 0.25, 0.5, 1.0):
        got = critical_attention(build_influencer_ring(m_bar))
        check(failures, abs(got - 0.5) < 1e-10,
              f"influencer_ring({m_bar}): u0* = {got!r}, expected 0.5")
    for alpha in (1.0, 2.0):
        for m_bar in (0.0, 2.0):
            got = critical_attention(build_drive_steer(alpha, 0.3, m_bar))
            check(failures, abs(got - 1.0 / alpha) < 1e-10,
                  f"drive_steer(alpha={alpha}, m_bar={m_bar}): u0* = {got!r}")
    # independence of M: exact equality across modulation weights
    ref = critical_attention(build_influencer_ring(0.0))
    for m_bar in (0.25, 1.0):
        check(failures, critical_attention(build_influencer_ring(m_bar)) == ref,
              f"u0* changed with m_bar={m_bar}")
    finish(1, "critical attention 1, 1/2, 1/alpha to 1e-10, independent of M",
           failures)


# -- criterion 2 --------------------------------------------------------------

def test_criterion_2_reduced_map_coefficients():
    failures = []
    for m_bar in (0.0, 0.25, 0.5, 1.0):
        spec = build_influencer_ring(m_bar)
        rep = ls_derivatives(spec, max_entry_normalized(leading_eigenpair(spec)))
        check(failures, abs(rep.g_vu0 - 3.0) <= 0.01 * 3.0,
              f"m_bar={m_bar}: g_vu0 = {rep.g_vu0:.6f}, required 3 +- 1% "
              f"(oracle value is lambda_max = 2; see module docstring)")
        if m_bar == 0.0:
            check(failures, abs(rep.g_vv) < 1e-6,
                  f"m_bar=0: g_vv = {rep.g_vv:.2e}, expected 0")
            check(failures,
                  rep.classification == Classification.SUPERCRITICAL_PITCHFORK,
                  f"m_bar=0: classification {rep.classification.value}")
        else:
            check(failures, abs(rep.g_vv - 4 * m_bar) <= 0.01 * 4 * m_bar,
                  f"m_bar={m_bar}: g_vv = {rep.g_vv:.6f}, expected {4 * m_bar}")
            check(failures, rep.classification == Classification.TRANSCRITICAL,
                  f"m_bar={m_bar}: classification {rep.classification.value}")
        check(failures, abs(rep.g_vvv - (-2.0)) <= 0.01 * 2.0,
              f"m_bar={m_bar}: g_vvv = {rep.g_vvv:.6f}, expected -2")
    finish(2, "ring reduced-map coefficients (g_vu0 = 3, g_vv = 4m, g_vvv = -2, "
              "1% rel) and classifications", failures)


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_two_node_orders():
    failures = []
    expected = {
        1: Classification.TRANSCRITICAL,
        2: Classification.SUBCRITICAL_PITCHFORK,
        3: Classification.SUPERCRITICAL_PITCHFORK,
    }
    for n in (1, 2, 3):
        branches = diagram(build_two_node(1.0, n), (0.0, 1.5))
        neutral_events = [e for e in branches[0].events]
        check(failures, len(neutral_events) == 1,
              f"n={n}: {len(neutral_events)} neutral events")
        if not neutral_events:
            continue
        ev = neutral_events[0]
        check(failures, abs(ev.u0 - 1.0) < 1e-6,
              f"n={n}: event at u0={ev.u0!r}, expected 1 +- 1e-6")
        got = ev.detail.classification if ev.detail else None
        check(failures, got == expected[n],
              f"n={n}: classification {got and got.value}, expected {expected[n].value}")
        if n in (1, 2):
            folds = [e for b in branches for e in b.events
                     if e.kind == EventKind.SADDLE_NODE]
            check(failures, bool(folds), f"n={n}: no saddle-node found")
            if not folds:
                continue
            u0_sn = min(e.u0 for e in folds)
            check(failures, u0_sn < 1.0, f"n={n}: fold at {u0_sn} >= 1")
            # independent bistability check inside the window
            spec = build_two_node(1.0, n)
            u0_mid = 0.5 * (u0_sn + 1.0)
            stable_arm = [p for b in branches[1:] for p in b.points
                          if p.stable and abs(p.u0 - u0_mid) < 0.05]
            check(failures, bool(stable_arm),
                  f"n={n}: no stable arm point near u0={u0_mid:.3f}")
            if not stable_arm:
                continue
            x_neutral = settle(spec, np.array([0.01, -0.01]), u0_mid,
                               tol=1e-9, t_max=5000)
            x_arm = settle(spec, stable_arm[0].x + 1e-3, u0_mid,
                           tol=1e-9, t_max=5000)
            check(failures, np.linalg.norm(x_arm - x_neutral) > 0.1,
                  f"n={n}: attractors at u0={u0_mid:.3f} only "
                  f"{np.linalg.norm(x_arm - x_neutral):.3f} apart")
    finish(3, "two-node orders: transcritical/subcritical/supercritical at "
              "u0=1, folds below 1 with verified bistability", failures)


# -- criterion 4 --------------------------------------------------------------

def steering_sweep_bracket(spec, branch, u0_event, kernel):
    """Settle on a u0 grid of step 0.01 around a steering event; returns
    the (below, above) bracket of decided outcomes."""
    below, above = [], []
    for du in np.arange(-0.05, 0.051, 0.01):
        u0 = u0_event + du
        nearest = min(branch.points, key=lambda p: abs(p.u0 - u0))
        try:
            base = newton_equilibrium(spec, nearest.x, u0)
        except Exception:
            continue
        x0 = base + 1e-2 * kernel
        try:
            x_final = settle(spec, x0, u0, tol=1e-7, t_max=2500, dt=0.05)
        except NotSettled:
            continue  # undecided, too close to the transition
        amp = abs(x_final[2] - base[2])
        if amp < 2e-3:
            below.append(u0)
        elif amp > 5e-3:
            above.append(u0)
    return (max(below) if below else None, min(above) if above else None)


def test_criterion_4_conditional_steering():
    failures = []

    # m_bar = 0: both steering events at 1/beta = 10/3, equal
    spec0 = build_drive_steer(1.0, 0.3, 0.0)
    branches0 = diagram(spec0, (0.05, 4.0), labeler=drive_steer_label)
    by_label = {b.label: b for b in branches0}
    events = {}
    for lbl in ("dr", "st"):
        check(failures, lbl in by_label, f"m=0: no {lbl} branch")
        if lbl in by_label:
            evs = by_label[lbl].events
            check(failures, len(evs) >= 1, f"m=0: no event on {lbl} branch")
            if evs:
                events[lbl] = min(e.u0 for e in evs)
    if len(events) == 2:
        for lbl, e in events.items():
            check(failures, abs(e - 10.0 / 3.0) <= 1e-3,
                  f"m=0: {lbl} steering event at {e!r}, expected 10/3 +- 1e-3")
        check(failures, abs(events["dr"] - events["st"]) <= 1e-3,
              f"m=0: events differ: {events}")

    # m_bar = 2: drive steering strictly earlier than stay steering
    spec2 = build_drive_steer(1.0, 0.3, 2.0)
    branches2 = diagram(spec2, (0.05, 11.0), labeler=drive_steer_label)
    by_label2 = {b.label: b for b in branches2}
    e_dr = e_st = None
    if "dr" in by_label2 and by_label2["dr"].events:
        e_dr = min(e.u0 for e in by_label2["dr"].events)
    if "st" in by_label2 and by_label2["st"].events:
        e_st = min(e.u0 for e in by_label2["st"].events)
    check(failures, e_dr is not None, "m=2: no dr steering event")
    check(failures, e_st is not None, "m=2: no st steering event")
    if e_dr is not None and e_st is not None:
        check(failures, e_st - e_dr > 0.1,
              f"m=2: margin {e_st - e_dr:.4f} <= 0.1 (dr={e_dr}, st={e_st})")

    # settle-sweep cross-checks (grid step 0.01)
    sweeps = [(spec0, by_label.get("dr"), events.get("dr")),
              (spec0, by_label.get("st"), events.get("st"))]
    if e_dr is not None:
        sweeps.append((spec2, by_label2.get("dr"), e_dr))
    kernel = np.array([0.0, 0.0, 1.0, -1.0]) / np.sqrt(2)
    for spec, branch, u0_event in sweeps:
        if branch is None or u0_event is None:
            continue
        lo, hi = steering_sweep_bracket(spec, branch, u0_event, kernel)
        check(failures, lo is not None and hi is not None,
              f"sweep near {u0_event:.4f}: undecided everywhere")
        if lo is not None and hi is not None:
            check(failures, lo - 1e-6 <= u0_event <= hi + 1e-6,
                  f"sweep bracket [{lo:.4f}, {hi:.4f}] misses event {u0_event:.6f}")
            check(failures, hi - lo <= 0.03 + 1e-9,
                  f"sweep bracket [{lo:.4f}, {hi:.4f}] too wide")
    finish(4, "conditional steering: equal events at 10/3 for m=0; "
              "dr before st by > 0.1 for m=2; settle sweeps agree", failures)


# -- criterion 5 --------------------------------------------------------------

def random_spec(rng):
    n = int(rng.integers(2, 7))
    A = rng.uniform(-2, 2, (n, n))
    trip = {}
    for _ in range(int(rng.integers(0, 5))):
        key = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)),
               int(rng.integers(1, n + 1)))
        trip[key] = (*key, float(rng.uniform(-2, 2)))
    return NetworkSpec(A=A, M=tuple(trip.values()),
                       order=int(rng.integers(1, 4)),
                       tau=float(rng.choice([0.5, 1.0])))


def fd_jacobian(spec, x, u0, h=1e-5):
    n = spec.N
    J = np.zeros((n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        J[:, l] = (vector_field(spec, x + e, u0)
                   - vector_field(spec, x - e, u0)) / (2 * h)
    return J


def test_criterion_5a_jacobian_vs_finite_differences():
    failures = []
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        x = rng.uniform(-2, 2, spec.N)
        u0 = rng.uniform(-2, 2)
        Jfd = fd_jacobian(spec, x, u0)
        scale = max(1.0, np.max(np.abs(Jfd)))
        worst = max(worst, np.max(np.abs(jacobian(spec, x, u0) - Jfd)) / scale)
    check(failures, worst < 1e-6, f"worst relative error {worst:.2e}")
    finish("5a", f"analytic vs FD Jacobian on 100 specs (worst {worst:.1e})",
           failures)


def test_criterion_5b_origin_jacobian_ignores_modulation():
    failures = []
    rng = np.random.default_rng(102)
    for _ in range(100):
        spec1 = random_spec(rng)
        alt = {}
        for _ in range(int(rng.integers(1, 4))):
            key = (int(rng.integers(1, spec1.N + 1)),
                   int(rng.integers(1, spec1.N + 1)),
                   int(rng.integers(1, spec1.N + 1)))
            alt[key] = (*key, float(rng.uniform(-2, 2)))
        spec2 = NetworkSpec(A=spec1.A, M=tuple(alt.values()),
                            order=spec1.order, tau=spec1.tau)
        u0 = rng.uniform(-2, 2)
        j1 = jacobian(spec1, np.zeros(spec1.N), u0)
        j2 = jacobian(spec2, np.zeros(spec2.N), u0)
        check(failures, np.array_equal(j1, j2),
              f"J(0) differs across M at u0={u0}")
        if failures:
            break
    finish("5b", "origin Jacobian exactly equal across modulation tensors",
           failures)


def test_criterion_5c_odd_equivariance():
    failures = []
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        if spec.order % 2 == 1:
            spec = NetworkSpec(A=spec.A, M=spec.M, order=2, tau=spec.tau)
        x = rng.uniform(-2, 2, spec.N)
        u0 = rng.uniform(-1, 2)
        resid = vector_field(spec, -x, u0) + vector_field(spec, x, u0)
        worst = max(worst, float(np.max(np.abs(resid))))
    check(failures, worst < 1e-12, f"worst equivariance residual {worst:.2e}")
    finish("5c", f"odd equivariance for even orders (worst {worst:.1e})", failures)


def test_criterion_5d_neutral_branch_event_locations():
    failures = []
    rng = np.random.default_rng(42)
    lo_r, hi_r = 0.05, 3.0
    worst = 0.0
    for trial in range(100):
        spec = random_spec(rng)
        lam = np.linalg.eigvals(spec.A)
        real = lam[np.abs(lam.imag) < 1e-9].real
        core = sorted(1.0 / l for l in real
                      if l != 0 and lo_r + 0.02 < 1.0 / l < hi_r - 0.02)
        full = sorted(1.0 / l for l in real
                      if l != 0 and lo_r < 1.0 / l < hi_r)
        gaps = [b - a for a, b in zip(core, core[1:])]
        max_step = float(min(0.08, min(gaps) / 3)) if gaps else 0.08
        step = StepParams(initial=min(0.02, max_step), max_step=max_step,
                          max_points=20000)
        seed = branch_point_at(spec, np.zeros(spec.N), lo_r)
        branch = trace_branch(spec, seed, (lo_r, hi_r), step)
        got = sorted(e.u0 for e in branch.events)
        err = 0.0
        for expected in core:
            err = max(err, min((abs(g - expected) for g in got), default=np.inf))
        for g in got:
            err = max(err, min((abs(g - f) for f in full), default=np.inf))
        worst = max(worst, err)
        check(failures, err < 1e-6,
              f"trial {trial}: event mismatch {err:.2e} (expected {core}, got {got})")
        if failures:
            break
    finish("5d", f"neutral-branch events match reciprocal eigenvalues "
                 f"(worst {worst:.1e})", failures)


# -- criterion 6 --------------------------------------------------------------

def test_criterion_6_input_sensitivity():
    failures = []
    ring = build_influencer_ring(0.0)
    eig = leading_eigenpair(ring)
    v, w = eig.v_max, eig.w_max
    step = StepParams(initial=0.01, max_step=0.02)

    b_perp = 1e-3 * np.array([1.0, -1.0, 0.0, 0.0, 0.0]) / np.sqrt(2)
    assert abs(b_perp @ w) < 1e-15 and abs(np.linalg.norm(b_perp) - 1e-3) < 1e-18
    spec_perp = NetworkSpec(A=ring.A, M=ring.M, order=1, b=b_perp)
    x0 = newton_equilibrium(spec_perp, np.zeros(5), 0.35)
    branch = trace_branch(spec_perp, branch_point_at(spec_perp, x0, 0.35),
                          (0.35, 0.6), step)
    window = [p for p in branch.points if 0.40 <= p.u0 <= 0.49]
    check(failures, len(window) > 3, "too few points in [0.40, 0.49]")
    worst_proj = max(abs(p.x @ v) for p in window) if window else np.inf
    check(failures, worst_proj < 1e-4,
          f"|<x, v_max>| reaches {worst_proj:.2e} on [0.40, 0.49]")
    crossing = [e for e in branch.events if abs(e.u0 - 0.5) < 0.02]
    check(failures, len(crossing) == 1,
          f"orthogonal input: {len(crossing)} crossings near 0.5, expected 1")

    b_par = 1e-3 * w / np.linalg.norm(w)
    spec_par = NetworkSpec(A=ring.A, M=ring.M, order=1, b=b_par)
    x0 = newton_equilibrium(spec_par, np.zeros(5), 0.35)
    branch_par = trace_branch(spec_par, branch_point_at(spec_par, x0, 0.35),
                              (0.35, 0.6), step)
    bad = [e for e in branch_par.events if abs(e.u0 - 0.5) < 0.02]
    check(failures, not bad,
          f"aligned input: unexpected crossing(s) at {[e.u0 for e in bad]}")
    finish(6, "orthogonal inputs keep the crossing on the kernel-free branch; "
              "aligned inputs unfold it away", failures)


# -- criterion 7 --------------------------------------------------------------

GOLDEN_CONFIGS = [
    {"scenario": {"name": "two_node", "m_strength": 1.0, "n": 1},
     "params": {"u0_range": [0.0, 1.5]}},
    {"scenario": {"name": "influencer_ring", "m_bar": 0.5},
     "params": {"u0_range": [0.05, 1.2]}},
]


def test_criterion_7_determinism_and_round_trip(tmp_path):
    failures = []
    for idx, doc in enumerate(GOLDEN_CONFIGS):
        cfg = tmp_path / f"golden{idx}.json"
        cfg.write_text(json.dumps(doc))
        outputs = []
        for run in ("r1", "r2"):
            out = tmp_path / f"g{idx}_{run}"
            rc = cli_main(["diagram", "--config", str(cfg), "--out", str(out),
                           "--no-timestamp", "--quiet"])
            check(failures, rc == 0, f"golden {idx} run {run}: exit {rc}")
            outputs.append(out)
        for name in ("diagram.csv", "diagram.svg", "spec.json"):
            b1 = (outputs[0] / name).read_bytes()
            b2 = (outputs[1] / name).read_bytes()
            check(failures, b1 == b2, f"golden {idx}: {name} differs between runs")

    # round-trip: exported spec re-parses to an equal spec
    specs = [build_two_node(1.0, 2), build_influencer_ring(0.5),
             build_drive_steer(1.0, 0.3, 2.0),
             NetworkSpec(A=np.array([[0.0, -1.0], [-1.0, 0.0]]),
                         M=((2, 1, 1, 0.3),), order=3,
                         b=np.array([0.125, -1.0 / 3.0]), tau=0.75)]
    from modnod import Saturation
    specs.append(NetworkSpec(A=np.eye(2) * np.pi, order=2,
                             saturation=Saturation.shifted(0.1234567890123),
                             tau=np.sqrt(2)))
    for spec in specs:
        doc = json.dumps({"model": spec_to_json(spec)})
        check(failures, parse_config(doc).spec == spec,
              f"round-trip changed the spec: {doc[:80]}...")
    finish(7, "byte-identical CSV/SVG across runs; exact spec round-trip",
           failures)
