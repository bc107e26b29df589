"""Workload ``settle_basins``: ``dynamics.settle`` on seeded initial states.

The task list is the settles the acceptance and continuation tests make,
in three groups, and nothing but ``settle``:

* bistable windows (``test_criterion_3_two_node_orders``): the two-node
  network at the middle u0_mid = (u0_fold + 1) / 2 of its window between
  the fold and u0 = 1, for n = 1 and n = 2, with tol 1e-9 and t_max 5000 at
  the default dt.  n = 1 settles from both sides, (0.01, -0.01) near the
  neutral attractor and the stable arm + 1e-3; n = 2 from its arm only.
  The n = 2 neutral settle, whose decay rate is 1 - u0_mid = 0.0065, takes
  about 20 s alone and is left out;
* steering brackets (``steering_sweep_bracket`` of criterion 4): the grid
  u0_event + (-0.05, -0.04, ..., 0.05) around the ``dr`` steering event of
  ``drive_steer`` at m_bar = 2 (1.0424105), from x0 = base + 1e-2 * steer
  kernel, with tol 1e-7, dt 0.05 and t_max 2500.  The offset 0 is left
  out: it sits on the transition and never settles, as in the test.  The
  test's two m_bar = 0 sweeps around 10/3 are left out for time: they take
  1-5.3 s a point and about 48 s a pass, two runs' worth, because the
  steering pair there decays at a rate of 0.3 * |u0 - 10/3| <= 0.015;
* far-from-bifurcation controls (``test_stable_points_reproduced_by_settling``):
  the stable states of the influencer ring at m_bar = 0.5 that the test
  settles, from x + 1e-3 * noise with tol 1e-10, dt 0.05 and t_max 5000
  (the noise drawn as the test draws it, from ``default_rng(7)``),
  except the two within 0.02 of the transcritical at u0 = 0.5, whose decay
  rates (0.005 and 0.03) make them slow rather than control tasks.  Each
  converges in a few hundred steps, so the cost of a call rather than the
  number of steps dominates.

Fewer steps move the first two groups; a cheaper step or call moves the
controls.  The seed draws a perturbation of NOISE = 1e-5 added to the
window and control starts, and which mirror arm the n = 2 window starts
from.  The bracket starts are the test's, unperturbed: near the drive
pitchfork at u0 = 1 a perturbation of the drive pair decays or grows at a
rate |u0 - 1| < 0.01, so its size would set the task's cost (25-500 ms for
1e-4 noise).  Every u0 is fixed, so each task costs the same for every
seed.
"""

from __future__ import annotations

import math

import numpy as np

import oracle
from common import Task

#: 23 tasks a round; p89 needs 91 samples, so a run takes at least 4 rounds,
#: and then falls among the n = 1 arm settles, the third slowest task
TAIL_PERCENTILE = 89

WINDOW = dict(tol=1e-9, t_max=5000.0, dt=None)
BRACKET = dict(tol=1e-7, t_max=2500.0, dt=0.05)
CONTROL = dict(tol=1e-10, t_max=5000.0, dt=0.05)
STEER_KERNEL = np.array([0.0, 0.0, 1.0, -1.0]) / math.sqrt(2.0)

#: (n, start) of the criterion-3 window settles
WINDOW_TASKS = [(1, "neutral"), (1, "arm"), (2, "arm")]
#: the two-node folds at m = 1, from ``oracle.folds`` (which takes 0.2 s
#: each, too long for set-up); selftest.py recomputes them
WINDOW_FOLDS = {1: 0.8914388990581914, 2: 0.9870774860504195}
#: (m_bar, u0 interval holding the dr steering event) of the criterion-4 sweep
SWEEPS = [(2.0, (1.0, 1.2))]
SWEEP_OFFSETS = [k / 100.0 for k in range(-5, 6) if k != 0]
#: the ring's stable states of the continuation test: the origin at two u0
#: values, and consensus states a * ones given by their amplitude a
CONTROL_M_BAR = 0.5
CONTROL_ORIGIN_U0 = [0.05, 0.3051]
CONTROL_AMPLITUDES = [0.809, 0.953, 0.992, -0.166, -0.339, -0.509, -0.677, -0.833]
#: scale of the seeded perturbation added to the window and control starts.
#: It stays far below the tests' own offsets (1e-3, of which 1.8e-4 lies
#: along the arms' slowest mode), so a task costs the same for every seed:
#: at 1e-4 the n = 1 arm settle took 370-600 ms depending on the seed
NOISE = 1e-5
#: the controls' test draws its 1e-3 offsets from this generator
CONTROL_OFFSET_SEED = 7


def _spec_and_model(scenario, params):
    from modnod import build_scenario

    return build_scenario(scenario, **params), oracle.scenario(scenario, params)


def _arm(u0, m, n):
    """Stable outer two-node equilibrium with x1 > 0 at u0 (in the window):
    the last crossing of the scalar branch on a grid, Newton-polished."""
    grid = np.linspace(0.002, 0.999, 4000)
    gap = oracle.two_node_u0(grid, m, n) - u0
    x1 = grid[np.nonzero(np.sign(gap[:-1]) * np.sign(gap[1:]) < 0)[0][-1]]
    return oracle.two_node(m, n).polish(oracle.two_node_state(x1, m, n)[0], u0)


def build(seed):
    rng = np.random.default_rng(seed)
    tasks = []

    def add(label, scenario, params, u0, x0, settings, group):
        spec, model = _spec_and_model(scenario, params)
        tasks.append(Task("settle", f"{group}:{label}@{u0:.4f}",
                          {"spec": spec, "model": model, "x0": x0, "u0": u0, **settings}))

    for n, start in WINDOW_TASKS:
        params = {"m_strength": 1.0, "n": n}
        u0 = 0.5 * (WINDOW_FOLDS[n] + 1.0)
        noise = NOISE * rng.standard_normal(2)
        if start == "neutral":
            x0 = np.array([0.01, -0.01]) + noise
        else:
            # the n = 2 arms are mirror images: the seed picks one
            sign = 1.0 if n == 1 else rng.choice([-1.0, 1.0])
            x0 = sign * _arm(u0, 1.0, n) + 1e-3 + noise
        add(f"n{n}-{start}", "two_node", params, u0, x0, WINDOW, "window")

    for m_bar, (lo, hi) in SWEEPS:
        [event] = oracle.steering_events(1.0, 0.3, m_bar, lo, hi)["dr"]
        for offset in SWEEP_OFFSETS:
            u0 = event + offset
            a = float(oracle.decided_amplitude(u0))
            base = np.array([a, -a, 0.0, 0.0])
            x0 = base + 1e-2 * STEER_KERNEL
            add(f"m{m_bar:g}-dr{offset:+.2f}", "drive_steer", {"m_bar": m_bar}, u0, x0,
                BRACKET, "bracket")

    params = {"m_bar": CONTROL_M_BAR}
    model = oracle.scenario("influencer_ring", params)
    offsets = np.random.default_rng(CONTROL_OFFSET_SEED)
    states = [(u0, np.zeros(model.N)) for u0 in CONTROL_ORIGIN_U0]
    for a in CONTROL_AMPLITUDES:
        u0 = float(oracle.ring_u0(a, CONTROL_M_BAR))
        states.append((u0, model.polish(a * np.ones(model.N), u0)))
    for u0, x in states:
        x0 = x + 1e-3 * offsets.standard_normal(model.N) + NOISE * rng.standard_normal(model.N)
        add(f"ring|x|={np.linalg.norm(x):.3f}", "influencer_ring", params, u0, x0, CONTROL,
            "control")
    return tasks


def run(task, outdir):
    from modnod import ModnodError, dynamics

    i = task.inputs
    try:
        return dynamics.settle(i["spec"], i["x0"], i["u0"], tol=i["tol"], t_max=i["t_max"],
                               dt=i["dt"])
    except ModnodError as exc:
        return exc


def check_state(task, x):
    """The settled state must be a stable equilibrium of the reference field
    and the attractor a tight DOP853 integration reaches from the same x0."""
    if isinstance(x, Exception):
        return f"raised {x!r}"
    i = task.inputs
    model, u0, tol = i["model"], i["u0"], i["tol"]
    res = np.linalg.norm(model.F(x, u0))
    if not res < tol * (1 + 1e-9) + 1e-15:
        return f"residual {res:.2e} >= tol {tol:.0e}"
    lead = model.leading_eig(x, u0)
    if not lead < 0:
        return f"settled state is not stable (leading eigenvalue {lead:.3e})"
    ref, reached = oracle.attractor(model, i["x0"], u0, i["t_max"])
    if not reached:
        return "the reference integration did not settle"
    # F(x) ~ J (x - x*): the distance is at most |F(x)| / sigma_min(J) < tol / sigma_min
    sigma = np.linalg.svd(model.J(ref, u0), compute_uv=False)[-1]
    bound = 2.0 * tol / sigma + 1e-12
    dist = np.linalg.norm(x - ref)
    if not dist <= bound:
        return f"settled at {np.round(x, 6)}, reference attractor {np.round(ref, 6)} " \
               f"({dist:.2e} > {bound:.2e})"
    return None


def check(tasks, rounds):
    """Round 0 against the references; later rounds bit-identical to it."""
    verdicts = [[None] * len(tasks) for _ in rounds]
    for i, task in enumerate(tasks):
        first = rounds[0][i]
        verdicts[0][i] = check_state(task, first)
        for r in range(1, len(rounds)):
            same = repr(rounds[r][i]) == repr(first) if isinstance(first, Exception) \
                else np.array_equal(rounds[r][i], first)
            verdicts[r][i] = verdicts[0][i] if same else "differs from round 0"
    return verdicts
