import warnings
from dataclasses import fields, is_dataclass, replace
from enum import Enum
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import modnod.continuation as continuation
from modnod import (
    Classification,
    EventKind,
    ModnodError,
    NetworkSpec,
    NewtonDiverged,
    NonConvergence,
    SingularJacobian,
    StallError,
    StepParams,
    ValidationError,
    branch_point_at,
    build_influencer_ring,
    build_two_node,
    detect_events,
    diagram,
    jacobian,
    leading_eigenpair,
    newton_equilibrium,
    settle,
    switch_branch,
    trace_branch,
    vector_field,
)
from modnod.cli import main
from modnod.config import spec_from_json
from modnod.model import Saturation, linearize
from modnod.scenarios import build_scenario, drive_steer_label

from corpus import corpus_model


def neutral_branch(spec, u0_range, **step_kw):
    seed = branch_point_at(spec, np.zeros(spec.N), u0_range[0])
    return trace_branch(spec, seed, u0_range, StepParams(**step_kw))


# -- newton ------------------------------------------------------------------

def test_newton_neutral_guess_is_exact():
    spec = build_influencer_ring(0.5)
    x = newton_equilibrium(spec, np.zeros(5), 0.7)
    assert np.all(x == 0.0)


def test_newton_ring_consensus():
    spec = build_influencer_ring(0.0)
    v = leading_eigenpair(spec).v_max
    x = newton_equilibrium(spec, 0.5 * v, 0.6)
    assert np.linalg.norm(vector_field(spec, x, 0.6)) < 1e-10
    assert np.max(x) - np.min(x) < 1e-9
    assert np.all(x > 0)


def bisect_root(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_newton_two_node_matches_bisection_oracle():
    # without modulation the anti-diagonal is invariant: x = (a, -a) with
    # a - tanh(1.2 a) = 0
    spec = build_two_node(0.0, 1)
    x = newton_equilibrium(spec, np.array([0.5, -0.5]), 1.2)
    assert abs(x[0] + x[1]) < 1e-12
    a_star = bisect_root(lambda a: a - np.tanh(1.2 * a), 0.1, 2.0)
    assert abs(x[0] - a_star) < 1e-9


def test_newton_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(continuation, "EQUILIBRIUM_ITERS", 1)
    spec = build_two_node(1.0, 1)
    with pytest.raises(NewtonDiverged):
        newton_equilibrium(spec, np.array([5.0, -5.0]), 1.2)


def test_newton_singular_jacobian():
    # J(0) = -I + 0.5 * A is exactly singular for the all-ones matrix
    spec = NetworkSpec(A=np.ones((2, 2)), b=np.array([0.1, -0.1]))
    with pytest.raises(SingularJacobian):
        newton_equilibrium(spec, np.zeros(2), 0.5)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.floats(0.02, 2.0))
def test_newton_returns_an_equilibrium_or_a_typed_failure(seed, u0):
    # a corpus spec and a standard-normal guess: either a finite state whose
    # residual is below NEWTON_TOL, or NewtonDiverged or SingularJacobian
    rng = np.random.default_rng(seed)
    try:
        spec = spec_from_json(corpus_model(rng))
    except ValidationError:
        assume(False)
    try:
        x = newton_equilibrium(spec, rng.standard_normal(spec.N), u0)
    except (NewtonDiverged, SingularJacobian):
        return
    assert np.isfinite(x).all()
    assert np.linalg.norm(vector_field(spec, x, u0)) < continuation.NEWTON_TOL


# -- tracing and events ------------------------------------------------------

def test_branch_points_satisfy_invariants():
    spec = build_influencer_ring(0.5)
    branch = neutral_branch(spec, (0.1, 1.2))
    assert len(branch.points) > 3
    for p in branch.points:
        assert np.linalg.norm(vector_field(spec, p.x, p.u0)) < 1e-10
        lead = np.max(np.linalg.eigvals(jacobian(spec, p.x, p.u0)).real)
        assert p.stable == (lead < 0)
        assert abs(np.linalg.norm(p.tangent) - 1.0) < 1e-9
    steps = [
        np.linalg.norm(np.concatenate([b.x - a.x, [b.u0 - a.u0]]))
        for a, b in zip(branch.points[:-1], branch.points[1:])
    ]
    assert max(steps) <= StepParams().max_step * (1 + 1e-9)


def test_neutral_branch_event_ring():
    branch = neutral_branch(build_influencer_ring(0.0), (0.1, 1.2))
    assert len(branch.events) == 1
    ev = branch.events[0]
    assert abs(ev.u0 - 0.5) < 1e-6
    assert ev.kind == EventKind.PITCHFORK
    assert ev.detail.classification == Classification.SUPERCRITICAL_PITCHFORK


def test_neutral_branch_event_two_node_pitchfork():
    branch = neutral_branch(build_two_node(0.0, 1), (0.2, 1.5))
    assert len(branch.events) == 1
    assert abs(branch.events[0].u0 - 1.0) < 1e-6
    assert branch.events[0].kind == EventKind.PITCHFORK


def test_no_events_on_monotone_stable_stretch():
    branch = neutral_branch(build_influencer_ring(0.0), (0.1, 0.4))
    assert branch.events == []
    assert all(p.stable for p in branch.points)


def test_event_locations_track_reciprocal_eigenvalues_any_modulation():
    rng = np.random.default_rng(33)
    A = rng.uniform(-1.5, 1.5, (4, 4))
    lam = np.linalg.eigvals(A)
    expected = sorted(
        1.0 / l.real
        for l in lam
        if abs(l.imag) < 1e-9 and l.real != 0 and 0.12 < 1.0 / l.real < 2.9
    )
    assert expected, "draw produced no usable crossing; pick another seed"
    for M in [(), ((1, 2, 3, 1.1),), ((2, 1, 4, -0.7), (3, 3, 1, 0.4))]:
        spec = NetworkSpec(A=A, M=M, order=2)
        branch = neutral_branch(spec, (0.1, 3.0), max_step=0.05, max_points=5000)
        got = sorted(e.u0 for e in branch.events)
        assert len(got) == len(expected)
        assert max(abs(g - e) for g, e in zip(got, expected)) < 1e-6


#: a 4-node spec whose neutral branch crosses at 1/lambda = 0.445696, 0.505990
#: and 0.930379; the real eigenvalue nearest zero hides one of the first two
#: crossings at max_step 0.1 and 0.05 (det J does not)
HIDDEN_CROSSING_SPEC = NetworkSpec(
    A=np.array([
        [0.6668418157514714, 1.2496418580218356, -0.524105230355556, -0.016308014249857564],
        [0.8737718617099577, -1.6933257523084102, 0.49301731645916647, -0.7148737596975664],
        [0.0, 0.13067815375662317, 1.9696256711774338, 0.0],
        [0.0, 0.0, 0.0007696311743327766, 2.243767734485041],
    ]),
    M=((1, 4, 4, -0.37643037655787204), (2, 4, 1, -2.488370493231328),
       (3, 1, 3, -0.25555233241781994), (4, 1, 4, -0.3111345222200068),
       (4, 2, 4, 1.2420164042950455), (4, 3, 1, 1.4138243909064385)),
    order=4, tau=0.6358268277658605,
)


@st.composite
def neutral_specs(draw):
    """Specs with b = 0 and odd S (so x = 0 is an equilibrium for every u0):
    N = 2-5, up to three modulation triplets, orders 1-3."""
    n = draw(st.integers(2, 5))
    weight = st.floats(-2.0, 2.0)
    A = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)
    index = st.integers(1, n)
    M = draw(st.lists(st.tuples(index, index, index, weight), max_size=3,
                      unique_by=lambda m: m[:3]))
    return NetworkSpec(A=A, M=tuple(M), order=draw(st.integers(1, 3)),
                       tau=draw(st.floats(0.25, 0.5)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(neutral_specs(), st.sampled_from([0.1, 0.05, 0.02]))
@example(HIDDEN_CROSSING_SPEC, 0.1)
@example(HIDDEN_CROSSING_SPEC, 0.05)
@example(HIDDEN_CROSSING_SPEC, 0.02)
def test_neutral_events_sit_exactly_at_reciprocal_eigenvalues(spec, max_step):
    # on x = 0, J = (u0 A - I) / tau: a real eigenvalue lambda > 0 of A gives a
    # Jacobian eigenvalue (u0 lambda - 1) / tau crossing zero at u0 = 1/lambda,
    # and nothing else crosses zero through the real axis
    lo, hi = 0.02, 2.0
    lam = np.linalg.eigvals(spec.A)
    lam = lam[(lam.imag == 0) & (lam.real > 0)].real
    crossings = np.sort(1.0 / lam[(1.0 / lam > lo) & (1.0 / lam < hi)])
    assume(np.all(np.diff(crossings) > max_step))
    branch = neutral_branch(spec, (lo, hi), max_step=max_step)
    got = np.sort([e.u0 for e in branch.events])
    assert len(got) == len(crossings), (got, crossings)
    # refinement stops at |(u0 lambda - 1) / tau| <= EVENT_EIG_TOL, i.e. within
    # EVENT_EIG_TOL * tau / lambda of 1/lambda, which is <= 1e-8 here since
    # tau <= 0.5 and 1/lambda < 2 (tau = 0.64 and 1/lambda < 0.94 for the example)
    bound = continuation.EVENT_EIG_TOL * spec.tau * crossings
    assert np.all(np.abs(got - crossings) <= bound), (got, crossings)
    assert np.all(bound <= 1e-8)


def test_switch_and_tangency_at_ring_pitchfork():
    spec = build_influencer_ring(0.0)
    branch = neutral_branch(spec, (0.1, 1.2))
    ev = branch.events[0]
    v = leading_eigenpair(spec).v_max
    for direction in (1, -1):
        pt = switch_branch(spec, ev, direction)
        assert np.linalg.norm(vector_field(spec, pt.x, pt.u0)) < 1e-10
        assert np.linalg.norm(pt.x) > 1e-3
        assert direction * (pt.x @ v) > 0
        cosang = abs(pt.x @ v) / np.linalg.norm(pt.x)
        assert np.arccos(np.clip(cosang, -1, 1)) < 0.05


@pytest.mark.parametrize("spec,u0_range,parent,u0_event,arms", [
    # the event sits on branch "0-", away from the origin
    (NetworkSpec(A=np.array([[-1.8432753403983204, 0.0],
                             [1.6334749234972028, 0.8868364984398546]]),
                 M=((1, 1, 2, -0.024591222255004562),), order=4,
                 saturation=Saturation.shifted(-1.8148498734377356), tau=2.760555732192475),
     (0.02, 8.0), "0-", 0.429735, {"--", "+-"}),
    # tests/corpus.py, default_rng(5) draw 147
    (NetworkSpec(A=np.array([[1.2221476727906375, -0.9852613860661628, -0.23082248638902564],
                             [0.0, 1.1576136508752515, 0.0], [-1.3866899287211698, 0.0, 0.0]]),
                 M=((2, 1, 3, -1.4269028121601792), (1, 1, 2, 1.1463492106173898)), order=2,
                 saturation=Saturation.shifted(-0.8936932872516783)),
     (0.02, 2.0), "+0-", 0.863846, {"++-", "+--"}),
], ids=["off-origin", "corpus-5-147"])
def test_switch_leaves_the_parent_where_the_kernel_leans_on_its_tangent(
        spec, u0_range, parent, u0_event, arms):
    # the kernel has a large part along the parent's direction here (k . t
    # is -0.96 and -0.91), where a correction along the kernel alone lands
    # back on the parent
    branches = diagram(spec, u0_range)
    assert arms <= {b.label for b in branches}
    (ev,) = [e for b in branches if b.label == parent for e in b.events
             if e.kind == EventKind.UNCLASSIFIED]
    assert abs(ev.u0 - u0_event) < 1e-6
    for direction in (1, -1):
        pt = switch_branch(spec, ev, direction)
        assert np.linalg.norm(vector_field(spec, pt.x, pt.u0)) < 1e-10
        assert np.linalg.norm(pt.x - newton_equilibrium(spec, ev.x, pt.u0)) > 1e-2


def test_corpus_switches_solve_and_leave_the_parent(monkeypatch):
    # over the corpus's default_rng(5) draws, every diagram returns or raises
    # a ModnodError, and every switched seed solves F = 0 off the parent
    switches = []
    switch = continuation.switch_branch

    def recording(spec, event, direction):
        point = switch(spec, event, direction)
        switches.append((spec, event, point))
        return point

    monkeypatch.setattr(continuation, "switch_branch", recording)
    rng = np.random.default_rng(5)
    for _ in range(150):
        try:
            spec = spec_from_json(corpus_model(rng))
        except ValidationError:
            continue
        try:
            diagram(spec, (0.02, 2.0), StepParams(max_points=400))
        except ModnodError:
            pass
    assert len(switches) > 100
    for spec, event, pt in switches:
        assert np.linalg.norm(vector_field(spec, pt.x, pt.u0)) < continuation.NEWTON_TOL
        try:
            parent = newton_equilibrium(spec, event.x, pt.u0)
        except (NewtonDiverged, SingularJacobian):
            continue  # no parent solution at this u0 to land back on
        assert np.linalg.norm(pt.x - parent) > 1e-3 * (1.0 + np.linalg.norm(parent))


def test_switch_fold_is_a_caller_error():
    spec = build_two_node(1.0, 1)
    branches = diagram(spec, (0.0, 1.5))
    folds = [e for b in branches for e in b.events if e.kind == EventKind.SADDLE_NODE]
    assert folds
    with pytest.raises(ValueError):
        switch_branch(spec, folds[0], 1)


def test_subcritical_arm_unstable_then_folds_stable():
    spec = build_two_node(1.0, 2)
    branch = neutral_branch(spec, (0.2, 1.5))
    ev = branch.events[0]
    assert ev.detail.classification == Classification.SUBCRITICAL_PITCHFORK
    arm = trace_branch(spec, switch_branch(spec, ev, 1), (0.2, 1.5),
                       StepParams(initial=0.005))
    assert not arm.points[0].stable           # emerges unstable
    folds = [e for e in arm.events if e.kind == EventKind.SADDLE_NODE]
    assert len(folds) == 1 and folds[0].u0 < 1.0
    assert arm.points[-1].stable              # stable after the fold
    us = [p.u0 for p in arm.points]
    assert min(us) < 1.0 < max(us)            # bistable window traversed


def test_ring_transcritical_with_pre_bifurcation_fold():
    spec = build_influencer_ring(0.5)
    branches = diagram(spec, (0.05, 1.2))
    neutral = branches[0]
    assert neutral.events[0].kind == EventKind.TRANSCRITICAL
    assert abs(neutral.events[0].u0 - 0.5) < 1e-6
    folds = [e for b in branches for e in b.events if e.kind == EventKind.SADDLE_NODE]
    assert len(folds) == 1
    assert folds[0].u0 < 0.5
    # bistability confirmed by settling from two sides inside the window
    u0_mid = 0.5 * (folds[0].u0 + 0.5)
    x_lo = settle(spec, 0.01 * np.ones(5), u0_mid, tol=1e-9, t_max=5000)
    x_hi = settle(spec, 0.9 * np.ones(5), u0_mid, tol=1e-9, t_max=5000)
    assert np.linalg.norm(x_lo) < 1e-6
    assert np.linalg.norm(x_hi - x_lo) > 0.1


def test_stable_points_reproduced_by_settling():
    spec = build_influencer_ring(0.5)
    branches = diagram(spec, (0.05, 1.2))
    stable_pts = [p for b in branches for p in b.points if p.stable][::6]
    assert stable_pts
    rng = np.random.default_rng(7)
    for p in stable_pts:
        x = settle(spec, p.x + 1e-3 * rng.standard_normal(5), p.u0,
                   tol=1e-10, t_max=5000, dt=0.05)
        assert np.linalg.norm(x - p.x) < 1e-6


def test_diagram_two_node_supercritical():
    branches = diagram(build_two_node(0.0, 1), (0.0, 1.5))
    assert len(branches) == 3
    events = [e for b in branches for e in b.events]
    assert len(events) == 1
    assert events[0].kind == EventKind.PITCHFORK
    labels = sorted(b.label for b in branches)
    assert labels == ["+-", "-+", "00"]


def test_diagram_two_node_strong_third_order_modulation_is_pitchfork():
    # q has degree 4 for n = 3, so the crossing stays a pitchfork however
    # strong the modulation
    branches = diagram(build_two_node(4.0, 3), (0.0, 1.5))
    events = branches[0].events
    assert len(events) == 1
    assert abs(events[0].u0 - 1.0) < 1e-6
    assert events[0].kind == EventKind.PITCHFORK
    assert events[0].detail.classification == Classification.SUPERCRITICAL_PITCHFORK


def test_trace_stalls_when_correction_never_converges(monkeypatch):
    spec = build_two_node(0.0, 1)
    seed = branch_point_at(spec, np.zeros(2), 0.2)
    steps = []

    def failing(lin, z0, row, budget):
        steps.append(np.linalg.norm(z0 - np.append(seed.x, seed.u0)))
        raise NewtonDiverged("no convergence")

    monkeypatch.setattr(continuation, "_bordered_correct", failing)
    with pytest.raises(StallError):
        continuation.trace_branch(spec, seed, (0.2, 1.0))
    # halving from 0.02 reaches min_step 1e-5 on the 12th try; a retry at
    # min_step would repeat the same correction, so there is none
    step = StepParams()
    assert len(steps) == 12
    np.testing.assert_allclose(steps[0], step.initial, rtol=1e-12)
    np.testing.assert_allclose(steps[-1], step.min_step, rtol=1e-9)
    assert all(h > step.min_step * (1 + 1e-9) for h in steps[:-1])


def test_detect_events_requires_two_points():
    spec = build_two_node(0.0, 1)
    seed = branch_point_at(spec, np.zeros(2), 0.2)
    assert detect_events(spec, [seed]) == []


def test_branch_point_det_sign_is_required():
    # detect_events reads det_sign and never re-evaluates det J
    with pytest.raises(TypeError, match="det_sign"):
        continuation.BranchPoint(u0=0.2, x=np.zeros(2), leading_jac_eig=-0.8,
                                 stable=True, tangent=np.eye(3)[-1])


def biased_two_node():
    return NetworkSpec(A=build_two_node(1.0, 1).A, b=np.array([0.1, -0.2]))


def test_branch_point_at_tangent_spans_the_kernel_towards_increasing_u0():
    spec = biased_two_node()
    x = newton_equilibrium(spec, np.zeros(2), 0.5)
    assert np.all(x != 0.0)
    point = branch_point_at(spec, x, 0.5)
    _, jac, f_u0 = linearize(spec, x, 0.5)
    np.testing.assert_allclose(np.linalg.norm(point.tangent), 1.0, rtol=1e-14)
    assert point.tangent[-1] > 0
    np.testing.assert_allclose(np.column_stack([jac, f_u0]) @ point.tangent, 0.0, atol=1e-14)


def test_diagram_primary_seed_is_the_equilibrium_at_the_low_end():
    # the seed: Newton from x = 0 at the low end of the range, tangent e_u0,
    # and the same spectrum as branch_point_at gives there
    spec = biased_two_node()
    first = diagram(spec, (0.5, 1.5))[0].points[0]
    ref = branch_point_at(spec, newton_equilibrium(spec, np.zeros(2), 0.5), 0.5)
    assert first.u0 == 0.5
    np.testing.assert_array_equal(first.x, ref.x)
    np.testing.assert_array_equal(first.tangent, np.eye(3)[-1])
    assert (first.leading_jac_eig, first.stable, first.det_sign) == (
        ref.leading_jac_eig, ref.stable, ref.det_sign)


# -- loop closure ------------------------------------------------------------

def closed_loops(branches, u0_range, max_points):
    """Branches that end inside ``u0_range`` before their point budget: a
    trace stops there only when it closes on its seed."""
    return [b for b in branches
            if u0_range[0] < b.points[-1].u0 < u0_range[1] and len(b.points) < max_points]


def seed_gap(branch):
    first, last = branch.points[0], branch.points[-1]
    return np.linalg.norm(np.append(last.x - first.x, last.u0 - first.u0))


@pytest.mark.parametrize("max_step", [0.05, 0.08, 0.1, 0.12, 0.15])
def test_drive_steer_loop_closes_on_its_seed_at_every_max_step(max_step):
    # the u0 ~ 1.22 loop joins the two steering events on st; it ends on its
    # seed, so its mirror seed is covered whatever the step
    spec = build_scenario("drive_steer", m_bar=2.0)
    step = StepParams(max_step=max_step)
    branches = diagram(spec, (0.05, 11.0), step, drive_steer_label)
    assert sorted(b.label for b in branches) == [
        "dr", "drl", "drr", "id", "idl", "idr", "st", "stl", "stl/2", "str"]
    loops = closed_loops(branches, (0.05, 11.0), step.max_points)
    assert [b.label for b in loops] == ["stl"]
    assert seed_gap(loops[0]) <= continuation.CLOSURE_TOL


def test_small_loop_past_a_pitchfork_ends_on_its_seed():
    # a small loop switched from a pitchfork of the neutral branch returns
    # through the pitchfork to its seed; its mirror seed lies on the loop, so
    # it is covered and not traced as a third branch
    spec = spec_from_json({
        "A": [[0.06859401335826064, -0.9637849232600738, 0.0],
              [-0.0, 1.610163254264054, -0.46632848149035583],
              [-1.6712396645976324, -0.0, -0.9223075068727697]],
        "M": [[1, 3, 1, 0.7354955885992546], [2, 2, 3, -0.9418749130497466]], "n": 2})
    branches = diagram(spec, (0.02, 2.0), StepParams(max_points=400))
    assert len(branches) == 2
    loops = closed_loops(branches, (0.02, 2.0), 400)
    assert loops
    assert all(seed_gap(loop) <= continuation.CLOSURE_TOL for loop in loops)


def test_switch_depth_traces_no_branch_twice():
    # corpus seed 4 draw 23 (two uncoupled nodes, shifted S): one level deeper
    # than SWITCH_DEPTH, the diagram has 12 branches and "-+/2" starts where
    # "-+" does, and traces it again.  The drive/steer goldens need the depth
    # from below.
    rng = np.random.default_rng(4)
    for _ in range(23):
        corpus_model(rng)
    spec = spec_from_json(corpus_model(rng))
    branches = diagram(spec, (0.02, 2.0), StepParams(max_points=400))
    assert len(branches) == 10
    starts = np.array([np.append(b.points[0].x, b.points[0].u0) for b in branches])
    gaps = np.linalg.norm(starts[:, None] - starts[None], axis=-1)
    assert gaps[np.triu_indices(len(starts), 1)].min() > continuation.CLOSURE_TOL


# -- bordered solve ----------------------------------------------------------

def test_bordered_solve_rejects_singular_and_non_finite_systems():
    jac, col = np.diag([1.0, 2.0]), np.array([1.0, 0.0])
    row, rhs = np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0])
    z = continuation._bordered_solve(jac, col, row, rhs)
    np.testing.assert_allclose(np.block([[jac, col[:, None]], [row]]) @ z, rhs, rtol=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silently: no RuntimeWarning
        # a border row repeating the first row of [J, c] makes the matrix singular
        assert continuation._bordered_solve(jac, col, np.array([1.0, 0.0, 1.0]), rhs) is None
        assert continuation._bordered_solve(jac, col, row, np.array([np.inf, 2.0, 3.0])) is None
        assert continuation._bordered_solve(np.diag([1.0, np.nan]), col, row, rhs) is None


def test_norm_and_det_sign_equal_their_numpy_forms_bit_for_bit():
    def check_det_sign(vals):
        want = float(np.prod(np.sign(vals.real[vals.imag == 0])))
        got = continuation._det_sign(vals.tolist())
        assert got == want and np.signbit(got) == np.signbit(want)

    check_det_sign(np.array([1.0, -0.0, -2.0, 0.0, 1j, -1j]))
    check_det_sign(np.array([1j, -1j]))
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        for _ in range(100):
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150)
            assert continuation._norm(v) == np.linalg.norm(v)
            a = rng.standard_normal((n, n))
            a[:, rng.random(n) < 0.3] = 0.0  # zero columns give zero eigenvalues
            check_det_sign(np.linalg.eigvals(a).astype(complex))


def test_non_finite_jacobian_at_a_branch_point_is_a_typed_error(monkeypatch, tmp_path, capsys):
    # a J with a NaN at converged points past u0 = 0.5 reaches the eigen-solve
    # of _branch_point; it raises NonConvergence, which diagram lets through
    # and the CLI reports with exit code 1
    def poisoned(spec, x, u0):
        f, jac, f_u0 = linearize(spec, x, u0)
        if u0 > 0.5 and np.linalg.norm(f) < continuation.NEWTON_TOL:
            jac = jac.copy()
            jac[0, 0] = np.nan
        return f, jac, f_u0

    monkeypatch.setattr(continuation, "linearize", poisoned)
    with pytest.raises(NonConvergence):
        diagram(build_two_node(1.0, 1), (0.0, 1.5))
    cfg = '{"scenario": {"name": "two_node"}, "params": {"u0_range": [0.0, 1.5]}}'
    out = tmp_path / "out"
    assert main(["diagram", "--config", cfg, "--out", str(out)]) == 1
    assert "NonConvergence" in capsys.readouterr().err
    assert not out.exists()


def test_scenario_diagram_counts_are_pinned(monkeypatch):
    # the work of one diagram, by wrapper: linearisations, bordered
    # corrections (the primary seed's damped Newton solve is one of them)
    # and solves, eigen-solves, and exactly one eigen-solve per traced point
    # (the rest refine events); a switched seed reuses its correction's J
    counts = dict.fromkeys(("linearize", "_bordered_correct", "_bordered_solve", "_eigvals",
                            "newton_equilibrium"), 0)
    per_point = []

    def counting(name):
        inner = getattr(continuation, name)

        def wrapped(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return wrapped

    for name in counts:
        monkeypatch.setattr(continuation, name, counting(name))
    branch_point = continuation._branch_point

    def recording(*args):
        before = counts["_eigvals"]
        point = branch_point(*args)
        per_point.append(counts["_eigvals"] - before)
        return point

    monkeypatch.setattr(continuation, "_branch_point", recording)
    diagram(build_scenario("drive_steer", m_bar=2.0), (0.05, 11.0))
    assert counts == {"linearize": 2042, "_bordered_correct": 815, "_bordered_solve": 1893,
                      "_eigvals": 805, "newton_equilibrium": 1}
    assert per_point == [1] * 680


# -- step parameters ---------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"initial": 0.0}, {"initial": np.inf}, {"min_step": -1e-5}, {"max_step": np.nan},
    {"min_step": 0.2, "max_step": 0.1}, {"max_points": 1}, {"max_points": 2.5},
    {"max_points": np.inf},
])
def test_step_params_reject_out_of_range_values(kwargs):
    with pytest.raises(ValueError):
        StepParams(**kwargs)


def test_step_params_take_integral_point_budget():
    budget = StepParams(max_points=300.0).max_points
    assert budget == 300 and type(budget) is int



# -- sign-flip symmetry ------------------------------------------------------

#: the seven scenario diagrams of the benchmark's diagram_scenarios workload
SCENARIO_DIAGRAMS = [
    ("two_node", {"m_strength": 1.0, "n": 1}, (0.0, 1.5)),
    ("two_node", {"m_strength": 1.0, "n": 2}, (0.0, 1.5)),
    ("two_node", {"m_strength": 1.0, "n": 3}, (0.0, 1.5)),
    ("influencer_ring", {"m_bar": 0.0}, (0.05, 1.2)),
    ("influencer_ring", {"m_bar": 0.5}, (0.05, 1.2)),
    ("drive_steer", {"m_bar": 0.0}, (0.05, 4.0)),
    ("drive_steer", {"m_bar": 2.0}, (0.05, 11.0)),
]


def flip_group(spec):
    """Sign vectors of every product of flips of the blocks ``_flip_blocks``
    returns, identity included."""
    blocks = continuation._flip_blocks(spec)
    return [np.where(np.any([b for b, used in zip(blocks, mask) if used] + [np.zeros(spec.N, bool)],
                            axis=0), -1.0, 1.0)
            for mask in product((False, True), repeat=len(blocks))]


@st.composite
def block_specs(draw):
    """Specs whose A is block diagonal up to a node permutation, with blocks
    that may split further where a drawn weight is zero; modulators k from
    any block, zero or nonzero weights and b entries."""
    n = draw(st.integers(2, 5))
    block = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    weight = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    A = np.array([[draw(weight) if block[i] == block[j] else 0.0 for j in range(n)]
                  for i in range(n)])
    index = st.integers(1, n)
    triplets = {}
    for _ in range(draw(st.integers(0, 3))):
        i = draw(index)
        j = draw(st.sampled_from([j + 1 for j in range(n) if block[j] == block[i - 1]]))
        triplets[(i, j, draw(index))] = draw(weight)
    saturation = draw(st.one_of(st.just(Saturation.odd()),
                                st.builds(Saturation.shifted, st.floats(-3.0, 3.0))))
    b = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
                               min_size=n, max_size=n)))
    spec = NetworkSpec(A=A, M=tuple((*key, w) for key, w in triplets.items()),
                       order=draw(st.integers(1, 3)), saturation=saturation, b=b)
    x = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    return spec, x, draw(st.floats(-1.0, 3.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(block_specs())
def test_flips_commute_with_linearisation_exactly(case):
    # equality as values: an exact cancellation gives +0 on both sides
    spec, x, u0 = case
    blocks = continuation._flip_blocks(spec)
    if spec.saturation.kind != "odd":
        assert blocks == []
    linked = (spec.A != 0) | (spec.A.T != 0)
    for block in blocks:  # disjoint, and no edge of A leaves a block
        assert not linked[block][:, ~block].any()
    assert np.sum(blocks, axis=0).max(initial=0) <= 1
    f, jac, f_u0 = linearize(spec, x, u0)
    for d in flip_group(spec):
        f_d, jac_d, f_u0_d = linearize(spec, d * x, u0)
        np.testing.assert_array_equal(f_d, d * f)
        np.testing.assert_array_equal(jac_d, d[:, None] * jac * d)
        np.testing.assert_array_equal(f_u0_d, d * f_u0)


@pytest.mark.parametrize("name,params,u0_range", SCENARIO_DIAGRAMS)
def test_flip_blocks_find_every_sign_symmetry_of_the_scenarios(name, params, u0_range):
    spec = build_scenario(name, **params)
    rng = np.random.default_rng(5)
    samples = [(rng.uniform(-1, 1, spec.N), rng.uniform(*u0_range)) for _ in range(3)]
    brute = {
        d for d in product((1.0, -1.0), repeat=spec.N)
        if all(np.array_equal(linearize(spec, np.array(d) * x, u0)[0],
                              np.array(d) * linearize(spec, x, u0)[0]) for x, u0 in samples)
    }
    assert {tuple(d) for d in flip_group(spec)} == brute


def test_flip_blocks_join_a_directed_path_into_one_block():
    # a_i,i+1 only: node 1 reaches node 5 through four edges of one direction
    spec = NetworkSpec(A=np.eye(5, k=1), M=((1, 2, 5, 0.5),), order=2)
    assert [block.tolist() for block in continuation._flip_blocks(spec)] == [[True] * 5]
    pinned = NetworkSpec(A=np.eye(5, k=1), M=((1, 2, 5, 0.5),), order=1)
    assert continuation._flip_blocks(pinned) == []


def assert_same(a, b):
    """Field-by-field equality of branch points and events (NaN equals NaN,
    -0 equals 0)."""
    if is_dataclass(a):
        assert type(a) is type(b)
        for f in fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif a is None or isinstance(a, (str, bool, Enum)):
        assert a == b
    else:
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name,params,u0_range", SCENARIO_DIAGRAMS)
def test_every_diagram_branch_equals_its_own_trace(name, params, u0_range):
    # reflected branches are not traced; each must still be exactly what
    # tracing from its first point gives, with the step diagram uses there
    # (switched seeds, every branch after the first, start with a short step)
    spec = build_scenario(name, **params)
    switched = replace(StepParams(), initial=min(StepParams().initial,
                                                 0.5 * continuation.SWITCH_EPS))
    branches = diagram(spec, u0_range)
    for i, branch in enumerate(branches):
        ref = trace_branch(spec, branch.points[0], u0_range,
                           StepParams() if i == 0 else switched)
        assert len(branch.points) == len(ref.points)
        assert len(branch.events) == len(ref.events)
        for p, q in zip(branch.points + branch.events, ref.points + ref.events):
            assert_same(p, q)


@pytest.mark.parametrize("name,params,u0_range", SCENARIO_DIAGRAMS)
def test_every_converged_correction_becomes_a_point(name, params, u0_range, monkeypatch):
    # retrace every diagram branch with events off (their bisection corrects
    # secant points, which are not branch points); only the last converged
    # correction of a trace may be dropped: the one that leaves the u0 range,
    # or the one that crosses the seed's hyperplane, when the branch's last
    # point is the landing on the seed
    spec = build_scenario(name, **params)
    switched = replace(StepParams(), initial=min(StepParams().initial,
                                                 0.5 * continuation.SWITCH_EPS))
    branches = diagram(spec, u0_range)
    converged = []
    correct = continuation._bordered_correct

    def recording(*args, **kwargs):
        result = correct(*args, **kwargs)
        if result is not None:
            converged.append(result[0])
        return result

    monkeypatch.setattr(continuation, "_bordered_correct", recording)
    monkeypatch.setattr(continuation, "detect_events", lambda spec, points: [])
    lo, hi = u0_range
    for i, branch in enumerate(branches):
        converged.clear()
        ref = trace_branch(spec, branch.points[0], u0_range,
                           StepParams() if i == 0 else switched)
        points = {tuple(np.append(p.x, p.u0)) for p in ref.points[1:]}
        dropped = [z for z in converged if tuple(z) not in points]
        assert len(dropped) <= 1, f"{branch.label}: {len(dropped)} corrections dropped"
        seed, before_last, last = (np.append(p.x, p.u0) for p in
                                   (ref.points[0], ref.points[-2], ref.points[-1]))
        for z in dropped:
            assert not lo <= z[-1] <= hi or (
                ref.points[0].tangent @ (before_last - seed) < 0 <= ref.points[0].tangent @ (z - seed)
                and np.linalg.norm(last - seed) <= continuation.CLOSURE_TOL)
