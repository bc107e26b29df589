from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from modnod import (
    Diverged,
    ModnodError,
    NetworkSpec,
    NonFinite,
    NotSettled,
    Saturation,
    build_influencer_ring,
    build_two_node,
    dynamics,
    integrate,
    jacobian,
    leading_eigenpair,
    newton_equilibrium,
    settle,
    vector_field,
)
from modnod.dynamics import DIVERGENCE_NORM


def test_neutral_state_stays_put():
    spec = build_influencer_ring(0.5)
    traj = integrate(spec, np.zeros(5), 0.7, 10.0)
    assert np.max(np.abs(traj.states)) == 0.0
    assert traj.terminated_early is None
    assert np.all(np.diff(traj.times) > 0)
    assert len(traj.times) == len(traj.states)


def test_subcritical_attention_decays_to_neutral():
    spec = build_influencer_ring(0.0)
    rng = np.random.default_rng(0)
    traj = integrate(spec, 1e-2 * rng.standard_normal(5), 0.4, 50.0)
    assert np.linalg.norm(traj.states[-1]) < 1e-4


def test_supercritical_attention_aligns_with_leading_eigenvector():
    spec = build_influencer_ring(0.0)
    v = leading_eigenpair(spec).v_max
    traj = integrate(spec, 1e-3 * v, 0.6, 50.0)
    xf = traj.states[-1]
    cosang = np.clip(abs(xf @ v) / np.linalg.norm(xf), -1.0, 1.0)
    assert np.arccos(cosang) < 0.1
    assert np.linalg.norm(xf) > 0.1  # an actual opinion formed


def test_rk4_fourth_order_convergence():
    spec = build_two_node(1.0, 2)
    x0 = np.array([0.3, -0.1])
    ref = integrate(spec, x0, 0.8, 2.0, dt=0.05 / 16).states[-1]
    e1 = np.linalg.norm(integrate(spec, x0, 0.8, 2.0, dt=0.05).states[-1] - ref)
    e2 = np.linalg.norm(integrate(spec, x0, 0.8, 2.0, dt=0.025).states[-1] - ref)
    assert 12.0 < e1 / e2 < 20.0


def test_trajectories_stay_bounded():
    rng = np.random.default_rng(1)
    for sat in (Saturation.odd(), Saturation.shifted(0.6)):
        A = rng.uniform(-2, 2, (4, 4))
        b = rng.uniform(-1, 1, 4)
        spec = NetworkSpec(A=A, saturation=sat, b=b)
        x0 = rng.uniform(-10, 10, 4)
        traj = integrate(spec, x0, 1.5, 40.0)
        bound = np.max(np.abs(b)) + sat.bound() + 1.0
        assert np.max(np.abs(traj.states[-1])) <= bound


def test_equilibria_are_fixed_points_of_the_flow():
    spec = build_influencer_ring(0.5)
    x_star = newton_equilibrium(spec, 0.4 * np.ones(5), 0.6)
    traj = integrate(spec, x_star, 0.6, 100.0)
    assert np.max(np.linalg.norm(traj.states - x_star, axis=1)) < 10 * 1e-10


def test_final_short_step_lands_on_t_end():
    spec = build_two_node(0.0, 1)
    traj = integrate(spec, np.array([0.1, 0.0]), 0.5, 1.0, dt=0.3)
    assert abs(traj.times[-1] - 1.0) < 1e-12


def test_settle_below_threshold_returns_neutral():
    spec = build_influencer_ring(0.0)
    x = settle(spec, 1e-2 * np.ones(5), 0.3, tol=1e-9)
    assert np.linalg.norm(x) < 1e-6


def test_settle_bistable_window_two_attractors():
    # inside the bistable window of the order-1 modulated pair
    spec = build_two_node(1.0, 1)
    u0 = 0.95
    x_neutral = settle(spec, np.array([0.01, -0.01]), u0, tol=1e-9, t_max=5000)
    x_opinion = settle(spec, np.array([0.8, -0.8]), u0, tol=1e-9, t_max=5000)
    assert np.linalg.norm(x_neutral) < 1e-6
    assert np.linalg.norm(x_opinion - x_neutral) > 0.1
    assert x_opinion[0] > 0 > x_opinion[1]


def test_settle_times_out_at_critical_attention():
    spec = build_influencer_ring(0.0)
    with pytest.raises(NotSettled) as err:
        settle(spec, 0.1 * np.ones(5), 0.5, tol=1e-9, t_max=500.0)
    assert err.value.state is not None
    assert err.value.residual >= 1e-9


def test_unstable_stepsize_diverges():
    spec = build_two_node(0.0, 1)
    with pytest.raises(Diverged) as err:
        integrate(spec, np.array([5.0, 5.0]), 1.0, 100.0, dt=10.0)
    partial = err.value.trajectory
    assert partial is not None
    assert partial.terminated_early == "diverged"
    # the rows up to and including the diverged state, in an array of their own
    assert partial.states.shape == (len(partial.times), spec.N)
    assert np.linalg.norm(partial.states[-1]) > DIVERGENCE_NORM
    assert np.all(np.linalg.norm(partial.states[:-1], axis=1) <= DIVERGENCE_NORM)
    assert partial.states.flags.owndata and partial.states.base is None
    full = integrate(spec, np.array([0.5, -0.5]), 1.0, 1.05, dt=0.1)
    assert full.states.shape == (len(full.times), spec.N) == (12, 2)


def test_large_initial_state_is_not_divergence():
    # the flow keeps ||x||_inf within max(||x0||_inf, ||b||_inf + S.bound()),
    # so a start of norm 2e6 decays like any other: no Diverged
    spec = build_two_node(1.0, 1)
    x = settle(spec, np.array([2e6, 0.0]), 0.5)
    assert np.linalg.norm(vector_field(spec, x, 0.5)) < 1e-9
    traj = integrate(spec, np.array([2e6, 0.0]), 0.5, 1.0)
    assert traj.terminated_early is None and len(traj.times) == 101
    assert np.abs(traj.states).max() <= 2e6


@pytest.mark.parametrize("tol, tau", [(0.0, 1.0), (-1e-9, 1.0), (float("nan"), 1.0),
                                      (1e-323, 1.0), (1e-30, 1e-300)])
def test_settle_rejects_tolerance_without_a_positive_error_scale(tol, tau):
    # the local error scale tol * tau / 10 must be positive: an underflow to 0
    # is a ValueError up front, not a division by zero inside the stepper
    spec = replace(build_two_node(0.0, 1), tau=tau)
    with pytest.raises(ValueError, match="tol must be positive"):
        settle(spec, np.array([0.1, -0.1]), 1.0, tol=tol)


@pytest.mark.parametrize("dt, t_max", [(0.0, None), (float("nan"), None), (-0.05, None),
                                       (float("inf"), None), (None, float("nan")),
                                       (None, 0.0), (None, -1.0), (None, float("inf"))])
def test_settle_rejects_a_step_or_time_budget_that_is_not_positive_and_finite(dt, t_max):
    # a zero or NaN first step never advances t, a negative one integrates
    # backward, and a NaN t_max switches the time budget off
    with pytest.raises(ValueError, match="dt and t_max must be positive and finite"):
        settle(build_two_node(1.0, 1), np.array([0.8, -0.8]), 0.95, dt=dt, t_max=t_max)


@pytest.mark.parametrize("t_end, dt, message", [
    (1e15, None, "samples"), (float("inf"), None, "samples"), (1.0, 1e-8, "samples"),
    (1.0, float("inf"), "dt must be positive and finite"),
])
def test_integrate_refuses_a_grid_it_cannot_hold(t_end, dt, message):
    # refused before the time grid is allocated: 1e15 / 0.01 samples would
    # take 1e17 list entries
    with pytest.raises(ValueError, match=message):
        integrate(build_two_node(0.0, 1), np.array([0.1, -0.1]), 1.0, t_end, dt)


def test_field_evaluations_per_settle_and_integrate(monkeypatch):
    # counts [builds, evaluations] of the field settle and integrate build
    counts = [0, 0]
    build = dynamics._field_at

    def counting(spec, u0):
        counts[0] += 1
        f = build(spec, u0)

        def field(x):
            counts[1] += 1
            return f(x)

        return field

    monkeypatch.setattr(dynamics, "_field_at", counting)
    # one window settle of the two-node pair: f at x0, then six evaluations
    # for each of its 155 step attempts, accepted or rejected
    settle(build_two_node(1.0, 1), np.array([0.8, -0.8]), 0.95, tol=1e-9, t_max=5000)
    assert counts == [1, 931]
    # RK4: four evaluations per step, 10 full steps and the short last one
    counts[:] = [0, 0]
    traj = integrate(build_two_node(1.0, 1), np.array([0.5, -0.5]), 1.0, 1.05, dt=0.1)
    assert counts == [1, 4 * (len(traj.times) - 1)] == [1, 44]


def test_non_finite_initial_state_rejected():
    spec = build_two_node(0.0, 1)
    with pytest.raises(NonFinite):
        integrate(spec, np.array([np.nan, 0.0]), 1.0, 1.0)


def test_settle_is_bit_identical_on_repeat():
    spec = build_two_node(1.0, 1)
    runs = [settle(spec, np.array([0.8, -0.8]), 0.95) for _ in range(2)]
    assert np.array_equal(runs[0], runs[1])


def test_settle_raises_on_a_field_that_turns_non_finite(monkeypatch):
    # the field is NaN beyond x_1 = 0.5, on the way to the attractor at 1:
    # rejected steps shrink until they underflow, and settle must raise
    def field(x):
        return np.full(x.shape, np.nan) if x[0] > 0.5 else 1.0 - x

    monkeypatch.setattr(dynamics, "_field_at", lambda spec, u0: field)
    with pytest.raises(NonFinite):
        settle(build_two_node(0.0, 1), np.zeros(2), 0.5)


def test_settle_raises_on_a_non_finite_field_at_the_start(monkeypatch):
    monkeypatch.setattr(dynamics, "_field_at", lambda spec, u0: lambda x: np.full(x.shape, np.inf))
    with pytest.raises(NonFinite):
        settle(build_two_node(0.0, 1), np.zeros(2), 0.5)


@st.composite
def settle_cases(draw):
    """A small random spec, attention and start; the start's basin is
    checked by the test through a long fixed-step reference run."""
    n = draw(st.integers(2, 4))
    unit = st.floats(-1.0, 1.0)
    A = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    index = st.integers(1, n)
    triplets = draw(st.dictionaries(st.tuples(index, index, index), unit, max_size=3))
    saturation = draw(st.one_of(st.just(Saturation.odd()),
                                st.builds(Saturation.shifted, unit)))
    spec = NetworkSpec(A=A.reshape(n, n), M=tuple((*k, w) for k, w in triplets.items()),
                       order=draw(st.integers(1, 3)), saturation=saturation,
                       b=np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))),
                       tau=draw(st.sampled_from([0.5, 1.0])))
    x0 = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    return spec, x0, draw(st.floats(0.1, 1.5))


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(settle_cases())
def test_settle_agrees_with_long_fixed_step_run(case):
    """settle returns a finite state within 2 tol / sigma_min(J) of where a
    long fixed-step RK4 run from the same start ends, or raises a typed
    error; it never returns NaN."""
    spec, x0, u0 = case
    tol = 1e-8
    try:
        ref = integrate(spec, x0, u0, 100.0 * spec.tau, dt=0.05 * spec.tau).states[-1]
    except ModnodError:
        ref = None
    # only starts whose reference run reached a stable equilibrium, to well
    # within tol, are comparable
    assume(ref is not None and np.linalg.norm(vector_field(spec, ref, u0)) < 1e-3 * tol)
    J = jacobian(spec, ref, u0)
    assume(np.max(np.linalg.eigvals(J).real) < 0)
    try:
        x = settle(spec, x0, u0, tol=tol)
    except ModnodError:
        return
    assert np.all(np.isfinite(x))
    sigma_min = np.linalg.svd(J, compute_uv=False)[-1]
    assert np.linalg.norm(x - ref) <= 2.0 * tol / sigma_min
