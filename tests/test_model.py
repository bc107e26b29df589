from dataclasses import FrozenInstanceError, replace
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modnod import (
    NetworkSpec,
    Saturation,
    build_influencer_ring,
    build_two_node,
    critical_attention,
    inner_argument,
    jacobian,
    modulated_gains,
    vector_field,
)
from modnod.model import MAX_SHIFT, _field_at, linearize


def random_spec(rng, n_max=6, orders=(1, 2, 3)):
    n = int(rng.integers(2, n_max + 1))
    A = rng.uniform(-2, 2, (n, n))
    trip = {}
    for _ in range(int(rng.integers(0, 5))):
        key = (int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)),
               int(rng.integers(1, n + 1)))
        trip[key] = (*key, float(rng.uniform(-2, 2)))
    return NetworkSpec(A=A, M=tuple(trip.values()),
                       order=int(rng.choice(orders)))


# -- saturation --------------------------------------------------------------

def test_odd_saturation_basics():
    s = Saturation.odd()
    assert s(0.0) == 0.0
    assert 0.999999 < s(100.0) <= 1.0
    z = np.linspace(-5, 5, 41)
    np.testing.assert_allclose(s(-z), -s(z), atol=1e-15)


def test_shifted_saturation_zero_at_zero():
    # (tanh(-s) + tanh(s)) / (1 - tanh(s)^2) = 0 for every shift
    for shift in (-3.0, -0.7, 0.5, 2.0):
        assert abs(Saturation.shifted(shift)(0.0)) < 1e-15


def test_saturation_derivative_is_one_at_zero():
    for shift in np.linspace(-3, 3, 13):
        assert abs(Saturation.shifted(shift).derivative(0.0) - 1.0) < 1e-12
    assert abs(Saturation.odd().derivative(0.0) - 1.0) < 1e-12


@pytest.mark.parametrize("sat", [Saturation.odd(), Saturation.shifted(0.7)])
def test_saturation_derivative_matches_central_difference(sat):
    rng = np.random.default_rng(3)
    h = 1e-6
    for z in rng.uniform(-3, 3, 20):
        fd = (sat(z + h) - sat(z - h)) / (2 * h)
        assert abs(sat.derivative(z) - fd) <= 1e-8 * max(1.0, abs(fd))


@pytest.mark.parametrize("sat", [Saturation.odd(), Saturation.shifted(-3.0),
                                 Saturation.shifted(0.6), Saturation.shifted(18.0)])
def test_value_and_derivative_equal_call_and_derivative_bit_for_bit(sat):
    # z spans the clipped region |z| > |s| + 20 of the shifted form
    reach = abs(sat.shift) + 30.0
    z = np.concatenate([[0.0, -0.0, 1e300, -1e300], np.linspace(-reach, reach, 4001),
                        np.random.default_rng(6).uniform(-3.0, 3.0, 200)])
    for arg in (z, 0.0, -0.0, 0.3, -reach):
        s, sp = sat.value_and_derivative(arg)
        for got, want in ((s, sat(arg)), (sp, sat.derivative(arg))):
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shift", [18.0, 20.0, -20.0])
def test_large_shift_saturation_matches_closed_form(shift):
    # tanh(z - s) + tanh(s) cancels to nothing once tanh(s) rounds to 1
    # (S = 0 at s = 18, NaN at s = 20); the cosh form keeps every digit
    sat = Saturation.shifted(shift)
    for z in np.linspace(-30.0, 30.0, 241):
        ref = math.sinh(z) * math.cosh(shift) / math.cosh(z - shift)
        ref_d = (math.cosh(shift) / math.cosh(z - shift)) ** 2
        assert abs(sat(z) - ref) <= 1e-13 * abs(ref)
        assert abs(sat.derivative(z) - ref_d) <= 1e-13 * ref_d
    assert sat(0.0) == 0.0
    assert abs(sat.derivative(0.0) - 1.0) < 1e-15
    assert sat.bound() == pytest.approx(math.cosh(shift) * math.exp(abs(shift)))
    assert np.all(np.isfinite(sat(np.array([-1e6, -800.0, 800.0, 1e6]))))
    spec = NetworkSpec(A=build_influencer_ring(0.5).A, saturation=sat)
    assert critical_attention(spec) == pytest.approx(0.5, abs=1e-12)
    assert np.all(np.isfinite(vector_field(spec, 0.1 * np.ones(5), 0.6)))


def test_saturation_rejects_shift_beyond_max_shift():
    assert math.isfinite(Saturation.shifted(MAX_SHIFT).bound())
    with pytest.raises(ValueError):
        Saturation.shifted(-1.001 * MAX_SHIFT)


def test_saturation_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Saturation("sigmoid", 0.0)


# -- spec validation ---------------------------------------------------------

def test_spec_rejects_bad_shapes_and_values():
    with pytest.raises(ValueError):
        NetworkSpec(A=np.zeros((2, 3)))
    with pytest.raises(ValueError):
        NetworkSpec(A=np.zeros((2, 2)), b=np.zeros(3))
    with pytest.raises(ValueError):
        NetworkSpec(A=np.zeros((2, 2)), tau=0.0)
    with pytest.raises(ValueError):
        NetworkSpec(A=np.zeros((2, 2)), order=0)
    with pytest.raises(ValueError):
        NetworkSpec(A=np.zeros((2, 2)), M=((1, 1, 3, 1.0),))  # index out of range
    with pytest.raises(ValueError):
        NetworkSpec(A=np.zeros((2, 2)), M=((1, 1, 2, 1.0), (1, 1, 2, 0.5)))  # dup


# -- gains / inner argument --------------------------------------------------

def test_gains_without_modulation_are_all_u0():
    spec = NetworkSpec(A=np.eye(3))
    np.testing.assert_array_equal(modulated_gains(spec, np.ones(3), 0.7),
                                  np.full((3, 3), 0.7))


def test_gains_two_node_single_entry():
    spec = build_two_node(1.0, 1)
    gains = modulated_gains(spec, np.array([0.5, -0.2]), 1.0)
    expected = np.ones((2, 2))
    expected[1, 0] = 1.5  # u0 + m_211 * x_1
    np.testing.assert_allclose(gains, expected)


def test_gains_at_origin_are_all_u0():
    rng = np.random.default_rng(5)
    spec = random_spec(rng)
    np.testing.assert_array_equal(modulated_gains(spec, np.zeros(spec.N), 1.3),
                                  np.full((spec.N, spec.N), 1.3))


def test_inner_argument_zero_state():
    rng = np.random.default_rng(6)
    spec = random_spec(rng)
    np.testing.assert_array_equal(inner_argument(spec, np.zeros(spec.N), 0.9),
                                  np.zeros(spec.N))


def test_inner_argument_ring_consensus():
    # two unit-weight neighbors each: p_i = u0 * 2 = 1.0 at u0 = 0.5
    spec = build_influencer_ring(0.0)
    np.testing.assert_allclose(inner_argument(spec, np.ones(5), 0.5), np.ones(5))


def test_inner_argument_two_node_hand_value():
    # p_1 = a_12 * u0 * x_2 = -1;  p_2 = a_21 * (u0 + m * x_1) * x_1 = -2
    spec = build_two_node(1.0, 1)
    np.testing.assert_allclose(inner_argument(spec, np.ones(2), 1.0),
                               np.array([-1.0, -2.0]))


# -- vector field ------------------------------------------------------------

def test_origin_is_equilibrium_without_inputs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_spec(rng)
        for u0 in (-1.0, 0.3, 2.5):
            assert np.linalg.norm(vector_field(spec, np.zeros(spec.N), u0)) == 0.0


def two_node_field_oracle(x, u0, m, n, tau=1.0):
    """Independent componentwise evaluation of the two-node equations."""
    x1, x2 = x
    p1 = -u0 * x2
    p2 = -(u0 + m * x1**n) * x1
    return np.array([(-x1 + np.tanh(p1)) / tau, (-x2 + np.tanh(p2)) / tau])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_two_node_field_matches_scalar_oracle(n):
    spec = build_two_node(1.0, n)
    rng = np.random.default_rng(8)
    for _ in range(25):
        x = rng.uniform(-1.5, 1.5, 2)
        u0 = rng.uniform(0.0, 2.0)
        np.testing.assert_allclose(vector_field(spec, x, u0),
                                   two_node_field_oracle(x, u0, 1.0, n),
                                   atol=1e-14)


def test_constant_input_shifts_field_at_origin():
    spec = NetworkSpec(A=np.array([[0.0, -1.0], [-1.0, 0.0]]), b=np.array([0.3, 0.0]))
    np.testing.assert_allclose(vector_field(spec, np.zeros(2), 1.0),
                               np.array([0.3, 0.0]))


def test_odd_equivariance():
    # b = 0, odd saturation, even modulation order: F(-x) = -F(x)
    rng = np.random.default_rng(9)
    for _ in range(20):
        spec = random_spec(rng, orders=(2,))
        x = rng.uniform(-2, 2, spec.N)
        u0 = rng.uniform(-1, 2)
        resid = vector_field(spec, -x, u0) + vector_field(spec, x, u0)
        assert np.max(np.abs(resid)) < 1e-12


def test_odd_equivariance_empty_modulation_any_order():
    rng = np.random.default_rng(10)
    for order in (1, 2, 3):
        A = rng.uniform(-2, 2, (4, 4))
        spec = NetworkSpec(A=A, order=order)
        x = rng.uniform(-2, 2, 4)
        resid = vector_field(spec, -x, 1.1) + vector_field(spec, x, 1.1)
        assert np.max(np.abs(resid)) < 1e-12


# -- jacobian ----------------------------------------------------------------

def fd_jacobian(spec, x, u0, h=1e-5):
    n = spec.N
    J = np.zeros((n, n))
    for l in range(n):
        e = np.zeros(n)
        e[l] = h
        J[:, l] = (vector_field(spec, x + e, u0) - vector_field(spec, x - e, u0)) / (2 * h)
    return J


def test_jacobian_at_origin_ignores_modulation():
    rng = np.random.default_rng(11)
    A = rng.uniform(-2, 2, (4, 4))
    m1 = ((1, 2, 3, 0.8), (4, 4, 1, -1.2))
    m2 = ((2, 3, 4, 1.5),)
    tau = 0.7
    s1 = NetworkSpec(A=A, M=m1, order=2, tau=tau)
    s2 = NetworkSpec(A=A, M=m2, order=2, tau=tau)
    for u0 in (0.2, 1.0, 3.0):
        j1 = jacobian(s1, np.zeros(4), u0)
        j2 = jacobian(s2, np.zeros(4), u0)
        np.testing.assert_array_equal(j1, j2)
        np.testing.assert_allclose(j1, (-np.eye(4) + u0 * A) / tau, atol=1e-15)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(12)
    for _ in range(25):
        spec = random_spec(rng)
        x = rng.uniform(-2, 2, spec.N)
        u0 = rng.uniform(-2, 2)
        J = jacobian(spec, x, u0)
        Jfd = fd_jacobian(spec, x, u0)
        scale = max(1.0, np.max(np.abs(Jfd)))
        assert np.max(np.abs(J - Jfd)) / scale < 1e-6


def test_jacobian_two_node_order_two_hand_expansion():
    # row 2, column 1 picks up the modulation term 2 * a_21 * m * x_1 * x_1
    spec = build_two_node(1.0, 2)
    x = np.array([0.3, 0.1])
    u0 = 1.0
    p2 = -(u0 + x[0] ** 2) * x[0]
    dp21 = -(u0 + x[0] ** 2) + 2.0 * (-1.0) * 1.0 * x[0] * x[0]
    expected = (1.0 - np.tanh(p2) ** 2) * dp21
    assert abs(jacobian(spec, x, u0)[1, 0] - expected) < 1e-14


def test_jacobian_power_convention_at_zero_entry():
    # order 1 with a zero modulating state: x_l**(n-1) must act as 1
    spec = build_two_node(1.0, 1)
    x = np.array([0.0, 0.4])
    J = jacobian(spec, x, 0.8)
    assert np.all(np.isfinite(J))
    np.testing.assert_allclose(J, fd_jacobian(spec, x, 0.8), atol=1e-9)


# -- fused linearisation -------------------------------------------------------

def loop_jacobian(spec, x, u0):
    """Reference Jacobian: the gains and the modulation terms of dp/dx built
    by a loop over M, one triplet at a time, in M's order."""
    n = spec.order
    gains = np.full((spec.N, spec.N), float(u0))
    xn = x ** n
    for i, j, k, w in spec.M:
        gains[i - 1, j - 1] += w * xn[k - 1]
    dp = spec.A * gains
    xm = np.ones_like(x) if n == 1 else x ** (n - 1)
    for i, j, k, w in spec.M:
        dp[i - 1, k - 1] += n * spec.A[i - 1, j - 1] * w * xm[k - 1] * x[j - 1]
    sp = spec.saturation.derivative((spec.A * gains) @ x)
    return (sp[:, None] * dp - np.eye(spec.N)) / spec.tau


def loop_field(spec, x, u0):
    """Reference gains, p and F: the gains built by a loop over M, one
    triplet at a time, in M's order, as in ``loop_jacobian``."""
    gains = np.full((spec.N, spec.N), float(u0))
    xn = x ** spec.order
    for i, j, k, w in spec.M:
        gains[i - 1, j - 1] += w * xn[k - 1]
    p = (spec.A * gains) @ x
    return gains, p, (-x + spec.b + spec.saturation(p)) / spec.tau


@st.composite
def linearize_cases(draw):
    n = draw(st.integers(1, 3))
    index = st.integers(1, n)
    weight = st.floats(-2.0, 2.0)
    # every (j, k) of a drawn j-set and k-set for a few rows i: triplets that
    # share (i, j) with different k, and (i, k) with different j
    triplets = {}
    for i in draw(st.lists(index, max_size=2, unique=True)):
        ks = draw(st.lists(index, min_size=1, max_size=3, unique=True))
        for j in draw(st.lists(index, min_size=1, max_size=3, unique=True)):
            for k in ks:
                triplets[(i, j, k)] = draw(weight)
    saturation = draw(st.one_of(st.just(Saturation.odd()),
                                st.builds(Saturation.shifted, st.floats(-3.0, 3.0))))
    A = np.array(draw(st.lists(weight, min_size=n * n, max_size=n * n))).reshape(n, n)
    spec = NetworkSpec(A=A, M=tuple((*key, w) for key, w in triplets.items()),
                       order=draw(st.integers(1, 3)), saturation=saturation,
                       b=np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n))),
                       tau=draw(st.sampled_from([0.5, 1.0, 1.7])))
    state = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.5, 1.5))
    x = np.array(draw(st.lists(state, min_size=n, max_size=n)))
    return spec, x, draw(st.floats(-1.0, 3.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(linearize_cases())
def test_linearize_matches_field_loop_jacobian_and_u0_difference(case):
    spec, x, u0 = case
    f, jac, f_u0 = linearize(spec, x, u0)
    # the compiled edge kernel against the loop, bit for bit, signed zeros included
    gains, p, field = loop_field(spec, x, u0)
    for got, want in ((modulated_gains(spec, x, u0), gains), (inner_argument(spec, x, u0), p),
                      (vector_field(spec, x, u0), field), (f, field)):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    np.testing.assert_array_equal(jac, loop_jacobian(spec, x, u0))
    np.testing.assert_array_equal(jac, jacobian(spec, x, u0))
    # a column-major A (as A.T is) gives the same bits as the row-major one
    spec_f = replace(spec, A=np.asfortranarray(spec.A))
    for got, want in zip(linearize(spec_f, x, u0), (f, jac, f_u0)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(vector_field(spec_f, x, u0), field)
    np.testing.assert_array_equal(inner_argument(spec_f, x, u0), p)
    # one closure per spec evaluated on a sequence of states rewrites one
    # gains buffer; every result still equals the loop, signed zeros included
    states = (x, -x, np.roll(x, 1), np.zeros(spec.N), -np.zeros(spec.N), x)
    for s in (spec, spec_f):
        f_at = _field_at(s, u0)
        results = [f_at(y) for y in states]
        for y, got in zip(states, results):
            want = loop_field(spec, y, u0)[2]
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
    # central difference in u0: rounding is about eps * |F terms| / h, and the
    # truncation h**2 / 6 * |d3F/du0^3| is far below it at h = 1e-6
    h = 1e-6
    fd = (vector_field(spec, x, u0 + h) - vector_field(spec, x, u0 - h)) / (2 * h)
    size = (np.max(np.abs(x)) + np.max(np.abs(spec.b)) + spec.saturation.bound()) / spec.tau
    np.testing.assert_allclose(f_u0, fd, rtol=1e-6, atol=1e-8 * (1.0 + size))


def test_spec_is_frozen_and_owns_read_only_arrays():
    A = np.array([[0.0, -1.0], [-1.0, 0.0]])
    spec = NetworkSpec(A=A, M=((2, 1, 1, 1.0),))
    with pytest.raises(FrozenInstanceError):
        spec.M = ((1, 2, 2, 1.0),)
    with pytest.raises(FrozenInstanceError):
        spec.order = 2
    with pytest.raises(ValueError):
        spec.A[0, 1] = 5.0
    with pytest.raises(ValueError):
        spec.b[0] = 1.0
    A[0, 1] = 5.0  # the caller's array is not the spec's
    assert spec.A[0, 1] == -1.0
