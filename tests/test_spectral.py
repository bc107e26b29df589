import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modnod import (
    DegenerateLeader,
    NetworkSpec,
    NoStrictLeader,
    NonConvergence,
    NonFinite,
    Saturation,
    build_drive_steer,
    build_influencer_ring,
    build_two_node,
    critical_attention,
    eigenpair_near,
    full_spectrum,
    leading_eigenpair,
    max_entry_normalized,
)
from modnod.spectral import _eigvals, _solve, nearest_real


def test_full_spectrum_identity():
    vals = np.sort(full_spectrum(np.eye(3)).real)
    np.testing.assert_allclose(vals, np.ones(3))


def test_full_spectrum_ring_circulant():
    spec = build_influencer_ring(0.0)
    vals = np.sort(full_spectrum(spec.A).real)
    expected = np.sort([2 * np.cos(2 * np.pi * k / 5) for k in range(5)])
    np.testing.assert_allclose(vals, expected, atol=1e-12)
    assert abs(np.max(vals) - 2.0) < 1e-12


def test_full_spectrum_two_node():
    vals = np.sort(full_spectrum(build_two_node(1.0, 1).A).real)
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-14)


def test_leading_eigenpair_ring():
    spec = build_influencer_ring(0.7)
    eig = leading_eigenpair(spec)
    assert abs(eig.lambda_max - 2.0) < 1e-12
    assert abs(eig.u0_star - 0.5) < 1e-12
    assert eig.spectral_gap > 1.0
    np.testing.assert_allclose(eig.v_max, np.ones(5) / np.sqrt(5), atol=1e-12)
    # symmetric matrix: right and left eigenvectors coincide after scaling
    wn = eig.w_max / np.linalg.norm(eig.w_max)
    assert np.max(np.abs(eig.v_max - wn)) < 1e-9


def test_leading_eigenpair_two_node():
    eig = leading_eigenpair(build_two_node(1.0, 1))
    assert abs(eig.lambda_max - 1.0) < 1e-12
    assert abs(eig.u0_star - 1.0) < 1e-12
    np.testing.assert_allclose(eig.v_max, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("a", [1e-40, 1e-33, 2.32348003e-250])
def test_leading_eigenvector_is_accurate_where_balancing_misleads_eig(a):
    # np.linalg.eig balances this A and returns an eigenvector of residual
    # 0.54 for its leading lambda = sqrt(2); at a = 0 it is accurate
    def tiny(a):
        return np.array([[0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0], [1, 1, a, 0]], dtype=float)

    A = tiny(a)
    eig = leading_eigenpair(NetworkSpec(A=A))
    v, w, lam = eig.v_max, eig.w_max, eig.lambda_max
    assert abs(lam - np.sqrt(2)) < 1e-15
    assert np.linalg.norm(A @ v - lam * v) < 1e-15
    assert np.linalg.norm(w @ A - lam * w) < 1e-15 * np.linalg.norm(w)
    np.testing.assert_allclose(v, leading_eigenpair(NetworkSpec(A=tiny(0.0))).v_max, atol=1e-15)


def test_eigen_invariants_random_matrices():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 7))
        A = rng.uniform(-2, 2, (n, n))
        spec = NetworkSpec(A=A)
        try:
            eig = leading_eigenpair(spec)
        except NoStrictLeader:
            continue
        checked += 1
        norm_a = np.linalg.norm(A, np.inf)
        assert np.max(np.abs(A @ eig.v_max - eig.lambda_max * eig.v_max)) < 1e-10 * norm_a
        assert np.max(np.abs(eig.w_max @ A - eig.lambda_max * eig.w_max)) < 1e-10 * norm_a
        assert abs(np.linalg.norm(eig.v_max) - 1.0) < 1e-12
        assert abs(eig.w_max @ eig.v_max - 1.0) < 1e-12
        assert eig.spectral_gap > 0
        peak = np.argmax(np.abs(eig.v_max))
        assert eig.v_max[peak] > 0
        near = eigenpair_near(spec, eig.lambda_max)
        for name in ("lambda_max", "v_max", "w_max", "u0_star", "spectral_gap"):
            np.testing.assert_array_equal(getattr(near, name), getattr(eig, name))

    # ill-conditioned non-normal A = S D S^-1 (S's diagonal scaled by up to
    # 1e-6), checked on every simple real eigenvalue, not only the leader
    checked = 0
    while checked < 300:
        n = int(rng.integers(2, 6))
        S = rng.uniform(-1, 1, (n, n))
        S[np.diag_indices(n)] *= 10.0 ** rng.uniform(-6, 0, n)
        D = rng.uniform(-2, 2, n)
        A = S @ np.diag(D) @ np.linalg.inv(S)
        spec = NetworkSpec(A=A)
        try:
            triples = [leading_eigenpair(spec)]
        except NoStrictLeader:
            continue
        checked += 1
        for lam in D:
            try:
                triples.append(eigenpair_near(spec, lam))
            except NoStrictLeader:
                pass
        norm_a = np.linalg.norm(A, 2)
        for eig in triples:
            w, v, lam = eig.w_max, eig.v_max, eig.lambda_max
            assert np.linalg.norm(w @ A - lam * w) <= 1e-12 * max(1.0, norm_a) * np.linalg.norm(w)
            # w @ v rounds to a few ulps of |w| @ |v|, which grows with the
            # eigenvalue's condition number
            assert abs(w @ v - 1.0) <= 1e-12 * max(1.0, np.abs(w) @ np.abs(v))


def test_no_strict_leader_cases():
    with pytest.raises(NoStrictLeader):
        leading_eigenpair(NetworkSpec(A=np.array([[0.0, 1.0], [-1.0, 0.0]])))
    with pytest.raises(NoStrictLeader):
        leading_eigenpair(NetworkSpec(A=np.eye(2)))  # repeated leader


def test_critical_attention_values():
    assert abs(critical_attention(build_influencer_ring(0.3)) - 0.5) < 1e-12
    assert abs(critical_attention(build_two_node(2.0, 2)) - 1.0) < 1e-12
    assert abs(critical_attention(build_drive_steer(1.0, 0.3, 0.5)) - 1.0) < 1e-12


def test_critical_attention_degenerate_leader():
    with pytest.raises(DegenerateLeader):
        critical_attention(NetworkSpec(A=-np.eye(2) + np.diag([0.0, -0.5])))


def test_critical_attention_raises_on_non_finite_value(monkeypatch):
    monkeypatch.setattr(Saturation, "derivative", lambda self, z: np.nan)
    with pytest.raises(NonFinite):
        critical_attention(build_two_node(1.0, 1))


def test_critical_attention_ignores_modulation():
    base = build_influencer_ring(0.0)
    for m_bar in (0.25, 1.0, 3.0):
        assert critical_attention(build_influencer_ring(m_bar)) == critical_attention(base)


def test_shifted_saturation_same_critical_attention():
    spec = build_two_node(1.0, 1)
    shifted = NetworkSpec(A=spec.A, M=spec.M, order=1,
                          saturation=spec.saturation.shifted(0.8))
    # S'(0) = 1 for both variants, so u0* agrees
    assert abs(critical_attention(shifted) - critical_attention(spec)) < 1e-12


def test_eigenpair_near_secondary_eigenvalue():
    spec = build_drive_steer(1.0, 0.3, 0.0)
    eig = eigenpair_near(spec, 0.3)
    assert abs(eig.lambda_max - 0.3) < 1e-12
    v = eig.v_max
    # kernel lives in the steering pair
    assert np.max(np.abs(v[:2])) < 1e-12
    assert abs(abs(v[2]) - abs(v[3])) < 1e-12


def test_nearest_real_skips_a_near_real_complex_pair():
    # eigenvalues +-1e-10 i and 5: the pair sits at distance 0 from the
    # target but is not real
    J = np.array([[0.0, 1e-10, 0.0], [-1e-10, 0.0, 0.0], [0.0, 0.0, 5.0]])
    vals = np.linalg.eigvals(J)
    assert vals[nearest_real(vals, 0.0)] == 5.0
    assert nearest_real(vals[vals.imag != 0], 0.0) is None


@st.composite
def mixed_spectrum_matrices(draw):
    """Real S D S^-1 with D block-diagonal: real eigenvalues and complex
    pairs a +- b i, b down to 1e-14 (near-real)."""
    reals = draw(st.lists(st.floats(-2, 2), max_size=3))
    pairs = draw(st.lists(st.tuples(st.floats(-2, 2), st.floats(-14, 0)),
                          min_size=0 if reals else 1, max_size=2))
    n = len(reals) + 2 * len(pairs)
    D = np.zeros((n, n))
    D[range(len(reals)), range(len(reals))] = reals
    for k, (a, log_b) in enumerate(pairs):
        i = len(reals) + 2 * k
        D[i:i + 2, i:i + 2] = [[a, 10.0 ** log_b], [-(10.0 ** log_b), a]]
    # strictly diagonally dominant (n <= 7), so S is invertible
    S = np.eye(n) + np.reshape(draw(st.lists(st.floats(-0.1, 0.1), min_size=n * n,
                                             max_size=n * n)), (n, n))
    return S @ D @ np.linalg.inv(S)


@settings(max_examples=200, deadline=None)
@given(mixed_spectrum_matrices(), st.floats(-3, 3))
def test_nearest_real_returns_only_real_eigenvalues(A, target):
    vals = np.linalg.eigvals(A)
    real = vals.imag == 0
    for t in [target, *vals.real]:  # the real part of a pair is the hard target
        idx = nearest_real(vals, t)
        if not real.any():
            assert idx is None
            continue
        assert vals[idx].imag == 0
        assert abs(vals[idx].real - t) == np.min(np.abs(vals.real[real] - t))


def test_max_entry_normalized_ring_gives_ones():
    eig = max_entry_normalized(leading_eigenpair(build_influencer_ring(0.5)))
    np.testing.assert_allclose(eig.v_max, np.ones(5), atol=1e-12)
    np.testing.assert_allclose(eig.w_max, np.ones(5) / 5.0, atol=1e-12)
    assert abs(eig.w_max @ eig.v_max - 1.0) < 1e-12


def assert_solve_matches_numpy(m, b):
    """_solve(m, b) is None where np.linalg.solve raises, else its bits."""
    x = _solve(m, b)
    try:
        want = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        assert x is None
        return
    np.testing.assert_array_equal(x, want)
    np.testing.assert_array_equal(np.signbit(x), np.signbit(want))


def test_solve_and_eigvals_helpers_equal_numpy_linalg_bit_for_bit():
    # the hot path calls numpy.linalg's private gufuncs; this pins them to
    # the public wrappers, signed zeros included
    rng = np.random.default_rng(21)
    for n in range(1, 7):
        for _ in range(40):
            a, b = rng.standard_normal((n, n)), rng.standard_normal(n)
            a[rng.random((n, n)) < 0.2] = 0.0  # some of these are singular
            # a general, a symmetric (real eigenvalues: the wrapper returns
            # floats) and a column-major matrix
            for m in (a, a + a.T, np.asfortranarray(a)):
                assert_solve_matches_numpy(m, b)
                vals, want = _eigvals(m), np.linalg.eigvals(m)
                assert vals.dtype == complex
                for got, ref in ((vals.real, want.real), (vals.imag, np.imag(want))):
                    np.testing.assert_array_equal(got, ref)
                    np.testing.assert_array_equal(np.signbit(got), np.signbit(ref))

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning from the gufuncs
        assert _solve(np.ones((3, 3)), np.ones(3)) is None
        assert _solve(np.zeros((1, 1)), np.ones(1)) is None
        for bad in (np.diag([1.0, np.nan]), np.array([[np.nan, 2.0], [2.0, 4.0]]),
                    np.array([[1.0, np.inf], [0.0, 1.0]])):
            assert_solve_matches_numpy(bad, np.ones(2))
            # eigvals refuses a non-finite matrix; the helper raises the typed error
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvals(bad)
            with pytest.raises(NonConvergence):
                _eigvals(bad)
