from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from modnod import (
    Classification,
    ComplementDiverged,
    LSReport,
    NetworkSpec,
    NoStrictLeader,
    OutOfDomain,
    Saturation,
    branch_point_at,
    build_influencer_ring,
    build_two_node,
    classify_singularity,
    leading_eigenpair,
    ls_derivatives,
    ls_reduced_g,
    max_entry_normalized,
    trace_branch,
)
from modnod.continuation import StepParams


def ring_eig(m_bar):
    spec = build_influencer_ring(m_bar)
    return spec, max_entry_normalized(leading_eigenpair(spec))


def ring_oracle(v, u0, m_bar):
    """Closed form of the reduced map on the (invariant) consensus diagonal
    with the all-ones kernel: every node sees two neighbors with gain
    u0 + m_bar * v."""
    return -v + np.tanh(2.0 * v * (u0 + m_bar * v))


@pytest.mark.parametrize("m_bar", [0.0, 0.5, 1.0])
def test_ring_reduction_matches_consensus_oracle(m_bar):
    spec, eig = ring_eig(m_bar)
    for v in (-0.25, -0.1, 0.0, 0.05, 0.2):
        for u0 in (0.42, 0.5, 0.58):
            g = ls_reduced_g(spec, eig, v, u0)
            assert abs(g - ring_oracle(v, u0, m_bar)) < 1e-9


def test_reduced_map_is_odd_for_symmetric_ring():
    spec, eig = ring_eig(0.0)
    for v in (0.02, 0.11, 0.27):
        assert abs(ls_reduced_g(spec, eig, v, 0.5)
                   + ls_reduced_g(spec, eig, -v, 0.5)) < 1e-10


def test_reduced_map_odd_for_even_order_modulation():
    # order-2 modulation preserves the sign symmetry of the full system
    spec = build_two_node(1.0, 2)
    eig = max_entry_normalized(leading_eigenpair(spec))
    for v in (0.05, 0.15, 0.28):
        for u0 in (0.95, 1.0, 1.05):
            assert abs(ls_reduced_g(spec, eig, v, u0)
                       + ls_reduced_g(spec, eig, -v, u0)) < 1e-10


def test_two_node_reduction_matches_antidiagonal_oracle():
    # M = 0: the anti-diagonal x = (a, -a) is invariant and the reduced map
    # in the max-entry normalization is exactly -a + tanh(u0 * a)
    spec = build_two_node(0.0, 1)
    eig = max_entry_normalized(leading_eigenpair(spec))
    np.testing.assert_allclose(eig.v_max, [1.0, -1.0], atol=1e-12)
    for v in (-0.2, 0.07, 0.25):
        for u0 in (0.9, 1.0, 1.1):
            assert abs(ls_reduced_g(spec, eig, v, u0)
                       - (-v + np.tanh(u0 * v))) < 1e-10


def test_trivial_zero_at_the_singularity():
    spec, eig = ring_eig(0.25)
    assert ls_reduced_g(spec, eig, 0.0, eig.u0_star) == 0.0


@pytest.mark.parametrize("m_bar", [0.0, 0.25, 0.5, 1.0])
def test_ring_derivative_values(m_bar):
    # Closed form on the consensus diagonal at (0, 1/2): g(v, u0) =
    # -v + S(2 v (u0 + m_bar v)) with S''(0) = 2 tanh s and
    # S'''(0) = 6 tanh^2 s - 2, so g_vv = 4 m_bar + 2 tanh s,
    # g_vvv = 24 m_bar tanh s + 6 tanh^2 s - 2, and the crossing speed g_vu0
    # equals lambda_max = 2.
    for shift in (0.0, 0.5, 3.0, 20.0):
        spec = replace(build_influencer_ring(m_bar), saturation=Saturation.shifted(shift))
        rep = ls_derivatives(spec, max_entry_normalized(leading_eigenpair(spec)))
        t = np.tanh(shift)
        for got, want in [(rep.g, 0.0), (rep.g_v, 0.0), (rep.g_u0, 0.0), (rep.g_vu0, 2.0),
                          (rep.g_vv, 4.0 * m_bar + 2.0 * t),
                          (rep.g_vvv, 24.0 * m_bar * t + 6.0 * t * t - 2.0)]:
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        expected = (Classification.SUPERCRITICAL_PITCHFORK if m_bar == 0.0 and shift == 0.0
                    else Classification.TRANSCRITICAL)
        assert rep.classification == expected
        np.testing.assert_allclose(rep.kernel, np.ones(5), atol=1e-12)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, Classification.TRANSCRITICAL),
        (2, Classification.SUBCRITICAL_PITCHFORK),
        (3, Classification.SUPERCRITICAL_PITCHFORK),
    ],
)
def test_two_node_order_classifications(n, expected):
    # the order alone sets the type: for n = 3, q has degree 4, so g_vv is
    # exactly 0 however strong the modulation
    for m_strength in (1.0, 4.0, 10.0):
        spec = build_two_node(m_strength, n)
        rep = ls_derivatives(spec, max_entry_normalized(leading_eigenpair(spec)))
        assert rep.classification == expected


@st.composite
def reducible_specs(draw):
    n = draw(st.integers(2, 5))
    index = st.integers(1, n)
    A = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n)))
    M = {}
    for _ in range(draw(st.integers(0, 4))):
        key = (draw(index), draw(index), draw(index))
        M[key] = (*key, draw(st.floats(-2.0, 2.0)))
    saturation = draw(st.one_of(st.just(Saturation.odd()),
                                st.builds(Saturation.shifted, st.floats(-3.0, 3.0))))
    # the diagonal shift also makes negative leading eigenvalues (u0* < 0)
    A = A.reshape(n, n) - draw(st.floats(0.0, 3.0)) * np.eye(n)
    return NetworkSpec(A=A, M=tuple(M.values()), order=draw(st.integers(1, 3)),
                       saturation=saturation, tau=draw(st.floats(0.2, 5.0)))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(reducible_specs())
# eig's balancing once gave this A a leading eigenvector of residual 0.54
@example(NetworkSpec(A=np.array([[0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0],
                                 [1, 1, 2.32348003e-250, 0]], dtype=float)))
def test_closed_form_matches_extrapolated_differences_of_reduced_map(spec):
    try:
        eig = max_entry_normalized(leading_eigenpair(spec))
    except NoStrictLeader:
        assume(False)
    # a well-separated leader keeps the complement solve well conditioned,
    # so that the differences resolve the coefficients
    assume(abs(eig.lambda_max) > 0.2 and eig.spectral_gap > 0.1 * abs(eig.lambda_max))
    rep = ls_derivatives(spec, eig)
    u0 = eig.u0_star

    def g(dv, du):
        return ls_reduced_g(spec, eig, dv, u0 * (1.0 + du))

    def differences(h):
        g_vv = (g(h, 0) - 2 * g(0, 0) + g(-h, 0)) / h**2
        g_vvv = (g(2 * h, 0) - 2 * g(h, 0) + 2 * g(-h, 0) - g(-2 * h, 0)) / (2 * h**3)
        g_vu0 = (g(h, h) - g(-h, h) - g(h, -h) + g(-h, -h)) / (4 * h * h * u0)
        return np.array([g_vv, g_vu0, g_vvv])

    # central differences err by O(h^2); one Richardson step removes that term
    extrapolated = (4 * differences(1e-3) - differences(2e-3)) / 3
    exact = np.array([rep.g_vv, rep.g_vu0, rep.g_vvv])
    assert np.all(np.abs(exact - extrapolated) <= 1e-5 * np.maximum(1.0, np.abs(exact)))


def test_crossing_speed_independent_of_modulation():
    # the linear-in-v structure at the origin ignores the modulation, so
    # g_v and g_vu0 agree across specs differing only in M
    reports = [ls_derivatives(*ring_eig(m)) for m in (0.0, 0.5, 2.0)]
    for rep in reports[1:]:
        assert abs(rep.g_v - reports[0].g_v) < 1e-6
        assert abs(rep.g_vu0 - reports[0].g_vu0) < 1e-6


def test_zero_set_matches_continuation_branch():
    # points of the continued nontrivial branch near the singularity are
    # zeros of the reduced map after pulling back onto the kernel
    spec, eig = ring_eig(0.5)
    from modnod import diagram
    branches = diagram(spec, (0.3, 0.65))
    v_unit = eig.v_max / np.linalg.norm(eig.v_max)
    checked = 0
    for b in branches[1:]:
        for p in b.points:
            v = float(p.x @ v_unit) / np.linalg.norm(eig.v_max)
            if abs(v) <= 0.29 and abs(p.u0 - 0.5) <= 0.14:
                assert abs(ls_reduced_g(spec, eig, v, p.u0)) < 1e-5
                checked += 1
    assert checked > 5


def make_report(g_vv, g_vvv, g_vu0):
    return LSReport(g=0.0, g_v=0.0, g_u0=0.0, g_vv=g_vv, g_vu0=g_vu0,
                    g_vvv=g_vvv, classification=Classification.DEGENERATE,
                    u0_star=0.5, kernel=np.ones(5))


def test_classifier_rules():
    assert classify_singularity(make_report(0.0, -2.0, 3.0)) \
        == Classification.SUPERCRITICAL_PITCHFORK
    assert classify_singularity(make_report(0.0, 2.0, 3.0)) \
        == Classification.SUBCRITICAL_PITCHFORK
    assert classify_singularity(make_report(2.0, -2.0, 3.0)) \
        == Classification.TRANSCRITICAL
    assert classify_singularity(make_report(0.0, 0.0, 3.0)) \
        == Classification.DEGENERATE
    assert classify_singularity(make_report(1e-9, 1e-9, 1e-9)) \
        == Classification.DEGENERATE


def test_out_of_domain_rejected():
    spec, eig = ring_eig(0.0)
    with pytest.raises(OutOfDomain):
        ls_reduced_g(spec, eig, 0.5, 0.5)
    with pytest.raises(OutOfDomain):
        ls_reduced_g(spec, eig, 0.0, 0.9)


def test_complement_solve_budget():
    # order-1 modulation forces a nontrivial complement component; with a
    # single iteration the bordered Newton cannot reach tolerance
    spec = build_two_node(1.0, 1)
    eig = max_entry_normalized(leading_eigenpair(spec))
    with pytest.raises(ComplementDiverged):
        ls_reduced_g(spec, eig, 0.25, 1.05, max_iter=1)
