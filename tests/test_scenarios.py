import numpy as np
import pytest

from modnod import (
    branch_point_at,
    build_drive_steer,
    build_influencer_ring,
    build_scenario,
    build_two_node,
    drive_steer_label,
    jacobian,
    leading_eigenpair,
    newton_equilibrium,
)


def test_builders_are_deterministic():
    for a, b in [
        (build_two_node(1.0, 2), build_two_node(1.0, 2)),
        (build_influencer_ring(0.5), build_influencer_ring(0.5)),
        (build_drive_steer(1.0, 0.3, 2.0), build_drive_steer(1.0, 0.3, 2.0)),
    ]:
        assert a == b


def test_two_node_structure():
    spec = build_two_node(0.7, 3)
    np.testing.assert_array_equal(spec.A, [[0.0, -1.0], [-1.0, 0.0]])
    assert spec.M == ((2, 1, 1, 0.7),)
    assert spec.order == 3
    assert np.all(spec.b == 0)


def test_ring_structure():
    spec = build_influencer_ring(0.5)
    row_sums = spec.A.sum(axis=1)
    np.testing.assert_array_equal(row_sums, 2 * np.ones(5))
    np.testing.assert_array_equal(spec.A, spec.A.T)
    assert len(spec.M) == 10  # every directed edge modulated by node 1
    assert all(k == 1 and w == 0.5 for _, _, k, w in spec.M)


def test_ring_leading_eigenvalue_independent_of_modulation():
    for m_bar in (0.0, 0.5, 2.0):
        eig = leading_eigenpair(build_influencer_ring(m_bar))
        assert abs(eig.lambda_max - 2.0) < 1e-12


def test_drive_steer_structure_and_scaling():
    spec = build_drive_steer(1.0, 0.3, 2.0)
    np.testing.assert_array_equal(spec.A[:2, 2:], np.zeros((2, 2)))
    np.testing.assert_array_equal(spec.A[2:, :2], np.zeros((2, 2)))
    assert spec.A[0, 1] == -1.0 and spec.A[2, 3] == -0.3
    # the modulation weight is m_bar / beta so the steering pair
    # destabilizes where beta*u0 + m_bar*x1 = 1
    weights = {t[:3]: t[3] for t in spec.M}
    assert weights == {(3, 4, 1): 2.0 / 0.3, (4, 3, 1): 2.0 / 0.3}


def test_drive_steer_jacobian_block_diagonal_when_steering_neutral():
    spec = build_drive_steer(1.0, 0.3, 2.0)
    x1 = newton_equilibrium(spec, np.array([0.8, -0.8, 0.0, 0.0]), 1.5)
    assert abs(x1[2]) < 1e-12 and abs(x1[3]) < 1e-12
    J = jacobian(spec, x1, 1.5)
    assert np.max(np.abs(J[:2, 2:])) == 0.0
    assert np.max(np.abs(J[2:, :2])) == 0.0


def test_drive_steer_labels():
    spec = build_drive_steer(1.0, 0.3, 0.0)
    cases = [
        (np.zeros(4), "id"),
        (np.array([0.5, -0.5, 0.0, 0.0]), "dr"),
        (np.array([-0.5, 0.5, 0.0, 0.0]), "st"),
        (np.array([0.5, -0.5, 0.3, -0.3]), "drl"),
        (np.array([-0.5, 0.5, -0.3, 0.3]), "str"),
    ]
    from modnod.continuation import BranchPoint

    for x, expected in cases:
        point = BranchPoint(u0=2.0, x=x, leading_jac_eig=-1.0, stable=True,
                            tangent=np.zeros(5), det_sign=1.0)
        assert drive_steer_label(point) == expected


def test_build_scenario_dispatch_and_validation():
    assert build_scenario("two_node", m_strength=0.5, n=2) == build_two_node(0.5, 2)
    assert build_scenario("influencer_ring") == build_influencer_ring(0.0)
    with pytest.raises(ValueError):
        build_scenario("nope")
    with pytest.raises(ValueError):
        build_scenario("two_node", weird=1)
    with pytest.raises(ValueError):
        build_scenario("drive_steer", beta=-1.0)
