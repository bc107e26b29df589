"""Numerical Lyapunov-Schmidt reduction at a simple steady-state singularity.

Near a crossing at (x, u0) = (0, u0*), equilibria are captured by a scalar
equation g(v, u0) = 0 along the kernel direction v_c: for each (v, u0) the
component y in the orthogonal complement of v_c is solved from the
range-projected equilibrium equation

    (I - v_c w_c^T) F(v * v_c + y, u0) = 0,      <v_c, y> = 0,

with F = tau * vector_field (the undivided field), and

    g(v, u0) = <w_c, F(v * v_c + y(v, u0), u0)>.

The singularity type then follows from the low-order derivatives of g via
the standard recognition conditions: a nonzero second v-derivative marks a
transcritical crossing, a vanishing second with nonzero third derivative a
pitchfork, supercritical exactly when the cubic and the eigenvalue-crossing
speed have opposite signs.

Derivative values depend on the kernel normalization; reports record the
kernel vector used.  Pass a max-entry-normalized triple (all-ones kernel
for consensus problems) to express coefficients per unit of per-node
opinion amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ComplementDiverged, OutOfDomain
from .continuation import _bordered_solve
from .model import NetworkSpec, linearize, vector_field
from .spectral import EigenTriple

__all__ = [
    "Classification",
    "LSReport",
    "ls_reduced_g",
    "ls_derivatives",
    "classify_singularity",
]

#: FD steps balancing truncation against complement-solve noise; validated
#: to 1% on the closed-form ring oracle before freezing
FD_STEP_V = 5e-3
FD_STEP_U0_REL = 5e-3
#: default degeneracy tolerance on derivatives normalized by the crossing
#: speed g_vu0
CLASSIFY_TOL = 1e-4


class Classification(str, Enum):
    SUPERCRITICAL_PITCHFORK = "SupercriticalPitchfork"
    SUBCRITICAL_PITCHFORK = "SubcriticalPitchfork"
    TRANSCRITICAL = "Transcritical"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class LSReport:
    """Finite-difference derivatives of the reduced map at (0, u0*)."""

    g: float
    g_v: float
    g_u0: float
    g_vv: float
    g_vu0: float
    g_vvv: float
    classification: Classification
    fd_steps: tuple  # (h_v, h_u0)
    u0_star: float
    kernel: np.ndarray  # the v_c used, fixing the normalization


def ls_reduced_g(
    spec: NetworkSpec,
    eig: EigenTriple,
    v: float,
    u0: float,
    tol: float = 1e-12,
    max_iter: int = 30,
) -> float:
    """Evaluate the reduced scalar map g(v, u0).

    Valid in a neighborhood of the singularity: |v| <= 0.3 and
    |u0 - u0*| <= 0.3 * u0* (OutOfDomain otherwise).  The complement
    component is found by a bordered Newton iteration (ComplementDiverged
    on failure).
    """
    u0_star = eig.u0_star
    if abs(v) > 0.3 or abs(u0 - u0_star) > 0.3 * abs(u0_star):
        raise OutOfDomain(
            f"(v={v:.4g}, u0={u0:.4g}) outside the reduction neighborhood "
            f"of (0, {u0_star:.4g})"
        )

    n = spec.N
    v_c, w_c = eig.v_max, eig.w_max
    v_unit = v_c / np.linalg.norm(v_c)
    row = np.append(v_unit, 0.0)

    x0 = v * v_c
    y = np.zeros(n)
    c = float(w_c @ (spec.tau * vector_field(spec, x0, u0))) / float(w_c @ v_c)
    for _ in range(max_iter):
        f, jac, _ = linearize(spec, x0 + y, u0)
        f = spec.tau * f
        res = np.concatenate([f - c * v_c, [v_unit @ y]])
        if np.linalg.norm(res) < tol:
            return float(w_c @ f)
        delta = _bordered_solve(spec.tau * jac, -v_c, row, -res)
        if delta is None:
            raise ComplementDiverged(
                f"bordered solve singular or non-finite at (v={v:.4g}, u0={u0:.4g})"
            )
        y = y + delta[:n]
        c = c + delta[n]
    raise ComplementDiverged(
        f"complement solve did not converge at (v={v:.4g}, u0={u0:.4g})"
    )


def ls_derivatives(spec: NetworkSpec, eig: EigenTriple, tol: float = CLASSIFY_TOL) -> LSReport:
    """Central finite differences of the reduced map on a 5 x 3 stencil
    centered at the singularity (0, u0*).

    The third v-derivative uses the antisymmetric 5-point stencil; the u0
    step scales with u0* so the stencil stays inside the reduction
    neighborhood for any eigenvalue magnitude.  Needs b = 0 (OutOfDomain).
    """
    if np.any(spec.b != 0):
        raise OutOfDomain("the reduction at x = 0 needs b = 0, the origin is no equilibrium")
    u0_star = eig.u0_star
    h_v = FD_STEP_V
    h_u = FD_STEP_U0_REL * abs(u0_star)

    v_offsets = (-2, -1, 0, 1, 2)
    u_offsets = (-1, 0, 1)
    g = np.empty((5, 3))
    for a, dv in enumerate(v_offsets):
        for b, du in enumerate(u_offsets):
            g[a, b] = ls_reduced_g(spec, eig, dv * h_v, u0_star + du * h_u)

    g0 = g[2, 1]
    # fourth-order first derivative: the plain central difference would
    # carry a g_vvv * h^2 / 6 truncation term larger than the degeneracy
    # tolerances this value is compared against
    g_v = (-g[4, 1] + 8 * g[3, 1] - 8 * g[1, 1] + g[0, 1]) / (12 * h_v)
    g_u0 = (g[2, 2] - g[2, 0]) / (2 * h_u)
    g_vv = (g[3, 1] - 2 * g[2, 1] + g[1, 1]) / h_v**2
    g_vvv = (g[4, 1] - 2 * g[3, 1] + 2 * g[1, 1] - g[0, 1]) / (2 * h_v**3)
    g_vu0 = (g[3, 2] - g[1, 2] - g[3, 0] + g[1, 0]) / (4 * h_v * h_u)

    report = LSReport(
        g=float(g0),
        g_v=float(g_v),
        g_u0=float(g_u0),
        g_vv=float(g_vv),
        g_vu0=float(g_vu0),
        g_vvv=float(g_vvv),
        classification=Classification.DEGENERATE,
        fd_steps=(h_v, h_u),
        u0_star=float(u0_star),
        kernel=eig.v_max.copy(),
    )
    return replace(report, classification=classify_singularity(report, tol))


def classify_singularity(report: LSReport, tol: float = CLASSIFY_TOL) -> Classification:
    """Recognize the singularity type from reduced-map derivatives.

    Derivatives are normalized by |g_vu0| (the eigenvalue crossing speed)
    so the tolerance is scale-free.  Requires the caller to have verified
    |g|, |g_v| < tol at the candidate point.
    """
    scale = abs(report.g_vu0)
    if scale <= tol:
        return Classification.DEGENERATE
    if abs(report.g_vv) / scale > tol:
        return Classification.TRANSCRITICAL
    if abs(report.g_vvv) / scale > tol:
        if report.g_vvv * report.g_vu0 < 0:
            return Classification.SUPERCRITICAL_PITCHFORK
        return Classification.SUBCRITICAL_PITCHFORK
    return Classification.DEGENERATE
