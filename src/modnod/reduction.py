"""Lyapunov-Schmidt reduction at a simple steady-state singularity.

Near a crossing at (x, u0) = (0, u0*), equilibria are captured by a scalar
equation g(v, u0) = 0 along the kernel direction v_c: for each (v, u0) the
component y in the orthogonal complement of v_c is solved from the
range-projected equilibrium equation

    (I - v_c w_c^T) F(v * v_c + y, u0) = 0,      <v_c, y> = 0,

with F = tau * vector_field (the undivided field), and

    g(v, u0) = <w_c, F(v * v_c + y(v, u0), u0)>.

The singularity type then follows from the derivatives of g at (0, u0*),
which ``ls_derivatives`` takes in closed form, via the standard recognition
conditions: a nonzero second v-derivative marks a transcritical crossing, a
vanishing second with nonzero third derivative a pitchfork, supercritical
exactly when the cubic and the eigenvalue-crossing speed have opposite signs.
``ls_reduced_g`` evaluates g itself, solving F = c * v_c, <v_c, y> = 0 (the
same equations) in (y, c) with continuation's one Newton loop,
``_bordered_correct``: the reference ``ls_derivatives`` is tested against.

Derivative values depend on the kernel normalization; reports record the
kernel vector used.  Pass a max-entry-normalized triple (all-ones kernel
for consensus problems) to express coefficients per unit of per-node
opinion amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import partial

import numpy as np

from .errors import (ComplementDiverged, DegenerateLeader, NewtonDiverged, OutOfDomain,
                     SingularJacobian)
from .continuation import COMPLEMENT_ITERS, _bordered_correct, _bordered_solve
from .model import NetworkSpec, inner_argument, linearize, vector_field
from .spectral import EigenTriple

__all__ = [
    "Classification",
    "LSReport",
    "ls_reduced_g",
    "ls_derivatives",
    "classify_singularity",
]

#: degeneracy tolerance on derivatives normalized by the crossing speed g_vu0
CLASSIFY_TOL = 1e-4


class Classification(str, Enum):
    SUPERCRITICAL_PITCHFORK = "SupercriticalPitchfork"
    SUBCRITICAL_PITCHFORK = "SubcriticalPitchfork"
    TRANSCRITICAL = "Transcritical"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class LSReport:
    """Derivatives of the reduced map at (0, u0*), exact up to rounding."""

    g: float
    g_v: float
    g_u0: float
    g_vv: float
    g_vu0: float
    g_vvv: float
    classification: Classification
    u0_star: float
    kernel: np.ndarray  # the v_c used, fixing the normalization


def ls_reduced_g(spec: NetworkSpec, eig: EigenTriple, v: float, u0: float) -> float:
    """Evaluate the reduced scalar map g(v, u0).

    Valid in a neighborhood of the singularity: |v| <= 0.3 and
    |u0 - u0*| <= 0.3 * u0* (OutOfDomain otherwise).  (y, c) is solved in at
    most COMPLEMENT_ITERS Newton iterations (ComplementDiverged on failure).
    """
    u0_star = eig.u0_star
    if abs(v) > 0.3 or abs(u0 - u0_star) > 0.3 * abs(u0_star):
        raise OutOfDomain(f"(v={v:.4g}, u0={u0:.4g}) outside the reduction neighborhood "
                          f"of (0, {u0_star:.4g})")
    n = spec.N
    v_c, w_c = eig.v_max, eig.w_max
    x0 = v * v_c
    c = float(w_c @ (spec.tau * vector_field(spec, x0, u0))) / float(w_c @ v_c)

    def lin(z):  # (y, c) -> (tau F - c v_c, tau J, -v_c)
        f, jac, _ = linearize(spec, x0 + z[:n], u0)
        return spec.tau * f - z[n] * v_c, spec.tau * jac, -v_c

    try:
        y = _bordered_correct(lin, np.append(np.zeros(n), c),
                              np.append(v_c / np.linalg.norm(v_c), 0.0), COMPLEMENT_ITERS)[0][:n]
    except (NewtonDiverged, SingularJacobian) as exc:
        raise ComplementDiverged(f"complement solve failed at (v={v:.4g}, u0={u0:.4g}): "
                                 f"{exc}") from exc
    return float(w_c @ (spec.tau * vector_field(spec, x0 + y, u0)))


def ls_derivatives(spec: NetworkSpec, eig: EigenTriple) -> LSReport:
    """Exact derivatives of the reduced map at the singularity (0, u0*).

    With b = 0 (OutOfDomain otherwise) and a finite u0* (DegenerateLeader
    otherwise), p(x) = u0 A x + q(x) with q homogeneous of degree n + 1, so
    the Golubitsky-Schaeffer formulas (*Singularities and Groups in
    Bifurcation Theory* I, ch. I, section 3) close at the origin.  With
    L = tau J(0, u0*), E = I - v w^T and y = -L^-1 E d2F(v, v), <v, y> = 0,
    from one bordered solve:

        g_vu0 = <w, S'(0) A v>,  g_vv = <w, d2F(v, v)>,
        g_vvv = <w, d3F(v, v, v) + 3 d2F(v, y)>.
    """
    if np.any(spec.b != 0):
        raise OutOfDomain("the reduction at x = 0 needs b = 0, the origin is no equilibrium")
    u0 = eig.u0_star
    if not np.isfinite(u0):
        raise DegenerateLeader(f"eigenvalue {eig.lambda_max:.6g} gives no finite u0*")
    v, w = eig.v_max, eig.w_max
    f, jac, f_u0 = linearize(spec, np.zeros(spec.N), u0)
    s2, s3 = spec.saturation.derivatives_at_zero()
    # S'(0) = 1, and q's derivatives at 0 follow from q itself: for n = 1
    # D2q(a, b) = q(a + b) - q(a) - q(b), so D2q(v, v) = 2 q(v); for n = 2
    # D3q(v, v, v) = 6 q(v); for n >= 3 both vanish
    q = partial(inner_argument, spec, u0=0.0)

    def d2f(a, b):
        d2q = q(a + b) - q(a) - q(b) if spec.order == 1 else 0.0
        return s2 * (u0 * spec.A @ a) * (u0 * spec.A @ b) + d2q

    av = u0 * spec.A @ v
    # the q terms of d3F(v, v, v): 3 S''(0) (u0 A v) D2q(v, v) + D3q(v, v, v)
    d3f = s3 * av**3 + {1: 6 * s2 * av, 2: 6.0}.get(spec.order, 0.0) * q(v)
    d2f_vv = d2f(v, v)
    sol = _bordered_solve(spec.tau * jac, v, np.append(v / np.linalg.norm(v), 0.0),
                          np.append(-d2f_vv, 0.0))
    if sol is None:
        raise ComplementDiverged("bordered solve singular or non-finite at the singularity")
    report = LSReport(
        g=float(w @ (spec.tau * f)),
        g_v=float(w @ (spec.tau * jac @ v)),
        g_u0=float(w @ (spec.tau * f_u0)),
        g_vv=float(w @ d2f_vv),
        g_vu0=float(w @ (spec.A @ v)),
        g_vvv=float(w @ (d3f + 3 * d2f(v, sol[:-1]))),
        classification=Classification.DEGENERATE,
        u0_star=float(u0),
        kernel=v.copy(),
    )
    return replace(report, classification=classify_singularity(report))


def classify_singularity(report: LSReport) -> Classification:
    """Recognize the singularity type from reduced-map derivatives.

    Derivatives are normalized by |g_vu0| (the eigenvalue crossing speed)
    so CLASSIFY_TOL is scale-free.  Requires the caller to have verified
    |g|, |g_v| < CLASSIFY_TOL at the candidate point.
    """
    scale = abs(report.g_vu0)
    if scale <= CLASSIFY_TOL:
        return Classification.DEGENERATE
    if abs(report.g_vv) / scale > CLASSIFY_TOL:
        return Classification.TRANSCRITICAL
    if abs(report.g_vvv) / scale > CLASSIFY_TOL:
        if report.g_vvv * report.g_vu0 < 0:
            return Classification.SUPERCRITICAL_PITCHFORK
        return Classification.SUBCRITICAL_PITCHFORK
    return Classification.DEGENERATE
