"""Leading eigenstructure of the additive matrix and the critical attention.

The neutral state loses stability where ``-1 + u0 * S'(0) * lambda`` crosses
zero for the leading eigenvalue of A, i.e. at ``u0* = 1 / lambda_max``, since
every saturation has S'(0) = 1.  Because the Jacobian at the origin does not
see the modulation coefficients, everything here reads only A.  Eigenpairs
come from ``np.linalg.eig``; the left eigenvector w of a simple real lambda is
the left singular vector of ``A - lambda * I`` for its least singular value,
and its right partner replaces eig's v when that fails its residual bound.

The dense solves and eigen-solves of continuation (thousands a diagram, at
N <= 5) go through ``_solve`` and ``_eigvals``.  They call the gufuncs
behind ``np.linalg.solve`` and ``np.linalg.eigvals`` (in numpy's private
``numpy.linalg._umath_linalg``) directly, because at these sizes the
wrappers' checks cost more than LAPACK's own work.  The results are the
wrappers' bits; a test pins that contract to the installed numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateLeader, NonConvergence, NonFinite, NoStrictLeader
from .model import NetworkSpec

__all__ = [
    "EigenTriple",
    "full_spectrum",
    "leading_eigenpair",
    "eigenpair_near",
    "critical_attention",
    "max_entry_normalized",
]

#: spectral gap (absolute) and distance to the nearest other eigenvalue
#: (relative) below which a real eigenvalue is not a strict leader / simple
GAP_TOL = 1e-9


@dataclass(frozen=True)
class EigenTriple:
    """A simple real eigenvalue of A with its right/left eigenvectors.

    Normalization: ``norm(v_max) = 1`` unless max-entry normalized, and always
    ``dot(w_max, v_max) = 1``.  The sign is fixed so the largest-magnitude
    entry of v_max is positive, which keeps branch labels and diagrams
    reproducible.

    Attributes:
        lambda_max: the eigenvalue.
        v_max: right eigenvector.
        w_max: left eigenvector (row sense: w @ A = lambda * w).
        u0_star: critical attention 1 / lambda.
        spectral_gap: lambda minus the largest real part of the remaining
            eigenvalues (positive for a strict leader).
    """

    lambda_max: float
    v_max: np.ndarray
    w_max: np.ndarray
    u0_star: float
    spectral_gap: float


def full_spectrum(A) -> np.ndarray:
    """All eigenvalues of A (with multiplicity), as a complex array."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return _eigvals(A)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # first entry of maximal magnitude made positive
    idx = int(np.argmax(np.abs(v)))
    return -v if v[idx] < 0 else v


def _lapack(solver, A: np.ndarray):
    try:
        return solver(A)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"dense eigen/singular value iteration failed: {exc}") from exc


def _solve(a: np.ndarray, b: np.ndarray):
    """``np.linalg.solve(a, b)`` for a float (n, n) a and (n,) b, bit for bit,
    or None where that raises "Singular matrix" (LAPACK's ``xGESV`` meets a
    zero pivot).  It calls the gufunc behind the wrapper, under the
    wrapper's floating-point rules, without its per-call checks."""
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _umath_linalg.solve1(a, b, signature="dd->d")
    except FloatingPointError:  # the gufunc flags a singular a as invalid
        return None


def _eigvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(a)`` for a float (n, n) a, bit for bit, always as a
    complex array.  Like the wrapper it refuses a non-finite a, on which
    ``xGEEV`` can fail or not return; NonConvergence then, or when
    ``xGEEV`` does not converge."""
    if not np.isfinite(a).all():
        raise NonConvergence("eigenvalues of a matrix with non-finite entries")
    try:
        with np.errstate(all="ignore", invalid="raise"):
            return _umath_linalg.eigvals(a, signature="d->D")
    except FloatingPointError as exc:  # the gufunc flags no convergence as invalid
        raise NonConvergence("dense eigenvalue iteration did not converge") from exc


def nearest_real(vals: np.ndarray, target: float) -> int | None:
    """Index of the real eigenvalue nearest ``target`` (the first on a tie)
    among the eigenvalues ``vals`` of a real matrix, or None.  Real means
    ``imag == 0``, which LAPACK's ``xGEEV`` returns for every real one."""
    dist = np.where(vals.imag == 0, np.abs(vals.real - target), np.inf)
    idx = int(np.argmin(dist))
    return None if dist[idx] == np.inf else idx


def _triple(spec: NetworkSpec, vals, vr, idx: int) -> EigenTriple:
    """EigenTriple for the real eigenvalue ``vals[idx]`` of spec.A."""
    lam = float(vals[idx].real)
    others = np.delete(vals, idx)
    gap = float(lam - np.max(others.real)) if others.size else np.inf
    u, _, vh = _lapack(np.linalg.svd, spec.A - lam * np.eye(spec.N))
    v = vr[:, idx].real
    # xGEEV's unit v is exact for some A + E with ||E|| a small multiple of
    # eps ||A||: ||A v - lam v|| <= 16 N eps ||A||_1 (measured <= 22 eps ||A||_1
    # on 43,000 real eigenpairs to 7 x 7).  Its balancing bounds E only against
    # D^-1 A D, and scaling back can leave v far off (residual 0.54 for some
    # tiny a_ij); then v is the right singular partner of w.
    bound = 16 * spec.N * np.finfo(float).eps * np.abs(spec.A).sum(axis=0).max()
    if np.linalg.norm(spec.A @ v - lam * v) > bound:
        v = vh[-1]
    v = _fix_sign(v.copy())
    v /= np.linalg.norm(v)
    w = u[:, -1]
    pairing = float(w @ v)
    if abs(pairing) < 1e-12:
        raise NoStrictLeader("left/right eigenvectors are numerically orthogonal")
    w = w / pairing + 0.0  # + 0.0 turns the SVD's signed zeros into 0.0
    return EigenTriple(
        lambda_max=lam,
        v_max=v,
        w_max=w,
        u0_star=1.0 / lam if lam != 0 else np.inf,
        spectral_gap=gap,
    )


def leading_eigenpair(spec: NetworkSpec) -> EigenTriple:
    """Leading eigenvalue of spec.A with right/left eigenvectors.

    Raises NoStrictLeader when the eigenvalue of largest real part is
    complex (``imag != 0``, the rule of ``nearest_real``), repeated, or has
    spectral gap below GAP_TOL.  numpy returns a real eigenvector column
    for a real eigenvalue, so the eigenvector needs no test of its own.
    """
    vals, vr = _lapack(np.linalg.eig, spec.A)
    idx = int(np.argmax(vals.real))
    if vals[idx].imag != 0:
        raise NoStrictLeader(f"eigenvalue {vals[idx]} is not real")
    eig = _triple(spec, vals, vr, idx)
    if eig.spectral_gap <= GAP_TOL:
        raise NoStrictLeader(
            f"spectral gap {eig.spectral_gap:.3e} at eigenvalue {eig.lambda_max:.6g} "
            f"is below {GAP_TOL:.0e}"
        )
    return eig


def eigenpair_near(spec: NetworkSpec, target: float) -> EigenTriple:
    """Eigen data for the real eigenvalue of spec.A closest to ``target``.

    Same normalization as leading_eigenpair, but checks only that the
    eigenvalue is simple; used to classify neutral-branch crossings of
    non-leading eigenvalues.
    """
    vals, vr = _lapack(np.linalg.eig, spec.A)
    idx = nearest_real(vals, target)
    if idx is None:
        raise NoStrictLeader("matrix has no real eigenvalues")
    lam = vals[idx].real
    others = np.delete(vals, idx)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if others.size and np.min(np.abs(others - lam)) <= GAP_TOL * scale:
        raise NoStrictLeader(f"eigenvalue {lam:.6g} is not simple")
    return _triple(spec, vals, vr, idx)


def critical_attention(spec: NetworkSpec) -> float:
    """Attention value at which the neutral state loses stability:
    ``1 / lambda_max``.

    Raises DegenerateLeader when lambda_max <= 0 (no opinion-forming
    bifurcation at positive attention) and NonFinite when the value is not
    a finite number; propagates NoStrictLeader.
    """
    eig = leading_eigenpair(spec)
    if eig.lambda_max <= 0:
        raise DegenerateLeader(
            f"leading eigenvalue {eig.lambda_max:.6g} is not positive"
        )
    if not math.isfinite(eig.u0_star):
        raise NonFinite(f"critical attention evaluated to {eig.u0_star!r}")
    return eig.u0_star


def max_entry_normalized(eig: EigenTriple) -> EigenTriple:
    """Rescale so the largest-magnitude entry of v_max is exactly 1.

    This is the normalization under which reduced-map derivatives are
    reported: for an all-ones kernel it makes v_max the literal ones
    vector, so coefficients refer to per-node opinion amplitude.  w_max is
    scaled inversely, so dot(w_max, v_max) = 1 still holds.
    """
    scale = 1.0 / float(np.max(np.abs(eig.v_max)))
    return replace(eig, v_max=eig.v_max * scale, w_max=eig.w_max / scale)
