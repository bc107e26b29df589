"""Equilibrium solving, pseudo-arclength continuation, and bifurcation
detection.

Branches of equilibria of ``vector_field(spec, x, u0) = 0`` are traced in
the combined space z = (x, u0) with Keller's pseudo-arclength scheme:
tangent predictor plus Newton correction of the bordered system

    [ F(x, u0) ]            [ J      F_u0 ]
    [ t . (z - z_pred) ],   [ t_x^T  t_u0 ],

which stays well conditioned through folds where the plain Jacobian turns
singular.  Steady-state bifurcations flip the sign of det J (an odd number
of real eigenvalues crosses zero); bisection on that sign refines them until
the real eigenvalue nearest zero is below EVENT_EIG_TOL.  Folds additionally
reverse the u0 component of the branch tangent.

One Newton kernel, ``_bordered_correct``, makes every equilibrium solve: it
takes a map z -> (r, D, col), solves the bordered system [[D, col], [row]]
once per iterate and halves the step until |r| decreases.  Every correction
of tracing and switching (steps along the tangent, the landings, the event
bisection and the switch solve) runs it on ``linearize`` at z = (x, u0) with
the budget CORRECTOR_ITERS, and every tracing correction that converges
becomes a point.  ``newton_equilibrium`` runs it on the same map along e_u0,
which keeps u0 exact, with its own ``max_iter``: a guess far from any branch
takes more damped steps than a predictor near one (from standard-normal
guesses on random specs, up to 16, and more than 8 in 24 of 450 solves).
``reduction.ls_reduced_g`` runs it on its complement system.  ``_land``
corrects from a chord onto the hyperplane it crosses: the u0 boundary, which
ends a branch, or the seed's t_s . (z - z_s) = 0.  A regular equilibrium
curve returns to its own trail only through its seed, so a loop closes when
a step takes t_s . (z - z_s) from negative to non-negative and the landing
is the seed (within CLOSURE_TOL); ``diagram`` skips a switched seed that an
earlier branch passes through by the same test.  Each iterate takes one
``model.linearize`` (F, J and F_u0 from one build of the gains), and the
kernel hands the converged point's J and F_u0 on: the tangent solve and a
switched seed reuse them, and one ``eigvals`` of that J gives both the
point's stability (leading eigenvalue) and the sign of det J, which event
detection reads instead of re-evaluating.  A real eigenvalue is one with
``imag == 0``.  All bordered systems go through ``_bordered_solve``, and
every dense solve and eigen-solve through ``spectral._solve`` and
``spectral._eigvals``: numpy's bits without the wrappers' per-call checks,
None for a singular matrix and NonConvergence for a non-finite one.
Step-control factors, tolerances and the branch-switch offset are module
constants, not ``StepParams`` fields or keyword arguments.

Mirror branches are reflected, not traced.  A flippable block is a connected
component of the graph of A (a_ij != 0, i != j) on which b is zero and, for
odd ``order``, from which no triplet with a_ij * w != 0 takes its modulator
k.  With an odd S, every product d of block flips satisfies F(d x) = d F(x)
and J(d x) = D J D, and rounding commutes with negation, so tracing from the
image of a traced seed (same u0 and step bounds, x = d x', tangent = (d, 1)
t') gives the image of its branch exactly, up to the sign of zeros (x + (-x)
is +0 on both sides; the CSV writes every zero as 0.0).  ``diagram`` builds
that image instead: states by d, kernels by d up to their sign convention,
eigenvalues, stability and event classifications unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (
    ModnodError,
    NewtonDiverged,
    NoBranchFound,
    NoStrictLeader,
    SingularJacobian,
    StallError,
)
from .model import NetworkSpec, as_state, linearize
from .spectral import (_eigvals, _fix_sign, _lapack, _solve, eigenpair_near,
                       max_entry_normalized, nearest_real)

__all__ = [
    "StepParams",
    "BranchPoint",
    "EventKind",
    "BifurcationEvent",
    "Branch",
    "newton_equilibrium",
    "branch_point_at",
    "trace_branch",
    "detect_events",
    "switch_branch",
    "DiagramOptions",
    "diagram",
]

log = logging.getLogger("modnod.continuation")

#: residual tolerance every emitted branch point satisfies
NEWTON_TOL = 1e-12
#: eigenvalue magnitude below which an event bracket counts as refined
EVENT_EIG_TOL = 1e-8
#: entries smaller than this count as zero in branch sign-pattern labels
LABEL_ZERO_TOL = 1e-6
#: step control: grow by STEP_GROW after a correction taking at most
#: FAST_ITERS of its CORRECTOR_ITERS Newton iterations, shrink by STEP_SHRINK
#: after a failed one, raise StallError when one fails at min_step
STEP_GROW = 1.3
STEP_SHRINK = 0.5
FAST_ITERS = 3
CORRECTOR_ITERS = 8
#: branch-switch seed offset from the event, across the parent branch
SWITCH_EPS = 1e-2
#: a landing on a seed's hyperplane this close to the seed is the seed.  Both
#: solve the bordered system B at the seed to residual NEWTON_TOL, so they
#: differ by at most 2 ||B^-1|| NEWTON_TOL; ||B^-1|| grows like 1/SWITCH_EPS at
#: a switched seed (<= 2,732 on the scenarios and 900 random specs, <= 722 at
#: seeds landed on), so <= 5.5e-9 (measured <= 1.0e-10).  The other branch
#: through the event lies about SWITCH_EPS away (measured >= 1.2e-2).
CLOSURE_TOL = 1e-6


class EventKind(str, Enum):
    PITCHFORK = "Pitchfork"
    TRANSCRITICAL = "Transcritical"
    SADDLE_NODE = "SaddleNode"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class StepParams:
    """Pseudo-arclength step bounds and point budget.  ``max_step`` bounds
    the step h along the unit tangent, which the corrector keeps; the chord
    between consecutive points can exceed h by the curvature term."""

    initial: float = 0.02
    min_step: float = 1e-5
    max_step: float = 0.1
    max_points: int = 2000

    def __post_init__(self):
        for name in ("initial", "min_step", "max_step"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.min_step > self.max_step:
            raise ValueError(f"min_step {self.min_step!r} exceeds max_step {self.max_step!r}")
        if not (float(self.max_points).is_integer() and self.max_points >= 2):
            raise ValueError(f"max_points must be an integer >= 2, got {self.max_points!r}")
        object.__setattr__(self, "max_points", int(self.max_points))  # the dataclass is frozen


@dataclass
class BranchPoint:
    """One converged point of an equilibrium branch."""

    u0: float
    x: np.ndarray
    leading_jac_eig: float
    stable: bool
    tangent: np.ndarray  # unit (N+1)-vector in (x, u0) space
    #: event test function: the sign of det J (+1, -1, or 0 on a zero
    #: eigenvalue); None when not evaluated (a point built by hand), in
    #: which case detect_events evaluates it
    det_sign: float | None = None


@dataclass
class BifurcationEvent:
    kind: EventKind
    u0: float
    x: np.ndarray
    eigenvalue: float = 0.0       # real Jacobian eigenvalue nearest zero
    kernel: np.ndarray | None = None  # unit right null vector of J at the event
    #: unit secant of the refined bracket in (x, u0): the parent's direction
    #: there, where the exact tangent solve is singular
    tangent: np.ndarray | None = None
    detail: object | None = None  # reduction.LSReport for classified events


@dataclass
class Branch:
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)
    label: str = ""


# ---------------------------------------------------------------------------
# Newton solvers


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a contiguous 1-D float array, bit for bit:
    the square root of v . v, without the wrapper's dispatch."""
    return math.sqrt(v.dot(v))


def _bordered_solve(jac: np.ndarray, col: np.ndarray, row: np.ndarray, rhs: np.ndarray):
    """Solve [[jac, col], [row]] z = rhs (``row`` of length N+1); None when
    the matrix is singular or z is not finite."""
    n = jac.shape[0]
    bordered = np.empty((n + 1, n + 1))
    bordered[:n, :n] = jac
    bordered[:n, n] = col
    bordered[n] = row
    z = _solve(bordered, rhs)
    return z if z is not None and np.isfinite(z).all() else None


def _bordered_correct(lin, z0: np.ndarray, row: np.ndarray, budget: int):
    """Newton-solve r(z) = 0 in the hyperplane row . (z - z0) = 0 from z0,
    where ``lin(z)`` gives r (length K) and its derivative [D | col] in the
    K + 1 unknowns, halving each step (at most 30 times) until |r| decreases.
    Returns (z, iterations, D, col) at the first z with |r| < NEWTON_TOL.

    Raises SingularJacobian when [[D, col], [row]] is singular or its
    solution not finite, NewtonDiverged when ``budget`` iterations or the
    halving run out.
    """
    z, (res, jac, col) = z0, lin(z0)
    rnorm = _norm(res)
    for it in range(budget + 1):
        if rnorm < NEWTON_TOL:
            return z, it, jac, col
        if it == budget:
            raise NewtonDiverged(f"no convergence in {budget} iterations (residual {rnorm:.3e})")
        dz = _bordered_solve(jac, col, row, np.append(-res, -(row @ (z - z0))))
        if dz is None:
            raise SingularJacobian(f"bordered system singular at residual {rnorm:.3e}")
        for _ in range(31):
            trial = z + dz  # dz halves exactly, so this is z + 2**-k * dz
            t_res, t_jac, t_col = lin(trial)
            t_norm = _norm(t_res)
            if t_norm < rnorm:  # False for NaN
                break
            dz = 0.5 * dz
        else:
            raise NewtonDiverged(f"step halving underflowed at residual {rnorm:.3e}")
        z, res, jac, col, rnorm = trial, t_res, t_jac, t_col, t_norm


def _on_branch(spec: NetworkSpec):
    """z = (x, u0) -> (F, J, F_u0): the map every equilibrium solve corrects."""
    return lambda z: linearize(spec, z[:-1], z[-1])


def newton_equilibrium(spec: NetworkSpec, x_guess, u0: float, max_iter: int = 50) -> np.ndarray:
    """Damped Newton solve of ``vector_field(spec, x, u0) = 0`` at fixed u0:
    ``_bordered_correct`` along e_u0, which keeps u0 exact (that border row
    takes zero LU multipliers), in at most ``max_iter`` iterations.

    Raises:
        NewtonDiverged: iteration budget exhausted or damping underflowed.
        SingularJacobian: J is singular (typically right at a bifurcation).
    """
    n = spec.N
    z0 = np.append(as_state(x_guess, n), u0)
    return _bordered_correct(_on_branch(spec), z0, np.eye(n + 1)[n], max_iter)[0][:n]


def _tangent(jac: np.ndarray, f_u0: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Unit tangent of the equilibrium curve at a point with Jacobian ``jac``
    and u0-derivative ``f_u0``, oriented along ``prev``."""
    rhs = np.zeros(len(prev))
    rhs[-1] = 1.0
    t = _bordered_solve(jac, f_u0, prev, rhs)
    if t is None:
        # singular exactly at a branch point; reuse the previous tangent
        return prev.copy()
    t /= _norm(t)
    return -t if t @ prev < 0 else t


def _det_sign(vals: list) -> float:
    """Sign of det J from the eigenvalues ``vals`` (a list of complex) of a
    real J: a complex pair contributes |lambda|^2 > 0, so only the real ones
    count, and a zero one makes it 0."""
    sign = 1.0
    for v in vals:
        if v.imag == 0:
            sign *= (v.real > 0) - (v.real < 0)
    return sign


def _branch_point(x: np.ndarray, u0: float, tangent: np.ndarray, jac: np.ndarray) -> BranchPoint:
    """BranchPoint at an equilibrium with Jacobian ``jac``: one eigen-solve
    gives both the leading eigenvalue and the event test value."""
    vals = _eigvals(jac).tolist()
    lead = max([v.real for v in vals])
    return BranchPoint(u0=float(u0), x=x, leading_jac_eig=lead, stable=lead < 0.0,
                       tangent=tangent, det_sign=_det_sign(vals))


def branch_point_at(
    spec: NetworkSpec,
    x,
    u0: float,
    tangent=None,
) -> BranchPoint:
    """Build a fully populated BranchPoint from a converged equilibrium."""
    x = np.asarray(x, dtype=float).reshape(-1)
    _, jac, f_u0 = linearize(spec, x, u0)
    if tangent is None:
        tangent = _tangent(jac, f_u0, np.eye(spec.N + 1)[-1])
    else:
        tangent = np.asarray(tangent, dtype=float)
        tangent = tangent / np.linalg.norm(tangent)
    return _branch_point(x, u0, tangent, jac)


# ---------------------------------------------------------------------------
# Branch tracing


def trace_branch(
    spec: NetworkSpec,
    seed: BranchPoint,
    u0_range,
    step: StepParams | None = None,
) -> Branch:
    """Pseudo-arclength continuation of the equilibrium branch through
    ``seed`` until it leaves ``u0_range`` (its last point is the landing on
    the boundary), exhausts the point budget, or closes on its seed (its
    last point is the landing on the seed; see the module docstring).

    The step shrinks on correction failure and grows after fast corrections
    (see STEP_GROW), inside [step.min_step, step.max_step].

    Raises StallError when a correction fails at step.min_step: a retry
    would repeat the same correction from the same point.
    """
    lo, hi = float(u0_range[0]), float(u0_range[1])
    if not lo < hi:
        raise ValueError(f"invalid u0 range [{lo}, {hi}]")
    step = step or StepParams()
    n = spec.N

    branch = Branch(points=[seed])
    z_seed = np.concatenate([seed.x, [seed.u0]])
    z, t = z_seed, seed.tangent.copy()
    g = 0.0  # seed.tangent @ (z - z_seed): the side of the seed's hyperplane z is on
    h = step.initial
    e_u0 = np.eye(n + 1)[n]
    lin = _on_branch(spec)

    while len(branch.points) < step.max_points:
        try:
            z_new, iters, jac, f_u0 = _bordered_correct(lin, z + h * t, t, CORRECTOR_ITERS)
        except (SingularJacobian, NewtonDiverged):
            if h <= step.min_step * (1.0 + 1e-12):
                raise StallError(f"correction failed at the minimum step near u0={z[n]:.6g}")
            h = max(h * STEP_SHRINK, step.min_step)
            continue

        g_new = seed.tangent @ (z_new - z_seed)
        leaves = not lo - 1e-12 <= z_new[n] <= hi + 1e-12
        if leaves or g < 0 <= g_new:
            # land on the u0 boundary the step crosses, or on the seed's hyperplane
            if leaves:
                landed = _land(lin, z, z_new, (lo if z_new[n] < lo else hi) * e_u0, e_u0)
            else:
                landed = _land(lin, z, z_new, z_seed, seed.tangent)
            if leaves or (landed is not None and np.linalg.norm(landed[0] - z_seed) <= CLOSURE_TOL):
                if landed is not None:
                    z_l, _, jac_l, f_u0_l = landed
                    t_l = _tangent(jac_l, f_u0_l, t)
                    branch.points.append(_branch_point(z_l[:n], z_l[n], t_l, jac_l))
                break
        g = g_new
        t = _tangent(jac, f_u0, t)
        z = z_new
        branch.points.append(_branch_point(z[:n], z[n], t, jac))
        if iters <= FAST_ITERS:
            h = min(h * STEP_GROW, step.max_step)

    branch.events = detect_events(spec, branch.points)
    return branch


def _land(lin, z_a, z_b, point, normal):
    """Correct onto the branch (``lin`` from ``_on_branch``) in the
    hyperplane normal . (z - point) = 0 (``normal`` a unit vector) that the
    chord [z_a, z_b] crosses, from the chord's crossing moved exactly onto
    it, along ``normal``; along e_u0, u0 stays exact.  Returns
    ``_bordered_correct``'s (z, iterations, J, F_u0), or None."""
    chord = z_b - z_a
    across = normal @ chord
    if abs(across) < 1e-14:
        return None
    guess = z_a + (normal @ (point - z_a)) / across * chord
    guess += (normal @ (point - guess)) * normal
    try:
        return _bordered_correct(lin, guess, normal, CORRECTOR_ITERS)
    except (SingularJacobian, NewtonDiverged):
        return None


# ---------------------------------------------------------------------------
# Event detection


def _refine_event(spec, za, zb, sa):
    """Bisect the segment [za, zb], whose ends have det J of opposite sign
    (``sa`` at za), on that sign.  Each midpoint is corrected back onto the
    branch along the secant, so the parametrization survives folds.

    Returns (z, eig, J, secant) with eig the real Jacobian eigenvalue
    nearest zero, |eig| <= EVENT_EIG_TOL, J the Jacobian at z and secant the
    unit secant of the bracket; after 30 halvings the midpoint with the
    smallest such |eig| when that is <= 1e-6; None when a correction fails.
    """
    d = zb - za
    secant = d / _norm(d)
    lo, hi = 0.0, 1.0
    best = (None, np.inf, None)  # (z, eig, J) with the smallest |eig| so far
    lin = _on_branch(spec)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        try:
            zm, _, jac, _ = _bordered_correct(lin, za + mid * d, secant, CORRECTOR_ITERS)
        except (SingularJacobian, NewtonDiverged):
            return None
        vals = _eigvals(jac)
        idx = nearest_real(vals, 0.0)
        eig = np.nan if idx is None else float(vals[idx].real)
        if abs(eig) < abs(best[1]):  # False when no eigenvalue is real
            best = (zm, eig, jac)
        if abs(eig) <= EVENT_EIG_TOL:
            return zm, eig, jac, secant
        if sa * _det_sign(vals.tolist()) < 0:
            hi = mid
        else:
            lo = mid
    if abs(best[1]) <= 1e-6:
        return (*best, secant)
    return None


def _kernel_vector(jac):
    """Unit right eigenvector of ``jac`` for its real eigenvalue nearest zero."""
    vals, vecs = _lapack(np.linalg.eig, jac)
    idx = nearest_real(vals, 0.0)
    if idx is None:
        return None
    v = vecs[:, idx].real
    return _fix_sign(v / np.linalg.norm(v))


def _classify_neutral_event(spec, u0_event):
    """Classify a neutral-branch crossing via the reduced scalar map."""
    from . import reduction  # deferred: reduction imports this module

    try:
        eig = eigenpair_near(spec, 1.0 / u0_event)
    except (NoStrictLeader, ZeroDivisionError):
        return None
    try:
        report = reduction.ls_derivatives(spec, max_entry_normalized(eig))
    except ModnodError as exc:  # reduction failure leaves the event unclassified
        log.debug("reduction failed at u0=%.6g: %s", u0_event, exc)
        return None
    return report


def detect_events(spec: NetworkSpec, points) -> list:
    """Scan consecutive branch points for bifurcations.

    Two test functions are monitored: (a) the sign of det J and (b) the u0
    component of the branch tangent.  A sign change in (a) means an odd
    number of real eigenvalues crossed zero: a steady-state bifurcation
    candidate, refined by bisection on that sign; a simultaneous sign change
    in (b) marks a fold.  Neutral-branch candidates are classified through
    the Lyapunov-Schmidt reduction, remaining ones stay Unclassified.
    """
    events = []
    if len(points) < 2:
        return events
    signs = [
        p.det_sign if p.det_sign is not None
        else _det_sign(_eigvals(linearize(spec, p.x, p.u0)[1]).tolist())
        for p in points
    ]
    for i in range(len(points) - 1):
        if signs[i] * signs[i + 1] >= 0:
            continue
        pa, pb = points[i], points[i + 1]
        za = np.concatenate([pa.x, [pa.u0]])
        zb = np.concatenate([pb.x, [pb.u0]])
        refined = _refine_event(spec, za, zb, signs[i])
        if refined is None:
            log.debug("no refined crossing on [%0.6g, %0.6g]", pa.u0, pb.u0)
            continue
        z_ev, eig_ev, jac_ev, secant = refined
        x_ev, u0_ev = z_ev[:-1], float(z_ev[-1])
        fold = pa.tangent[-1] * pb.tangent[-1] < 0

        kind = EventKind.UNCLASSIFIED
        detail = None
        if fold:
            kind = EventKind.SADDLE_NODE
        elif np.linalg.norm(x_ev) < LABEL_ZERO_TOL and np.linalg.norm(spec.b) == 0:
            detail = _classify_neutral_event(spec, u0_ev)
            if detail is not None:
                from .reduction import Classification

                kind = {
                    Classification.SUPERCRITICAL_PITCHFORK: EventKind.PITCHFORK,
                    Classification.SUBCRITICAL_PITCHFORK: EventKind.PITCHFORK,
                    Classification.TRANSCRITICAL: EventKind.TRANSCRITICAL,
                    Classification.DEGENERATE: EventKind.UNCLASSIFIED,
                }[detail.classification]
        events.append(
            BifurcationEvent(
                kind=kind,
                u0=u0_ev,
                x=x_ev,
                eigenvalue=float(eig_ev),
                kernel=_kernel_vector(jac_ev),
                tangent=secant,
                detail=detail,
            )
        )
    return events


# ---------------------------------------------------------------------------
# Branch switching


def switch_branch(
    spec: NetworkSpec,
    event: BifurcationEvent,
    direction: int,
) -> BranchPoint:
    """Jump from a steady-state bifurcation onto the emanating branch.

    At a simple branch point the null space of [J | F_u0] is a plane holding
    the parent's direction t (the event's bracket secant) and k = (kernel,
    0).  Its unit direction orthogonal to the parent is q = (k - c t) /
    sqrt(1 - c^2), c = k . t, and one correction along q from the event
    moved by direction * SWITCH_EPS along q lands on the emanating branch:
    the parent meets that hyperplane only well away from the event (Doedel,
    Keller and Kernevez, Int. J. Bifurcation and Chaos 1(3), 1991; Allgower
    and Georg, ch. 8).

    Raises:
        ValueError: called on a fold (no distinct branch emanates there).
        NoBranchFound: the event carries no kernel, or the correction fails.
    """
    if event.kind == EventKind.SADDLE_NODE:
        raise ValueError("cannot switch branches at a saddle-node (fold) event")
    if direction not in (-1, 1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    if event.kernel is None:
        raise NoBranchFound("event carries no kernel direction")

    k = np.append(event.kernel, 0.0)
    c = k @ event.tangent
    q = (k - c * event.tangent) / math.sqrt(1.0 - c * c)
    z_ev = np.append(event.x, event.u0)
    try:
        z, _, jac, _ = _bordered_correct(_on_branch(spec), z_ev + direction * SWITCH_EPS * q, q,
                                         CORRECTOR_ITERS)
    except (SingularJacobian, NewtonDiverged) as exc:
        raise NoBranchFound(f"switch correction failed at u0={event.u0:.6g}: {exc}") from exc
    # Keep the outward secant as the seed tangent: refining it through the
    # bordered solve this close to the singular point can snap onto the
    # parent branch's tangent instead.  It is nonzero: the correction keeps
    # a SWITCH_EPS part along q.  Normalizing it twice fixes the seed's bits.
    outward = (z - z_ev) / np.linalg.norm(z - z_ev)
    return _branch_point(z[:-1], z[-1], outward / np.linalg.norm(outward), jac)


# ---------------------------------------------------------------------------
# Whole-diagram driver


@dataclass(frozen=True)
class DiagramOptions:
    """Options for the recursive diagram driver."""

    step: StepParams = field(default_factory=StepParams)
    max_depth: int = 2
    labeler: object = None  # callable(BranchPoint) -> str

    def __post_init__(self):
        if not (float(self.max_depth).is_integer() and self.max_depth >= 0):
            raise ValueError(f"max_depth must be an integer >= 0, got {self.max_depth!r}")
        object.__setattr__(self, "max_depth", int(self.max_depth))  # the dataclass is frozen


def _sign_pattern(x: np.ndarray) -> str:
    return "".join(
        "0" if abs(v) <= LABEL_ZERO_TOL else ("+" if v > 0 else "-") for v in x
    )


def _label_branch(branch: Branch, labeler) -> str:
    """Label of the last stable point (else the last point): ``labeler``'s,
    or the sign pattern of its state.  A closed loop's last point is the
    landing on its seed, whatever the step size."""
    point = next((p for p in reversed(branch.points) if p.stable), branch.points[-1])
    return labeler(point) if labeler else _sign_pattern(point.x)


def diagram(
    spec: NetworkSpec,
    u0_range,
    options: DiagramOptions | None = None,
) -> list:
    """Trace the equilibrium branch through the neutral/primary state and
    recurse through its bifurcations (to ``options.max_depth``), producing
    the deterministic branch set behind a full bifurcation diagram.

    Per-branch failures are logged and skipped rather than aborting the
    whole diagram.
    """
    options = options or DiagramOptions()
    lo, hi = float(u0_range[0]), float(u0_range[1])

    x0 = newton_equilibrium(spec, np.zeros(spec.N), lo)
    primary_seed = branch_point_at(spec, x0, lo, np.eye(spec.N + 1)[-1])

    branches: list[Branch] = []
    paths: list[np.ndarray] = []  # the (x, u0) rows of each branch's points
    labels_seen: dict[str, int] = {}

    def add(branch: Branch) -> None:
        label = _label_branch(branch, options.labeler)
        count = labels_seen.get(label, 0)
        labels_seen[label] = count + 1
        branch.label = label if count == 0 else f"{label}/{count + 1}"
        branches.append(branch)
        paths.append(np.array([np.concatenate([p.x, [p.u0]]) for p in branch.points]))

    blocks = _flip_blocks(spec)
    traced: list[tuple] = []  # (seed, step, branch) of every traced branch

    def trace_from(seed: BranchPoint, depth: int) -> None:
        step = options.step
        if depth > 0:
            # switched seeds sit eps away from a singular point; creep away
            # from it before taking full-size steps
            step = replace(step, initial=min(step.initial, 0.5 * SWITCH_EPS))
        for seed0, step0, branch0 in traced:
            d = _seed_flip(seed0, seed, blocks) if step0 == step else None
            if d is not None:
                branch = _reflect(branch0, seed, d)
                break
        else:
            try:
                branch = trace_branch(spec, seed, (lo, hi), step)
            except StallError as exc:
                log.warning("branch trace stalled: %s", exc)
                return
            traced.append((seed, step, branch))
        add(branch)
        if depth >= options.max_depth:
            return
        for event in branch.events:
            if event.kind == EventKind.SADDLE_NODE:
                continue
            for direction in (1, -1):
                try:
                    seed_new = switch_branch(spec, event, direction)
                except (NoBranchFound, ValueError) as exc:
                    log.debug(
                        "no switched branch at u0=%.6g direction %+d: %s",
                        event.u0, direction, exc,
                    )
                    continue
                if _already_covered(spec, paths, seed_new):
                    continue
                trace_from(seed_new, depth + 1)

    trace_from(primary_seed, 0)
    return branches


def _flip_blocks(spec: NetworkSpec) -> list:
    """Boolean node masks of the flippable blocks of ``spec`` (see the
    module docstring); none unless S is odd."""
    if spec.saturation.kind != "odd":
        return []
    reach = (spec.A != 0) | (spec.A.T != 0) | np.eye(spec.N, dtype=bool)
    for _ in range(spec.N.bit_length()):  # squaring doubles the path length reached
        reach = reach @ reach
    pinned = spec.b != 0
    if spec.order % 2:
        pinned[[k - 1 for i, j, k, w in spec.M if spec.A[i - 1, j - 1] != 0 and w != 0]] = True
    # one row per block, its first node's (np.unique would load numpy.ma)
    return [row for i, row in enumerate(reach) if row.argmax() == i and not (row & pinned).any()]


def _seed_flip(seed0: BranchPoint, seed: BranchPoint, blocks):
    """The sign vector d, a product of flips of the ``blocks`` (boolean
    masks), under which ``seed`` is the exact image of ``seed0``: same u0,
    x = d x0 and tangent = (d, 1) t0, entry for entry (-0 equals 0).  None
    when there is no such d or only the identity."""
    if seed.u0 != seed0.u0:
        return None
    d = np.ones(len(seed.x))
    for m in blocks:
        if not (np.array_equal(seed.x[m], seed0.x[m])
                and np.array_equal(seed.tangent[:-1][m], seed0.tangent[:-1][m])):
            d[m] = -1.0
    if (d > 0).all() or not (np.array_equal(seed.x, d * seed0.x)
                             and np.array_equal(seed.tangent, np.append(d, 1.0) * seed0.tangent)):
        return None
    return d


def _reflect(branch: Branch, seed: BranchPoint, d: np.ndarray) -> Branch:
    """The image of ``branch`` under the flip d, starting at ``seed``: what
    tracing from ``seed`` gives when ``seed`` is the image of
    ``branch.points[0]`` (see the module docstring)."""
    dt = np.append(d, 1.0)
    points = [seed] + [replace(p, x=d * p.x, tangent=dt * p.tangent) for p in branch.points[1:]]
    events = [
        replace(e, x=d * e.x, kernel=None if e.kernel is None else _fix_sign(d * e.kernel),
                tangent=dt * e.tangent)
        for e in branch.events
    ]
    return Branch(points=points, events=events)


def _already_covered(spec: NetworkSpec, paths, seed: BranchPoint) -> bool:
    """True when an earlier branch, given by its (x, u0) rows in ``paths``,
    passes through ``seed``: a chord of it crosses the seed's hyperplane
    within its own length of the seed, and lands on the seed from there."""
    z_s = np.concatenate([seed.x, [seed.u0]])
    for pts in paths:
        g = (pts - z_s) @ seed.tangent
        for i in np.flatnonzero((g[:-1] < 0) != (g[1:] < 0)):
            chord = pts[i + 1] - pts[i]
            crossing = pts[i] + g[i] / (g[i] - g[i + 1]) * chord
            if np.linalg.norm(crossing - z_s) > np.linalg.norm(chord):
                continue
            landed = _land(_on_branch(spec), pts[i], pts[i + 1], z_s, seed.tangent)
            if landed is not None and np.linalg.norm(landed[0] - z_s) <= CLOSURE_TOL:
                return True
    return False
