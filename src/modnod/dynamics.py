"""Time integration of the opinion dynamics.

Two integrators, each suited to its job:

* ``integrate`` samples a trajectory with classical fixed-step RK4 on the
  grid t = k * dt, so ``trajectory.csv`` rows are reproducible and evenly
  spaced;
* ``settle`` only needs the end state, so it takes adaptive embedded
  Dormand-Prince 5(4) steps (Hairer, Norsett & Wanner, *Solving Ordinary
  Differential Equations I*, II.4-II.5) and reads its convergence residual
  from the last stage, which is f at the new state.  Near a fold the decay
  is slow (a rate of 1 - u0 = 0.0065 in the two-node window) and a fixed
  step of 0.01 * tau spent 15,008 field evaluations per settle on the
  benchmark's settle workload; the adaptive steps spend about 400.

u0 is fixed within a call, so each builds the field x -> F(x, u0) once
(``model._field_at``, with A * u0 and the saturation's constants formed up
front) and evaluates that closure at every stage; its values are
``vector_field``'s, bit for bit.  Both are deterministic: repeated calls
give bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import Diverged, NonFinite, NotSettled
from .model import NetworkSpec, _field_at, as_state

__all__ = ["Trajectory", "integrate", "settle"]

#: integration aborts when ||x|| exceeds this many times sqrt(N) * B.  As
#: |S| <= S.bound(), the exact flow keeps ||x(t)||_inf <= B = max(||x0||_inf,
#: ||b||_inf + S.bound()).  Stable steps stay within a modest multiple of
#: that, and an unstable one multiplies x by |R(h lambda)| > 1 every step, so
#: 1e6 refuses no stable run and stops an unstable one far below overflow.
#: B >= 1, so the limit never falls below the absolute 1e6 it replaced.
DIVERGENCE_NORM = 1e6
#: most samples ``integrate`` takes (t_end / dt).  A sample costs 48 + 8 N
#: bytes while integrating (its entries in the time and step lists and its
#: row of ``states``), and as a row of ``trajectory.csv`` N + 1 float reprs
#: of up to 24 characters, about 220 B at the peak of writing for N = 2
#: (tracemalloc, 1e5 samples).  So 1e7 samples of a two-node run take
#: 0.64 GB to integrate and 2.2 GB to write; a longer run is refused before
#: anything is allocated.
MAX_SAMPLES = 10_000_000

#: Dormand-Prince 5(4) tableau (HNW I, Table II.5.2) without its zero upper
#: part: _DP_A[i] weights stages 1..i for stage i + 1; the last row is the
#: fifth-order solution, where the seventh stage is evaluated ("FSAL").
_DP_A = tuple(np.array(row) for row in (
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
))
#: fifth- minus fourth-order weights over the seven stages: the local error
#: estimate of a step of size h is h * _DP_E @ K
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
#: step-size controller (HNW I, II.4): safety factor and the bounds on the
#: ratio of successive steps; the error exponent is 1 / (4 + 1)
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0
#: settle gives up once rejections shrink the step below this many tau;
#: only a field that turns non-finite ahead of the state shrinks it this far
_H_MIN = 1e-12


def _divergence_limit(spec: NetworkSpec, x0: np.ndarray) -> float:
    """DIVERGENCE_NORM * sqrt(N) * B for a run from ``x0``."""
    box = max(np.abs(x0).max(), np.abs(spec.b).max() + spec.saturation.bound())
    return DIVERGENCE_NORM * math.sqrt(spec.N) * float(box)


@dataclass
class Trajectory:
    """A sampled solution of the opinion dynamics.

    ``times`` is strictly increasing and aligned with the rows of
    ``states``.  ``terminated_early`` is None for a complete run, or a
    short reason string on the partial trajectory attached to a Diverged /
    NonFinite error.
    """

    times: np.ndarray
    states: np.ndarray
    u0: float
    terminated_early: str | None = None


def integrate(
    spec: NetworkSpec,
    x0,
    u0: float,
    t_end: float,
    dt: float | None = None,
) -> Trajectory:
    """Integrate from ``x0`` over [0, t_end], sampling every step.

    The default step is 0.01 * tau.  Samples lie on the grid t = k * dt
    (computed as a product, so the clock does not drift); one final shorter
    step lands exactly on t_end when it is not a multiple of dt.  A t_end
    within 1e-9 * dt of a multiple counts as that multiple, which absorbs
    the rounding of t_end / dt.

    Raises:
        ValueError: dt is not positive and finite, t_end is not positive,
            or t_end / dt exceeds MAX_SAMPLES.
        NonFinite: a NaN/Inf state appeared (including in x0).
        Diverged: the state norm exceeded ``_divergence_limit``; the
            partial trajectory is attached to the exception.
    """
    if dt is None:
        dt = 0.01 * spec.tau
    if not (0 < dt < math.inf and t_end > 0):
        raise ValueError(f"dt must be positive and finite and t_end positive; got dt={dt}, "
                         f"t_end={t_end}")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (spec.N,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({spec.N},)")
    if not np.all(np.isfinite(x)):
        raise NonFinite("initial state contains non-finite entries")

    if not t_end / dt <= MAX_SAMPLES:
        raise ValueError(f"t_end / dt = {t_end / dt:.3g} exceeds {MAX_SAMPLES:.0e} samples")
    n_full = int(np.floor(t_end / dt + 1e-9))
    times = [k * dt for k in range(n_full + 1)]
    steps = [dt] * n_full
    if t_end - times[-1] > 1e-9 * dt:
        steps.append(t_end - times[-1])
        times.append(t_end)
    states = np.empty((len(times), spec.N))
    states[0] = x
    f, limit = _field_at(spec, u0), _divergence_limit(spec, x)
    for k, h in enumerate(steps, start=1):
        half, sixth = 0.5 * h, h / 6.0  # 0.5 * h * k is (0.5 * h) * k: the same bits
        k1 = f(x)
        k2 = f(x + half * k1)
        k3 = f(x + half * k2)
        k4 = f(x + h * k3)
        x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = x
        # one test per step: the norm is NaN or inf for a non-finite state
        if not math.sqrt(x.dot(x)) <= limit:
            if not np.all(np.isfinite(x)):
                raise NonFinite(f"non-finite state at t={times[k]:.6g}")
            partial = Trajectory(np.array(times[: k + 1]), states[: k + 1].copy(), u0, "diverged")
            raise Diverged(
                f"state norm exceeded {limit:.3g} at t={times[k]:.6g}", partial
            )
    return Trajectory(np.array(times), states, u0)


def settle(
    spec: NetworkSpec,
    x0,
    u0: float,
    tol: float = 1e-9,
    t_max: float | None = None,
    dt: float | None = None,
) -> np.ndarray:
    """Run the dynamics until the vector-field residual drops below ``tol``.

    Returns the settled state, the first accepted state x with
    ``norm(vector_field(spec, x, u0)) < tol``.  The integrator is adaptive
    Dormand-Prince 5(4); ``dt`` (default 0.01 * tau) is only its first
    trial step.  The seventh stage of each step is f at the new state: it
    is the convergence residual and the next step's first stage, so a step
    costs six field evaluations.

    Local error tolerance.  A step is accepted when the RMS norm of its
    error estimate is at most ``eps = tol * tau / 10``.  The stopping test
    is exact (it reads f at the accepted state), so the local error only
    has to let the residual fall below ``tol`` and keep the path in its
    basin.  Near the equilibrium x*, f(x) = J (x - x*) + O(|x - x*|^2), and
    the step grows until stability, not accuracy, limits it; the controller
    then holds each step's error near ``eps``, which leaves a jitter of
    size ``eps`` along the fast modes.  Their rates are of order 1 / tau
    (tau * J = diag(S') dp - I), so the jitter adds about
    ``eps / tau = tol / 10`` to the residual, a tenth of the budget.  A
    relative scale ``rtol * |x|`` would add ``rtol * |x| / tau`` instead,
    which exceeds ``tol`` whenever ``rtol * |x| > tol * tau``, and the
    residual would stall above ``tol``.

    Raises:
        ValueError: tol * tau / 10 is not positive, or dt or t_max is not
            positive and finite.
        NotSettled: t_max (default 1e4 * tau) passed first, which is
            expected near a bifurcation where convergence is algebraically
            slow; the last state and its residual are attached.
        NonFinite: f is non-finite at x0, or every trial step runs into a
            non-finite field until the step falls below 1e-12 * tau.
        Diverged: the state norm exceeded ``_divergence_limit``.
    """
    eps = 0.1 * tol * spec.tau
    if not eps > 0:  # also catches a tol * tau that underflows to 0
        raise ValueError(f"tol must be positive, with tol * tau / 10 > 0; got tol={tol}")
    if t_max is None:
        t_max = 1e4 * spec.tau
    if dt is None:
        dt = 0.01 * spec.tau
    # a zero or NaN first step never advances t, a negative one runs backward,
    # and a NaN or infinite t_max switches the time budget off
    if not (0 < dt < math.inf and 0 < t_max < math.inf):
        raise ValueError(f"dt and t_max must be positive and finite; got dt={dt}, t_max={t_max}")
    x = as_state(x0, spec.N)
    h_min, limit = _H_MIN * spec.tau, _divergence_limit(spec, x)
    n, f = spec.N, _field_at(spec, u0)
    stages = np.empty((7, n))
    heads = [stages[:i] for i in range(7)]  # views: stage i + 1 weights heads[i]
    stages[6] = f(x)
    residual = math.sqrt(stages[6].dot(stages[6]))
    if not math.isfinite(residual):
        raise NonFinite("non-finite vector field at the initial state")
    t, h = 0.0, dt
    while residual >= tol:
        if t >= t_max:
            raise NotSettled(
                f"residual {residual:.3e} >= {tol:.1e} at t_max={t_max:.6g}",
                state=x,
                residual=float(residual),
            )
        stages[0] = stages[6]
        # ndarray.dot costs less to call than @ and gives the same bits on sums
        # of two or more terms; stage 2 sums one term, which @ adds to +0.0 and
        # dot returns as it is (a -0.0 would keep its sign)
        stages[1] = f(x + h * (_DP_A[1] @ heads[1]))
        for i in range(2, 6):
            stages[i] = f(x + h * _DP_A[i].dot(heads[i]))
        x_new = x + h * _DP_A[6].dot(heads[6])
        stages[6] = f(x_new)
        err = math.sqrt(np.add.reduce((h * _DP_E.dot(stages)) ** 2) / n) / eps
        if not err <= 1.0:  # also rejects a NaN estimate
            stages[6] = stages[0]
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2) if math.isfinite(err) else _FAC_MIN
            if h < h_min:
                raise NonFinite(f"step size fell below {h_min:.1e} at t={t:.6g}: "
                                f"error estimate {err:.3g} times the tolerance")
            continue
        t += h
        x = x_new
        if math.sqrt(x.dot(x)) > limit:
            raise Diverged(f"state norm exceeded {limit:.3g} at t={t:.6g}")
        residual = math.sqrt(stages[6].dot(stages[6]))
        h *= min(_FAC_MAX, _SAFETY * err ** -0.2) if err > 0 else _FAC_MAX
    return x
