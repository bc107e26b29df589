"""Independent reference computations for the benchmark checks.

Written from the model formula in the repository README and imports nothing
from modnod:

    tau * dx_i/dt = -x_i + b_i + S(p_i),
    p_i = sum_j a_ij * (u0 + sum_k m_ijk * x_k**n) * x_j.

The modulation tensor is held dense (modnod keeps it sparse), and the
shifted saturation uses the overflow-free identity

    S(z) = (tanh(z - s) + tanh s) / (1 - tanh(s)**2) = sinh z * cosh s / cosh(z - s),

which never divides by the vanishing 1 - tanh(s)**2.  The odd saturation
tanh is the s = 0 case.  Scenario references reduce each studied network
to scalar equations that are solved here by vectorised bisection.

Heavy references (``solve_ivp`` attractors) import scipy lazily, so building
benchmark inputs costs numpy only.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# model


def _log_cosh(u):
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


class Model:
    """Dense reference model (A, modulation tensor, order, shift, b, tau)."""

    def __init__(self, A, M=(), n=1, shift=0.0, b=None, tau=1.0):
        self.A = np.asarray(A, dtype=float)
        N = self.A.shape[0]
        self.M = tuple((int(i), int(j), int(k), float(w)) for i, j, k, w in M)
        self.T = np.zeros((N, N, N))
        for i, j, k, w in self.M:
            self.T[i - 1, j - 1, k - 1] += w
        self.n = int(n)
        self.shift = float(shift)
        self.b = np.zeros(N) if b is None else np.asarray(b, dtype=float)
        self.tau = float(tau)

    @property
    def N(self):
        return self.A.shape[0]

    # saturation ---------------------------------------------------------
    def S(self, z):
        s = self.shift
        z = np.asarray(z, dtype=float)
        if max(float(np.max(np.abs(z), initial=0.0)), abs(s)) < 300.0:
            return np.sinh(z) * math.cosh(s) / np.cosh(z - s)
        # log-domain form for huge arguments
        mag = np.where(z == 0.0, -np.inf,
                       np.abs(z) + np.log1p(-np.exp(-2.0 * np.abs(z))) - math.log(2.0))
        return np.sign(z) * np.exp(mag + _log_cosh(s) - _log_cosh(z - s))

    def dS(self, z):
        s = self.shift
        return np.exp(2.0 * (_log_cosh(s) - _log_cosh(np.asarray(z, dtype=float) - s)))

    def d2S0(self):
        """S''(0) = 2 tanh s."""
        return 2.0 * math.tanh(self.shift)

    def d3S0(self):
        """S'''(0) = 6 tanh(s)**2 - 2."""
        return 6.0 * math.tanh(self.shift) ** 2 - 2.0

    # field ----------------------------------------------------------------
    def gains(self, x, u0):
        return u0 + np.einsum("ijk,k->ij", self.T, np.asarray(x, dtype=float) ** self.n)

    def p(self, x, u0):
        x = np.asarray(x, dtype=float)
        return (self.A * self.gains(x, u0)) @ x

    def F(self, x, u0):
        x = np.asarray(x, dtype=float)
        return (-x + self.b + self.S(self.p(x, u0))) / self.tau

    def J(self, x, u0):
        x = np.asarray(x, dtype=float)
        dxn = self.n * x ** (self.n - 1) if self.n > 1 else np.ones_like(x)
        dp = self.A * self.gains(x, u0)
        dp += np.einsum("ij,ijl,j,l->il", self.A, self.T, x, dxn)
        return (self.dS(self.p(x, u0))[:, None] * dp - np.eye(self.N)) / self.tau

    def leading_eig(self, x, u0):
        """Largest real part of the Jacobian spectrum (stability)."""
        return float(np.max(np.linalg.eigvals(self.J(x, u0)).real))

    def nearest_zero_eig(self, x, u0):
        """Real Jacobian eigenvalue of smallest magnitude."""
        vals = np.linalg.eigvals(self.J(x, u0))
        real = vals[np.abs(vals.imag) <= 1e-8 * max(1.0, float(np.max(np.abs(vals))))].real
        return float(real[np.argmin(np.abs(real))]) if real.size else math.inf

    def to_json(self):
        """The model in modnod's spec.json layout, built from this model's
        own fields."""
        return {
            "A": self.A.tolist(),
            "M": [list(t) for t in self.M],
            "n": self.n,
            "saturation": ({"variant": "odd"} if self.shift == 0.0
                           else {"variant": "shifted", "s": self.shift}),
            "b": self.b.tolist(),
            "tau": self.tau,
        }

    def polish(self, x, u0, iters=50):
        """Newton-polish an equilibrium guess with the reference Jacobian."""
        x = np.asarray(x, dtype=float).copy()
        for _ in range(iters):
            f = self.F(x, u0)
            if np.linalg.norm(f) < 1e-14:
                break
            x = x - np.linalg.solve(self.J(x, u0), f)
        return x


# ---------------------------------------------------------------------------
# scenarios, from their published definitions


RING_N = 5


def ring_adjacency():
    A = np.zeros((RING_N, RING_N))
    for i in range(RING_N):
        A[i, (i + 1) % RING_N] = A[i, (i - 1) % RING_N] = 1.0
    return A


def two_node(m=1.0, n=1):
    return Model([[0.0, -1.0], [-1.0, 0.0]], [(2, 1, 1, m)], n)


def ring(m_bar=0.0, shift=0.0):
    A = ring_adjacency()
    M = [(i + 1, j + 1, 1, m_bar * A[i, j])
         for i in range(RING_N) for j in range(RING_N) if A[i, j]]
    return Model(A, M, 1, shift)


def drive_steer(alpha=1.0, beta=0.3, m_bar=0.0):
    A = np.zeros((4, 4))
    A[0, 1] = A[1, 0] = -alpha
    A[2, 3] = A[3, 2] = -beta
    w = m_bar / beta
    return Model(A, [(3, 4, 1, w), (4, 3, 1, w)], 1)


def scenario(name, params):
    """Reference model of a named scenario, with modnod's parameter names
    and defaults."""
    if name == "two_node":
        return two_node(params.get("m_strength", 1.0), params.get("n", 1))
    if name == "influencer_ring":
        return ring(params.get("m_bar", 0.0))
    if name == "drive_steer":
        return drive_steer(params.get("alpha", 1.0), params.get("beta", 0.3),
                           params.get("m_bar", 0.0))
    raise ValueError(f"unknown scenario {name!r}")


def neutral_events(model, lo, hi):
    """u0 = 1 / (S'(0) lambda) for the real positive eigenvalues of A."""
    lam = np.linalg.eigvals(model.A)
    real = np.unique(np.round(lam[np.abs(lam.imag) < 1e-9].real, 12))
    return sorted(float(1.0 / l) for l in real if l > 0 and lo < 1.0 / l < hi)


# ---------------------------------------------------------------------------
# scalar references


def bisect(fn, lo, hi, iters=200):
    """Vectorised bisection of a sign change of fn on [lo, hi]
    (arrays broadcast together), down to adjacent floats."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    lo, hi = lo.copy(), hi.copy()
    f_lo = fn(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        f_mid = fn(mid)
        same = np.sign(f_mid) == np.sign(f_lo)
        lo = np.where(same, mid, lo)
        f_lo = np.where(same, f_mid, f_lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def decided_amplitude(gain):
    """Positive root a of a = tanh(gain * a) (gain > 1), else 0.

    Newton from a = 1: f(a) = tanh(gain a) - a is concave with f(1) < 0, so
    the iterates decrease monotonically onto the root."""
    gain = np.asarray(gain, dtype=float)
    g = np.maximum(gain, 1.0 + 1e-12)
    a = np.ones_like(g)
    for _ in range(100):
        step = (np.tanh(g * a) - a) / (g / np.cosh(g * a) ** 2 - 1.0)
        a = a - step
        if np.all(np.abs(step) <= 1e-16 * a):
            break
    return np.where(gain > 1.0, a, 0.0)


def two_node_u0(x1, m=1.0, n=1):
    """u0 of the two-node equilibrium with first coordinate x1 (x1 != 0):
    the unique root of u0 * tanh((u0 + m x1**n) x1) = artanh(x1) above
    max(0, -m x1**n)."""
    x1 = np.asarray(x1, dtype=float)
    c = m * x1 ** n
    target = np.arctanh(x1)
    fn = lambda u: u * np.tanh((u + c) * x1) - target
    lo = np.maximum(0.0, -c)
    return bisect(fn, lo, lo + 60.0)


def two_node_state(x1, m=1.0, n=1):
    u0 = two_node_u0(x1, m, n)
    return np.array([x1, -np.arctanh(x1) / u0]), float(u0)


def ring_u0(a, m_bar, shift=0.0):
    """u0 of the ring consensus state x = a * ones, from a = S(2 a (u0 + m_bar a))
    and S^-1(a) = s + artanh(a / cosh(s)**2 - tanh(s))."""
    a = np.asarray(a, dtype=float)
    z = shift + np.arctanh(a / math.cosh(shift) ** 2 - math.tanh(shift))
    return z / (2.0 * a) - m_bar * a


def _extrema(curve, grid, lo, hi):
    """Interior local extrema of u0 = curve(amplitude) inside (lo, hi),
    refined by golden-section search."""
    vals = curve(grid)
    out = []
    for i in range(1, len(grid) - 1):
        for sign in (1.0, -1.0):
            if sign * vals[i] <= sign * vals[i - 1] and sign * vals[i] <= sign * vals[i + 1]:
                a, b = grid[i - 1], grid[i + 1]
                g = (math.sqrt(5.0) - 1.0) / 2.0
                for _ in range(80):
                    c, d = b - g * (b - a), a + g * (b - a)
                    if sign * float(curve(c)) <= sign * float(curve(d)):
                        b = d
                    else:
                        a = c
                u = float(curve(0.5 * (a + b)))
                if lo < u < hi:
                    out.append(u)
    return sorted(out)


def folds(scenario, params, lo, hi):
    """Saddle-node u0 values of the two-node arms or the ring consensus
    branch, as extrema of the scalar equilibrium curve."""
    if scenario == "two_node":
        m, n = params.get("m_strength", 1.0), params.get("n", 1)
        curve = lambda a: two_node_u0(a, m, n)
    elif scenario == "influencer_ring":
        curve = lambda a: ring_u0(a, params.get("m_bar", 0.0))
    else:
        return []
    # each sign of the amplitude on its own grid: the curve is not defined at 0
    found = sorted(_extrema(curve, np.linspace(0.002, 0.999, 2000), lo, hi)
                   + _extrema(curve, np.linspace(-0.999, -0.002, 2000), lo, hi))
    merged = []
    for u in found:
        if not merged or abs(u - merged[-1]) > 1e-9:
            merged.append(u)
    return merged


def neutral_kind(scenario, params, u0_event, amp=0.02):
    """Classify a neutral crossing from the scalar branch through it:
    'Transcritical' when the two amplitude signs bifurcate to opposite
    sides of u0_event, else 'Pitchfork' with sub/supercritical criticality.
    Returns (kind, subcritical)."""
    if scenario == "two_node":
        m, n = params.get("m_strength", 1.0), params.get("n", 1)
        side = [float(two_node_u0(a, m, n)) - u0_event for a in (amp, -amp)]
    elif scenario == "influencer_ring":
        side = [float(ring_u0(a, params.get("m_bar", 0.0))) - u0_event for a in (amp, -amp)]
    else:
        # drive/steer neutral crossings: one undecided pair decides alone with
        # a = tanh(lambda u0 a), a symmetric supercritical pitchfork
        side = [u0_event * math.atanh(amp) / amp - u0_event] * 2
    if side[0] * side[1] < 0:
        return "Transcritical", False
    return "Pitchfork", side[0] < 0


def steering_events(alpha, beta, m_bar, lo, hi, step=1e-3):
    """u0 where a decided drive pair (x1 = +-a, a = tanh(alpha u0 a)) makes
    the steering pair neutral: beta * u0 + m_bar * x1 = +-1.
    Returns {"dr": [...], "st": [...]}."""
    u = np.arange(max(lo, 1.0 / alpha), hi + step, step)
    out = {}
    for label, sign in (("dr", 1.0), ("st", -1.0)):
        roots = []
        for target in (1.0, -1.0):
            fn = lambda v: beta * v + sign * m_bar * decided_amplitude(alpha * v) - target
            vals = fn(u)
            idx = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
            if idx.size:
                roots += [float(r) for r in bisect(fn, u[idx], u[idx + 1])]
        out[label] = sorted(r for r in roots if lo < r < hi)
    return out


# ---------------------------------------------------------------------------
# reduced-map closed forms (influencer ring, kernel = ones, w = ones / 5)


def ring_reduced_map(m_bar, shift=0.0):
    """On the invariant consensus line the reduced map is
    g(v, u0) = -v + S(2 u0 v + 2 m_bar v**2), so at (0, 1/2)
    g_vu0 = 2 S'(0) = 2, g_vv = 4 m_bar + S''(0) and
    g_vvv = 12 m_bar S''(0) + S'''(0)."""
    model = Model(ring_adjacency(), (), 1, shift)
    d2, d3 = model.d2S0(), model.d3S0()
    return {"u0_star": 0.5, "g_vu0": 2.0, "g_vv": float(4.0 * m_bar + d2),
            "g_vvv": float(12.0 * m_bar * d2 + d3)}


# ---------------------------------------------------------------------------
# trajectories


def attractor(model, x0, u0, t_max):
    """Equilibrium reached from x0, by scipy's DOP853 at tight tolerances
    until the residual is below 1e-8, then Newton-polished.
    Returns (x, reached)."""
    from scipy.integrate import solve_ivp

    def small(t, x):
        return np.linalg.norm(model.F(x, u0)) - 1e-8

    small.terminal = True
    sol = solve_ivp(lambda t, x: model.F(x, u0), (0.0, t_max), np.asarray(x0, float),
                    method="DOP853", rtol=1e-11, atol=1e-13, events=small)
    if sol.status != 1:
        return sol.y[:, -1], False
    return model.polish(sol.y[:, -1], u0), True


def trajectory_end(model, x0, u0, t_end):
    """State at t_end by DOP853 at tight tolerances."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, x: model.F(x, u0), (0.0, t_end), np.asarray(x0, float),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[:, -1]
