"""Core model: saturations, network specification, vector field, Jacobian.

The dynamics of the N opinion states are

    tau * dx_i/dt = -x_i + b_i + S( p_i(x) ),
    p_i(x) = sum_j a_ij * (u0 + sum_k m_ijk * x_k**n) * x_j,

where ``A = [a_ij]`` holds the additive interaction weights, the sparse
third-order coefficients ``m_ijk`` let the opinion of node k modulate
(multiplicatively rescale) the attention paid along the edge (i, j), ``n``
is the order of that modulation, ``u0`` is the basal attention (the
bifurcation parameter, passed to every evaluation rather than stored), and
``S`` is a smooth saturation with S(0) = 0 and S'(0) = 1.

The public functions are pure functions of immutable inputs, and specs are
freely shareable across threads.  A spec compiles its modulation triplets
once, at construction, into index and weight arrays and one slot per
distinct modulated edge.  One kernel, ``_edge_gains(spec, x, u0)``, sums
the gains of those edges as a loop over M would.  ``_gains_at(spec, u0)``
forms a_ij * u0 once and returns x -> A * G(x): that buffer with only those
edges overwritten.  ``_field_at(spec, u0)`` builds on it the field
x -> F(x, u0), with the saturation resolved once; the time steppers build
one per call, since u0 is fixed there.  Such a closure owns its buffer and
is not shared.  ``vector_field`` is one evaluation of it.  ``linearize``,
which continuation calls at a new u0 every time, builds no closure: it
forms A * G and p once, takes S and S' from one pass
(``Saturation.value_and_derivative``), and returns exactly (bit for bit)
the same F.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
import math
import sys

import numpy as np

__all__ = [
    "Saturation",
    "NetworkSpec",
    "as_state",
    "modulated_gains",
    "inner_argument",
    "vector_field",
    "jacobian",
    "linearize",
]


#: beyond |z| = |s| + _SHIFT_CLIP the shifted S equals its limit to within
#: 2 exp(-2 * _SHIFT_CLIP) ~ 1e-17 relative (below rounding) and S' is below
#: that fraction of its peak, so z is clipped there, which keeps sinh and
#: cosh finite for every z
_SHIFT_CLIP = 20.0
#: largest accepted |shift|: the largest intermediate of the shifted form,
#: cosh(2|s| + _SHIFT_CLIP), is finite up to here (about 344.9)
MAX_SHIFT = 0.5 * (math.log(sys.float_info.max) - _SHIFT_CLIP)


@dataclass(frozen=True)
class Saturation:
    """Saturating nonlinearity applied to the networked input.

    Two variants:

    * ``odd``      -- S(z) = tanh(z); odd symmetric, used whenever the two
      options should be interchangeable.
    * ``shifted``  -- S(z) = (tanh(z - s) + tanh(s)) / (1 - tanh(s)^2);
      breaks odd symmetry but keeps S(0) = 0 and S'(0) = 1 for every s.

    The shifted form is evaluated through the identity
    tanh(z - s) + tanh(s) = sinh z / (cosh(z - s) cosh s), i.e.

        S(z)  = sinh z * cosh s / cosh(z - s),
        S'(z) = (cosh s / cosh(z - s))^2,

    which has no cancellation.  The quotient form above loses every digit
    once tanh(s) rounds to 1 (S = 0 at s = 18, NaN at s = 20).  Shifts with
    |s| > MAX_SHIFT (about 344.9) are rejected; sup |S| = cosh(s) exp(|s|).
    """

    kind: str = "odd"
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in ("odd", "shifted"):
            raise ValueError(f"unknown saturation kind {self.kind!r}")
        if not math.isfinite(self.shift):
            raise ValueError("saturation shift must be finite")
        if abs(self.shift) > MAX_SHIFT:
            raise ValueError(f"saturation shift |s| = {abs(self.shift):g} exceeds "
                             f"{MAX_SHIFT:.4f}, where cosh overflows")

    @classmethod
    def odd(cls) -> "Saturation":
        return cls("odd", 0.0)

    @classmethod
    def shifted(cls, s: float) -> "Saturation":
        return cls("shifted", float(s))

    def _clipped(self, z):
        limit = abs(self.shift) + _SHIFT_CLIP
        return np.minimum(np.maximum(z, -limit), limit)

    def _function(self):
        """z -> S(z), with the shift's clip limit and cosh s computed once."""
        if self.kind == "odd":
            return np.tanh
        s, limit, c = self.shift, abs(self.shift) + _SHIFT_CLIP, math.cosh(self.shift)

        def shifted(z):
            z = np.minimum(np.maximum(z, -limit), limit)
            return c * np.sinh(z) / np.cosh(z - s)

        return shifted

    def __call__(self, z):
        return self._function()(z)

    def derivative(self, z):
        if self.kind == "odd":
            return 1.0 - np.tanh(z) ** 2
        return (math.cosh(self.shift) / np.cosh(self._clipped(z) - self.shift)) ** 2

    def value_and_derivative(self, z):
        """(S(z), S'(z)) from one tanh, or one clip and one cosh(z - s): the
        same bits as ``self(z)`` and ``self.derivative(z)``."""
        if self.kind == "odd":
            t = np.tanh(z)
            return t, 1.0 - t ** 2
        z = self._clipped(z)
        c, r = math.cosh(self.shift), np.cosh(z - self.shift)
        return c * np.sinh(z) / r, (c / r) ** 2

    def derivatives_at_zero(self) -> tuple:
        """(S''(0), S'''(0)) = (2 tanh s, 6 tanh(s)^2 - 2); s = 0 for ``odd``."""
        t = math.tanh(self.shift)
        return 2.0 * t, 6.0 * t * t - 2.0

    def bound(self) -> float:
        """sup |S(z)| over the real line."""
        if self.kind == "odd":
            return 1.0
        return math.cosh(self.shift) * math.exp(abs(self.shift))


def as_state(x, n: int) -> np.ndarray:
    """Validate and coerce an opinion state to a finite float vector."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"state has shape {x.shape}, expected ({n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("state contains non-finite entries")
    return x


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _power(x: np.ndarray, e: int) -> np.ndarray:
    # x**1 is x exactly; skipping it saves a ufunc call on the hot path
    return x if e == 1 else x ** e


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """A full model instance (immutable: fields cannot be reassigned and
    ``A`` and ``b`` are read-only copies).

    Attributes:
        A: (N, N) additive interaction matrix.
        M: modulation coefficients as a tuple of 1-based triplets
            ``(i, j, k, weight)``: the opinion of node k modulates the
            attention on edge (i, j).  Sparse on purpose; the studied
            networks have a handful of modulatory edges.
        order: modulation order n >= 1 (the modulating state enters as
            x_k**n).
        saturation: the saturating nonlinearity S.
        b: (N,) exogenous input vector (defaults to zero).
        tau: global timescale, > 0.
    """

    A: np.ndarray
    M: tuple = ()
    order: int = 1
    saturation: Saturation = field(default_factory=Saturation.odd)
    b: np.ndarray | None = None
    tau: float = 1.0

    def __post_init__(self):
        put = partial(object.__setattr__, self)  # the dataclass is frozen
        A = np.array(self.A, dtype=float, order="C")  # row-major: reshape(-1) is a view
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A contains non-finite entries")
        put("A", _read_only(A))
        n = A.shape[0]

        if self.b is None:
            b = np.zeros(n)
        else:
            b = np.array(self.b, dtype=float).reshape(-1)
            if b.shape != (n,):
                raise ValueError(f"b has shape {b.shape}, expected ({n},)")
            if not np.all(np.isfinite(b)):
                raise ValueError("b contains non-finite entries")
        put("b", _read_only(b))

        if int(self.order) != self.order or self.order < 1:
            raise ValueError(f"modulation order must be an integer >= 1, got {self.order}")
        put("order", int(self.order))

        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        put("tau", float(self.tau))

        triplets = []
        seen = set()
        edges = {}  # (i, j) -> its triplets' positions in M, in first-hit order
        for t in self.M:
            if len(t) != 4:
                raise ValueError(f"modulation entry {t!r} is not (i, j, k, weight)")
            i, j, k, w = t
            for idx in (i, j, k):
                if int(idx) != idx or not (1 <= idx <= n):
                    raise ValueError(f"modulation index {idx} outside 1..{n} in {t!r}")
            if not math.isfinite(w):
                raise ValueError(f"modulation weight in {t!r} is not finite")
            key = (int(i), int(j), int(k))
            if key in seen:
                raise ValueError(f"duplicate modulation triplet {key}")
            seen.add(key)
            edges.setdefault(key[:2], []).append(len(triplets))
            triplets.append((*key, float(w)))
        put("M", tuple(triplets))

        # compiled modulation: 0-based i, j, k and w per triplet, in M's order;
        # dp_i/dx_k gets n * a_ij * w * x_k**(n-1) * x_j at flat index i*N + k.
        # A slot per edge (i, j): index i*N + j, a_ij, first triplet, (slot, triplet) of the rest
        i, j, k = (np.array([t[c] - 1 for t in triplets], dtype=np.intp) for c in range(3))
        w = np.array([t[3] for t in triplets], dtype=float)
        put("_m_k", _read_only(k))
        put("_m_j", _read_only(j))
        put("_m_weight", _read_only(w))
        put("_slope_at", _read_only(i * n + k))
        put("_m_slope", _read_only(self.order * A[i, j] * w))
        edge_at = np.array([(a - 1) * n + b - 1 for a, b in edges], dtype=np.intp)
        put("_edge_at", _read_only(edge_at))
        put("_edge_a", _read_only(A.reshape(-1)[edge_at]))
        put("_edge_first", _read_only(np.array([ts[0] for ts in edges.values()], dtype=np.intp)))
        later = [(slot, t) for slot, ts in enumerate(edges.values()) for t in ts[1:]]
        put("_edge_later", _read_only(np.array(later, dtype=np.intp).reshape(-1, 2).T))
        put("_eye", _read_only(np.eye(n)))

    @property
    def N(self) -> int:
        return self.A.shape[0]

    def __eq__(self, other):
        if not isinstance(other, NetworkSpec):
            return NotImplemented
        return (
            np.array_equal(self.A, other.A)
            and self.M == other.M
            and self.order == other.order
            and self.saturation == other.saturation
            and np.array_equal(self.b, other.b)
            and self.tau == other.tau
        )


def _edge_gains(spec: NetworkSpec, x: np.ndarray, u0: float) -> np.ndarray:
    """The gain of each modulated edge at (x, u0), u0 + sum of w * x_k**n,
    with the terms added in M's order."""
    v = spec._m_weight * _power(x, spec.order)[spec._m_k]
    if not spec._edge_later.size:
        # one triplet per edge, so the first triplets are 0, 1, ... in M's
        # order and v[first] is v, one fancy index fewer
        return u0 + v
    slot, later = spec._edge_later
    g = u0 + v[spec._edge_first]
    np.add.at(g, slot, v[later])
    return g


def _gains_at(spec: NetworkSpec, u0: float):
    """x -> A * modulated_gains(spec, x, u0), at a fixed u0.

    A * u0 is formed once; each call rewrites only the modulated edges of
    that one buffer and returns it, so a caller that writes into the result
    builds its own.
    """
    dp = spec.A * u0
    if not spec.M:
        return lambda x: dp
    flat, at, a = dp.reshape(-1), spec._edge_at, spec._edge_a

    def gains(x):
        flat[at] = a * _edge_gains(spec, x, u0)
        return dp

    return gains


def _field_at(spec: NetworkSpec, u0: float):
    """x -> vector_field(spec, x, u0) for a float vector x, with the u0-only
    work (A * u0, the saturation's constants) done once.  The closure owns
    the buffer of ``_gains_at``: build one per caller."""
    gains, S, b, tau = _gains_at(spec, u0), spec.saturation._function(), spec.b, spec.tau
    return lambda x: (b - x + S(gains(x) @ x)) / tau


def modulated_gains(spec: NetworkSpec, x, u0: float) -> np.ndarray:
    """Effective attention on each edge: ``u0 + sum_k m_ijk x_k**n``.

    With no modulation every entry is the basal attention u0.
    """
    gains = np.full(spec.N * spec.N, float(u0))
    if spec.M:
        gains[spec._edge_at] = _edge_gains(spec, np.asarray(x, dtype=float), u0)
    return gains.reshape(spec.N, spec.N)


def inner_argument(spec: NetworkSpec, x, u0: float) -> np.ndarray:
    """Saturation argument p(x): p_i = sum_j a_ij * gain_ij(x) * x_j."""
    x = np.asarray(x, dtype=float)
    return _gains_at(spec, u0)(x) @ x


def vector_field(spec: NetworkSpec, x, u0: float) -> np.ndarray:
    """Right-hand side of the opinion dynamics: (-x + b + S(p(x))) / tau."""
    return _field_at(spec, u0)(np.asarray(x, dtype=float))


def jacobian(spec: NetworkSpec, x, u0: float) -> np.ndarray:
    """Analytic Jacobian of ``vector_field`` at (x, u0); see ``linearize``."""
    return linearize(spec, x, u0)[1]


def linearize(spec: NetworkSpec, x, u0: float):
    """``(F, J, F_u0)`` at (x, u0): the vector field, its Jacobian and its
    u0-derivative, from one build of the gains and of p.

    J_il = (S'(p_i) * dp_i/dx_l - delta_il) / tau with

        dp_i/dx_l = a_il * gain_il(x)
                    + n * sum_j a_ij * m_ijl * x_l**(n-1) * x_j,

    and F_u0 = S'(p) * (A x) / tau, since u0 enters every gain additively.
    For n = 1 the factor x_l**(n-1) is the constant 1, including at
    x_l = 0.  F equals ``vector_field`` bit for bit.
    """
    x = np.asarray(x, dtype=float)
    n = spec.order
    dp = spec.A * u0  # A * G, then dp/dx once the slopes are added
    if spec.M:
        flat = dp.reshape(-1)
        flat[spec._edge_at] = spec._edge_a * _edge_gains(spec, x, u0)
        p = dp @ x
        slope = spec._m_slope if n == 1 else spec._m_slope * _power(x, n - 1)[spec._m_k]
        np.add.at(flat, spec._slope_at, slope * x[spec._m_j])
    else:
        p = dp @ x
    s, sp = spec.saturation.value_and_derivative(p)
    f = (spec.b - x + s) / spec.tau
    jac = (sp[:, None] * dp - spec._eye) / spec.tau
    return f, jac, sp * (spec.A @ x) / spec.tau
