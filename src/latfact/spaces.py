"""Finite atomic measure spaces and the lattice norms built on them.

A measurable function on an ``n``-atom space is a length-``n`` vector, so
norms, Köthe duals and dual-ball geometry all reduce to dense vector
arithmetic.  Weighted Lebesgue norms are evaluated in closed form; other
lattice norms fall back to seeded projected-ascent searches whose results
are certified lower bounds with a documented ~1e-9 slack.

Points of a positive dual ball are plain nonnegative weight rows, and a
set of them is a ``(k, n)`` matrix.  The duality of ``X_p`` with its
Köthe dual lives in two functions: :func:`dual_norm_rows` (the dual norms
of weight rows) and :func:`pairings` (``∫ |f|^p h dμ``).  Whether a row
lies in the dual ball depends on both ``X`` and ``p``;
:class:`~latfact.snorm.SNormSpace` is the one place that knows both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimates import ConstantEstimate, family_search, safe_ratio
from .search import projected_ascent, unit_rows

__all__ = [
    "DUAL_CERT_SLACK",
    "MAX_ATOMS",
    "DimensionMismatchError",
    "NotPConvexError",
    "MeasureSpace",
    "LatticeNorm",
    "WeightedLebesgue",
    "ExponentTriple",
    "pth_power_norm",
    "lattice_aggregate_norm",
    "linear_sup_over_ball",
    "dual_norm_rows",
    "dual_norm_of_pth_power",
    "pairings",
    "extreme_dual_vectors",
    "p_convexity_estimate",
]

# slack allowed when certifying membership in a dual unit ball
DUAL_CERT_SLACK = 1e-9

# most atoms a measure space may have: the searches enumerate every sign
# pattern and every 0/1 indicator pattern, 2^n rows at most
MAX_ATOMS = 12


class DimensionMismatchError(ValueError):
    """Vector length differs from the atom count of the measure space."""


class NotPConvexError(ValueError):
    """Requested construction needs p-convexity with constant one."""


def as_vector(f, n: int) -> np.ndarray:
    arr = np.asarray(f, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != n:
        raise DimensionMismatchError(
            f"expected a vector of length {n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def _scalar_pow(x: np.ndarray, y: float) -> np.ndarray:
    """``x ** y`` by scalar ``pow``; numpy's array power can differ by an ulp."""
    return np.array([v ** y for v in x.ravel().tolist()]).reshape(x.shape)


def power_mean(values, exponent: float,
               weights: np.ndarray) -> float | np.ndarray:
    """(sum |v|^e w)^(1/e), computed stably for large exponents.

    ``values`` is one vector ``(n,)``, giving a float, or a stack
    ``(..., n)``, giving one value per vector; one vector is a stack of
    one.  A stack keeps one vector's arithmetic: a dot product per vector
    (a stacked matmul of ``(1, n)`` by ``(n, 1)``) and the root as a scalar
    ``pow``, so a vector's value does not depend on the stack it is in.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.ndim == 1:
        return float(power_mean(v[None], exponent, weights)[0])
    m = v.max(axis=-1, initial=0.0)
    scaled = v / np.where(m > 0.0, m, 1.0)[..., None]
    dots = (scaled ** exponent)[..., None, :] @ np.asarray(weights)[:, None]
    return m * _scalar_pow(dots, 1.0 / exponent).reshape(m.shape)


def power_mean_rows(V, exponent: float, weights: np.ndarray) -> np.ndarray:
    """Row-wise version of :func:`power_mean`; ``(..., n)`` to ``(...)``."""
    V = np.abs(np.atleast_2d(np.asarray(V, dtype=float)))
    m = V.max(axis=-1)
    scaled = V / np.where(m > 0.0, m, 1.0)[..., None]
    return m * (scaled ** exponent @ weights) ** (1.0 / exponent)


def _family_stack(F, n: int) -> tuple[np.ndarray, bool]:
    """A family ``(m, n)`` (a vector is a family of one) or a stack of them.

    Returns the stack ``(K, m, n)`` and whether a single family came in.
    """
    arr = np.asarray(F, dtype=float)
    single = arr.ndim <= 2
    if single:
        arr = np.atleast_2d(arr)[None]
    if arr.ndim != 3 or arr.size == 0:
        raise ValueError("family must be nonempty")
    if arr.shape[2] != n:
        raise ValueError(f"family vectors must have length {n}")
    if not np.isfinite(arr).all():
        raise ValueError("family has non-finite entries")
    return arr, single


def _unstack(values: np.ndarray, single: bool) -> float | np.ndarray:
    return float(values[0]) if single else values


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Finite atomic measure: 1 to :data:`MAX_ATOMS` positive atom weights."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty vector")
        if w.size > MAX_ATOMS:
            raise ValueError(f"{w.size} atoms, above the limit of {MAX_ATOMS}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be strictly positive and finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.shape[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, MeasureSpace) and np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())


class LatticeNorm:
    """Base class for lattice norms over a fixed :class:`MeasureSpace`.

    Subclasses implement ``norm``, ``norm_rows`` and ``is_p_convex_one``;
    the norm must be absolutely homogeneous, subadditive, and monotone
    under pointwise domination of absolute values.  The test-suite checks
    those axioms on seeded samples for every shipped variant.
    """

    space: MeasureSpace

    @property
    def n(self) -> int:
        return self.space.n


@dataclass(frozen=True)
class WeightedLebesgue(LatticeNorm):
    """``(sum |f|^s dmu)^(1/s)`` with exponent ``s`` in [1, inf)."""

    space: MeasureSpace
    s: float

    def __post_init__(self):
        s = float(self.s)
        if not (1.0 <= s < math.inf):
            raise ValueError(f"weighted Lebesgue exponent must be in [1, inf), got {s}")
        object.__setattr__(self, "s", s)

    def norm(self, f) -> float:
        f = as_vector(f, self.n)
        return power_mean(f, self.s, self.space.weights)

    def norm_rows(self, F) -> np.ndarray:
        return power_mean_rows(F, self.s, self.space.weights)

    def norm_grad_rows(self, F) -> np.ndarray:
        F = np.atleast_2d(np.asarray(F, dtype=float))
        norms = self.norm_rows(F)
        norms = np.where(norms == 0.0, 1.0, norms)
        scaled = np.abs(F) / norms[..., None]
        return np.sign(F) * scaled ** (self.s - 1.0) * self.space.weights

    def is_p_convex_one(self, p: float) -> bool:
        return self.s >= p - 1e-12


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents ``1 <= p <= q < inf`` with ``1/r = 1/p - 1/q``.

    ``r`` is ``math.inf`` exactly when ``p == q``; downstream code branches
    on :attr:`is_extreme` instead of handling the singularity numerically.
    """

    p: float
    q: float
    r: float = field(init=False)

    def __post_init__(self):
        p, q = float(self.p), float(self.q)
        if not (1.0 <= p <= q < math.inf):
            raise ValueError(f"need 1 <= p <= q < inf, got p={p}, q={q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        r = math.inf if p == q else 1.0 / (1.0 / p - 1.0 / q)
        object.__setattr__(self, "r", r)

    @property
    def is_extreme(self) -> bool:
        return math.isinf(self.r)

    @property
    def t(self) -> float:
        """The inner exponent q/p (conjugate to r/p)."""
        return self.q / self.p


def pth_power_norm(X: LatticeNorm, p: float, f) -> float:
    """``‖|f|^{1/p}‖_X^p``, a norm whenever X is p-convex with constant one."""
    if not X.is_p_convex_one(p):
        raise NotPConvexError(
            f"space is not p-convex with constant one for p={p}")
    f = as_vector(f, X.n)
    if isinstance(X, WeightedLebesgue):
        return power_mean(f, X.s / p, X.space.weights)
    return X.norm(np.abs(f) ** (1.0 / p)) ** p


def lattice_aggregate_norm(X: LatticeNorm, F, t: float) -> float | np.ndarray:
    """``‖ (sum_i |f_i|^t)^{1/t} ‖_X`` for a family stacked as rows.

    A stack of families gives one value per family; weighted Lebesgue
    norms take the whole stack in one :func:`power_mean` call.
    """
    F, single = _family_stack(F, X.n)
    agg = (np.abs(F) ** t).sum(axis=1) ** (1.0 / t)
    if isinstance(X, WeightedLebesgue):
        return _unstack(power_mean(agg, X.s, X.space.weights), single)
    return _unstack(np.array([X.norm(a) for a in agg]), single)


def linear_sup_over_ball(X: LatticeNorm, p: float, h) -> float:
    """sup of ``∫ |h| f dμ`` over ``{f >= 0 : ‖f‖_{X_p} <= 1}``, numerically.

    Candidates: every indicator (corner attainment, exact for sup-norm
    duals), the power profiles of ``|h| μ`` and ``|h|`` (which contain the
    exact conjugate attainment for every Lebesgue exponent), and seeded
    random directions; :func:`search.projected_ascent` polishes the best
    four along the sphere, projecting out a one-sided finite-difference
    gradient of the norm.  Linear objective over a convex ball, so every
    evaluation is a certified lower bound; tight to about 1e-9 on the norms
    exercised here.  It is the dual norm of the spaces without a closed
    form in :func:`dual_norm_rows`; on a weighted Lebesgue space it audits
    the closed form.
    """
    density = np.abs(as_vector(h, X.n))
    g = density * X.space.weights
    if not np.any(g > 0):
        return 0.0
    n = g.size
    rng = np.random.default_rng([17, 0])
    starts = [np.ones(n)]
    starts.extend(np.eye(n))
    for base in (g / g.max(), density / density.max()):
        starts.extend(base ** c for c in np.geomspace(0.1, 12.0, 24))
    starts.extend(np.abs(rng.normal(size=(8, n))))

    def norm_rows(F: np.ndarray) -> np.ndarray:
        return X.norm_rows(np.abs(F) ** (1.0 / p)) ** p

    def sphere(F: np.ndarray) -> np.ndarray:
        return unit_rows(F, norm_rows)

    def radial_rows(F: np.ndarray) -> np.ndarray:
        step = 1e-7 * np.maximum(1.0, F.max(axis=1))[:, None, None] * np.eye(n)
        up = F[:, None, :] + step
        down = np.maximum(F[:, None, :] - step, 0.0)
        rise = norm_rows(up.reshape(-1, n)) - norm_rows(down.reshape(-1, n))
        return rise.reshape(F.shape) / np.einsum("rii->ri", up - down)

    F = sphere(np.vstack(starts))
    scores = F @ g
    top = np.argsort(-scores, kind="stable")[:4]
    _, vals = projected_ascent(lambda F: F @ g,
                               lambda F: np.broadcast_to(g, F.shape), sphere,
                               F[top], iters=200, radial_rows=radial_rows)
    return float(max(scores.max(), vals.max()))


def _dual_is_cube(X: LatticeNorm, p: float) -> bool:
    """True when the positive dual ball of X_p is the cube ``[0, 1]^n``.

    That is the weighted Lebesgue family at ``s = p``.  Raises
    :class:`NotPConvexError` when X is not p-convex, where X_p is no norm.
    """
    if not X.is_p_convex_one(p):
        raise NotPConvexError(
            f"space is not p-convex with constant one for p={p}")
    return isinstance(X, WeightedLebesgue) and X.s / p <= 1.0 + 1e-9


def dual_norm_rows(X: LatticeNorm, p: float, H) -> float | np.ndarray:
    """Norm of each row of ``H`` in the Köthe dual of the p-th power X_p.

    ``H`` is one vector ``(n,)``, giving a float, or a stack ``(..., n)``,
    giving one norm per row.  Weighted Lebesgue spaces take the closed
    form with ``sigma = s/p``: the sup norm at ``sigma = 1``, else the
    ``L^sigma'`` norm, ``sigma' = sigma/(sigma - 1)``; one vector goes
    through :func:`power_mean`, and a stack takes
    ``(|H|^sigma' μ)^(1/sigma')`` up to ``sigma' = 64`` and the scaled
    :func:`power_mean_rows` above.  Other spaces run the numeric sup of
    :func:`linear_sup_over_ball` row by row, a lower bound tight to about
    1e-9.  Raises :class:`NotPConvexError` when X is not p-convex.
    """
    H = np.asarray(H, dtype=float)
    if _dual_is_cube(X, p):
        norms = np.abs(H).max(axis=-1, initial=0.0)
    elif not isinstance(X, WeightedLebesgue):
        norms = np.array([linear_sup_over_ball(X, p, h)
                          for h in H.reshape(-1, X.n)]).reshape(H.shape[:-1])
    else:
        sigma = X.s / p
        sigma_dual = sigma / (sigma - 1.0)
        mu = X.space.weights
        if H.ndim == 1:
            norms = power_mean(H, sigma_dual, mu)
        elif sigma_dual <= 64.0:
            norms = (np.abs(H) ** sigma_dual @ mu) ** (1.0 / sigma_dual)
        else:
            norms = power_mean_rows(H, sigma_dual, mu)
    return float(norms) if H.ndim == 1 else norms


def pairings(X: LatticeNorm, p: float, F, H) -> np.ndarray:
    """The matrix ``max((|F|^p μ) H^T, 0)`` of pairings ``∫ |f|^p h dμ``."""
    return np.maximum((np.abs(F) ** p * X.space.weights) @ H.T, 0.0)


def dual_norm_of_pth_power(X: LatticeNorm, p: float, h) -> float:
    """Norm of one vector ``h`` in the Köthe dual of the p-th power of X.

    At ``p = 1`` it is the Köthe-dual norm ``sup {∫|h f| dμ : ‖f‖_X <= 1}``.
    """
    return dual_norm_rows(X, p, as_vector(h, X.n))


def extreme_dual_vectors(X: LatticeNorm, p: float) -> np.ndarray:
    """Canonical extreme candidates of the positive dual ball of X_p, as rows.

    When the dual ball is the cube ``[0,1]^n`` (s = p for the weighted
    Lebesgue family) these are exactly its extreme points, every 0/1
    indicator pattern.  For curved dual balls the canonical candidates are
    the indicator directions scaled onto the unit sphere; they seed
    searches but do not exhaust the extreme set.  The last row is the
    origin.
    """
    n = X.n
    order = sorted(range(1, 2 ** n), key=lambda msk: (-bin(msk).count("1"), msk))
    masks = np.array([[(msk >> i) & 1 for i in range(n)] for msk in order],
                     dtype=float)
    if not _dual_is_cube(X, p):
        masks = masks / dual_norm_rows(X, p, masks)[:, None]
    return np.vstack([masks, np.zeros(n)])


def p_convexity_estimate(X: LatticeNorm, p: float, budget: int = 32,
                         seed=0) -> ConstantEstimate:
    """Lower bound on the p-convexity constant of X, with witness family.

    Searches finite families for the largest value of
    ``‖(Σ|f_i|^p)^{1/p}‖_X / (Σ‖f_i‖_X^p)^{1/p}``; monotone nondecreasing
    in ``budget`` and deterministic given ``seed``.  The numerator is
    :func:`lattice_aggregate_norm`; the denominator evaluates its families
    one by one.
    """
    p = float(p)

    def den(stack: np.ndarray) -> np.ndarray:
        return np.array([float(np.sum(X.norm_rows(F) ** p) ** (1.0 / p))
                         for F in stack])

    value, witness = family_search(
        lambda F: safe_ratio(lattice_aggregate_norm(X, F, p), den(F)), X.n,
        m_max=6, budget=budget, seed=seed)
    return ConstantEstimate(kind="M^p", value=value, witness=witness,
                            budget_used=int(budget))
