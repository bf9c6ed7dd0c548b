"""Operator constants as certified lower bounds with replayable witnesses.

Four constants are estimated for an operator ``T`` from a lattice-normed
domain into a normed target: the operator norm, the q-concavity constant,
the strong (p,q)-concavity constant whose denominator is a supremum over
scaled families, and the q-summing constant whose denominator is the
weak-q norm over the dual unit ball.  Singleton families make all four
ratios coincide with ``‖Tf‖/‖f‖``, and per-family inequalities between the
denominators give an exact witness-transfer chain

    operator_norm <= M_q <= M_pq <= pi_q

which :func:`constant_chain_report` checks and reports.

Two middle constants are ``‖T‖`` itself on weighted ``L^s``: ``M_q`` when
``s <= q``, by Minkowski's inequality in ``L^{s/q}`` (``L^s`` is
q-concave with constant one), and ``M_pq`` when ``s = p``, where its
denominator is ``(sum_i ‖f_i‖_p^q)^{1/q}``, or when ``p = q`` and
``s <= q``, where it is the ``M_q`` one.  Where ``‖T‖`` is exact (weighted
``L^1``, weighted ``L^2`` into a Euclidean target, and the saturated
mixtures that collapse to them) their estimates are the operator norm's
one-vector witness.  The seeded family search runs for ``M_q`` at
``s > q``, for curved ``M_pq``, for ``pi_q`` and wherever ``‖T‖`` is only
an ascent's lower bound.

The ratios and the two denominators with an inner supremum
(:func:`family_sup_lhs`, :func:`weak_q_norm`) take a family ``(m, n)`` or a
stack of families ``(K, m, n)``; a stack is solved in one batched pass and
gives one value per family.  Every denominator, and the brute-force
reference, runs on a weighted Lebesgue space: a saturated mixture that
collapses to one (:func:`_collapsed_mixture`) takes that space's routes,
and any other domain is refused with ``ValueError``, since its dual ball
has no closed form.  Matrix products over a stack go through
``np.matmul``, one product per family, and the last root of a value is a
scalar power, so a family's value does not depend on the stack it is in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import ConstantEstimate, family_search, safe_ratio, seed_list
from .search import (fixed_point_ascent, projected_ascent, sign_patterns,
                     signed_starts, unit_rows)
from .snorm import SNormSpace
from .spaces import (ExponentTriple, LatticeNorm, MeasureSpace,
                     NotPConvexError, WeightedLebesgue, _dual_is_cube,
                     _family_stack, _scalar_pow, _unstack, _weighted_lebesgue,
                     dual_norm_rows, lattice_aggregate_norm, power_mean,
                     power_mean_rows)

__all__ = [
    "EuclideanNorm",
    "LinearOperator",
    "family_sup_lhs",
    "family_sup_rhs",
    "attainment_point",
    "brute_force_family_sup",
    "brute_force_grid_size",
    "BRUTE_FORCE_GRID_CAP",
    "weak_q_norm",
    "q_concavity_ratio",
    "pq_concavity_ratio",
    "q_summing_ratio",
    "operator_norm_estimate",
    "q_concavity_estimate",
    "pq_concavity_estimate",
    "q_summing_estimate",
    "constant_chain_report",
]


@dataclass(frozen=True, eq=False)
class EuclideanNorm:
    """Plain Euclidean target norm (no measure weighting)."""

    dim: int

    def norm(self, v) -> float:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise ValueError(f"expected a vector of length {self.dim}")
        return float(np.linalg.norm(v))

    def norm_rows(self, V) -> np.ndarray:
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return np.sqrt((V * V).sum(axis=-1))

    def norm_grad_rows(self, V) -> np.ndarray:
        V = np.atleast_2d(np.asarray(V, dtype=float))
        norms = self.norm_rows(V)
        norms = np.where(norms == 0.0, 1.0, norms)
        return V / norms[..., None]

    def __eq__(self, other) -> bool:
        return isinstance(other, EuclideanNorm) and self.dim == other.dim

    def __hash__(self) -> int:
        return hash(("euclidean", self.dim))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """A dense matrix acting from a lattice-normed domain into a normed target."""

    matrix: np.ndarray
    domain: LatticeNorm
    codomain: EuclideanNorm | LatticeNorm

    def __post_init__(self):
        M = np.array(self.matrix, dtype=float)
        if M.ndim != 2:
            raise ValueError("operator matrix must be two-dimensional")
        if not np.all(np.isfinite(M)):
            raise ValueError("operator matrix has non-finite entries")
        if M.shape[1] != self.domain.n:
            raise ValueError(
                f"matrix has {M.shape[1]} columns but the domain has "
                f"{self.domain.n} atoms")
        d = M.shape[0]
        target = self.codomain
        target_dim = target.dim if isinstance(target, EuclideanNorm) else target.n
        if target_dim != d:
            raise ValueError(
                f"matrix has {d} rows but the codomain norm expects {target_dim}")
        M.flags.writeable = False
        object.__setattr__(self, "matrix", M)

    @property
    def d(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n(self) -> int:
        return int(self.matrix.shape[1])

    def __eq__(self, other) -> bool:
        return (isinstance(other, LinearOperator)
                and np.array_equal(self.matrix, other.matrix)
                and self.domain == other.domain
                and self.codomain == other.codomain)


def identity_operator(X: LatticeNorm) -> LinearOperator:
    return LinearOperator(matrix=np.eye(X.n), domain=X, codomain=X)


def _family_matrix(F, n: int) -> np.ndarray:
    F, single = _family_stack(F, n)
    if not single:
        raise ValueError("expected one family, got a stack")
    return F[0]


def _per_family(fn, F: np.ndarray) -> np.ndarray:
    """Evaluate ``fn`` on the nonzero families of a stack; zero families get 0."""
    nonzero = F.any(axis=(1, 2))
    if nonzero.all():
        return fn(F)
    out = np.zeros(F.shape[0])
    if nonzero.any():
        out[nonzero] = fn(F[nonzero])
    return out


# ---------------------------------------------------------------------------
# the two sides of the scaled-family supremum
# ---------------------------------------------------------------------------

def _psi_rows(H: np.ndarray, P: np.ndarray, t: float) -> np.ndarray:
    """psi(h) = sum_i (integral of g_i against h)^t, batched over rows of H.

    ``H`` and ``P`` may carry a leading stack axis (one ``P`` per family).
    """
    c = np.maximum(H @ np.swapaxes(P, -1, -2), 0.0)
    return (c ** t).sum(axis=-1)


def _curved_dual_sup(X: WeightedLebesgue, e: ExponentTriple,
                     F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Supremum of ``psi(h)^{1/q}`` over the positive dual ball of X_p.

    Curved-ball case (``s > p``), for a stack of families ``(K, m, n)``.
    At ``sigma = s/p = 2`` and ``t = q/p = 2`` it is exact:
    ``psi(h) = ‖P h‖^2`` with ``P = |F|^p μ`` on the positive part of the
    ``L^2(μ)`` ball, so the supremum is ``σ_max(P diag(μ^{-1/2}))^{2/q}``,
    attained at ``|v_1| / sqrt(μ)`` for the top right singular vector
    ``v_1``: ``P >= 0`` gives ``‖M|v|‖ >= ‖Mv‖``, so ``|v_1|`` attains it
    even when the top singular value repeats.  Elsewhere the first-order
    condition is the fixed point ``h ∝ (sum_i c_i^{t-1} g_i)^{sigma-1}``;
    five plain steps of it run from canonical and seeded starts, and
    :func:`search.projected_ascent` then polishes the best row of the fifth
    iterate along the dual sphere.  Every iterate is feasible, so the value
    is a lower bound on the supremum, not the supremum: the fixed point can
    settle in a local maximum, 2–3e-4 low on nine-vector families at
    ``(s, p, q) = (2, 1, 3)``.  It serves ``t = q/p > 1`` only: at
    ``p = q`` the objective is linear, and :func:`family_sup_lhs` and
    :func:`attainment_point` use its closed form.  One-vector families
    never reach it in :func:`family_sup_lhs`, whose value there is the
    norm.  Returns the values ``(K,)`` and the maximizing weights
    ``(K, n)``.
    """
    mu = X.space.weights
    n = X.n
    K = F.shape[0]
    p, q, t = e.p, e.q, e.t
    sigma = X.s / p
    sigma_dual = sigma / (sigma - 1.0)
    G = np.abs(F) ** p
    P = G * mu
    if sigma == 2.0 and t == 2.0:
        r = 1.0 / np.sqrt(mu)
        _, sv, Vt = np.linalg.svd(P * r)
        return _scalar_pow(sv[:, 0], 2.0 / q), np.abs(Vt[:, 0]) * r
    PT = P.transpose(0, 2, 1)

    def dual_sphere(H: np.ndarray) -> np.ndarray:
        return unit_rows(H, lambda H: dual_norm_rows(X, p, H))

    # starts: uniform, the norming profile of each |f_i|^p (uniform again
    # for a zero row), indicators and seeded noise
    gmax = G.max(axis=2, keepdims=True)
    profiles = np.where(gmax > 0.0,
                        (G / np.where(gmax > 0.0, gmax, 1.0)) ** (sigma - 1.0),
                        1.0)
    rng = np.random.default_rng(7)
    tail = np.vstack([np.eye(n), np.abs(rng.normal(size=(8, n)))])
    H = dual_sphere(np.concatenate(
        [np.ones((K, 1, n)), profiles, np.broadcast_to(tail, (K, *tail.shape))],
        axis=1))
    for _ in range(5):
        W = np.maximum(H @ PT, 0.0) ** (t - 1.0)
        Gw = W @ G
        scale = Gw.max(axis=2)
        dead = scale <= 0.0
        if np.any(dead):
            Gw = Gw.copy()
            Gw[dead] = 1.0
            scale = Gw.max(axis=2)
        H = dual_sphere((Gw / scale[..., None]) ** (sigma - 1.0))
    vals = _psi_rows(H, P, t)
    top = vals.argmax(axis=1)
    best_val = vals[np.arange(K), top]
    best_h = H[np.arange(K), top]

    # the fixed point can circle a basin at the 1e-7 level; a tangential
    # ascent from the best weight closes the last stretch
    def grad_rows(H: np.ndarray) -> np.ndarray:
        c = np.maximum(H @ PT, 0.0)
        return t * mu * (c ** (t - 1.0) @ G)

    def radial_rows(H: np.ndarray) -> np.ndarray:
        return H ** (sigma_dual - 1.0) * mu

    h, val = projected_ascent(lambda H: _psi_rows(H, P, t), grad_rows,
                              dual_sphere, best_h[:, None, :], iters=60,
                              radial_rows=radial_rows)
    gained = val[:, 0] > best_val
    best_val = np.where(gained, val[:, 0], best_val)
    best_h = np.where(gained[:, None], h[:, 0], best_h)
    return _scalar_pow(best_val, 1.0 / q), best_h


def family_sup_lhs(X: LatticeNorm, e: ExponentTriple,
                   F) -> float | np.ndarray:
    """Supremum over unit scalings of ``‖(sum_i |beta_i f_i|^p)^{1/p}‖_X``.

    The scaling vector ranges over the unit ball of the sequence space with
    exponent ``r`` (the sup ball when ``p = q``, where the all-ones scaling
    is optimal by monotonicity).  For weighted Lebesgue domains the scaling
    supremum is eliminated exactly through conjugate-exponent duality:
    at ``s = p`` the value collapses to ``(sum_i ‖f_i‖_{L^p}^q)^{1/q}``,
    and for ``s > p`` the remaining dual-ball supremum is
    :func:`_curved_dual_sup`: a top singular value, exact, at
    ``s/p = q/p = 2``, and elsewhere the attainment fixed point, a lower
    bound.  A saturated mixture that collapses to a weighted ``L^p``
    space takes that space's routes, and any other domain raises
    ``ValueError`` (:func:`_lebesgue_domain`).  No search runs for a family
    of one vector: its scaling ball is ``[-1, 1]``, so the value is exactly
    ``‖f‖_X``.  A stack of families ``(K, m, n)`` gives the ``(K,)`` values
    in one pass.  For ``q > p`` the reduction needs a p-convex domain and
    raises :class:`NotPConvexError` on any other.
    """
    X = _lebesgue_domain(X)
    if not (e.is_extreme or X.is_p_convex_one(e.p)):
        raise NotPConvexError(
            f"space is not p-convex with constant one for p={e.p}; "
            "the (p,q) family supremum needs it when q > p")
    F, single = _family_stack(F, X.n)
    return _unstack(_per_family(lambda G: _sup_lhs(X, e, G), F), single)


def _lebesgue_domain(X: LatticeNorm) -> WeightedLebesgue:
    """The weighted Lebesgue space a value-only function runs on.

    A saturated mixture that :func:`_collapsed_mixture` turns into a
    weighted ``L^p`` space has the same norm, hence the same dual ball of
    functionals and the same values, so it runs on that space.  Any other
    domain raises ``ValueError``.
    """
    return _weighted_lebesgue(_collapsed_mixture(X))


def _sup_lhs(X: WeightedLebesgue, e: ExponentTriple,
             F: np.ndarray) -> np.ndarray:
    if e.is_extreme:
        return lattice_aggregate_norm(X, F, e.p)
    if _dual_is_cube(X, e.p):
        # s = p; family_sup_lhs has ruled out s < p
        row_norms = power_mean_rows(F, e.p, X.space.weights)
        return _scalar_pow((row_norms ** e.q).sum(axis=1), 1.0 / e.q)
    if F.shape[1] == 1:
        return _one_vector_norms(X, F)
    return _curved_dual_sup(X, e, F)[0]


def _one_vector_norms(X: WeightedLebesgue, F: np.ndarray) -> np.ndarray:
    """``‖f‖_X`` for a stack of one-vector families ``(K, 1, n)``.

    Both dual-ball denominators of a family of one are its norm: Köthe
    duality gives ``sup_{‖h‖_{X'} <= 1} |<h, f>| = ‖f‖_X``, and the
    scaling ball of one vector is ``[-1, 1]``.  The norms go through the
    stacked :func:`power_mean`, one vector's arithmetic per row.
    """
    return power_mean(F[:, 0], X.s, X.space.weights)


def family_sup_rhs(X: LatticeNorm, e: ExponentTriple, F, grid) -> float:
    """Maximum over a dual-ball grid of the inner-integral aggregate.

    ``grid`` holds the weights as the rows of a matrix.  Evaluates
    ``( sum_i (∫ |f_i|^p h dμ)^{q/p} )^{1/q}`` at every grid row and
    returns the maximum.  The objective is monotone in ``h``, so on
    cube-shaped dual balls the extreme-point sublist is already exact.
    """
    F = _family_matrix(F, X.n)
    H = np.asarray(grid, dtype=float)
    if H.ndim != 2 or H.shape[0] == 0 or H.shape[1] != X.n:
        raise ValueError(f"dual-ball grid must be a nonempty (k, {X.n}) matrix")
    P = (np.abs(F) ** e.p) * X.space.weights
    vals = _psi_rows(H, P, e.t)
    return float(np.max(vals) ** (1.0 / e.q))


def attainment_point(X: LatticeNorm, e: ExponentTriple, F) -> np.ndarray:
    """A dual-ball weight row (near-)maximizing the inner-integral aggregate.

    On cube-shaped dual balls the objective is monotone, so the all-ones
    weight is exact.  On curved weighted Lebesgue duals with ``p = q`` the
    objective is linear, ``∫ g h dμ`` with ``g = sum_i |f_i|^p``, and the
    exact maximizer is Hölder's ``g^(sigma-1) / ‖g^(sigma-1)‖_{sigma'}``
    (``sigma = s/p``); for a single function this is the classical norming
    weight of ``|f|^p``.  For ``q > p`` the weight of
    :func:`_curved_dual_sup` is returned: an exact maximizer, from the top
    singular vector, at ``s/p = q/p = 2``, and the fixed point elsewhere.
    The weight is a density against X's own measure, so X must be weighted
    Lebesgue; any other space, a mixture included, raises ``ValueError``.
    Raises :class:`NotPConvexError` when X is not p-convex.
    """
    X = _weighted_lebesgue(X)
    F = _family_matrix(F, X.n)
    if _dual_is_cube(X, e.p):
        return np.ones(X.n)
    if not np.any(F):
        h = np.ones(X.n)
    elif e.is_extreme:
        # psi(h) = ∫ g h dμ with g = sum_i |f_i|^p is linear, and
        # Hölder's equality case h ∝ g^(sigma-1) maximizes it
        g = (np.abs(F) ** e.p).sum(axis=0)
        h = (g / g.max()) ** (X.s / e.p - 1.0)
    else:
        h = _curved_dual_sup(X, e, F[None])[1][0]
    return h / dual_norm_rows(X, e.p, h)


# ---------------------------------------------------------------------------
# brute-force reference for the scaled-family supremum
# ---------------------------------------------------------------------------

# largest starting grid brute_force_family_sup builds; the default step
# 1e-3 gives 501,501 points at m = 3
BRUTE_FORCE_GRID_CAP = 10 ** 6
# steps of the polish after the grid, each a coordinate move or a line search
_POLISH_ROUNDS = 200


def _grid_denominator(m: int, step: float) -> int:
    if m <= 3:
        return max(1, int(round(1.0 / step)))
    # larger families: coarsen so the grid stays around 1e5 points
    return max(6, int(round(1e5 ** (1.0 / (m - 1)))))


def brute_force_grid_size(m: int, step: float, extreme: bool = False) -> int:
    """Points in the starting grid of :func:`brute_force_family_sup`.

    ``extreme`` (p = q) grids the cube [0, 1]^m with 5 points per axis;
    otherwise the grid is the simplex of :func:`_simplex_grid`.
    """
    if extreme:
        return 5 ** m
    return math.comb(_grid_denominator(m, step) + m - 1, m - 1)


def _simplex_grid(m: int, step: float) -> np.ndarray:
    """All nonnegative rational points with denominator K on the simplex.

    K is ``round(1 / step)`` up to m = 3 and coarser beyond.  The points
    come in lexicographic order of their first m - 1 coordinates, built
    one coordinate at a time from what the earlier ones leave, so only
    the C(K + m - 1, m - 1) simplex points are ever stored.
    """
    K = _grid_denominator(m, step)
    rows = np.zeros((1, 0), dtype=int)
    left = np.array([K])
    for _ in range(m - 1):
        counts = left + 1
        parent = np.repeat(np.arange(rows.shape[0]), counts)
        value = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                   counts)
        rows = np.column_stack([rows[parent], value])
        left = left[parent] - value
    return np.column_stack([rows, left]) / K


def brute_force_family_sup(X: LatticeNorm, e: ExponentTriple, F, *,
                           step: float = 1e-3) -> float:
    """Grid-plus-polish reference value for the scaled-family supremum.

    Enumerates scalings on the unit sphere of the exponent-``r`` sequence
    space (mapped from a simplex grid of the given step), then polishes the
    best point by shrinking coordinate moves.  Slow but independent of the
    duality reduction; used as the oracle side of the equality checks.
    It takes the domains :func:`family_sup_lhs` takes and refuses the
    others with ``ValueError``.  A starting grid above
    :data:`BRUTE_FORCE_GRID_CAP` points (see :func:`brute_force_grid_size`)
    raises ``ValueError`` before it is built.
    """
    X = _lebesgue_domain(X)
    F = _family_matrix(F, X.n)
    if not np.any(F):
        return 0.0
    m = F.shape[0]
    size = brute_force_grid_size(m, step, e.is_extreme)
    if size > BRUTE_FORCE_GRID_CAP:
        raise ValueError(f"brute-force grid of {size} points for {m} vectors "
                         f"exceeds the cap of {BRUTE_FORCE_GRID_CAP}")
    G = np.abs(F) ** e.p
    sigma = X.s / e.p
    mu = X.space.weights

    def value(B: np.ndarray) -> np.ndarray:
        """B -> ‖(sum_i b_i |f_i|^p)^{1/p}‖_X row by row, b_i = beta_i^p."""
        agg = np.maximum(B, 0.0) @ G
        return power_mean_rows(agg, sigma, mu) ** (1.0 / e.p)

    if e.is_extreme:
        # sup-ball: grid the cube, polish within it
        axes = np.linspace(0.0, 1.0, 5)
        mesh = np.meshgrid(*([axes] * m), indexing="ij")
        Beta = np.column_stack([ax.ravel() for ax in mesh])
        B = Beta ** e.p
        vals = value(B)
        best = int(np.argmax(vals))
        beta = Beta[best].copy()
        best_val = float(vals[best])
        delta = 0.25
        for _ in range(_POLISH_ROUNDS):
            cands = []
            for i in range(m):
                for d in (delta, -delta):
                    c = beta.copy()
                    c[i] = min(1.0, max(0.0, c[i] + d))
                    cands.append(c)
            C = np.vstack(cands)
            vals = value(C ** e.p)
            top = int(np.argmax(vals))
            if vals[top] > best_val + 1e-16:
                best_val = float(vals[top])
                beta = C[top]
            else:
                delta *= 0.7
                if delta < 1e-13:
                    break
        return best_val

    # finite r: work with b = beta^p on the unit sphere of exponent r/p,
    # where the objective is norm-of-linear (nonzero boundary derivatives);
    # the simplex grid maps onto that sphere via b = u^{p/r}
    U = _simplex_grid(m, step)
    rp = e.r / e.p
    B0 = U ** (e.p / e.r)
    vals = value(B0)
    top = np.argsort(vals)[::-1][:10]
    best_val = float(vals[top[0]])

    ones = np.ones(m)

    def normalize(B: np.ndarray) -> np.ndarray:
        B = np.maximum(B, 0.0)
        norms = power_mean_rows(B, rp, ones)
        bad = norms <= 0.0
        if np.any(bad):
            B = B.copy()
            B[bad] = 1.0
            norms = power_mean_rows(B, rp, ones)
        return B / norms[:, None]

    def grad_rows(B: np.ndarray) -> np.ndarray:
        A = np.maximum(B, 0.0) @ G
        N = power_mean_rows(A, sigma, mu)
        N = np.where(N <= 0.0, 1.0, N)
        S = (np.maximum(A, 0.0) ** (sigma - 1.0) * mu) @ G.T
        return (N ** (1.0 / e.p - sigma))[:, None] * S / e.p

    # polish the best grid points by steepest ascent along the tangential
    # gradient with a vectorized line search: projecting out the radial
    # direction keeps step sizes on the scale of progress along the sphere
    B = normalize(B0[top])
    vals = value(B)
    etas = np.geomspace(1e-9, 0.5, 25)
    stall = 0
    for _ in range(_POLISH_ROUNDS):
        Gt = grad_rows(B)
        radial = np.maximum(B, 0.0) ** (rp - 1.0)
        rn = np.linalg.norm(radial, axis=1)
        rn[rn == 0.0] = 1.0
        radial = radial / rn[:, None]
        Gt = Gt - (np.sum(Gt * radial, axis=1))[:, None] * radial
        gn = np.linalg.norm(Gt, axis=1)
        gn[gn == 0.0] = 1.0
        Gt = Gt / gn[:, None]
        cands = normalize((B[:, None, :] + etas[None, :, None] * Gt[:, None, :])
                          .reshape(-1, m))
        cvals = value(cands).reshape(B.shape[0], etas.size)
        pick = np.argmax(cvals, axis=1)
        cbest = cvals[np.arange(B.shape[0]), pick]
        improved = cbest > vals + 1e-16
        if not np.any(improved):
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
        rows = np.where(improved)[0]
        B[rows] = cands.reshape(B.shape[0], etas.size, m)[rows, pick[rows]]
        vals[rows] = cbest[rows]
    return max(best_val, float(vals.max()))


# ---------------------------------------------------------------------------
# weak-q norms over the dual unit ball
# ---------------------------------------------------------------------------

def _lq_rows(U: np.ndarray, q: float) -> np.ndarray:
    return (np.abs(U) ** q).sum(axis=-1) ** (1.0 / q)


def weak_q_norm(X: LatticeNorm, F, q: float, budget: int = 16,
                seed=0) -> float | np.ndarray:
    """sup over the dual unit ball of ``(sum_i |<h, f_i>|^q)^{1/q}``.

    Closed routes for weighted Lebesgue domains: vertex enumeration when
    ``s = 1`` (the dual ball is a cube, and the objective is convex), and
    the top singular value when ``s = q = 2``.  A saturated mixture space
    with one atom, or with any number of atoms at ``p = q``, is the weighted
    ``L^p`` space it collapses to and takes the same routes; any other
    domain raises ``ValueError`` (:func:`_lebesgue_domain`).  Where no
    closed route applies, a family of one vector is settled by Köthe
    duality: its value is ``‖f‖_X``.  Anything else runs a seeded
    multistart :func:`~latfact.search.fixed_point_ascent` over the dual
    sphere, of the step ``h <- sign(w)|w|^{s-1}``,
    ``w_j = sum_i sign(u_i)|u_i|^{q-1} f_ij`` with ``u_i = <h, f_i>``,
    normalised by the closed-form dual norm: the value is convex in ``h``,
    and the step maximises its linearisation over the dual ball, so no step
    lowers it (Boyd's power method).  A family's ascent stops once its best
    start stops gaining, or after 60 steps.  Every row lies on the dual
    sphere, so the value is a certified lower bound.  A stack of families
    ``(K, m, n)`` gives the ``(K,)`` values in one pass; every row of every
    family is computed at every step, and each family stops on its own
    rows, so a family's value does not depend on the families stacked
    beside it.
    """
    X = _lebesgue_domain(X)
    F, single = _family_stack(F, X.n)
    return _unstack(_per_family(lambda G: _weak_q(X, G, q, budget, seed), F),
                    single)


def _collapsed_mixture(X: LatticeNorm) -> LatticeNorm:
    """The weighted ``L^p`` space isometric to a saturated mixture space.

    One atom:
    ``(c (∫|f|^p h dμ)^{q/p})^{1/q} = (∫|f|^p c^{p/q} h dμ)^{1/p}``.
    At ``p = q``, any number of atoms:
    ``(sum_k c_k ∫|f|^p h_k dμ)^{1/p} = (∫|f|^p sum_k c_k h_k dμ)^{1/p}``.
    The norm, hence its dual ball of functionals, is the same.  Other
    spaces are returned unchanged.
    """
    if not isinstance(X, SNormSpace):
        return X
    if X.e.is_extreme:
        w = X.xi.masses @ X.xi.atoms
    elif len(X.xi) == 1:
        w = float(X.xi.masses[0]) ** (X.e.p / X.e.q) * X.xi.atoms[0]
    else:
        return X
    if not np.all(w > 0.0):
        return X
    return WeightedLebesgue(space=MeasureSpace(weights=w * X.space.weights),
                            s=X.e.p)


def _weak_q(X: WeightedLebesgue, F: np.ndarray, q: float, budget: int,
            seed) -> np.ndarray:
    K, _, n = F.shape
    A = F * X.space.weights  # pairing matrices: <h, f_i> = (A h)_i
    AT = A.transpose(0, 2, 1)
    if _dual_is_cube(X, 1.0):
        U = sign_patterns(n) @ AT
        return _lq_rows(U, q).max(axis=1)
    if X.s == 2.0 and q == 2.0:
        scaled = F * np.sqrt(X.space.weights)
        return np.linalg.svd(scaled, compute_uv=False)[:, 0]
    if F.shape[1] == 1:
        return _one_vector_norms(X, F)

    # multistart ascent over the signed dual sphere
    def dual_sphere(H: np.ndarray) -> np.ndarray:
        return unit_rows(H, lambda H: dual_norm_rows(X, 1.0, H))

    def value_rows(H: np.ndarray) -> np.ndarray:
        return _lq_rows(H @ AT, q)

    # starts: uniform, indicators, the top right singular vector, noise
    rng = np.random.default_rng(seed_list(seed) + [3])
    head = np.vstack([np.ones(n), np.eye(n)])
    try:
        top = np.linalg.svd(A)[2][:, :1]
    except np.linalg.LinAlgError:  # no singular start: repeat the uniform one
        top = np.ones((K, 1, n))
    noise = rng.normal(size=(max(4, int(budget)), n))
    starts = np.concatenate([np.broadcast_to(head, (K, *head.shape)), top,
                             np.broadcast_to(noise, (K, *noise.shape))], axis=1)
    # Hölder's maximiser of the gradient's pairing: a step never lowers the
    # convex value
    def step_rows(H: np.ndarray) -> np.ndarray:
        U = H @ AT
        w = (np.sign(U) * np.abs(U) ** (q - 1.0)) @ F
        wmax = np.abs(w).max(axis=-1, keepdims=True)
        w = w / np.where(wmax > 0.0, wmax, 1.0)
        return dual_sphere(np.sign(w) * np.abs(w) ** (X.s - 1.0))

    _, vals = fixed_point_ascent(value_rows, step_rows, dual_sphere(starts),
                                 iters=60)
    return vals.max(axis=1)


# ---------------------------------------------------------------------------
# ratios and estimators
# ---------------------------------------------------------------------------

def _image_q_sum(T: LinearOperator, F: np.ndarray, q: float) -> np.ndarray:
    """``(sum_i ‖T f_i‖^q)^{1/q}`` for each family of a stack ``(K, m, n)``."""
    norms = T.codomain.norm_rows(F @ T.matrix.T)
    return _scalar_pow((norms ** q).sum(axis=1), 1.0 / q)


def q_concavity_ratio(T: LinearOperator, q: float, F) -> float | np.ndarray:
    F, single = _family_stack(F, T.n)
    return _unstack(safe_ratio(
        _image_q_sum(T, F, q),
        lattice_aggregate_norm(_lebesgue_domain(T.domain), F, q)), single)


def pq_concavity_ratio(T: LinearOperator, e: ExponentTriple,
                       F) -> float | np.ndarray:
    F, single = _family_stack(F, T.n)
    return _unstack(safe_ratio(_image_q_sum(T, F, e.q),
                                family_sup_lhs(T.domain, e, F)), single)


def q_summing_ratio(T: LinearOperator, q: float, F, budget: int = 16,
                    seed=0) -> float | np.ndarray:
    F, single = _family_stack(F, T.n)
    return _unstack(safe_ratio(
        _image_q_sum(T, F, q),
        weak_q_norm(T.domain, F, q, budget=budget, seed=seed)), single)


def _norm_maximisers(T: LinearOperator, Y: LatticeNorm) -> np.ndarray | None:
    """Rows of the unit sphere of ``Y`` where ``‖Tf‖`` is largest, best first.

    - On weighted ``L^1`` (any target) ``‖Tf‖`` is convex, so its supremum
      on the ball sits at an extreme point ``±e_j/μ_j`` (Rockafellar,
      *Convex Analysis*, Cor. 32.3.2): the rows are the ``n`` vertices
      ``e_j/μ_j`` by ``‖T e_j‖ / μ_j``, largest first (ties keep index
      order).
    - On weighted ``L^2`` into a Euclidean target the one row is ``r v``,
      ``r = μ^{-1/2}``, with ``v`` the top right singular vector of
      ``T diag(r)``, its first nonzero entry made positive; its value is
      the top singular value.
    - Elsewhere there is no closed form, and the result is None.
    """
    if _dual_is_cube(Y, 1.0):
        vertices = np.diag(1.0 / Y.space.weights)
        norms = T.codomain.norm_rows(vertices @ T.matrix.T)
        return vertices[np.argsort(-norms, kind="stable")]
    if (isinstance(Y, WeightedLebesgue) and Y.s == 2.0
            and isinstance(T.codomain, EuclideanNorm)):
        r = 1.0 / np.sqrt(Y.space.weights)
        v = np.linalg.svd(T.matrix * r)[2][0]
        v = v * np.sign(v[np.flatnonzero(v)[0]])
        return (r * v)[None]
    return None


def _image_norm(T: LinearOperator):
    """``‖Tf‖`` per row and its gradient: the objective of every
    operator-norm ascent, whatever sphere it runs on."""
    def value_rows(F: np.ndarray) -> np.ndarray:
        return T.codomain.norm_rows(F @ T.matrix.T)

    def grad_rows(F: np.ndarray) -> np.ndarray:
        return T.codomain.norm_grad_rows(F @ T.matrix.T) @ T.matrix

    return value_rows, grad_rows


def operator_norm_estimate(T: LinearOperator, budget: int = 16,
                           seed=0) -> ConstantEstimate:
    """Lower bound on ``sup ‖Tf‖ / ‖f‖`` via one sphere ascent.

    The ascent starts from the exact maximiser where one is known: after
    the collapse of a saturated mixture to its weighted ``L^p`` space (see
    :func:`weak_q_norm`), on weighted ``L^1`` and on weighted ``L^2`` into
    a Euclidean target (:func:`_norm_maximisers`; the best vertex, first
    on ties, on ``L^1``).  Elsewhere it starts from each distinct sign
    pattern times a canonical start
    (:func:`~latfact.search.signed_starts`), since signs matter only
    through the image.

    The ascent runs on signed vectors on the domain unit sphere; from an
    exact start it stops after one line search, and the witness is the
    row it ends on.
    """
    X = T.domain
    value_rows, grad_rows = _image_norm(T)
    exact = _norm_maximisers(T, _collapsed_mixture(X))
    A0 = (signed_starts(T.n, max(4, min(int(budget), 16)), seed)
          if exact is None else exact[:1])

    A, vals = projected_ascent(value_rows, grad_rows,
                               lambda B: unit_rows(B, X.norm_rows), A0,
                               iters=50, nonneg=False,
                               radial_rows=X.norm_grad_rows)
    best = int(np.argmax(vals))
    value = float(vals[best])
    witness = (A[best].copy(),) if value > 0.0 else ()
    return ConstantEstimate(kind="operator_norm", value=value,
                            witness=witness, budget_used=int(budget))


def _family_estimate(kind, ratio, n, budget, seed) -> ConstantEstimate:
    """The family search of ``ratio`` over families of up to 8 vectors."""
    value, witness = family_search(ratio, n, m_max=8, budget=budget, seed=seed)
    return ConstantEstimate(kind=kind, value=value, witness=witness,
                            budget_used=int(budget))


def _norm_or_family_estimate(T: LinearOperator, kind, ratio, closed, budget,
                             seed) -> ConstantEstimate:
    """``‖T‖`` where the constant equals it and ‖T‖ is exact, else the search.

    After the collapse of a saturated mixture, a weighted ``L^s`` domain
    whose exponent passes ``closed(s)`` has the constant equal to ``‖T‖``;
    where :func:`_norm_maximisers` knows the maximiser, the estimate is
    :func:`operator_norm_estimate`'s one-vector witness, its value the
    ratio replayed on it.  Everywhere else the family search runs.  A
    domain that is not weighted Lebesgue after the collapse raises
    ``ValueError``.
    """
    X = _lebesgue_domain(T.domain)
    if not (closed(X.s) and _norm_maximisers(T, X) is not None):
        return _family_estimate(kind, ratio, T.n, budget, seed)
    witness = operator_norm_estimate(T, budget, seed).witness
    value = float(ratio(np.vstack(witness))) if witness else 0.0
    return ConstantEstimate(kind=kind, value=value, witness=witness,
                            budget_used=int(budget))


def q_concavity_estimate(T: LinearOperator, q: float, budget: int = 16,
                         seed=0) -> ConstantEstimate:
    """Lower bound on the q-concavity constant ``M_q(T)`` with witness.

    On weighted ``L^s`` with ``s <= q``, ``L^s`` is q-concave with constant
    one: Minkowski's inequality in ``L^{s/q}``, ``s/q <= 1``, gives
    ``‖(sum_i |f_i|^q)^{1/q}‖_s >= (sum_i ‖f_i‖_s^q)^{1/q}`` (Lindenstrauss
    and Tzafriri, *Classical Banach Spaces II*, 1.d), so every ratio is at
    most ``‖T‖`` and ``M_q(T) = ‖T‖``.  Where ``‖T‖`` is exact, on
    weighted ``L^1`` and on weighted ``L^2`` into a Euclidean target (after
    the collapse of a saturated mixture), the estimate is the operator
    norm's one-vector witness, exact.  Elsewhere, ``s > q`` included, the
    seeded family search runs.
    """
    return _norm_or_family_estimate(
        T, "M_q", lambda F: q_concavity_ratio(T, q, F), lambda s: s <= q,
        budget, seed)


def pq_concavity_estimate(T: LinearOperator, e: ExponentTriple,
                          budget: int = 16, seed=0) -> ConstantEstimate:
    """Lower bound on the strong (p,q)-concavity constant ``M_pq(T)``.

    When ``p = q`` the denominator coincides with the q-concavity one, so
    identical seeds and budgets reproduce :func:`q_concavity_estimate`
    bit for bit.  On weighted ``L^s`` with ``s = p`` the denominator is
    ``(sum_i ‖f_i‖_p^q)^{1/q}`` (see :func:`family_sup_lhs`), and
    ``‖T f_i‖ <= ‖T‖ ‖f_i‖_p`` term by term bounds every ratio by ``‖T‖``; at
    ``p = q`` with ``s <= q`` it is the q-concavity denominator.  In both
    cases ``M_pq(T) = ‖T‖``, and where ``‖T‖`` is exact (on weighted
    ``L^1``, on weighted ``L^2`` into a Euclidean target) the estimate is
    the operator norm's one-vector witness.  Curved domains (``s > p``,
    ``q > p``) and domains without an exact ``‖T‖`` run the family search.
    """
    return _norm_or_family_estimate(
        T, "M_pq", lambda F: pq_concavity_ratio(T, e, F),
        lambda s: s <= e.q if e.is_extreme else s == e.p, budget, seed)


def q_summing_estimate(T: LinearOperator, q: float, budget: int = 16,
                       seed=0) -> ConstantEstimate:
    """Lower bound on the q-summing constant ``pi_q(T)`` with witness."""
    return _family_estimate(
        "pi_q", lambda F: q_summing_ratio(T, q, F, budget=8, seed=seed), T.n,
        budget, seed)


# slack of the chain check relative to its largest value, pi_q, for the
# error of the numeric denominators
_CHAIN_SLACK = 1e-6


def constant_chain_report(T: LinearOperator, e: ExponentTriple,
                          budget: int = 16, seed=0) -> dict:
    """Estimate all four constants and check the witness-transfer chain.

    Each estimator's witness is replayed through the next ratio in the
    chain; the per-family inequalities are exact, so the reported chain
    values are monotone up to the error of the numeric denominators.  A
    violation beyond the slack sets ``chain_ok`` to False in the returned
    JSON-able report, next to the values that violate it.
    """
    base = seed_list(seed)
    est_norm = operator_norm_estimate(T, budget=budget, seed=base + [0])
    est_mq = q_concavity_estimate(T, e.q, budget=budget, seed=base + [1])
    est_mpq = pq_concavity_estimate(T, e, budget=budget, seed=base + [2])
    est_piq = q_summing_estimate(T, e.q, budget=budget, seed=base + [3])

    transfers = []

    def transfer(name, fro, to, families):
        best = 0.0
        for F in families:
            best = max(best, name(F))
        transfers.append({"from": fro, "to": to, "witness_ratio": best})
        return best

    v0 = est_norm.value
    singleton = [est_norm.witness] if est_norm.witness else []

    v1 = max(est_mq.value,
             transfer(lambda F: q_concavity_ratio(T, e.q, np.vstack(F)),
                      "operator_norm", "M_q", singleton))
    fam_mq = [est_mq.witness] if est_mq.witness else []
    v2 = max(est_mpq.value,
             transfer(lambda F: pq_concavity_ratio(T, e, np.vstack(F)),
                      "M_q", "M_pq", fam_mq + singleton))
    fam_mpq = [est_mpq.witness] if est_mpq.witness else []
    v3 = max(est_piq.value,
             transfer(lambda F: q_summing_ratio(T, e.q, np.vstack(F),
                                                seed=base + [4]),
                      "M_pq", "pi_q", fam_mpq + fam_mq + singleton))

    slack = _CHAIN_SLACK * v3
    chain_ok = v0 <= v1 + slack and v1 <= v2 + slack and v2 <= v3 + slack
    return {
        "estimates": {
            "operator_norm": est_norm.to_jsonable(),
            "M_q": est_mq.to_jsonable(),
            "M_pq": est_mpq.to_jsonable(),
            "pi_q": est_piq.to_jsonable(),
        },
        "chain": {"operator_norm": v0, "M_q": v1, "M_pq": v2, "pi_q": v3},
        "transfers": transfers,
        "chain_ok": chain_ok,
        "slack": _CHAIN_SLACK,
    }
