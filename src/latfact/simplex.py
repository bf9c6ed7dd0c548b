"""Dense one-phase simplex for max-min problems over the simplex.

The only linear program this package needs is

    maximize over probability weights xi:   min_j ( A[j] . xi )

the value of the matrix game ``A``, whose dual is a minimization over
probability mixtures of the rows.  The solver returns both: the weights,
the optimal value, and the adversarial row mixture, with the duality
identity used as an internal optimality check.  Problems stay small: with
one witness row per violating sign pattern a round, the largest LP of the
curved ``random_operator(8, 8, [7], s=2)`` solve at (p, q) = (1, 3) has
154 rows and 1111 columns, so a dense tableau with Dantzig pivoting
(Bland's rule after a stall) is plenty.

The LP always has a feasible vertex: all weight on one column, with t at
that column's worst entry.  A cold solve starts from the best such
vertex.  A solution also carries its optimal basis, and a later solve
over the same rows with more columns starts from it instead: new columns
leave the old basis primal feasible.  Either way one dense solve builds
the tableau, and no phase 1 is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimplexError", "MaxMinSolution", "solve_max_min"]

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_MAX_PIVOTS = 50000


class SimplexError(RuntimeError):
    """The pivoting loop failed to terminate or lost feasibility."""


@dataclass(frozen=True)
class MaxMinSolution:
    """Optimal value, simplex weights, adversarial row mixture, pivot count.

    ``basis`` lists the basic variable of each tableau row in the solver's
    variable layout; :func:`solve_max_min` starts from it when given the
    solution as ``warm``.
    """

    value: float
    weights: np.ndarray
    duals: np.ndarray
    iterations: int
    basis: tuple[int, ...]


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    # only rows with a nonzero entry change, so signed zeros elsewhere stay
    rows = np.nonzero(T[:, col])[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def _optimize(T: np.ndarray, basis: list[int]) -> int:
    """Run the pivot loop on a tableau whose last row holds reduced costs."""
    m = T.shape[0] - 1
    iters = 0
    bland_after = 40 * (m + T.shape[1])
    while True:
        z = T[-1, :-1]
        candidates = np.where(z < -_PIVOT_TOL)[0]
        if candidates.size == 0:
            return iters
        if iters < bland_after:
            col = int(candidates[np.argmin(z[candidates])])
        else:  # Bland's rule: smallest index, guarantees termination
            col = int(candidates[0])
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > _PIVOT_TOL
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            raise SimplexError("unbounded pivot column")
        # ratio-test ties: the largest pivot keeps the tableau well scaled
        # on degenerate LPs; under Bland's rule the smallest basis index
        # guarantees termination
        best = ratios[row]
        ties = np.where(np.abs(ratios - best) <= 1e-12 * (1.0 + abs(best)))[0]
        if ties.size > 1:
            if iters < bland_after:
                row = int(ties[np.argmax(T[ties, col])])
            else:
                row = int(ties[np.argmin([basis[i] for i in ties])])
        _pivot(T, basis, row, col)
        iters += 1
        if iters > _MAX_PIVOTS:
            raise SimplexError("pivot limit exceeded")


def _standard_form(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(Aeq, beq)`` of the LP in standard form over ``x = (xi, t+, t-, s)``:
    ``t+ - t- - A[j].xi + s_j = 0``, ``sum(xi) = 1``, ``x >= 0``."""
    J, K = A.shape
    Aeq = np.zeros((J + 1, K + 2 + J))
    beq = np.zeros(J + 1)
    Aeq[:J, :K] = -A
    Aeq[:J, K] = 1.0
    Aeq[:J, K + 1] = -1.0
    Aeq[:J, K + 2:] = np.eye(J)
    Aeq[J, :K] = 1.0
    beq[J] = 1.0
    return Aeq, beq


def _tableau(Aeq: np.ndarray, beq: np.ndarray,
             basis: list[int]) -> np.ndarray:
    """Tableau ``B^-1 [Aeq | beq]`` of a basis above an empty cost row.

    Raises ``LinAlgError`` when the basis matrix is singular.
    """
    m = Aeq.shape[0]
    T = np.zeros((m + 1, Aeq.shape[1] + 1))
    T[:m] = np.linalg.solve(Aeq[:, basis], np.hstack([Aeq, beq[:, None]]))
    return T


def solve_max_min(A, warm: MaxMinSolution | None = None) -> MaxMinSolution:
    """Maximize ``min_j A[j] . xi`` over the probability simplex.

    Returns the value of the matrix game ``A``, the maximizing weights, and
    the dual mixture ``lam`` over rows, which satisfies the game identity
    ``value = max_k (lam @ A)[k]`` (checked internally).  An LP with
    offsets, ``min_j (A[j] . xi - b[j])``, is the game ``A - b[:, None]``.

    A cold solve starts from the vertex ``xi = e_k`` of the column ``k``
    that maximises ``min_j A[j, k]``.  ``warm`` is a solution of
    an LP over the same rows whose columns are a prefix of ``A``'s
    columns; the solve then starts from its optimal basis instead.  When
    ``warm`` has another row count or more columns than ``A``, or its
    basis is singular or not primal feasible for this LP, the solve starts
    cold; so it does when the warm solve ends in ``SimplexError``.
    ``iterations`` counts the pivots of the solve that returns, after its
    start.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    J, K = A.shape
    if J == 0 or K == 0:
        raise ValueError("need at least one row and one column")
    if not np.all(np.isfinite(A)):
        raise ValueError("non-finite LP data")

    m = J + 1
    nvar = K + 2 + J
    Aeq, beq = _standard_form(A)

    if (warm is not None and warm.duals.shape == (J,)
            and warm.weights.size <= K):
        # the new columns sit after the old xi block, so every later
        # variable moves right by the number of new columns
        K0 = warm.weights.size
        basis = [v if v < K0 else v + K - K0 for v in warm.basis]
        try:
            T = _tableau(Aeq, beq, basis)
        except np.linalg.LinAlgError:
            T = None
        # the old basis serves while its basic solution stays feasible
        if T is not None and (np.all(np.isfinite(T))
                              and T[:m, -1].min() >= -_FEAS_TOL):
            try:
                return _solve_from(A, T, basis)
            except SimplexError:
                pass  # a warm start lost to rounding is solved again cold
    # the vertex xi = e_k of the best single column k: t sits at the
    # worst row j* of that column, in t+ or t- by its sign, and every
    # other row keeps its slack, so the basis is feasible by construction
    k = int(np.argmax(A.min(axis=0)))
    jstar = int(np.argmin(A[:, k]))
    basis = list(range(K + 2, nvar)) + [k]
    basis[jstar] = K if A[jstar, k] >= 0.0 else K + 1
    return _solve_from(A, _tableau(Aeq, beq, basis), basis)


def _solve_from(A: np.ndarray, T: np.ndarray,
                basis: list[int]) -> MaxMinSolution:
    """Pivot a feasible start tableau of ``solve_max_min``'s LP to optimum.

    The tableau has an empty cost row; the objective is ``t+ - t-``, the
    variables ``K`` and ``K + 1``.  The pivots choose the optimal basis
    ``B``; the primal ``B^-1 beq`` and the row prices ``y = B^-T c_B`` are
    then solved from ``B`` itself, since the pivoted tableau drifts on
    degenerate LPs such as one with duplicate rows.  Raises
    ``SimplexError`` when the pivots fail, ``B`` is singular or the
    duality identity does not hold at the end.
    """
    J, K = A.shape
    m = J + 1
    nvar = K + 2 + J
    T[:m, basis] = np.eye(m)
    T[:m, -1] = np.maximum(T[:m, -1], 0.0)

    # reduced costs of the objective t+ - t-
    cost = np.zeros(nvar)
    cost[K] = 1.0
    cost[K + 1] = -1.0
    T[m, :nvar] = -cost
    for i, bi in enumerate(basis):
        if cost[bi] != 0.0:
            T[m, :] += cost[bi] * T[i, :]
    iters = _optimize(T, basis)

    Aeq, beq = _standard_form(A)
    B = Aeq[:, basis]
    try:
        xB = np.linalg.solve(B, beq)
        y = np.linalg.solve(B.T, cost[basis])
    except np.linalg.LinAlgError:
        raise SimplexError("singular optimal basis") from None
    x = np.zeros(nvar)
    x[basis] = xB
    weights = np.maximum(x[:K], 0.0)
    total = weights.sum()
    if total <= 0.0:
        raise SimplexError("degenerate simplex weights")
    weights = weights / total
    value = float(x[K] - x[K + 1])

    # the duals are the row prices of the J game rows
    duals = np.maximum(y[:J], 0.0)
    dsum = duals.sum()
    duals = duals / dsum if dsum > 0 else np.full(J, 1.0 / J)

    dual_value = float(np.max(duals @ A))
    scale = 1.0 + abs(value) + np.abs(A).max(initial=0.0)
    if abs(dual_value - value) > 1e-6 * scale:
        raise SimplexError(
            f"duality gap {dual_value - value:.3e} exceeds tolerance")
    return MaxMinSolution(value=value, weights=weights, duals=duals,
                          iterations=iters, basis=tuple(basis))
