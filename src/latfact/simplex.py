"""Dense two-phase simplex for max-min problems over the probability simplex.

The only linear program this package needs is

    maximize over probability weights xi:   min_j ( A[j] . xi  -  b[j] )

whose dual is a minimization over probability mixtures of the rows.  The
solver returns both: the weights, the optimal value, and the adversarial
row mixture, with the duality identity used as an internal optimality
check.  Problem sizes stay in the low hundreds, so a dense tableau with
Dantzig pivoting (Bland's rule after a stall) is plenty.
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
    """Optimal value, simplex weights, adversarial row mixture, pivot count."""

    value: float
    weights: np.ndarray
    duals: np.ndarray
    iterations: int


def _pivot(T: np.ndarray, basis: list[int], row: int, col: int) -> None:
    T[row] /= T[row, col]
    # only rows with a nonzero entry change, so signed zeros elsewhere stay
    rows = np.nonzero(T[:, col])[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def _optimize(T: np.ndarray, basis: list[int], allowed: np.ndarray) -> int:
    """Run the pivot loop on a tableau whose last row holds reduced costs."""
    m = T.shape[0] - 1
    iters = 0
    bland_after = 40 * (m + T.shape[1])
    while True:
        z = T[-1, :-1]
        candidates = np.where(allowed & (z < -_PIVOT_TOL))[0]
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


def solve_max_min(A, b) -> MaxMinSolution:
    """Maximize ``min_j (A[j] . xi - b[j])`` over the probability simplex.

    Returns the optimal slack, the maximizing weights, and the dual
    mixture ``lam`` over rows, which satisfies the game identity
    ``value = max_k (lam @ A)[k] - lam @ b`` (checked internally).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    J, K = A.shape
    if J == 0 or K == 0:
        raise ValueError("need at least one row and one column")
    if b.shape != (J,):
        raise ValueError("b must have one entry per row of A")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite LP data")

    # standard form over x = (xi, t+, t-, s):
    #   t+ - t- - A[j].xi + s_j = -b[j],     sum(xi) = 1,     x >= 0
    m = J + 1
    nvar = K + 2 + J
    Aeq = np.zeros((m, nvar))
    beq = np.zeros(m)
    Aeq[:J, :K] = -A
    Aeq[:J, K] = 1.0
    Aeq[:J, K + 1] = -1.0
    Aeq[:J, K + 2:] = np.eye(J)
    beq[:J] = -b
    Aeq[J, :K] = 1.0
    beq[J] = 1.0
    cost = np.zeros(nvar)
    cost[K] = 1.0
    cost[K + 1] = -1.0

    sign = np.where(beq < 0.0, -1.0, 1.0)
    An = Aeq * sign[:, None]
    bn = beq * sign

    # tableau with artificial identity block and a reduced-cost row
    T = np.zeros((m + 1, nvar + m + 1))
    T[:m, :nvar] = An
    T[:m, nvar:nvar + m] = np.eye(m)
    T[:m, -1] = bn
    basis = list(range(nvar, nvar + m))

    # phase 1: maximize minus the artificial sum
    T[m, :nvar] = -An.sum(axis=0)
    T[m, -1] = -bn.sum()
    allowed = np.zeros(nvar + m, dtype=bool)
    allowed[:nvar] = True
    iters = _optimize(T, basis, allowed)
    if T[m, -1] < -_FEAS_TOL:
        raise SimplexError("phase 1 ended infeasible")

    # drive remaining artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= nvar:
            row = T[i, :nvar]
            pivots = np.where(np.abs(row) > _PIVOT_TOL)[0]
            if pivots.size:
                _pivot(T, basis, i, int(pivots[0]))

    # phase 2: true objective
    T[m, :] = 0.0
    T[m, :nvar] = -cost
    for i, bi in enumerate(basis):
        if bi < nvar and cost[bi] != 0.0:
            T[m, :] += cost[bi] * T[i, :]
    iters += _optimize(T, basis, allowed)

    x = np.zeros(nvar)
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = T[i, -1]
    weights = np.maximum(x[:K], 0.0)
    total = weights.sum()
    if total <= 0.0:
        raise SimplexError("degenerate simplex weights")
    weights = weights / total
    value = float(T[m, -1])

    # duals off the artificial columns: they carry B^{-1} of the
    # sign-normalized system, so y = c_B B^{-1} appears in the z-row
    y_flipped = T[m, nvar:nvar + m]
    y = y_flipped * sign
    duals = np.maximum(y[:J], 0.0)
    dsum = duals.sum()
    duals = duals / dsum if dsum > 0 else np.full(J, 1.0 / J)

    dual_value = float(np.max(duals @ A) - duals @ b)
    scale = 1.0 + abs(value) + np.abs(A).max(initial=0.0) + np.abs(b).max(initial=0.0)
    if abs(dual_value - value) > 1e-6 * scale:
        raise SimplexError(
            f"duality gap {dual_value - value:.3e} exceeds tolerance")
    return MaxMinSolution(value=value, weights=weights, duals=duals,
                          iterations=iters)
