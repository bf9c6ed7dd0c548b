"""Witness-family estimates of norm and operator constants.

Every constant computed by this package is a supremum of a ratio over
finite families of vectors.  Estimates are certified lower bounds: the
returned value is the ratio attained by the stored witness family and can
be reproduced by replaying the ratio on the witness.  The search is a
seeded multi-restart coordinate ascent on the flattened family; restarts
are independent, so estimates are deterministic given the seed and
monotone nondecreasing in the restart budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ConstantEstimate", "family_search", "ratio_objective", "seed_list"]


def seed_list(seed) -> list[int]:
    """Normalize a seed (int or sequence of ints) to a list of ints >= 0."""
    if isinstance(seed, (int, np.integer)):
        return [abs(int(seed))]
    return [abs(int(s)) for s in seed]


@dataclass(frozen=True, eq=False)
class ConstantEstimate:
    """A certified lower bound for a constant, with its attaining family."""

    kind: str
    value: float
    witness: tuple[np.ndarray, ...]
    budget_used: int

    @property
    def witness_matrix(self) -> np.ndarray:
        if not self.witness:
            return np.zeros((0, 0))
        return np.vstack(self.witness)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "value": float(self.value),
            "witness": [[float(x) for x in f] for f in self.witness],
            "budget_used": int(self.budget_used),
        }


def ratio_objective(num_fn: Callable[[np.ndarray], float],
                    den_fn: Callable[[np.ndarray], float]) -> Callable[[np.ndarray], float]:
    """Combine numerator/denominator into a ratio with a 0/0 -> 0 convention."""

    def ratio(F: np.ndarray) -> float:
        den = den_fn(F)
        if not math.isfinite(den) or den <= 0.0:
            return 0.0
        num = num_fn(F)
        if not math.isfinite(num) or num <= 0.0:
            return 0.0
        return num / den

    return ratio


def _initial_family(rng: np.random.Generator, m: int, n: int, style: int) -> np.ndarray:
    if style == 1:
        # sparse indicator-like starts: the extremal families for lattice
        # constants often live on near-disjoint supports
        F = np.zeros((m, n))
        for i in range(m):
            j = int(rng.integers(n))
            F[i, j] = 1.0 if rng.random() < 0.5 else -1.0
        F = F + 0.05 * rng.normal(size=(m, n))
    elif style == 2:
        F = np.abs(rng.normal(size=(m, n)))
    else:
        F = rng.normal(size=(m, n))
    scale = np.max(np.abs(F))
    if scale > 0:
        F = F / scale
    return F


def _polish_family(ratio: Callable[[np.ndarray], float], F: np.ndarray,
                   sweeps: int) -> tuple[float, np.ndarray]:
    """Coordinate ascent plus gradient line search on the flattened family.

    Coordinate sweeps with a shrinking step move the family between support
    patterns; the ratio is then polished by numeric-gradient ascent with a
    geometric line search, which moves all coordinates together and
    converges where single-coordinate steps zigzag.
    """
    val = ratio(F)
    delta = 0.5
    m, n = F.shape
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            for j in range(n):
                for direction in (delta, -delta):
                    old = F[i, j]
                    F[i, j] = old + direction
                    cand = ratio(F)
                    if cand > val + max(1e-15, 1e-13 * abs(val)):
                        val = cand
                        improved = True
                    else:
                        F[i, j] = old
        if not improved:
            delta *= 0.5
            if delta < 1e-3:
                break
        scale = np.max(np.abs(F))
        if scale > 0:  # the ratio is scale-invariant; keep coordinates O(1)
            F /= scale
            val = ratio(F)

    etas = np.geomspace(1e-8, 1.0, 22)
    grad = np.zeros_like(F)
    stall = 0
    for _ in range(60):
        step = 1e-6 * max(1.0, float(np.max(np.abs(F))))
        for i in range(m):
            for j in range(n):
                old = F[i, j]
                F[i, j] = old + step
                up = ratio(F)
                F[i, j] = old - step
                down = ratio(F)
                F[i, j] = old
                grad[i, j] = (up - down) / (2.0 * step)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        direction = grad / gn
        best_eta, best_val = 0.0, val
        for eta in etas:
            cand = ratio(F + eta * direction)
            if cand > best_val + 1e-15:
                best_eta, best_val = eta, cand
        if best_eta == 0.0:
            stall += 1
            if stall >= 2:
                break
        else:
            F += best_eta * direction
            val = best_val
            stall = 0
    return val, F


def family_search(ratio: Callable[[np.ndarray], float], n: int, *,
                  m_max: int = 6, budget: int = 16, seed=0,
                  sweeps: int = 40) -> tuple[float, tuple[np.ndarray, ...], int]:
    """Maximize ``ratio`` over families of at most ``m_max`` vectors.

    Returns ``(value, witness_family, budget_used)``.  ``budget`` counts
    independent restarts; restart ``k`` uses its own child seed, so a longer
    budget can only extend the list of candidates (monotonicity), and ties
    keep the first-found family (determinism).
    """
    base = seed_list(seed)
    budget = int(budget)

    def run(k: int) -> tuple[float, np.ndarray]:
        rng = np.random.default_rng(base + [k])
        m = (k % m_max) + 1
        F = _initial_family(rng, m, n, k % 3)
        return _polish_family(ratio, F, sweeps)

    results = [run(k) for k in range(budget)]
    best_val = 0.0
    best_F = np.zeros((0, n))
    for val, F in results:
        if val > best_val:
            best_val = val
            best_F = F
    witness = tuple(np.array(row) for row in best_F) if best_val > 0.0 else ()
    return float(best_val), witness, budget
