"""Witness-family estimates of norm and operator constants.

Every constant computed by this package is a supremum of a ratio over
finite families of vectors.  Estimates are certified lower bounds: the
returned value is the ratio attained by the stored witness family and can
be reproduced by replaying the ratio on the witness.  The search is a
seeded multi-restart coordinate ascent on the flattened family; restarts
are independent, so estimates are deterministic given the seed and
monotone nondecreasing in the restart budget.

Ratios are stacked: they map a stack of families ``(K, m, n)`` to the
``(K,)`` ratios, one per family, and a family's value does not depend on
the stack it sits in.  The search hands every batch of probes it would
otherwise evaluate one by one to the ratio as one stack: the ±δ pair of a
coordinate step, the central-difference probes of a gradient, and the
line-search ladder along it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ConstantEstimate", "family_search", "safe_ratio", "seed_list"]

_SWEEPS = 40  # coordinate sweeps per restart before the gradient polish


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


def safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """``num / den`` per family, and 0 where either is not finite and positive."""
    ok = (den > 0.0) & (den < math.inf) & (num > 0.0) & (num < math.inf)
    return np.where(ok, num / np.where(ok, den, 1.0), 0.0)


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


def _polish_family(ratio: Callable[[np.ndarray], np.ndarray], F: np.ndarray,
                   sweeps: int) -> tuple[float, np.ndarray]:
    """Coordinate ascent plus gradient line search on the flattened family.

    Coordinate sweeps with a shrinking step move the family between support
    patterns; the ratio is then polished by numeric-gradient ascent with a
    geometric line search, which moves all coordinates together and
    converges where single-coordinate steps zigzag.  ``ratio`` is stacked;
    each batch of probes is one call, scanned in the order a one-by-one
    search would try them.  After a ``+δ`` step is accepted the ``-δ``
    probe, which would return to the start, is not taken.
    """
    val = float(ratio(F[None])[0])
    delta = 0.5
    m, n = F.shape
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            for j in range(n):
                pair = np.array((F, F))
                pair[0, i, j] += delta
                pair[1, i, j] -= delta
                cands = ratio(pair)
                for k in range(2):
                    if cands[k] > val + max(1e-15, 1e-13 * abs(val)):
                        F[i, j] = pair[k, i, j]
                        val = float(cands[k])
                        improved = True
                        break
        if not improved:
            delta *= 0.5
            if delta < 1e-3:
                break
        scale = np.max(np.abs(F))
        if scale > 0:  # the ratio is scale-invariant; keep coordinates O(1)
            F /= scale
            val = float(ratio(F[None])[0])

    etas = np.geomspace(1e-8, 1.0, 22)
    cells = np.arange(m * n)
    rows, cols = np.divmod(cells, n)
    for _ in range(60):
        step = 1e-6 * max(1.0, float(np.max(np.abs(F))))
        # probes (cell, +step) and (cell, -step), cell by cell
        probes = np.broadcast_to(F, (m * n, 2, m, n)).copy()
        probes[cells, 0, rows, cols] += step
        probes[cells, 1, rows, cols] -= step
        pv = ratio(probes.reshape(-1, m, n)).reshape(m, n, 2)
        grad = (pv[:, :, 0] - pv[:, :, 1]) / (2.0 * step)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        direction = grad / gn
        cands = ratio(F + etas[:, None, None] * direction)
        best_eta, best_val = 0.0, val
        for eta, cand in zip(etas, cands):
            if cand > best_val + 1e-15:
                best_eta, best_val = eta, float(cand)
        if best_eta == 0.0:
            # the probes are deterministic, so an unchanged F stalls again
            break
        F += best_eta * direction
        val = best_val
    return val, F


def family_search(ratio: Callable[[np.ndarray], np.ndarray], n: int, *,
                  m_max: int = 6, budget: int = 16,
                  seed=0) -> tuple[float, tuple[np.ndarray, ...], int]:
    """Maximize ``ratio`` over families of at most ``m_max`` vectors.

    ``ratio`` is stacked: it maps families ``(K, m, n)`` to ``(K,)``.
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
        return _polish_family(ratio, F, _SWEEPS)

    results = [run(k) for k in range(budget)]
    best_val = 0.0
    best_F = np.zeros((0, n))
    for val, F in results:
        if val > best_val:
            best_val = val
            best_F = F
    witness = tuple(np.array(row) for row in best_F) if best_val > 0.0 else ()
    return float(best_val), witness, budget
