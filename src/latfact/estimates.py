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
otherwise evaluate one by one to the ratio as one stack: the
central-difference probes of a gradient, the line-search ladder along it,
and the plan of the coordinate sweeps.  A plan holds every ±δ probe left
in the sweep and the renormalised family at its end.  When the last two
completed sweeps accepted the same probes, it assumes the next sweeps
accept them again and chains those sweeps, each accept's probes going on
from the family it produces, up to 8 sweeps in one call.  The scan keeps
the first gain of every stretch and stops at the first that differs from
the plan, so every accept is the one-by-one search's.  Gains are tested
relative to the current value, so scaling the ratio does not move the
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ConstantEstimate", "family_search", "safe_ratio", "seed_list"]

_SWEEPS = 40  # coordinate sweeps per restart before the gradient polish
_MAX_DEPTH = 8  # sweeps one replaying plan covers at most


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


def _coordinate_probes(F: np.ndarray, probes: np.ndarray,
                       step: float) -> np.ndarray:
    """``F`` moved, for each probe ``k``, on cell ``k // 2`` (row-major) by
    ``+step`` when ``k`` is even and by ``-step`` when it is odd."""
    m, n = F.shape
    rows, cols = np.divmod(probes // 2, n)
    out = np.broadcast_to(F, (probes.size, m, n)).copy()
    out[np.arange(probes.size), rows, cols] += np.where(probes % 2, -step, step)
    return out


def _sweep_plan(F: np.ndarray, delta: float, start: int, improved: bool,
                sweeps_left: int, pattern: list[int] | None,
                depth: int) -> list[tuple[int, np.ndarray, np.ndarray, bool]]:
    """Everything the coordinate sweeps evaluate from here if they accept
    the probes of ``pattern`` and no other (none when it is None).

    Probe ``k`` of a sweep moves cell ``k // 2`` by ``+δ`` (``k`` even) or
    ``-δ`` (``k`` odd).  A segment is ``(first, probes, end, replayed)``:
    the probes ``first, first + 1, …`` of one family.  A replayed segment
    stops at a probe of ``pattern``, and the next segment goes on from the
    family that probe produces, past the ``-δ`` probe that would return to
    the start.  The last segment of a sweep runs to its end, and ``end`` is
    the renormalised family ``F / max|F|`` (empty when ``max|F| = 0``, or
    when a sweep without an accept would halve ``δ`` below the stop).  With
    no pattern the plan is the rest of the current sweep; with one it covers
    ``depth`` sweeps, the current one included.  Either way a plan that
    would hold only a sweep's end, after an accept on its last cell, runs on
    through the next sweep.
    """
    m, n = F.shape
    plan = []
    while True:
        for k in pattern or ():
            if k >= start:
                probes = _coordinate_probes(F, np.arange(start, k + 1), delta)
                plan.append((start, probes, np.empty((0, m, n)), True))
                F, start, improved = probes[-1], k + 2 - k % 2, True
        probes = _coordinate_probes(F, np.arange(start, 2 * m * n), delta)
        scale = np.max(np.abs(F))
        halts = not improved and delta * 0.5 < 1e-3
        if halts or scale == 0:
            end = np.empty((0, m, n))
        else:  # the ratio is scale-invariant; keep coordinates O(1)
            F = F / scale
            end = F[None]
        plan.append((start, probes, end, False))
        sweeps_left -= 1
        depth -= 1
        if halts or not sweeps_left or (pattern is None or depth < 1) and (
                len(plan) > 1 or len(probes)):
            return plan
        if not improved:
            delta *= 0.5
        start, improved = 0, False


def _polish_family(ratio: Callable[[np.ndarray], np.ndarray], F: np.ndarray,
                   sweeps: int) -> tuple[float, np.ndarray]:
    """Coordinate ascent plus gradient line search on the flattened family.

    Coordinate sweeps with a shrinking step move the family between support
    patterns; the ratio is then polished by numeric-gradient ascent with a
    geometric line search, which moves all coordinates together and
    converges where single-coordinate steps zigzag.  ``ratio`` is stacked
    and a family's value does not depend on its stack, so each batch of
    probes is one call, scanned in the order a one-by-one search would try
    them, and every accept and value is the one-by-one search's.  After a
    ``+δ`` step is accepted the ``-δ`` probe, which would return to the
    start, is not taken.

    The sweeps plan ahead (see :func:`_sweep_plan`).  When the last two
    completed sweeps accepted the same probes, the plan assumes the next
    sweeps accept them again; it covers ``depth`` sweeps, and ``depth``
    doubles, up to 8, after a plan whose every assumption held, and drops
    to 1 on a miss.  The scan takes the first gain of each segment, since
    the value it is compared with is constant within one.  At the first
    segment whose first gain is not its replayed probe, or that has no gain
    where it assumed one, the plan ends and the search goes on from the
    state that real outcome leaves.
    """
    val = float(ratio(F[None])[0])
    delta, sweep, start, improved = 0.5, 0, 0, False
    accepts, last, pattern, depth = [], None, None, 1
    m, n = F.shape
    while sweep < sweeps and delta >= 1e-3:
        plan = _sweep_plan(F, delta, start, improved, sweeps - sweep,
                           pattern, depth)
        pv = ratio(np.concatenate([b for _, probes, end, _ in plan
                                   for b in (probes, end)]))
        pos = 0
        for first, probes, end, replayed in plan:
            gain = val + 1e-13 * abs(val)
            hit = np.flatnonzero(pv[pos:pos + len(probes)] > gain)
            if hit.size:
                h = int(hit[0])
                F, val = probes[h].copy(), float(pv[pos + h])
                k = first + h
                accepts.append(k)
                start, improved = k + 2 - k % 2, True
                if not replayed or h < len(probes) - 1:
                    break
            elif replayed:  # the replayed probe did not gain
                start = first + len(probes)
                break
            pos += len(probes)
            if replayed:
                continue
            if not improved:
                delta *= 0.5
            sweep, start, improved = sweep + 1, 0, False
            pattern = accepts if accepts == last else None
            accepts, last = [], accepts
            if len(end):
                F, val = end[0], float(pv[pos])
                pos += 1
        else:  # every assumption held
            depth = min(2 * depth, _MAX_DEPTH)
            continue
        depth = 1

    etas = np.geomspace(1e-8, 1.0, 22)
    for _ in range(60):
        step = 1e-6 * max(1.0, float(np.max(np.abs(F))))
        pv = ratio(_coordinate_probes(F, np.arange(2 * m * n), step)
                   ).reshape(m, n, 2)
        grad = (pv[:, :, 0] - pv[:, :, 1]) / (2.0 * step)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        direction = grad / gn
        cands = ratio(F + etas[:, None, None] * direction)
        best_eta, best_val = 0.0, val
        for eta, cand in zip(etas, cands):
            if cand > best_val + 1e-15 * abs(val):
                best_eta, best_val = eta, float(cand)
        if best_eta == 0.0:
            # the probes are deterministic, so an unchanged F stalls again
            break
        F += best_eta * direction
        val = best_val
    return val, F


def family_search(ratio: Callable[[np.ndarray], np.ndarray], n: int, *,
                  m_max: int = 6, budget: int = 16,
                  seed=0) -> tuple[float, tuple[np.ndarray, ...]]:
    """Maximize ``ratio`` over families of at most ``m_max`` vectors.

    ``ratio`` is stacked: it maps families ``(K, m, n)`` to ``(K,)``.
    Returns ``(value, witness_family)``.  ``budget`` counts
    independent restarts; restart ``k`` uses its own child seed, so a longer
    budget can only extend the list of candidates (monotonicity), and ties
    keep the first-found family (determinism).
    """
    base = seed_list(seed)

    def run(k: int) -> tuple[float, np.ndarray]:
        rng = np.random.default_rng(base + [k])
        m = (k % m_max) + 1
        F = _initial_family(rng, m, n, k % 3)
        return _polish_family(ratio, F, _SWEEPS)

    results = [run(k) for k in range(int(budget))]
    best_val = 0.0
    best_F = np.zeros((0, n))
    for val, F in results:
        if val > best_val:
            best_val = val
            best_F = F
    witness = tuple(np.array(row) for row in best_F) if best_val > 0.0 else ()
    return float(best_val), witness
