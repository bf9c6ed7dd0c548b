"""Deterministic fixtures: random spaces, operators and mixture instances.

Everything here is a pure function of its seed, so regression suites and
generated instance files reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from .constants import EuclideanNorm, LinearOperator, identity_operator
from .estimates import seed_list
from .spaces import ExponentTriple, MeasureSpace, WeightedLebesgue

__all__ = [
    "LEMMA_PAIRS",
    "random_lebesgue_space",
    "lemma_instances",
    "operator_suite",
    "random_operator",
    "random_partition_doc",
]

LEMMA_PAIRS = ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (2.0, 3.0))


def random_lebesgue_space(n: int, seed,
                          s: float | None = None) -> WeightedLebesgue:
    """Seeded weights in [0.5, 2]; ``s`` drawn from [1, 1.8) when not given.

    Half the draws sit exactly at ``s = 1``.
    """
    rng = np.random.default_rng([103, *seed_list(seed)])
    space = MeasureSpace(weights=rng.uniform(0.5, 2.0, size=n))
    if s is None:
        s = 1.0 if rng.random() < 0.5 else rng.uniform(1.0, 1.8)
    return WeightedLebesgue(space=space, s=float(s))


def lemma_instance(index: int, seed=0, n_max: int = 4, m_max: int = 3,
                   pairs=LEMMA_PAIRS):
    """One seeded scaled-family equality instance: ``(X, e, F)``.

    The exponent pair cycles through ``pairs``; the domain exponent ``s``
    is drawn at or above ``p`` (half the draws sit exactly at ``s = p``,
    where the dual ball is a cube).
    """
    rng = np.random.default_rng([107, *seed_list(seed), index])
    p, q = pairs[index % len(pairs)]
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    space = MeasureSpace(weights=rng.uniform(0.5, 2.0, size=n))
    s = p if rng.random() < 0.5 else float(p * rng.uniform(1.0, 1.8))
    X = WeightedLebesgue(space=space, s=s)
    F = rng.normal(size=(m, n))
    if not np.any(F):
        F[0, 0] = 1.0
    return X, ExponentTriple(p=p, q=q), F


def lemma_instances(count: int, seed=0, n_max: int = 4, m_max: int = 3,
                    pairs=LEMMA_PAIRS):
    return [lemma_instance(i, seed=seed, n_max=n_max, m_max=m_max, pairs=pairs)
            for i in range(count)]


def rank_one_functional(X: WeightedLebesgue) -> LinearOperator:
    """The integration functional ``f -> ∫ f dμ`` as a 1-row operator."""
    return LinearOperator(matrix=X.space.weights[None, :], domain=X,
                          codomain=EuclideanNorm(dim=1))


def random_operator(n: int, d: int, seed, s: float = 1.0) -> LinearOperator:
    rng = np.random.default_rng([109, *seed_list(seed)])
    space = MeasureSpace(weights=rng.uniform(0.5, 2.0, size=n))
    X = WeightedLebesgue(space=space, s=s)
    matrix = rng.normal(size=(d, n))
    return LinearOperator(matrix=matrix, domain=X,
                          codomain=EuclideanNorm(dim=d))


def operator_suite(e: ExponentTriple, seed=0, random_count: int = 20,
                   n: int = 3) -> list[tuple[str, LinearOperator]]:
    """Named regression operators: identity, integration, seeded randoms.

    Domains are p-convex with constant one (``s = p``).
    """
    ones = MeasureSpace(weights=np.ones(n))
    X = WeightedLebesgue(space=ones, s=e.p)
    suite: list[tuple[str, LinearOperator]] = [
        ("identity", identity_operator(X)),
        ("rank-one", rank_one_functional(X)),
    ]
    for i in range(random_count):
        suite.append((f"random-{i}", random_operator(n, n, [*seed_list(seed), i],
                                                     s=e.p)))
    return suite


def random_partition_doc(n: int, seed) -> dict:
    """Blocks, masses and a weight for a saturating partition mixture."""
    rng = np.random.default_rng([113, *seed_list(seed)])
    order = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, max(1, n // 2)),
                             replace=False).tolist()) if n > 1 else []
    blocks, prev = [], 0
    for cut in cuts + [n]:
        blocks.append(sorted(int(i) for i in order[prev:cut]))
        prev = cut
    alpha = rng.uniform(0.2, 1.0, size=len(blocks))
    alpha = alpha / alpha.sum()
    return {
        "blocks": blocks,
        "alpha": [float(a) for a in alpha],
        "g": [1.0] * n,
    }
