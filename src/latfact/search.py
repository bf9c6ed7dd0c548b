"""Batched sign-pattern and projected-ascent searches on norm spheres.

The nonconvex suprema in this package all have the same shape: signs only
matter through the operator image, while the lattice side depends on
absolute values, so the search enumerates sign patterns (2^(n-1) for small
n) and ascends over nonnegative magnitudes on a unit sphere.  Batches put
restarts in rows so the whole search is a handful of dense numpy ops.

:func:`projected_ascent` is the one sphere ascent of the package.  It runs
the image ratio of ``constants.operator_norm_estimate``, the violation of
``factorization.violation_oracle``, the extended norm of
``factorization.extension_norm_estimate``, the dual-sphere suprema of
``constants.weak_q_norm`` and the polish of ``constants._curved_dual_sup``,
and the linear suprema of ``spaces._linear_sup_over_ball`` behind the
numeric Köthe duals.  :func:`unit_rows` is the one sphere normaliser.
``constants.brute_force_family_sup`` keeps its own ascent and normaliser:
it is the independent oracle of acceptance criterion 1, against which the
duality reduction is checked.  ``estimates._polish_family`` still runs its
own finite-difference line search over whole families.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["sign_patterns", "projected_ascent", "sphere_starts", "unit_rows"]

# step ladder of the line search along the unit ascent direction
_ETAS = np.geomspace(1e-10, 1.0, 18)


def sign_patterns(n: int, cap: int = 12, limit: int | None = None,
                  seed=0) -> np.ndarray:
    """All +-1 patterns with first coordinate +1 (signs modulo global flip).

    Enumerated in full for ``n <= cap``; beyond that a seeded sample of
    ``limit`` (default 256) distinct patterns is returned.
    """
    if n <= cap:
        tails = itertools.product((1.0, -1.0), repeat=n - 1)
        return np.array([(1.0, *tail) for tail in tails])
    rng = np.random.default_rng([59, *np.atleast_1d(seed).astype(int).tolist()])
    limit = limit or 256
    patterns = {tuple([1.0] + list(row)) for row in
                np.where(rng.random(size=(4 * limit, n - 1)) < 0.5, 1.0, -1.0)}
    return np.array(sorted(patterns))[:limit]


def sphere_starts(n: int, restarts: int, seed) -> np.ndarray:
    """Canonical nonnegative starts (uniform, indicators) plus seeded noise.

    Always includes the uniform vector and every indicator; random rows top
    the list up to ``restarts`` when that is larger.
    """
    rng = np.random.default_rng([61, *np.atleast_1d(seed).astype(int).tolist()])
    rows = [np.ones(n)]
    rows.extend(np.eye(n))
    while len(rows) < restarts:
        rows.append(np.abs(rng.normal(size=n)))
    return np.vstack(rows)


def unit_rows(A: np.ndarray, norm_rows) -> np.ndarray:
    """Scale each row of ``A`` onto the unit sphere of ``norm_rows``.

    A row of norm zero first becomes the all-ones row, so every returned
    row lies on the sphere.
    """
    norms = norm_rows(A)
    bad = norms <= 0.0
    if bad.any():
        A = np.array(A, dtype=float)
        A[bad] = 1.0
        norms = norm_rows(A)
    return A / norms[:, None]


def projected_ascent(value_rows, grad_rows, normalize_rows, A0: np.ndarray, *,
                     iters: int = 40, nonneg: bool = True,
                     radial_rows=None) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise gradient ascent with a geometric line search on the sphere.

    Each iteration evaluates every row at a ladder of step sizes along its
    (optionally tangentially projected) unit gradient and keeps the best
    improvement, so progress per iteration is scale-free and rows cannot
    crawl.  A step counts as a gain only above ``1e-15`` times the largest
    starting value, so rescaling the objective rescales nothing else.
    Monotone per row, hence a certified lower bound per start;
    deterministic.  ``radial_rows``, when given, returns the row-wise
    gradient of the normalization, which is projected out of the ascent
    direction.
    """
    A = normalize_rows(np.maximum(A0, 0.0) if nonneg else A0)
    R, n = A.shape
    val = value_rows(A)
    gain = 1e-15 * float(np.abs(val).max(initial=0.0))
    stall = np.zeros(R, dtype=int)
    rows = np.arange(R)
    for _ in range(iters):
        G = grad_rows(A)
        if radial_rows is not None:
            U = radial_rows(A)
            un2 = np.einsum("ij,ij->i", U, U)
            un2[un2 == 0.0] = 1.0
            G = G - (np.einsum("ij,ij->i", G, U) / un2)[:, None] * U
        gn = np.sqrt(np.einsum("ij,ij->i", G, G))
        gn[gn == 0.0] = 1.0
        cand = (A[:, None, :] + _ETAS[:, None] * (G / gn[:, None])[:, None, :]
                ).reshape(-1, n)
        if nonneg:
            np.maximum(cand, 0.0, out=cand)
        cand = normalize_rows(cand)
        cval = value_rows(cand).reshape(R, _ETAS.size)
        pick = cval.argmax(axis=1)
        cbest = cval[rows, pick]
        better = cbest > val + gain
        if better.any():
            A[better] = cand.reshape(R, _ETAS.size, n)[better, pick[better]]
            val[better] = cbest[better]
        stall = np.where(better, 0, stall + 1)
        if stall.min() >= 3:
            break
    return A, val
