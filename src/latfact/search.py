"""Batched sign-pattern and projected-ascent searches on norm spheres.

The nonconvex suprema in this package all have the same shape: signs only
matter through the operator image, while the lattice side depends on
absolute values, so the search enumerates all 2^(n-1) sign patterns (n is
at most ``spaces.MAX_ATOMS``) and ascends over nonnegative magnitudes on a
unit sphere.  Batches put restarts in rows so the whole search is a
handful of dense numpy ops.

:func:`projected_ascent` is the one line-searched sphere ascent of the
package.  It runs ``‖Tf‖`` (the objective ``constants._image_norm``) on
two spheres: the domain's, for ``constants.operator_norm_estimate``, and
the mixture's, for ``factorization.violation_oracle``, the one search for
the extension norm (``factorization.extension_norm_estimate`` is that
search at ``C = 0``).  It also runs the polish of
``constants._curved_dual_sup`` on the hard side ``s > r`` only (ROADMAP
item 2; on ``s <= r`` a certified power-and-Newton route replaces it), and
the linear suprema of ``spaces.linear_sup_over_ball``, the audit of the
closed Köthe duals.
Every caller knows the gradient of its sphere's norm, which the ascent
projects out of its step.  It iterates only live rows: a row whose line
search finds no gain is never recomputed.  The violation oracle ascends
with ``keep_signs``, so entries stop at zero and its rows can settle on
the faces where the seminorm's kink at ``p = 1`` puts the maximum; it
returns the best ascended row of every sign pattern, one cut each for the
Kelley round that called it.  ``constants._hard_dual_sup`` passes a
stack of problems, one per family, so a stack of families is one ascent.
On weighted ``L^1``, and on weighted ``L^2`` into a Euclidean target,
the maximiser of ``‖Tf‖`` is known in closed form
(``constants._norm_maximisers``): the operator norm starts its ascent
there, and the violation oracle, on a mixture that collapses to such a
space, returns it and runs no ascent.  Elsewhere both start from
:func:`signed_starts`, which gives each distinct sign-pattern start once
(a pattern times an indicator is only ``±e_i``); the oracle adds every
2-support row ``e_i ± e_j``, since its maximisers often lie on sparse
faces.  :func:`unit_rows` is the one sphere normaliser.
Where a step lands on the best point of a linearisation in closed form,
no line search is needed: :func:`fixed_point_ascent` iterates such a step
under the same gain rule, and runs the weak-q supremum of
``constants._weak_q``, whose convex value the Hölder step never lowers
(Boyd's power method).  It ends each problem of a stack once that
problem's best row stops gaining: the trailing starts it would otherwise
keep stepping climb toward lower maxima, and on a seeded weak-q sweep none
passed the frozen leader by more than 1.5e-15 relative.
``constants.brute_force_family_sup`` keeps its own ascent and normaliser:
it is the independent oracle of acceptance criterion 1, against which the
duality reduction is checked.  ``estimates._polish_family`` still runs its
own finite-difference line search over whole families; it evaluates each
batch of gradient probes, and each coordinate-sweep plan, up to 8 sweeps
when the sweeps repeat, as one stacked ratio call.
"""

from __future__ import annotations

import itertools

import numpy as np

from .estimates import seed_list

__all__ = ["sign_patterns", "signed_starts", "projected_ascent",
           "fixed_point_ascent", "unit_rows"]

# step ladder of the line search along the unit ascent direction
_ETAS = np.geomspace(1e-10, 1.0, 18)


def sign_patterns(n: int) -> np.ndarray:
    """All 2^(n-1) +-1 patterns led by +1: every sign pattern up to a flip."""
    tails = itertools.product((1.0, -1.0), repeat=n - 1)
    return np.array([(1.0, *tail) for tail in tails])


def signed_starts(n: int, restarts: int, seed) -> np.ndarray:
    """Each distinct sign pattern times canonical start, once, as rows.

    The canonical starts are the uniform vector, every indicator (for
    ``n > 1``; at ``n = 1`` the indicator is the uniform vector), and
    seeded nonnegative noise that tops them up to ``restarts`` rows when
    that is larger.  A pattern times a full-support start is a row of its
    own, but a pattern times the indicator ``e_i`` is ``±e_i``: only the
    first pattern with each sign at ``i`` gives a row.  Rows keep the
    pattern-major order of the full product, so a search that takes the
    first of equal values picks the same row from either.
    """
    rng = np.random.default_rng([61, *seed_list(seed)])
    rows = [np.ones(n)]
    if n > 1:
        rows.extend(np.eye(n))
    while len(rows) < restarts:
        rows.append(np.abs(rng.normal(size=n)))
    patterns = sign_patterns(n)
    keep = np.ones((len(patterns), len(rows)), dtype=bool)
    if n > 1:
        neg = patterns < 0.0
        first = np.zeros_like(neg)
        for side in (neg, ~neg):
            has = side.any(axis=0)
            first[side.argmax(axis=0)[has], np.flatnonzero(has)] = True
        keep[:, 1:n + 1] = first
    return (patterns[:, None, :] * np.vstack(rows)[None, :, :])[keep]


def unit_rows(A: np.ndarray, norm_rows) -> np.ndarray:
    """Scale each row of ``A`` onto the unit sphere of ``norm_rows``.

    ``A`` may carry leading stack axes, ``(..., n)``; ``norm_rows`` maps it
    to the norms ``(...)``.  A row of norm zero first becomes the all-ones
    row, so every returned row lies on the sphere.
    """
    norms = norm_rows(A)
    bad = norms <= 0.0
    if bad.any():
        A = np.array(A, dtype=float)
        A[bad] = 1.0
        norms = norm_rows(A)
    return A / norms[..., None]


def projected_ascent(value_rows, grad_rows, normalize_rows, A0: np.ndarray, *,
                     iters: int, radial_rows, nonneg: bool = True,
                     keep_signs: bool = False
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise gradient ascent with a geometric line search on the sphere.

    Each iteration evaluates every live row at a ladder of step sizes along
    its tangentially projected unit gradient and keeps the best
    improvement, so progress per iteration is scale-free and rows
    cannot crawl.  A step counts as a gain only above ``1e-15`` times the
    largest starting value, so rescaling the objective rescales nothing
    else.  The callbacks are row-wise and deterministic, so a row whose
    line search finds no gain would find none again: it stops being live
    and is never recomputed.  Monotone per row, hence a certified lower
    bound per start; deterministic.  ``radial_rows`` returns the row-wise
    gradient of the normalization, which is projected out of the ascent
    direction.  With ``keep_signs`` (and ``nonneg`` off) an
    entry that a step would carry across zero stops at zero, so a row can
    reach the faces ``f_i = 0`` where a kink of the objective puts its
    maximum; a zero entry may leave its face either way.

    ``A0`` is ``(R, n)``, or a stack ``(K, R, n)`` of independent problems
    whose callbacks take stacks ``(K, L, n)`` and return ``(K, L)`` values
    or ``(K, L, n)`` rows; each problem then gets the gain threshold of its
    own starting values, and the result is ``(K, R, n)`` rows with
    ``(K, R)`` values.
    """
    stacked = A0.ndim == 3

    def call(fn, B: np.ndarray) -> np.ndarray:
        return fn(B) if stacked else fn(B[0])[None]

    A = normalize_rows(np.maximum(A0, 0.0) if nonneg else A0)
    val = value_rows(A)
    if not stacked:
        A, val = A[None], val[None]
    K, R, n = A.shape
    gain = 1e-15 * np.abs(val).max(axis=1, initial=0.0)
    live = np.ones((K, R), dtype=bool)
    stack = np.arange(K)[:, None]
    for _ in range(iters):
        count = live.sum(axis=1)
        L = int(count.max())
        if L == 0:
            break
        # each problem's live rows first, in order; slots past its count
        # hold dead rows, evaluated only to keep the stack rectangular
        order = np.argsort(~live, axis=1, kind="stable")[:, :L]
        slot = np.arange(L) < count[:, None]
        B = A[stack, order]
        flat = B.reshape(-1, n)
        G = call(grad_rows, B).reshape(-1, n)
        U = call(radial_rows, B).reshape(-1, n)
        un2 = np.einsum("ij,ij->i", U, U)
        un2[un2 == 0.0] = 1.0
        G = G - (np.einsum("ij,ij->i", G, U) / un2)[:, None] * U
        gn = np.sqrt(np.einsum("ij,ij->i", G, G))
        gn[gn == 0.0] = 1.0
        cand = flat[:, None, :] + _ETAS[:, None] * (G / gn[:, None])[:, None, :]
        if nonneg:
            np.maximum(cand, 0.0, out=cand)
        elif keep_signs:
            cand[cand * flat[:, None, :] < 0.0] = 0.0
        cand = call(normalize_rows, cand.reshape(K, -1, n))
        cval = call(value_rows, cand).reshape(K, L, _ETAS.size)
        pick = cval.argmax(axis=2)
        cbest = cval.max(axis=2)
        better = (cbest > val[stack, order] + gain[:, None]) & slot
        ks, js = np.nonzero(better)
        rows = order[ks, js]
        A[ks, rows] = cand.reshape(K, L, _ETAS.size, n)[ks, js, pick[ks, js]]
        val[ks, rows] = cbest[ks, js]
        live[:] = False
        live[ks, rows] = True
    if not stacked:
        return A[0], val[0]
    return A, val


def fixed_point_ascent(value_rows, step_rows, A0: np.ndarray, *,
                       iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise iteration ``a <- step(a)`` that keeps only gains.

    ``A0`` holds rows on a sphere, ``(R, n)`` or a stack ``(K, R, n)``;
    ``step_rows`` maps rows to rows on the same sphere and ``value_rows``
    maps them to ``(R,)`` or ``(K, R)`` values.  The gain rule is that of
    :func:`projected_ascent`: a row takes its step only when its value
    gains more than ``1e-15`` times the largest starting value of its
    problem, and a row that does not gain is frozen.  A problem none of
    whose rows at its largest value gains freezes all its rows, and the
    loop ends when no row is live, or after ``iters`` steps.  While it
    runs, every row is computed at every step, so the products a problem
    meets have the same shapes whatever problems are stacked beside it;
    the freeze is decided per problem, so a problem's values do not depend
    on the problems stacked beside it either.  Monotone per row, hence a
    certified lower bound per start; deterministic.
    """
    A = np.array(A0, dtype=float)
    val = value_rows(A)
    gain = 1e-15 * np.abs(val).max(axis=-1, initial=0.0)[..., None]
    live = np.ones(val.shape, dtype=bool)
    for _ in range(iters):
        B = step_rows(A)
        bval = value_rows(B)
        live &= bval > val + gain
        A[live] = B[live]
        val[live] = bval[live]
        # a problem is done once its best row has stopped gaining
        live &= (live & (val >= val.max(axis=-1, keepdims=True))).any(
            axis=-1, keepdims=True)
        if not live.any():
            break
    return A, val
