"""An independent dense-grid reference for domination constants at n = 2.

Plain numpy and scipy's HiGHS LP, with no ``latfact`` code, so that a
defect of the library cannot hide in its own check.  On a two-atom
weighted ``L^s(μ)`` domain every unit sphere is a curve.  The least
constant ``C`` with

    ‖A f‖  <=  C (sum_k ξ_k (∫ |f|^p h_k dμ)^{q/p})^{1/q}    for all f,

over probability mixtures ``ξ`` of weights ``h_k`` on the positive unit
sphere of the Köthe dual of ``X_p``, is then one LP on angle grids.  The
rows are domain-sphere functions ``f(θ) ∝ (cos θ, sin θ)``, ``θ`` in
``[0, π)`` (``f`` and ``-f`` read the same); the columns are dual-sphere
weights ``h(φ) ∝ (cos φ, sin φ)``, ``φ`` in ``[0, π/2]``; both grids take
the same angle step.  With ``b_j = ‖A f_j‖^q`` and
``Φ[j, k] = (∫ |f_j|^p h_k dμ)^{q/p}`` the constant is
``C^{-q} = max_ξ min_j (Φ ξ)_j / b_j``.

Neither grid is exact: missing rows lower the constant and missing columns
raise it.  :func:`domination_reference` reads the grid error off the
change of the constant when the angle step halves.  The target is
Euclidean; any exponents ``1 <= p <= q`` are allowed.

:func:`weak_q_reference` gives the weak-q norm of a family, the
denominator of the q-summing ratio, as the largest value on an angle grid
of the unit circle of ``L^{s'}(μ)``, the dual of ``L^s(μ)``, and
:func:`operator_norm_reference` gives ``‖A‖`` as the largest ``‖A f‖`` on
an angle grid of the unit circle of ``L^s(μ)``.  Their grid errors are
certified by :func:`chord_factor`.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


def lebesgue_norm_rows(F: np.ndarray, s: float, mu: np.ndarray) -> np.ndarray:
    """``(sum |f|^s μ)^{1/s}`` of each row."""
    return (np.abs(F) ** s @ mu) ** (1.0 / s)


def dual_norm_rows(H: np.ndarray, s: float, p: float,
                   mu: np.ndarray) -> np.ndarray:
    """Each row's norm in the Köthe dual of ``L^{s/p}(μ)``, the p-th power of L^s."""
    sigma = s / p
    if sigma == 1.0:
        return np.abs(H).max(axis=1)
    return lebesgue_norm_rows(H, sigma / (sigma - 1.0), mu)


def circle_rows(angles: np.ndarray, norm_rows) -> np.ndarray:
    """``(cos a, sin a)`` for each angle, scaled to the unit sphere of a norm."""
    F = np.column_stack([np.cos(angles), np.sin(angles)])
    F[np.abs(F) < 1e-15] = 0.0  # cos(π/2) is 6e-17: keep the axes exact
    return F / norm_rows(F)[:, None]


def domination_lp(A, mu, s: float, p: float, q: float, steps: int) -> float:
    """The grid constant with ``steps`` angle steps per quarter circle."""
    A = np.asarray(A, dtype=float)
    mu = np.asarray(mu, dtype=float)
    step = 0.5 * np.pi / steps
    F = circle_rows(step * np.arange(2 * steps),
                    lambda F: lebesgue_norm_rows(F, s, mu))
    H = circle_rows(step * np.arange(steps + 1),
                    lambda H: dual_norm_rows(H, s, p, mu))
    b = np.linalg.norm(F @ A.T, axis=1) ** q
    seen = b > 0.0
    R = ((np.abs(F[seen]) ** p * mu) @ H.T) ** (q / p) / b[seen, None]
    kappa = R.max()
    # variables (xi, t): maximise t subject to t <= (R xi)_j, sum xi = 1
    K = len(H)
    res = linprog(np.append(np.zeros(K), -1.0),
                  A_ub=np.hstack([-R / kappa, np.ones((len(R), 1))]),
                  b_ub=np.zeros(len(R)),
                  A_eq=np.append(np.ones(K), 0.0)[None, :], b_eq=[1.0],
                  bounds=[(0.0, None)] * K + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float((res.x[-1] * kappa) ** (-1.0 / q))


def domination_reference(A, mu, s: float, p: float, q: float,
                         steps: int = 200) -> tuple[float, float]:
    """``(C, err)``: the constant at ``2 * steps`` steps and its grid error.

    ``err`` is how far the constant moved from ``steps`` steps to twice
    as many.
    """
    coarse = domination_lp(A, mu, s, p, q, steps)
    fine = domination_lp(A, mu, s, p, q, 2 * steps)
    return fine, abs(fine - coarse)


def weak_q_grid(F, mu, s: float, q: float, steps: int) -> float:
    """``max (sum_i |∫ f_i h dμ|^q)^{1/q}`` over ``h`` on a circle grid.

    The rows ``h`` lie on the unit circle of ``L^{s'}(μ)``, ``s' = s/(s-1)``,
    ``steps`` angle steps per quarter circle over ``[0, π)``: ``h`` and
    ``-h`` give the same value.  Needs ``s > 1``.
    """
    F = np.asarray(F, dtype=float)
    mu = np.asarray(mu, dtype=float)
    step = 0.5 * np.pi / steps
    H = circle_rows(step * np.arange(2 * steps),
                    lambda H: lebesgue_norm_rows(H, s / (s - 1.0), mu))
    U = H @ (F * mu).T
    return float(((np.abs(U) ** q).sum(axis=1) ** (1.0 / q)).max())


def weak_q_reference(F, mu, s: float, q: float,
                     steps: int = 8000) -> tuple[float, float]:
    """``(value, err)``: the grid value at ``steps`` steps and its error.

    Every grid value is attained, so the value is a lower bound on the
    supremum.  The value is a seminorm of ``h``, so :func:`chord_factor`
    of ``L^{s'}(μ)`` at the same step bounds how far the supremum can
    exceed it: ``err`` is the value times that factor minus one.  A halved
    step gives no such bound, since the finer grid often keeps the same
    maximum and the change reads zero.
    """
    value = weak_q_grid(F, mu, s, q, steps)
    return value, value * (chord_factor(s / (s - 1.0), mu, steps) - 1.0)


def operator_norm_reference(A, mu, s: float,
                            steps: int = 4000) -> tuple[float, float]:
    """``(value, err)``: the largest ``‖A f‖`` over the rows of
    :func:`domination_lp` at ``steps`` steps, and its grid error.

    Every grid value is attained, so the value is a lower bound on ``‖A‖``
    from ``L^s(μ)`` into the Euclidean target; :func:`chord_factor` bounds
    how far ``‖A‖`` can exceed it, and ``err`` is the value times that
    factor minus one.
    """
    A = np.asarray(A, dtype=float)
    mu = np.asarray(mu, dtype=float)
    step = 0.5 * np.pi / steps
    F = circle_rows(step * np.arange(2 * steps),
                    lambda F: lebesgue_norm_rows(F, s, mu))
    value = float(np.linalg.norm(F @ A.T, axis=1).max())
    return value, value * (chord_factor(s, mu, steps) - 1.0)


def chord_factor(s: float, mu, steps: int) -> float:
    """Bound on how far ``sup ‖A f‖ / ‖f‖_s`` can exceed its grid maximum.

    The rows are those of :func:`domination_lp` at ``steps`` steps, closed
    up by ``-f(0)``.  Every ``f`` between two adjacent unit rows ``u`` and
    ``v`` is ``a u + b v`` with ``a, b >= 0``, so
    ``‖A f‖ <= (a + b) max(‖A u‖, ‖A v‖)``, while the norming functional
    ``φ`` of the chord's midpoint gives ``‖f‖_s >= φ(f) >=
    (a + b) min(φ(u), φ(v))``.  The factor is the largest
    ``1 / min(φ(u), φ(v))`` over the chords; it is one on ``L^1``, whose
    sphere is flat between adjacent rows of a quadrant.
    """
    mu = np.asarray(mu, dtype=float)
    step = 0.5 * np.pi / steps
    F = circle_rows(step * np.arange(2 * steps + 1),
                    lambda F: lebesgue_norm_rows(F, s, mu))
    M = 0.5 * (F[:-1] + F[1:])
    phi = (mu * np.sign(M) * np.abs(M) ** (s - 1.0)
           / lebesgue_norm_rows(M, s, mu)[:, None] ** (s - 1.0))
    low = np.minimum((phi * F[:-1]).sum(axis=1), (phi * F[1:]).sum(axis=1))
    return float(1.0 / low.min())

