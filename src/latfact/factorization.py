"""Constructive domination certificates and weighted-norm factorizations.

Given an operator ``T`` on a p-convex lattice-normed domain and exponents
``p <= q``, the solver searches for a probability mixture of positive
dual-ball weights and a constant ``C`` such that

    ‖T f‖  <=  C * ( sum_k mass_k (∫ |f|^p h_k dμ)^{q/p} )^{1/q}    for all f.

With witness functions ``f_j``, ``b_j = ‖T f_j‖^q`` and a dual-ball grid
of weights ``h_k``, the smallest constant any grid mixture achieves is
``C^q = 1/t`` with ``t = max_xi min_j (Phi xi)_j / b_j`` and
``Phi[j, k] = (∫ |f_j|^p h_k dμ)^{q/p}``: one dense LP (Dinkelbach's
linearisation of the fractional program).  The solver wraps it in a
Kelley cutting-plane loop on both sides: the grid starts from the uniform
dual weight alone, the attainment weight of the LP's adversarial witness
combination enriches it while it beats the LP value, and a violation
oracle hunts for functions that break the mixture at ``C (1 + tol)``.  An
oracle round adds one cut per sign pattern: the best ascended function of
every pattern that violates the mixture becomes a witness row in the same
round, so one round cuts off every violating region the ascent reached.
Neither a starting constant nor grid columns are guessed; the loop builds
the support of the mixture and returns the grid-minimal constant.
Certificates store the mixture, the constant, the relative residual at
termination and every witness generated, so they can be replayed and
independently re-verified on fresh samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (LinearOperator, attainment_point, identity_operator,
                        operator_norm_estimate)
from .estimates import seed_list
from .search import projected_ascent, signed_starts, unit_rows
from .simplex import solve_max_min
from .snorm import DiscreteRadonMeasure, SNormSpace
from .spaces import (ExponentTriple, LatticeNorm, dual_norm_of_pth_power,
                     pairings)

__all__ = [
    "SolverConvergenceError",
    "DominationCertificate",
    "default_domination_grid",
    "violation_oracle",
    "find_domination_measure",
    "verify_domination",
    "collapse_weight",
    "extension_norm_estimate",
    "kakutani_equivalence",
]

# with one cut per violating sign pattern a round, curved q > p solves take
# a few hundred LP solves at n <= 6 and about 1100 at n = 8
_MAX_LP_SOLVES = 2000


class SolverConvergenceError(RuntimeError):
    """The cutting-plane solve ended without a certified mixture."""


@dataclass(frozen=True, eq=False)
class DominationCertificate:
    """A mixture, a constant, and the evidence they dominate the operator.

    ``residual`` is relative: the largest value of
    ``(‖Tf‖^q - C^q s(f)^q) / C^q`` found by the oracle at termination
    (at most the solve tolerance when ``converged``).  ``witnesses`` are
    the unit-sphere functions generated during the solve, replayable
    against the stored mixture.  ``lp_values`` records the LP value
    ``t = C_lp^{-q}`` after each solve: it never rises when a witness is
    added and rises when the grid is enriched.
    """

    xi: DiscreteRadonMeasure
    C: float
    residual: float
    witnesses: tuple[np.ndarray, ...]
    iterations: int
    converged: bool
    exponents: ExponentTriple
    lp_values: tuple[float, ...] = ()

    def snorm_space(self, X: LatticeNorm) -> SNormSpace:
        return SNormSpace(base=X, e=self.exponents, xi=self.xi)

    def to_jsonable(self) -> dict:
        return {
            "xi": {
                "atoms": [{"h": [float(x) for x in h], "mass": float(m)}
                          for h, m in zip(self.xi.atoms, self.xi.masses)],
                "normalized": bool(self.xi.normalized),
            },
            "C": float(self.C),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "p": self.exponents.p,
            "q": self.exponents.q,
            "witnesses": [[float(x) for x in w] for w in self.witnesses],
        }


def default_domination_grid(X: LatticeNorm, e: ExponentTriple) -> np.ndarray:
    """The starting grid: one row, the uniform dual-sphere weight ``1 / ‖1‖``.

    It is strictly positive, so every mixture that holds it is saturated.
    The solve's attainment points add every other row.
    """
    ones = np.ones(X.n)
    return (ones / dual_norm_of_pth_power(X, e.p, ones))[None, :]


def violation_oracle(T: LinearOperator, S: SNormSpace, C: float,
                     budget: int = 16, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Most violating function of each sign pattern at constant C.

    Maximizes ``‖Tf‖^q - C^q s(f)^q`` over the unit sphere of the domain
    norm (the objective is q-homogeneous, so the sign of the supremum on
    the sphere decides feasibility).  Signs enter only through ``Tf``, so
    the search ascends from every sign pattern times the given number of
    restarts.  A step stops an entry at zero instead of changing its sign,
    and at ``p = 1``, where ``s(f)^q`` has a kink at ``f_i = 0``, a zero
    entry leaves its face only where ``‖Tf‖^q`` pulls harder than the
    seminorm's one-sided slope: the maximum often lies on such a face.

    Returns ``(F, values)``: the best ascended row of each sign pattern of
    the results, best first (ties keep the ascent's row order), so
    ``F[0]`` is the most violating function found.  The objective is even
    in f, so a pattern and its negative are one: each row is compared
    after the flip that makes its first nonzero entry positive.  A
    non-positive ``values[0]`` means no violation was found.
    """
    X = T.domain
    q = S.e.q
    Cq = float(C) ** q
    A0 = signed_starts(T.n, max(4, int(budget)), seed)

    def value_rows(F: np.ndarray) -> np.ndarray:
        U = F @ T.matrix.T
        return T.codomain_norm_rows(U) ** q - Cq * S.seminorm_rows(F) ** q

    def grad_rows(F: np.ndarray) -> np.ndarray:
        U = F @ T.matrix.T
        img = T.codomain_norm_rows(U)
        img_pow = np.where(img > 0.0, img ** (q - 1.0), 0.0)
        g1 = q * img_pow[:, None] * (T.codomain.norm_grad_rows(U) @ T.matrix)
        slopes = Cq * S.q_slope_rows(F)
        G = g1 - np.sign(F) * np.abs(F) ** (S.e.p - 1.0) * slopes
        if S.e.p == 1.0:
            # s(f)^q has a kink where f_i = 0: the entry leaves zero only
            # where the image gradient beats the seminorm's slope
            zero = F == 0.0
            G[zero] = np.sign(g1[zero]) * np.maximum(
                np.abs(g1[zero]) - slopes[zero], 0.0)
        return G

    A, vals = projected_ascent(value_rows, grad_rows,
                               lambda B: unit_rows(B, X.norm_rows), A0,
                               iters=50, nonneg=False, keep_signs=True,
                               radial_rows=X.norm_grad_rows)
    order = np.argsort(-vals, kind="stable")
    signs = np.sign(A[order])
    lead = signs[np.arange(len(signs)), np.argmax(signs != 0.0, axis=1)]
    first = {}
    for row, pattern in zip(order, (signs * lead[:, None]).astype(np.int8)):
        first.setdefault(pattern.tobytes(), row)
    keep = list(first.values())
    return A[keep], vals[keep]


def find_domination_measure(T: LinearOperator, e: ExponentTriple,
                            tol: float = 1e-6, budget: int = 40,
                            seed=0) -> DominationCertificate:
    """Cutting-plane search for a dominating probability mixture.

    With witnesses ``f_j``, ``b_j = ‖T f_j‖^q`` and grid weights ``h_k``,
    the smallest constant a grid mixture achieves is ``C_lp = t^{-1/q}``
    where ``t = max_xi min_j (Phi xi)_j / b_j``.  The grid starts as
    :func:`default_domination_grid`, the uniform dual weight alone.  Each
    round solves that LP on unit-scaled data; adds the attainment point of
    the LP's dual witness combination to the grid while it beats the LP
    value by more than ``tol / 2``; and otherwise runs the violation oracle
    at ``C_lp * (1 + tol)``.  The oracle's best value decides the
    residual and convergence; when it violates, every function it returns
    whose value exceeds ``tol * C^q`` (one per sign pattern) is added as a
    witness in that one round.  The returned constant is therefore the
    grid-minimal one, up to ``1 + tol``.

    ``budget`` bounds oracle calls.  On success the returned
    mixture is a probability measure that passes the saturation check:
    boundary-supported solutions are repaired by mixing in ``tol`` mass of
    the uniform dual weight, paying a ``(1 + tol)^{1/q}`` inflation of the
    constant.  Raises :class:`~latfact.spaces.NotPConvexError` when the
    domain is not p-convex.
    """
    X = T.domain
    base = seed_list(seed)
    H = default_domination_grid(X, e)

    # initial witnesses: the operator-norm direction plus seeded sphere points
    opn_seed = operator_norm_estimate(T, budget=8, seed=base + [17])
    rng = np.random.default_rng(base + [19])
    seeds = list(opn_seed.witness)
    seeds.extend(unit_rows(rng.normal(size=(2, T.n)), X.norm_rows))
    W = unit_rows(np.vstack(seeds), X.norm_rows)
    bvec = T.codomain_norm_rows(W @ T.matrix.T) ** e.q
    Phi = pairings(X, e.p, W, H) ** e.t

    lp_values: list[float] = []
    t = witness_cap = math.inf  # witness_cap: the LP value before a witness
    oracle_calls = 0
    converged = False
    residual = math.inf
    xi_weights = np.full(H.shape[0], 1.0 / H.shape[0])
    C_lp = 0.0
    # the last LP solution while only columns were added since: its basis
    # stays primal feasible, so the next solve restarts from it
    warm = None

    for _ in range(_MAX_LP_SOLVES):
        if oracle_calls >= budget:
            break
        pos = np.where(bvec > 0.0)[0]
        if pos.size:
            R = Phi[pos] / bvec[pos, None]
            kappa = float(R.max()) or 1.0
            sol = solve_max_min(R / kappa, np.zeros(pos.size), warm=warm)
            t = sol.value * kappa
            if t > witness_cap * (1.0 + 1e-9):
                raise AssertionError(
                    "inner LP value increased after adding a witness")
            witness_cap = math.inf
            lp_values.append(t)
            xi_weights = sol.weights
            C_lp = t ** (-1.0 / e.q) if t > 0.0 else math.inf
            # Kelley step on the dual ball: the attainment point of the
            # adversarial witness combination, if it beats every grid column
            active = sol.duals > 1e-12
            rows = pos[active]
            lam = sol.duals[active] / (bvec[rows] * kappa)
            h_star = attainment_point(X, e,
                                      lam[:, None] ** (1.0 / e.q) * W[rows])
            column = pairings(X, e.p, W, h_star[None, :]) ** e.t
            if float(lam @ column[rows, 0]) > sol.value * (1.0 + 0.5 * tol):
                H = np.vstack([H, h_star])
                Phi = np.hstack([Phi, column])
                warm = sol
                continue

        target = C_lp * (1.0 + tol)
        keep = xi_weights > 1e-14
        measure = DiscreteRadonMeasure(
            atoms=H[keep], masses=xi_weights[keep] / xi_weights[keep].sum(),
            normalized=True)
        S = SNormSpace(base=X, e=e, xi=measure)
        F_star, values = violation_oracle(T, S, target,
                                          seed=base + [211 + oracle_calls])
        oracle_calls += 1
        Cq = max(target ** e.q, 1e-300)
        residual = max(values[0], 0.0) / Cq
        if values[0] <= tol * Cq:
            converged = True
            break
        # one cut per violating sign pattern, all added in this round
        cuts = F_star[values > tol * Cq]
        W = np.vstack([W, cuts])
        bvec = np.append(bvec, T.codomain_norm_rows(cuts @ T.matrix.T) ** e.q)
        Phi = np.vstack([Phi, pairings(X, e.p, cuts, H) ** e.t])
        witness_cap = t
        warm = None

    C = C_lp * (1.0 + tol)

    # post-processing on the final mixture; the last LP may predate the
    # newest grid row, so its weights index a prefix of H
    keep = np.flatnonzero(xi_weights > 1e-14)
    atoms = H[keep]
    kept_masses = xi_weights[keep] / xi_weights[keep].sum()

    if not (atoms > 0.0).any(axis=0).all():
        eps = tol
        atoms = np.vstack([atoms, H[0]])  # the uniform starting row
        kept_masses = np.append(kept_masses / (1.0 + eps), eps / (1.0 + eps))
        C = C * (1.0 + eps) ** (1.0 / e.q)

    kept_masses = kept_masses / kept_masses.sum()
    final_xi = DiscreteRadonMeasure(atoms=atoms, masses=kept_masses,
                                    normalized=True)

    return DominationCertificate(
        xi=final_xi, C=float(C), residual=float(residual),
        witnesses=tuple(np.array(w) for w in W),
        iterations=oracle_calls, converged=converged, exponents=e,
        lp_values=tuple(lp_values))


def verify_domination(cert: DominationCertificate, T: LinearOperator,
                      e: ExponentTriple, sample_count: int = 10000,
                      seed=0) -> float:
    """Largest value of ``‖Tf‖ - C s(f)`` on fresh unit-sphere samples.

    Samples are drawn independently of the solve and the stored witnesses
    are replayed as well.  The value is an absolute gap in first powers,
    while the solve's tolerance is relative to ``C^q`` in q-th powers, so
    a converged certificate can read above ``tol`` with no violation
    beyond it: on ``random_operator(2, 2, [501], s=2)`` at ``(p, q) =
    (1, 3)`` this reads 2.88e-6, where the worst relative violation
    ``(‖Tf‖^q - C^q s(f)^q) / C^q`` on the unit circle is 9.44e-7.
    """
    X = T.domain
    S = SNormSpace(base=X, e=e, xi=cert.xi)
    rng = np.random.default_rng([83, *seed_list(seed)])
    F = rng.normal(size=(int(sample_count), T.n))
    F = unit_rows(F, X.norm_rows)
    if cert.witnesses:
        F = np.vstack([F, np.vstack(cert.witnesses)])
    image = T.codomain_norm_rows(F @ T.matrix.T)
    mixture = S.seminorm_rows(F)
    return float(np.max(image - cert.C * mixture))


def collapse_weight(cert: DominationCertificate) -> np.ndarray:
    """The single weight vector the mixture collapses to when ``p = q``.

    At ``p = q`` the inner exponent is one, so the mixture functional is
    exactly the weighted Lebesgue norm with weight ``sum_k mass_k h_k``;
    the domination inequality becomes a weighted-norm factorization.
    """
    if not cert.exponents.is_extreme:
        raise ValueError("collapse requires p = q")
    return cert.xi.masses @ cert.xi.atoms


def extension_norm_estimate(T: LinearOperator, S: SNormSpace,
                            budget: int = 16, seed=0) -> float:
    """Lower bound on ``sup { ‖Tf‖ : s(f) = 1 }`` (the extended operator norm).

    This is the operator norm of the same matrix with the saturated mixture
    space ``S`` as its domain, so :func:`operator_norm_estimate` computes it.
    """
    if not S.saturated:
        raise ValueError("extension norm needs a saturated mixture")
    return operator_norm_estimate(LinearOperator(T.matrix, S, T.codomain),
                                  budget, seed).value


def kakutani_equivalence(X: LatticeNorm, e: ExponentTriple,
                         tol: float = 1e-6, budget: int = 40, seed=0,
                         samples: int = 4096):
    """Renorm the space by a dominating mixture of its own dual weights.

    Runs the domination solve on the identity and samples the two-sided
    comparison ``a * s(f) <= ‖f‖_X <= b * s(f)``.  For probability
    mixtures ``a >= 1``; ``b`` is within the certificate constant.
    Returns ``(xi, a, b)``.
    """
    T = identity_operator(X)
    cert = find_domination_measure(T, e, tol=tol, budget=budget, seed=seed)
    if not cert.converged:
        raise SolverConvergenceError(
            "identity domination solve did not converge; "
            f"relative residual {cert.residual:.3e}")
    return (cert.xi, *_equivalence_range(cert, X, samples, seed))


def _equivalence_range(cert: DominationCertificate, X: LatticeNorm,
                       samples: int, seed) -> tuple[float, float]:
    """Least and largest ``‖f‖_X / s(f)`` for the certificate's mixture.

    Taken over seeded unit-sphere samples and the certificate's witnesses.
    """
    S = SNormSpace(base=X, e=cert.exponents, xi=cert.xi)
    rng = np.random.default_rng([97, *seed_list(seed)])
    F = unit_rows(rng.normal(size=(int(samples), X.n)), X.norm_rows)
    if cert.witnesses:
        F = np.vstack([F, np.vstack(cert.witnesses)])
    ratios = X.norm_rows(F) / S.seminorm_rows(F)
    return float(np.min(ratios)), float(np.max(ratios))
