"""Constructive domination certificates and weighted-norm factorizations.

Given an operator ``T`` on a p-convex lattice-normed domain and exponents
``p <= q``, the solver searches for a probability mixture of positive
dual-ball weights and a constant ``C`` such that

    ‖T f‖  <=  C * ( sum_k mass_k (∫ |f|^p h_k dμ)^{q/p} )^{1/q}    for all f.

On a weighted Lebesgue domain two cases are closed.  At ``p = q = 1`` the
mixture collapses to one weight ``w`` of ``L^1(wμ)``, the least constant
is the Köthe-dual norm ``C* = ‖c‖_{X'}`` of ``c_j = ‖T e_j‖ / μ_j``, and
``w = c / C*`` attains it.  At ``s = p`` the positive dual ball of
``X_p = L^1(μ)`` is the cube, the uniform weight gives the largest
seminorm, ``‖f‖_X`` itself, and ``C* = ‖T : L^p(μ) → Y‖`` wherever that
norm has exact maximisers.  The certificate then holds that one atom,
``C = C*``, ``iterations`` 1 and no LP values, and one violation-oracle
call on its exact route checks it.  Every other input runs the loop
below.

With witness functions ``f_j``, ``b_j = ‖T f_j‖^q`` and a dual-ball grid
of weights ``h_k``, the smallest constant any grid mixture achieves is
``C^q = 1/t`` with ``t = max_xi min_j (Phi xi)_j / b_j`` and
``Phi[j, k] = (∫ |f_j|^p h_k dμ)^{q/p}``: the value of the matrix game
``Phi[j, k] / b_j``, one dense LP.  The solver wraps it in a Kelley
cutting-plane loop on both sides: the grid starts from the uniform
dual weight alone, the attainment weight of the LP's adversarial witness
combination enriches it while it beats the LP value, and a violation
oracle hunts for functions that break the mixture at ``C (1 + tol)``.
The oracle is the one search for the norm of the extension ``T̃`` of
``T`` to the mixture space: it ascends ``‖Tf‖`` on the unit sphere of the
mixture seminorm ``s`` and subtracts ``C^q`` only at the end, so the
tolerance bounds ``(‖Tf‖ / (C s(f)))^q - 1`` whatever the support of
``f``, and :func:`extension_norm_estimate` reads the same search at
``C = 0``.  Where the mixture is a weighted ``L^1``, or a weighted ``L^2``
under a Euclidean target, the oracle's rows are the exact maximisers.
Elsewhere an oracle round adds one cut per sign pattern: the best
ascended function of every pattern that violates the mixture becomes a
witness row in the same round, so one round cuts off every violating
region the ascent reached.  Neither a starting constant nor grid columns
are guessed; the loop builds the support of the mixture and returns the
grid-minimal constant, up to ``1 + tol``.  Certificates store the
mixture, the constant, the relative residual at termination, why the
solve stopped and every witness generated, so they can be replayed and
independently re-verified on fresh samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (LinearOperator, _collapsed_mixture, _image_norm,
                        _norm_maximisers, attainment_point, identity_operator,
                        operator_norm_estimate)
from .estimates import seed_list
from .search import projected_ascent, signed_starts, unit_rows
from .simplex import solve_max_min
from .snorm import DiscreteRadonMeasure, SNormSpace
from .spaces import (ExponentTriple, LatticeNorm, WeightedLebesgue,
                     _dual_is_cube, dual_norm_of_pth_power, pairings)

__all__ = [
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
# canonical starts per sign pattern of the oracle's ascent route
_ORACLE_STARTS = 16
# how an unbounded violation reads in certificates and reports, which hold
# finite numbers only
_UNBOUNDED = float(np.finfo(float).max)
# seeded unit-sphere samples of the Kakutani comparison and of the
# fresh-sample verification, the library's and the CLI's defaults alike
KAKUTANI_SAMPLES = 2048
VERIFY_SAMPLES = 2000
# why a solve stopped: the oracle found no violation above tol, the oracle
# budget ran out, or the loop ran through _MAX_LP_SOLVES LP solves
STOP_REASONS = ("converged", "budget", "lp-limit")


@dataclass(frozen=True, eq=False)
class DominationCertificate:
    """A mixture, a constant, and the evidence they dominate the operator.

    ``residual`` is relative: the largest value of
    ``(‖Tf‖ / (C s(f)))^q - 1`` found by the oracle at termination (at
    most the solve tolerance when ``converged``; the largest float when
    the last oracle round met an ``f`` with ``s(f) = 0 < ‖Tf‖``).
    ``stop`` says why the solve ended, one of :data:`STOP_REASONS`;
    :attr:`converged` is ``stop == "converged"``.  ``witnesses`` are the
    unit-sphere functions generated during the solve, replayable against
    the stored mixture.  ``lp_values`` records the LP value
    ``t = C_lp^{-q}`` after each solve: it never rises when a witness is
    added and rises when the grid is enriched.
    """

    xi: DiscreteRadonMeasure
    C: float
    residual: float
    witnesses: tuple[np.ndarray, ...]
    iterations: int
    exponents: ExponentTriple
    lp_values: tuple[float, ...] = ()
    stop: str = "converged"

    def __post_init__(self):
        if self.stop not in STOP_REASONS:
            raise ValueError(f"unknown stop reason {self.stop!r}")

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    def snorm_space(self, X: LatticeNorm) -> SNormSpace:
        return SNormSpace(base=X, e=self.exponents, xi=self.xi)

    def to_jsonable(self) -> dict:
        return {
            "xi": self.xi.to_jsonable(),
            "C": float(self.C),
            "residual": float(self.residual),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "stop": self.stop,
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
                     seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Most violating functions at constant C, on the unit sphere of s.

    A violation is ``‖Tf‖^q - C^q`` at ``s(f) = 1``, that is
    ``C^q ((‖Tf‖ / (C s(f)))^q - 1)``: its supremum is ``‖T̃‖^q - C^q``
    for the extension ``T̃`` of ``T`` to the mixture space.  The search
    is for ``‖T̃‖``, and ``C`` enters only in the final subtraction.

    - **Closed route.** A mixture that collapses to weighted ``L^1``, or
      to ``L^2`` under a Euclidean target (``constants._collapsed_mixture``),
      gets the exact maximisers of ``constants._norm_maximisers``.
    - **Unseen points.** A point that no atom sees while ``T`` moves it has
      ``s = 0 < ‖Tf‖``: each such point is a row on the domain sphere with
      value ``inf``.
    - **Ascent route.** Otherwise ``‖Tf‖`` ascends on the unit sphere of
      ``s`` from every signed start and every 2-support row ``e_i ± e_j``.
      Entries stop at zero, and a zero entry leaves its face only where
      ``|∂‖Tf‖/∂f_i| > ‖Tf‖ ∂s/∂|f_i|`` (a kink of ``s`` at ``p = 1``).
      The best row of each sign pattern, up to a global flip, is kept.

    Returns ``(F, values)``, best first (ties keep the row order), so
    ``F[0]`` is the most violating function found.  A non-positive
    ``values[0]`` means no violation was found.
    """
    q = S.e.q
    Cq = float(C) ** q
    exact = _norm_maximisers(T, _collapsed_mixture(S))
    if exact is not None:
        return exact, T.codomain.norm_rows(exact @ T.matrix.T) ** q - Cq
    E = np.eye(T.n)
    unseen = E[T.matrix.any(axis=0) & ~S.xi.atoms.any(axis=0)]
    if len(unseen):
        return (unit_rows(unseen, T.domain.norm_rows),
                np.full(len(unseen), np.inf))
    value_rows, image_grad = _image_norm(T)

    def grad_rows(F: np.ndarray) -> np.ndarray:
        G = image_grad(F)
        zero = F == 0.0
        if zero.any():
            pull = np.abs(G) - value_rows(F)[:, None] * S.slope_rows(F)
            G[zero] = (np.sign(G) * np.maximum(pull, 0.0))[zero]
        return G

    i, j = np.triu_indices(T.n, 1)
    A0 = np.vstack([signed_starts(T.n, _ORACLE_STARTS, seed),
                    E[i] + E[j], E[i] - E[j]])
    A, vals = projected_ascent(value_rows, grad_rows,
                               lambda B: unit_rows(B, S.seminorm_rows), A0,
                               iters=50, nonneg=False, keep_signs=True,
                               radial_rows=S.norm_grad_rows)
    order = np.argsort(-vals, kind="stable")
    signs = np.sign(A[order])
    lead = signs[np.arange(len(signs)), np.argmax(signs != 0.0, axis=1)]
    first = {}
    for row, pattern in zip(order, (signs * lead[:, None]).astype(np.int8)):
        first.setdefault(pattern.tobytes(), row)
    rows = list(first.values())
    return A[rows], vals[rows] ** q - Cq


def find_domination_measure(T: LinearOperator, e: ExponentTriple,
                            tol: float = 1e-6, budget: int = 40,
                            seed=0) -> DominationCertificate:
    """A dominating probability mixture and its constant.

    - **Closed route.** On a weighted Lebesgue domain two cases have a
      one-atom answer, checked in this order.
      - ``p = q = 1``: the mixture collapses to one weight ``w``, and the
        norm of ``T : L^1(wμ) → Y`` is ``max_j ‖T e_j‖ / (w_j μ_j)``.
        With ``c_j = ‖T e_j‖ / μ_j`` the least constant is the Köthe-dual
        norm ``C* = ‖c‖_{X'}``, attained at ``w = c / C*``: any weight of
        the dual ball with ``c <= C w`` has ``‖c‖_{X'} <= C``.
      - ``s = p``, at ``p = 1`` into any target or at ``p = 2`` into a
        Euclidean one: the positive dual ball of ``X_p = L^1(μ)`` is the
        cube ``[0, 1]^n``, so every atom ``h <= 1`` gives
        ``∫ |f|^p h dμ <= ‖f‖_X^p`` and every mixture has
        ``s(f) <= ‖f‖_X``.  No constant below ``‖T : L^p(μ) → Y‖`` can
        dominate, and ``δ_1``, the uniform weight, attains it:
        ``C* = ‖T‖``, read off the top exact maximiser of
        ``constants._norm_maximisers`` (``max_j ‖T e_j‖ / μ_j``, or
        ``σ_max(T diag(μ)^{-1/2})``).
      The certificate holds that one atom of mass one and ``C = C*``,
      with ``iterations`` 1 and empty ``lp_values``; ``T = 0`` gives
      ``C = 0`` on the uniform weight.  One :func:`violation_oracle` call
      on the mixture, which takes its exact route, gives the residual and
      the witnesses; ``stop`` is ``budget`` if it reads above ``tol``.
    - **Kelley loop.** Every other input (``s > p`` with ``q > p``,
      ``s = p`` without exact maximisers, mixture domains) runs the
      cutting-plane search of :func:`_kelley_solve`, which returns the
      grid-minimal constant up to ``1 + tol``; ``budget`` bounds its
      oracle calls.

    On both routes a mixture that leaves a point unseen (a column with
    ``T e_j = 0`` gives ``w_j = 0``) is repaired by mixing in ``tol`` mass
    of the uniform dual weight, paying a ``(1 + tol)^{1/q}`` inflation of
    the constant, so a converged mixture passes the saturation check.
    Raises :class:`~latfact.spaces.NotPConvexError` when the domain is not
    p-convex.
    """
    X = T.domain
    closed = _closed_weight(T, e)
    if closed is None:
        return _kelley_solve(T, e, tol, budget, seed)
    weight, C = closed
    start = default_domination_grid(X, e)[0]
    if weight is None:
        weight = start
    atoms, masses, C = _saturate(weight[None, :], np.ones(1), start, C, tol,
                                 e.q)
    xi = DiscreteRadonMeasure(atoms=atoms, masses=masses)
    F, values = violation_oracle(T, SNormSpace(base=X, e=e, xi=xi), C,
                                 seed=seed_list(seed) + [211])
    Cq = max(C ** e.q, 1e-300)
    return DominationCertificate(
        xi=xi, C=float(C),
        residual=min(max(float(values[0]), 0.0) / Cq, _UNBOUNDED),
        witnesses=tuple(unit_rows(F, X.norm_rows)), iterations=1,
        exponents=e, stop="converged" if values[0] <= tol * Cq else "budget")


def _closed_weight(T: LinearOperator, e: ExponentTriple):
    """``(weight, C*)`` where the one-atom answer is closed, else None.

    A weight of None stands for the uniform starting weight.  ``p = q = 1``
    comes first: ``w = c / C*`` and ``C* = ‖c‖_{X'}``, uniform when
    ``T = 0``.  At ``s = p`` the weight is uniform and ``C* = ‖T‖``, read
    off the top exact maximiser of ``T : L^p(μ) → Y``.
    """
    X = T.domain
    if not isinstance(X, WeightedLebesgue):
        return None
    if e.p == e.q == 1.0:
        c = T.codomain.norm_rows(T.matrix.T) / X.space.weights
        C = dual_norm_of_pth_power(X, 1.0, c)
        return (c / C if C > 0.0 else None), C
    if not _dual_is_cube(X, e.p):
        return None
    F = _norm_maximisers(T, X)
    if F is None:
        return None
    return None, float(T.codomain.norm_rows(F[:1] @ T.matrix.T)[0])


def _saturate(atoms: np.ndarray, masses: np.ndarray, start: np.ndarray,
              C: float, tol: float, q: float):
    """``(atoms, masses, C)`` of a mixture that sees every point.

    Where no atom sees a point, ``tol`` mass of the strictly positive
    ``start`` row is mixed in: the mixture seminorm shrinks by at most
    ``(1 + tol)^{1/q}``, so ``C`` pays that factor.  The masses come back
    normalized.
    """
    if not (atoms > 0.0).any(axis=0).all():
        atoms = np.vstack([atoms, start])
        masses = np.append(masses / (1.0 + tol), tol / (1.0 + tol))
        C = C * (1.0 + tol) ** (1.0 / q)
    return atoms, masses / masses.sum(), C


def _kelley_solve(T: LinearOperator, e: ExponentTriple, tol: float,
                  budget: int, seed) -> DominationCertificate:
    """Cutting-plane search for a dominating probability mixture.

    With witnesses ``f_j``, ``b_j = ‖T f_j‖^q`` and grid weights ``h_k``,
    the smallest constant a grid mixture achieves is ``C_lp = t^{-1/q}``
    where ``t = max_xi min_j (Phi xi)_j / b_j``.  The grid starts as
    :func:`default_domination_grid`, the uniform dual weight alone.  Each
    round solves that LP on unit-scaled data; adds the attainment point of
    the LP's dual witness combination to the grid while it beats the LP
    value by more than ``tol / 2``; and otherwise runs the violation oracle
    at ``C_lp * (1 + tol)``.  The oracle's best value decides the
    residual and convergence: it measures ``‖Tf‖^q - C^q`` on the unit
    sphere of the mixture seminorm, so ``residual`` and ``tol`` bound
    ``(‖Tf‖ / (C s(f)))^q - 1``.  When it violates, every function it
    returns whose value exceeds ``tol * C^q`` (one per sign pattern on the
    ascent route, every violating vertex on the closed ``L^1`` route) is
    added as a witness in that one round, scaled to the domain's unit
    sphere.  The constant this loop returns is therefore the grid-minimal
    one, up to ``1 + tol``.

    ``budget`` bounds oracle calls, and the loop stops after
    ``_MAX_LP_SOLVES`` LP solves; the certificate's ``stop`` names which
    of the two ended a solve that did not converge.  The final mixture
    goes through :func:`_saturate`.
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
    bvec = T.codomain.norm_rows(W @ T.matrix.T) ** e.q
    Phi = pairings(X, e.p, W, H) ** e.t

    lp_values: list[float] = []
    t = witness_cap = math.inf  # witness_cap: the LP value before a witness
    oracle_calls = 0
    stop = "lp-limit"
    residual = _UNBOUNDED
    xi_weights = np.full(H.shape[0], 1.0 / H.shape[0])
    C_lp = 0.0
    # the last LP solution while only columns were added since: its basis
    # stays primal feasible, so the next solve restarts from it
    warm = None

    for _ in range(_MAX_LP_SOLVES):
        if oracle_calls >= budget:
            stop = "budget"
            break
        pos = np.where(bvec > 0.0)[0]
        if pos.size:
            R = Phi[pos] / bvec[pos, None]
            kappa = float(R.max()) or 1.0
            sol = solve_max_min(R / kappa, warm=warm)
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
            atoms=H[keep], masses=xi_weights[keep] / xi_weights[keep].sum())
        S = SNormSpace(base=X, e=e, xi=measure)
        F_star, values = violation_oracle(T, S, target,
                                          seed=base + [211 + oracle_calls])
        oracle_calls += 1
        Cq = max(target ** e.q, 1e-300)
        residual = min(max(float(values[0]), 0.0) / Cq, _UNBOUNDED)
        if values[0] <= tol * Cq:
            stop = "converged"
            break
        # every violating row of the round is a cut, on the domain sphere
        cuts = unit_rows(F_star[values > tol * Cq], X.norm_rows)
        W = np.vstack([W, cuts])
        bvec = np.append(bvec, T.codomain.norm_rows(cuts @ T.matrix.T) ** e.q)
        Phi = np.vstack([Phi, pairings(X, e.p, cuts, H) ** e.t])
        witness_cap = t
        warm = None

    C = C_lp * (1.0 + tol)

    # post-processing on the final mixture; the last LP may predate the
    # newest grid row, so its weights index a prefix of H
    keep = np.flatnonzero(xi_weights > 1e-14)
    atoms = H[keep]
    kept_masses = xi_weights[keep] / xi_weights[keep].sum()

    atoms, kept_masses, C = _saturate(atoms, kept_masses, H[0], C, tol, e.q)
    final_xi = DiscreteRadonMeasure(atoms=atoms, masses=kept_masses)

    return DominationCertificate(
        xi=final_xi, C=float(C), residual=float(residual),
        witnesses=tuple(np.array(w) for w in W),
        iterations=oracle_calls, exponents=e, lp_values=tuple(lp_values),
        stop=stop)


def verify_domination(cert: DominationCertificate, T: LinearOperator,
                      sample_count: int = VERIFY_SAMPLES, seed=0) -> float:
    """Largest value of ``(‖Tf‖ / (C s(f)))^q - 1`` on fresh samples.

    Samples are drawn on the domain's unit sphere independently of the
    solve, and the stored witnesses are replayed as well.  The reading is
    the measure of the solve's ``residual`` and ``tol``, so a converged
    certificate reads at most ``tol`` wherever the oracle found the worst
    violation.  A function with ``s(f) = 0 < ‖Tf‖`` reads as the largest
    float.
    """
    X = T.domain
    S = cert.snorm_space(X)
    rng = np.random.default_rng([83, *seed_list(seed)])
    F = rng.normal(size=(int(sample_count), T.n))
    F = unit_rows(F, X.norm_rows)
    F = np.vstack([F, *cert.witnesses])
    image = T.codomain.norm_rows(F @ T.matrix.T)
    bound = cert.C * S.seminorm_rows(F)
    # inf where bound = 0 < image, and 0 where both vanish
    ratio = np.divide(image, bound, where=bound > 0.0,
                      out=np.where(image > 0.0, np.inf, 0.0))
    return min(float(np.max(ratio ** cert.exponents.q)) - 1.0, _UNBOUNDED)


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
                            seed=0) -> float:
    """Lower bound on ``sup { ‖Tf‖ : s(f) = 1 }`` (the extended operator norm).

    It is ``‖Tf‖`` on the best row of :func:`violation_oracle` at ``C = 0``,
    the one search for this supremum.  A mixture with one atom, or any
    mixture at ``p = q``, is a weighted ``L^p`` space; at ``p = 1``, and at
    ``p = 2`` into a Euclidean target, the value is then exact:
    ``max_j ‖T e_j‖ / (w_j μ_j)`` and ``σ_max(T diag(w μ)^{-1/2})`` on the
    collapsed weight ``w``.
    """
    if not S.saturated:
        raise ValueError("extension norm needs a saturated mixture")
    F, _ = violation_oracle(T, S, 0.0, seed)
    return float(T.codomain.norm_rows(F[:1] @ T.matrix.T)[0])


def kakutani_equivalence(X: LatticeNorm, e: ExponentTriple,
                         tol: float = 1e-6, budget: int = 40, seed=0,
                         samples: int = KAKUTANI_SAMPLES):
    """Renorm the space by a dominating mixture of its own dual weights.

    Runs the domination solve on the identity and samples the two-sided
    comparison ``a * s(f) <= ‖f‖_X <= b * s(f)``.  For probability
    mixtures ``a >= 1``; ``b`` is within the certificate constant.
    Returns ``(cert, a, b)``; ``a`` and ``b`` are None when the solve did
    not converge, and ``cert.stop`` says why.
    """
    cert = find_domination_measure(identity_operator(X), e, tol=tol,
                                   budget=budget, seed=seed)
    if not cert.converged:
        return cert, None, None
    return (cert, *_equivalence_range(cert, X, samples, seed))


def _equivalence_range(cert: DominationCertificate, X: LatticeNorm,
                       samples: int, seed) -> tuple[float, float]:
    """Least and largest ``‖f‖_X / s(f)`` for the certificate's mixture.

    Taken over seeded unit-sphere samples and the certificate's witnesses.
    """
    S = cert.snorm_space(X)
    rng = np.random.default_rng([97, *seed_list(seed)])
    F = unit_rows(rng.normal(size=(int(samples), X.n)), X.norm_rows)
    F = np.vstack([F, *cert.witnesses])
    ratios = X.norm_rows(F) / S.seminorm_rows(F)
    return float(np.min(ratios)), float(np.max(ratios))
