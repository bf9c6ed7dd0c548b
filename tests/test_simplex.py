from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from latfact.simplex import MaxMinSolution, SimplexError, solve_max_min

DEGENERATE = Path(__file__).parent / "data" / "degenerate_max_min.npz"


def scipy_max_min(A, b):
    """Independent reference via the HiGHS LP solver."""
    J, K = A.shape
    # variables (xi, t); maximize t  <=>  minimize -t
    c = np.zeros(K + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-A, np.ones((J, 1))])
    b_ub = -b
    A_eq = np.zeros((1, K + 1))
    A_eq[0, :K] = 1.0
    bounds = [(0, None)] * K + [(None, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    assert res.status == 0
    return -res.fun, res.x[:K]


def reference_optimize(T, basis, allowed):
    """The pivot loop of the two-phase solver, with its column mask."""
    m = T.shape[0] - 1
    iters = 0
    bland_after = 40 * (m + T.shape[1])
    while True:
        z = T[-1, :-1]
        candidates = np.where(allowed & (z < -1e-9))[0]
        if candidates.size == 0:
            return iters
        if iters < bland_after:
            col = int(candidates[np.argmin(z[candidates])])
        else:
            col = int(candidates[0])
        ratios = np.full(m, np.inf)
        positive = T[:m, col] > 1e-9
        ratios[positive] = T[:m, -1][positive] / T[:m, col][positive]
        row = int(np.argmin(ratios))
        if not np.isfinite(ratios[row]):
            raise SimplexError("unbounded pivot column")
        best = ratios[row]
        ties = np.where(np.abs(ratios - best) <= 1e-12 * (1.0 + abs(best)))[0]
        if ties.size > 1:
            if iters < bland_after:
                row = int(ties[np.argmax(T[ties, col])])
            else:
                row = int(ties[np.argmin([basis[i] for i in ties])])
        reference_pivot(T, basis, row, col)
        iters += 1
        if iters > 50000:
            raise SimplexError("pivot limit exceeded")


def reference_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    rows = np.nonzero(T[:, col])[0]
    rows = rows[rows != row]
    T[rows] -= T[rows, col][:, None] * T[row]
    basis[row] = col


def reference_two_phase(A, b):
    """The cold path of the two-phase solver the one-phase solver replaced.

    Phase 1 runs from an artificial identity basis of the sign-normalised
    system; the duals come off the artificial columns.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    J, K = A.shape
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
    allowed = np.zeros(nvar + m, dtype=bool)
    allowed[:nvar] = True

    T = np.zeros((m + 1, nvar + m + 1))
    T[:m, :nvar] = An
    T[:m, nvar:nvar + m] = np.eye(m)
    T[:m, -1] = bn
    basis = list(range(nvar, nvar + m))

    T[m, :nvar] = -An.sum(axis=0)
    T[m, -1] = -bn.sum()
    iters = reference_optimize(T, basis, allowed)
    if T[m, -1] < -1e-7:
        raise SimplexError("phase 1 ended infeasible")

    for i in range(m):
        if basis[i] >= nvar:
            row = T[i, :nvar]
            pivots = np.where(np.abs(row) > 1e-9)[0]
            if pivots.size:
                reference_pivot(T, basis, i, int(pivots[0]))

    T[m, :] = 0.0
    T[m, :nvar] = -cost
    for i, bi in enumerate(basis):
        if bi < nvar and cost[bi] != 0.0:
            T[m, :] += cost[bi] * T[i, :]
    iters += reference_optimize(T, basis, allowed)

    x = np.zeros(nvar)
    for i, bi in enumerate(basis):
        if bi < nvar:
            x[bi] = T[i, -1]
    weights = np.maximum(x[:K], 0.0)
    weights = weights / weights.sum()
    value = float(T[m, -1])

    y = T[m, nvar:nvar + m] * sign
    duals = np.maximum(y[:J], 0.0)
    dsum = duals.sum()
    duals = duals / dsum if dsum > 0 else np.full(J, 1.0 / J)
    return MaxMinSolution(value=value, weights=weights, duals=duals,
                          iterations=iters, basis=tuple(basis))


class TestSolveMaxMin:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_scipy_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        J = int(rng.integers(1, 9))
        K = int(rng.integers(1, 11))
        A = rng.normal(size=(J, K)) * rng.uniform(0.5, 3.0)
        b = rng.normal(size=J)
        sol = solve_max_min(A, b)
        ref_value, _ = scipy_max_min(A, b)
        assert sol.value == pytest.approx(ref_value, rel=1e-8, abs=1e-9)
        # primal feasibility and attainment
        slacks = A @ sol.weights - b
        assert sol.weights.min() >= -1e-12
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-10)
        assert slacks.min() == pytest.approx(sol.value, abs=1e-8)

    @pytest.mark.parametrize("seed", range(12))
    def test_dual_mixture_certifies_optimality(self, seed):
        rng = np.random.default_rng([7, seed])
        A = rng.normal(size=(6, 5))
        b = rng.normal(size=6)
        sol = solve_max_min(A, b)
        lam = sol.duals
        assert lam.min() >= -1e-12
        assert lam.sum() == pytest.approx(1.0, abs=1e-9)
        dual_value = np.max(lam @ A) - lam @ b
        assert dual_value == pytest.approx(sol.value, rel=1e-7, abs=1e-8)

    def test_single_row_single_column(self):
        sol = solve_max_min(np.array([[2.0]]), np.array([0.5]))
        assert sol.value == pytest.approx(1.5)
        assert sol.weights[0] == pytest.approx(1.0)

    def test_identical_rows(self):
        A = np.array([[1.0, 3.0], [1.0, 3.0]])
        sol = solve_max_min(A, np.zeros(2))
        assert sol.value == pytest.approx(3.0)
        assert sol.weights[1] == pytest.approx(1.0)

    def test_negative_value_instance(self):
        # every column is dominated, so the best slack is negative
        A = np.array([[-1.0, -2.0]])
        sol = solve_max_min(A, np.array([0.0]))
        assert sol.value == pytest.approx(-1.0)
        assert sol.weights[0] == pytest.approx(1.0)

    def test_zero_matrix(self):
        sol = solve_max_min(np.zeros((3, 4)), np.zeros(3))
        assert sol.value == pytest.approx(0.0)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            solve_max_min(np.zeros((2, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            solve_max_min(np.array([[np.inf, 1.0]]), np.zeros(1))

    def test_degenerate_many_duplicate_columns(self):
        A = np.ones((4, 9))
        b = np.linspace(-1, 1, 4)
        sol = solve_max_min(A, b)
        assert sol.value == pytest.approx(1.0 - b.max())

    def test_degenerate_ties_do_not_pivot_on_tiny_entries(self):
        # an 11 x 189 LP with entries in [0, 1] and b = 0 from a
        # domination solve on the 2^n - 1 indicator grid of a 4-atom L^2
        # domain; tie-breaking on the smallest basis index pivoted on a
        # 1e-9 entry and phase 1 reported an unbounded pivot column
        with np.load(DEGENERATE) as data:
            A, b = data["A"], data["b"]
        sol = solve_max_min(A, b)
        ref_value, _ = scipy_max_min(A, b)
        assert sol.value == pytest.approx(ref_value, rel=1e-9)


class TestVertexStart:
    def test_best_single_column_takes_no_pivot(self):
        # column 0 dominates column 1 row by row, so e_0 is optimal
        A = np.array([[3.0, 1.0], [2.0, 1.0]])
        sol = solve_max_min(A, np.zeros(2))
        assert sol.iterations == 0
        assert sol.value == 2.0
        assert np.array_equal(sol.weights, [1.0, 0.0])
        assert np.array_equal(sol.duals, [0.0, 1.0])

    def test_negative_value_keeps_t_minus_basic(self):
        # every vertex reads -3; the even mixture reads -2
        A = np.array([[-1.0, -3.0], [-3.0, -1.0]])
        sol = solve_max_min(A, np.zeros(2))
        K = A.shape[1]
        assert sol.value == pytest.approx(-2.0, rel=1e-15)
        assert np.allclose(sol.weights, 0.5, rtol=1e-15)
        assert K + 1 in sol.basis and K not in sol.basis

    def test_matches_two_phase_in_fewer_pivots(self):
        pivots = ref_pivots = 0
        for seed in range(40):
            rng = np.random.default_rng([43, seed])
            J = int(rng.integers(1, 12))
            K = int(rng.integers(1, 20))
            A = rng.normal(size=(J, K))
            b = rng.normal(size=J)
            sol = solve_max_min(A, b)
            ref = reference_two_phase(A, b)
            assert sol.value == pytest.approx(ref.value, rel=1e-12, abs=1e-14)
            pivots += sol.iterations
            ref_pivots += ref.iterations
        assert pivots <= ref_pivots


def growing_lp(kind: str, seed: int):
    """A seeded LP and the column count its growth starts from.

    ``signed`` has normal entries and offsets; ``kelley`` has the Kelley
    loop's shape: nonnegative entries scaled by their maximum, which moves
    with every new column, and ``b = 0``.
    """
    rng = np.random.default_rng([29, seed])
    J = int(rng.integers(2, 10))
    K = int(rng.integers(8, 16))
    if kind == "signed":
        return rng.normal(size=(J, K)) * rng.uniform(0.5, 3.0), rng.normal(size=J)
    return rng.uniform(size=(J, K)) ** 3, np.zeros(J)


def kelley_scaled(A: np.ndarray, k: int) -> np.ndarray:
    return A[:, :k] / A[:, :k].max()


class TestWarmStart:
    @pytest.mark.parametrize("kind", ["signed", "kelley"])
    @pytest.mark.parametrize("seed", range(8))
    def test_growing_columns_match_cold_and_scipy(self, kind, seed):
        A_full, b = growing_lp(kind, seed)
        scale = kelley_scaled if kind == "kelley" else (lambda A, k: A[:, :k])
        warm = solve_max_min(scale(A_full, 1), b)
        warm_pivots = cold_pivots = ref_pivots = 0
        for k in range(2, A_full.shape[1] + 1):
            A = scale(A_full, k)
            ref = reference_two_phase(A, b)
            cold = solve_max_min(A, b)
            warm = solve_max_min(A, b, warm=warm)
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
            ref_pivots += ref.iterations
            for sol in (cold, warm):
                assert sol.value == pytest.approx(ref.value, rel=1e-12,
                                                  abs=1e-14)
            ref_value, _ = scipy_max_min(A, b)
            assert warm.value == pytest.approx(ref_value, rel=1e-9, abs=1e-12)
            lam = warm.duals
            assert lam.min() >= 0.0
            assert lam.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.max(lam @ A) - lam @ b == pytest.approx(
                warm.value, rel=1e-9, abs=1e-12)
            slacks = A @ warm.weights - b
            assert slacks.min() == pytest.approx(warm.value, abs=1e-9)
        # the vertex start and the warm start each beat phase 1; neither
        # beats the other everywhere
        assert cold_pivots <= ref_pivots
        assert warm_pivots <= ref_pivots

    def test_degenerate_lp_grows_by_one_column(self):
        with np.load(DEGENERATE) as data:
            A, b = data["A"], data["b"]
        prefix = solve_max_min(A[:, :-1], b)
        cold = solve_max_min(A, b)
        warm = solve_max_min(A, b, warm=prefix)
        ref_value, _ = scipy_max_min(A, b)
        assert warm.value == pytest.approx(cold.value, rel=1e-12)
        assert warm.value == pytest.approx(ref_value, rel=1e-9)
        lam = warm.duals
        assert np.max(lam @ A) - lam @ b == pytest.approx(warm.value,
                                                          rel=1e-9)
        assert warm.iterations <= cold.iterations

    def test_other_rows_or_fewer_columns_take_the_cold_path(self):
        rng = np.random.default_rng(31)
        A = rng.normal(size=(5, 6))
        b = rng.normal(size=5)
        cold = solve_max_min(A, b)
        for warm in (solve_max_min(A[:4], b[:4]),
                     solve_max_min(np.vstack([A, A[:1]]), np.append(b, 0.0)),
                     solve_max_min(np.hstack([A, A[:, :2]]), b)):
            sol = solve_max_min(A, b, warm=warm)
            assert sol.iterations == cold.iterations
            assert sol.basis == cold.basis
            assert sol.value == cold.value
            assert np.array_equal(sol.weights, cold.weights)
            assert np.array_equal(sol.duals, cold.duals)

    def test_infeasible_basis_takes_the_cold_path(self):
        # the same shapes, but the old optimal basis has a negative basic
        # value in the new LP, so the solve must start from the vertex
        rng = np.random.default_rng(37)
        A = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        old = solve_max_min(-A[:, :3], b + 5.0)
        cold = solve_max_min(A, b)
        sol = solve_max_min(A, b, warm=old)
        assert sol.iterations == cold.iterations
        assert sol.basis == cold.basis
        assert sol.value == cold.value
        assert np.array_equal(sol.weights, cold.weights)
