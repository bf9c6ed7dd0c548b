from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from latfact.simplex import solve_max_min

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
        warm_pivots = cold_pivots = 0
        for k in range(2, A_full.shape[1] + 1):
            A = scale(A_full, k)
            cold = solve_max_min(A, b)
            warm = solve_max_min(A, b, warm=warm)
            warm_pivots += warm.iterations
            cold_pivots += cold.iterations
            assert warm.value == pytest.approx(cold.value, rel=1e-12,
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
        assert warm_pivots <= cold_pivots

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
        # value in the new LP, so the solve must run both phases
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
