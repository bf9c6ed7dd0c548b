from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from latfact.simplex import solve_max_min


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
        path = Path(__file__).parent / "data" / "degenerate_max_min.npz"
        with np.load(path) as data:
            A, b = data["A"], data["b"]
        sol = solve_max_min(A, b)
        ref_value, _ = scipy_max_min(A, b)
        assert sol.value == pytest.approx(ref_value, rel=1e-9)
