import math

import numpy as np
import pytest

from latfact import (EuclideanNorm, ExponentTriple, LinearOperator,
                     attainment_point, brute_force_family_sup,
                     constant_chain_report, family_sup_lhs, family_sup_rhs,
                     identity_operator, operator_norm_estimate,
                     pq_concavity_estimate, pq_concavity_ratio,
                     q_concavity_estimate, q_concavity_ratio,
                     q_summing_estimate, q_summing_ratio, weak_q_norm)
from latfact import constants
from latfact.snorm import (DiscreteRadonMeasure, SNormSpace,
                           UnsaturatedSpaceError, dirac_space, partition_space)
from latfact.spaces import DualVector, NotPConvexError, extreme_dual_vectors
from latfact.suite import lemma_instances, random_operator
from conftest import make_space

E12 = ExponentTriple(p=1.0, q=2.0)


class TestFamilySupLhs:
    def test_disjoint_pair_on_l1(self):
        X = make_space([1, 1], 1)
        e = ExponentTriple(p=1.0, q=2.0)
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert family_sup_lhs(X, e, F) == pytest.approx(math.sqrt(2), rel=1e-12)

    def test_zero_family(self):
        X = make_space([1, 1], 1)
        assert family_sup_lhs(X, ExponentTriple(p=1.0, q=2.0),
                              np.zeros((1, 2))) == 0.0
        with pytest.raises(ValueError):
            family_sup_lhs(X, ExponentTriple(p=1.0, q=2.0), np.zeros((0, 2)))

    def test_equal_exponents_use_all_ones_scaling(self):
        X = make_space([0.5, 1.5, 1.0], 2.0)
        e = ExponentTriple(p=2.0, q=2.0)
        rng = np.random.default_rng(3)
        for _ in range(30):
            F = rng.normal(size=(3, 3))
            direct = X.norm(np.sqrt((F ** 2).sum(axis=0)))
            assert family_sup_lhs(X, e, F) == pytest.approx(direct, rel=1e-12)

    def test_matches_brute_force_reference(self):
        worst = 0.0
        for X, e, F in lemma_instances(60, seed=2024):
            prod = family_sup_lhs(X, e, F)
            ref = brute_force_family_sup(X, e, F, step=1e-2)
            worst = max(worst, abs(prod - ref) / max(ref, 1e-30))
        assert worst <= 1e-6

    def test_singleton_is_the_norm(self):
        X = make_space([1.0, 2.0], 1.5)
        e = ExponentTriple(p=1.0, q=2.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.normal(size=2)
            assert family_sup_lhs(X, e, f[None, :]) == pytest.approx(
                X.norm(f), rel=1e-9)

    def test_domain_that_is_not_p_convex_is_refused(self):
        # L^1 is not 1.5-convex: with q > p the s = p closed form and the
        # dual-ball reduction do not apply there, while p = q still does
        X = make_space([1.0, 2.0, 0.5], 1.0)
        F = np.random.default_rng(5).normal(size=(2, 3))
        with pytest.raises(NotPConvexError):
            family_sup_lhs(X, ExponentTriple(p=1.5, q=2.0), F)
        with pytest.raises(NotPConvexError):
            pq_concavity_ratio(identity_operator(X),
                               ExponentTriple(p=1.5, q=2.0), F)
        e = ExponentTriple(p=1.5, q=1.5)
        assert family_sup_lhs(X, e, F) == pytest.approx(
            brute_force_family_sup(X, e, F, step=1e-2), rel=1e-9)


def reference_simplex_grid(m: int, step: float) -> np.ndarray:
    """The full-mesh ``constants._simplex_grid`` this enumeration replaced."""
    K = max(1, int(round(1.0 / step)))
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        i = np.arange(K + 1)
        return np.column_stack([i, K - i]) / K
    if m == 3:
        i, j = np.meshgrid(np.arange(K + 1), np.arange(K + 1), indexing="ij")
        keep = (i + j) <= K
        i, j = i[keep], j[keep]
        return np.column_stack([i, j, K - i - j]) / K
    K = max(6, int(round(1e5 ** (1.0 / (m - 1)))))
    axes = [np.arange(K + 1)] * (m - 1)
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.column_stack([ax.ravel() for ax in mesh])
    keep = flat.sum(axis=1) <= K
    flat = flat[keep]
    last = K - flat.sum(axis=1)
    return np.column_stack([flat, last]) / K


class TestBruteForceGrid:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("step", [1.0, 0.3, 0.1, 1.0 / 40.0, 1e-2])
    def test_enumeration_keeps_the_mesh_bits(self, m, step):
        grid = constants._simplex_grid(m, step)
        ref = reference_simplex_grid(m, step)
        assert grid.dtype == ref.dtype and grid.shape == ref.shape
        assert grid.tobytes() == ref.tobytes()
        assert grid.shape[0] == constants.brute_force_grid_size(m, step)

    def test_eleven_vectors_without_a_mesh(self, monkeypatch):
        # the full mesh holds 7^10 rows here; the simplex only C(16, 10)
        def no_mesh(*args, **kwargs):
            raise AssertionError("meshgrid called")
        monkeypatch.setattr(np, "meshgrid", no_mesh)
        grid = constants._simplex_grid(11, 1e-3)
        assert grid.shape == (math.comb(16, 10), 11)
        assert np.all(grid >= 0.0)
        assert np.allclose(grid.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert len(np.unique(grid, axis=0)) == grid.shape[0]
        assert constants.brute_force_grid_size(11, 1e-3) == grid.shape[0]

    @pytest.mark.parametrize("m, step, p, q", [
        (3, 1e-4, 1.0, 2.0), (40, 1e-3, 1.0, 2.0), (9, 1e-3, 2.0, 2.0)])
    def test_grid_above_the_cap_is_refused(self, monkeypatch, m, step, p, q):
        def no_mesh(*args, **kwargs):
            raise AssertionError("meshgrid called")
        monkeypatch.setattr(np, "meshgrid", no_mesh)
        e = ExponentTriple(p=p, q=q)
        assert (constants.brute_force_grid_size(m, step, e.is_extreme)
                > constants.BRUTE_FORCE_GRID_CAP)
        F = np.random.default_rng(m).normal(size=(m, 2))
        with pytest.raises(ValueError, match="cap"):
            brute_force_family_sup(make_space([1.0, 2.0], 2.0), e, F,
                                   step=step)


class TestFamilySupRhs:
    def test_matches_lhs_on_cube_grid(self):
        X = make_space([1, 1], 1)
        e = ExponentTriple(p=1.0, q=2.0)
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        grid = extreme_dual_vectors(X, e.p)
        assert family_sup_rhs(X, e, F, grid) == pytest.approx(math.sqrt(2),
                                                              rel=1e-12)

    def test_zero_family_and_empty_grid(self):
        X = make_space([1, 1], 1)
        e = ExponentTriple(p=1.0, q=2.0)
        grid = extreme_dual_vectors(X, e.p)
        assert family_sup_rhs(X, e, np.zeros((1, 2)), grid) == 0.0
        with pytest.raises(ValueError):
            family_sup_rhs(X, e, np.eye(2), [])

    def test_singleton_attains_base_norm(self):
        X = make_space([1, 1], 2)
        e = ExponentTriple(p=2.0, q=2.0)
        grid = extreme_dual_vectors(X, e.p)
        assert family_sup_rhs(X, e, np.array([[1.0, 0.0]]),
                              grid) == pytest.approx(1.0, rel=1e-12)

    def test_attainment_point_closes_curved_grids(self):
        worst = 0.0
        for X, e, F in lemma_instances(60, seed=515):
            grid = extreme_dual_vectors(X, e.p)
            grid.append(attainment_point(X, e, F))
            rhs = family_sup_rhs(X, e, F, grid)
            lhs = family_sup_lhs(X, e, F)
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-30))
        assert worst <= 1e-7


class TestClosedFormAttainment:
    """At ``s > p = q`` the attainment point is Hölder's maximizer."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_hoelder_maximizer(self, p, m):
        rng = np.random.default_rng([71, int(p), m])
        n = 4
        mu = rng.uniform(0.5, 2.0, size=n)
        s = p * rng.uniform(1.2, 3.0)
        X = make_space(mu, s)
        e = ExponentTriple(p=p, q=p)
        F = rng.normal(size=(m, n))
        F[:, 2] = 0.0  # a zero column of g
        sigma = s / p
        sigma_dual = sigma / (sigma - 1.0)
        h = attainment_point(X, e, F).h
        assert h[2] == 0.0
        assert abs(float((h ** sigma_dual) @ mu) ** (1.0 / sigma_dual)
                   - 1.0) <= 1e-12
        g = (np.abs(F) ** p).sum(axis=0)
        psi = float((g * mu) @ h)
        g_norm = float((g ** sigma) @ mu) ** (1.0 / sigma)
        assert abs(psi - g_norm) <= 1e-12 * g_norm
        fixed_point = float(constants._curved_dual_sup(X, e, F[None])[0][0])
        assert psi ** (1.0 / p) >= fixed_point * (1.0 - 1e-12)


class TestWitnessTransferInequalities:
    def test_per_family_denominator_ordering(self):
        rng = np.random.default_rng(12)
        for trial in range(150):
            n = int(rng.integers(2, 4))
            s, (p, q) = [(1.0, (1.0, 2.0)), (2.0, (2.0, 3.0)),
                         (2.0, (2.0, 2.0))][trial % 3]
            X = make_space(rng.uniform(0.5, 2.0, size=n), s)
            e = ExponentTriple(p=p, q=q)
            m = int(rng.integers(1, 4))
            F = rng.normal(size=(m, n))
            agg = X.norm((np.abs(F) ** q).sum(axis=0) ** (1 / q))
            sup_scaled = family_sup_lhs(X, e, F)
            weak = weak_q_norm(X, F, q, seed=trial)
            # scaled-family supremum sits below the q-aggregate and above
            # the weak-q norm, so ratios transfer down the chain
            assert sup_scaled <= agg * (1 + 1e-9)
            assert weak <= sup_scaled * (1 + 1e-9)


class TestWeakQNorm:
    def test_sup_ball_vertex_enumeration(self):
        X = make_space([1, 1], 1)
        F = np.array([[1.0, 1.0], [1.0, -1.0]])
        # best sign vector gives |h.(1,1)|^2 + |h.(1,-1)|^2 = 8 at h=(1,1)
        assert weak_q_norm(X, F, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_hilbert_case_is_singular_value(self):
        X = make_space([1, 1], 2)
        F = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert weak_q_norm(X, F, 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_ascent_route_agrees_with_svd(self):
        rng = np.random.default_rng(9)
        X = make_space(rng.uniform(0.5, 2.0, size=3), 3.0)
        F = rng.normal(size=(2, 3))
        # oracle: dense sampling of the dual sphere (s' = 1.5)
        s_dual = 1.5
        best = 0.0
        for _ in range(200000):
            h = rng.normal(size=3)
            nrm = float(np.sum(np.abs(h) ** s_dual
                               * X.space.weights) ** (1 / s_dual))
            h = h / nrm
            val = float(np.sum(np.abs((F * X.space.weights) @ h) ** 2) ** 0.5)
            best = max(best, val)
        got = weak_q_norm(X, F, 2.0, seed=1)
        assert got >= best - 1e-4
        assert got <= best * (1 + 5e-3)


    def test_one_atom_mixture_is_its_weighted_lebesgue_space(self):
        # s(f) = (∫|f|^2 g dμ)^{1/2}: the weak-2 norm is σ_max(F √(gμ))
        mu = np.array([1.0, 0.5, 2.0])
        g = np.array([0.5, 1.0, 0.8])
        S = dirac_space(make_space(mu, 2.0), ExponentTriple(p=2.0, q=2.0), g)
        F = np.random.default_rng(0).normal(size=(2, 3))
        exact = np.linalg.svd(F * np.sqrt(g * mu), compute_uv=False)[0]
        assert weak_q_norm(S, F, 2.0, budget=4) == pytest.approx(exact,
                                                                 rel=1e-12)

    def test_p_equals_q_mixture_is_its_weighted_lebesgue_space(self):
        # at p = q = 2 the two-block mixture is s(f) = (∫|f|^2 0.5 g dμ)^{1/2}
        mu = np.array([1.0, 0.5, 2.0])
        g = np.array([0.5, 1.0, 0.8])
        S = partition_space(make_space(mu, 2.0), ExponentTriple(p=2.0, q=2.0),
                            g, [[0], [1, 2]], [0.5, 0.5])
        F = np.random.default_rng(0).normal(size=(2, 3))
        exact = np.linalg.svd(F * np.sqrt(0.5 * g * mu), compute_uv=False)[0]
        assert exact == pytest.approx(0.691737, rel=1e-6)
        assert weak_q_norm(S, F, 2.0, budget=4) == pytest.approx(exact,
                                                                 rel=1e-12)


class TestOneVectorDenominators:
    """A family of one vector has its norm as both dual-ball denominators."""

    @staticmethod
    def cases():
        mu = [1.0, 2.0, 0.5]
        return [
            # weak-q: dual-sphere ascent; sup side: curved fixed point
            ("L^1.5", make_space(mu, 1.5), E12),
            ("L^3", make_space(mu, 3.0), E12),
            ("L^3, (p, q) = (2, 4)", make_space(mu, 3.0),
             ExponentTriple(p=2.0, q=4.0)),
            # weak-q: Köthe dual route; sup side: brute-force fallback
            ("2-atom partition", partition_space(
                make_space(mu, 1.5), E12, np.full(3, 0.5), [[0], [1, 2]],
                [0.5, 0.5]), E12),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_both_denominators_are_the_norm(self, case):
        route, X, e = self.cases()[case]
        rng = np.random.default_rng(71)
        for _ in range(10):
            f = rng.normal(size=3)
            norm = X.norm(f)
            assert weak_q_norm(X, f[None, :], e.q, budget=4) == pytest.approx(
                norm, rel=1e-12), route
            assert family_sup_lhs(X, e, f[None, :]) == pytest.approx(
                norm, rel=1e-12), route

    def test_unsaturated_mixture_still_raises(self):
        X = make_space([1.0, 1.0, 1.0], 1.0)
        h = DualVector(h=np.array([1.0, 1.0, 0.0]), certified_norm=1.0)
        S = SNormSpace(base=X, e=E12, xi=DiscreteRadonMeasure.from_pairs(
            [(h, 1.0)]))
        assert not S.saturated
        rng = np.random.default_rng(72)
        for F in (rng.normal(size=(1, 3)), rng.normal(size=(2, 3)),
                  rng.normal(size=(4, 1, 3))):
            with pytest.raises(UnsaturatedSpaceError):
                weak_q_norm(S, F, 2.0, budget=4)
            with pytest.raises(UnsaturatedSpaceError):
                family_sup_lhs(S, E12, F)
        # a zero family is 0 without touching the norm
        assert weak_q_norm(S, np.zeros((1, 3)), 2.0) == 0.0
        assert family_sup_lhs(S, E12, np.zeros((1, 3))) == 0.0


class TestSingletonIdentity:
    """Singleton families make every ratio ``‖Tf‖ / ‖f‖``."""

    def test_all_ratios_coincide(self):
        T = random_operator(3, 3, [73], s=1.5)
        X = T.domain
        rng = np.random.default_rng(73)
        for _ in range(10):
            f = rng.normal(size=3)
            ratio = T.codomain_norm(T.apply(f)) / X.norm(f)
            F = f[None, :]
            assert q_concavity_ratio(T, 2.0, F) == pytest.approx(ratio,
                                                                 rel=1e-12)
            assert pq_concavity_ratio(T, E12, F) == pytest.approx(ratio,
                                                                  rel=1e-12)
            assert q_summing_ratio(T, 2.0, F) == pytest.approx(ratio,
                                                               rel=1e-12)

    def test_operator_norm_witness_replays_as_q_summing(self):
        T = random_operator(3, 3, [74], s=1.5)
        est = operator_norm_estimate(T, budget=8, seed=0)
        assert q_summing_ratio(T, 2.0, np.vstack(est.witness)) == \
            pytest.approx(est.value, rel=1e-12)


class TestQConcavity:
    def test_identity_on_matching_exponent(self):
        X = make_space([1, 1, 1], 2)
        est = q_concavity_estimate(identity_operator(X), 2.0, budget=8, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.zeros((2, 2)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        est = q_concavity_estimate(T, 2.0, budget=4, seed=0)
        assert est.value == 0.0 and est.witness == ()

    def test_diagonal_operator_reaches_top_singular_ratio(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.diag([2.0, 1.0]), domain=X,
                           codomain=EuclideanNorm(dim=2))
        est = q_concavity_estimate(T, 2.0, budget=16, seed=0)
        assert est.value >= 2.0 - 1e-9
        assert est.value <= 2.0 + 1e-9  # see derivation: M_2(T) = 2 here

    def test_witness_replay(self):
        X = make_space([1, 1, 1], 1)
        rng = np.random.default_rng(17)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        est = q_concavity_estimate(T, 2.0, budget=8, seed=5)
        replay = q_concavity_ratio(T, 2.0, est.witness_matrix)
        assert replay == pytest.approx(est.value, rel=1e-9)


class TestPqConcavity:
    def test_identity_is_one_for_any_q(self):
        for p, q in ((1.0, 2.0), (2.0, 3.0), (2.0, 2.0)):
            X = make_space([1, 1], p)
            est = pq_concavity_estimate(identity_operator(X),
                                        ExponentTriple(p=p, q=q),
                                        budget=6, seed=0)
            assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.zeros((1, 2)), domain=X,
                           codomain=EuclideanNorm(dim=1))
        est = pq_concavity_estimate(T, ExponentTriple(p=1.0, q=2.0),
                                    budget=4, seed=0)
        assert est.value == 0.0 and est.witness == ()

    def test_equal_exponents_reproduce_q_concavity_bitwise(self):
        X = make_space([1.0, 0.7, 1.3], 2)
        rng = np.random.default_rng(23)
        T = LinearOperator(matrix=rng.normal(size=(2, 3)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        a = q_concavity_estimate(T, 2.0, budget=10, seed=42)
        b = pq_concavity_estimate(T, ExponentTriple(p=2.0, q=2.0),
                                  budget=10, seed=42)
        assert a.value == b.value
        assert np.array_equal(a.witness_matrix, b.witness_matrix)

    def test_witness_replay(self):
        X = make_space([1, 1], 1)
        rng = np.random.default_rng(29)
        T = LinearOperator(matrix=rng.normal(size=(2, 2)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        e = ExponentTriple(p=1.0, q=2.0)
        est = pq_concavity_estimate(T, e, budget=8, seed=7)
        replay = pq_concavity_ratio(T, e, est.witness_matrix)
        assert replay == pytest.approx(est.value, rel=1e-9)


class TestQSumming:
    def test_rank_one_functional_equals_operator_norm(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.array([[1.0, 1.0]]), domain=X,
                           codomain=EuclideanNorm(dim=1))
        est = q_summing_estimate(T, 2.0, budget=12, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_operator(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.zeros((1, 2)), domain=X,
                           codomain=EuclideanNorm(dim=1))
        assert q_summing_estimate(T, 2.0, budget=4, seed=0).value == 0.0

    def test_identity_on_hilbert_pair_reaches_sqrt_dim(self):
        X = make_space([1, 1], 2)
        small = q_summing_estimate(identity_operator(X), 2.0, budget=8, seed=1)
        big = q_summing_estimate(identity_operator(X), 2.0, budget=40, seed=1)
        assert small.value <= big.value  # budget monotonicity
        assert big.value <= math.sqrt(2) + 1e-9
        assert big.value >= math.sqrt(2) - 1e-3

    def test_witness_replay(self):
        X = make_space([1, 1], 1)
        rng = np.random.default_rng(31)
        T = LinearOperator(matrix=rng.normal(size=(2, 2)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        est = q_summing_estimate(T, 2.0, budget=8, seed=3)
        replay = q_summing_ratio(T, 2.0, est.witness_matrix, seed=3)
        assert replay == pytest.approx(est.value, rel=1e-6)


class TestOperatorNorm:
    def test_matches_dense_search_on_l1(self):
        # on the unweighted 1-norm ball the operator norm is the largest
        # column image norm
        rng = np.random.default_rng(37)
        for _ in range(10):
            M = rng.normal(size=(3, 3))
            X = make_space([1, 1, 1], 1)
            T = LinearOperator(matrix=M, domain=X, codomain=EuclideanNorm(dim=3))
            expected = max(np.linalg.norm(M[:, j]) for j in range(3))
            est = operator_norm_estimate(T, budget=8, seed=0)
            assert est.value == pytest.approx(expected, rel=1e-9)

    def test_spectral_norm_on_l2(self):
        rng = np.random.default_rng(41)
        M = rng.normal(size=(3, 3))
        X = make_space([1, 1, 1], 2)
        T = LinearOperator(matrix=M, domain=X, codomain=EuclideanNorm(dim=3))
        est = operator_norm_estimate(T, budget=12, seed=0)
        assert est.value == pytest.approx(np.linalg.svd(M, compute_uv=False)[0],
                                          rel=1e-7)

    def test_scaling_the_operator_scales_the_estimate(self):
        T = random_operator(3, 3, [1], s=2.0)
        ref = operator_norm_estimate(T).value
        for c in (1e-8, 1e-6, 1e-4, 1e4, 1e8):
            cT = LinearOperator(matrix=c * T.matrix, domain=T.domain,
                                codomain=T.codomain)
            assert operator_norm_estimate(cT).value / c == pytest.approx(
                ref, rel=1e-12)


class TestFamilySearchScale:
    """The family search's gain tests are relative, so T -> cT scales M."""

    @pytest.mark.parametrize("kind", ["M_q", "M_pq"])
    def test_scaling_the_operator_scales_the_estimate(self, kind):
        T = random_operator(3, 3, [5], s=1.0)
        e = ExponentTriple(p=1.0, q=2.0)

        def estimate(op):
            if kind == "M_q":
                return q_concavity_estimate(op, e.q, budget=4).value
            return pq_concavity_estimate(op, e, budget=4).value

        ref = estimate(T)
        for c in (1e-8, 1e8):
            cT = LinearOperator(matrix=c * T.matrix, domain=T.domain,
                                codomain=T.codomain)
            assert estimate(cT) / c == pytest.approx(ref, rel=1e-12)


class TestChainReport:
    def test_identity_single_atom_all_equal_one(self):
        X = make_space([1.0], 1)
        report = constant_chain_report(identity_operator(X),
                                       ExponentTriple(p=1.0, q=2.0),
                                       budget=6, seed=0)
        for value in report["chain"].values():
            assert value == pytest.approx(1.0, abs=1e-6)
        assert report["chain_ok"]

    def test_identity_multi_atom_first_three_equal_one(self):
        X = make_space([1, 1, 1], 1)
        report = constant_chain_report(identity_operator(X),
                                       ExponentTriple(p=1.0, q=2.0),
                                       budget=8, seed=0)
        chain = report["chain"]
        assert chain["operator_norm"] == pytest.approx(1.0, abs=1e-6)
        assert chain["M_q"] == pytest.approx(1.0, abs=1e-6)
        assert chain["M_pq"] == pytest.approx(1.0, abs=1e-6)
        assert chain["pi_q"] >= 1.0 - 1e-6

    def test_zero_operator_chain(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.zeros((2, 2)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        report = constant_chain_report(T, ExponentTriple(p=1.0, q=2.0),
                                       budget=4, seed=0)
        assert all(v == 0.0 for v in report["chain"].values())

    def test_random_operators_chain_monotone(self):
        rng = np.random.default_rng(43)
        for trial in range(5):
            X = make_space(rng.uniform(0.5, 2.0, size=3), 1)
            T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                               codomain=EuclideanNorm(dim=3))
            report = constant_chain_report(T, ExponentTriple(p=1.0, q=2.0),
                                           budget=8, seed=trial)
            c = report["chain"]
            assert c["operator_norm"] <= c["M_q"] + 1e-9
            assert c["M_q"] <= c["M_pq"] + 1e-9
            assert c["M_pq"] <= c["pi_q"] + 1e-9


class TestEstimatorContracts:
    def test_deterministic_given_seed(self):
        X = make_space([1, 1, 1], 1)
        rng = np.random.default_rng(47)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        a = q_concavity_estimate(T, 2.0, budget=6, seed=9)
        b = q_concavity_estimate(T, 2.0, budget=6, seed=9)
        assert a.value == b.value
        assert np.array_equal(a.witness_matrix, b.witness_matrix)

    def test_budget_monotone(self):
        X = make_space([1, 1, 1], 1)
        rng = np.random.default_rng(53)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        values = [q_concavity_estimate(T, 2.0, budget=b, seed=2).value
                  for b in (2, 4, 8, 16)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))
