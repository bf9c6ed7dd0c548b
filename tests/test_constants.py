import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from latfact import (EuclideanNorm, ExponentTriple, LinearOperator,
                     attainment_point, brute_force_family_sup,
                     constant_chain_report, extension_norm_estimate,
                     family_sup_lhs, family_sup_rhs,
                     identity_operator, operator_norm_estimate,
                     pq_concavity_estimate, pq_concavity_ratio,
                     q_concavity_estimate, q_concavity_ratio,
                     q_summing_estimate, q_summing_ratio, weak_q_norm)
from latfact import constants
from latfact.snorm import (DiscreteRadonMeasure, SNormSpace, dirac_space,
                           partition_space)
from latfact.estimates import family_search
from latfact.search import projected_ascent
from latfact.spaces import NotPConvexError, extreme_dual_vectors
from latfact.suite import lemma_instances, random_operator
from conftest import make_space
from reference import weak_q_reference

E12 = ExponentTriple(p=1.0, q=2.0)
WEAK_Q_CAP_WITNESS = Path(__file__).parent / "data" / "weak_q_cap_witness.npz"


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
            grid = np.vstack([extreme_dual_vectors(X, e.p),
                              attainment_point(X, e, F)])
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
        h = attainment_point(X, e, F)
        assert h[2] == 0.0
        assert abs(float((h ** sigma_dual) @ mu) ** (1.0 / sigma_dual)
                   - 1.0) <= 1e-12
        g = (np.abs(F) ** p).sum(axis=0)
        psi = float((g * mu) @ h)
        g_norm = float((g ** sigma) @ mu) ** (1.0 / sigma)
        assert abs(psi - g_norm) <= 1e-12 * g_norm
        fixed_point = float(constants._curved_dual_sup(X, e, F[None])[0][0])
        assert psi ** (1.0 / p) >= fixed_point * (1.0 - 1e-12)


class TestClosedCurvedRoute:
    """At ``sigma = s/p = 2`` and ``t = q/p = 2`` the curved dual-ball
    supremum is a top singular value, and its weight attains it."""

    @staticmethod
    def assert_exact(X, e, F):
        value = family_sup_lhs(X, e, F)
        assert value == pytest.approx(brute_force_family_sup(X, e, F),
                                      rel=1e-12, abs=0.0)
        h = attainment_point(X, e, F)
        assert np.all(h >= 0.0)
        sigma = X.s / e.p
        norm = float((h ** (sigma / (sigma - 1.0))) @ X.space.weights) ** (
            (sigma - 1.0) / sigma)
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert family_sup_rhs(X, e, F, h[None]) == pytest.approx(
            value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("s, p, q", [(2.0, 1.0, 2.0), (4.0, 2.0, 4.0)])
    def test_matches_brute_force(self, s, p, q):
        rng = np.random.default_rng([83, int(s)])
        X = make_space(rng.uniform(0.5, 2.0, size=3), s)
        for m in (2, 3):
            for _ in range(4):
                self.assert_exact(X, ExponentTriple(p=p, q=q),
                                  rng.normal(size=(m, 3)))

    @pytest.mark.parametrize("s, p, q", [(2.0, 1.0, 2.0), (4.0, 2.0, 4.0)])
    def test_repeated_top_value_on_disjoint_supports(self, s, p, q):
        # |F|^p sqrt(μ) has the top singular value 1 twice, and the third
        # vector's value is below it
        F = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.5]])
        self.assert_exact(make_space([1.0, 1.0, 2.0], s),
                          ExponentTriple(p=p, q=q), F)


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
        H = rng.normal(size=(200000, 3))
        nrm = np.sum(np.abs(H) ** s_dual * X.space.weights,
                     axis=1) ** (1 / s_dual)
        H = H / nrm[:, None]
        best = float(np.max(np.sum(np.abs(H @ (F * X.space.weights).T) ** 2,
                                   axis=1) ** 0.5))
        got = weak_q_norm(X, F, 2.0, seed=1)
        assert got >= best - 1e-4
        assert got <= best * (1 + 5e-3)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("s", [1.5, 3.0])
    def test_matches_the_dense_grid_reference_at_n2(self, s, q):
        # tests/reference.py grids the unit circle of L^{s'}(μ); its error
        # bounds how far the supremum can lie above the grid value
        rng = np.random.default_rng([47, int(2 * s), int(2 * q)])
        mu = rng.uniform(0.5, 2.0, size=2)
        X = make_space(mu, s)
        for m in (2, 3, 4):
            for _ in range(3):
                F = rng.normal(size=(m, 2))
                ref, err = weak_q_reference(F, mu, s, q)
                eps = err / ref
                got = weak_q_norm(X, F, q, budget=8, seed=0)
                assert ref * (1.0 - eps) <= got <= ref * (1.0 + eps)

    @pytest.mark.xfail(strict=True, reason=(
        "the 60-step cap of the weak-q fixed point stops this family "
        "1.76e-3 below the value it reaches after 155 steps (ROADMAP item 8)"))
    def test_cap_reaches_the_uncapped_fixed_point(self):
        # the 8-vector π_q witness of
        # q_summing_estimate(random_operator(4, 4, [4], s=2.0), 3.0,
        # budget=24, seed=[0, 3]); tests/data/README.md
        T = random_operator(4, 4, [4], s=2.0)
        F = np.load(WEAK_Q_CAP_WITNESS)["F"]
        got = weak_q_norm(T.domain, F, 3.0, budget=8, seed=[0, 3])
        assert got >= 1.6525772984820815 * (1.0 - 1e-12)

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
        ]

    @pytest.mark.parametrize("case", range(3))
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

    def test_unsaturated_mixture_is_refused(self):
        # an unsaturated one-atom mixture collapses to no weighted L^p
        # space, so both denominators refuse it, the zero family included
        X = make_space([1.0, 1.0, 1.0], 1.0)
        S = SNormSpace(base=X, e=E12, xi=DiscreteRadonMeasure.from_pairs(
            [([1.0, 1.0, 0.0], 1.0)]))
        assert not S.saturated
        rng = np.random.default_rng(72)
        for F in (rng.normal(size=(1, 3)), rng.normal(size=(2, 3)),
                  rng.normal(size=(4, 1, 3)), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="not a weighted Lebesgue"):
                weak_q_norm(S, F, 2.0, budget=4)
            with pytest.raises(ValueError, match="not a weighted Lebesgue"):
                family_sup_lhs(S, E12, F)


class TestCollapsedMixtureDenominators:
    """A mixture at its own p = q is a weighted L^p space, and both
    denominators on it are that space's closed values, bit for bit."""

    def test_partition_mixture_reads_its_weighted_lebesgue_space(self):
        mu = np.array([1.0, 0.5, 2.0])
        g = np.array([0.5, 1.0, 0.8])
        S = partition_space(make_space(mu, 2.0), ExponentTriple(p=2.0, q=2.0),
                            g, [[0], [1, 2]], [0.3, 0.7])
        # (sum_k c_k ∫|f|^2 h_k dμ)^{1/2} = ‖f‖ in L^2((sum_k c_k h_k) μ)
        Y = make_space((S.xi.masses @ S.xi.atoms) * mu, 2.0)
        # (p, q) = (1, 2) on L^2: sigma = t = 2, the SVD routes of both
        F = np.random.default_rng(74).normal(size=(6, 2, 3))
        for got, closed in ((family_sup_lhs(S, E12, F),
                             family_sup_lhs(Y, E12, F)),
                            (weak_q_norm(S, F, 2.0, budget=4),
                             weak_q_norm(Y, F, 2.0, budget=4))):
            assert got.tobytes() == closed.tobytes()
        # the σ = t = 2 closed form σ_max(|F| diag(w μ)^{1/2}), no search
        top = np.linalg.svd(np.abs(F) * np.sqrt(Y.space.weights),
                            compute_uv=False)[:, 0]
        np.testing.assert_allclose(family_sup_lhs(S, E12, F), top,
                                   rtol=1e-12)


class TestSingletonIdentity:
    """Singleton families make every ratio ``‖Tf‖ / ‖f‖``."""

    def test_all_ratios_coincide(self):
        T = random_operator(3, 3, [73], s=1.5)
        X = T.domain
        rng = np.random.default_rng(73)
        for _ in range(10):
            f = rng.normal(size=3)
            ratio = T.codomain.norm(T.matrix @ f) / X.norm(f)
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
        replay = q_concavity_ratio(T, 2.0, np.vstack(est.witness))
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
        assert np.array_equal(np.vstack(a.witness), np.vstack(b.witness))

    def test_witness_replay(self):
        X = make_space([1, 1], 1)
        rng = np.random.default_rng(29)
        T = LinearOperator(matrix=rng.normal(size=(2, 2)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        e = ExponentTriple(p=1.0, q=2.0)
        est = pq_concavity_estimate(T, e, budget=8, seed=7)
        replay = pq_concavity_ratio(T, e, np.vstack(est.witness))
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
        replay = q_summing_ratio(T, 2.0, np.vstack(est.witness), seed=3)
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
        for s in (1.0, 2.0):
            T = random_operator(3, 3, [1], s=s)
            ref = operator_norm_estimate(T).value
            for c in (1e-8, 1e-6, 1e-4, 1e4, 1e8):
                cT = LinearOperator(matrix=c * T.matrix, domain=T.domain,
                                    codomain=T.codomain)
                assert operator_norm_estimate(cT).value / c == pytest.approx(
                    ref, rel=1e-12)


class TestExactOperatorNorm:
    """Weighted L^1 and L^2 domains start the ascent at the maximiser."""

    MU = np.array([0.6, 1.7, 0.9, 1.3])

    @staticmethod
    def operator(s, target=None, seed=71):
        rng = np.random.default_rng(seed)
        M = rng.normal(size=(3, 4))
        codomain = (EuclideanNorm(dim=3) if target is None
                    else make_space([1.4, 0.7, 1.1], target))
        return LinearOperator(matrix=M,
                              domain=make_space(TestExactOperatorNorm.MU, s),
                              codomain=codomain)

    @pytest.mark.parametrize("target", [None, 3.0], ids=["l2", "L3"])
    def test_l1_value_is_the_best_column(self, target):
        T = self.operator(1.0, target)
        expected = max(T.codomain.norm(T.matrix[:, j]) / self.MU[j]
                       for j in range(T.n))
        est = operator_norm_estimate(T, budget=8, seed=0)
        assert est.value == pytest.approx(expected, rel=1e-12)

    def test_l2_value_is_the_top_singular_value(self):
        T = self.operator(2.0)
        expected = np.linalg.svd(T.matrix / np.sqrt(self.MU),
                                 compute_uv=False)[0]
        est = operator_norm_estimate(T, budget=8, seed=0)
        assert est.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("s, target", [(1.0, None), (1.0, 3.0),
                                           (2.0, None)],
                             ids=["L1", "L1-L3", "L2"])
    def test_one_start_row_and_a_replayable_witness(self, monkeypatch,
                                                       s, target):
        T = self.operator(s, target)
        starts = []

        def recording(value_rows, grad_rows, normalize_rows, A0, **kw):
            starts.append(np.array(A0))
            return projected_ascent(value_rows, grad_rows, normalize_rows,
                                    A0, **kw)

        monkeypatch.setattr(constants, "projected_ascent", recording)
        est = operator_norm_estimate(T, budget=8, seed=0)
        assert len(starts) == 1 and starts[0].shape == (1, T.n)
        f = est.witness[0]
        assert T.codomain.norm(T.matrix @ f) / T.domain.norm(f) == \
            pytest.approx(est.value, rel=1e-12)
        assert f[np.flatnonzero(f)[0]] > 0.0

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_zero_operator(self, s):
        T = LinearOperator(matrix=np.zeros((3, 4)),
                           domain=make_space(self.MU, s),
                           codomain=EuclideanNorm(dim=3))
        est = operator_norm_estimate(T, budget=8, seed=0)
        assert est.value == 0.0 and est.witness == ()

    def test_one_atom_mixture_takes_the_l1_closed_form(self):
        T = self.operator(1.0)
        g = np.array([0.5, 1.0, 0.8, 0.3])
        S = SNormSpace(base=T.domain, e=E12,
                       xi=DiscreteRadonMeasure(atoms=g[None], masses=[0.6]))
        w = 0.6 ** (E12.p / E12.q) * g * self.MU
        expected = max(np.linalg.norm(T.matrix[:, j]) / w[j]
                       for j in range(T.n))
        assert extension_norm_estimate(T, S, seed=0) == pytest.approx(
            expected, rel=1e-12)

    def test_equal_exponent_mixture_takes_the_l2_closed_form(self):
        T = self.operator(2.0)
        e = ExponentTriple(p=2.0, q=2.0)
        atoms = np.random.default_rng(73).uniform(0.2, 1.0, size=(3, 4))
        masses = np.array([0.2, 0.3, 0.5])
        S = SNormSpace(base=T.domain, e=e,
                       xi=DiscreteRadonMeasure(atoms=atoms, masses=masses))
        w = masses @ atoms * self.MU
        expected = np.linalg.svd(T.matrix / np.sqrt(w), compute_uv=False)[0]
        assert extension_norm_estimate(T, S, seed=0) == pytest.approx(
            expected, rel=1e-12)


def closed_operator_norm(T: LinearOperator) -> float:
    """``max_j ‖Te_j‖/μ_j`` on weighted L^1, ``σ_max(T diag(μ)^{-1/2})`` on L^2."""
    mu = T.domain.space.weights
    if T.domain.s == 1.0:
        return max(T.codomain.norm(T.matrix[:, j]) / mu[j] for j in range(T.n))
    return float(np.linalg.svd(T.matrix / np.sqrt(mu), compute_uv=False)[0])


# entries away from the underflow range, zero included
_ENTRY = st.floats(-4.0, 4.0).map(lambda x: 0.0 if abs(x) < 1e-3 else x)


@st.composite
def operators_and_families(draw, s):
    """A random ``T : L^s(μ) -> l^2`` and a family of up to four vectors."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    mu = draw(hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    M = draw(hnp.arrays(float, (d, n), elements=_ENTRY))
    F = draw(hnp.arrays(float, (m, n), elements=_ENTRY))
    T = LinearOperator(matrix=M, domain=make_space(mu, s),
                       codomain=EuclideanNorm(dim=d))
    return T, F


class TestNormRouteInequalities:
    """The inequalities that make M_q (s <= q) and M_pq (s = p) equal ‖T‖.

    On L^s with s <= q, Minkowski's inequality in L^{s/q} gives
    ‖(sum_i |f_i|^q)^{1/q}‖_s >= (sum_i ‖f_i‖_s^q)^{1/q}; at s = p the M_pq
    denominator is (sum_i ‖f_i‖_p^q)^{1/q}.  Either way ‖T f_i‖ <=
    ‖T‖ ‖f_i‖_s bounds every ratio by ‖T‖.
    """

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_q_concavity_ratio_is_at_most_the_norm(self, s, data):
        T, F = data.draw(operators_and_families(s))
        q = data.draw(st.sampled_from([s, 1.5 * s, 3.0]))
        assert q_concavity_ratio(T, q, F) <= \
            closed_operator_norm(T) * (1.0 + 1e-12)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pq_ratio_at_s_equal_p_is_at_most_the_norm(self, s, data):
        T, F = data.draw(operators_and_families(s))
        e = ExponentTriple(p=s, q=data.draw(st.sampled_from([s, 1.5 * s, 3.0])))
        assert pq_concavity_ratio(T, e, F) <= \
            closed_operator_norm(T) * (1.0 + 1e-12)

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_operator_norm_estimate_is_the_closed_norm(self, s, data):
        T, _ = data.draw(operators_and_families(s))
        assert operator_norm_estimate(T, budget=4, seed=0).value == \
            pytest.approx(closed_operator_norm(T), rel=1e-12, abs=0.0)

    def test_s_above_q_breaks_the_bound(self):
        # the identity on L^3(1, 1): M_2 >= 2^{1/2 - 1/3} > 1 = ‖id‖, which
        # is why s > q keeps the family search
        T = identity_operator(make_space([1.0, 1.0], 3))
        ratio = q_concavity_ratio(T, 2.0, np.eye(2))
        assert ratio == pytest.approx(2.0 ** (1.0 / 6.0), rel=1e-14)
        assert operator_norm_estimate(T, budget=4).value == pytest.approx(1.0)


class TestNormRoutes:
    """M_q at s <= q and M_pq at s = p (or p = q, s <= q) read ‖T‖ directly
    where it is exact, and the family search runs everywhere else."""

    BUDGET = 3

    @staticmethod
    def one_atom_mixture(T: LinearOperator) -> LinearOperator:
        """T on a saturated one-atom mixture of L^1 at (p, q) = (1, 2)."""
        g = np.linspace(1.0, 0.4, T.n)
        S = SNormSpace(base=T.domain, e=E12,
                       xi=DiscreteRadonMeasure(atoms=g[None], masses=[0.6]))
        return LinearOperator(matrix=T.matrix, domain=S, codomain=T.codomain)

    def sweep(self):
        for s in (1.0, 2.0):
            for q in (2.0, 3.0, 4.0):
                for n in (2, 3, 4):
                    seed = [int(s), int(q), n]
                    yield s, q, random_operator(n, n, seed, s=s), seed
        T = self.one_atom_mixture(random_operator(3, 3, [61], s=1.0))
        for q in (2.0, 3.0):
            yield 1.0, q, T, [61, int(q)]

    def assert_closed(self, est, ratio, searched):
        assert len(est.witness) == 1
        assert est.budget_used == self.BUDGET
        assert ratio(np.vstack(est.witness)) == est.value
        assert est.value >= searched.value * (1.0 - 1e-15)

    def test_closed_values_never_fall_below_the_search(self):
        for s, q, T, seed in self.sweep():
            def q_ratio(F):
                return q_concavity_ratio(T, q, F)

            est = q_concavity_estimate(T, q, budget=self.BUDGET, seed=seed)
            self.assert_closed(est, q_ratio, constants._family_estimate(
                "M_q", q_ratio, T.n, self.BUDGET, seed))
            equal = pq_concavity_estimate(T, ExponentTriple(p=q, q=q),
                                          budget=self.BUDGET, seed=seed)
            assert equal.value == est.value
            assert np.array_equal(np.vstack(equal.witness),
                                  np.vstack(est.witness))
            e = ExponentTriple(p=s, q=q)

            def pq_ratio(F):
                return pq_concavity_ratio(T, e, F)

            est = pq_concavity_estimate(T, e, budget=self.BUDGET, seed=seed)
            self.assert_closed(est, pq_ratio, constants._family_estimate(
                "M_pq", pq_ratio, T.n, self.BUDGET, seed))

    def test_mixture_route_reads_the_norm_of_its_collapse(self):
        T = self.one_atom_mixture(random_operator(3, 3, [61], s=1.0))
        est = pq_concavity_estimate(T, E12, budget=self.BUDGET, seed=0)
        assert len(est.witness) == 1
        assert est.value == pytest.approx(
            operator_norm_estimate(T, budget=self.BUDGET).value, rel=1e-14)

    @pytest.mark.parametrize("s, target, p, q, searches", [
        (1.0, None, 1.0, 2.0, 0), (2.0, None, 2.0, 2.0, 0),
        (1.0, 3.0, 1.0, 2.0, 0), (2.0, None, 1.0, 2.0, 1),
        (2.0, None, 1.5, 1.5, 2), (2.0, 3.0, 2.0, 2.0, 2),
        (1.5, None, 1.5, 2.0, 2), (3.0, None, 1.0, 2.0, 2)],
        ids=["L1", "L2", "L1-L3", "L2-curved", "L2-q1.5", "L2-L3", "L1.5",
             "L3"])
    def test_search_runs_only_off_the_closed_routes(self, monkeypatch, s,
                                                     target, p, q, searches):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return family_search(*args, **kwargs)

        monkeypatch.setattr(constants, "family_search", counting)
        codomain = (EuclideanNorm(dim=2) if target is None
                    else make_space([1.0, 0.8], target))
        T = LinearOperator(matrix=random_operator(2, 2, [67]).matrix,
                           domain=make_space([0.7, 1.3], s), codomain=codomain)
        q_concavity_estimate(T, q, budget=1, seed=0)
        pq_concavity_estimate(T, ExponentTriple(p=p, q=q), budget=1, seed=0)
        assert len(calls) == searches


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
        assert np.array_equal(np.vstack(a.witness), np.vstack(b.witness))

    def test_budget_monotone(self):
        X = make_space([1, 1, 1], 1)
        rng = np.random.default_rng(53)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        values = [q_concavity_estimate(T, 2.0, budget=b, seed=2).value
                  for b in (2, 4, 8, 16)]
        assert all(x <= y + 1e-15 for x, y in zip(values, values[1:]))
