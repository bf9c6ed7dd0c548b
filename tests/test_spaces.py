import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfact import (DimensionMismatchError, DiscreteRadonMeasure,
                     EuclideanNorm, ExponentTriple, MeasureSpace,
                     NotPConvexError, SNormSpace, WeightedLebesgue,
                     attainment_point, brute_force_family_sup, dirac_space,
                     dual_norm_rows, extreme_dual_vectors,
                     family_sup_lhs, find_domination_measure,
                     identity_operator, p_convexity_estimate,
                     partition_space, pth_power_norm, weak_q_norm)
from latfact.spaces import (MAX_ATOMS, dual_norm_of_pth_power,
                            linear_sup_over_ball, power_mean)
from conftest import make_space


class TestMeasureSpace:
    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            MeasureSpace(weights=[1.0, 0.0])
        with pytest.raises(ValueError):
            MeasureSpace(weights=[])

    def test_equality_and_immutability(self):
        a = MeasureSpace(weights=[1.0, 2.0])
        b = MeasureSpace(weights=[1.0, 2.0])
        assert a == b and hash(a) == hash(b)
        with pytest.raises(ValueError):
            a.weights[0] = 3.0

    def test_atom_limit(self):
        assert MAX_ATOMS == 12
        assert MeasureSpace(weights=np.ones(12)).n == 12
        with pytest.raises(ValueError, match="13 atoms, above the limit of 12"):
            MeasureSpace(weights=np.ones(13))


class TestValueEquality:
    def test_euclidean_norms(self):
        assert EuclideanNorm(dim=3) == EuclideanNorm(dim=3)
        assert hash(EuclideanNorm(dim=3)) == hash(EuclideanNorm(dim=3))
        assert EuclideanNorm(dim=3) != EuclideanNorm(dim=4)

    def test_weighted_lebesgue_norms(self):
        a = make_space([1.0, 2.0], 1.5)
        b = make_space(np.array([1.0, 2.0]), 1.5)
        assert a == b and hash(a) == hash(b)
        assert a != make_space([1.0, 2.0], 2.0)
        assert a != make_space([1.0, 3.0], 1.5)
        assert a != make_space([1.0, 2.0, 1.0], 1.5)


class TestLebesgueNorm:
    def test_example_values(self):
        assert make_space([1, 1], 2).norm([3, 4]) == pytest.approx(5.0, abs=1e-12)
        assert make_space([2, 1], 1).norm([1, 1]) == pytest.approx(3.0, abs=1e-12)
        assert make_space([1, 1, 1], 3).norm([0, 0, 0]) == 0.0

    def test_dimension_and_finiteness_errors(self):
        X = make_space([1, 1], 2)
        with pytest.raises(DimensionMismatchError):
            X.norm([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            X.norm([np.inf, 0.0])

    def test_one_vector_is_a_stack_of_one(self):
        rng = np.random.default_rng(29)
        cases = [(rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3),
                  rng.uniform(0.5, 2.0, size=n), e)
                 for n in range(1, MAX_ATOMS + 1)
                 for e in (1.0, 1.5, 2.0, 3.7, 200.0)]
        cases += [(np.zeros(4), np.ones(4), e) for e in (1.0, 2.0, 200.0)]
        for v, w, e in cases:
            value = power_mean(v, e, w)
            assert isinstance(value, float)
            assert value == power_mean(v[None], e, w)[0]
            # the closed form of one vector as a stack of one: one product
            # per vector and an array root, never a 0-d scalar power
            a = np.abs(v)[None]
            m = a.max(axis=1)
            assert value == (0.0 if m[0] == 0.0 else float(
                (m * np.einsum("kj,j->k", (a / m[:, None]) ** e, w)
                 ** (1.0 / e))[0]))

    def test_large_exponent_is_stable(self):
        X = make_space([1, 1], 200.0)
        assert X.norm([2.0, 2.0]) == pytest.approx(2.0 * 2.0 ** (1 / 200.0))

    @pytest.mark.parametrize("s,weights", [(1.0, [1, 1, 1]), (2.0, [0.5, 2, 1]),
                                           (3.5, [1, 1, 1, 1])])
    def test_norm_axioms_on_random_triples(self, s, weights):
        X = make_space(weights, s)
        rng = np.random.default_rng(7)
        for _ in range(1000):
            f = rng.normal(size=X.n)
            g = rng.normal(size=X.n)
            a = rng.normal()
            nf, ng = X.norm(f), X.norm(g)
            assert X.norm(f + g) <= nf + ng + 1e-10 * (nf + ng)
            assert X.norm(a * f) == pytest.approx(abs(a) * nf, rel=1e-10, abs=1e-12)
            smaller = np.sign(g) * np.minimum(np.abs(f), np.abs(g))
            assert X.norm(smaller) <= ng * (1 + 1e-10)

    def test_norm_rows_matches_scalar(self):
        X = make_space([0.5, 1.5, 1.0], 2.5)
        rng = np.random.default_rng(3)
        F = rng.normal(size=(20, 3))
        np.testing.assert_allclose(X.norm_rows(F),
                                   [X.norm(f) for f in F], rtol=1e-13)


class TestPthPower:
    def test_example_values(self):
        X = make_space([1, 1], 2)
        assert pth_power_norm(X, 2.0, [1, 3]) == pytest.approx(4.0, abs=1e-12)
        assert pth_power_norm(X, 2.0, [0, 0]) == 0.0
        X4 = make_space([1, 1], 4)
        assert pth_power_norm(X4, 2.0, [1, 1]) == pytest.approx(math.sqrt(2))

    def test_closed_form_matches_definition(self):
        X = make_space([0.7, 1.3, 1.0], 3.0)
        rng = np.random.default_rng(11)
        for _ in range(50):
            f = rng.normal(size=3)
            direct = X.norm(np.abs(f) ** (1 / 1.5)) ** 1.5
            assert pth_power_norm(X, 1.5, f) == pytest.approx(direct, rel=1e-12)

    def test_rejects_p_above_s(self):
        X = make_space([1, 1], 2)
        with pytest.raises(NotPConvexError):
            pth_power_norm(X, 3.0, [1, 1])

    def test_is_a_norm_when_one_convex(self):
        # triangle inequality for the p-th power functional when s >= p
        X = make_space([1, 2, 0.5], 3.0)
        rng = np.random.default_rng(13)
        for _ in range(500):
            f = rng.normal(size=3)
            g = rng.normal(size=3)
            lhs = pth_power_norm(X, 2.0, f + g)
            rhs = pth_power_norm(X, 2.0, f) + pth_power_norm(X, 2.0, g)
            assert lhs <= rhs * (1 + 1e-10)


class TestKotheDual:
    def test_example_values(self):
        assert dual_norm_of_pth_power(make_space([1, 1], 1), 1.0, [2, 3]) == pytest.approx(3.0)
        assert dual_norm_of_pth_power(make_space([1, 1], 2), 1.0, [3, 4]) == pytest.approx(5.0)
        assert dual_norm_of_pth_power(make_space([1, 1], 2), 1.0, [0, 0]) == 0.0

    def test_closed_vs_numeric_agreement(self):
        rng = np.random.default_rng(17)
        for s in (1.0, 1.5, 2.0, 3.0):
            for n in (2, 4, 6):
                X = make_space(rng.uniform(0.5, 2.0, size=n), s)
                for _ in range(5):
                    h = np.abs(rng.normal(size=n))
                    closed = dual_norm_of_pth_power(X, 1.0, h)
                    numeric = linear_sup_over_ball(X, 1.0, h)
                    assert numeric == pytest.approx(closed, rel=1e-7)

    def test_holder_inequality(self):
        rng = np.random.default_rng(19)
        for s in (1.0, 2.0, 2.7):
            X = make_space(rng.uniform(0.5, 2.0, size=4), s)
            for _ in range(300):
                f = rng.normal(size=4)
                h = rng.normal(size=4)
                pairing = float(np.sum(np.abs(h * f) * X.space.weights))
                bound = X.norm(f) * dual_norm_of_pth_power(X, 1.0, h)
                assert pairing <= bound * (1 + 1e-10) + 1e-12


class TestDualNormRows:
    # (s, p): sigma = s/p is 1 (the cube), 3, 2 and 1.5 (sigma' <= 64), and
    # 1.01 (sigma' = 101, the scaled power mean)
    @pytest.mark.parametrize("s, p", [(1.0, 1.0), (2.0, 2.0), (3.0, 1.0),
                                      (4.0, 2.0), (1.5, 1.0), (1.01, 1.0)])
    def test_stack_matches_single_rows_on_lebesgue(self, s, p):
        rng = np.random.default_rng(23)
        X = make_space(rng.uniform(0.5, 2.0, size=5), s)
        H = np.abs(rng.normal(size=(3, 4, 5)))
        H[0, 0] = 0.0
        stacked = dual_norm_rows(X, p, H)
        assert stacked.shape == (3, 4)
        single = [[dual_norm_rows(X, p, h) for h in rows] for rows in H]
        assert all(isinstance(v, float) for row in single for v in row)
        np.testing.assert_allclose(stacked, single, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(dual_norm_rows(X, p, H[1]), single[1],
                                   rtol=1e-14, atol=0.0)
        assert stacked[0, 0] == 0.0

    @pytest.mark.parametrize("s, p", [(3.0, 1.0), (1.01, 1.0)])
    def test_single_vector_is_the_power_mean(self, s, p):
        # one vector is a stack of one; above sigma' = 64 (s = 1.01) the
        # stack takes the scaled power mean
        rng = np.random.default_rng(27)
        X = make_space(rng.uniform(0.5, 2.0, size=4), s)
        sigma = s / p
        for h in np.abs(rng.normal(size=(20, 4))):
            value = dual_norm_rows(X, p, h)
            assert value == dual_norm_rows(X, p, h[None])[0]
            if sigma / (sigma - 1.0) > 64.0:
                assert value == power_mean(h, sigma / (sigma - 1.0),
                                           X.space.weights)

    def test_dirac_mixture_is_refused_although_it_collapses(self):
        # the p-th power of the dirac space with weight g is f -> ∫|f| g dμ,
        # whose Köthe dual norm against μ is max(h / g); the weighted L^p
        # space it collapses to pairs against g μ instead and reads max |h|,
        # so a weight row of the mixture has no closed norm and is refused
        rng = np.random.default_rng(29)
        X = make_space(rng.uniform(0.5, 2.0, size=3), 2.0)
        g0 = rng.uniform(0.5, 2.0, size=3)
        g = g0 / g0.max()
        S = dirac_space(X, ExponentTriple(p=2.0, q=3.0), g)
        H = np.abs(rng.normal(size=(4, 3)))
        with pytest.raises(ValueError, match="not a weighted Lebesgue"):
            dual_norm_rows(S, 2.0, H)
        collapsed = make_space(g * X.space.weights, 2.0)
        assert np.array_equal(dual_norm_rows(collapsed, 2.0, H),
                              H.max(axis=1))
        assert not np.allclose(H.max(axis=1), (H / g).max(axis=1))


E23 = ExponentTriple(p=2.0, q=3.0)


@pytest.mark.parametrize("entry", [
    lambda X: dual_norm_rows(X, 2.0, np.ones((3, 2))),
    lambda X: dual_norm_rows(X, 2.0, np.ones(2)),
    lambda X: dual_norm_of_pth_power(X, 2.0, [1.0, 1.0]),
    lambda X: extreme_dual_vectors(X, 2.0),
    lambda X: dirac_space(X, E23, [0.5, 0.5]),
    lambda X: SNormSpace(base=X, e=E23, xi=DiscreteRadonMeasure(
        atoms=[[0.5, 0.5]], masses=[1.0])),
    lambda X: attainment_point(X, E23, [[1.0, 0.5]]),
    lambda X: attainment_point(X, ExponentTriple(p=2.0, q=2.0), [[1.0, 0.5]]),
], ids=["dual_norm_rows-stack", "dual_norm_rows-vector",
        "dual_norm_of_pth_power", "extreme_dual_vectors", "dirac_space",
        "SNormSpace", "attainment_point", "attainment_point-p=q"])
def test_dual_ball_entry_points_reject_a_domain_that_is_not_p_convex(entry):
    # L^1 is not 2-convex: its square-root power is no norm, so no dual ball
    with pytest.raises(NotPConvexError):
        entry(make_space([1.0, 2.0], 1.0))


E12 = ExponentTriple(p=1.0, q=2.0)
_FAMILY = np.array([[1.0, -0.5, 0.25], [0.3, 0.8, -1.0]])


@pytest.mark.parametrize("entry", [
    lambda S: dual_norm_rows(S, 1.0, np.ones((2, 3))),
    lambda S: attainment_point(S, E12, _FAMILY),
    lambda S: family_sup_lhs(S, E12, _FAMILY),
    lambda S: family_sup_lhs(S, E12, _FAMILY[:1]),
    lambda S: weak_q_norm(S, _FAMILY, 2.0, budget=4),
    lambda S: weak_q_norm(S, _FAMILY[:1], 2.0, budget=4),
    lambda S: brute_force_family_sup(S, E12, _FAMILY, step=0.1),
    lambda S: find_domination_measure(identity_operator(S), E12),
    lambda S: SNormSpace(base=S, e=E12, xi=DiscreteRadonMeasure(
        atoms=[[0.5, 0.5, 0.5]], masses=[1.0])),
], ids=["dual_norm_rows", "attainment_point", "family_sup_lhs",
        "family_sup_lhs-one-vector", "weak_q_norm", "weak_q_norm-one-vector",
        "brute_force_family_sup", "find_domination_measure",
        "SNormSpace-on-a-mixture"])
def test_dual_ball_entry_points_reject_a_domain_that_is_not_lebesgue(entry):
    # a two-block mixture at q > p is no weighted L^p space: its dual ball
    # has no closed form, so no value or weight row is computed on it
    X = make_space([1.0, 2.0, 0.5], 1.5)
    S = partition_space(X, E12, np.full(3, 0.5), [[0], [1, 2]], [0.5, 0.5])
    with pytest.raises(ValueError, match="not a weighted Lebesgue"):
        entry(S)


class TestExponentTriple:
    def test_conjugacy(self):
        e = ExponentTriple(p=1.0, q=2.0)
        assert e.r == pytest.approx(2.0)
        assert ExponentTriple(p=2.0, q=3.0).r == pytest.approx(6.0)

    def test_extreme_marker(self):
        assert ExponentTriple(p=2.0, q=2.0).is_extreme
        assert not ExponentTriple(p=2.0, q=2.5).is_extreme

    @given(p=st.floats(1.0, 4.0), bump=st.floats(0.01, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_conjugate_identity_on_random_exponents(self, p, bump):
        e = ExponentTriple(p=p, q=p + bump)
        assert abs(1.0 / e.p - 1.0 / e.r - 1.0 / e.q) <= 1e-12

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            ExponentTriple(p=0.5, q=2.0)
        with pytest.raises(ValueError):
            ExponentTriple(p=3.0, q=2.0)
        with pytest.raises(ValueError):
            ExponentTriple(p=1.0, q=math.inf)


class TestDualBallSampling:
    def test_extreme_patterns_on_sup_ball(self):
        X = make_space([1, 1], 1)
        vectors = {tuple(h) for h in extreme_dual_vectors(X, 1.0)}
        assert {(1.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.0, 0.0)} <= vectors

    def test_all_samples_certified(self, lebesgue2):
        # p = 1: the dual ball of L^2 is curved, so the rows are scaled
        H = extreme_dual_vectors(lebesgue2, 1.0)
        assert H.shape == (4, 2) and np.all(H >= 0.0)
        norms = [dual_norm_of_pth_power(lebesgue2, 1.0, h) for h in H]
        assert max(norms) <= 1.0 + 1e-9
        assert norms[:-1] == pytest.approx([1.0] * 3, rel=1e-12)


class TestPConvexityEstimate:
    def test_equality_cases(self):
        X = make_space([1, 1, 1], 2)
        est = p_convexity_estimate(X, 2.0, budget=12, seed=0)
        assert est.value == pytest.approx(1.0, abs=1e-9)
        est1 = p_convexity_estimate(make_space([1, 1], 1), 1.0, budget=8, seed=0)
        assert est1.value == pytest.approx(1.0, abs=1e-9)

    def test_l1_two_convexity_reaches_oracle_value(self):
        # exhaustive small-grid oracle over two-element families on 2 atoms
        X = make_space([1, 1], 1)
        grid = np.linspace(-1.0, 1.0, 7)
        best = 0.0
        for a in grid:
            for b in grid:
                for c in grid:
                    for d in grid:
                        F = np.array([[a, b], [c, d]])
                        den = math.sqrt(X.norm(F[0]) ** 2 + X.norm(F[1]) ** 2)
                        if den == 0:
                            continue
                        num = X.norm(np.sqrt((F ** 2).sum(axis=0)))
                        best = max(best, num / den)
        assert best == pytest.approx(math.sqrt(2), rel=1e-12)
        est = p_convexity_estimate(X, 2.0, budget=24, seed=1)
        assert est.value >= best - 1e-6

    def test_budget_monotone_and_deterministic(self):
        X = make_space([1.0, 0.5, 2.0], 1)
        small = p_convexity_estimate(X, 2.0, budget=4, seed=3)
        big = p_convexity_estimate(X, 2.0, budget=12, seed=3)
        again = p_convexity_estimate(X, 2.0, budget=12, seed=3)
        assert small.value <= big.value
        assert big.value == again.value

    def test_witness_replays_value(self):
        X = make_space([1, 1], 1)
        est = p_convexity_estimate(X, 2.0, budget=12, seed=2)
        F = np.vstack(est.witness)
        num = X.norm(np.sqrt((F ** 2).sum(axis=0)))
        den = math.sqrt(float(np.sum(X.norm_rows(F) ** 2)))
        assert est.value == pytest.approx(num / den, rel=1e-9)
