import numpy as np
import pytest

from latfact import (DiscreteRadonMeasure, ExponentTriple,
                     SNormSpace, UnsaturatedSpaceError, dirac_space,
                     family_sup_lhs, inclusion_bound_check, partition_space,
                     xi_saturation_check)
from latfact.schemas import SCHEMA_ID, InstanceError, parse_fields
from latfact.spaces import dual_norm_of_pth_power
from conftest import make_space


@pytest.fixture
def half_half_space():
    # two point masses of weight one half on the two indicator weights
    X = make_space([1, 1], 1)
    xi = DiscreteRadonMeasure.from_pairs([([1, 0], 0.5), ([0, 1], 0.5)])
    return SNormSpace(base=X, e=ExponentTriple(p=1.0, q=2.0), xi=xi)


class TestSNormValues:
    def test_two_atom_mixture(self, half_half_space):
        assert half_half_space.seminorm([1, 1]) == pytest.approx(1.0, abs=1e-12)
        assert half_half_space.seminorm([0, 0]) == 0.0

    def test_full_weight_atom_matches_l1(self):
        X = make_space([1, 1], 1)
        xi = DiscreteRadonMeasure.from_pairs([([1, 1], 1.0)])
        S = SNormSpace(base=X, e=ExponentTriple(p=1.0, q=2.0), xi=xi)
        assert S.seminorm([1, 1]) == pytest.approx(2.0, abs=1e-12)
        assert S.seminorm([1, 1]) == pytest.approx(X.norm([1, 1]), abs=1e-12)

    def test_rejects_bad_input(self, half_half_space):
        with pytest.raises(ValueError):
            half_half_space.seminorm([1.0, np.nan])
        with pytest.raises(Exception):
            half_half_space.seminorm([1.0, 2.0, 3.0])


class TestSaturation:
    def test_boundary_atom_fails_with_witness(self):
        X = make_space([1, 1], 1)
        xi = DiscreteRadonMeasure.from_pairs([([1, 0], 1.0)])
        S = SNormSpace(base=X, e=ExponentTriple(p=1.0, q=2.0), xi=xi)
        ok, witness = xi_saturation_check(S)
        assert not ok and witness == 1
        # a nonzero function living on the annihilated atom has zero seminorm
        assert S.seminorm([0.0, 3.0]) == 0.0
        with pytest.raises(UnsaturatedSpaceError):
            S.norm([1.0, 1.0])
        with pytest.raises(UnsaturatedSpaceError):
            inclusion_bound_check(S)

    def test_strictly_positive_atom_passes(self):
        X = make_space([1, 1], 1)
        xi = DiscreteRadonMeasure.from_pairs([([1, 1], 1.0)])
        ok, witness = xi_saturation_check(SNormSpace(
            base=X, e=ExponentTriple(p=1.0, q=2.0), xi=xi))
        assert ok and witness is None

    def test_union_of_supports_passes(self, half_half_space):
        ok, witness = xi_saturation_check(half_half_space)
        assert ok and witness is None


class TestMeasureValidation:
    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            DiscreteRadonMeasure.from_pairs([([1, 0], 0.0)])

    def test_rejects_atom_outside_ball(self):
        # the measure takes any weight row; the space it meets decides
        # (dual norm in L^2(μ): (4 μ_0)^(1/2), 2 at μ_0 = 1, 0.89 at 0.2)
        xi = DiscreteRadonMeasure.from_pairs([([2.0, 0.0], 1.0)])
        e = ExponentTriple(p=1.0, q=2.0)
        with pytest.raises(ValueError, match="dual unit ball"):
            SNormSpace(base=make_space([1, 1], 2), e=e, xi=xi)
        SNormSpace(base=make_space([0.2, 0.2], 2), e=e, xi=xi)

    def test_rejects_a_last_atom_outside_ball(self):
        # all atoms are checked in one stacked call; the only bad one is last
        inside = [([0.5, 0.5], 0.25), ([0.0, 0.9], 0.25), ([0.7, 0.0], 0.25)]
        xi = DiscreteRadonMeasure.from_pairs(inside + [([2.0, 0.0], 0.25)])
        e = ExponentTriple(p=1.0, q=2.0)
        with pytest.raises(ValueError, match="atom 3 outside"):
            SNormSpace(base=make_space([1, 1], 2), e=e, xi=xi)
        SNormSpace(base=make_space([1, 1], 2), e=e,
                   xi=DiscreteRadonMeasure.from_pairs(inside))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            DiscreteRadonMeasure.from_pairs([([-0.1, 0.2], 1.0)])

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                DiscreteRadonMeasure.from_pairs([([0.5, bad], 1.0)])

    def test_rejects_rows_of_wrong_shape(self):
        # rows of two lengths, a bare vector, a stack of matrices, no rows
        for atoms in ([[1.0, 0.0], [1.0]], [1.0, 0.0], [[[1.0, 0.0]]],
                      np.zeros((0, 2))):
            with pytest.raises(ValueError):
                DiscreteRadonMeasure(atoms=atoms, masses=np.ones(len(atoms)))

    def test_atoms_are_a_read_only_matrix(self):
        rows = np.array([[1.0, 0.0], [0.5, 0.5]])
        xi = DiscreteRadonMeasure(atoms=rows, masses=[0.5, 0.5])
        rows[0, 0] = 3.0
        assert xi.atoms.shape == (2, 2) and xi.atoms[0, 0] == 1.0
        with pytest.raises(ValueError):
            xi.atoms[0, 0] = 2.0

    def test_normalized_flag_checked(self):
        assert not DiscreteRadonMeasure.from_pairs([([1, 1], 0.7)]).normalized
        xi = {"atoms": [{"h": [1, 1], "mass": 0.7}], "normalized": True}
        doc = {"schema": SCHEMA_ID, "measure": {"weights": [1, 1]},
               "space": {"family": "lebesgue", "s": 1.0}, "p": 1.0,
               "q": 2.0, "xi": xi}
        with pytest.raises(InstanceError, match="xi normalized is True"):
            parse_fields("snorm-demo", doc)


class TestDiracSpace:
    def test_collapses_to_weighted_lp(self):
        X = make_space([1, 1], 1)
        S = dirac_space(X, ExponentTriple(p=1.0, q=2.0), [1.0, 1.0])
        assert S.seminorm([2, 3]) == pytest.approx(5.0, abs=1e-12)
        X2 = make_space([1, 1], 2)
        S2 = dirac_space(X2, ExponentTriple(p=2.0, q=2.0), [1.0, 1.0])
        assert S2.seminorm([3, 4]) == pytest.approx(5.0, abs=1e-12)
        assert S2.seminorm([0, 0]) == 0.0

    def test_equality_with_weighted_lp_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for n in (2, 5, 8):
            weights = rng.uniform(0.5, 2.0, size=n)
            for p, q in ((1.0, 2.0), (2.0, 3.0)):
                X = make_space(weights, p)
                g = rng.uniform(0.1, 1.0, size=n)
                g = g / np.max(g)  # inside the sup-norm dual ball
                S = dirac_space(X, ExponentTriple(p=p, q=q), g)
                for _ in range(60):
                    f = rng.normal(size=n)
                    direct = float(np.sum(np.abs(f) ** p * g * weights) ** (1 / p))
                    assert S.seminorm(f) == pytest.approx(direct, rel=1e-12,
                                                          abs=1e-300)

    def test_dual_norm_of_its_pth_power_is_refused(self):
        # the p-th power of a dirac mixture is f -> ∫ |f| g dμ, whose Köthe
        # dual norm max(h / g) has no closed route: only weighted Lebesgue
        # spaces have one, and a mixture is refused even where it collapses
        rng = np.random.default_rng(29)
        for p, q in ((1.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
            X = make_space(rng.uniform(0.5, 2.0, size=4), p)
            g = rng.uniform(0.1, 1.0, size=4)
            S = dirac_space(X, ExponentTriple(p=p, q=q), g / np.max(g))
            h = rng.uniform(0.0, 2.0, size=4)
            with pytest.raises(ValueError, match="not a weighted Lebesgue"):
                dual_norm_of_pth_power(S, p, h)

    def test_rejects_weight_with_zero_entry(self):
        X = make_space([1, 1], 1)
        with pytest.raises(ValueError):
            dirac_space(X, ExponentTriple(p=1.0, q=2.0), [1.0, 0.0])


class TestPartitionSpace:
    def test_matches_half_half_mixture(self, half_half_space):
        X = make_space([1, 1], 1)
        S = partition_space(X, ExponentTriple(p=1.0, q=2.0), [1.0, 1.0],
                            [[0], [1]], [0.5, 0.5])
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = rng.normal(size=2)
            assert S.seminorm(f) == pytest.approx(
                half_half_space.seminorm(f), rel=1e-12, abs=1e-300)
        assert S.seminorm([1, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_norm_formula_on_random_inputs(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            weights = rng.uniform(0.5, 2.0, size=n)
            p, q = (1.0, 2.0) if trial % 2 == 0 else (2.0, 3.0)
            X = make_space(weights, p)
            order = rng.permutation(n)
            cut = int(rng.integers(1, n))
            blocks = [sorted(order[:cut].tolist()), sorted(order[cut:].tolist())]
            alpha = rng.uniform(0.2, 1.0, size=2)
            g = rng.uniform(0.1, 1.0, size=n)
            g = g / g.max()
            S = partition_space(X, ExponentTriple(p=p, q=q), g, blocks, alpha)
            for _ in range(50):
                f = rng.normal(size=n)
                total = 0.0
                for block, a in zip(blocks, alpha):
                    mask = np.zeros(n)
                    mask[block] = 1.0
                    block_norm = float(np.sum(np.abs(f) ** p * g * mask
                                              * weights) ** (1 / p))
                    total += a * block_norm ** q
                assert S.seminorm(f) == pytest.approx(total ** (1 / q),
                                                      rel=1e-12, abs=1e-300)

    def test_single_block_reduces_to_scaled_dirac(self):
        X = make_space([1, 1, 1], 1)
        e = ExponentTriple(p=1.0, q=2.0)
        alpha = 0.7
        S = partition_space(X, e, [1, 1, 1], [[0, 1, 2]], [alpha])
        D = dirac_space(X, e, [1, 1, 1])
        rng = np.random.default_rng(8)
        for _ in range(30):
            f = rng.normal(size=3)
            assert S.seminorm(f) == pytest.approx(
                alpha ** 0.5 * D.seminorm(f), rel=1e-12, abs=1e-300)

    def test_partition_validation(self):
        X = make_space([1, 1, 1], 1)
        e = ExponentTriple(p=1.0, q=2.0)
        with pytest.raises(ValueError):
            partition_space(X, e, [1, 1, 1], [[0, 1], [1, 2]], [0.5, 0.5])
        with pytest.raises(ValueError):
            partition_space(X, e, [1, 1, 1], [[0], [1]], [0.5, 0.5])
        with pytest.raises(ValueError):
            partition_space(X, e, [1, 1, 1], [[0, 1], [2]], [0.5, -0.1])


class TestNormProperties:
    @pytest.fixture(params=["dirac", "partition", "mixture"])
    def saturated_space(self, request):
        rng = np.random.default_rng(101)
        X = make_space([1.0, 0.7, 1.4], 2.0)
        e = ExponentTriple(p=2.0, q=3.0)
        if request.param == "dirac":
            g = np.array([0.9, 0.5, 0.8])
            from latfact.spaces import dual_norm_of_pth_power
            g = g / dual_norm_of_pth_power(X, e.p, g)
            return dirac_space(X, e, g)
        if request.param == "partition":
            return partition_space(make_space([1.0, 0.7, 1.4], 2.0), e,
                                   [1.0, 1.0, 1.0], [[0, 2], [1]], [0.4, 0.6])
        from latfact.spaces import dual_norm_of_pth_power
        pairs = []
        for _ in range(3):
            h = np.abs(rng.normal(size=3)) + 0.05
            h = h / dual_norm_of_pth_power(X, e.p, h)
            pairs.append((h, float(rng.uniform(0.2, 0.6))))
        return SNormSpace(base=X, e=e, xi=DiscreteRadonMeasure.from_pairs(pairs))

    def test_norm_axioms(self, saturated_space):
        S = saturated_space
        rng = np.random.default_rng(55)
        for _ in range(1000):
            f = rng.normal(size=S.n)
            g = rng.normal(size=S.n)
            a = rng.normal()
            nf, ng = S.norm(f), S.norm(g)
            assert S.norm(f + g) <= (nf + ng) * (1 + 1e-10)
            assert S.norm(a * f) == pytest.approx(abs(a) * nf, rel=1e-10,
                                                  abs=1e-12)
            smaller = np.sign(g) * np.minimum(np.abs(f), np.abs(g))
            assert S.norm(smaller) <= ng * (1 + 1e-10)

    def test_p_convexity_with_constant_one(self, saturated_space):
        S = saturated_space
        p = S.e.p
        rng = np.random.default_rng(77)
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            F = rng.normal(size=(m, S.n))
            agg = (np.abs(F) ** p).sum(axis=0) ** (1 / p)
            lhs = S.norm(agg)
            rhs = float(np.sum(S.norm_rows(F) ** p) ** (1 / p))
            assert lhs <= rhs * (1 + 1e-10)

    def test_inclusion_bound(self, saturated_space):
        S = saturated_space
        bound = S.xi.total_mass ** (1.0 / S.e.q)
        ratio, within = inclusion_bound_check(S, samples=512, seed=3)
        assert ratio <= bound + 1e-9 and within

    def test_inclusion_bound_scales_with_total_mass(self):
        X = make_space([1, 1], 1)
        e = ExponentTriple(p=1.0, q=2.0)
        xi = DiscreteRadonMeasure.from_pairs([([1, 1], 4.0)])  # mass 2^q
        S = SNormSpace(base=X, e=e, xi=xi)
        ratio, within = inclusion_bound_check(S, samples=512, seed=3)
        assert ratio <= 2.0 + 1e-9 and within
        assert ratio == pytest.approx(2.0, rel=1e-6)

    def test_strong_concavity_of_inclusion(self, saturated_space):
        # family aggregates are bounded by total_mass^(1/q) times the
        # scaled-family supremum of the base norm
        S = saturated_space
        X, e = S.base, S.e
        bound = S.xi.total_mass ** (1.0 / e.q)
        rng = np.random.default_rng(91)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            F = rng.normal(size=(m, S.n))
            lhs = float(np.sum(S.norm_rows(F) ** e.q) ** (1 / e.q))
            rhs = bound * family_sup_lhs(X, e, F)
            assert lhs <= rhs * (1 + 1e-9)
