import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from latfact import (EuclideanNorm, ExponentTriple, LinearOperator, SNormSpace,
                     collapse_weight, default_domination_grid, dirac_space,
                     extension_norm_estimate, find_domination_measure,
                     identity_operator, kakutani_equivalence,
                     operator_norm_estimate, partition_space,
                     pq_concavity_estimate, pq_concavity_ratio,
                     verify_domination, violation_oracle, xi_saturation_check)
from latfact import factorization
from latfact.search import projected_ascent, unit_rows
from latfact.snorm import DiscreteRadonMeasure
from latfact.spaces import dual_norm_of_pth_power
from latfact.suite import random_operator
from conftest import make_space, two_atom_space
from reference import chord_factor, domination_reference


E12 = ExponentTriple(p=1.0, q=2.0)
E22 = ExponentTriple(p=2.0, q=2.0)
# the n = 5 [7] (1,3) certificate of an oracle that ascended on the X-sphere
# from full-support starts only; tests/data/README.md gives its provenance
CURVED_N5 = Path(__file__).parent / "data" / "curved_certificate_n5.npz"


def closed_constant(T):
    """``C* = ‖c‖_{X'}`` with ``c_j = ‖T e_j‖ / μ_j``: the p = q = 1 constant."""
    c = T.codomain.norm_rows(T.matrix.T) / T.domain.space.weights
    return dual_norm_of_pth_power(T.domain, 1.0, c)


def unit_span_measure():
    return DiscreteRadonMeasure.from_pairs([([1.0, 0.0], 0.5),
                                            ([0.0, 1.0], 0.5)])


class TestFindDominationMeasure:
    def test_identity_concentrates_on_unit_weight(self):
        X = make_space([1, 1], 2)
        cert = find_domination_measure(identity_operator(X), E22, seed=0)
        assert cert.converged
        assert cert.C <= 1.0 + 1e-5
        assert cert.residual <= 1e-6
        assert len(cert.xi) == 1
        np.testing.assert_allclose(cert.xi.atoms[0], [1.0, 1.0])
        assert cert.xi.normalized

    def test_zero_operator(self):
        X = make_space([1, 1], 2)
        T = LinearOperator(matrix=np.zeros((2, 2)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        cert = find_domination_measure(T, E22, seed=0, budget=5)
        assert cert.converged and cert.C == 0.0 and cert.residual == 0.0

    def test_integration_functional(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.array([[1.0, 1.0]]), domain=X,
                           codomain=EuclideanNorm(dim=1))
        cert = find_domination_measure(T, E12, seed=0)
        assert cert.converged
        assert cert.C == pytest.approx(1.0, abs=1e-5)
        assert len(cert.xi) == 1
        np.testing.assert_allclose(cert.xi.atoms[0], [1.0, 1.0])

    def test_output_mixture_is_saturated_probability(self):
        rng = np.random.default_rng(5)
        X = make_space(rng.uniform(0.5, 2.0, size=3), 1)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        cert = find_domination_measure(T, E12, seed=1)
        assert cert.converged
        assert cert.xi.normalized
        S = SNormSpace(base=X, e=E12, xi=cert.xi)
        ok, _ = xi_saturation_check(S)
        assert ok

    @pytest.mark.parametrize("s, p, q", [(2.0, 1.0, 1.0), (1.5, 1.0, 2.0),
                                         (3.0, 2.0, 2.0)])
    def test_unseen_atom_is_repaired_by_the_starting_weight(self, s, p, q):
        # T ignores atom 1, so the mixture (the LP's, or at p = q = 1 the
        # closed-form weight c / C*) leaves it unseen and the solve mixes in
        # tol mass of the uniform starting weight
        T = random_operator(3, 3, [600], s=s)
        M = T.matrix.copy()
        M[:, 1] = 0.0
        T = LinearOperator(matrix=M, domain=T.domain, codomain=T.codomain)
        e = ExponentTriple(p=p, q=q)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        assert not cert.xi.atoms[:-1, 1].any()
        assert np.array_equal(cert.xi.atoms[-1],
                              default_domination_grid(T.domain, e)[0])
        assert cert.xi.masses[-1] == pytest.approx(tol / (1.0 + tol),
                                                   rel=1e-12)
        if p == q == 1.0:
            expected = closed_constant(T) * (1.0 + tol) ** (1.0 / q)
        else:
            expected = (cert.lp_values[-1] ** (-1.0 / q)
                        * (1.0 + tol) ** (1.0 + 1.0 / q))
        assert cert.C == pytest.approx(expected, rel=1e-12)
        ok, _ = xi_saturation_check(cert.snorm_space(T.domain))
        assert ok
        assert verify_domination(cert, T, sample_count=10000) <= tol

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_mixture_domain_solves_on_canonical_dual_weights(self, q):
        # a partition mixture is neither weighted Lebesgue nor cube-dual, so
        # its attainment points are the best canonical dual candidates
        X = make_space([1.0, 2.0, 0.5], 1.5)
        S = partition_space(X, E12, np.full(3, 0.5), [[0], [1, 2]],
                            [0.5, 0.5])
        T = identity_operator(S)
        e = ExponentTriple(p=1.0, q=q)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        assert verify_domination(cert, T, sample_count=10000) <= tol

    def test_lp_progress_is_nonincreasing_between_witness_cuts(self):
        rng = np.random.default_rng(11)
        X = make_space([1, 1, 1], 1)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        # the solve takes the closed s = p route, so the loop runs directly
        cert = factorization._kelley_solve(T, E12, 1e-6, 40, 2)
        assert cert.converged
        # s = p: the all-ones weight attains every combination, so no grid
        # enrichment runs and every solve after the first follows a witness
        t = np.array(cert.lp_values)
        assert t.size >= 1
        assert np.all(t[1:] <= t[:-1] * (1.0 + 1e-9))

    def test_certificate_replay_on_witnesses(self):
        rng = np.random.default_rng(13)
        X = make_space([1, 1, 1], 2)
        T = LinearOperator(matrix=rng.normal(size=(2, 3)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        cert = find_domination_measure(T, E22, seed=3)
        assert cert.converged
        S = SNormSpace(base=X, e=E22, xi=cert.xi)
        for w in cert.witnesses:
            lhs = T.codomain.norm(T.matrix @ w) ** E22.q
            rhs = cert.C ** E22.q * S.seminorm(w) ** E22.q
            assert lhs <= rhs + 1e-6 * max(rhs, 1.0)


    @pytest.mark.parametrize("s", [1.0, 1.5])
    @pytest.mark.parametrize("c", [1e-8, 1e-6, 1e-4, 1.0, 1e4, 1e8])
    def test_scaling_the_operator_scales_the_constant(self, c, s):
        T = random_operator(3, 3, [1], s=s)
        cT = LinearOperator(matrix=c * T.matrix, domain=T.domain,
                            codomain=T.codomain)
        cert = find_domination_measure(cT, E12, tol=1e-6, budget=40, seed=0)
        ref = find_domination_measure(T, E12, tol=1e-6, budget=40, seed=0)
        assert cert.converged
        assert cert.C / c == pytest.approx(ref.C, rel=1e-9)


    @pytest.mark.parametrize("s, p, q, seed", [(1.5, 1.0, 2.0, 1),
                                               (2.0, 1.0, 1.0, 2),
                                               (1.0, 1.0, 2.0, 3)])
    def test_permuting_the_atoms_keeps_the_constant(self, s, p, q, seed):
        T = random_operator(3, 3, [seed], s=s)
        perm = [2, 0, 1]
        X = make_space(T.domain.space.weights[perm], s)
        P = LinearOperator(matrix=T.matrix[:, perm], domain=X,
                           codomain=T.codomain)
        e = ExponentTriple(p=p, q=q)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        perm_cert = find_domination_measure(P, e, tol=tol, budget=40, seed=0)
        assert cert.converged and perm_cert.converged
        assert abs(perm_cert.C / cert.C - 1.0) <= tol
        # the mixture permutes with the atoms: f on T's atoms is f[perm] on P's
        F = np.random.default_rng([29, seed]).normal(size=(2000, 3))
        s_T = cert.snorm_space(T.domain).seminorm_rows(F)
        s_P = perm_cert.snorm_space(X).seminorm_rows(F[:, perm])
        assert np.max(np.abs(s_P / s_T - 1.0)) <= tol


E11 = ExponentTriple(p=1.0, q=1.0)
CLOSED_SWEEP = [(n, k, s) for n in (3, 4, 6, 8) for k in (0, 1)
                for s in (1.0, 1.5, 2.0, 3.0)]


CUBE_SWEEP = [(n, k, p, q) for n in (3, 4, 6, 8) for k in (0, 1)
              for p in (1.0, 2.0) for q in (p, 2.0 * p)]


def operator_norm(T):
    """``‖T : L^p(μ) → R^n‖`` at ``p = s``, by its textbook formula.

    ``max_j ‖T e_j‖ / μ_j`` on ``L^1(μ)``, and the top singular value of
    ``T diag(μ)^{-1/2}`` on ``L^2(μ)``.
    """
    mu = T.domain.space.weights
    if T.domain.s == 1.0:
        return float(np.max(np.linalg.norm(T.matrix, axis=0) / mu))
    return float(np.linalg.svd(T.matrix / np.sqrt(mu), compute_uv=False)[0])


def sign_fixed(W):
    """``W`` with each row's sign flipped so its first nonzero entry is positive."""
    lead = W[np.arange(len(W)), np.argmax(np.abs(W) > 1e-12, axis=1)]
    return W * np.sign(lead)[:, None]


def permuted(T, perm):
    """``T`` with its atoms reordered: μ and the columns of T by ``perm``."""
    X = make_space(T.domain.space.weights[perm], T.domain.s)
    return LinearOperator(matrix=T.matrix[:, perm], domain=X,
                          codomain=T.codomain)


def row_set(W):
    """The rows of ``W`` in lexicographic order."""
    return W[np.lexsort(W.T[::-1])]


class TestClosedFormCertificate:
    """At p = q = 1 the solve returns C* = ‖c‖_{X'} on the weight c / C*."""

    TOL = 1e-6

    @pytest.mark.parametrize("n, k, s", CLOSED_SWEEP)
    def test_the_kelley_loop_meets_the_closed_form_from_above(self, n, k, s):
        T = random_operator(n, n, [500 + k], s=s)
        C_star = closed_constant(T)
        cert = find_domination_measure(T, E11, tol=self.TOL, seed=0)
        assert (cert.C, cert.iterations, cert.lp_values) == (C_star, 1, ())
        assert cert.converged and cert.residual <= self.TOL
        c = T.codomain.norm_rows(T.matrix.T) / T.domain.space.weights
        np.testing.assert_allclose(cert.xi.atoms, [c / C_star], rtol=1e-12)
        np.testing.assert_array_equal(cert.xi.masses, [1.0])
        loop = factorization._kelley_solve(T, E11, self.TOL, 40, 0)
        assert loop.converged
        assert C_star <= loop.C <= C_star * (1.0 + 2.0 * self.TOL)

    @pytest.mark.parametrize("n, k, s", CLOSED_SWEEP)
    def test_scaling_the_operator_scales_only_the_constant(self, n, k, s):
        T = random_operator(n, n, [500 + k], s=s)
        cT = LinearOperator(matrix=1e3 * T.matrix, domain=T.domain,
                            codomain=T.codomain)
        cert = find_domination_measure(T, E11, tol=self.TOL, seed=0)
        scaled = find_domination_measure(cT, E11, tol=self.TOL, seed=0)
        assert scaled.C == pytest.approx(1e3 * cert.C, rel=1e-12)
        np.testing.assert_allclose(scaled.xi.atoms, cert.xi.atoms,
                                   rtol=1e-12)

    @pytest.mark.parametrize("n, k, s", CLOSED_SWEEP)
    def test_permuting_the_atoms_permutes_the_weight(self, n, k, s):
        T = random_operator(n, n, [500 + k], s=s)
        perm = np.roll(np.arange(n), 1)
        cert = find_domination_measure(T, E11, tol=self.TOL, seed=0)
        moved = find_domination_measure(permuted(T, perm), E11,
                                        tol=self.TOL, seed=0)
        np.testing.assert_allclose(moved.xi.atoms, cert.xi.atoms[:, perm],
                                   rtol=1e-12)
        np.testing.assert_array_equal(moved.xi.masses, cert.xi.masses)
        assert moved.C == pytest.approx(cert.C, rel=1e-12)
        assert moved.residual == pytest.approx(cert.residual, abs=1e-12)
        assert ((moved.stop, moved.iterations, moved.lp_values)
                == (cert.stop, cert.iterations, cert.lp_values))
        np.testing.assert_allclose(
            row_set(np.array(moved.witnesses)),
            row_set(np.array(cert.witnesses)[:, perm]), rtol=1e-12)

    @pytest.mark.parametrize("n, k, s", CLOSED_SWEEP)
    def test_a_zero_column_is_repaired(self, n, k, s):
        T = random_operator(n, n, [500 + k], s=s)
        M = T.matrix.copy()
        M[:, 1] = 0.0
        T = LinearOperator(matrix=M, domain=T.domain, codomain=T.codomain)
        cert = find_domination_measure(T, E11, tol=self.TOL, seed=0)
        assert cert.converged
        assert cert.C == pytest.approx(
            closed_constant(T) * (1.0 + self.TOL), rel=1e-12)
        assert cert.xi.atoms[0, 1] == 0.0
        assert np.array_equal(cert.xi.atoms[1],
                              default_domination_grid(T.domain, E11)[0])
        assert verify_domination(cert, T, sample_count=10000) <= self.TOL

    def test_the_zero_operator_takes_the_uniform_weight(self):
        T = random_operator(3, 3, [500], s=2.0)
        Z = LinearOperator(matrix=np.zeros((3, 3)), domain=T.domain,
                           codomain=T.codomain)
        cert = find_domination_measure(Z, E11, seed=0)
        assert cert.converged and (cert.C, cert.residual) == (0.0, 0.0)
        assert np.array_equal(cert.xi.atoms,
                              default_domination_grid(T.domain, E11))

    @pytest.mark.parametrize("s, seed", [(1.5, 701), (2.0, 702), (3.0, 703)])
    def test_an_independent_grid_lp_meets_the_closed_form(self, s, seed):
        # tests/reference.py solves the domination LP on angle grids with
        # scipy, and reads its grid error off a halved angle step
        T = random_operator(2, 2, [seed], s=s)
        cert = find_domination_measure(T, E11, tol=self.TOL, seed=0)
        ref, err = domination_reference(T.matrix, T.domain.space.weights,
                                        s=s, p=1.0, q=1.0)
        assert abs(cert.C - ref) <= err

    # s = p: the positive dual ball of X_p = L^1(μ) is the cube, so the
    # uniform weight dominates every mixture and C* = ‖T : L^p(μ) → Y‖

    @pytest.mark.parametrize("n, k, p, q", CUBE_SWEEP)
    def test_the_cube_route_returns_the_operator_norm(self, n, k, p, q):
        T = random_operator(n, n, [500 + k], s=p)
        e = ExponentTriple(p=p, q=q)
        C_star = operator_norm(T)
        cert = find_domination_measure(T, e, tol=self.TOL, seed=0)
        assert cert.C == pytest.approx(C_star, rel=1e-12)
        assert (len(cert.xi), cert.iterations, cert.lp_values) == (1, 1, ())
        assert cert.converged and cert.residual <= self.TOL
        if p == q == 1.0:  # checked first: w = c / ‖c‖_{X'}
            c = T.codomain.norm_rows(T.matrix.T) / T.domain.space.weights
            np.testing.assert_allclose(cert.xi.atoms, [c / c.max()],
                                       rtol=1e-12)
        else:
            np.testing.assert_array_equal(
                cert.xi.atoms, default_domination_grid(T.domain, e))
        assert verify_domination(cert, T, sample_count=10000) <= self.TOL
        loop = factorization._kelley_solve(T, e, self.TOL, 40, 0)
        assert loop.converged
        assert C_star <= loop.C <= C_star * (1.0 + 2.0 * self.TOL)

    @pytest.mark.parametrize("n, k, p, q", CUBE_SWEEP)
    def test_the_cube_route_scales_only_the_constant(self, n, k, p, q):
        T = random_operator(n, n, [500 + k], s=p)
        e = ExponentTriple(p=p, q=q)
        cT = LinearOperator(matrix=1e3 * T.matrix, domain=T.domain,
                            codomain=T.codomain)
        cert = find_domination_measure(T, e, tol=self.TOL, seed=0)
        scaled = find_domination_measure(cT, e, tol=self.TOL, seed=0)
        assert scaled.C == pytest.approx(1e3 * cert.C, rel=1e-12)
        np.testing.assert_allclose(scaled.xi.atoms, cert.xi.atoms,
                                   rtol=1e-12)

    @pytest.mark.parametrize("n, k, p, q", CUBE_SWEEP)
    def test_the_cube_route_ignores_the_atom_order(self, n, k, p, q):
        T = random_operator(n, n, [500 + k], s=p)
        e = ExponentTriple(p=p, q=q)
        perm = np.roll(np.arange(n), 1)
        cert = find_domination_measure(T, e, tol=self.TOL, seed=0)
        moved = find_domination_measure(permuted(T, perm), e, tol=self.TOL,
                                        seed=0)
        np.testing.assert_allclose(moved.xi.atoms, cert.xi.atoms[:, perm],
                                   rtol=1e-12)
        np.testing.assert_array_equal(moved.xi.masses, cert.xi.masses)
        assert moved.C == pytest.approx(cert.C, rel=1e-12)
        assert moved.residual == pytest.approx(cert.residual, abs=1e-12)
        assert ((moved.stop, moved.iterations, moved.lp_values)
                == (cert.stop, cert.iterations, cert.lp_values))
        # a witness f and -f read the same; compare them up to that sign
        np.testing.assert_allclose(
            row_set(sign_fixed(np.array(moved.witnesses))),
            row_set(sign_fixed(np.array(cert.witnesses)[:, perm])),
            rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("case", ["l3-into-euclidean", "l2-into-l2"])
    def test_the_cube_without_exact_maximisers_keeps_the_loop(self, case):
        # ‖T : L^p(μ) → Y‖ has no closed form at p = 3, nor at p = 2 into
        # a target other than the Euclidean one
        if case == "l3-into-euclidean":
            T = random_operator(3, 3, [500], s=3.0)
            e = ExponentTriple(p=3.0, q=3.0)
        else:
            T = identity_operator(make_space([0.5, 1.0, 2.0], 2.0))
            e = E22
        cert = find_domination_measure(T, e, tol=self.TOL, seed=0)
        assert cert.converged and cert.lp_values
        assert verify_domination(cert, T, sample_count=10000) <= self.TOL
        if case == "l2-into-l2":
            assert 1.0 <= cert.C <= 1.0 + 2.0 * self.TOL

    @pytest.mark.parametrize("p, q", [(1.0, 2.0), (2.0, 2.0), (2.0, 4.0)])
    def test_the_zero_operator_has_constant_zero_on_the_cube(self, p, q):
        T = random_operator(3, 3, [500], s=p)
        Z = LinearOperator(matrix=np.zeros((3, 3)), domain=T.domain,
                           codomain=T.codomain)
        e = ExponentTriple(p=p, q=q)
        cert = find_domination_measure(Z, e, seed=0)
        assert cert.converged and (cert.C, cert.residual) == (0.0, 0.0)
        assert np.array_equal(cert.xi.atoms,
                              default_domination_grid(T.domain, e))

    @pytest.mark.parametrize("s, p, q, seed", [(1.0, 1.0, 2.0, 704),
                                               (2.0, 2.0, 2.0, 705),
                                               (2.0, 2.0, 4.0, 706)])
    def test_an_independent_grid_lp_meets_the_cube_route(self, s, p, q, seed):
        # the grid holds the uniform column, so its constant is the largest
        # row ratio: a lower bound, above which the exact constant lies by at
        # most the chord factor (the halving error can read 0 here, where
        # the peak sits as near a coarse row as to a fine one)
        T = random_operator(2, 2, [seed], s=s)
        cert = find_domination_measure(T, ExponentTriple(p=p, q=q),
                                       tol=self.TOL, seed=0)
        mu = T.domain.space.weights
        ref, _ = domination_reference(T.matrix, mu, s=s, p=p, q=q, steps=200)
        rho = chord_factor(s, mu, 400)
        assert ref * (1.0 - 1e-12) <= cert.C <= ref * rho * (1.0 + 1e-12)


def plane_scan(T, S, angles):
    """``max (‖Tf‖ / s(f))^q`` over ``cos θ e_i + sin θ e_j``, every plane i < j.

    A dense scan of every 2-support direction, independent of the oracle.
    """
    th = np.linspace(0.0, np.pi, angles, endpoint=False)
    E = np.eye(T.n)
    F = np.vstack([np.outer(np.cos(th), E[i]) + np.outer(np.sin(th), E[j])
                   for i, j in itertools.combinations(range(T.n), 2)])
    ratio = T.codomain.norm_rows(F @ T.matrix.T) / S.seminorm_rows(F)
    return float(np.max(ratio ** S.e.q))


class TestCurvedRegime:
    """s > p and q > p: the optimal mixture has several atoms."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(1)
        out = []
        for n, s, p, q in ((3, 2.0, 1.0, 2.0), (3, 1.5, 1.0, 2.0),
                           (2, 1.5, 1.0, 2.0), (3, 3.0, 2.0, 4.0),
                           (4, 2.0, 1.0, 3.0)):
            X = make_space(rng.uniform(0.5, 2.0, n), s)
            T = LinearOperator(matrix=rng.normal(size=(n, n)), domain=X,
                               codomain=EuclideanNorm(dim=n))
            out.append((T, ExponentTriple(p=p, q=q)))
        return out

    def test_multi_atom_certificate_is_two_sided(self):
        T, e = self.instances()[-1]
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        assert len(cert.xi) > 1
        ok, _ = xi_saturation_check(SNormSpace(base=T.domain, e=e, xi=cert.xi))
        assert ok
        assert verify_domination(cert, T, sample_count=20000) <= tol
        # the strong (p,q)-concavity ratio of the witnesses bounds the
        # domination constant from below
        assert pq_concavity_ratio(T, e, cert.witnesses) <= cert.C * (1.0 + tol)

    @pytest.mark.parametrize("case", ["instances", "503"])
    def test_two_support_scan_holds_the_certificate(self, case):
        if case == "instances":
            T, e = self.instances()[-1]
        else:
            T = random_operator(4, 4, [503], s=2.0)
            e = ExponentTriple(p=1.0, q=3.0)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        scan = plane_scan(T, cert.snorm_space(T.domain), 20000)
        assert scan / cert.C ** e.q - 1.0 <= tol

    def test_five_atoms_converge_within_budget(self):
        # random_operator(5, 5, [7], s=2) at (p,q) = (1,3): with one cut per
        # oracle round it used up budget 40 at residual 4.8e-4
        T = random_operator(5, 5, [7], s=2.0)
        e = ExponentTriple(p=1.0, q=3.0)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        assert verify_domination(cert, T, sample_count=20000) <= tol

    def test_converged_mixture_survives_other_oracle_seeds(self):
        # at p = 1 the violation can peak on a face f_i = 0; an ascent that
        # steps across the kink there found it at some seeds and not others
        T = random_operator(4, 4, [503], s=2.0)
        e = ExponentTriple(p=1.0, q=3.0)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        S = cert.snorm_space(T.domain)
        for seed in range(4):
            _, values = violation_oracle(T, S, cert.C, seed=[seed, 5])
            assert values[0] <= tol * cert.C ** e.q

    def test_the_oracle_breaks_a_captured_certificate(self):
        # the captured solve converged, but its worst violation lies on a
        # 2-support face that its oracle's X-sphere ascent did not reach
        data = np.load(CURVED_N5)
        T = random_operator(5, 5, [7], s=2.0)
        S = SNormSpace(base=T.domain, e=ExponentTriple(p=1.0, q=3.0),
                       xi=DiscreteRadonMeasure(atoms=data["atoms"],
                                               masses=data["masses"]))
        C = float(data["C"])
        _, values = violation_oracle(T, S, C, seed=[0, 5])
        assert values[0] > 1e-6 * C ** 3

    def test_duplicate_row_lp_keeps_its_duals(self):
        # its last LP has duplicate rows, where duals read off the pivoted
        # cost row drift into a duality gap of 1.7e-5
        T = random_operator(3, 3, [602], s=2.0)
        matrix = np.array(T.matrix)
        matrix[:, 1] = 0.0
        T = LinearOperator(matrix, T.domain, T.codomain)
        cert = find_domination_measure(T, ExponentTriple(p=1.0, q=3.0),
                                       tol=1e-6, budget=40, seed=0)
        assert cert.converged


class TestViolationOracle:
    def test_huge_constant_has_no_violation(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.array([[1.0, 1.0]]), domain=X,
                           codomain=EuclideanNorm(dim=1))
        S = SNormSpace(base=X, e=E12, xi=unit_span_measure())
        _, values = violation_oracle(T, S, C=100.0, seed=0)
        violation = values[0]
        assert violation <= 0.0

    def test_zero_constant_recovers_operator_norm_power(self):
        rng = np.random.default_rng(3)
        X = make_space([1, 1, 1], 1)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        S = dirac_space(X, E12, np.ones(3))
        _, values = violation_oracle(T, S, C=0.0, seed=0)
        violation = values[0]
        opn = operator_norm_estimate(T, budget=8, seed=0).value
        assert violation == pytest.approx(opn ** E12.q, rel=1e-9)

    def test_identity_at_unit_constant_is_tight(self):
        X = make_space([1, 1], 2)
        S = dirac_space(X, E22, np.ones(2))
        T = identity_operator(X)
        _, values = violation_oracle(T, S, C=1.0, seed=0)
        violation = values[0]
        assert abs(violation) <= 1e-9


class TestViolationCuts:
    """The ascent route returns one cut per sign pattern; violating ones are added."""

    @staticmethod
    def oracle_case(C):
        T = random_operator(4, 4, [13], s=2.0)
        e = ExponentTriple(p=1.0, q=3.0)
        S = two_atom_space(T.domain, e)
        return violation_oracle(T, S, C=C, seed=2)

    @pytest.mark.parametrize("C", [3.5, 4.0, 5.0])
    def test_values_are_sorted_best_first(self, C):
        F, values = self.oracle_case(C)
        assert len(F) == len(values) > 1
        assert np.all(np.diff(values) <= 0.0)

    @pytest.mark.parametrize("C", [3.5, 4.0, 5.0])
    def test_rows_have_distinct_sign_patterns_up_to_a_flip(self, C):
        F, _ = self.oracle_case(C)
        P = np.sign(F)
        same = (P[:, None, :] == P[None, :, :]).all(axis=2)
        flipped = (P[:, None, :] == -P[None, :, :]).all(axis=2)
        np.fill_diagonal(same, False)
        assert not (same | flipped).any()

    def test_starts_hold_every_two_support_row(self, monkeypatch):
        starts = []

        def recording(value_rows, grad_rows, normalize_rows, A0, **kwargs):
            starts.append(A0)
            return projected_ascent(value_rows, grad_rows, normalize_rows,
                                    A0, **kwargs)

        monkeypatch.setattr(factorization, "projected_ascent", recording)
        self.oracle_case(4.0)
        rows = {tuple(row) for row in (starts[0] + 0.0).tolist()}
        E = np.eye(4)
        for i, j in itertools.combinations(range(4), 2):
            assert tuple(E[i] + E[j]) in rows
            assert tuple(E[i] - E[j]) in rows

    def test_rows_do_not_depend_on_the_constant(self):
        F0, values0 = self.oracle_case(0.0)
        for C in (3.5, 4.0, 5.0, 6.0):
            F, values = self.oracle_case(C)
            np.testing.assert_allclose(F, F0, rtol=1e-12)
            np.testing.assert_allclose(values + C ** 3, values0, rtol=1e-12)

    def test_every_added_witness_violates_at_the_target(self, monkeypatch):
        calls = []

        def recording_oracle(T, S, C, **kwargs):
            F, values = violation_oracle(T, S, C, **kwargs)
            calls.append((S, C, F, values))
            return F, values

        monkeypatch.setattr(factorization, "violation_oracle",
                            recording_oracle)
        T = random_operator(4, 4, [503], s=2.0)
        e = ExponentTriple(p=1.0, q=3.0)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged and len(calls) > 1
        # after the one-atom first round the mixtures no longer collapse
        assert all(len(S.xi) > 1 for S, *_ in calls[1:])
        added = []
        for S, C, F, values in calls[:-1]:
            Cq = C ** e.q
            cuts = F[values > tol * Cq]
            assert len(cuts) >= 1
            # the rows lie on the unit sphere of s, and the violation
            # recomputed from them is the one the oracle measured
            np.testing.assert_allclose(S.seminorm_rows(cuts), 1.0,
                                       rtol=1e-12)
            image = T.codomain.norm_rows(cuts @ T.matrix.T) ** e.q
            assert np.all(image - Cq * S.seminorm_rows(cuts) ** e.q
                          > tol * Cq)
            added.extend(cuts)
        assert len(added) > len(calls) - 1
        # the certificate keeps the cuts scaled to the domain's unit sphere
        np.testing.assert_array_equal(
            np.vstack(cert.witnesses[-len(added):]),
            unit_rows(np.vstack(added), T.domain.norm_rows))


def closed_case(route, n, seed=0):
    """``(T, S, w)``: a collapsible mixture ``S`` and its weight ``w μ``.

    The vertex route is a one-atom mixture at ``(p, q) = (1, 3)``, whose
    collapsed weight is ``mass^{1/3} h``; the SVD route is a two-atom
    mixture at ``p = q = 2``, whose collapsed weight is ``masses @ atoms``.
    """
    rng = np.random.default_rng([seed, n, 37])
    if route == "vertex":
        T = random_operator(n, n, [seed, 41], s=2.0)
        e = ExponentTriple(p=1.0, q=3.0)
        g = rng.uniform(0.3, 1.0, n)
        g /= dual_norm_of_pth_power(T.domain, e.p, g)
        xi = DiscreteRadonMeasure(atoms=g[None, :], masses=[1.0])
        w = g
    else:
        T = random_operator(n, n, [seed, 43], s=3.0)
        e = E22
        G = rng.uniform(0.3, 1.0, (2, n))
        G /= np.array([dual_norm_of_pth_power(T.domain, e.p, g)
                       for g in G])[:, None]
        xi = DiscreteRadonMeasure(atoms=G, masses=[0.3, 0.7])
        w = xi.masses @ G
    return T, SNormSpace(base=T.domain, e=e, xi=xi), w * T.domain.space.weights


def circle_scan(T, S, n, points):
    """``max (‖Tf‖ / s(f))^q`` over a dense grid of the sphere, n = 2 or 3.

    The grid holds every coordinate axis, so it meets every vertex.
    """
    if n == 2:
        th = np.linspace(0.0, np.pi, points)
        F = np.stack([np.cos(th), np.sin(th)], axis=1)
    else:
        side = int(np.sqrt(points / 2))
        a, b = np.meshgrid(np.linspace(-np.pi / 2, np.pi / 2, side + 1),
                           np.linspace(0.0, np.pi, 2 * side + 1))
        a, b = a.ravel(), b.ravel()
        F = np.stack([np.cos(a) * np.cos(b), np.cos(a) * np.sin(b),
                      np.sin(a)], axis=1)
    ratio = T.codomain.norm_rows(F @ T.matrix.T) / S.seminorm_rows(F)
    return float(np.max(ratio ** S.e.q))


class TestClosedRoute:
    """Collapsible mixtures get the exact maximisers, and no ascent runs."""

    @pytest.fixture(autouse=True)
    def no_ascent(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the closed route ran an ascent")

        monkeypatch.setattr(factorization, "projected_ascent", refuse)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_vertex_route_matches_the_best_column(self, n):
        T, S, w = closed_case("vertex", n)
        C = 1.5
        F, values = violation_oracle(T, S, C=C)
        column = np.linalg.norm(T.matrix, axis=0) / w
        assert len(F) == n
        np.testing.assert_allclose(values + C ** 3, np.sort(column)[::-1] ** 3,
                                   rtol=1e-12)
        assert extension_norm_estimate(T, S) == pytest.approx(column.max(),
                                                              rel=1e-12)
        np.testing.assert_allclose(S.seminorm_rows(F), 1.0, rtol=1e-12)
        assert np.count_nonzero(F[0]) == 1
        assert np.argmax(np.abs(F[0])) == np.argmax(column)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_svd_route_matches_the_top_singular_value(self, n):
        T, S, w = closed_case("svd", n)
        C = 0.7
        F, values = violation_oracle(T, S, C=C)
        sigma = np.linalg.svd(T.matrix / np.sqrt(w), compute_uv=False)[0]
        assert len(F) == 1
        assert values[0] + C ** 2 == pytest.approx(sigma ** 2, rel=1e-12)
        assert extension_norm_estimate(T, S) == pytest.approx(sigma,
                                                              rel=1e-12)
        assert S.seminorm_rows(F)[0] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("route", ["vertex", "svd"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_a_dense_scan_meets_the_closed_value(self, route, n):
        T, S, _ = closed_case(route, n, seed=1)
        _, values = violation_oracle(T, S, C=0.0)
        scan = circle_scan(T, S, n, 200001)
        assert scan <= values[0] * (1.0 + 1e-12)
        # the grid holds the vertices; the smooth SVD peak lies between
        # grid points, at most a few squared spacings below
        assert scan >= values[0] * (1.0 - (1e-12 if route == "vertex"
                                           else 1e-4))

    @pytest.mark.parametrize("route", ["vertex", "svd"])
    @pytest.mark.parametrize("c", [1e-3, 7.0])
    def test_scaling_the_operator_scales_the_value(self, route, c):
        T, S, _ = closed_case(route, 4)
        cT = LinearOperator(c * T.matrix, T.domain, T.codomain)
        F, values = violation_oracle(T, S, C=0.0)
        cF, c_values = violation_oracle(cT, S, C=0.0)
        assert c_values[0] == pytest.approx(c ** S.e.q * values[0],
                                            rel=1e-12)
        np.testing.assert_allclose(np.abs(cF[0]), np.abs(F[0]), rtol=1e-12)

    @pytest.mark.parametrize("route", ["vertex", "svd"])
    def test_permuting_the_atoms_keeps_the_value(self, route):
        T, S, _ = closed_case(route, 4)
        perm = np.array([2, 0, 3, 1])
        X = T.domain
        PX = make_space(X.space.weights[perm], X.s)
        PT = LinearOperator(T.matrix[:, perm], PX, T.codomain)
        PS = SNormSpace(base=PX, e=S.e, xi=DiscreteRadonMeasure(
            atoms=S.xi.atoms[:, perm], masses=S.xi.masses))
        F, values = violation_oracle(T, S, C=1.0)
        PF, p_values = violation_oracle(PT, PS, C=1.0)
        np.testing.assert_allclose(p_values, values, rtol=1e-12)
        np.testing.assert_allclose(np.abs(PF[0]), np.abs(F[0][perm]),
                                   rtol=1e-12)


def unsaturated_case():
    """Two atoms that both vanish on the first point, under ``diag(3, 1, 1)``.

    No atom sees ``e_1`` while ``T`` moves it, so ``s(e_1) = 0 < ‖T e_1‖``
    and the oracle returns it without an ascent.
    """
    X = make_space([1, 1, 1], 2)
    T = LinearOperator(np.diag([3.0, 1.0, 1.0]), X, EuclideanNorm(dim=3))
    e = ExponentTriple(p=1.0, q=3.0)
    xi = DiscreteRadonMeasure(atoms=[[0.0, 0.6, 0.3], [0.0, 0.2, 0.7]],
                              masses=[0.5, 0.5])
    return T, SNormSpace(base=X, e=e, xi=xi)


class TestUnsaturatedMixture:
    """``s(f) = 0 < ‖Tf‖`` is an unbounded violation, kept finite in reports."""

    def test_unbounded_row_is_a_cut_on_the_domain_sphere(self):
        T, S = unsaturated_case()
        assert not S.saturated
        F, values = violation_oracle(T, S, C=2.0, seed=0)
        assert values[0] == np.inf
        # the unbounded rows are the points no atom sees: here e_1 alone
        np.testing.assert_array_equal(F[values == np.inf], np.eye(3)[:1])
        assert np.all(np.isfinite(values[1:]))
        assert T.domain.norm_rows(F[:1])[0] == pytest.approx(1.0, rel=1e-12)
        assert S.seminorm_rows(F[:1])[0] == 0.0
        np.testing.assert_allclose(S.seminorm_rows(F[1:]), 1.0, rtol=1e-12)

    def test_solve_reads_an_unbounded_violation_finite(self, monkeypatch):
        T, bad = unsaturated_case()
        real_oracle = factorization.violation_oracle

        def unsaturated_oracle(T, S, C, **kwargs):
            return real_oracle(T, bad, C, **kwargs)

        monkeypatch.setattr(factorization, "violation_oracle",
                            unsaturated_oracle)
        cert = find_domination_measure(T, bad.e, budget=1, seed=0)
        assert (cert.stop, cert.iterations) == ("budget", 1)
        assert cert.residual == factorization._UNBOUNDED
        json.dumps(cert.to_jsonable(), allow_nan=False)
        # the unbounded cut is a witness on the domain sphere
        cut = cert.witnesses[-1]
        assert bad.seminorm_rows(cut)[0] == 0.0
        assert T.domain.norm(cut) == pytest.approx(1.0, rel=1e-12)

    def test_verification_reads_an_unbounded_violation_finite(self):
        T, S = unsaturated_case()
        cert = factorization.DominationCertificate(
            xi=S.xi, C=2.0, residual=0.0, witnesses=(np.eye(3)[0],),
            iterations=0, exponents=S.e)
        reading = verify_domination(cert, T, sample_count=100)
        assert reading == factorization._UNBOUNDED
        json.dumps(reading, allow_nan=False)


class TestStopReason:
    """A certificate says which of the three causes ended its solve."""

    @staticmethod
    def curved_case():
        # two oracle rounds: the first one-atom mixture is violated
        return random_operator(3, 3, [1], s=1.5), E12

    def test_converged(self):
        T, e = self.curved_case()
        cert = find_domination_measure(T, e, seed=0)
        assert (cert.stop, cert.converged) == ("converged", True)
        assert cert.to_jsonable()["stop"] == "converged"

    def test_budget(self):
        T, e = self.curved_case()
        cert = find_domination_measure(T, e, budget=1, seed=0)
        assert (cert.stop, cert.converged, cert.iterations) == ("budget",
                                                                False, 1)
        assert cert.to_jsonable()["stop"] == "budget"

    def test_lp_limit(self, monkeypatch):
        monkeypatch.setattr(factorization, "_MAX_LP_SOLVES", 1)
        T, e = self.curved_case()
        cert = find_domination_measure(T, e, seed=0)
        assert (cert.stop, cert.converged) == ("lp-limit", False)
        assert len(cert.lp_values) == 1 and cert.iterations <= 1
        assert cert.to_jsonable()["stop"] == "lp-limit"

    def test_stop_must_match_convergence(self):
        cert = find_domination_measure(*self.curved_case(), seed=0)
        for stop in factorization.STOP_REASONS:
            replaced = dataclasses.replace(cert, stop=stop)
            assert replaced.converged == (stop == "converged")
            assert replaced.to_jsonable()["converged"] == replaced.converged
        with pytest.raises(ValueError):
            dataclasses.replace(cert, stop="stalled")


class TestVerifyDomination:
    def test_converged_certificate_verifies_on_fresh_samples(self):
        rng = np.random.default_rng(17)
        X = make_space([1, 1, 1], 1)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        cert = find_domination_measure(T, E12, seed=4)
        assert cert.converged
        assert verify_domination(cert, T, sample_count=10000,
                                 seed=99) <= 1e-6

    def test_reading_is_the_ratio_and_meets_a_dense_scan(self):
        # the former absolute gap ‖Tf‖ - C s(f) read 2.88e-6 here, and the
        # X-sphere oracle left a ratio violation of 1.66e-5 on the circle
        T = random_operator(2, 2, [501], s=2.0)
        e = ExponentTriple(p=1.0, q=3.0)
        tol = 1e-6
        cert = find_domination_measure(T, e, tol=tol, budget=40, seed=0)
        assert cert.converged
        assert verify_domination(cert, T, sample_count=20000) <= tol
        scan = circle_scan(T, cert.snorm_space(T.domain), 2, 200001)
        assert scan / cert.C ** e.q - 1.0 <= tol

    def test_halved_constant_shows_violation(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.array([[1.0, 1.0]]), domain=X,
                           codomain=EuclideanNorm(dim=1))
        cert = find_domination_measure(T, E12, seed=0)
        weakened = type(cert)(xi=cert.xi, C=cert.C / 2.0, residual=cert.residual,
                              witnesses=cert.witnesses, iterations=cert.iterations,
                              exponents=cert.exponents)
        assert verify_domination(weakened, T, sample_count=2000,
                                 seed=1) > 0.0


class TestCollapseWeight:
    def test_two_atom_mixture_collapses_to_average(self):
        X = make_space([1, 1], 2)
        cert = find_domination_measure(identity_operator(X), E22, seed=0)
        cert = type(cert)(xi=unit_span_measure(), C=cert.C, residual=cert.residual,
                          witnesses=cert.witnesses, iterations=cert.iterations,
                          exponents=E22)
        w = collapse_weight(cert)
        np.testing.assert_allclose(w, [0.5, 0.5])
        S = SNormSpace(base=X, e=E22, xi=cert.xi)
        rng = np.random.default_rng(21)
        for _ in range(100):
            f = rng.normal(size=2)
            weighted = float(np.sum(np.abs(f) ** 2 * w
                                    * X.space.weights) ** 0.5)
            assert S.seminorm(f) == pytest.approx(weighted, rel=1e-12,
                                                  abs=1e-300)

    def test_identity_gives_unit_weight(self):
        X = make_space([1, 1], 2)
        cert = find_domination_measure(identity_operator(X), E22, seed=0)
        np.testing.assert_allclose(collapse_weight(cert), [1.0, 1.0])

    def test_rejects_distinct_exponents(self):
        X = make_space([1, 1], 1)
        cert = find_domination_measure(identity_operator(X), E12, seed=0)
        with pytest.raises(ValueError):
            collapse_weight(cert)


class TestExtensionNorm:
    def test_identity_on_unit_dirac(self):
        X = make_space([1, 1], 1)
        S = dirac_space(X, E12, np.ones(2))
        assert extension_norm_estimate(identity_operator(X), S,
                                       seed=0) == pytest.approx(1.0, rel=1e-9)

    def test_zero_operator(self):
        X = make_space([1, 1], 1)
        T = LinearOperator(matrix=np.zeros((1, 2)), domain=X,
                           codomain=EuclideanNorm(dim=1))
        S = dirac_space(X, E12, np.ones(2))
        assert extension_norm_estimate(T, S, seed=0) == 0.0

    def test_bounded_by_certificate_constant(self):
        rng = np.random.default_rng(23)
        X = make_space([1, 1, 1], 1)
        T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                           codomain=EuclideanNorm(dim=3))
        cert = find_domination_measure(T, E12, seed=5)
        assert cert.converged
        S = SNormSpace(base=X, e=E12, xi=cert.xi)
        ext = extension_norm_estimate(T, S, seed=0)
        assert ext <= cert.C * (1.0 + 2e-6)
        # on these domains the strong concavity constant equals the
        # extension norm, and both match the certificate constant
        mpq = pq_concavity_estimate(T, E12, budget=12, seed=0).value
        assert ext >= mpq * (1.0 - 1e-6)

    @pytest.mark.parametrize("s, p, q", [(1.0, 1.0, 2.0), (2.0, 2.0, 2.0),
                                         (1.5, 1.0, 1.0), (3.0, 2.0, 2.0)])
    def test_collapsed_certificates_meet_the_extension_norm(self, s, p, q):
        # a mixture with one atom, or any mixture at p = q, is a weighted
        # L^p space, where the extension norm is exact: it meets the LP
        # constant C / (1 + tol) of the certificate from both sides, and on
        # the closed routes (p = q = 1, or s = p) the constant C itself
        e = ExponentTriple(p=p, q=q)
        tol = 1e-6
        checked = 0
        for k in range(4):
            T = random_operator(3, 3, [500 + k], s=s)
            cert = find_domination_measure(T, e, tol=tol, seed=0)
            if not (cert.converged and (e.is_extreme or len(cert.xi) == 1)):
                continue
            ext = extension_norm_estimate(T, cert.snorm_space(T.domain))
            closed = p == q == 1.0 or s == p
            bound = cert.C if closed else cert.C / (1.0 + tol)
            # a saturation repair appends the uniform starting row to the
            # mixture and multiplies C by (1 + tol)^(1/q); the repaired
            # mixture is then bounded by that constant, not equal to it
            grid = factorization.default_domination_grid(T.domain, e)
            if len(cert.xi) > 1 and np.array_equal(cert.xi.atoms[-1],
                                                   grid[0]):
                assert ext <= bound * (1.0 + 1e-12)
            else:
                assert ext == pytest.approx(bound, rel=1e-12)
            checked += 1
        assert checked

    @pytest.mark.parametrize("q", [2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_the_oracle_at_zero_is_the_extension_norm(self, n, q):
        # a two-atom q > p mixture takes the oracle's ascent route
        T = random_operator(n, n, [13], s=2.0)
        S = two_atom_space(T.domain, ExponentTriple(p=1.0, q=q))
        _, values = violation_oracle(T, S, C=0.0)
        assert values[0] == pytest.approx(
            extension_norm_estimate(T, S) ** q, rel=1e-12)
        assert values[0] == pytest.approx(circle_scan(T, S, n, 200001),
                                          rel=1e-9)

    def test_multi_atom_certificates_bound_the_extension_norm(self):
        e = ExponentTriple(p=1.0, q=2.0)
        for k in range(4):
            T = random_operator(3, 3, [500 + k], s=2.0)
            cert = find_domination_measure(T, e, seed=0)
            assert cert.converged and len(cert.xi) >= 3
            ext = extension_norm_estimate(T, cert.snorm_space(T.domain))
            assert ext <= cert.C


class TestKakutani:
    def test_matching_exponent_gives_equal_norms(self):
        for p, q, s in ((1.0, 2.0, 1.0), (2.0, 2.0, 2.0)):
            X = make_space([1, 1], s)
            cert, a, b = kakutani_equivalence(X, ExponentTriple(p=p, q=q), seed=0)
            assert abs(a - 1.0) <= 1e-4
            assert abs(b - 1.0) <= 1e-4

    def test_single_atom_space(self):
        X = make_space([1.0], 1)
        cert, a, b = kakutani_equivalence(X, E12, seed=0)
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)

    def test_intermediate_exponent_straddles_one(self):
        X = make_space([1, 1], 1.5)
        cert, a, b = kakutani_equivalence(X, E12, seed=0, samples=2048)
        assert a >= 1.0 - 1e-9
        expected = 2.0 ** (1.0 - 1.0 / 1.5)  # disjoint-support pair ratio
        assert b >= expected - 1e-6
        mpq = pq_concavity_estimate(identity_operator(X), E12, budget=12,
                                    seed=0).value
        assert b <= mpq * (1.0 + 1e-6) * (1.0 + 1e-4)

    def test_unconverged_solve_gives_no_bounds(self):
        X = make_space([1, 1], 1.5)
        cert, a, b = kakutani_equivalence(X, E12, budget=1, seed=0)
        assert cert.stop == "budget"
        assert a is None and b is None


class TestMinimalConstant:
    def test_identity_minimal_constant_is_one(self):
        X = make_space([1, 1], 1)
        cert = find_domination_measure(identity_operator(X), E12, seed=0)
        assert cert.converged
        assert cert.C == pytest.approx(1.0, abs=1e-4)
