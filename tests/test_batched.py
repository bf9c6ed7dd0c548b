"""The batched searches against the one-at-a-time loops they replace.

``reference_polish_family``, ``reference_projected_ascent`` and
``reference_signed_starts`` are the code the batched versions replaced,
kept verbatim as references: the family search that calls a scalar ratio
once per probe, the sphere ascent that recomputes every row until all rows
have stalled three times, and the start rows with every repeat of the
pattern × start product.  The batched versions must give the same bits.
The ascent reference has one addition since: the ``keep_signs`` step,
which stops an entry at zero instead of letting it change sign.  The polish
reference can list the probes it accepts.  ``reference_fixed_point_ascent``
is the fixed point that steps every gaining row until none gains; the one
that stops a problem once its best row stops gaining must agree with it to
the last bits.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latfact import (EuclideanNorm, ExponentTriple, LinearOperator,
                     dirac_space, dual_norm_rows, family_sup_lhs,
                     lattice_aggregate_norm, operator_norm_estimate,
                     pq_concavity_ratio, q_concavity_ratio, q_summing_ratio,
                     violation_oracle, weak_q_norm)
from latfact import constants, estimates, factorization
from latfact.search import _ETAS, sign_patterns, signed_starts
from latfact.spaces import power_mean
from latfact.suite import random_operator
from conftest import make_space, two_atom_space

WEAK_Q_CAP_WITNESS = Path(__file__).parent / "data" / "weak_q_cap_witness.npz"


def reference_polish_family(ratio, F, sweeps, accepts=None):
    val = ratio(F)
    delta = 0.5
    m, n = F.shape
    for _ in range(sweeps):
        improved = False
        for i in range(m):
            for j in range(n):
                for direction in (delta, -delta):
                    old = F[i, j]
                    F[i, j] = old + direction
                    cand = ratio(F)
                    if cand > val + 1e-13 * abs(val):
                        val = cand
                        improved = True
                        if accepts is not None:
                            accepts.append((i, j, direction))
                    else:
                        F[i, j] = old
        if not improved:
            delta *= 0.5
            if delta < 1e-3:
                break
        scale = np.max(np.abs(F))
        if scale > 0:
            F /= scale
            val = ratio(F)

    etas = np.geomspace(1e-8, 1.0, 22)
    grad = np.zeros_like(F)
    stall = 0
    for _ in range(60):
        step = 1e-6 * max(1.0, float(np.max(np.abs(F))))
        for i in range(m):
            for j in range(n):
                old = F[i, j]
                F[i, j] = old + step
                up = ratio(F)
                F[i, j] = old - step
                down = ratio(F)
                F[i, j] = old
                grad[i, j] = (up - down) / (2.0 * step)
        gn = float(np.linalg.norm(grad))
        if gn == 0.0:
            break
        direction = grad / gn
        best_eta, best_val = 0.0, val
        for eta in etas:
            cand = ratio(F + eta * direction)
            if cand > best_val + 1e-15 * abs(val):
                best_eta, best_val = eta, cand
        if best_eta == 0.0:
            stall += 1
            if stall >= 2:
                break
        else:
            F += best_eta * direction
            val = best_val
            stall = 0
    return val, F


def reference_projected_ascent(value_rows, grad_rows, normalize_rows, A0, *,
                               iters=40, nonneg=True, keep_signs=False,
                               radial_rows=None):
    A = normalize_rows(np.maximum(A0, 0.0) if nonneg else A0)
    R, n = A.shape
    val = value_rows(A)
    gain = 1e-15 * float(np.abs(val).max(initial=0.0))
    stall = np.zeros(R, dtype=int)
    rows = np.arange(R)
    for _ in range(iters):
        G = grad_rows(A)
        if radial_rows is not None:
            U = radial_rows(A)
            un2 = np.einsum("ij,ij->i", U, U)
            un2[un2 == 0.0] = 1.0
            G = G - (np.einsum("ij,ij->i", G, U) / un2)[:, None] * U
        gn = np.sqrt(np.einsum("ij,ij->i", G, G))
        gn[gn == 0.0] = 1.0
        cand = (A[:, None, :] + _ETAS[:, None] * (G / gn[:, None])[:, None, :]
                ).reshape(-1, n)
        if nonneg:
            np.maximum(cand, 0.0, out=cand)
        elif keep_signs:
            cand[cand * np.repeat(A, _ETAS.size, axis=0) < 0.0] = 0.0
        cand = normalize_rows(cand)
        cval = value_rows(cand).reshape(R, _ETAS.size)
        pick = cval.argmax(axis=1)
        cbest = cval[rows, pick]
        better = cbest > val + gain
        if better.any():
            A[better] = cand.reshape(R, _ETAS.size, n)[better, pick[better]]
            val[better] = cbest[better]
        stall = np.where(better, 0, stall + 1)
        if stall.min() >= 3:
            break
    return A, val


def reference_fixed_point_ascent(value_rows, step_rows, A0, *, iters):
    A = np.array(A0, dtype=float)
    val = value_rows(A)
    gain = 1e-15 * np.abs(val).max(axis=-1, initial=0.0)[..., None]
    live = np.ones(val.shape, dtype=bool)
    for _ in range(iters):
        B = step_rows(A)
        bval = value_rows(B)
        live &= bval > val + gain
        if not live.any():
            break
        A[live] = B[live]
        val[live] = bval[live]
    return A, val


def reference_signed_starts(n, restarts, seed):
    rng = np.random.default_rng([61, *np.atleast_1d(seed).astype(int).tolist()])
    rows = [np.ones(n)]
    rows.extend(np.eye(n))
    while len(rows) < restarts:
        rows.append(np.abs(rng.normal(size=n)))
    patterns = sign_patterns(n)
    return (patterns[:, None, :] * np.vstack(rows)[None, :, :]).reshape(-1, n)


E12 = ExponentTriple(p=1.0, q=2.0)


def _search_starts(ratio, n, budget, seed):
    """The start families ``family_search`` draws, as the estimators call it."""
    starts = []

    def recorded(ratio, F, sweeps):
        starts.append(F.copy())
        return 0.0, F

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimates, "_polish_family", recorded)
        estimates.family_search(ratio, n, m_max=8, budget=budget, seed=seed)
    return starts


def _polish_cases():
    """(name, scalar ratio, starts) over flat, closed-form, summing and
    p = q ratios, and two chain instances whose sweeps repeat; the second
    takes the curved M_pq fixed point."""
    flat = random_operator(3, 3, [5], s=1.0)
    l2 = random_operator(2, 2, [6], s=2.0)
    hilbert = random_operator(2, 2, [7], s=1.5)
    cases = [
        ("q-concavity", lambda F: q_concavity_ratio(flat, 2.0, F), 3),
        ("pq-flat", lambda F: pq_concavity_ratio(flat, E12, F), 3),
        ("pq-svd", lambda F: pq_concavity_ratio(l2, E12, F), 2),
        ("q-summing-fixed-point", lambda F: q_summing_ratio(hilbert, 2.0, F,
                                                           budget=4), 2),
    ]
    # at the full sweep count the delta stop, accepts on the last cell
    # and plans that span two sweeps all run
    out = []
    for case, (name, scalar, n) in enumerate(cases):
        starts = []
        for m in (1, 2, 3, 4, 5, 6) if n == 3 else (1, 2, 3):
            rng = np.random.default_rng([case, m])
            starts.append(estimates._initial_family(rng, m, n, (case + m) % 3))
        starts.append(np.zeros((2, n)))
        out.append((name, scalar, starts))
    # the chain pool's s = 1 and s = 1.5 instances with their chain seeds:
    # the M_q restart at m = 6 accepts the same cells in every sweep
    mq, mpq = _chain_ratios()
    out.append(("chain M_q, m = 6", mq,
                _search_starts(mq, 3, budget=6, seed=[0, 1])[5:]))
    out.append(("chain M_pq", mpq, _search_starts(mpq, 2, budget=2,
                                                  seed=[0, 2])))
    return out


def _chain_ratios():
    """M_q of the chain pool's first instance, M_pq of its third."""
    l1 = random_operator(3, 3, [2026, 4, 0], s=1.0)
    l15 = random_operator(2, 2, [2026, 4, 2], s=1.5)
    return (lambda F: q_concavity_ratio(l1, 2.0, F),
            lambda F: pq_concavity_ratio(l15, E12, F))


def _replayed_plans(monkeypatch) -> list[bool]:
    """Per ``_sweep_plan`` call from now on, whether it replays an accept."""
    sweep_plan = estimates._sweep_plan
    replays = []

    def recorded(*args):
        plan = sweep_plan(*args)
        replays.append(any(replayed for *_, replayed in plan))
        return plan

    monkeypatch.setattr(estimates, "_sweep_plan", recorded)
    return replays


class TestPolishFamily:
    @pytest.mark.parametrize("case", range(6))
    def test_stacked_polish_matches_the_probe_loop(self, case, monkeypatch):
        name, scalar, starts = _polish_cases()[case]

        def stacked(S):
            return np.array([scalar(F) for F in S])

        replays = _replayed_plans(monkeypatch)
        for F0 in starts:
            ref_val, ref_F = reference_polish_family(scalar, F0.copy(),
                                                     estimates._SWEEPS)
            val, F = estimates._polish_family(stacked, F0.copy(),
                                              estimates._SWEEPS)
            assert val == ref_val, (name, F0.shape)
            assert np.array_equal(F, ref_F), (name, F0.shape)
        assert any(replays), name

    def test_synthetic_ratios_match_the_probe_loop(self, monkeypatch):
        # smooth scale-invariant ratios on random shapes, whose replays also
        # miss by a replayed probe that does not gain
        replays = _replayed_plans(monkeypatch)
        for seed in range(64):
            rng = np.random.default_rng([77, seed])
            m, n = (int(d) for d in rng.integers(1, 4, size=2))
            W = rng.normal(size=(m * n, m * n))
            c = rng.normal(size=m * n)

            def scalar(F):
                f = F.ravel() / np.max(np.abs(F))
                return float(np.cos(f @ W @ f) + c @ f)

            def stacked(S):
                return np.array([scalar(F) for F in S])

            F0 = rng.normal(size=(m, n))
            ref_val, ref_F = reference_polish_family(scalar, F0.copy(),
                                                     estimates._SWEEPS)
            val, F = estimates._polish_family(stacked, F0.copy(),
                                              estimates._SWEEPS)
            assert val == ref_val, seed
            assert np.array_equal(F, ref_F), seed
        assert any(replays)

    def test_probe_batches_are_single_calls(self, monkeypatch):
        T = random_operator(2, 2, [1])
        sizes, plans = [], []

        def stacked(S):
            sizes.append(S.shape[0])
            return q_concavity_ratio(T, 2.0, S)

        sweep_plan = estimates._sweep_plan

        def recorded(*args):
            plan = sweep_plan(*args)
            plans.append(sum(len(probes) + len(end)
                             for _, probes, end, _ in plan))
            return plan

        monkeypatch.setattr(estimates, "_sweep_plan", recorded)
        m, n = 2, 2
        estimates._polish_family(stacked, np.array([[1.0, 0.5], [0.2, -0.4]]),
                                 estimates._SWEEPS)
        # the start value, then one call per plan; the first plan is the
        # first sweep's 2 m n probes and its end
        assert sizes[0] == 1
        assert plans[0] == 2 * m * n + 1
        assert sizes[1:1 + len(plans)] == plans
        # 2 m n gradient probes and 22 line steps per gradient step
        gradient = sizes[1 + len(plans):]
        assert gradient
        assert gradient == [2 * m * n, 22] * (len(gradient) // 2) + (
            [2 * m * n] if len(gradient) % 2 else [])

    def test_a_repeating_sweep_costs_less_than_a_call_per_accept(self):
        mq, _ = _chain_ratios()
        F0 = _search_starts(mq, 3, budget=6, seed=[0, 1])[5]
        accepts, calls = [], []

        def stacked(S):
            calls.append(len(S))
            return mq(S)

        reference_polish_family(mq, F0.copy(), estimates._SWEEPS, accepts)
        estimates._polish_family(stacked, F0.copy(), estimates._SWEEPS)
        assert len(calls) < len(accepts)


def lebesgue_target(T: LinearOperator, r: float) -> LinearOperator:
    """``T`` into a seeded weighted ``L^r``: the codomain's own gradient."""
    weights = np.random.default_rng([int(r), T.d]).uniform(0.5, 2.0, size=T.d)
    return LinearOperator(T.matrix, T.domain, make_space(weights, r))


class TestProjectedAscent:
    """Live rows give the bits of the loop that recomputes every row."""

    @pytest.mark.parametrize("s, target", [
        (1.0, None), (1.5, None), (2.0, None), (3.0, None), (1.5, 3.0),
        (2.0, 3.0)],
        ids=["1.0", "1.5", "2.0", "3.0", "1.5-L3", "2.0-L3"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_operator_norm_estimate(self, monkeypatch, s, target, seed):
        T = random_operator(3, 3, [seed, 11], s=s)
        if target is not None:
            T = lebesgue_target(T, target)
        est = operator_norm_estimate(T, budget=8, seed=seed)
        monkeypatch.setattr(constants, "projected_ascent",
                            reference_projected_ascent)
        ref = operator_norm_estimate(T, budget=8, seed=seed)
        assert est.value == ref.value
        assert np.array_equal(est.witness[0], ref.witness[0])

    @pytest.mark.parametrize("C", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("s, target", [(1.0, None), (2.0, None),
                                           (2.0, 3.0)],
                             ids=["1.0", "2.0", "2.0-L3"])
    def test_violation_oracle(self, monkeypatch, C, s, target):
        T = random_operator(3, 3, [3], s=s)
        if target is not None:
            T = lebesgue_target(T, target)
        # a two-atom q > p mixture takes the oracle's ascent route
        S = two_atom_space(T.domain, ExponentTriple(p=1.0, q=2.0))
        F, values = violation_oracle(T, S, C=C, seed=1)
        monkeypatch.setattr(factorization, "projected_ascent",
                            reference_projected_ascent)
        ref_F, ref_values = violation_oracle(T, S, C=C, seed=1)
        assert values[0] == ref_values[0]
        assert np.array_equal(F[0], ref_F[0])


def _counted_fixed_point(monkeypatch, ascent) -> list[int]:
    """Route ``weak_q_norm`` through ``ascent``; list its ``step_rows`` calls.

    One entry per ascent, its number of steps.
    """
    steps = []

    def run(value_rows, step_rows, A0, *, iters):
        steps.append(0)

        def counted(H):
            steps[-1] += 1
            return step_rows(H)

        return ascent(value_rows, counted, A0, iters=iters)

    monkeypatch.setattr(constants, "fixed_point_ascent", run)
    return steps


class TestFixedPointStop:
    """Ending a problem at its leader's last gain keeps the exhaustive values."""

    def test_sweep_agrees_with_the_exhaustive_loop(self, monkeypatch):
        fixed_point = constants.fixed_point_ascent
        cases = []
        for s in (1.5, 3.0):
            for q in (1.5, 2.0, 3.0):
                rng = np.random.default_rng([48, int(2 * s), int(2 * q)])
                for n in range(2, 6):
                    X = make_space(rng.uniform(0.5, 2.0, size=n), s)
                    for m in range(2, 9):
                        cases.append((X, rng.normal(size=(3, m, n)), q))

        def sweep(ascent):
            steps = _counted_fixed_point(monkeypatch, ascent)
            values = [weak_q_norm(X, F, q, budget=8, seed=[7, k])
                      for k, (X, F, q) in enumerate(cases)]
            return np.concatenate(values), sum(steps)

        got, steps = sweep(fixed_point)
        ref, ref_steps = sweep(reference_fixed_point_ascent)
        assert np.all(np.abs(got - ref) <= 4e-15 * ref)
        assert steps < ref_steps

    def test_early_leader_beside_a_capped_family_keeps_its_bits(
            self, monkeypatch):
        T = random_operator(4, 4, [4], s=2.0)
        capped = np.load(WEAK_Q_CAP_WITNESS)["F"]
        early = np.random.default_rng(0).normal(size=(7, 8, 4))[6]
        steps = _counted_fixed_point(monkeypatch, constants.fixed_point_ascent)

        def value(F):
            return weak_q_norm(T.domain, F, 3.0, budget=8, seed=[0, 3])

        alone = [value(early), value(capped)]
        stacked = value(np.stack([early, capped]))
        assert steps[0] < 60 and steps[1:] == [60, 60]
        assert stacked[0] == alone[0]
        assert stacked[1] == alone[1]


@pytest.mark.parametrize("n", range(1, 13))
def test_sign_patterns_are_every_pattern_up_to_a_flip(n):
    patterns = sign_patterns(n)
    assert patterns.shape == (2 ** (n - 1), n)
    assert set(np.unique(patterns)) <= {-1.0, 1.0}
    assert np.all(patterns[:, 0] == 1.0)
    assert len({tuple(row) for row in patterns.tolist()}) == 2 ** (n - 1)


class TestDistinctStarts:
    """Dropping repeated start rows changes no value and no witness."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 12])
    @pytest.mark.parametrize("restarts", [4, 16])
    def test_rows_are_the_first_occurrences(self, n, restarts):
        rows = signed_starts(n, restarts, seed=3)
        full = reference_signed_starts(n, restarts, 3)
        # rows compare by value, so -0.0 and 0.0 are one key
        first = {}
        for index, key in enumerate(map(tuple, (full + 0.0).tolist())):
            first.setdefault(key, index)
        assert len({tuple(r) for r in (rows + 0.0).tolist()}) == len(rows)
        assert rows.tobytes() == full[list(first.values())].tobytes()

    @pytest.mark.parametrize("s", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("budget", [4, 16])
    @pytest.mark.parametrize("C", [0.5, 1.5])
    def test_searches_keep_their_bits(self, monkeypatch, s, budget, C):
        T = random_operator(4, 4, [13], s=s)
        # a two-atom q > p mixture takes the oracle's ascent route
        S = two_atom_space(T.domain, E12)

        def searches():
            est = operator_norm_estimate(T, budget=budget, seed=2)
            F, values = violation_oracle(T, S, C=C, seed=2)
            return (est.value, est.witness[0].tobytes(), values[0],
                    F[0].tobytes())

        got = searches()
        monkeypatch.setattr(constants, "signed_starts",
                            reference_signed_starts)
        monkeypatch.setattr(factorization, "signed_starts",
                            reference_signed_starts)
        assert got == searches()


def _stack_cases(n=3):
    """(route, space, exponents) for every route of the two denominators."""
    rng = np.random.default_rng(44)
    mu = rng.uniform(0.5, 2.0, size=n)
    L2 = make_space(mu, 2.0)
    return [
        ("s = 1 vertex / flat", make_space(mu, 1.0), E12),
        ("s = q = 2 SVD / s/p = q/p = 2 SVD", L2, E12),
        ("s = 1.5 fixed point / curved", make_space(mu, 1.5), E12),
        ("curved s > p, q > p", make_space(mu, 3.0), ExponentTriple(2.0, 4.0)),
        ("p = q", L2, ExponentTriple(p=2.0, q=2.0)),
        ("one-atom mixture", dirac_space(L2, ExponentTriple(p=2.0, q=2.0),
                                         np.resize([0.5, 1.0, 0.8], n)),
         ExponentTriple(p=2.0, q=2.0)),
    ]


class TestStackedDenominators:
    """A stack of families gives each family's own value."""

    @staticmethod
    def stack(m=2, n=3):
        rng = np.random.default_rng(45)
        F = rng.normal(size=(5, m, n))
        F[2] = 0.0  # a zero family in the middle of the stack
        F[3, 1] = 0.0  # and a family with a zero vector
        return F

    @pytest.mark.parametrize("case", range(6))
    def test_family_sup_lhs(self, case):
        route, X, e = _stack_cases()[case]
        F = self.stack()
        got = family_sup_lhs(X, e, F)
        assert got.shape == (5,)
        for k in range(5):
            assert got[k] == family_sup_lhs(X, e, F[k]), route

    @pytest.mark.parametrize("case", range(6))
    def test_weak_q_norm(self, case):
        route, X, e = _stack_cases()[case]
        F = self.stack()
        got = weak_q_norm(X, F, e.q, budget=4, seed=2)
        assert got.shape == (5,)
        for k in range(5):
            assert got[k] == weak_q_norm(X, F[k], e.q, budget=4,
                                         seed=2), route

    def test_weak_q_norm_is_bitwise_stack_independent(self):
        T = random_operator(2, 2, [2026, 4, 2], s=1.5)
        F = np.random.default_rng(0).normal(size=(400, 2, 2))[257:265]
        stacked = weak_q_norm(T.domain, F, 2.0, budget=8, seed=[0, 3])
        alone = weak_q_norm(T.domain, F[:1], 2.0, budget=8, seed=[0, 3])
        assert alone[0] == stacked[0]

    @pytest.mark.parametrize("case", range(6))
    def test_one_vector_families(self, case):
        route, X, e = _stack_cases()[case]
        F = np.random.default_rng(46).normal(size=(5, 1, 3))
        F[2] = 0.0
        for fn in (lambda G: family_sup_lhs(X, e, G),
                   lambda G: weak_q_norm(X, G, e.q, budget=4, seed=2)):
            got = fn(F)
            assert got.shape == (5,)
            assert got[2] == 0.0
            for k in range(5):
                assert got[k] == fn(F[k]), route

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_lattice_aggregate_norm(self, s):
        X = make_space([1.0, 0.5, 2.0], s)
        F = self.stack()
        for t in (1.0, 2.0):
            got = lattice_aggregate_norm(X, F, t)
            agg = (np.abs(F) ** t).sum(axis=1) ** (1.0 / t)
            assert got[2] == 0.0
            assert np.array_equal(got, [X.norm(a) for a in agg])

    def test_stacked_ratios(self):
        T = LinearOperator(matrix=np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 1.0]]),
                           domain=make_space([1.0, 0.5, 2.0], 1.5),
                           codomain=EuclideanNorm(dim=2))
        F = self.stack()
        for fn in (lambda G: q_concavity_ratio(T, 2.0, G),
                   lambda G: pq_concavity_ratio(T, E12, G),
                   lambda G: q_summing_ratio(T, 2.0, G, budget=4)):
            got = fn(F)
            assert got[2] == 0.0
            for k in range(5):
                assert got[k] == fn(F[k])


def _draw_stack(data, K_max=40, m_max=8, n_max=12):
    """A seeded stack ``(K, m, n)`` of vectors of magnitude 10^-3 to 10^3."""
    K = data.draw(st.integers(1, K_max), label="K")
    m = data.draw(st.integers(1, m_max), label="m")
    n = data.draw(st.integers(1, n_max), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1),
                                          label="seed"))
    F = rng.normal(size=(K, m, n)) * 10.0 ** rng.uniform(-3.0, 3.0,
                                                          size=(K, m, 1))
    return F, rng


class TestStackProperty:
    """Bit-stable stacks: in a random stack, in any order, a family reads
    its lone value, and one vector reads its value as a stack of one."""

    @pytest.mark.parametrize("case", range(6))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_families_read_their_lone_values(self, case, data):
        F, rng = _draw_stack(data)
        route, X, e = _stack_cases(F.shape[2])[case]
        T = LinearOperator(matrix=rng.normal(size=(2, X.n)), domain=X,
                           codomain=EuclideanNorm(dim=2))
        perm = rng.permutation(F.shape[0])
        for fn in (lambda G: family_sup_lhs(X, e, G),
                   lambda G: weak_q_norm(X, G, e.q, budget=4, seed=2),
                   lambda G: q_concavity_ratio(T, e.q, G),
                   lambda G: pq_concavity_ratio(T, e, G),
                   lambda G: q_summing_ratio(T, e.q, G, budget=4)):
            alone = np.array([fn(G) for G in F])
            assert np.array_equal(fn(F), alone), route
            assert np.array_equal(fn(F[perm]), alone[perm]), route

    @given(data=st.data(),
           e=st.sampled_from([1.0, 1.5, 2.0, 3.7, 200.0]),
           sp=st.sampled_from([(1.0, 1.0), (1.01, 1.0), (1.02, 1.0),
                               (1.5, 1.0), (3.0, 1.0), (3.0, 2.0)]))
    @settings(max_examples=200, deadline=None)
    def test_a_vector_is_a_stack_of_one(self, data, e, sp):
        # dual norms at sigma' = 101 take the scaled power mean, at 51 and
        # below the unscaled sum
        F, rng = _draw_stack(data, m_max=1)
        V = F[:, 0]
        k = int(rng.integers(V.shape[0]))
        v = V[k]
        w = rng.uniform(0.5, 2.0, size=v.size)
        value = power_mean(v, e, w)
        assert isinstance(value, float)
        assert value == power_mean(v[None], e, w)[0] == power_mean(V, e, w)[k]
        X = make_space(w, e)
        assert X.norm(v) == X.norm_rows(v[None])[0] == X.norm_rows(V)[k]
        s, p = sp
        Y = make_space(w, s)
        h = dual_norm_rows(Y, p, v)
        assert isinstance(h, float)
        assert h == dual_norm_rows(Y, p, v[None])[0] == \
            dual_norm_rows(Y, p, V)[k]
        E = EuclideanNorm(dim=v.size)
        assert E.norm(v) == E.norm_rows(v[None])[0] == E.norm_rows(V)[k]
