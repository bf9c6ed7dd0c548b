#!/usr/bin/env python3
"""The four operator constants and the equality behind their middle term.

For an operator from a lattice-normed domain into a normed target, four
constants are estimated from explicit witness families:

    operator norm  <=  M_q  <=  M_pq  <=  pi_q

where M_pq replaces the q-aggregate denominator by a supremum over scaled
families, and pi_q divides by the weak-q norm over the dual ball.  On the
1-norm domain used here the first three are equal and come without a
search: L^s with s <= q is q-concave with constant one (Minkowski's
inequality in L^{s/q}), so M_q = ‖T‖, and at s = p the M_pq denominator is
(sum_i ‖f_i‖_p^q)^{1/q}, so M_pq = ‖T‖ as well; both read the exact
operator norm's witness, the best column.  The family search stays for
M_q at s > q, for curved M_pq (s > p, q > p), for pi_q, and where the
operator norm is only an ascent's lower bound.

The scaled-family supremum itself has two faces, a scaling side and a
dual-ball side, which agree; the demo checks this on a random instance by
brute force.

Run:  python3 demos/03_operator_constants.py
"""

import numpy as np

from latfact import (EuclideanNorm, ExponentTriple, LinearOperator,
                     MeasureSpace, WeightedLebesgue, attainment_point,
                     brute_force_family_sup, constant_chain_report,
                     family_sup_lhs, family_sup_rhs)
from latfact.spaces import extreme_dual_vectors

e = ExponentTriple(p=1.0, q=2.0)
X = WeightedLebesgue(space=MeasureSpace(weights=np.ones(3)), s=1.0)

rng = np.random.default_rng(7)
T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X,
                   codomain=EuclideanNorm(dim=3))

# ---------------------------------------------------------------------------
# the chain report runs all four estimators and replays each witness
# through the next ratio, so the reported values are monotone by
# construction
# ---------------------------------------------------------------------------
report = constant_chain_report(T, e, budget=10, seed=0)
print("constant chain for a random 3x3 operator on the 1-norm:")
for kind, value in report["chain"].items():
    print(f"    {kind:>14}: {value:.8f}")
print("chain ordering holds:", report["chain_ok"])

# ---------------------------------------------------------------------------
# the scaled-family supremum: scaling side (grid + polish, slow but
# assumption-free) versus dual-ball side (extreme candidates plus the
# attainment weight)
# ---------------------------------------------------------------------------
F = rng.normal(size=(2, 3))
lhs_fast = family_sup_lhs(X, e, F)
lhs_brute = brute_force_family_sup(X, e, F, step=1e-3)
grid = np.vstack([extreme_dual_vectors(X, e.p), attainment_point(X, e, F)])
rhs = family_sup_rhs(X, e, F, grid)
print("\nscaled-family supremum of a random pair:")
print("    duality reduction :", lhs_fast)
print("    brute-force grid  :", lhs_brute)
print("    dual-ball maximum :", rhs)
print("    relative spread   :",
      abs(lhs_brute - rhs) / rhs)
