#!/usr/bin/env python3
"""Renorming a space by a mixture of its own dual weights.

Running the domination solver on the identity produces a mixture norm that
the original norm is equivalent to: probability mixtures always sit below
the norm (lower constant one), and the certificate constant caps the other
side.  At matching exponents the two norms coincide; in between they
genuinely straddle, with the gap governed by the strong concavity constant
of the space.

Run:  python3 demos/05_renorming_equivalence.py
"""

import numpy as np

from latfact import (ExponentTriple, MeasureSpace, WeightedLebesgue,
                     identity_operator, kakutani_equivalence,
                     pq_concavity_estimate)

mu = MeasureSpace(weights=np.ones(2))
e = ExponentTriple(p=1.0, q=2.0)

# ---------------------------------------------------------------------------
# matching exponent: the mixture norm equals the original norm
# ---------------------------------------------------------------------------
X1 = WeightedLebesgue(space=mu, s=1.0)
cert1, lower, upper = kakutani_equivalence(X1, e, seed=0)
print("s = p = 1:   lower constant", round(lower, 10),
      "  upper constant", round(upper, 10))

# ---------------------------------------------------------------------------
# intermediate exponent p < s < q: the constants straddle one; the upper
# one matches the strong concavity constant of the space, which a
# disjointly supported pair already forces up to 2^(1/p - 1/s)
# ---------------------------------------------------------------------------
Xs = WeightedLebesgue(space=mu, s=1.5)
_, lower, upper = kakutani_equivalence(Xs, e, seed=0)
mpq = pq_concavity_estimate(identity_operator(Xs), e, budget=12, seed=0).value
print("\ns = 1.5:     lower constant", round(lower, 10),
      "  upper constant", round(upper, 10))
print("             strong concavity estimate of the space:", round(mpq, 10))
print("             disjoint-pair lower bound 2^(1/p - 1/s):",
      round(2.0 ** (1.0 - 1.0 / 1.5), 10))

# ---------------------------------------------------------------------------
# the renorming's certificate holds the smallest certified constant for
# the identity: the solver returns the grid-minimal constant directly, up
# to the factor 1 + tol
# ---------------------------------------------------------------------------
print("\nminimal certified constant for the identity on the 1-norm:",
      round(cert1.C, 8))
