#!/usr/bin/env python3
"""Mixture norms: q-averages of weighted L^p integrals against finitely
many positive dual-ball weights.  A mixture holds its weights as plain
nonnegative rows; the mixture space checks that each lies in the dual ball.

Three stories: a single full-support weight collapses the functional to a
weighted L^p norm; weights restricted to partition blocks give a mixed
l^q(L^p) expression; and a weight that misses an atom only yields a
seminorm, with a concrete annihilated function as evidence.

Run:  python3 demos/02_mixture_norms.py
"""

import numpy as np

from latfact import (DiscreteRadonMeasure, ExponentTriple, MeasureSpace,
                     SNormSpace, WeightedLebesgue, dirac_space,
                     inclusion_bound_check, partition_space,
                     xi_saturation_check)

mu = MeasureSpace(weights=np.ones(2))
X = WeightedLebesgue(space=mu, s=1.0)
e = ExponentTriple(p=1.0, q=2.0)

# ---------------------------------------------------------------------------
# one unit-mass weight with full support: the mixture IS the weighted
# L^p norm with that weight, whatever q is
# ---------------------------------------------------------------------------
D = dirac_space(X, e, np.array([1.0, 1.0]))
print("single-weight mixture of (2, 3):", D.seminorm([2.0, 3.0]),
      "  weighted L^1 value:", 5.0)

# ---------------------------------------------------------------------------
# weights on partition blocks: q-mix of the per-block weighted L^p norms
# ---------------------------------------------------------------------------
P = partition_space(X, e, np.array([1.0, 1.0]), [[0], [1]], [0.5, 0.5])
f = np.array([1.0, 1.0])
blocks = ((0.5, 1.0), (0.5, 1.0))  # (mass, block integral of |f| g dmu)
mixed = sum(a * v ** e.q for a, v in blocks) ** (1.0 / e.q)
print("\npartition mixture of (1, 1):", P.seminorm(f),
      "  mixed-norm formula:", mixed)

# ---------------------------------------------------------------------------
# a boundary weight annihilates an atom: the functional degrades to a
# seminorm and refuses to act as a lattice norm
# ---------------------------------------------------------------------------
xi = DiscreteRadonMeasure.from_pairs([(np.array([1.0, 0.0]), 1.0)])
S = SNormSpace(base=X, e=e, xi=xi)
ok, witness = xi_saturation_check(S)
print("\nboundary mixture saturated?", ok, " witness atom:", witness)
print("seminorm of the nonzero function (0, 5):", S.seminorm([0.0, 5.0]))
try:
    S.norm([1.0, 1.0])
except Exception as exc:
    print("norm access raises:", type(exc).__name__, "-", exc)

# ---------------------------------------------------------------------------
# probability mixtures always sit below the base norm: the observed
# ratio over random samples never exceeds total_mass^(1/q) = 1
# ---------------------------------------------------------------------------
ratio, _ = inclusion_bound_check(P, samples=2000, seed=0)
print("\nlargest mixture/base ratio over 2000 samples:", round(ratio, 9),
      " (bound 1.0)")
