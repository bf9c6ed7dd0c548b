#!/usr/bin/env python3
"""Tour of the basic objects: finite measure spaces, weighted Lebesgue
norms, p-th powers, Köthe duals, and the positive dual ball.

Run:  python3 demos/01_spaces_and_duals.py
"""

import numpy as np

from latfact import (MeasureSpace, WeightedLebesgue, extreme_dual_vectors,
                     p_convexity_estimate, pth_power_norm)
from latfact.spaces import dual_norm_of_pth_power, linear_sup_over_ball

# ---------------------------------------------------------------------------
# a measure space is just a vector of strictly positive atom weights,
# and a function on it is a plain vector of atom values
# ---------------------------------------------------------------------------
mu = MeasureSpace(weights=np.array([1.0, 1.0]))
X = WeightedLebesgue(space=mu, s=2.0)

print("norm of (3, 4) in the 2-norm over two unit atoms:", X.norm([3.0, 4.0]))
print("a weighted 1-norm:", WeightedLebesgue(
    space=MeasureSpace(weights=np.array([2.0, 1.0])), s=1.0).norm([1.0, 1.0]))

# ---------------------------------------------------------------------------
# the p-th power functional ||f|^{1/p}|_X^p drops the exponent: for the
# s-norm it is exactly the (s/p)-norm, and it stays a norm whenever the
# space is p-convex with constant one (s >= p)
# ---------------------------------------------------------------------------
print("\np-th power of the 2-norm at p=2 applied to (1, 3):",
      pth_power_norm(X, 2.0, [1.0, 3.0]))

# ---------------------------------------------------------------------------
# Köthe duals (the dual of the p-th power at p = 1): closed
# conjugate-exponent forms for the Lebesgue family; the numeric sup over
# the unit ball exists for anything else and agrees to ~1e-7
# ---------------------------------------------------------------------------
h = np.array([3.0, 4.0])
print("\ndual norm of (3, 4) against the 2-norm   closed:",
      dual_norm_of_pth_power(X, 1.0, h),
      "  numeric:", round(linear_sup_over_ball(X, 1.0, h), 10))

# ---------------------------------------------------------------------------
# the positive dual unit ball of the p-th power space is where mixture
# weights live, each a plain nonnegative weight row; when s = p it is the
# cube [0,1]^n with indicator extreme points, otherwise a curved body whose
# canonical candidates are the indicators scaled onto its sphere
# ---------------------------------------------------------------------------
X1 = WeightedLebesgue(space=mu, s=1.0)
print("\nextreme points of the dual cube (s = p = 1), one per row:")
print(extreme_dual_vectors(X1, p=1.0))
print("canonical candidates on the curved dual sphere (s = 2, p = 1):")
for h in extreme_dual_vectors(X, p=1.0):
    print("   ", np.round(h, 6), " dual norm",
          round(dual_norm_of_pth_power(X, 1.0, h), 12))

# ---------------------------------------------------------------------------
# p-convexity constants via witness families: the 1-norm is 2-convex with
# constant sqrt(2) on two atoms, attained by disjointly supported pairs
# ---------------------------------------------------------------------------
est = p_convexity_estimate(X1, p=2.0, budget=24, seed=1)
print("\n2-convexity lower bound for the 1-norm:", round(est.value, 9),
      " (sqrt(2) =", round(np.sqrt(2.0), 9), ")")
print("witness family:")
for f in est.witness:
    print("   ", np.round(f, 6))
