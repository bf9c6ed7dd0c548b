#!/usr/bin/env python3
"""Constructing domination certificates with the cutting-plane solver.

The solver hunts for a probability mixture of positive dual-ball weights
and a constant C with

    |T f|  <=  C * mixture_norm(f)        for every f,

alternating a dense LP over mixture masses (the smallest constant that
covers the current witness functions) with an oracle that searches the
unit sphere of the mixture norm for the most violating function.  The
residual is relative, the worst (|Tf| / (C mixture_norm(f)))^q - 1 the
oracle found.  Certificates carry the mixture, the constant, the oracle
residual, why the solve stopped and all witnesses, and can be re-verified
on fresh samples in the same measure.

Run:  python3 demos/04_domination_certificates.py
"""

import numpy as np

from latfact import (EuclideanNorm, ExponentTriple, LinearOperator,
                     MeasureSpace, WeightedLebesgue, collapse_weight,
                     find_domination_measure, identity_operator,
                     verify_domination)


def show(cert, label):
    print(f"{label}:")
    print(f"    converged  : {cert.converged} after {cert.iterations} oracle calls"
          f" (stop: {cert.stop})")
    print(f"    constant C : {cert.C:.8f}")
    print(f"    residual   : {cert.residual:.2e} (on (|Tf| / (C s(f)))^q - 1)")
    # the mixture's atoms are weight rows, one per row of xi.atoms
    for h, mass in zip(cert.xi.atoms, cert.xi.masses):
        print(f"    mass {mass:.6f} on weight {np.round(h, 6)}")


mu = MeasureSpace(weights=np.ones(2))

# ---------------------------------------------------------------------------
# the identity at matching exponents: all the mass lands on the unit
# weight and the certified constant is one (up to the solve tolerance)
# ---------------------------------------------------------------------------
X2 = WeightedLebesgue(space=mu, s=2.0)
e22 = ExponentTriple(p=2.0, q=2.0)
cert = find_domination_measure(identity_operator(X2), e22, seed=0)
show(cert, "identity on the 2-norm, p = q = 2")

# at p = q the mixture collapses to a single weight vector, and the
# mixture norm is exactly the correspondingly weighted q-norm
w = collapse_weight(cert)
print("    collapse weight:", w)

# ---------------------------------------------------------------------------
# the integration functional on the 1-norm: dominated by the unit weight
# with constant one
# ---------------------------------------------------------------------------
X1 = WeightedLebesgue(space=mu, s=1.0)
e12 = ExponentTriple(p=1.0, q=2.0)
functional = LinearOperator(matrix=np.array([[1.0, 1.0]]), domain=X1,
                            codomain=EuclideanNorm(dim=1))
cert_f = find_domination_measure(functional, e12, seed=0)
show(cert_f, "\nintegration functional, p = 1, q = 2")

# ---------------------------------------------------------------------------
# a random operator: solve, then re-verify on ten thousand fresh
# unit-sphere samples; the worst value of (|Tf| / (C mixture(f)))^q - 1
# stays below the solve tolerance
# ---------------------------------------------------------------------------
rng = np.random.default_rng(1)
X3 = WeightedLebesgue(space=MeasureSpace(weights=rng.uniform(0.5, 2.0, 3)),
                      s=1.0)
T = LinearOperator(matrix=rng.normal(size=(3, 3)), domain=X3,
                   codomain=EuclideanNorm(dim=3))
cert_r = find_domination_measure(T, e12, seed=5)
show(cert_r, "\nrandom 3x3 operator, p = 1, q = 2")
residual = verify_domination(cert_r, T, sample_count=10000, seed=99)
print(f"    fresh-sample residual over 10^4 draws: {residual:.3e}")

# replay one stored witness by hand
S = cert_r.snorm_space(X3)
wit = cert_r.witnesses[-1]
print("    witness replay: |Tf| =",
      round(float(np.linalg.norm(T.matrix @ wit)), 8),
      " C * mixture(f) =", round(cert_r.C * S.seminorm(wit), 8))
