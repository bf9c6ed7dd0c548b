"""latfact: lattice-norm domination certificates at desk scale.

Finite atomic measure spaces, weighted Lebesgue and mixture lattice norms,
Köthe duals and their positive unit balls; witness-family estimates of the
operator norm, concavity and summing constants; and a cutting-plane solver
that constructs probability mixtures of dual weights dominating a given
operator, with replayable certificates.
"""

from .constants import (EuclideanNorm, LinearOperator, attainment_point,
                        brute_force_family_sup, constant_chain_report,
                        family_sup_lhs, family_sup_rhs, identity_operator,
                        operator_norm_estimate, pq_concavity_estimate,
                        pq_concavity_ratio, q_concavity_estimate,
                        q_concavity_ratio, q_summing_estimate,
                        q_summing_ratio, weak_q_norm)
from .estimates import ConstantEstimate
from .factorization import (DominationCertificate, collapse_weight,
                            default_domination_grid, extension_norm_estimate,
                            find_domination_measure, kakutani_equivalence,
                            verify_domination, violation_oracle)
from .simplex import MaxMinSolution, SimplexError, solve_max_min
from .snorm import (DiscreteRadonMeasure, SNormSpace, UnsaturatedSpaceError,
                    dirac_space, inclusion_bound_check, partition_space,
                    xi_saturation_check)
from .spaces import (DimensionMismatchError, ExponentTriple, LatticeNorm,
                     MeasureSpace, NotPConvexError, WeightedLebesgue,
                     dual_norm_rows, extreme_dual_vectors,
                     lattice_aggregate_norm, p_convexity_estimate, pairings,
                     pth_power_norm)

__version__ = "0.1.0"
