"""Mixture norms built from finitely many positive dual-ball weights.

Given exponents ``p <= q``, a base lattice norm X and a finitely supported
positive measure on the positive dual ball of the p-th power of X, the
functional

    f  ->  ( sum_k  mass_k * ( sum_w |f(w)|^p h_k(w) mu(w) )^(q/p) )^(1/q)

is always a lattice seminorm.  It is a genuine norm exactly when the
supports of the weight atoms jointly cover every atom of the measure
space; unsaturated mixtures stay representable (the seminorm is still
evaluable) but refuse to act as a :class:`~latfact.spaces.LatticeNorm`.

The atoms ``h_k`` are plain nonnegative weight rows.  A measure knows
nothing of a base space, so :class:`SNormSpace` is where the rows are
checked against the positive dual unit ball of ``X_p``, all in one
:func:`~latfact.spaces.dual_norm_rows` call; its seminorm and gradients
take the inner integrals from :func:`~latfact.spaces.pairings`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .estimates import seed_list
from .spaces import (DUAL_CERT_SLACK, ExponentTriple, LatticeNorm,
                     MeasureSpace, as_vector, dual_norm_rows, pairings)

__all__ = [
    "UnsaturatedSpaceError",
    "DiscreteRadonMeasure",
    "SNormSpace",
    "xi_saturation_check",
    "dirac_space",
    "partition_space",
    "inclusion_bound_check",
]

# seeded samples of the inclusion-bound check, the library's and the CLI's
# default alike
INCLUSION_SAMPLES = 200


class UnsaturatedSpaceError(ValueError):
    """The mixture annihilates a positive-measure set, so it is no norm."""


@dataclass(frozen=True, eq=False)
class DiscreteRadonMeasure:
    """Finitely many weight atoms ``h_k`` with strictly positive masses.

    ``atoms`` is a read-only ``(k, n)`` matrix whose k-th row is the
    nonnegative weight vector h_k.  Membership of the rows in a dual unit
    ball is checked by :class:`SNormSpace`, which knows the base space.
    """

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        try:
            H = np.array(self.atoms, dtype=float)
        except ValueError as exc:
            raise ValueError("atoms must be weight rows of one length") from exc
        if H.ndim != 2 or H.shape[0] == 0:
            raise ValueError("measure needs a nonempty (k, n) stack of atoms")
        if not np.all(np.isfinite(H)) or np.any(H < 0.0):
            raise ValueError("atoms must be nonnegative and finite")
        masses = np.array(self.masses, dtype=float)
        if masses.shape != (H.shape[0],):
            raise ValueError("one mass per atom is required")
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
            raise ValueError("atom masses must be strictly positive and finite")
        H.flags.writeable = False
        masses.flags.writeable = False
        object.__setattr__(self, "atoms", H)
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_pairs(cls, pairs) -> "DiscreteRadonMeasure":
        """Build from ``(h, mass)`` pairs; masses must be positive."""
        return cls(atoms=[h for h, _ in pairs],
                   masses=np.array([float(m) for _, m in pairs]))

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def normalized(self) -> bool:
        """Whether the masses sum to one, up to 1e-12."""
        return abs(self.total_mass - 1.0) <= 1e-12

    def to_jsonable(self) -> dict:
        """The ``xi`` form of instance documents and certificate reports."""
        return {
            "atoms": [{"h": [float(x) for x in h], "mass": float(m)}
                      for h, m in zip(self.atoms, self.masses)],
            "normalized": self.normalized,
        }

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiscreteRadonMeasure)
                and np.array_equal(self.atoms, other.atoms)
                and np.array_equal(self.masses, other.masses))

    def __len__(self) -> int:
        return self.atoms.shape[0]


def _coverage(measure: DiscreteRadonMeasure) -> np.ndarray:
    return (measure.atoms[measure.masses > 0.0] > 0.0).any(axis=0)


@dataclass(frozen=True, eq=False)
class SNormSpace(LatticeNorm):
    """The mixture (semi)norm as a lattice norm candidate.

    ``saturated`` records whether the functional separates points; only a
    saturated space may be used through the :class:`LatticeNorm` interface
    (``norm`` raises otherwise, while :meth:`seminorm` always evaluates).
    The space is p-convex with constant one for its own exponent ``p``.
    """

    base: LatticeNorm
    e: ExponentTriple
    xi: DiscreteRadonMeasure
    saturated: bool = field(init=False)

    def __post_init__(self):
        if self.xi.atoms.shape[1] != self.base.n:
            raise ValueError("measure atoms do not match the base space")
        # numeric dual norms are lower bounds, so exceeding the slack is a
        # definite violation
        norms = dual_norm_rows(self.base, self.e.p, self.xi.atoms)
        outside = np.flatnonzero(norms > 1.0 + DUAL_CERT_SLACK)
        if outside.size:
            k = int(outside[0])
            raise ValueError(f"atom {k} outside the positive dual unit ball "
                             f"(norm {float(norms[k])})")
        object.__setattr__(self, "saturated", bool(_coverage(self.xi).all()))

    @property
    def space(self) -> MeasureSpace:
        return self.base.space

    def seminorm(self, f) -> float:
        return float(self.seminorm_rows(np.atleast_2d(as_vector(f, self.n)))[0])

    def seminorm_rows(self, F) -> np.ndarray:
        F = np.atleast_2d(np.asarray(F, dtype=float))
        if F.shape[-1] != self.n:
            raise ValueError(
                f"expected rows of length {self.n}, got {F.shape[-1]}")
        inner = pairings(self.base, self.e.p, F, self.xi.atoms)
        return (inner ** self.e.t @ self.xi.masses) ** (1.0 / self.e.q)

    def norm(self, f) -> float:
        return float(self.norm_rows(as_vector(f, self.n))[0])

    def norm_rows(self, F) -> np.ndarray:
        if not self.saturated:
            raise UnsaturatedSpaceError(
                "mixture seminorm vanishes on a nonzero function; "
                "not usable as a lattice norm")
        return self.seminorm_rows(F)

    def slope_rows(self, F) -> np.ndarray:
        """Row-wise derivative ``∂s/∂|f_i|``, zero on rows where ``s(f) = 0``.

        It is ``|f_i|^{p-1} μ_i sum_k mass_k c_k^{t-1} h_k(i) / s(f)^{q-1}``
        with ``c_k`` the pairings of ``f`` with the atoms.  At ``p = 1`` it
        is the one-sided slope of ``s`` in ``|f_i|``, which stays positive
        where ``f_i = 0``: ``s`` has a kink there.
        """
        F = np.atleast_2d(np.asarray(F, dtype=float))
        p, q = self.e.p, self.e.q
        inner = pairings(self.base, p, F, self.xi.atoms)
        coeff = (self.xi.masses * inner ** (self.e.t - 1.0)) @ self.xi.atoms
        value_q = inner ** self.e.t @ self.xi.masses
        values = np.where(value_q > 0.0, value_q ** (1.0 / q), 1.0)
        slopes = (np.abs(F) ** (p - 1.0) * self.space.weights * coeff
                  * values[:, None] ** (1.0 - q))
        slopes[value_q == 0.0] = 0.0
        return slopes

    def norm_grad_rows(self, F) -> np.ndarray:
        return np.sign(F) * self.slope_rows(F)

    def is_p_convex_one(self, p: float) -> bool:
        return p <= self.e.p + 1e-12

    def __eq__(self, other) -> bool:
        return (isinstance(other, SNormSpace) and self.base == other.base
                and self.e == other.e and self.xi == other.xi)


def xi_saturation_check(S: SNormSpace) -> tuple[bool, int | None]:
    """Check that the mixture separates points.

    On a finite atomic space the annihilation condition reduces to atom
    coverage: every atom of the measure space must carry positive weight
    under some mixture atom of positive mass.  Returns ``(True, None)`` or
    ``(False, witness_atom_index)`` where the singleton of the witness atom
    has positive measure but zero mixture seminorm.
    """
    if S.saturated:
        return True, None
    return False, int(np.argmax(~_coverage(S.xi)))


def dirac_space(X: LatticeNorm, e: ExponentTriple, g) -> SNormSpace:
    """Mixture with a single unit-mass atom at a strictly positive weight.

    The resulting functional collapses to the weighted-L^p norm with weight
    ``g``: ``(sum |f|^p g dmu)^(1/p)``, independently of ``q``.
    """
    gv = as_vector(g, X.n)
    if np.any(gv <= 0.0):
        raise ValueError("dirac weight must be strictly positive (a weak unit)")
    xi = DiscreteRadonMeasure(atoms=gv[None, :], masses=[1.0])
    return SNormSpace(base=X, e=e, xi=xi)


def partition_space(X: LatticeNorm, e: ExponentTriple, g, partition,
                    alpha) -> SNormSpace:
    """Mixture with atoms ``g`` restricted to the blocks of a partition.

    ``partition`` is a list of disjoint atom-index blocks covering the
    space; ``alpha`` the corresponding strictly positive masses.  The norm
    equals the mixed expression
    ``( sum_b alpha_b ‖f‖_{L^p(g·1_b dmu)}^q )^(1/q)``.
    """
    n = X.n
    gv = as_vector(g, n)
    if np.any(gv <= 0.0):
        raise ValueError("partition weight must be strictly positive (a weak unit)")
    blocks = [np.asarray(sorted(int(i) for i in block), dtype=int)
              for block in partition]
    alpha = np.asarray(alpha, dtype=float)
    if len(blocks) != alpha.shape[0]:
        raise ValueError("one mass per partition block is required")
    if np.any(alpha <= 0.0) or not np.all(np.isfinite(alpha)):
        raise ValueError("partition masses must be strictly positive")
    seen = np.zeros(n, dtype=int)
    for block in blocks:
        if block.size == 0 or block.min() < 0 or block.max() >= n:
            raise ValueError("partition block indices out of range or empty")
        seen[block] += 1
    if np.any(seen > 1):
        raise ValueError("partition blocks overlap")
    if np.any(seen == 0):
        raise ValueError("partition blocks do not cover the space")
    H = np.zeros((len(blocks), n))
    for k, block in enumerate(blocks):
        H[k, block] = gv[block]
    xi = DiscreteRadonMeasure.from_pairs(list(zip(H, alpha)))
    return SNormSpace(base=X, e=e, xi=xi)


def inclusion_bound_check(S: SNormSpace, samples: int = INCLUSION_SAMPLES,
                          seed=0) -> tuple[float, bool]:
    """Largest observed ratio ``s(f) / ‖f‖_X`` over random samples.

    Returns the ratio and whether it keeps the bound.  Each atom lies in
    the dual ball up to the relative slack it was admitted with, so
    ``s(f) <= total_mass^(1/q) (1 + DUAL_CERT_SLACK)^(1/p) ‖f‖_X``: at most
    one, up to the slack, for probability mixtures.  Zero vectors are
    skipped.
    """
    if not S.saturated:
        raise UnsaturatedSpaceError("inclusion bound requires a saturated mixture")
    rng = np.random.default_rng([41, *seed_list(seed)])
    F = rng.normal(size=(int(samples), S.n))
    base_norms = S.base.norm_rows(F)
    keep = base_norms > 0
    ratios = S.seminorm_rows(F[keep]) / base_norms[keep]
    observed = float(ratios.max(initial=0.0))
    bound = (S.xi.total_mass ** (1.0 / S.e.q)
             * (1.0 + DUAL_CERT_SLACK) ** (1.0 / S.e.p))
    return observed, observed <= bound
