"""Mixture norms built from finitely many positive dual-ball weights.

Given exponents ``p <= q``, a base lattice norm X and a finitely supported
positive measure on the positive dual ball of the p-th power of X, the
functional

    f  ->  ( sum_k  mass_k * ( sum_w |f(w)|^p h_k(w) mu(w) )^(q/p) )^(1/q)

is always a lattice seminorm.  It is a genuine norm exactly when the
supports of the weight atoms jointly cover every atom of the measure
space; unsaturated mixtures stay representable (the seminorm is still
evaluable) but refuse to act as a :class:`~latfact.spaces.LatticeNorm`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .spaces import (DUAL_CERT_SLACK, DualVector, ExponentTriple, LatticeNorm,
                     MeasureSpace, as_vector, dual_norm_of_pth_power)

__all__ = [
    "UnsaturatedSpaceError",
    "DiscreteRadonMeasure",
    "SNormSpace",
    "s_norm",
    "xi_saturation_check",
    "dirac_space",
    "partition_space",
    "inclusion_bound_check",
]


class UnsaturatedSpaceError(ValueError):
    """The mixture annihilates a positive-measure set, so it is no norm."""


@dataclass(frozen=True, eq=False)
class DiscreteRadonMeasure:
    """Finitely many dual-ball atoms ``h_k`` with strictly positive masses.

    ``atom_matrix`` stacks the atoms as rows (the k-th row is the weight
    vector h_k); it is built once and read-only.
    """

    atoms: tuple[DualVector, ...]
    masses: np.ndarray
    normalized: bool = field(default=False)
    atom_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        atoms = tuple(self.atoms)
        if not atoms:
            raise ValueError("measure needs at least one atom")
        n = atoms[0].h.shape[0]
        for a in atoms:
            if not isinstance(a, DualVector):
                raise TypeError("atoms must be DualVector instances")
            if a.h.shape[0] != n:
                raise ValueError("atoms live on different measure spaces")
            if not a.in_unit_ball:
                raise ValueError(
                    f"atom leaves the positive dual unit ball "
                    f"(certified norm {a.certified_norm})")
        masses = np.array(self.masses, dtype=float)
        if masses.shape != (len(atoms),):
            raise ValueError("one mass per atom is required")
        if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
            raise ValueError("atom masses must be strictly positive and finite")
        masses.flags.writeable = False
        H = np.vstack([a.h for a in atoms])
        H.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "atom_matrix", H)
        if self.normalized and abs(self.total_mass - 1.0) > 1e-12:
            raise ValueError(
                f"normalized flag set but total mass is {self.total_mass}")

    @classmethod
    def from_pairs(cls, pairs, normalized: bool | None = None) -> "DiscreteRadonMeasure":
        """Build from ``(DualVector, mass)`` pairs; masses must be positive."""
        atoms = [h for h, _ in pairs]
        masses = np.array([float(m) for _, m in pairs])
        if normalized is None:
            normalized = bool(masses.size and abs(masses.sum() - 1.0) <= 1e-12)
        return cls(atoms=tuple(atoms), masses=masses, normalized=normalized)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    def scaled_to_probability(self) -> "DiscreteRadonMeasure":
        total = self.total_mass
        return DiscreteRadonMeasure(atoms=self.atoms, masses=self.masses / total,
                                    normalized=True)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiscreteRadonMeasure)
                and self.atoms == other.atoms
                and np.array_equal(self.masses, other.masses)
                and self.normalized == other.normalized)

    def __len__(self) -> int:
        return len(self.atoms)


def _coverage(measure: DiscreteRadonMeasure) -> np.ndarray:
    H = measure.atom_matrix
    m = measure.masses
    return (H[m > 0.0] > 0.0).any(axis=0)


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
        n = self.base.n
        for a in self.xi.atoms:
            if a.h.shape[0] != n:
                raise ValueError("measure atoms do not match the base space")
            # re-certify against the dual ball of this base's p-th power;
            # numeric dual norms are lower bounds, so exceeding the slack
            # is a definite violation
            cert = dual_norm_of_pth_power(self.base, self.e.p, a.h)
            if cert > 1.0 + DUAL_CERT_SLACK:
                raise ValueError(
                    f"atom outside the positive dual unit ball (norm {cert})")
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
        p, q = self.e.p, self.e.q
        H = self.xi.atom_matrix
        inner = (np.abs(F) ** p * self.space.weights) @ H.T
        return (np.maximum(inner, 0.0) ** (q / p) @ self.xi.masses) ** (1.0 / q)

    def norm(self, f) -> float:
        if not self.saturated:
            raise UnsaturatedSpaceError(
                "mixture seminorm vanishes on a nonzero function; "
                "not usable as a lattice norm")
        return self.seminorm(f)

    def norm_rows(self, F) -> np.ndarray:
        if not self.saturated:
            raise UnsaturatedSpaceError(
                "mixture seminorm vanishes on a nonzero function; "
                "not usable as a lattice norm")
        return self.seminorm_rows(F)

    def norm_grad(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        return self.norm_grad_rows(f[None, :])[0]

    def norm_grad_rows(self, F) -> np.ndarray:
        F = np.atleast_2d(np.asarray(F, dtype=float))
        p, q = self.e.p, self.e.q
        H = self.xi.atom_matrix
        mu = self.space.weights
        inner = np.maximum((np.abs(F) ** p * mu) @ H.T, 0.0)
        value_q = inner ** (q / p) @ self.xi.masses
        values = np.where(value_q > 0.0, value_q ** (1.0 / q), 1.0)
        coeff = (self.xi.masses * inner ** (q / p - 1.0)) @ H
        grads = (np.sign(F) * np.abs(F) ** (p - 1.0) * mu * coeff
                 * values[:, None] ** (1.0 - q))
        grads[value_q == 0.0] = 0.0
        return grads

    def is_p_convex_one(self, p: float) -> bool:
        return p <= self.e.p + 1e-12

    def __eq__(self, other) -> bool:
        return (isinstance(other, SNormSpace) and self.base == other.base
                and self.e == other.e and self.xi == other.xi)


def s_norm(S: SNormSpace, f) -> float:
    """Evaluate the mixture functional (a seminorm; a norm iff saturated)."""
    return S.seminorm(f)


def xi_saturation_check(S: SNormSpace) -> tuple[bool, int | None]:
    """Check that the mixture separates points.

    On a finite atomic space the annihilation condition reduces to atom
    coverage: every atom of the measure space must carry positive weight
    under some mixture atom of positive mass.  Returns ``(True, None)`` or
    ``(False, witness_atom_index)`` where the singleton of the witness atom
    has positive measure but zero mixture seminorm.
    """
    covered = _coverage(S.xi)
    if covered.all():
        return True, None
    return False, int(np.argmax(~covered))


def dirac_space(X: LatticeNorm, e: ExponentTriple, g) -> SNormSpace:
    """Mixture with a single unit-mass atom at a strictly positive weight.

    The resulting functional collapses to the weighted-L^p norm with weight
    ``g``: ``(sum |f|^p g dmu)^(1/p)``, independently of ``q``.
    """
    gv = g.h if isinstance(g, DualVector) else as_vector(g, X.n)
    if np.any(gv <= 0.0):
        raise ValueError("dirac weight must be strictly positive (a weak unit)")
    cert = dual_norm_of_pth_power(X, e.p, gv)
    if cert > 1.0 + DUAL_CERT_SLACK:
        raise ValueError(
            f"dirac weight leaves the positive dual unit ball (norm {cert})")
    atom = DualVector(h=gv, certified_norm=cert)
    xi = DiscreteRadonMeasure.from_pairs([(atom, 1.0)], normalized=True)
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
    gv = g.h if isinstance(g, DualVector) else as_vector(g, n)
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
    pairs = []
    for block, mass in zip(blocks, alpha):
        hv = np.zeros(n)
        hv[block] = gv[block]
        cert = dual_norm_of_pth_power(X, e.p, hv)
        if cert > 1.0 + DUAL_CERT_SLACK:
            raise ValueError(
                f"restricted weight leaves the dual unit ball (norm {cert})")
        pairs.append((DualVector(h=hv, certified_norm=cert), float(mass)))
    xi = DiscreteRadonMeasure.from_pairs(pairs)
    return SNormSpace(base=X, e=e, xi=xi)


def inclusion_bound_check(S: SNormSpace, samples: int = 256, seed=0) -> float:
    """Largest observed ratio ``s_norm(f) / ‖f‖_X`` over random samples.

    The ratio is bounded by ``total_mass^(1/q)`` (one for probability
    mixtures); a violation beyond 1e-9 raises.  Zero vectors are skipped.
    """
    if not S.saturated:
        raise UnsaturatedSpaceError("inclusion bound requires a saturated mixture")
    rng = np.random.default_rng([41, *np.atleast_1d(seed).astype(int).tolist()])
    F = rng.normal(size=(int(samples), S.n))
    base_norms = S.base.norm_rows(F)
    keep = base_norms > 0
    ratios = S.seminorm_rows(F[keep]) / base_norms[keep]
    observed = float(ratios.max(initial=0.0))
    bound = S.xi.total_mass ** (1.0 / S.e.q)
    if observed > bound + 1e-9:
        raise AssertionError(
            f"inclusion bound violated: ratio {observed} > {bound}")
    return observed
