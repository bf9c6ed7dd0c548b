"""Versioned JSON instance documents and their (de)serialization.

This module is the one reader of the ``latfact/1`` format:
:func:`parse_fields` checks that a document is a JSON object with this
schema id, parses every field a command reads, fills in its default and
builds the objects the command runs on.  A malformed document raises
:class:`InstanceError`, which the CLI maps to exit status 2, before any
computation starts.  :func:`load_instance` reads a document from a UTF-8
JSON file and runs the same object and schema check.

A document is a JSON object with ``"schema": "latfact/1"`` (the default)
and the fields below.  A number is a finite JSON number, never a boolean
or a string; ``[x > 0]`` is a nonempty list of such numbers.  The
commands are check-space (CS), constants (C), snorm-demo (S), factorize
(F), kakutani (K) and lemma-verify (L); each reports the seed, tol and
budget it ran with.

    field             type                            default      read by
    seed              integer >= 0                    0            all
    tol               number > 0                      1e-6         F, K
    budget            integer >= 1                    40           CS, C, F, K
    measure           {"weights": [w > 0]},           required     CS, C, S, F, K
                      1 to 12 entries
    space             {"family": "lebesgue",          required     CS, C, S, F, K
                       "s": s >= 1}
    p                 number >= 1                     none         CS
                      number, 1 <= p <= q             required     C, S, F, K
    q                 number >= p                     required     C, S, F, K
    operator          {"matrix": [[a]], rows of       required     C, F
                       equal length, "codomain": ..}
    operator.codomain {"family": "euclidean"} or      euclidean    C, F
                      {"family": "lebesgue", "s": s >= 1,
                       "weights": [w > 0], 1 to 12, default
                       all ones}
    xi                {"atoms": [{"h": [h >= 0],      one of the   S
                                  "mass": m > 0}],    three
                       "normalized": true or false,   sections
                       optional}
    dirac             {"g": [g > 0], one per atom}                 S
    partition         {"g": [g > 0], one per atom,                 S
                       "blocks": [[integer atom index]],
                       "alpha": [a > 0], one per block}
    expect_saturated  true or false                   none         S
    samples           integer >= 1                    200          S
                                                      2000         F
                                                      2048         K
    count             integer >= 1                    100          L
    n_max             integer >= 2                    4            L
    m_max             integer >= 1                    3            L
    step              number > 0                      1e-3         L
    rel_tol           number > 0                      1e-6         L
    pairs             [[p, q]], 1 <= p <= q           LEMMA_PAIRS  L

``LEMMA_PAIRS`` is ``[[1, 1], [1, 2], [2, 2], [2, 3]]``.  check-space
bounds the p-convexity constant, and snorm-demo checks the saturation,
only when ``p`` or ``expect_saturated`` is given.  snorm-demo reads
``xi`` when given, else ``dirac``, else ``partition``.
The blocks are nonempty, disjoint and cover every atom, and the ``xi``
atoms lie in the positive dual unit ball of the domain.  ``normalized``
is a checked claim: true exactly when the masses sum to one within
1e-12, the rule :attr:`~latfact.snorm.DiscreteRadonMeasure.normalized`
reads off the masses.  constants (when
q > p), snorm-demo, factorize and kakutani need a p-convex domain,
p <= s.  lemma-verify refuses a ``step`` and ``m_max`` whose brute-force
grid holds more than 10^6 points.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .constants import (BRUTE_FORCE_GRID_CAP, EuclideanNorm, LinearOperator,
                        brute_force_grid_size)
from .factorization import KAKUTANI_SAMPLES, VERIFY_SAMPLES
from .snorm import (INCLUSION_SAMPLES, DiscreteRadonMeasure, SNormSpace,
                    dirac_space, partition_space)
from .spaces import (MAX_ATOMS, ExponentTriple, LatticeNorm, MeasureSpace,
                     WeightedLebesgue)
from .suite import LEMMA_PAIRS

SCHEMA_ID = "latfact/1"
COMMANDS = ("check-space", "constants", "snorm-demo", "factorize", "kakutani",
            "lemma-verify")

__all__ = ["SCHEMA_ID", "COMMANDS", "InstanceError", "load_instance",
           "parse_fields", "generator_settings", "instance_to_doc",
           "dump_report"]


class InstanceError(ValueError):
    """The instance document is malformed or misses a required section."""


def load_instance(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    if not text.strip():
        raise InstanceError(f"instance file {path} is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InstanceError(f"instance file {path} nests too deeply") from exc
    return _document(doc)


def _document(doc) -> dict:
    """``doc``, checked to be a JSON object of this module's schema."""
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    schema = doc.get("schema", SCHEMA_ID)
    if schema != SCHEMA_ID:
        raise InstanceError(f"unsupported schema {schema!r}; expected {SCHEMA_ID!r}")
    return doc


def _require(doc: dict, key: str) -> object:
    if key not in doc:
        raise InstanceError(f"instance misses required section {key!r}")
    return doc[key]


def _section(doc: dict, key: str) -> dict:
    """A required section that is a JSON object."""
    raw = _require(doc, key)
    if not isinstance(raw, dict):
        raise InstanceError(f"{key!r} must be an object, got {raw!r}")
    return raw


def _number(value) -> bool:
    """Whether ``value`` is a finite JSON number: booleans and strings are not.

    An integer beyond the float range is not one either.
    """
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _bound(relation: str, limit: float) -> str:
    """Text like ``" >= 1"`` for an error message; empty for an infinite limit."""
    return f" {relation} {limit:g}" if math.isfinite(limit) else ""


def _real(value, what: str, *, above: float = -math.inf,
          at_least: float = -math.inf) -> float:
    """A finite number above ``above`` and at least ``at_least``."""
    if not (_number(value) and value > above and value >= at_least):
        raise InstanceError(f"{what} must be a finite number{_bound('>', above)}"
                            f"{_bound('>=', at_least)}, got {value!r}")
    return float(value)


def _integer(value, what: str, minimum: float = -math.inf,
             maximum: float = math.inf) -> int:
    """An integral number (``3`` or ``3.0``) in ``[minimum, maximum]``."""
    if not (_number(value) and value == int(value)
            and minimum <= value <= maximum):
        raise InstanceError(f"{what} must be an integer{_bound('>=', minimum)}"
                            f"{_bound('<=', maximum)}, got {value!r}")
    return int(value)


def _vector(raw, what: str) -> np.ndarray:
    if not (isinstance(raw, (list, tuple)) and raw
            and all(map(_number, raw))):
        raise InstanceError(
            f"{what} must be a nonempty list of finite numbers, got {raw!r}")
    return np.asarray(raw, dtype=float)


def _blocks(value) -> list[list[int]]:
    """Partition blocks: a list of lists of integer atom indices."""
    if not (isinstance(value, (list, tuple))
            and all(isinstance(block, (list, tuple)) for block in value)):
        raise InstanceError(
            f"partition blocks must be a list of index lists, got {value!r}")
    return [[_integer(i, "partition block entry") for i in block]
            for block in value]


def _exponent_pairs(value) -> tuple[tuple[float, float], ...]:
    """A nonempty list of number pairs ``[p, q]`` with ``1 <= p <= q``."""
    def valid(pair) -> bool:
        return (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(_number(x) for x in pair)
                and 1.0 <= pair[0] <= pair[1])

    if not (isinstance(value, (list, tuple)) and value
            and all(valid(pair) for pair in value)):
        raise InstanceError(
            "pairs must be a nonempty list of [p, q] with 1 <= p <= q, "
            f"got {value!r}")
    return tuple((float(p), float(q)) for p, q in value)


def _domain(doc: dict) -> LatticeNorm:
    """The ``measure`` and ``space`` sections as the domain L^s(mu)."""
    measure = MeasureSpace(weights=_vector(
        _require(_section(doc, "measure"), "weights"), "measure weights"))
    raw = _section(doc, "space")
    family = raw.get("family")
    if family != "lebesgue":
        raise InstanceError(f"unknown space family {family!r}")
    return WeightedLebesgue(space=measure,
                            s=_real(_require(raw, "s"), "space s"))


def _codomain(operator: dict, d: int):
    raw = _section(operator, "codomain") if "codomain" in operator else {}
    family = raw.get("family", "euclidean")
    if family == "euclidean":
        return EuclideanNorm(dim=d)
    if family == "lebesgue":
        weights = raw.get("weights")
        weights = np.ones(d) if weights is None else _vector(weights, "codomain weights")
        return WeightedLebesgue(space=MeasureSpace(weights=weights),
                                s=_real(_require(raw, "s"), "codomain s"))
    raise InstanceError(f"unknown codomain family {family!r}")


def _operator(doc: dict, X: LatticeNorm) -> LinearOperator:
    raw = _section(doc, "operator")
    rows = _require(raw, "matrix")
    if not isinstance(rows, (list, tuple)):
        raise InstanceError("operator matrix must be a list of rows")
    # the operator rejects an empty matrix and rows of unequal length
    rows = [_vector(row, f"operator matrix row {i}")
            for i, row in enumerate(rows)]
    return LinearOperator(matrix=rows, domain=X,
                          codomain=_codomain(raw, len(rows)))


def _xi(doc: dict) -> DiscreteRadonMeasure:
    """The ``xi`` section as a measure of weight rows.

    Whether the rows lie in the dual unit ball of the domain is checked
    when the measure meets its base space in
    :class:`~latfact.snorm.SNormSpace`.  A ``normalized`` claim must agree
    with the masses.
    """
    raw = _section(doc, "xi")
    if not isinstance(raw.get("atoms"), list):
        raise InstanceError("'xi' must be an object with a list 'atoms'")
    pairs = []
    for i, atom in enumerate(raw["atoms"]):
        if not isinstance(atom, dict):
            raise InstanceError(f"xi atom {i} must be an object")
        pairs.append((_vector(_require(atom, "h"), f"xi atom {i}"),
                      _real(_require(atom, "mass"), f"xi atom {i} mass")))
    normalized = raw.get("normalized")
    if not (normalized is None or isinstance(normalized, bool)):
        raise InstanceError(
            f"xi normalized must be true or false, got {normalized!r}")
    xi = DiscreteRadonMeasure.from_pairs(pairs)
    if normalized is not None and normalized != xi.normalized:
        raise InstanceError(f"xi normalized is {normalized}, but the masses "
                            f"sum to {xi.total_mass}")
    return xi


_SAMPLES = {"snorm-demo": INCLUSION_SAMPLES, "factorize": VERIFY_SAMPLES,
            "kakutani": KAKUTANI_SAMPLES}


def parse_fields(command: str, doc) -> SimpleNamespace:
    """Every field ``command`` reads from ``doc``, parsed, with its default.

    The namespace holds the fields of the command's rows in the module
    table, by name, and the objects built from them: ``space`` (the
    domain), ``e``, ``operator`` and snorm-demo's ``mixture``, next to the
    ``g``, ``blocks`` and ``alpha`` it came from (None for an ``xi``).
    A document that is not a JSON object, names another schema or fails
    a constructor's check raises :class:`InstanceError`.
    """
    if command not in COMMANDS:
        raise InstanceError(f"unknown command {command!r}")
    try:
        return _fields(command, _document(doc))
    except InstanceError:
        raise
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def _fields(command: str, doc: dict) -> SimpleNamespace:
    f = SimpleNamespace(seed=_integer(doc.get("seed", 0), "seed", 0),
                        tol=_real(doc.get("tol", 1e-6), "tol", above=0.0),
                        budget=_integer(doc.get("budget", 40), "budget", 1))
    if command in _SAMPLES:
        f.samples = _integer(doc.get("samples", _SAMPLES[command]),
                             "samples", 1)
    if command == "lemma-verify":
        return _lemma_fields(doc, f)
    f.space = _domain(doc)
    if command == "check-space":
        f.p = None if "p" not in doc else _real(doc["p"], "p", at_least=1.0)
        return f
    f.e = ExponentTriple(p=_real(_require(doc, "p"), "p"),
                         q=_real(_require(doc, "q"), "q"))
    if not (f.space.is_p_convex_one(f.e.p)
            or (command == "constants" and f.e.is_extreme)):
        raise InstanceError(f"space is not p-convex for p={f.e.p} "
                            f"(s={f.space.s}); {command} needs p <= s")
    if command in ("constants", "factorize"):
        f.operator = _operator(doc, f.space)
    if command == "snorm-demo":
        _mixture_fields(doc, f)
    return f


def _mixture_fields(doc: dict, f: SimpleNamespace) -> None:
    """snorm-demo's ``expect_saturated`` and mixture fields.

    The mixture is read from ``xi`` when given, else ``dirac``, else
    ``partition``.  The constructors reject weights and masses that are
    not positive, blocks that overlap, leave an atom uncovered, are empty
    or out of range, and rows outside the dual ball.
    """
    f.expect_saturated = doc.get("expect_saturated")
    if not ("expect_saturated" not in doc
            or isinstance(f.expect_saturated, bool)):
        raise InstanceError("expect_saturated must be true or false, "
                            f"got {f.expect_saturated!r}")
    f.g = f.blocks = f.alpha = None
    if "xi" in doc:
        f.mixture = SNormSpace(base=f.space, e=f.e, xi=_xi(doc))
    elif "dirac" in doc:
        f.g = _vector(_require(_section(doc, "dirac"), "g"), "dirac g")
        f.mixture = dirac_space(f.space, f.e, f.g)
    elif "partition" in doc:
        part = _section(doc, "partition")
        f.g = _vector(_require(part, "g"), "partition g")
        f.blocks = _blocks(_require(part, "blocks"))
        f.alpha = _vector(_require(part, "alpha"), "partition alpha")
        f.mixture = partition_space(f.space, f.e, f.g, f.blocks, f.alpha)
    else:
        raise InstanceError(
            "snorm-demo needs one of 'xi', 'dirac' or 'partition'")


def _lemma_fields(doc: dict, f: SimpleNamespace) -> SimpleNamespace:
    """lemma-verify's fields; its brute-force grids must stay within the cap."""
    pairs = doc.get("pairs")
    f.count = _integer(doc.get("count", 100), "count", 1)
    f.n_max = _integer(doc.get("n_max", 4), "n_max", 2)
    f.m_max = _integer(doc.get("m_max", 3), "m_max", 1)
    f.step = _real(doc.get("step", 1e-3), "step", above=0.0)
    f.rel_tol = _real(doc.get("rel_tol", 1e-6), "rel_tol", above=0.0)
    f.pairs = LEMMA_PAIRS if pairs is None else _exponent_pairs(pairs)
    extremes = {ExponentTriple(p=p, q=q).is_extreme for p, q in f.pairs}
    for m in range(1, f.m_max + 1):
        size = max(brute_force_grid_size(m, f.step, x) for x in extremes)
        if size > BRUTE_FORCE_GRID_CAP:
            raise InstanceError(
                f"step {f.step!r} and m_max {f.m_max} ask for a brute-force "
                f"grid of {size} points at m = {m}, above the cap of "
                f"{BRUTE_FORCE_GRID_CAP}")
    return f


def generator_settings(count, n, seed) -> tuple[int, int, int]:
    """``generate``'s instance count (>= 1), atoms (1 to
    :data:`~latfact.spaces.MAX_ATOMS`) and seed (>= 0)."""
    return (_integer(count, "count", 1), _integer(n, "n", 1, MAX_ATOMS),
            _integer(seed, "seed", 0))


def instance_to_doc(*, measure: MeasureSpace | None = None,
                    space: LatticeNorm | None = None,
                    e: ExponentTriple | None = None,
                    operator: LinearOperator | None = None,
                    extra: dict | None = None) -> dict:
    """Serialize in-memory objects back to an instance document."""
    doc: dict = {"schema": SCHEMA_ID}
    if measure is not None:
        doc["measure"] = {"weights": [float(w) for w in measure.weights]}
    if space is not None:
        if not isinstance(space, WeightedLebesgue):
            raise InstanceError("only weighted Lebesgue spaces serialize to 'space'")
        doc["space"] = {"family": "lebesgue", "s": float(space.s)}
    if e is not None:
        doc["p"] = e.p
        doc["q"] = e.q
    if operator is not None:
        codomain = operator.codomain
        if isinstance(codomain, EuclideanNorm):
            codomain_doc: dict = {"family": "euclidean"}
        elif isinstance(codomain, WeightedLebesgue):
            codomain_doc = {"family": "lebesgue", "s": float(codomain.s),
                            "weights": [float(w) for w in codomain.space.weights]}
        else:
            raise InstanceError("codomain norm does not serialize")
        doc["operator"] = {
            "matrix": [[float(x) for x in row] for row in operator.matrix],
            "codomain": codomain_doc,
        }
    if extra:
        doc.update(extra)
    return doc


def dump_report(report: dict, path) -> None:
    """Write a canonical (byte-stable) JSON report."""
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
