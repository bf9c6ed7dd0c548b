"""Versioned JSON instance documents and their (de)serialization.

Instance files carry a top-level ``"schema": "latfact/1"`` marker and any
of the sections below; commands validate the sections they need.

    {"schema": "latfact/1",
     "measure":  {"weights": [..]},
     "space":    {"family": "lebesgue", "s": 2.0},
     "p": 1.0, "q": 2.0,
     "operator": {"matrix": [[..]], "codomain": {"family": "euclidean"}},
     "xi":       {"atoms": [{"h": [..], "mass": 0.5}, ..], "normalized": true},
     "dirac":    {"g": [..]},
     "partition": {"g": [..], "blocks": [[..]], "alpha": [..]},
     "tol": 1e-6, "budget": 40, "seed": 0, "samples": 1000}

Malformed documents raise :class:`InstanceError`, which the CLI maps to
exit status 2 before any computation starts.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path

import numpy as np

from .constants import EuclideanNorm, LinearOperator
from .snorm import DiscreteRadonMeasure
from .spaces import (ExponentTriple, LatticeNorm, MeasureSpace,
                     WeightedLebesgue)

SCHEMA_ID = "latfact/1"

__all__ = ["SCHEMA_ID", "InstanceError", "load_instance", "parse_instance",
           "build_measure", "build_space", "build_exponents", "build_operator",
           "build_xi", "instance_to_doc", "dump_report"]


class InstanceError(ValueError):
    """The instance document is malformed or misses a required section."""


def load_instance(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    if not text.strip():
        raise InstanceError(f"instance file {path} is empty")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance file {path} is not valid JSON: {exc}") from exc
    return parse_instance(doc)


def parse_instance(doc) -> dict:
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


def _number(value) -> bool:
    """Whether ``value`` is a JSON number: booleans and strings are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value, what: str) -> float:
    if not _number(value):
        raise InstanceError(f"{what} must be a number, got {value!r}")
    return float(value)


def _vector(raw, what: str) -> np.ndarray:
    if not (isinstance(raw, (list, tuple)) and raw
            and all(map(_number, raw))):
        raise InstanceError(
            f"{what} must be a nonempty list of numbers, got {raw!r}")
    arr = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InstanceError(f"{what} has non-finite entries")
    return arr


def build_measure(doc: dict) -> MeasureSpace:
    raw = _require(doc, "measure")
    if not isinstance(raw, dict):
        raise InstanceError("'measure' must be an object with 'weights'")
    weights = _vector(_require(raw, "weights"), "measure weights")
    try:
        return MeasureSpace(weights=weights)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def build_space(doc: dict, measure: MeasureSpace) -> LatticeNorm:
    raw = _require(doc, "space")
    if not isinstance(raw, dict):
        raise InstanceError("'space' must be an object")
    family = raw.get("family")
    if family != "lebesgue":
        raise InstanceError(f"unknown space family {family!r}")
    try:
        return WeightedLebesgue(space=measure,
                                s=_real(_require(raw, "s"), "space s"))
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def build_exponents(doc: dict) -> ExponentTriple:
    try:
        return ExponentTriple(p=_real(_require(doc, "p"), "p"),
                              q=_real(_require(doc, "q"), "q"))
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def _build_codomain(raw, d: int):
    if not isinstance(raw, dict):
        raise InstanceError("'codomain' must be an object")
    family = raw.get("family", "euclidean")
    if family == "euclidean":
        return EuclideanNorm(dim=d)
    if family == "lebesgue":
        weights = raw.get("weights")
        weights = np.ones(d) if weights is None else _vector(weights, "codomain weights")
        try:
            return WeightedLebesgue(space=MeasureSpace(weights=weights),
                                    s=_real(_require(raw, "s"), "codomain s"))
        except ValueError as exc:
            raise InstanceError(str(exc)) from exc
    raise InstanceError(f"unknown codomain family {family!r}")


def build_operator(doc: dict, X: LatticeNorm) -> LinearOperator:
    raw = _require(doc, "operator")
    if not isinstance(raw, dict):
        raise InstanceError("'operator' must be an object with 'matrix'")
    rows = _require(raw, "matrix")
    if not isinstance(rows, (list, tuple)):
        raise InstanceError("operator matrix must be a list of rows")
    # the operator rejects an empty matrix and rows of unequal length
    rows = [_vector(row, f"operator matrix row {i}")
            for i, row in enumerate(rows)]
    codomain = _build_codomain(raw.get("codomain", {"family": "euclidean"}),
                               len(rows))
    try:
        return LinearOperator(matrix=rows, domain=X, codomain=codomain)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def build_xi(doc: dict) -> DiscreteRadonMeasure:
    """The ``xi`` section as a measure of weight rows.

    Whether the rows lie in the dual unit ball of the domain is checked
    when the measure meets its base space in
    :class:`~latfact.snorm.SNormSpace`.
    """
    raw = _require(doc, "xi")
    if not (isinstance(raw, dict) and isinstance(raw.get("atoms"), list)):
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
    try:
        return DiscreteRadonMeasure.from_pairs(pairs, normalized=normalized)
    except ValueError as exc:
        raise InstanceError(str(exc)) from exc


def instance_to_doc(*, measure: MeasureSpace | None = None,
                    space: LatticeNorm | None = None,
                    e: ExponentTriple | None = None,
                    operator: LinearOperator | None = None,
                    xi: DiscreteRadonMeasure | None = None,
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
    if xi is not None:
        doc["xi"] = {
            "atoms": [{"h": [float(x) for x in h], "mass": float(m)}
                      for h, m in zip(xi.atoms, xi.masses)],
            "normalized": bool(xi.normalized),
        }
    if extra:
        doc.update(extra)
    return doc


def dump_report(report: dict, path) -> None:
    """Write a canonical (byte-stable) JSON report."""
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
