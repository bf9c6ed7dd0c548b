"""Instance pools of the four benchmark workloads.

Each workload is a fixed pool of ``latfact/1`` instance documents, built
with the ``latfact.suite`` generators from the pool seed and serialized
with ``schemas.instance_to_doc``.  The run seed fixes the order in which
the pool's instances run.  The pool itself does not depend on the run
seed, so reference values captured once exist for every instance and runs
with different seeds do the same work.  NOTES.md gives the reason for
each workload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from latfact import schemas, suite
from latfact.spaces import ExponentTriple

POOL_SEED = 2026


@dataclass(frozen=True)
class Spec:
    """One pool instance: a random n x n operator on L^s(mu), exponents (p, q)."""

    n: int
    s: float
    p: float
    q: float
    budget: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    tag: int
    command: str
    specs: tuple[Spec, ...]
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("solve-flat", 1, "factorize", (
        Spec(3, 1.0, 1.0, 2.0), Spec(3, 2.0, 2.0, 2.0),
        Spec(3, 1.0, 1.0, 2.0), Spec(3, 2.0, 2.0, 2.0),
        Spec(3, 1.0, 1.0, 2.0), Spec(3, 2.0, 2.0, 2.0)),
        "factorize at n = 3 with s = p: the generated random-operator "
        "instances and the acceptance regime; the estimator layer dominates"),
    Workload("solve-curved", 2, "factorize", (
        Spec(3, 1.5, 1.0, 1.0), Spec(3, 2.0, 1.0, 1.0),
        Spec(2, 3.0, 1.0, 1.0)),
        "factorize with s > p: curved dual ball, so grid enrichment, "
        "attainment points and multi-atom mixtures run"),
    Workload("solve-wide", 3, "factorize", (
        Spec(6, 1.0, 1.0, 2.0), Spec(6, 1.0, 1.0, 2.0)),
        "factorize at n = 6: the 2^(n-1) sign-pattern ascent of the "
        "violation oracle takes the largest share"),
    Workload("chain", 4, "constants", (
        Spec(3, 1.0, 1.0, 2.0, budget=6), Spec(2, 2.0, 1.0, 2.0, budget=2),
        Spec(2, 1.5, 1.0, 2.0, budget=2)),
        "constants only: the four estimators on three weak-q routes; "
        "no solver runs"),
)}


def pool_docs(workload: Workload) -> list[dict]:
    """The workload's instance documents, in pool order."""
    docs = []
    for index, spec in enumerate(workload.specs):
        T = suite.random_operator(spec.n, spec.n,
                                  [POOL_SEED, workload.tag, index], s=spec.s)
        extra = {"seed": 0}
        if spec.budget is not None:
            extra["budget"] = spec.budget
        docs.append(schemas.instance_to_doc(
            measure=T.domain.space, space=T.domain,
            e=ExponentTriple(p=spec.p, q=spec.q), operator=T, extra=extra))
    return docs


def run_order(workload: Workload, seed: int) -> list[int]:
    """Pool indices in the order a run with this seed executes them."""
    rng = np.random.default_rng([POOL_SEED, workload.tag, int(seed)])
    return [int(i) for i in rng.permutation(len(workload.specs))]


def canonical(obj) -> str:
    """The byte-stable JSON text the CLI writes for reports."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def inputs_sha256(docs: list[dict]) -> str:
    digest = hashlib.sha256()
    for doc in docs:
        digest.update(canonical(doc).encode())
    return digest.hexdigest()
