"""Batch front-end: run scenario files, emit JSON reports and fixtures.

    latfact <command> --instance <path> [--seed N] [--tol X] [--budget N]
                      [--out <path>]
    latfact generate --kind <kind> --count N --n N --seed S --out-dir DIR

Commands: check-space, constants, snorm-demo, factorize, kakutani,
lemma-verify.  Exit status 0 when every check passes, 1 on a failed
assertion or non-converged solve, 2 on input errors.  Reports contain no
wall-clock data, so identical scenarios and seeds produce byte-identical
JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import schemas
from .constants import (BRUTE_FORCE_GRID_CAP, brute_force_family_sup,
                        brute_force_grid_size, constant_chain_report,
                        family_sup_rhs, attainment_point, identity_operator)
from .factorization import (_equivalence_range, find_domination_measure,
                            verify_domination, collapse_weight)
from .snorm import (SNormSpace, dirac_space, inclusion_bound_check,
                    partition_space, s_norm, xi_saturation_check)
from .spaces import (ExponentTriple, NotPConvexError, extreme_dual_vectors,
                     kothe_dual_norm, p_convexity_estimate)
from .suite import (LEMMA_PAIRS, lemma_instances, random_lebesgue_space,
                    random_operator, random_partition_doc)

COMMANDS = ("check-space", "constants", "snorm-demo", "factorize", "kakutani",
            "lemma-verify")
GENERATE_KINDS = ("lebesgue-space", "random-operator", "partition-xi")


def _number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value, name: str, minimum: float = -math.inf) -> int:
    """An integral number (``3`` or ``3.0``) of at least ``minimum``."""
    if not (_number(value) and math.isfinite(value) and value == int(value)):
        raise schemas.InstanceError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise schemas.InstanceError(
            f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def _positive(value, name: str) -> float:
    """A finite number above zero."""
    if not (_number(value) and 0.0 < value < math.inf):
        raise schemas.InstanceError(
            f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def _positive_list(value, name: str, length: int) -> np.ndarray:
    """A list of ``length`` finite numbers above zero."""
    if not (isinstance(value, (list, tuple)) and len(value) == length
            and all(_number(x) and 0.0 < x < math.inf for x in value)):
        raise schemas.InstanceError(
            f"{name} must be a list of {length} finite numbers > 0, "
            f"got {value!r}")
    return np.asarray(value, dtype=float)


def _section(instance: dict, key: str, fields: tuple[str, ...]) -> dict:
    """An instance section that must be an object holding ``fields``."""
    section = instance[key]
    if not (isinstance(section, dict) and all(f in section for f in fields)):
        raise schemas.InstanceError(
            f"{key!r} must be an object with {', '.join(map(repr, fields))}")
    return section


def _blocks(value) -> list[list[int]]:
    """Partition blocks: a list of lists of integer atom indices."""
    if not (isinstance(value, (list, tuple))
            and all(isinstance(block, (list, tuple)) for block in value)):
        raise schemas.InstanceError(
            f"partition blocks must be a list of index lists, got {value!r}")
    return [[_integer(i, "partition block entry") for i in block]
            for block in value]


def _exponent_pairs(value) -> tuple[tuple[float, float], ...]:
    """A nonempty list of number pairs ``[p, q]`` with ``1 <= p <= q``."""
    def valid(pair) -> bool:
        return (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(_number(x) for x in pair)
                and 1.0 <= pair[0] <= pair[1] < math.inf)

    if not (isinstance(value, (list, tuple)) and value
            and all(valid(pair) for pair in value)):
        raise schemas.InstanceError(
            "pairs must be a nonempty list of [p, q] with 1 <= p <= q, "
            f"got {value!r}")
    return tuple((float(p), float(q)) for p, q in value)


@dataclass
class Scenario:
    """One command plus its parsed instance document and knobs."""

    command: str
    instance: dict
    seed: int = 0
    tol: float = 1e-6
    budget: int = 40

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise schemas.InstanceError(f"unknown command {self.command!r}")
        self.seed = _integer(self.instance.get("seed", self.seed), "seed")
        self.tol = _positive(self.instance.get("tol", self.tol), "tol")
        self.budget = _integer(self.instance.get("budget", self.budget),
                               "budget", 1)


def _check(name: str, passed: bool, **info) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(info)
    return entry


def _norm_axiom_checks(X, seed: int, samples: int = 500, rel_tol: float = 1e-10):
    rng = np.random.default_rng([131, seed])
    worst_tri = worst_hom = worst_mono = 0.0
    for _ in range(samples):
        f = rng.normal(size=X.n)
        g = rng.normal(size=X.n)
        a = float(rng.normal())
        nf, ng = X.norm(f), X.norm(g)
        scale = max(nf + ng, 1e-30)
        worst_tri = max(worst_tri, (X.norm(f + g) - nf - ng) / scale)
        worst_hom = max(worst_hom,
                        abs(X.norm(a * f) - abs(a) * nf) / max(abs(a) * nf, 1e-30))
        smaller = np.sign(f) * np.minimum(np.abs(f), np.abs(g))
        worst_mono = max(worst_mono, (X.norm(smaller) - ng) / max(ng, 1e-30))
    return [
        _check("triangle-inequality", worst_tri <= rel_tol, worst=worst_tri),
        _check("absolute-homogeneity", worst_hom <= rel_tol, worst=worst_hom),
        _check("lattice-monotonicity", worst_mono <= rel_tol, worst=worst_mono),
    ]


def _run_check_space(sc: Scenario):
    measure = schemas.build_measure(sc.instance)
    X = schemas.build_space(sc.instance, measure)
    checks = _norm_axiom_checks(X, sc.seed)
    rng = np.random.default_rng([137, sc.seed])
    worst_dual = 0.0
    for _ in range(16):
        h = np.abs(rng.normal(size=X.n))
        closed = kothe_dual_norm(X, h, method="closed")
        numeric = kothe_dual_norm(X, h, method="numeric")
        worst_dual = max(worst_dual, abs(closed - numeric) / max(closed, 1e-30))
    checks.append(_check("dual-closed-vs-numeric", worst_dual <= 1e-7,
                         worst=worst_dual))
    report = {"space": {"family": "lebesgue", "s": X.s,
                        "weights": [float(w) for w in measure.weights]}}
    if "p" in sc.instance:
        p = sc.instance["p"]
        if not (_number(p) and 1.0 <= p < math.inf):
            raise schemas.InstanceError(f"p must be finite and >= 1, got {p!r}")
        est = p_convexity_estimate(X, p, budget=min(sc.budget, 24), seed=sc.seed)
        checks.append(_check("p-convexity-lower-bound", est.value >= 1.0 - 1e-9,
                             value=est.value))
        report["p_convexity_estimate"] = est.to_jsonable()
    return checks, report


def _domain(sc: Scenario):
    """The domain and exponents of a command's instance."""
    measure = schemas.build_measure(sc.instance)
    return (schemas.build_space(sc.instance, measure),
            schemas.build_exponents(sc.instance))


def _run_constants(sc: Scenario):
    X, e = _domain(sc)
    T = schemas.build_operator(sc.instance, X)
    chain = constant_chain_report(T, e, budget=min(sc.budget, 24),
                                  seed=sc.seed)
    checks = [_check("witness-transfer-chain", chain["chain_ok"],
                     chain=chain["chain"])]
    return checks, {"chain_report": chain}


def _build_snorm(sc: Scenario) -> SNormSpace:
    X, e = _domain(sc)
    try:
        if "xi" in sc.instance:
            return SNormSpace(base=X, e=e, xi=schemas.build_xi(sc.instance))
        if "dirac" in sc.instance:
            dirac = _section(sc.instance, "dirac", ("g",))
            return dirac_space(X, e, _positive_list(dirac["g"], "dirac g", X.n))
        if "partition" in sc.instance:
            part = _section(sc.instance, "partition", ("g", "blocks", "alpha"))
            g = _positive_list(part["g"], "partition g", X.n)
            blocks = _blocks(part["blocks"])
            alpha = _positive_list(part["alpha"], "partition alpha",
                                   len(blocks))
            return partition_space(X, e, g, blocks, alpha)
    except ValueError as exc:
        # besides the checks above, the constructors reject overlapping,
        # uncovered, empty or out-of-range blocks and weights outside the
        # dual ball
        raise schemas.InstanceError(str(exc)) from exc
    raise schemas.InstanceError(
        "snorm-demo needs one of 'xi', 'dirac' or 'partition'")


def _run_snorm_demo(sc: Scenario):
    S = _build_snorm(sc)
    saturated, witness = xi_saturation_check(S)
    checks = []
    report = {"saturated": saturated,
              "saturation_witness_atom": witness,
              "total_mass": S.xi.total_mass}
    if "expect_saturated" in sc.instance:
        expected = sc.instance["expect_saturated"]
        if not isinstance(expected, bool):
            raise schemas.InstanceError(
                f"expect_saturated must be true or false, got {expected!r}")
        checks.append(_check("saturation-as-expected", saturated == expected,
                             saturated=saturated))
    rng = np.random.default_rng([139, sc.seed])
    samples = _integer(sc.instance.get("samples", 200), "samples", 1)
    if "dirac" in sc.instance or "partition" in sc.instance:
        # the mixture must match its closed mixed-norm expression exactly
        worst = 0.0
        H = S.xi.atoms
        mu = S.space.weights
        for _ in range(samples):
            f = rng.normal(size=S.n)
            inner = (np.abs(f) ** S.e.p * mu) @ H.T
            direct = float((inner ** (S.e.q / S.e.p) @ S.xi.masses) ** (1.0 / S.e.q))
            val = s_norm(S, f)
            worst = max(worst, abs(val - direct) / max(direct, 1e-30))
        checks.append(_check("closed-form-identity", worst <= 1e-12, worst=worst))
    if saturated:
        ratio = inclusion_bound_check(S, samples=samples, seed=sc.seed)
        bound = S.xi.total_mass ** (1.0 / S.e.q)
        checks.append(_check("inclusion-bound", ratio <= bound + 1e-9,
                             ratio=ratio, bound=bound))
        checks.extend(_norm_axiom_checks(S, sc.seed, samples=min(samples, 300)))
    probe = np.ones(S.n)
    report["seminorm_of_ones"] = s_norm(S, probe)
    return checks, report


def _run_factorize(sc: Scenario):
    X, e = _domain(sc)
    T = schemas.build_operator(sc.instance, X)
    cert = find_domination_measure(T, e, tol=sc.tol, budget=sc.budget,
                                   seed=sc.seed)
    samples = _integer(sc.instance.get("samples", 2000), "samples", 1)
    residual = verify_domination(cert, T, e, sample_count=samples, seed=sc.seed)
    checks = [
        _check("solver-converged", cert.converged, residual=cert.residual,
               iterations=cert.iterations),
        _check("fresh-sample-verification", residual <= sc.tol,
               residual=residual, samples=samples),
    ]
    sat, witness = xi_saturation_check(SNormSpace(base=X, e=e, xi=cert.xi))
    checks.append(_check("mixture-saturated", sat, witness_atom=witness))
    report = {"certificate": cert.to_jsonable()}
    if e.is_extreme and cert.converged:
        report["collapse_weight"] = [float(w) for w in collapse_weight(cert)]
    return checks, report


def _run_kakutani(sc: Scenario):
    X, e = _domain(sc)
    cert = find_domination_measure(identity_operator(X), e, tol=sc.tol,
                                   budget=sc.budget, seed=sc.seed)
    checks = [_check("solver-converged", cert.converged,
                     residual=cert.residual)]
    report = {"certificate": cert.to_jsonable()}
    if cert.converged:
        samples = _integer(sc.instance.get("samples", 2048), "samples", 1)
        lower, upper = _equivalence_range(cert, X, samples, sc.seed)
        checks.append(_check("lower-constant", lower >= 1.0 - 1e-9, value=lower))
        checks.append(_check("upper-constant",
                             upper <= cert.C * (1.0 + sc.tol) * (1.0 + 1e-9),
                             value=upper, certificate_constant=cert.C))
        report["equivalence"] = {"lower": lower, "upper": upper}
    return checks, report


def _run_lemma_verify(sc: Scenario):
    count = _integer(sc.instance.get("count", 100), "count", 1)
    n_max = _integer(sc.instance.get("n_max", 4), "n_max", 2)
    m_max = _integer(sc.instance.get("m_max", 3), "m_max", 1)
    step = _positive(sc.instance.get("step", 1e-3), "step")
    rel_tol = _positive(sc.instance.get("rel_tol", 1e-6), "rel_tol")
    pairs = sc.instance.get("pairs")
    pairs = LEMMA_PAIRS if pairs is None else _exponent_pairs(pairs)
    extremes = {ExponentTriple(p=p, q=q).is_extreme for p, q in pairs}
    for m in range(1, m_max + 1):
        size = max(brute_force_grid_size(m, step, x) for x in extremes)
        if size > BRUTE_FORCE_GRID_CAP:
            raise schemas.InstanceError(
                f"step {step!r} and m_max {m_max} ask for a brute-force "
                f"grid of {size} points at m = {m}, above the cap of "
                f"{BRUTE_FORCE_GRID_CAP}")
    worst = 0.0
    worst_index = None
    for i, (X, e, F) in enumerate(
            lemma_instances(count, seed=sc.seed, n_max=n_max, m_max=m_max,
                            pairs=pairs)):
        lhs = brute_force_family_sup(X, e, F, step=step)
        grid = np.vstack([extreme_dual_vectors(X, e.p),
                          attainment_point(X, e, F)])
        rhs = family_sup_rhs(X, e, F, grid)
        gap = abs(lhs - rhs) / max(rhs, 1e-30)
        if gap > worst:
            worst, worst_index = gap, i
    checks = [_check("scaled-family-equality", worst <= rel_tol,
                     max_relative_gap=worst, worst_instance=worst_index,
                     count=count)]
    return checks, {"max_relative_gap": worst, "count": count}


_RUNNERS = {
    "check-space": _run_check_space,
    "constants": _run_constants,
    "snorm-demo": _run_snorm_demo,
    "factorize": _run_factorize,
    "kakutani": _run_kakutani,
    "lemma-verify": _run_lemma_verify,
}


def run(scenario: Scenario) -> tuple[int, dict]:
    """Dispatch a scenario; returns (exit status, JSON report)."""
    try:
        checks, payload = _RUNNERS[scenario.command](scenario)
    except NotPConvexError as exc:  # a domain that is not p-convex
        raise schemas.InstanceError(str(exc)) from exc
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": schemas.SCHEMA_ID,
        "command": scenario.command,
        "seed": scenario.seed,
        "tol": scenario.tol,
        "budget": scenario.budget,
        "status": "pass" if passed else "fail",
        "checks": checks,
    }
    report.update(payload)
    return (0 if passed else 1), report


def _summarize(report: dict) -> str:
    lines = [f"latfact {report['command']}: {report['status'].upper()} "
             f"(seed={report['seed']}, tol={report['tol']})"]
    for c in report["checks"]:
        mark = "ok " if c["passed"] else "FAIL"
        info = {k: v for k, v in c.items() if k not in ("name", "passed")}
        lines.append(f"  [{mark}] {c['name']}"
                     + (f"  {json.dumps(info, sort_keys=True, default=str)}"
                        if info else ""))
    cert = report.get("certificate")
    if cert:
        lines.append(f"  certificate: C={cert['C']:.9g}  "
                     f"residual={cert['residual']:.3g}  "
                     f"iterations={cert['iterations']}  "
                     f"converged={cert['converged']}")
        lines.append("      mass      weight")
        for atom in cert["xi"]["atoms"]:
            weight = "  ".join(f"{x:.6g}" for x in atom["h"])
            lines.append(f"    {atom['mass']:.6f}  [{weight}]")
    return "\n".join(lines)


def generate_instances(kind: str, count: int, n: int, seed: int,
                       out_dir) -> list[Path]:
    """Write deterministic instance fixtures; returns the created paths."""
    if kind not in GENERATE_KINDS:
        raise schemas.InstanceError(f"unsupported generator kind {kind!r}")
    if n < 1:
        raise schemas.InstanceError("instance generator needs n >= 1")
    if n > 12:
        raise schemas.InstanceError("instance generator caps n at 12")
    count = _integer(count, "count", 1)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(count):
        child = [seed, i]
        if kind == "lebesgue-space":
            X = random_lebesgue_space(n, child)
            doc = schemas.instance_to_doc(measure=X.space, space=X,
                                          extra={"seed": seed})
        elif kind == "random-operator":
            T = random_operator(n, n, child)
            doc = schemas.instance_to_doc(
                measure=T.domain.space, space=T.domain,
                e=ExponentTriple(p=1.0, q=2.0), operator=T,
                extra={"seed": seed})
        else:  # partition-xi
            X = random_lebesgue_space(n, child, s=1.0)
            part = random_partition_doc(n, child)
            doc = schemas.instance_to_doc(
                measure=X.space, space=X, e=ExponentTriple(p=1.0, q=2.0),
                extra={"partition": part, "seed": seed})
        path = out_dir / f"{kind}-{seed}-{i:03d}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        paths.append(path)
    return paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latfact",
        description="lattice-norm domination certificates and operator constants")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--instance", required=True)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--tol", type=float, default=None)
        cmd.add_argument("--budget", type=int, default=None)
        cmd.add_argument("--out", default=None)
    gen = sub.add_parser("generate")
    gen.add_argument("--kind", required=True, choices=GENERATE_KINDS)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--n", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-dir", default=".")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            paths = generate_instances(args.kind, args.count, args.n,
                                       args.seed, args.out_dir)
            for p in paths:
                print(p)
            return 0
        instance = schemas.load_instance(args.instance)
        if args.seed is not None:
            instance = dict(instance, seed=args.seed)
        if args.tol is not None:
            instance = dict(instance, tol=args.tol)
        if args.budget is not None:
            instance = dict(instance, budget=args.budget)
        scenario = Scenario(command=args.command, instance=instance)
        status, report = run(scenario)
        out = args.out or (str(Path(args.instance).with_suffix("")) +
                           ".report.json")
        schemas.dump_report(report, out)
        print(_summarize(report))
        print(f"report written to {out}")
        return status
    except schemas.InstanceError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
