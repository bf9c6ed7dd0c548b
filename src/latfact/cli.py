"""Batch front-end: run scenario files, emit JSON reports and fixtures.

    latfact <command> --instance <path> [--seed N] [--tol X] [--budget N]
                      [--out <path>]
    latfact generate --kind <kind> --count N --n N --seed S --out-dir DIR

Commands: check-space, constants, snorm-demo, factorize, kakutani,
lemma-verify; :mod:`latfact.schemas` parses the fields each reads before
it runs.  Exit status 0 when every check passes, 1 on a failed
assertion or non-converged solve, 2 on input errors.  Reports contain no
wall-clock data, so identical scenarios and seeds produce byte-identical
JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import schemas
from .constants import (brute_force_family_sup, constant_chain_report,
                        family_sup_rhs, attainment_point)
from .factorization import (collapse_weight, find_domination_measure,
                            kakutani_equivalence, verify_domination)
from .snorm import inclusion_bound_check, xi_saturation_check
from .spaces import (ExponentTriple, dual_norm_of_pth_power,
                     extreme_dual_vectors, linear_sup_over_ball,
                     p_convexity_estimate, power_mean)
from .suite import (lemma_instances, random_lebesgue_space, random_operator,
                    random_partition_doc)

GENERATE_KINDS = ("lebesgue-space", "random-operator", "partition-xi")
# largest relative defect the norm-axiom checks allow
_AXIOM_TOL = 1e-10
# the largest budget check-space and constants pass to an estimator
_ESTIMATOR_BUDGET_CAP = 24


@dataclass
class Scenario:
    """One command and its instance document, every field it reads parsed.

    Parsing raises :class:`~latfact.schemas.InstanceError` on a malformed
    document, before the command runs.
    """

    command: str
    instance: dict
    fields: SimpleNamespace = field(init=False)

    def __post_init__(self):
        self.fields = schemas.parse_fields(self.command, self.instance)


def _check(name: str, passed: bool, **info) -> dict:
    entry = {"name": name, "passed": bool(passed)}
    entry.update(info)
    return entry


def _norm_axiom_checks(X, seed: int, samples: int = 500):
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
        _check("triangle-inequality", worst_tri <= _AXIOM_TOL, worst=worst_tri),
        _check("absolute-homogeneity", worst_hom <= _AXIOM_TOL, worst=worst_hom),
        _check("lattice-monotonicity", worst_mono <= _AXIOM_TOL, worst=worst_mono),
    ]


def _run_check_space(f: SimpleNamespace):
    X = f.space
    checks = _norm_axiom_checks(X, f.seed)
    rng = np.random.default_rng([137, f.seed])
    worst_dual = 0.0
    for _ in range(16):
        h = np.abs(rng.normal(size=X.n))
        closed = dual_norm_of_pth_power(X, 1.0, h)
        numeric = linear_sup_over_ball(X, 1.0, h)
        worst_dual = max(worst_dual, abs(closed - numeric) / max(closed, 1e-30))
    checks.append(_check("dual-closed-vs-numeric", worst_dual <= 1e-7,
                         worst=worst_dual))
    doc = schemas.instance_to_doc(measure=X.space, space=X)
    report = {"measure": doc["measure"], "space": doc["space"]}
    if f.p is not None:
        est = p_convexity_estimate(X, f.p,
                                   budget=min(f.budget, _ESTIMATOR_BUDGET_CAP),
                                   seed=f.seed)
        checks.append(_check("p-convexity-lower-bound", est.value >= 1.0 - 1e-9,
                             value=est.value))
        report["p_convexity_estimate"] = est.to_jsonable()
    return checks, report


def _run_constants(f: SimpleNamespace):
    chain = constant_chain_report(
        f.operator, f.e, budget=min(f.budget, _ESTIMATOR_BUDGET_CAP),
        seed=f.seed)
    checks = [_check("witness-transfer-chain", chain["chain_ok"],
                     chain=chain["chain"])]
    return checks, {"chain_report": chain}


def _closed_mixed_norm(f: SimpleNamespace, F: np.ndarray) -> np.ndarray:
    """The rows' mixed norm, read off the ``dirac`` or ``partition`` section.

    A dirac gives ``‖f‖_{L^p(g mu)}``; a partition gives
    ``(sum_b alpha_b ‖f 1_b‖_{L^p(g mu)}^q)^(1/q)``.
    """
    p, q = f.e.p, f.e.q
    w = f.g * f.space.space.weights
    if f.blocks is None:
        return power_mean(F, p, w)
    parts = [power_mean(F[:, b], p, w[b]) ** q for b in f.blocks]
    return (f.alpha @ np.array(parts)) ** (1.0 / q)


def _run_snorm_demo(f: SimpleNamespace):
    S = f.mixture
    saturated, witness = xi_saturation_check(S)
    checks = []
    report = {"saturated": saturated,
              "saturation_witness_atom": witness,
              "total_mass": S.xi.total_mass}
    if f.expect_saturated is not None:
        checks.append(_check("saturation-as-expected",
                             saturated == f.expect_saturated,
                             saturated=saturated))
    if f.g is not None:
        # the mixture must match the mixed norm its section describes
        F = np.random.default_rng([139, f.seed]).normal(size=(f.samples, S.n))
        closed = _closed_mixed_norm(f, F)
        values = np.array([S.seminorm(row) for row in F])
        worst = float(np.max(np.abs(values - closed)
                             / np.maximum(closed, 1e-30)))
        checks.append(_check("closed-form-identity", worst <= 1e-12, worst=worst))
    if saturated:
        ratio, within = inclusion_bound_check(S, samples=f.samples,
                                              seed=f.seed)
        checks.append(_check("inclusion-bound", within, ratio=ratio,
                             bound=S.xi.total_mass ** (1.0 / S.e.q)))
        checks.extend(_norm_axiom_checks(S, f.seed, samples=min(f.samples, 300)))
    probe = np.ones(S.n)
    report["seminorm_of_ones"] = S.seminorm(probe)
    return checks, report


def _run_factorize(f: SimpleNamespace):
    T, e = f.operator, f.e
    cert = find_domination_measure(T, e, tol=f.tol, budget=f.budget,
                                   seed=f.seed)
    residual = verify_domination(cert, T, sample_count=f.samples, seed=f.seed)
    checks = [
        _check("solver-converged", cert.converged, residual=cert.residual,
               iterations=cert.iterations),
        _check("fresh-sample-verification", residual <= f.tol,
               residual=residual, samples=f.samples),
    ]
    sat, witness = xi_saturation_check(cert.snorm_space(f.space))
    checks.append(_check("mixture-saturated", sat, witness_atom=witness))
    report = {"certificate": cert.to_jsonable()}
    if e.is_extreme and cert.converged:
        report["collapse_weight"] = [float(w) for w in collapse_weight(cert)]
    return checks, report


def _run_kakutani(f: SimpleNamespace):
    cert, lower, upper = kakutani_equivalence(
        f.space, f.e, tol=f.tol, budget=f.budget, seed=f.seed,
        samples=f.samples)
    checks = [_check("solver-converged", cert.converged,
                     residual=cert.residual)]
    report = {"certificate": cert.to_jsonable()}
    if cert.converged:
        checks.append(_check("lower-constant", lower >= 1.0 - 1e-9, value=lower))
        checks.append(_check("upper-constant",
                             upper <= cert.C * (1.0 + f.tol) * (1.0 + 1e-9),
                             value=upper, certificate_constant=cert.C))
        report["equivalence"] = {"lower": lower, "upper": upper}
    return checks, report


def _run_lemma_verify(f: SimpleNamespace):
    worst = 0.0
    worst_index = None
    for i, (X, e, F) in enumerate(
            lemma_instances(f.count, seed=f.seed, n_max=f.n_max,
                            m_max=f.m_max, pairs=f.pairs)):
        lhs = brute_force_family_sup(X, e, F, step=f.step)
        grid = np.vstack([extreme_dual_vectors(X, e.p),
                          attainment_point(X, e, F)])
        rhs = family_sup_rhs(X, e, F, grid)
        gap = abs(lhs - rhs) / max(rhs, 1e-30)
        if gap > worst:
            worst, worst_index = gap, i
    checks = [_check("scaled-family-equality", worst <= f.rel_tol,
                     max_relative_gap=worst, worst_instance=worst_index,
                     count=f.count)]
    return checks, {"max_relative_gap": worst, "count": f.count}


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
    f = scenario.fields
    checks, payload = _RUNNERS[scenario.command](f)
    passed = all(c["passed"] for c in checks)
    report = {
        "schema": schemas.SCHEMA_ID,
        "command": scenario.command,
        "seed": f.seed,
        "tol": f.tol,
        "budget": f.budget,
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
                     f"converged={cert['converged']}  stop={cert['stop']}")
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
    count, n, seed = schemas.generator_settings(count, n, seed)
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
    for name in schemas.COMMANDS:
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
        flags = {"seed": args.seed, "tol": args.tol, "budget": args.budget}
        instance = dict(instance, **{k: v for k, v in flags.items()
                                     if v is not None})
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
