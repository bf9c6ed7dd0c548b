"""Benchmark of the latfact CLI layer: one workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 bench/run.py --capture

A run builds the workload's instance documents (workloads.py) and feeds
them to ``latfact.cli.run`` one after another, a closed loop with one
caller.  It repeats whole passes over the list while the next pass is
expected to end within ``--seconds``, checks every report (checks.py) and
prints, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The end-to-end times are
calibrated against a fixed kernel that samples the host's speed during the
passes (calibrate.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes (spans.py), checks that both give byte-identical
reports, writes the spans of the first traced pass to ``bench/out/`` and
reports the per-layer metrics.  ``--workload all`` runs every workload in
a process of its own.  ``--capture`` writes ``reference.json``, the values
that quality loss is measured against.  See NOTES.md.
"""

from __future__ import annotations

import os

# one BLAS thread, and latfact's own thread pool at its default, before
# numpy is imported anywhere in this process or its children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("LATFACT_THREADS", None)

import argparse
import gzip
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("solve-flat", "solve-curved", "solve-wide", "chain")
SETUP_REPEATS = 7
CAPTURE_COMMAND = "python3 bench/run.py --capture"


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def setup(name: str, seed: int):
    """Import latfact and build the run's documents; returns (seconds, ...)."""
    start = time.perf_counter()
    if not (SRC / "latfact" / "__init__.py").is_file():
        raise BenchError(f"no latfact sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import workloads
    workload = workloads.WORKLOADS[name]
    pool = workloads.pool_docs(workload)
    order = workloads.run_order(workload, seed)
    docs = [pool[i] for i in order]
    return time.perf_counter() - start, workload, pool, order, docs


def setup_seconds(name: str, seed: int, first: float) -> tuple[list, list]:
    """Set-up times: this process's plus those of fresh processes.

    Returns the wall times and the same times calibrated (calibrate.py)
    by the kernel timed just before and just after each of them.
    """
    import calibrate

    def calibrated(wall: float, before: float, after: float) -> float:
        return wall * calibrate.scale((before + after) / (2 * calibrate.STEPS))

    calibrate.kernel_seconds()  # warm-up
    kernel = [calibrate.kernel_seconds()]
    times = [first]
    scaled = [calibrated(first, kernel[0], kernel[0])]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        kernel.append(calibrate.kernel_seconds())
        scaled.append(calibrated(times[-1], kernel[-2], kernel[-1]))
    return times, scaled


def environment() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")},
            "LATFACT_THREADS": os.environ.get("LATFACT_THREADS", "unset")}


def load_reference(workload, pool) -> list[dict]:
    import workloads
    try:
        ref = json.loads(REFERENCE.read_text())["workloads"][workload.name]
    except (OSError, KeyError, ValueError) as exc:
        raise BenchError(f"no reference values for {workload.name}: {exc}") from exc
    if ref["pool_sha256"] != workloads.inputs_sha256(pool):
        raise BenchError(f"the {workload.name} pool differs from the one in "
                         f"{REFERENCE.name}; recapture with {CAPTURE_COMMAND}")
    return ref["instances"]


class Run:
    """Passes over one workload's documents, with their checks."""

    def __init__(self, workload, docs: list[dict], order: list[int],
                 reference: list[dict]):
        import workloads
        from latfact import cli
        self.cli = cli
        self.canonical = workloads.canonical
        self.workload = workload
        self.docs = docs
        self.order = order
        self.reference = reference
        self.expected: list[str | None] | None = None  # first pass's reports
        self.wall_times: list[float] = []  # untraced passes
        self.pass_times: list[float] = []  # the same, calibrated if sampled
        self.instance_times: list[list[float]] = []  # per pass, per instance
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.losses: list[float] = []

    def one_pass(self, tracer=None, sampler=None) -> float:
        """Run every document once; returns the pass's wall time.

        With a calibrate.Sampler, the recorded times are calibrated.
        """
        reports: list[dict | None] = []
        times = []
        start = time.perf_counter()
        for index, doc in enumerate(self.docs):
            if tracer is not None:
                tracer.instance = self.order[index]
            t0 = time.perf_counter()
            try:
                scenario = self.cli.Scenario(command=self.workload.command,
                                             instance=doc)
                _, report = self.cli.run(scenario)
            except Exception as exc:  # a raising instance counts as failed
                report = None
                self.problems.append(f"instance {self.order[index]} raised "
                                     f"{type(exc).__name__}: {exc}")
            t1 = time.perf_counter()
            times.append(t1 - t0 if sampler is None
                         else sampler.calibrated(t0, t1))
            reports.append(report)
        elapsed = time.perf_counter() - start
        self.attempted += len(reports)
        self.failed += sum(r is None or r["status"] != "pass" for r in reports)
        texts = [None if r is None else self.canonical(r) for r in reports]
        if self.expected is None:
            self.expected = texts
            self._check_first(reports)
        elif texts != self.expected:
            self.problems.append("reports differ between passes"
                                 + (" (traced vs untraced)" if tracer else ""))
        if tracer is None:
            self.wall_times.append(elapsed)
            self.pass_times.append(elapsed if sampler is None else sum(times))
            self.instance_times.append(times)
        return elapsed

    def _check_first(self, reports: list[dict | None]) -> None:
        import checks
        for index, report in enumerate(reports):
            if report is None:
                continue
            pool_index = self.order[index]
            for problem in checks.replay(self.workload.command,
                                         self.docs[index], report):
                self.problems.append(f"instance {pool_index}: {problem}")
            loss = checks.quality_loss(self.workload.command, report,
                                       self.reference[pool_index])
            if loss is not None:
                self.losses.append(loss)

    @property
    def correct(self) -> bool:
        return not self.problems

    def quality_loss(self) -> float:
        return max(self.losses, default=0.0)


def run_workload(args) -> int:
    seconds_setup, workload, pool, order, docs = setup(args.workload, args.seed)
    import workloads
    print(f"workload {workload.name} ({workload.command}): {workload.why}")
    print(f"seed {args.seed}: {len(docs)} instances, pool order {order}, "
          f"inputs_sha256 {workloads.inputs_sha256(docs)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    run = Run(workload, docs, order, load_reference(workload, pool))
    if args.trace:
        metrics = traced_passes(run, args)
    else:
        walls, setups = setup_seconds(workload.name, args.seed, seconds_setup)
        print("setup_s wall samples " + " ".join(f"{t:.4f}" for t in walls))
        print("setup_s calibrated samples "
              + " ".join(f"{t:.4f}" for t in setups))
        metrics = {"setup_s": (statistics.median(setups), "s")}
        metrics.update(untraced_passes(run, args))
    for problem in run.problems:
        print(f"PROBLEM {problem}")
    print(f"failed_frac {run.failed / run.attempted} "
          f"({run.failed} of {run.attempted}); quality_loss {run.quality_loss()} "
          f"over {len(run.losses)} instances")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


def _keep_going(start: float, seconds: float, pass_times: list[float]) -> bool:
    """Another pass fits when it is expected to end within the run length."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(pass_times) <= seconds


def untraced_passes(run: Run, args) -> dict:
    import calibrate
    start = time.perf_counter()
    with calibrate.Sampler() as sampler:
        while True:
            run.one_pass(sampler=sampler)
            if not _keep_going(start, args.seconds, run.wall_times):
                break
    steps = sorted(s for _, s in sampler.samples)
    print(f"{len(steps)} kernel samples: step time median "
          f"{statistics.median(steps) / calibrate.SAMPLE_STEPS * 1e6:.2f} us, "
          f"range {steps[0] / calibrate.SAMPLE_STEPS * 1e6:.2f}-"
          f"{steps[-1] / calibrate.SAMPLE_STEPS * 1e6:.2f} us")
    # each instance's median over the passes, then the median over instances
    per_instance = [statistics.median(t) for t in zip(*run.instance_times)]
    print(f"{len(run.pass_times)} passes, wall time with kernel samples: "
          + " ".join(f"{t:.3f}" for t in run.wall_times) + " s")
    print("calibrated batch times: "
          + " ".join(f"{t:.3f}" for t in run.pass_times)
          + f" s; instance_s.p50 over {len(per_instance)} instances x "
          f"{len(run.pass_times)} passes")
    return {
        "batch_s": (statistics.median(run.pass_times), "s"),
        "instance_s.p50": (statistics.median(per_instance), "s"),
        "pass_frac": (1.0 - run.failed / run.attempted, "fraction"),
        "quality_ratio": (1.0 + run.quality_loss(), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced_passes(run: Run, args) -> dict:
    import spans
    tracer = spans.Tracer()
    traced_times: list[float] = []
    per_pass: list[dict] = []
    span_file = None
    start = time.perf_counter()
    while True:
        run.one_pass()
        tracer.reset()
        with tracer:
            elapsed = run.one_pass(tracer)
        traced_times.append(elapsed)
        per_pass.append(tracer.metrics())
        if span_file is None:
            summary = tracer.summary()
            span_file = write_spans(run.workload.name, args.seed, tracer)
        both = [a + b for a, b in zip(run.pass_times, traced_times)]
        if not _keep_going(start, args.seconds, both):
            break
    counts = spans.COUNTERS + spans.MAXIMA
    for name in counts:
        if len({m[name] for m in per_pass}) > 1:
            run.problems.append(f"count {name} differs between traced passes")
    overhead = statistics.median(traced_times) - statistics.median(run.pass_times)
    print_self_times(run.workload.name, summary, traced_times[0])
    print(f"{len(traced_times)} traced and {len(run.pass_times)} untraced "
          f"passes; traced batch_s {statistics.median(traced_times):.4f} s, "
          f"untraced {statistics.median(run.pass_times):.4f} s, "
          f"tracing overhead {overhead:.4f} s")
    print(f"spans of the first traced pass: {span_file}")
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in counts or name.endswith(".calls"):
            metrics[name] = (values[0], "count")
        else:
            metrics[name] = (statistics.median(values), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def write_spans(name: str, seed: int, tracer) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        for record in tracer.span_records():
            fh.write(json.dumps(record) + "\n")
    return path.relative_to(ROOT)


def print_self_times(name: str, summary: dict, pass_seconds: float) -> None:
    import spans
    print(f"self time by layer, {name}, first traced pass "
          f"({pass_seconds:.3f} s):")
    for layer, seconds in spans.layer_self_times(summary).items():
        print(f"  {layer:<14} {seconds:10.4f} s {100 * seconds / pass_seconds:6.1f} %")
    print("self time by function:")
    for span_name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {span_name:<40} {row['self_s']:10.4f} s "
              f"{row['calls']:>9} calls  {row['s']:10.4f} s inclusive")


def run_all(args) -> int:
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def capture() -> int:
    """Run every pool once, in pool order, and store the reference values."""
    import checks
    entries = {}
    commit = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    for name in WORKLOAD_NAMES:
        _, workload, pool, _, _ = setup(name, 0)
        import workloads
        from latfact import cli
        instances = []
        for doc in pool:
            try:
                _, report = cli.run(cli.Scenario(command=workload.command,
                                                 instance=doc))
            except Exception:  # recorded as raised
                report = None
            instances.append(checks.reference_entry(workload.command, report))
        failed = sum(e["status"] != "pass" for e in instances)
        entries[name] = {"pool_sha256": workloads.inputs_sha256(pool),
                         "failed_frac": failed / len(instances),
                         "quality_loss": 0.0,
                         "instances": instances}
        print(f"{name}: {len(instances)} instances, {failed} failed")
    REFERENCE.write_text(json.dumps(
        {"capture_command": CAPTURE_COMMAND, "commit": commit,
         "workloads": entries}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.capture:
            return capture()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            print(setup(args.workload, args.seed)[0])
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
