"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The smoke runs execute each workload once, untraced and traced, which
takes a minute or two on a small machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic(name):
    workload = workloads.WORKLOADS[name]
    first, second = workloads.pool_docs(workload), workloads.pool_docs(workload)
    assert [workloads.canonical(d) for d in first] == \
        [workloads.canonical(d) for d in second]
    for seed in (0, 1, 17):
        order = workloads.run_order(workload, seed)
        assert order == workloads.run_order(workload, seed)
        assert sorted(order) == list(range(len(first)))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_matches_reference(name):
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    entry = reference["workloads"][name]
    pool = workloads.pool_docs(workloads.WORKLOADS[name])
    assert entry["pool_sha256"] == workloads.inputs_sha256(pool)
    assert len(entry["instances"]) == len(pool)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _bindings():
    import latfact
    import latfact.snorm
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "latfact" or k.startswith("latfact.")]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()
                if callable(v)}
    cls = latfact.snorm.SNormSpace
    snapshot.update({("SNormSpace", k): cls.__dict__[k]
                     for k in ("__post_init__", "seminorm_rows")})
    return snapshot


def test_wrappers_restore_the_originals():
    import latfact.cli
    import latfact.constants
    before = _bindings()
    original = latfact.cli.find_domination_measure
    with spans.Tracer():
        assert latfact.cli.find_domination_measure is not original
        assert (latfact.factorization.find_domination_measure
                is latfact.cli.find_domination_measure)
        assert latfact.constants.family_search is not before[
            ("latfact.estimates", "family_search")]
    assert _bindings() == before


def test_wrappers_restore_after_an_error():
    before = _bindings()
    with pytest.raises(KeyError):
        with spans.Tracer():
            raise KeyError("boom")
    assert _bindings() == before


def test_spans_and_counters_pass_values_through():
    from latfact import constants, suite
    T = suite.random_operator(3, 3, [5, 0], s=1.0)
    plain = constants.operator_norm_estimate(T, budget=4, seed=1)
    tracer = spans.Tracer()
    with tracer:
        traced = constants.operator_norm_estimate(T, budget=4, seed=1)
    assert traced.value == plain.value
    summary = tracer.summary()
    assert summary["constants.operator_norm_estimate"]["calls"] == 1
    assert summary["search.projected_ascent"]["calls"] == 1
    assert tracer.counts["search.ascent_rows"] > 0
    outer = summary["constants.operator_norm_estimate"]
    assert outer["self_s"] <= outer["s"]


def test_calibration_kernel_is_fixed_work():
    import calibrate
    assert calibrate.kernel(50) == calibrate.kernel(50)
    assert calibrate.scale(calibrate.REFERENCE_STEP_S) == 1.0


def test_sampler_removes_its_own_time_and_restores_the_handler():
    import signal
    import time
    import calibrate
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler() as sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [s for s in sampler.samples if start <= s[0] < end]
    assert len(inside) >= 5
    step = sum(s for _, s in inside) / (len(inside) * calibrate.SAMPLE_STEPS)
    kernel_time = sum(s for _, s in inside)
    assert sampler.calibrated(start, end) == pytest.approx(
        (end - start - kernel_time) * calibrate.REFERENCE_STEP_S / step)


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name, trace):
    proc = _run_bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "chain", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
