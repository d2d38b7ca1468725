"""Smoke test of the benchmark at toy size.

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, that failures are counted, and that the benchmark refuses to run
without the package sources. It makes no wall-clock assertion.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = list(load_run_module().WORKLOADS)


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert lines[0].startswith("# machine ") and lines[1].startswith("# run ")


def test_divergence_probe_counts_failed_steps():
    bench = load_run_module()
    spec = replace(bench.TOY["train-small32"], lr_init=1000.0)
    run = bench.Run()
    bench.run_train(spec, seed=0, seconds=0, run=run)
    assert run.failed / run.attempted > 0
    assert run.correct, run.notes


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
