"""BENCH_1.json, written by scripts/bench_json.py, records the metrics and
units that BENCHMARK.json declares, for every gated workload. No value is
checked: the numbers belong to the machine that measured them."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_record_has_the_declared_metrics_and_units():
    record = json.loads((ROOT / "BENCH_1.json").read_text())
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {"cpu_model", "nproc", "mem_total_kib", "python", "numpy", "blas", "openblas_core"} <= set(record["machine"])
    assert record["checkouts"]
    for checkout in record["checkouts"].values():
        assert set(checkout) == {"git_commit", "src_sha256", "workloads"}
        assert set(checkout["workloads"]) == {w["name"] for w in SPEC["workloads"]}
        for entry in checkout["workloads"].values():
            assert {name: m["unit"] for name, m in entry["metrics"].items()} == units
            for summary in entry["metrics"].values():
                assert set(summary) == {"unit", "median", "iqr", "min", "max", "n"}
            assert entry["runs"] and all(set(run["metrics"]) == set(units) for run in entry["runs"])
