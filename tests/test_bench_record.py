"""Every BENCH_n.json, written by scripts/bench_json.py, records the metrics
and units that BENCHMARK.json declares, for every gated workload, and a
record's summaries and, with two checkouts, its verdicts are what
scripts/bench_json.py computes from the record's own runs. No value is checked
against a number: the numbers belong to the machine that measured them."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
_spec = importlib.util.spec_from_file_location("bench_json", ROOT / "scripts" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


def records():
    assert RECORDS
    return [json.loads(path.read_text()) for path in RECORDS]


def test_bench_record_has_the_declared_metrics_and_units():
    for record in records():
        check_names_and_units(record)


def check_names_and_units(record):
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


def test_bench_summaries_and_verdicts_follow_from_the_records_own_runs():
    for record in records():
        recomputed = copy.deepcopy(record)
        bench_json.summaries(recomputed)
        assert recomputed == record
        assert ("verdicts" in record) == (len(record["checkouts"]) == 2)


def test_bench_verdicts_need_enough_pairs():
    """A two-checkout record of 1 or 3 seeds gets summaries and no verdicts;
    one of 4 gets them, with a nonempty interval."""
    two = next(r for r in records() if len(r["checkouts"]) == 2)
    for k in (1, 3, bench_json.MIN_PAIRS):
        record = copy.deepcopy(two)
        record["seeds"] = record["seeds"][:k]
        for checkout in record["checkouts"].values():
            for entry in checkout["workloads"].values():
                entry["runs"] = [r for r in entry["runs"] if r["seed"] in record["seeds"]]
        del record["verdicts"]
        bench_json.summaries(record)
        for checkout in record["checkouts"].values():
            assert all(s["n"] == k for e in checkout["workloads"].values() for s in e["metrics"].values())
        assert ("verdicts" in record) == (k >= bench_json.MIN_PAIRS)
        for verdicts in record.get("verdicts", {}).values():
            for got in verdicts.values():
                low, high = got["interval"]
                assert low <= got["median"] <= high and got["pairs"] == k and 0 < got["coverage"] < 1


def test_openblas_core_is_numpys_even_with_scipys_openblas_loaded():
    # scipy.special loads scipy's own OpenBLAS, which exports neither corename.
    import scipy.special  # noqa: F401

    from tkfnet import train

    if train._BLAS_THREADS is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    core = bench_json.machine_extras()["openblas_core"]
    assert isinstance(core, str) and core
