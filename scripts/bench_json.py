"""Run the benchmark at one or more checkouts and write a BENCH_n.json file.

    python3 scripts/bench_json.py --out BENCH_1.json --seeds 0 1 2 3 4 \\
        --seconds 30 parent=/path/to/parent/checkout change=.

For every seed, each checkout runs ``bench/run.py --workload W --seed S
--seconds T --trace 0`` for every workload that BENCHMARK.json gates, each in
a fresh process. The checkouts run in the order given at even seeds and in
reverse at odd ones, so runs of the same seed form alternating pairs. The
file keeps every run's metrics and, per checkout, workload and metric, the
median, interquartile range (inclusive quartiles), min, max and n, with the
machine facts and each checkout's git commit and sha256 of ``src/`` as
``bench/run.py`` reports them. With two checkouts, the first the parent and
the second the change, it also holds ``verdicts``: per workload and metric,
the change/parent ratio at each seed, their median, the interval between
their 2nd lowest and 2nd highest (the 2nd and 9th of 10, a 97.9 % interval
for the median), the count of pairs the change won and a verdict; with
fewer than ``MIN_PAIRS`` pairs it holds none. The README's "Benchmark
records" section gives the schema.
"""

import argparse
import ctypes
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
# Fewest pairs that get verdicts: with 3 the 2nd lowest and 2nd highest of the
# ratios are one value, and the interval covers the median with probability 0.
MIN_PAIRS = 4


def run_bench(checkout, workload, seed, seconds):
    """(header lines by kind, result) of one ``bench/run.py`` process."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=checkout, check=True, capture_output=True, text=True).stdout.splitlines()
    header = {kind: json.loads(rest) for kind, rest in
              (line[2:].split(" ", 1) for line in lines if line.startswith(("# machine ", "# run ")))}
    return header, json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "iqr": q3 - q1, "min": min(values), "max": max(values),
            "n": len(values)}


def verdict(ratios, better):
    """The paired-ratio verdict of one metric: ``better`` or ``worse`` when the
    interval lies wholly on that side of 1, else ``even``."""
    sign = 1 if better == "higher" else -1
    values = sorted(ratios.values())
    n = len(values)
    low, high = values[1], values[-2]
    gains = [sign * (v - 1) for v in (low, high)]
    side = "better" if min(gains) > 0 else "worse" if max(gains) < 0 else "even"
    # The 2nd order statistics from each end cover the median unless at most one
    # ratio falls on one side of it: 1 - 2 (1 + n) / 2^n.
    return {"better": better, "ratios": ratios, "median": statistics.median(values),
            "interval": [low, high], "coverage": 1 - 2 * (1 + n) / 2**n, "pairs": n,
            "better_pairs": sum(sign * (v - 1) > 0 for v in values), "verdict": side}


def summaries(record):
    """Fill each workload's ``metrics`` and, for two checkouts, ``verdicts``."""
    for checkout in record["checkouts"].values():
        for entry in checkout["workloads"].values():
            entry["metrics"] = {m["name"]: {"unit": m["unit"], **summarize([r["metrics"][m["name"]] for r in entry["runs"]])}
                                for m in SPEC["end_to_end"]}
    if len(record["checkouts"]) != 2 or len(record["seeds"]) < MIN_PAIRS:
        return
    parent, change = (c["workloads"] for c in record["checkouts"].values())
    record["verdicts"] = {}
    for workload, entry in change.items():
        base = {r["seed"]: r["metrics"] for r in parent[workload]["runs"]}
        record["verdicts"][workload] = {
            m["name"]: verdict({str(r["seed"]): r["metrics"][m["name"]] / base[r["seed"]][m["name"]]
                                for r in entry["runs"]}, m["better"])
            for m in SPEC["end_to_end"]}


def machine_extras():
    """RAM, read from Linux's /proc, and the OpenBLAS core type, which
    ``bench/run.py`` does not report. The core type is null unless numpy's
    OpenBLAS exports a corename function. It is looked up through numpy's own
    extension module, as ``tkfnet.train`` finds the thread setter, so an
    OpenBLAS that another package loaded, such as scipy's, is never asked."""
    with open("/proc/meminfo") as f:
        mem_total_kib = int(next(line.split()[1] for line in f if line.startswith("MemTotal:")))
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        lib = None
    names = ("scipy_openblas_get_corename64_", "openblas_get_corename")
    corename = next(filter(None, (getattr(lib, name, None) for name in names)), None) if lib else None
    if corename is not None:
        corename.restype = ctypes.c_char_p
    return {"mem_total_kib": mem_total_kib, "openblas_core": corename and corename().decode()}


def measure_record(checkouts, seeds, seconds):
    """Every run of every gated workload at each LABEL=PATH checkout, in
    alternating order by seed."""
    checkouts = dict(item.split("=", 1) for item in checkouts)
    workloads = [w["name"] for w in SPEC["workloads"]]
    record = {"command": "bench/run.py --trace 0", "seconds": seconds, "seeds": seeds,
              "machine": None, "checkouts": {label: {"workloads": {w: {"runs": []} for w in workloads}}
                                             for label in checkouts}}
    for seed in seeds:
        for label in list(checkouts)[:: 1 if seed % 2 == 0 else -1]:
            for workload in workloads:
                header, result = run_bench(checkouts[label], workload, seed, seconds)
                record["machine"] = record["machine"] or {**header["machine"], **machine_extras()}
                record["checkouts"][label].update(git_commit=header["run"]["git_commit"],
                                                  src_sha256=header["run"]["src_sha256"])
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                record["checkouts"][label]["workloads"][workload]["runs"].append(
                    {"seed": seed, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics})
                print(label, workload, seed, json.dumps(metrics), flush=True)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=PATH")
    args = parser.parse_args(argv)
    record = measure_record(args.checkouts, args.seeds, args.seconds)
    summaries(record)
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
