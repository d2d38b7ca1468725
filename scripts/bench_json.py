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
``bench/run.py`` reports them. The README's "Benchmark records" section
gives the schema.
"""

import argparse
import ctypes
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


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


def machine_extras():
    """RAM and the OpenBLAS core type, which ``bench/run.py`` does not
    report. Both are read from Linux's /proc; the core type is null unless
    numpy's OpenBLAS exports a corename function."""
    import numpy  # noqa: F401, loads the OpenBLAS library numpy was built with
    with open("/proc/meminfo") as f:
        mem_total_kib = int(next(line.split()[1] for line in f if line.startswith("MemTotal:")))
    with open("/proc/self/maps") as f:
        lib = next((line.split()[-1] for line in f if "openblas" in line), None)
    names = ("scipy_openblas_get_corename64_", "openblas_get_corename")
    corename = next(filter(None, (getattr(ctypes.CDLL(lib), name, None) for name in names)), None) if lib else None
    if corename is not None:
        corename.restype = ctypes.c_char_p
    return {"mem_total_kib": mem_total_kib, "openblas_core": corename and corename().decode()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=PATH")
    args = parser.parse_args(argv)
    checkouts = dict(item.split("=", 1) for item in args.checkouts)
    workloads = [w["name"] for w in SPEC["workloads"]]
    record = {"command": "bench/run.py --trace 0", "seconds": args.seconds, "seeds": args.seeds,
              "machine": None, "checkouts": {label: {"workloads": {w: {"runs": []} for w in workloads}}
                                             for label in checkouts}}
    for seed in args.seeds:
        for label in list(checkouts)[:: 1 if seed % 2 == 0 else -1]:
            for workload in workloads:
                header, result = run_bench(checkouts[label], workload, seed, args.seconds)
                record["machine"] = record["machine"] or {**header["machine"], **machine_extras()}
                record["checkouts"][label].update(git_commit=header["run"]["git_commit"],
                                                  src_sha256=header["run"]["src_sha256"])
                metrics = {name: m["value"] for name, m in result["metrics"].items()}
                record["checkouts"][label]["workloads"][workload]["runs"].append(
                    {"seed": seed, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics})
                print(label, workload, seed, json.dumps(metrics), flush=True)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for checkout in record["checkouts"].values():
        for entry in checkout["workloads"].values():
            entry["metrics"] = {name: {"unit": unit, **summarize([r["metrics"][name] for r in entry["runs"]])}
                                for name, unit in units.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
