"""tkfnet benchmark: training and inference throughput, latency and memory.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why the gated ones exist):

    train-small32      small model, synth 7x100 at 32 px, batch 32, 60 epochs,
                       then evaluate on a held-out synth 7x20 (seed + 1). Not
                       in BENCHMARK.json: its throughput spread over ten seeds
                       reached 0.22 on a 2-vCPU host whose speed drifts
    train-base224      base model, 16 sources of 48 px resized to 224, batch
                       8, 2 epochs, then evaluate on the training set
    infer-cli-base224  closed loop, one client: ``tkfnet.cli.main(["infer",
                       W, IMG])`` on a distinct 48 px PPM per request

Each run imports the package from ``src/`` of the checkout, makes its inputs
from ``--seed``, measures for about ``--seconds`` and checks the outputs.
Training workloads repeat cycles (fresh model, ``fit``, ``evaluate``) after
one warm-up epoch. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, measured with no wrappers installed. With ``--trace 1``
they are the per-layer ones from ``bench/spans.py``; traced and untraced
units (train cycles or requests) alternate, and their ratio gives the
tracing overhead. Lines before it describe the machine and the run and list
every measured value with its unit and sample count. ``--toy`` shrinks every
workload for the smoke test in ``bench/test_smoke.py``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
FER_CLASSES = ["angry", "disgust", "fear", "happy", "sad", "surprise", "neutral"]


@dataclass(frozen=True)
class TrainSpec:
    model: str
    per_class: int
    source: int  # side of the synthetic source images
    input_size: int
    batch: int
    epochs: int
    train_count: int | None = None  # seeded subset of the corpus; None keeps all
    holdout_per_class: int | None = None  # None evaluates on the training set
    classes: int = 7
    lr_init: float = 0.01
    lr_end: float = 0.001
    power: float = 0.5
    momentum: float = 0.9


@dataclass(frozen=True)
class InferSpec:
    model: str
    source: int
    input_size: int
    min_requests: int
    checked_requests: int  # requests re-computed in-process after the loop
    classes: int = 7


WORKLOADS = {
    "train-small32": TrainSpec("small", 100, 32, 32, 32, 60, holdout_per_class=20),
    "train-base224": TrainSpec("base", 3, 48, 224, 8, 2, train_count=16),
    "infer-cli-base224": InferSpec("base", 48, 224, 100, 5),
}
TOY = {
    "train-small32": TrainSpec("small", 4, 32, 32, 8, 2, holdout_per_class=2),
    "train-base224": TrainSpec("base", 1, 48, 32, 4, 2, train_count=4),
    "infer-cli-base224": InferSpec("base", 48, 32, 3, 2),
}
# (metric, unit) of the end-to-end result, the same for every workload.
# Throughput is total work over total time: on a host whose speed drifts by
# tens of percent from second to second, that mean varies less between runs
# than a median of steps, which jumps between the fast and the slow mode. The
# step or request p50 and p90 are printed with the other report lines but
# not gated: over ten seeds the p90 of about 30 base224 steps spread by up to
# 0.22, against at most 0.16 for throughput.
END_TO_END = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("peak_rss_mb", "MiB"),
]


def import_package():
    """Import tkfnet from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "tkfnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no tkfnet sources under {SRC}; run from a source checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tkfnet

    if Path(tkfnet.__file__).resolve().parent != (SRC / "tkfnet").resolve():
        raise SystemExit(f"error: imported tkfnet from {tkfnet.__file__}, not {SRC}")
    return tkfnet


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# -- inputs ----------------------------------------------------------------


def train_data(spec, seed):
    from tkfnet import Dataset, synth_dataset

    size = (spec.source, spec.source)
    train = synth_dataset(spec.classes, spec.per_class, size, seed=seed)
    if spec.train_count is not None:
        keep = np.random.default_rng(seed).permutation(len(train.samples))[: spec.train_count]
        train = Dataset([train.samples[i] for i in sorted(keep)], train.class_names)
    if spec.holdout_per_class is None:
        return train, train
    return train, synth_dataset(spec.classes, spec.holdout_per_class, size, seed=seed + 1)


def ppm_image(seed, index, side):
    """A noisy oriented grating as binary PPM bytes, drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    ys, xs = np.mgrid[0:side, 0:side]
    angle = rng.uniform(0, np.pi)
    wave = np.sin(0.8 * (xs * np.cos(angle) + ys * np.sin(angle)) + rng.uniform(0, 2 * np.pi))
    img = 0.5 + 0.35 * wave[..., None] + rng.normal(0, 0.05, (side, side, 3))
    pixels = np.clip(np.rint(img * 255), 0, 255).astype(np.uint8)
    return b"P6\n%d %d\n255\n" % (side, side) + pixels.tobytes()


def write_infer_fixtures(spec, seed, workdir):
    """Weights and the manifest ``train`` would write beside them."""
    from tkfnet import TKFNet, model_config, write_weights

    weights = workdir / "weights.tkfw"
    write_weights(weights, TKFNet(model_config(spec.model, spec.classes), seed=seed).state_arrays())
    names = FER_CLASSES[: spec.classes]
    lines = ["command=train", f"model={spec.model}", f"classes={spec.classes}",
             f"input_size={spec.input_size}", "normalize=on", f"seed={seed}"]
    lines += [f"class_{i}={name}" for i, name in enumerate(names)]
    (workdir / "manifest.txt").write_text("\n".join(lines) + "\n")
    return weights, names


# -- set-up ----------------------------------------------------------------


def setup_once(spec, seed):
    """What a user pays before the first timed operation of the workload."""
    tkfnet = import_package()
    if isinstance(spec, InferSpec):
        import tkfnet.cli  # noqa: F401  (the model load is per request)
        return
    train_data(spec, seed)
    tkfnet.TKFNet(tkfnet.model_config(spec.model, spec.classes), seed=seed)


def measure_setup(args):
    """Wall times of fresh processes that only do the set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--toy"] if args.toy else [])
    times = []
    for _ in range(1 if args.toy else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


# -- training --------------------------------------------------------------


class Run:
    """Operation counts and the correctness verdict of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = []

    def wrong(self, note):
        self.correct = False
        self.notes.append(note)


def checked_optimizer(tk, run, step_times):
    """MomentumOptimizer subclass that counts a step with a non-finite
    gradient as failed and stamps the end of every step. A non-finite loss
    reaches every gradient through the softmax backward."""
    class CheckedOptimizer(tk.MomentumOptimizer):
        failed_steps = 0

        def step(self):
            run.attempted += 1
            if not all(np.isfinite(p.grad).all() for p in self.params):
                run.failed += 1
                self.failed_steps += 1
            super().step()
            step_times.append(time.perf_counter())

    return CheckedOptimizer


def train_cycle(tk, spec, seed, train, holdout, run, tracer=None):
    """Fresh model, ``fit`` for spec.epochs, then ``evaluate``; returns timings."""
    build = tracer.wrap("model.build", tk.TKFNet) if tracer else tk.TKFNet
    model = build(tk.model_config(spec.model, spec.classes), seed=seed)
    steps = spec.epochs * math.ceil(len(train.samples) / spec.batch)
    schedule = tk.LrSchedule(spec.lr_init, spec.lr_end, steps, spec.power)
    stamps = []
    opt = checked_optimizer(tk, run, stamps)(model.parameters(), schedule, momentum=spec.momentum)
    if tracer:
        tracer.instrument(model)
        tracer.instrument_optimizer(opt)
        tracer.begin("train")
    size = (spec.input_size, spec.input_size)
    epoch_failures = []

    def progress(record):
        epoch_failures.append((record.mean_loss, opt.failed_steps))

    t_fit = time.perf_counter()
    records = tk.fit(model, train, opt, epochs=spec.epochs, batch_size=spec.batch,
                     seed=seed, input_size=size, progress=progress)
    fit_s = time.perf_counter() - t_fit
    # An epoch with a non-finite mean loss must contain a step counted failed.
    before = 0
    for loss, failed_so_far in epoch_failures:
        if not math.isfinite(loss) and failed_so_far == before:
            run.wrong("non-finite epoch loss without a failed step")
        before = failed_so_far

    if tracer:
        tracer.end()
        tracer.eval_mode = True
        tracer.begin("eval")
    run.attempted += 1
    accuracy = None
    t0 = time.perf_counter()
    try:
        metrics = tk.evaluate(model, holdout, input_size=size)
    except Exception as exc:  # an eval that raises is a counted failure
        run.failed += 1
        run.notes.append(f"evaluate raised {exc!r}")
        eval_s = None
    else:
        eval_s = time.perf_counter() - t0
        if int(metrics.confusion.sum()) != len(holdout.samples):
            run.failed += 1
            run.notes.append("confusion total differs from the sample count")
        accuracy = metrics.accuracy
    if tracer:
        tracer.end()
        tracer.eval_mode = False
    return {
        "fit_s": fit_s,
        "samples": spec.epochs * len(train.samples),
        "step_s": [b - a for a, b in zip([t_fit] + stamps, stamps)],
        "eval_s": eval_s,
        "eval_samples": len(holdout.samples),
        "loss_last": records[-1].mean_loss,
        "accuracy": accuracy,
    }


def run_train(spec, seed, seconds, run, tracer=None):
    """Warm up, then repeat train cycles for about ``seconds``.

    With a tracer, every second cycle runs with the wrappers installed, so
    traced and untraced cycles see the same machine conditions.
    """
    tk = import_package()
    train, holdout = train_data(spec, seed)
    cycles = []
    min_cycles = 2 if tracer else 1
    with np.errstate(all="ignore"):
        train_cycle(tk, replace(spec, epochs=1), seed, train, holdout, Run())
        t_start = time.perf_counter()
        while len(cycles) < min_cycles or time.perf_counter() - t_start + cycles[-1]["wall"] <= seconds:
            traced = tracer is not None and len(cycles) % 2 == 1
            t0 = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                cycle = train_cycle(tk, spec, seed, train, holdout, run, tracer if traced else None)
            cycle["wall"] = time.perf_counter() - t0
            cycle["traced"] = traced
            cycles.append(cycle)
    losses = {repr(c["loss_last"]) for c in cycles}
    if len(losses) > 1:
        run.wrong(f"train_loss_last differs between identical cycles: {sorted(losses)}")
    return cycles


def train_summary(cycles):
    cycles = [c for c in cycles if not c["traced"]]
    steps = [s for c in cycles for s in c["step_s"]]
    evals = [c for c in cycles if c["eval_s"]]
    accuracy = [c["accuracy"] for c in cycles if c["accuracy"] is not None]
    return {
        "samples_per_s": (sum(c["samples"] for c in cycles) / sum(c["fit_s"] for c in cycles),
                          "samples/s", sum(c["samples"] for c in cycles)),
        "p50_ms": (1000 * statistics.median(steps), "ms", len(steps)),
        "p90_ms": (1000 * p90(steps), "ms", len(steps)),
        "eval_samples_per_s": (sum(c["eval_samples"] for c in evals) / sum(c["eval_s"] for c in evals)
                               if evals else float("nan"), "samples/s", sum(c["eval_samples"] for c in evals)),
        "train_loss_last": (cycles[-1]["loss_last"], "nats", len(cycles)),
        "eval_accuracy": (accuracy[-1] if accuracy else float("nan"), "fraction", len(accuracy)),
    }


def train_overhead(cycles):
    """Traced over untraced fit time per sample, minus 1."""
    per_sample = {flag: sum(c["fit_s"] for c in cycles if c["traced"] == flag)
                  / sum(c["samples"] for c in cycles if c["traced"] == flag)
                  for flag in (False, True)}
    return per_sample[True] / per_sample[False] - 1


# -- inference -------------------------------------------------------------


def parse_infer(out, names):
    """Problem with one request's stdout, or None when it is well formed."""
    predicted = [line for line in out.splitlines() if line.startswith("predicted ")]
    probs = {}
    for line in out.splitlines():
        if line.startswith("prob "):
            try:
                _, name, value = line.split(" ")
                probs[name] = float(value)
            except ValueError:
                return f"malformed line {line!r}", None
    if len(predicted) != 1:
        return f"{len(predicted)} predicted lines", None
    if sorted(probs) != sorted(names):
        return f"probabilities for {sorted(probs)}, expected {sorted(names)}", None
    if abs(sum(probs.values()) - 1.0) > 1e-6:
        return f"probabilities sum to {sum(probs.values())!r}", None
    return None, (predicted[0].split(" ", 1)[1], probs)


def infer_request(main, weights, image):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = main(["infer", str(weights), str(image)])
        elapsed = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), elapsed


def reference_probs(tk, spec, weights, image):
    """In-process forward of the same weights and image, as float64 softmax."""
    from tkfnet.data import load_image, preprocess

    model = tk.TKFNet(tk.model_config(spec.model, spec.classes))
    model.load_state(tk.read_weights(weights))
    x = preprocess(load_image(image), (spec.input_size, spec.input_size))
    raw = model(x).data.reshape(-1).astype(np.float64)
    e = np.exp(raw - raw.max())
    return e / e.sum()


def run_infer(spec, seed, seconds, run, workdir, tracer=None):
    """Closed loop of CLI requests for about ``seconds``; returns
    (seconds, traced) per request. With a tracer, every second request runs
    with the wrappers installed."""
    tk = import_package()
    import tkfnet.cli

    weights, names = write_infer_fixtures(spec, seed, workdir)
    requests, outputs = [], []
    index = 0

    def next_image():
        nonlocal index
        path = workdir / f"img{index:05d}.ppm"
        path.write_bytes(ppm_image(seed, index, spec.source))
        index += 1
        return path

    for _ in range(3):  # warm-up, not counted
        infer_request(tkfnet.cli.main, weights, next_image())
    t_start = time.perf_counter()
    while len(requests) < spec.min_requests or time.perf_counter() - t_start < seconds:
        image = next_image()
        traced = tracer is not None and len(requests) % 2 == 1
        if traced:
            with tracer.installed():
                tracer.begin("infer")
                code, out, err, elapsed = infer_request(tracer.wrap("cli", tkfnet.cli.main), weights, image)
                tracer.boundary()
                tracer.end()
        else:
            code, out, err, elapsed = infer_request(tkfnet.cli.main, weights, image)
        run.attempted += 1
        problem = f"exit code {code}: {err.strip()}" if code != 0 else parse_infer(out, names)[0]
        if problem:
            run.failed += 1
            run.notes.append(problem)
        requests.append((elapsed, traced))
        outputs.append((image, out))
    for image, out in outputs[: spec.checked_requests]:
        problem, parsed = parse_infer(out, names)
        if problem:
            continue
        expected = reference_probs(tk, spec, weights, image)
        got = [parsed[1][name] for name in names]
        if max(abs(a - b) for a, b in zip(got, expected)) > 1e-6:
            run.wrong(f"{image.name}: CLI probabilities differ from the in-process forward")
        elif parsed[0] != names[int(expected.argmax())]:
            run.wrong(f"{image.name}: CLI predicted {parsed[0]}")
    return requests


def infer_summary(requests):
    latencies = [t for t, traced in requests if not traced]
    return {
        "samples_per_s": (len(latencies) / sum(latencies), "samples/s", len(latencies)),
        "p50_ms": (1000 * statistics.median(latencies), "ms", len(latencies)),
        "p90_ms": (1000 * p90(latencies), "ms", len(latencies)),
    }


def infer_overhead(requests):
    """Traced over untraced mean request time, minus 1."""
    mean = {flag: statistics.mean(t for t, traced in requests if traced == flag)
            for flag in (False, True)}
    return mean[True] / mean[False] - 1


# -- reporting -------------------------------------------------------------


def machine_facts():
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def code_identity():
    """Git commit when the checkout is a repository, and a hash of src/."""
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "tkfnet").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def measure(args, tracer=None):
    """Run the workload for ``args.seconds``; returns (summary, overhead, Run)."""
    spec = (TOY if args.toy else WORKLOADS)[args.workload]
    run = Run()
    if isinstance(spec, TrainSpec):
        cycles = run_train(spec, args.seed, args.seconds, run, tracer)
        return train_summary(cycles), tracer and train_overhead(cycles), run
    work = ROOT / ".bench_tmp"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        requests = run_infer(spec, args.seed, args.seconds, run, Path(tmp), tracer)
    with contextlib.suppress(OSError):
        work.rmdir()
    return infer_summary(requests), tracer and infer_overhead(requests), run


def run_workload(args):
    import_package()
    print("# machine " + json.dumps(machine_facts()))
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                                 "trace": args.trace, "toy": args.toy, **code_identity()}))
    if args.trace:
        from spans import PER_LAYER, Tracer

        tracer = Tracer()
        _, overhead, run = measure(args, tracer)
        kind = "infer" if args.workload.startswith("infer") else "train"
        metrics = tracer.metrics(kind, overhead)
        for name, unit in PER_LAYER:
            print(f"{name} {metrics[name]['value']:.6g} {unit}")
    else:
        setup = measure_setup(args)
        summary, _, run = measure(args)
        summary["setup_s"] = (statistics.median(setup), "s", len(setup))
        summary["peak_rss_mb"] = (peak_rss_mb(), "MiB", 1)
        for name, (value, unit, count) in summary.items():
            print(f"{name} {value:.6g} {unit} (n={count})")
        metrics = {name: {"value": summary[name][0], "unit": unit} for name, unit in END_TO_END}
    print(f"error_rate {run.failed / run.attempted:.6g} fraction "
          f"(failed={run.failed}, attempted={run.attempted})")
    for note in dict.fromkeys(run.notes):
        print(f"# note: {note}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))


def run_all(args):
    """Every workload, each in a fresh process; ends with one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        print(f"## {name}", flush=True)
        out = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True).stdout
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        setup_once((TOY if args.toy else WORKLOADS)[args.workload], args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
