"""Acceptance suite: ten pinned criteria, one pass/fail line each.

Every test prints "[PASS] criterion N" or "[FAIL] criterion N" so the run
log doubles as the acceptance report (use ``pytest -s tests/test_acceptance.py``
to see the lines as they happen).
"""

import math
import time

import numpy as np
import pytest

from helpers import scalar_tensor
from tkfnet.cli import main as cli_main
from tkfnet.data import synth_dataset
from tkfnet.gradcheck import check_module, per_op_sweep
from tkfnet.model import TKFNet, model_config
from tkfnet.tafe import TAFE
from tkfnet.dcif import DCIF
from tkfnet.tensor import (
    Tape,
    Tensor,
    add,
    global_pool,
    hadamard,
    softmax_cross_entropy,
    spatial_moments,
)
from tkfnet.train import (
    LrSchedule,
    MomentumOptimizer,
    evaluate,
    train_epoch,
)


def report(number, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] criterion {number}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def test_criterion_1_per_op_gradient_oracle():
    # Central differences at eps 1e-3, 100 seeds per op, small tensors.
    start = time.perf_counter()
    results = per_op_sweep(seeds=100)
    elapsed = time.perf_counter() - start
    worst_op = max(results, key=results.get)
    worst = results[worst_op]
    report(
        1,
        worst <= 1e-3 and elapsed < 60.0,
        f"{len(results)} op cases x 100 seeds, worst {worst_op} {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_full_model_gradient_oracle():
    # 50 sampled parameter coordinates on the small model at 16x16x3,
    # always including the two descriptor fusion scalars, at eps 1e-5.
    start = time.perf_counter()
    err = check_module("full-model", seed=0)
    elapsed = time.perf_counter() - start
    report(2, err <= 1e-2 and elapsed < 300.0, f"max rel err {err:.2e}, {elapsed:.1f}s")


def test_criterion_3_hand_example_fidelity():
    # Descriptor: mean 2.5, variance 1.25, fused 2 * 2.5 + 4 * 1.25 = 10.
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
    mean, var = spatial_moments(x)
    fused = add(
        hadamard(mean, scalar_tensor(2.0, np.float64)),
        hadamard(var, scalar_tensor(4.0, np.float64)),
    )
    ok = (
        abs(mean.item() - 2.5) <= 1e-6
        and abs(var.item() - 1.25) <= 1e-6
        and abs(fused.item() - 10.0) <= 1e-6
    )

    # Context bottleneck: avg 2.5 -> x2 -> relu -> x3 gives 15.
    dcif = DCIF(1, 2, np.random.default_rng(0), reduction=1)
    dcif.fc1.weight.data[:] = 2.0
    dcif.fc1.bias.data[:] = 0.0
    dcif.fc2.weight.data[:] = 3.0
    dcif.fc2.bias.data[:] = 0.0
    gated = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 2, 2, 1))
    ok = ok and abs(dcif.encode(gated).item() - 15.0) <= 1e-6

    # Schedule midpoint: 0.01 + 0.09 * sqrt(0.5).
    mid = LrSchedule(0.1, 0.01, 1000, power=0.5).at(500)
    ok = ok and abs(mid - 0.07363961030678928) <= 1e-6
    report(3, ok, f"descriptor 10, context 15, lr mid {mid:.6f}")


def test_criterion_4_overfit_small_corpus():
    # 7 classes x 5 samples at 32x32, batch 8, lr 0.01 -> 0.001, power 0.5.
    # The bar is 100% training accuracy within 300 epochs; the epoch where
    # it lands depends on the seeds.
    start = time.perf_counter()
    data = synth_dataset(classes=7, per_class=5, size=(32, 32), seed=0)
    model = TKFNet(model_config("small", 7), seed=0)
    steps_per_epoch = math.ceil(len(data.samples) / 8)
    schedule = LrSchedule(0.01, 0.001, 300 * steps_per_epoch, power=0.5)
    optimizer = MomentumOptimizer(model.parameters(), schedule, momentum=0.9)

    reached = None
    for epoch in range(300):
        train_epoch(model, data, optimizer, batch_size=8, seed=0, epoch=epoch)
        if evaluate(model, data).accuracy == 1.0:
            reached = epoch
            break
    elapsed = time.perf_counter() - start
    report(
        4,
        reached is not None and elapsed < 600.0,
        f"100% at epoch {reached}, {elapsed:.1f}s",
    )


def test_criterion_5_generalization_smoke(tmp_path):
    # Train on 7x100 (seed 0), evaluate on held-out 7x20 (seed 1), both
    # through the command-line entry point so the confusion matrix is the
    # emitted artifact.
    config = tmp_path / "train.cfg"
    config.write_text(
        "model = small\n"
        "data = synth:7x100x32\n"
        "input_size = 32\n"
        "epochs = 60\n"
        "batch_size = 32\n"
        "lr_init = 0.01\n"
        "lr_end = 0.001\n"
    )
    run = tmp_path / "run"
    code = cli_main(["train", "--config", str(config), "--out", str(run), "--seed", "0"])
    assert code == 0

    eval_out = tmp_path / "eval"
    code = cli_main([
        "eval", str(run / "weights.tkfw"),
        "--data", "synth:7x20x32", "--seed", "1", "--out", str(eval_out),
    ])
    assert code == 0

    final = dict(
        line.split("=", 1)
        for line in (eval_out / "final.txt").read_text().splitlines()
    )
    accuracy = float(final["accuracy"])

    rows = (eval_out / "confusion.csv").read_text().splitlines()
    counts = [[int(v) for v in row.split(",")[1:]] for row in rows[1:]]
    row_sums = [sum(row) for row in counts]
    report(
        5,
        accuracy >= 0.90 and row_sums == [20] * 7,
        f"test accuracy {accuracy:.3f}, row sums {sorted(set(row_sums))}",
    )


def test_criterion_6_schedule_endpoints_and_monotonicity():
    schedule = LrSchedule(0.1, 0.01, 12_345, power=0.5)
    exact = schedule.at(0) == 0.1 and schedule.at(12_345) == 0.01
    steps = np.linspace(0, 12_345, 10_000)
    values = [schedule.at(s) for s in steps]
    monotone = all(a >= b for a, b in zip(values, values[1:]))
    report(6, exact and monotone, "endpoints exact, 10000 samples non-increasing")


def test_criterion_7_loss_oracle():
    logits = Tensor(np.zeros((4, 1, 1, 7), dtype=np.float32), requires_grad=True)
    labels = np.array([0, 2, 5, 6])
    with Tape() as tape:
        loss = softmax_cross_entropy(logits, labels)
        tape.backward(loss)
    value_ok = abs(loss.item() - math.log(7.0)) <= 1e-6

    onehot = np.eye(7, dtype=np.float64)[labels].reshape(4, 1, 1, 7)
    closed_form = (np.full((4, 1, 1, 7), 1.0 / 7.0) - onehot) / 4.0
    grad_ok = np.abs(logits.grad - closed_form).max() <= 1e-6
    report(7, value_ok and grad_ok, f"loss {loss.item():.12f} vs ln 7")


def test_criterion_8_shape_contract():
    model = TKFNet(model_config("base", 7), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(size=(1, 224, 224, 3)).astype(np.float32))
    logits = model(x)
    logits_ok = logits.shape == (1, 1, 1, 7)

    widths_ok = True
    for c in (4, 16):
        tafe = TAFE(c, np.random.default_rng(c))
        y = tafe(Tensor(np.random.default_rng(1).uniform(size=(1, 4, 4, c)).astype(np.float32)))
        widths_ok = widths_ok and y.shape[3] == 2 * c
    report(8, logits_ok and widths_ok, f"base 224 -> {logits.shape[3]} logits, tafe doubles width")


def test_criterion_9_training_determinism(tmp_path):
    config = tmp_path / "train.cfg"
    config.write_text(
        "model = small\n"
        "data = synth:3x4x16\n"
        "input_size = 16\n"
        "epochs = 3\n"
        "batch_size = 4\n"
        "lr_init = 0.01\n"
        "lr_end = 0.001\n"
    )
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(["train", "--config", str(config), "--out", str(out), "--seed", "7"])
        assert code == 0
        outs.append(out)
    metrics_same = (outs[0] / "metrics.tsv").read_bytes() == (outs[1] / "metrics.tsv").read_bytes()
    weights_same = (outs[0] / "weights.tkfw").read_bytes() == (outs[1] / "weights.tkfw").read_bytes()
    report(9, metrics_same and weights_same, "metrics.tsv and weights.tkfw byte-identical")


def test_criterion_10_attention_invariants():
    # (a) Every gate element strictly inside (0, 1) over 1,000 random inputs
    # spanning small to large magnitudes.
    dcif = DCIF(8, 7, np.random.default_rng(0), reduction=4)
    rng = np.random.default_rng(1)
    inside = True
    for magnitude in (0.01, 1.0, 10.0, 100.0):
        x = Tensor((magnitude * rng.normal(size=(250, 4, 4, 8))).astype(np.float32))
        _, gate = dcif.attention(x)
        inside = inside and bool(np.all(gate.data > 0.0) and np.all(gate.data < 1.0))

    # (b) Constant inputs make the average and maximum pooling summaries
    # bit-identical.
    const = Tensor(np.full((1, 5, 5, 8), 0.7, dtype=np.float32))
    avg = global_pool("avg", const)
    mx = global_pool("max", const)
    pools_identical = avg.data.tobytes() == mx.data.tobytes()

    # (c) Spatially permuting the texture branch leaves its descriptor
    # unchanged, bit for bit.
    tafe = TAFE(4, np.random.default_rng(2))
    vals = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
    perm = rng.permutation(36)
    shuffled = vals.reshape(1, 36, 4)[:, perm, :].reshape(1, 6, 6, 4)
    d1 = tafe.descriptor(Tensor(vals))
    d2 = tafe.descriptor(Tensor(shuffled))
    descriptor_stable = (
        d1.fused.data.tobytes() == d2.fused.data.tobytes()
        and d1.mean.data.tobytes() == d2.mean.data.tobytes()
        and d1.var.data.tobytes() == d2.var.data.tobytes()
    )
    report(
        10,
        inside and pools_identical and descriptor_stable,
        "1000 gates in (0,1), constant pools identical, descriptor permutation-stable",
    )
