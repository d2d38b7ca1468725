"""Two-shard training steps: when a batch shards, what a sharded step
computes, that it fails, warns and restores OpenBLAS as the unsharded step
does, and that a sharded epoch hands the heap its shards freed back."""

import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from tkfnet import train
from tkfnet.cli import main as cli_main
from tkfnet.data import Dataset, Sample, synth_dataset
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import Tensor
from tkfnet.train import LrSchedule, MomentumOptimizer, train_epoch

needs_blas_setter = pytest.mark.skipif(
    train._BLAS_THREADS is None, reason="numpy's BLAS exports no OpenBLAS thread setter")


def base224_batch(n=8):
    data = synth_dataset(classes=7, per_class=2, size=(48, 48), seed=0)
    return train._batch_arrays(data.samples[:n], (224, 224))


def take_grads(model):
    grads = [p.grad for p in model.parameters()]
    for p in model.parameters():
        p.grad = None
    return grads


def unsharded(monkeypatch):
    monkeypatch.setattr(train, "_SHARD_FLOOR", float("inf"))


@pytest.fixture
def two_blas_threads():
    """OpenBLAS's thread getter, with the count set to 2 for the test, so
    that a count left at 1 shows."""
    get, set_ = train._BLAS_THREADS
    before = get()
    set_(2)
    if get() != 2:
        set_(before)
        pytest.skip("OpenBLAS runs at most one thread here")
    yield get
    set_(before)


def test_batches_shard_above_the_floor_and_with_a_blas_setter(monkeypatch):
    def shards(name, n, side):
        return train._shards(models[name], Tensor(np.zeros((n, side, side, 3), np.float32)))

    models = {name: TKFNet(model_config(name), seed=0) for name in ("base", "small")}
    monkeypatch.setattr(train, "_BLAS_THREADS", (lambda: 2, lambda count: None))
    # base@224 batch 8 shards, as do batches 5 and 4; below 4 a shard holds
    # no tape of 2. small@32 never shards, at criterion 5's batch 32 or more.
    assert [shards("base", n, 224) for n in (8, 5, 4, 3, 2, 1)] == [True] * 3 + [False] * 3
    assert not any(shards("small", n, 32) for n in (32, 128, 256, 512))
    # The stem makes 409,600 elements for a tape of two base@160 samples and
    # 331,776 for one of base@144. small, a quarter as wide, makes 200,704 at
    # 224 px and 409,600 at 320.
    assert [shards("base", 4, side) for side in (160, 144)] == [True, False]
    assert [shards("small", 8, side) for side in (320, 312, 224)] == [True, False, False]
    monkeypatch.setattr(train, "_BLAS_THREADS", None)
    assert not shards("base", 8, 224)


def in_turn(model, replica, x, y, shards):
    """The sharded step's gradients and loss, made in the calling thread with
    one BLAS thread: ``shards`` lists each shard's tapes as (start, stop)."""
    losses, weights = [], []
    with train._one_blas_thread():
        for step_model, tapes in zip((model, replica), shards):
            losses.append(sum(train._taped_step(step_model, Tensor(x.data[a:b]), y[a:b]) for a, b in tapes))
            weights.append((tapes[0][1] - tapes[0][0]) / len(y))
    grads = [weights[0] * g0 + weights[1] * g1 + 0.0
             for g0, g1 in zip(take_grads(model), take_grads(replica))]
    return grads, weights[0] * losses[0] + weights[1] * losses[1]


def sharded(model, x, y):
    replica = train._replica(model)
    assert all(r.data is p.data and r._slot is not p._slot
               for p, r in zip(model.parameters(), replica.parameters()))
    with ThreadPoolExecutor(1) as pool:
        loss = train._sharded_step(model, replica, pool, x, y)
    assert all(r.grad is None for r in replica.parameters())
    return take_grads(model), loss, replica


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@needs_blas_setter
def test_sharded_step_has_the_bits_of_its_shards_stepped_in_turn():
    # Batch 8: two shards of 4, each stepped as two tapes of 2 samples.
    x, y = base224_batch()
    model = TKFNet(model_config("base"), seed=0)
    grads, loss, replica = sharded(model, x, y)
    want, want_loss = in_turn(model, replica, x, y, [[(0, 2), (2, 4)], [(4, 6), (6, 8)]])
    assert loss == want_loss
    assert_same_bits(grads, want)


@needs_blas_setter
def test_an_odd_shard_steps_one_sample_per_tape_and_keeps_the_batch_mean():
    # Batch 7: shard 0 holds 4 samples in tapes of 2, shard 1 holds 3 in
    # tapes of 1. Each tape weighs its samples' share, so the step is the
    # batch mean up to float32 rounding.
    data = synth_dataset(classes=3, per_class=3, size=(16, 16), seed=0)
    x, y = train._batch_arrays(data.samples[:7], None)
    model = TKFNet(model_config("small", 3), seed=0)
    grads, loss, replica = sharded(model, x, y)
    want, want_loss = in_turn(model, replica, x, y, [[(0, 2), (2, 4)], [(4, 5), (5, 6), (6, 7)]])
    assert loss == want_loss
    assert_same_bits(grads, want)
    mean_loss = train._taped_step(model, x, y)
    assert loss == pytest.approx(mean_loss, rel=1e-6)
    for g, m in zip(grads, take_grads(model)):
        np.testing.assert_allclose(g, m, rtol=1e-4, atol=1e-6 * np.abs(m).max())


def test_criterion_5_config_keeps_the_bits_of_the_single_tape_step(tmp_path, monkeypatch):
    # Criterion 5's setting, 2 of its 60 epochs: small@32 at batch 32 stays
    # below the shard floor.
    config = tmp_path / "train.cfg"
    config.write_text("model = small\ndata = synth:7x100x32\ninput_size = 32\nepochs = 2\n"
                      "batch_size = 32\nlr_init = 0.01\nlr_end = 0.001\n")
    weights = []
    for name in ("default", "unsharded"):
        if name == "unsharded":
            unsharded(monkeypatch)
        out = tmp_path / name
        assert cli_main(["train", "--config", str(config), "--out", str(out), "--seed", "0"]) == 0
        weights.append((out / "weights.tkfw").read_bytes())
    assert weights[0] == weights[1]


@needs_blas_setter
def test_sharded_float32_gradients_stay_near_the_float64_step():
    # Every conv_b drawn at std 0.05, so each residual branch is live. The
    # bound was fixed before this test ran: 1e-3, four times the 2.4e-4 that
    # the unsharded float32 step reads here.
    model = TKFNet(model_config("base"), seed=0)
    rng = np.random.default_rng(5)
    for p in model.parameters():
        if p.name.endswith(".conv_b.weight"):
            p.data[:] = rng.normal(0.0, 0.05, size=p.shape)
    shadow = TKFNet(model.config, dtype=np.float64, state=model.state_arrays())
    x, y = base224_batch()
    train._taped_step(shadow, Tensor(x.data.astype(np.float64)), y)
    with ThreadPoolExecutor(1) as pool:
        train._sharded_step(model, train._replica(model), pool, x, y)
    errors = {p.name: np.abs(g - s.grad).max() / np.abs(s.grad).max()
              for p, g, s in zip(model.parameters(), take_grads(model), shadow.parameters())}
    worst = max(errors, key=errors.get)
    assert errors[worst] <= 1e-3, (worst, errors[worst])


def base224_epoch(labels, n=8):
    data = synth_dataset(classes=7, per_class=2, size=(48, 48), seed=0)
    dataset = Dataset([Sample(s.image, label) for s, label in zip(data.samples, labels)],
                      data.class_names)
    model = TKFNet(model_config("base"), seed=0)
    optimizer = MomentumOptimizer(model.parameters(), LrSchedule(0.01, 0.01, 1))
    return model, lambda: train_epoch(model, dataset, optimizer, n, seed=0, epoch=0,
                                      input_size=(224, 224))


@needs_blas_setter
def test_shards_run_on_two_threads_with_one_blas_thread_then_restore_it(monkeypatch, two_blas_threads):
    get = two_blas_threads
    seen = []
    step = train._taped_step

    def spy(model, x, y):
        seen.append((threading.get_ident(), get(), len(y)))
        return step(model, x, y)

    monkeypatch.setattr(train, "_taped_step", spy)
    _, run = base224_epoch([0] * 8)
    assert np.isfinite(run())
    assert [count for _, count, _ in seen] == [1] * 4
    assert sorted(Counter(thread for thread, _, _ in seen).values()) == [2, 2]
    assert [n for _, _, n in seen] == [2] * 4
    assert get() == 2


@needs_blas_setter
@pytest.mark.parametrize("bad", [(7,), (2, 6)], ids=["shard1", "both"])
def test_a_failing_shard_raises_as_the_unsharded_step_does(monkeypatch, two_blas_threads, bad):
    # Labels 7, 8, ... at these places of the epoch's visiting order: the
    # last place is in shard 1, which runs in the helper thread. When both
    # shards fail, shard 0's error is the one the unsharded step raises.
    order = np.random.default_rng([0, 0]).permutation(8)
    labels = [0] * 8
    for k, place in enumerate(bad):
        labels[order[place]] = 7 + k
    errors = []
    for name in ("sharded", "unsharded"):
        if name == "unsharded":
            unsharded(monkeypatch)
        _, run = base224_epoch(labels)
        with pytest.raises(ValueError) as info:
            run()
        errors.append((type(info.value), str(info.value)))
        assert two_blas_threads() == 2
    assert errors[0] == errors[1] == (ValueError, "label 7 is outside [0, 7)")


@needs_blas_setter
def test_an_overflowing_sharded_epoch_warns_in_neither_thread():
    # A new thread starts at numpy's default error state; shard 1 must run
    # under the caller's np.errstate.
    model, run = base224_epoch([0] * 8)
    for p in model.parameters():
        p.data[:] = 1e20
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            loss = run()
    assert not np.isfinite(loss)


# One sharded base@224 epoch in a fresh process, with or without the release
# of the freed heap; prints VmRSS in KiB after the epoch.
EPOCH_RSS = """
import sys
from tkfnet import train
from tkfnet.data import synth_dataset
from tkfnet.model import TKFNet, model_config
from tkfnet.train import LrSchedule, MomentumOptimizer, train_epoch

if sys.argv[1] == "keep":
    train._GLIBC = None
data = synth_dataset(classes=2, per_class=8, size=(48, 48), seed=0)
model = TKFNet(model_config("base", 2), seed=0)
optimizer = MomentumOptimizer(model.parameters(), LrSchedule(0.01, 0.01, 2))
train_epoch(model, data, optimizer, 8, seed=0, epoch=0, input_size=(224, 224))
with open("/proc/self/status") as f:
    print(next(line.split()[1] for line in f if line.startswith("VmRSS:")))
"""


@needs_blas_setter
@pytest.mark.skipif(train._GLIBC is None, reason="the release needs glibc")
@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="no /proc/self/status")
def test_a_sharded_epoch_returns_the_heap_its_shards_freed():
    # The margin was fixed before this test first ran: 10 MiB, against 50-52
    # MiB with the release and 70-99 MiB without on a 2-CPU Linux host.
    src = str(Path(train.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    rss = {}
    for mode in ("release", "keep"):
        result = subprocess.run([sys.executable, "-c", EPOCH_RSS, mode], env=env, capture_output=True,
                                text=True, timeout=120, check=True)
        rss[mode] = int(result.stdout) / 1024
    assert rss["release"] + 10 <= rss["keep"], rss
