"""The per-thread scratch pool that convolutions use while no Tape is active."""

import threading

import numpy as np
import pytest

from helpers import empty_pool, pool_bytes
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import (
    _POOL,
    Tape,
    Tensor,
    _gemm_row_blocks,
    _sample_blocks,
    conv2d,
    softmax_cross_entropy,
)


def images(n, size, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, size=(n, size, size, 3)).astype(dtype))


def taped_forward(model, x):
    """Logits from a taped forward, whose buffers are allocated afresh."""
    with Tape():
        return model(x).data


def strided_pointwise(dtype):
    """A 1x1 conv at stride 2, as a residual block's projection shortcut."""
    rng = np.random.default_rng(12)
    weight = Tensor(rng.normal(size=(1, 1, 32, 16)).astype(dtype))
    bias = Tensor(rng.normal(size=(1, 1, 1, 16)).astype(dtype))
    return lambda x: conv2d(x, weight, bias, stride=2)


def maps(n, size, seed, dtype=np.float32):
    return Tensor(np.random.default_rng(seed).normal(size=(n, size, size, 32)).astype(dtype))


@pytest.fixture(scope="module")
def small():
    return TKFNet(model_config("small", 7), seed=0)


@pytest.fixture(scope="module")
def base():
    return TKFNet(model_config("base", 7), seed=0)


def test_second_untaped_forward_reuses_the_buffers(small):
    x = images(2, 32, seed=1)
    empty_pool()
    small(x)
    first = dict(vars(_POOL))
    assert set(first) == {"patch", "pad"}
    small(x)
    assert all(vars(_POOL)[role] is raw for role, raw in first.items())


def test_a_conv_inside_a_tape_takes_fresh_buffers_and_leaves_the_pool_empty(small):
    small(images(1, 32, seed=2))
    pooled = dict(vars(_POOL))
    assert set(pooled) == {"patch", "pad"}
    with Tape():
        # Entering the tape leaves the pool alone. The first conv empties it,
        # and a conv that took a pooled buffer would leave it in the pool.
        assert all(vars(_POOL)[role] is raw for role, raw in pooled.items())
        small(images(1, 32, seed=2))
        assert not vars(_POOL)


def test_pooled_forwards_match_fresh_buffers_across_sizes_and_dtypes(base):
    # Each untaped forward runs on what the one before left in the pool: a
    # larger input's interior where a smaller one's zero border goes, and
    # float32 bits under a float64 view. A second pass first fills the pool
    # with 0xff bytes, NaN in either dtype. At 224 px base's stage-0 3x3
    # convs (56x56 outputs, 288 columns) run GEMM blocks that start part-way
    # through an output row. At 128 px (32x32 outputs) one sample block holds
    # all 3 samples, and its GEMM blocks cross from one sample into the next.
    # A strided 1x1 conv reads its rows straight from the input.
    assert [a for a, _ in _gemm_row_blocks(56 * 56, 288, 32)] == [0, 910, 1820]
    assert _sample_blocks(3, 32 * 32 * 288) == [(0, 3)]
    assert [a for a, _ in _gemm_row_blocks(3 * 32 * 32, 288, 32)] == [0, 910, 1820]
    base64 = TKFNet(model_config("base", 7), seed=0, dtype=np.float64)
    runs = [(base, images(1, 224, seed=3)), (base, images(2, 32, seed=4)),
            (base, images(1, 224, seed=5)), (base64, images(2, 32, seed=6, dtype=np.float64)),
            (base, images(3, 128, seed=13)), (base64, images(3, 128, seed=14, dtype=np.float64)),
            (strided_pointwise(np.float32), maps(3, 15, seed=15)),
            (strided_pointwise(np.float64), maps(3, 16, seed=16, dtype=np.float64))]
    expected = [taped_forward(model, x) for model, x in runs]
    for poison in (False, True):
        for (model, x), want in zip(runs, expected):
            if poison:
                for raw in vars(_POOL).values():
                    raw.fill(0xFF)
            assert model(x).data.tobytes() == want.tobytes()


def test_a_strided_pointwise_conv_reads_the_input_without_a_band():
    empty_pool()
    strided_pointwise(np.float32)(maps(3, 15, seed=17))
    assert set(vars(_POOL)) == {"patch"}


@pytest.mark.parametrize("n, size", [(1, 224), (8, 224), (1, 448)])
def test_an_untaped_forward_pools_one_gemm_block_and_one_band(base, n, size):
    # The pool holds one GEMM block's patch rows and one zero-padded band,
    # whatever the batch or image size: at base@224 batch 1 stage 1's 784 x
    # 576 block, 1.7 MiB, and a band of 0.7 MiB. A sample block's whole patch
    # matrix and padded copy held 5.0, 11.8 and 20.0 MiB.
    empty_pool()
    base(images(n, size, seed=18))
    assert pool_bytes() <= 3 * 2**20


def test_threads_running_untaped_forwards_keep_their_own_buffers(small):
    inputs = [images(4, 64, seed=7), images(3, 96, seed=8)]
    expected = [small(x).data for x in inputs]
    results = [[], []]
    start = threading.Barrier(2)

    def work(k):
        start.wait()
        for _ in range(16):
            results[k].append(small(inputs[k]).data)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for want, got in zip(expected, results):
        assert len(got) == 16
        assert all(g.tobytes() == want.tobytes() for g in got)


def test_a_tape_open_on_another_thread_leaves_this_threads_forwards_alone(small):
    # Another thread sits inside ``with Tape()`` while this one runs untaped
    # forwards: they record nothing onto that tape and reuse this thread's
    # pooled buffers.
    entered, release = threading.Event(), threading.Event()
    tapes = []

    def hold():
        with Tape() as tape:
            tapes.append(tape)
            entered.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert entered.wait(timeout=60)
        x = images(1, 32, seed=11)
        empty_pool()
        small(x)
        pooled = dict(vars(_POOL))
        small(x)
    finally:
        release.set()
        holder.join()
    assert [node.op for node in tapes[0].nodes] == []
    assert set(pooled) == {"patch", "pad"}
    assert all(vars(_POOL)[role] is raw for role, raw in pooled.items())


def test_backward_after_its_tape_matches_one_inside_over_a_poisoned_pool(small):
    # A backward replayed after its ``with`` block pads its convs' inputs in
    # the pooled buffer, here one that a larger untaped forward grew and
    # that is then filled with 0xff bytes, NaN as float32.
    x, labels = images(2, 32, seed=9), np.array([1, 5])
    grads = []
    for inside in (True, False):
        with Tape() as tape:
            loss = softmax_cross_entropy(small(x), labels)
            if inside:
                tape.backward(loss)
        if not inside:
            small(images(4, 64, seed=10))
            pad = _POOL.pad
            pad.fill(0xFF)
            tape.backward(loss)
            assert _POOL.pad is pad
        grads.append([p.grad.tobytes() for p in small.parameters()])
        for p in small.parameters():
            p.grad = None
    assert grads[0] == grads[1]
