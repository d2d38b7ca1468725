"""The per-thread scratch pool that convolutions use while no Tape is active."""

import threading

import numpy as np
import pytest

from helpers import empty_pool
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import _POOL, Tape, Tensor, softmax_cross_entropy


def images(n, size, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.uniform(-1, 1, size=(n, size, size, 3)).astype(dtype))


def taped_forward(model, x):
    """Logits from a taped forward, whose buffers are allocated afresh."""
    with Tape():
        return model(x).data


@pytest.fixture(scope="module")
def small():
    return TKFNet(model_config("small", 7), seed=0)


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


def test_pooled_forwards_match_fresh_buffers_across_sizes_and_dtypes():
    # Each untaped forward runs on what the one before left in the pool: a
    # larger input's interior where a smaller one's zero border goes, and
    # float32 bits under a float64 view. A second pass first fills the pool
    # with 0xff bytes, NaN in either dtype.
    base32 = TKFNet(model_config("base", 7), seed=0)
    base64 = TKFNet(model_config("base", 7), seed=0, dtype=np.float64)
    runs = [(base32, images(1, 224, seed=3)), (base32, images(2, 32, seed=4)),
            (base32, images(1, 224, seed=5)), (base64, images(2, 32, seed=6, dtype=np.float64))]
    expected = [taped_forward(model, x) for model, x in runs]
    for poison in (False, True):
        for (model, x), want in zip(runs, expected):
            if poison:
                for raw in vars(_POOL).values():
                    raw.fill(0xFF)
            assert model(x).data.tobytes() == want.tobytes()


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
