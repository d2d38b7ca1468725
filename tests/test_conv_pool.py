"""The per-thread scratch pool of untaped convolution forwards."""

import threading

import numpy as np
import pytest

from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import _POOL, Tape, Tensor


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
    with Tape():
        pass
    small(x)
    first = dict(vars(_POOL))
    assert set(first) == {"patch", "pad"}
    small(x)
    assert all(vars(_POOL)[role] is raw for role, raw in first.items())


def test_entering_a_tape_empties_the_pool(small):
    small(images(1, 32, seed=2))
    assert vars(_POOL)
    with Tape():
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
