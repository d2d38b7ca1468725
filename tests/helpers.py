"""Tensor constructors, a gradient fault, memory probes, a step digest and a
model step's node names that only the tests need."""

import hashlib
import tracemalloc

import numpy as np

import tkfnet.tensor
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import DEFAULT_DTYPE, Tape, Tensor, softmax_cross_entropy


def scalar_tensor(value, dtype=DEFAULT_DTYPE):
    """Wrap a python number as a (1, 1, 1, 1) tensor."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype))


def channel_vector(values, dtype=DEFAULT_DTYPE):
    """Wrap a 1-D sequence as a (1, 1, 1, c) tensor."""
    return Tensor(np.asarray(values, dtype=dtype).reshape(1, 1, 1, -1))


def scale_gradients(monkeypatch, factor):
    """Make every gradient a backward writes ``factor`` times too large.

    Each op's backward looks ``tkfnet.tensor._accum`` up when it runs, so the
    wrapper reaches every write: a wrong backward for the negative controls.
    """
    accum = tkfnet.tensor._accum
    monkeypatch.setattr(tkfnet.tensor, "_accum",
                        lambda slot, grad, **kw: accum(slot, grad * factor, **kw))


def empty_pool():
    """Unmap the calling thread's conv scratch pool."""
    vars(tkfnet.tensor._POOL).clear()


def pool_bytes():
    """Bytes of the calling thread's conv scratch pool, which lives in
    anonymous mappings that tracemalloc does not see."""
    return sum(raw.nbytes for raw in vars(tkfnet.tensor._POOL).values())


def traced_peak(fn):
    """Bytes that ``fn()`` holds at its peak beyond what was live before it,
    as tracemalloc counts numpy's buffers, plus what the conv scratch pool
    grew by."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pool_before = pool_bytes()
        fn()
        grown = max(0, pool_bytes() - pool_before)
        return tracemalloc.get_traced_memory()[1] - before + grown
    finally:
        if started:
            tracemalloc.stop()


def step_digest(model, x, labels):
    """sha256 of one taped step: the bytes of the cross-entropy loss of
    ``model(x)`` against ``labels``, then of every parameter's gradient in
    ``model.parameters()`` order. The gradients are cleared afterwards."""
    with Tape() as tape:
        loss = softmax_cross_entropy(model(x), labels)
    tape.backward(loss)
    digest = hashlib.sha256(loss.data.tobytes())
    for p in model.parameters():
        digest.update(p.grad.tobytes())
        p.grad = None
    return digest.hexdigest()


def model_step_nodes():
    """The node names that a taped step of the small model records."""
    model = TKFNet(model_config("small", 3), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(-1.0, 1.0, size=(2, 16, 16, 3)).astype(np.float32))
    with Tape() as tape:
        softmax_cross_entropy(model(x), np.array([0, 2]))
    return {node.op for node in tape.nodes}
