"""Tensor constructors, a gradient fault and a memory probe that only the
tests need."""

import tracemalloc

import numpy as np

import tkfnet.tensor
from tkfnet.tensor import DEFAULT_DTYPE, Tensor


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
                        lambda slot, grad, owned=False: accum(slot, grad * factor, owned))


def traced_peak(fn):
    """Bytes that ``fn()`` holds at its peak beyond what was live before it,
    as tracemalloc counts numpy's buffers."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
