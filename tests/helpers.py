"""Tensor constructors and a gradient fault that only the tests need."""

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
