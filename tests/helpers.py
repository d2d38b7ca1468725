"""Tensor constructors that only the tests need."""

import numpy as np

from tkfnet.tensor import DEFAULT_DTYPE, Tensor


def scalar_tensor(value, dtype=DEFAULT_DTYPE):
    """Wrap a python number as a (1, 1, 1, 1) tensor."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype))


def channel_vector(values, dtype=DEFAULT_DTYPE):
    """Wrap a 1-D sequence as a (1, 1, 1, c) tensor."""
    return Tensor(np.asarray(values, dtype=dtype).reshape(1, 1, 1, -1))
