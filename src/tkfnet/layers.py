"""Named parameter bundles shared by the network blocks."""

import math

import numpy as np

from .tensor import Parameter, conv2d, linear


def he_normal(rng, shape, fan_in, dtype):
    """Fan-in scaled Gaussian draw, std = sqrt(2 / fan_in).

    With ``rng`` None the array is left uninitialized, for a model whose
    every parameter is about to be loaded.
    """
    if rng is None:
        return np.empty(shape, dtype=dtype)
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape).astype(dtype)


class Conv:
    """A convolution's weight and bias, named for serialization."""

    def __init__(self, name, kh, kw, cin, cout, rng, dtype=np.float32):
        weight = he_normal(rng, (kh, kw, cin, cout), kh * kw * cin, dtype)
        self.weight = Parameter(f"{name}.weight", weight)
        self.bias = Parameter(f"{name}.bias", np.zeros((1, 1, 1, cout), dtype=dtype))

    def __call__(self, x, stride=1, padding="same"):
        return conv2d(x, self.weight, self.bias, stride=stride, padding=padding)

    def parameters(self):
        return [self.weight, self.bias]


class Dense:
    """A fully connected layer's weight and bias."""

    def __init__(self, name, cin, cout, rng, dtype=np.float32):
        weight = he_normal(rng, (1, 1, cin, cout), cin, dtype)
        self.weight = Parameter(f"{name}.weight", weight)
        self.bias = Parameter(f"{name}.bias", np.zeros((1, 1, 1, cout), dtype=dtype))

    def __call__(self, x):
        return linear(x, self.weight, self.bias)

    def parameters(self):
        return [self.weight, self.bias]
