"""The network blocks' base class and their shared convolution layer.

``Module.parameters`` lists the ``Parameter``s a block holds, in the order its
constructor assigned them. That order is the record order of ``weights.tkfw``
and the order the optimizer steps in.
"""

import math

import numpy as np

from .tensor import Parameter, conv2d


def he_normal(rng, shape, fan_in, dtype):
    """Fan-in scaled Gaussian draw, std = sqrt(2 / fan_in).

    With ``rng`` None the array is left uninitialized, for a model whose
    every parameter is about to be loaded.
    """
    if rng is None:
        return np.empty(shape, dtype=dtype)
    return rng.normal(0.0, math.sqrt(2.0 / fan_in), size=shape).astype(dtype)


def _parameters(value):
    if isinstance(value, Parameter):
        return [value]
    if isinstance(value, list):
        return [p for item in value for p in _parameters(item)]
    return value.parameters() if hasattr(value, "parameters") else []


class Module:
    """A network block whose attributes hold its parameters and sub-blocks."""

    def parameters(self):
        """Every ``Parameter`` among the attributes, in assignment order.

        Lists are walked in order, and an attribute with a ``parameters``
        method contributes what that returns, in its own place.
        """
        return [p for value in vars(self).values() for p in _parameters(value)]


class Conv(Module):
    """A convolution's weight and bias, named for serialization."""

    def __init__(self, name, kh, kw, cin, cout, rng, dtype=np.float32):
        weight = he_normal(rng, (kh, kw, cin, cout), kh * kw * cin, dtype)
        self.weight = Parameter(f"{name}.weight", weight)
        self.bias = Parameter(f"{name}.bias", np.zeros((1, 1, 1, cout), dtype=dtype))

    def __call__(self, x, stride=1):
        return conv2d(x, self.weight, self.bias, stride=stride)
