"""Texture-aware feature extraction.

Two 1x1 projections split the backbone features. The first branch is
summarized per channel by its spatial mean and population variance, fused by
two learnable scalars into a texture descriptor that gates the branch
multiplicatively. The second branch passes through a small convolutional
context stack. The gated branch and the context branch concatenate to twice
the input width.
"""

from dataclasses import dataclass

import numpy as np

from .layers import Conv, Module
from .tensor import (
    Parameter,
    Tensor,
    activation,
    add,
    concat_channels,
    hadamard,
    spatial_moments,
)


@dataclass
class TextureDescriptor:
    """Per-channel spatial statistics and their fused combination."""

    mean: Tensor
    var: Tensor
    fused: Tensor


class TAFE(Module):
    """Texture-aware extractor block over (n, h, w, c) features."""

    def __init__(self, channels, rng, dtype=np.float32):
        c = channels
        self.channels = c
        self.branch1 = Conv("tafe.branch1", 1, 1, c, c, rng, dtype)
        self.branch2 = Conv("tafe.branch2", 1, 1, c, c, rng, dtype)
        self.alpha = Parameter("tafe.alpha", np.full((1, 1, 1, 1), 1.0, dtype=dtype))
        self.beta = Parameter("tafe.beta", np.full((1, 1, 1, 1), 0.1, dtype=dtype))
        self.mod_conv = Conv("tafe.mod_conv", 1, 1, c, c, rng, dtype)
        self.ctx_conv3 = Conv("tafe.ctx_conv3", 3, 3, c, c, rng, dtype)
        self.ctx_conv1a = Conv("tafe.ctx_conv1a", 1, 1, c, c, rng, dtype)
        self.ctx_conv1b = Conv("tafe.ctx_conv1b", 1, 1, c, c, rng, dtype)

    @property
    def out_channels(self):
        return 2 * self.channels

    def project(self, features):
        """Both 1x1 branch projections of the incoming features."""
        return self.branch1(features), self.branch2(features)

    def descriptor(self, branch_out):
        """Fused per-channel statistics: alpha * mean + beta * variance."""
        mean, var = spatial_moments(branch_out)
        fused = add(hadamard(mean, self.alpha), hadamard(var, self.beta))
        return TextureDescriptor(mean, var, fused)

    def __call__(self, features):
        first, second = self.project(features)
        desc = self.descriptor(first)
        gate = self.mod_conv(activation("gelu", desc.fused))
        textured = hadamard(first, gate)
        context = self.ctx_conv1b(activation("gelu", self.ctx_conv1a(self.ctx_conv3(second))))
        return concat_channels(textured, context)
