"""Channel gating, global context encoding and the classification head.

Global average and max pools compress the feature map to (n, 1, 1, c)
channel vectors whose concatenation drives a sigmoid gate; the gated map is
pooled again and passed through a bottlenecked pair of fully connected layers
before the linear class head. These three layers are 1x1 convolutions on the
pooled 1x1 map.
"""

import numpy as np

from .layers import Conv, Module
from .tensor import activation, concat_channels, global_pool, hadamard


class DCIF(Module):
    """Dual-pool gate and classifier over (n, h, w, c) features."""

    def __init__(self, channels, classes, rng, reduction=4, dtype=np.float32):
        if channels % reduction != 0:
            raise ValueError(
                f"channel count {channels} is not divisible by the bottleneck "
                f"reduction {reduction}"
            )
        if classes < 1:
            raise ValueError(f"classes must be positive, got {classes}")
        self.channels = channels
        self.classes = classes
        self.attn_conv = Conv("dcif.attn_conv", 1, 1, 2 * channels, channels, rng, dtype)
        hidden = channels // reduction
        self.fc1 = Conv("dcif.fc1", 1, 1, channels, hidden, rng, dtype)
        self.fc2 = Conv("dcif.fc2", 1, 1, hidden, channels, rng, dtype)
        self.head = Conv("dcif.head", 1, 1, channels, classes, rng, dtype)

    def attention(self, features):
        """Gate the features per channel; returns (gated, gate).

        The gate is sigmoid of a 1x1 convolution over the concatenated
        average-pool and max-pool summaries, so every entry is in (0, 1).
        """
        avg = global_pool("avg", features)
        mx = global_pool("max", features)
        pooled = concat_channels(avg, mx)
        gate = activation("sigmoid", self.attn_conv(pooled))
        return hadamard(features, gate), gate

    def encode(self, gated):
        """Global context vector from the pooled gated features."""
        pooled = global_pool("avg", gated)
        return self.fc2(activation("relu", self.fc1(pooled)))

    def logits(self, context):
        return self.head(context)

    def __call__(self, features):
        gated, gate = self.attention(features)
        return self.logits(self.encode(gated)), gate
