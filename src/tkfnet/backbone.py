"""ResNet-style convolutional feature extractor.

Plain conv + relu residual blocks, no normalization layers; each block's
last conv starts at zero, so the block starts as its shortcut. The stem halves
the spatial extent; every stage may halve it again, so the input extent must
be divisible by the combined stride.
"""

import math
from dataclasses import dataclass

import numpy as np

from .layers import Conv, Module
from .tensor import ShapeError, activation, add

STEM_STRIDE = 2


@dataclass(frozen=True)
class BackboneConfig:
    stem_channels: int
    stage_widths: tuple
    blocks_per_stage: tuple
    stride_per_stage: tuple

    def __post_init__(self):
        if self.stem_channels < 1:
            raise ValueError(f"stem_channels must be positive, got {self.stem_channels}")
        n = len(self.stage_widths)
        if n == 0:
            raise ValueError("at least one stage is required")
        if len(self.blocks_per_stage) != n or len(self.stride_per_stage) != n:
            raise ValueError(
                "stage_widths, blocks_per_stage and stride_per_stage must have "
                f"equal lengths, got {n}, {len(self.blocks_per_stage)}, "
                f"{len(self.stride_per_stage)}"
            )
        if any(w < 1 for w in self.stage_widths):
            raise ValueError(f"zero-width stage in {self.stage_widths}")
        if any(b < 1 for b in self.blocks_per_stage):
            raise ValueError(f"empty stage in {self.blocks_per_stage}")
        if any(s < 1 for s in self.stride_per_stage):
            raise ValueError(f"invalid stage stride in {self.stride_per_stage}")

    @property
    def total_stride(self):
        return STEM_STRIDE * math.prod(self.stride_per_stage)


class ResidualBlock(Module):
    """conv -> relu -> conv residual branch plus an identity or projected
    shortcut; a 1x1 projection appears only when shape or stride changes.

    The projection is recorded before the branch, so backward reaches it
    last: ``conv_a``'s dense input gradient becomes the input's gradient, and
    the projection's 1x1 terms are added into it in place, with no
    input-sized buffer of zeros. Addition commutes, so the gradient's bits are
    those of the other order.
    """

    def __init__(self, name, cin, cout, stride, rng, dtype=np.float32):
        self.stride = stride
        self.conv_a = Conv(f"{name}.conv_a", 3, 3, cin, cout, rng, dtype)
        self.conv_b = Conv(f"{name}.conv_b", 3, 3, cout, cout, rng, dtype)
        # The branch's last kernel starts at zero, so each block starts as its
        # shortcut (SkipInit, arXiv:2002.10444): with no normalization layer,
        # activations otherwise grow about 8x over the base model's six blocks
        # and training diverges. It is drawn first, so the other parameters
        # keep their draws. A model about to load its weights (rng None)
        # leaves it unwritten.
        if rng is not None:
            self.conv_b.weight.data[:] = 0
        if stride != 1 or cin != cout:
            self.proj = Conv(f"{name}.proj", 1, 1, cin, cout, rng, dtype)
        else:
            self.proj = None

    def __call__(self, x):
        shortcut = self.proj(x, stride=self.stride) if self.proj is not None else x
        branch = activation("relu", self.conv_a(x, stride=self.stride))
        branch = self.conv_b(branch)
        return activation("relu", add(branch, shortcut))


class Backbone(Module):
    """Stem convolution followed by configured residual stages."""

    def __init__(self, config, rng, dtype=np.float32):
        self.config = config
        self.stem = Conv("backbone.stem", 3, 3, 3, config.stem_channels, rng, dtype)
        self.stages = []
        cin = config.stem_channels
        for si, (width, blocks, stride) in enumerate(
            zip(config.stage_widths, config.blocks_per_stage, config.stride_per_stage)
        ):
            stage = []
            for bi in range(blocks):
                block_stride = stride if bi == 0 else 1
                stage.append(
                    ResidualBlock(f"backbone.stage{si}.block{bi}", cin, width, block_stride, rng, dtype)
                )
                cin = width
            self.stages.append(stage)
        self.out_channels = cin

    def __call__(self, images):
        n, h, w, c = images.shape
        if c != 3:
            raise ShapeError(f"backbone expects 3-channel images, got {images.shape}")
        ts = self.config.total_stride
        if h % ts != 0 or w % ts != 0:
            raise ShapeError(
                f"input extent {h}x{w} is not divisible by the total stride {ts}; "
                f"use multiples of {ts}"
            )
        x = activation("relu", self.stem(images, stride=STEM_STRIDE))
        for stage in self.stages:
            for block in stage:
                x = block(x)
        return x


def build_backbone(config, seed, dtype=np.float32):
    """Deterministically initialize a backbone from an integer seed."""
    return Backbone(config, np.random.default_rng(seed), dtype)
