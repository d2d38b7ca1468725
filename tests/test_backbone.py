"""Backbone structure, shape flow and residual behavior."""

import numpy as np
import pytest

from tkfnet.backbone import (
    STEM_STRIDE,
    Backbone,
    BackboneConfig,
    ResidualBlock,
    build_backbone,
)
from tkfnet.model import PRESETS
from tkfnet.tensor import ShapeError, Tensor


SMALL = PRESETS["small"]
BASE = PRESETS["base"]


def test_total_stride_composition():
    assert STEM_STRIDE == 2
    assert SMALL.total_stride == 8
    assert BASE.total_stride == 16


def test_config_validation():
    with pytest.raises(ValueError):
        BackboneConfig(0, (8,), (1,), (1,))
    with pytest.raises(ValueError):
        BackboneConfig(8, (), (), ())
    with pytest.raises(ValueError):
        BackboneConfig(8, (8, 16), (1,), (1, 1))
    with pytest.raises(ValueError):
        BackboneConfig(8, (8,), (0,), (1,))


def test_small_shape_flow():
    net = build_backbone(SMALL, seed=0)
    x = Tensor(np.zeros((2, 32, 32, 3), dtype=np.float32))
    y = net(x)
    assert y.shape == (2, 4, 4, 16)
    assert net.out_channels == 16


def test_base_shape_flow():
    net = build_backbone(BASE, seed=0)
    x = Tensor(np.zeros((1, 224, 224, 3), dtype=np.float32))
    y = net(x)
    assert y.shape == (1, 14, 14, 128)
    assert net.out_channels == 128


def test_rectangular_input():
    net = build_backbone(SMALL, seed=0)
    y = net(Tensor(np.zeros((1, 16, 48, 3), dtype=np.float32)))
    assert y.shape == (1, 2, 6, 16)


def test_indivisible_extent_rejected():
    net = build_backbone(SMALL, seed=0)
    with pytest.raises(ShapeError, match="divisible"):
        net(Tensor(np.zeros((1, 30, 30, 3), dtype=np.float32)))


def test_wrong_channel_count_rejected():
    net = build_backbone(SMALL, seed=0)
    with pytest.raises(ShapeError, match="3-channel"):
        net(Tensor(np.zeros((1, 32, 32, 1), dtype=np.float32)))


def test_small_parameter_count_closed_form():
    # stem: 3*3*3*8 + 8 = 224
    # stage0 block (8 -> 8, stride 2): conv_a 584 + conv_b 584 + proj 72 = 1240
    # stage1 block (8 -> 16, stride 2): conv_a 1168 + conv_b 2320 + proj 144 = 3632
    net = build_backbone(SMALL, seed=0)
    total = sum(p.size for p in net.parameters())
    assert total == 224 + 1240 + 3632


def test_projection_only_on_shape_change():
    rng = np.random.default_rng(0)
    assert ResidualBlock("b", 4, 4, 1, rng).proj is None
    assert ResidualBlock("b", 4, 4, 2, rng).proj is not None
    assert ResidualBlock("b", 4, 8, 1, rng).proj is not None


def test_identity_shortcut_with_zeroed_branch():
    # With the second conv zeroed the block reduces to relu(x).
    rng = np.random.default_rng(3)
    block = ResidualBlock("b", 4, 4, 1, rng)
    block.conv_b.weight.data[:] = 0.0
    block.conv_b.bias.data[:] = 0.0
    x = Tensor(rng.normal(size=(1, 6, 6, 4)).astype(np.float32))
    y = block(x)
    np.testing.assert_array_equal(y.data, np.maximum(x.data, 0.0))


def test_zero_input_maps_to_zero():
    # Biases start at zero, so the all-zero image stays zero throughout.
    net = build_backbone(SMALL, seed=7)
    y = net(Tensor(np.zeros((1, 32, 32, 3), dtype=np.float32)))
    np.testing.assert_array_equal(y.data, 0.0)


def test_seeded_init_is_reproducible():
    a = build_backbone(SMALL, seed=42)
    b = build_backbone(SMALL, seed=42)
    c = build_backbone(SMALL, seed=43)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    assert any(
        not np.array_equal(pa.data, pc.data)
        for pa, pc in zip(a.parameters(), c.parameters())
    )


def test_parameter_names_are_unique_and_prefixed():
    net = build_backbone(BASE, seed=0)
    names = [p.name for p in net.parameters()]
    assert len(names) == len(set(names))
    assert all(name.startswith("backbone.") for name in names)


def test_weight_init_scale_tracks_fan_in():
    # he scaling: std ~ sqrt(2 / fan_in) for each kernel but conv_b, which
    # starts at zero.
    net = build_backbone(BASE, seed=1)
    w = net.stages[2][1].conv_a.weight  # 3x3x128x128, fan_in 1152
    observed = float(w.data.std())
    expected = np.sqrt(2.0 / (3 * 3 * 128))
    assert observed == pytest.approx(expected, rel=0.05)
    for stage in net.stages:
        for block in stage:
            assert not block.conv_b.weight.data.any()


def test_zeroed_conv_b_leaves_every_other_draw_unchanged():
    # conv_b is drawn and then zeroed, so the same seed gives every other
    # parameter the values it had with conv_b drawn.
    rng = np.random.default_rng(4)
    block = ResidualBlock("b", 4, 8, 2, rng)
    rng = np.random.default_rng(4)
    conv_a = rng.normal(0.0, np.sqrt(2.0 / 36), size=(3, 3, 4, 8)).astype(np.float32)
    rng.normal(0.0, np.sqrt(2.0 / 72), size=(3, 3, 8, 8))
    proj = rng.normal(0.0, np.sqrt(2.0 / 4), size=(1, 1, 4, 8)).astype(np.float32)
    np.testing.assert_array_equal(block.conv_a.weight.data, conv_a)
    np.testing.assert_array_equal(block.proj.weight.data, proj)
