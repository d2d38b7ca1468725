"""Backbone structure, shape flow and residual behavior."""

import numpy as np
import pytest

from helpers import step_digest, traced_peak
from tkfnet.backbone import (
    STEM_STRIDE,
    Backbone,
    BackboneConfig,
    ResidualBlock,
    build_backbone,
)
from tkfnet.layers import Module
from tkfnet.model import PRESETS
from tkfnet.tensor import (
    ShapeError,
    Tape,
    Tensor,
    activation,
    add,
    global_pool,
)


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


class _PooledBlock(Module):
    """A block run by ``forward`` and pooled to (n, 1, 1, c) logits."""

    def __init__(self, block, forward):
        self.block = block
        self.forward = forward

    def __call__(self, x):
        return global_pool("avg", self.forward(self.block, x))


def _branch_first(block, x):
    # The block as it recorded before the projection came first.
    branch = activation("relu", block.conv_a(x, stride=block.stride))
    branch = block.conv_b(branch)
    return activation("relu", add(branch, block.proj(x, stride=block.stride)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("cin, stride", [(4, 2), (3, 1)], ids=["strided", "widening"])
def test_projection_first_keeps_the_branch_first_gradient_bits(cin, stride, dtype):
    block = ResidualBlock("b", cin, 6, stride, np.random.default_rng(5), dtype)
    rng = np.random.default_rng(6)
    # A nonzero conv_b, so that the branch adds to the input's gradient.
    block.conv_b.weight.data[:] = rng.normal(0.0, 0.2, size=block.conv_b.weight.shape)
    data = rng.normal(size=(3, 8, 8, cin)).astype(dtype)
    labels = np.array([0, 5, 2])
    results = []
    for forward in (ResidualBlock.__call__, _branch_first):
        x = Tensor(data.copy(), requires_grad=True)
        results.append((step_digest(_PooledBlock(block, forward), x, labels), x.grad))
    (digest, grad), (branch_first_digest, branch_first_grad) = results
    assert digest == branch_first_digest
    assert grad.dtype == dtype and np.count_nonzero(grad) > grad.size // 2
    assert np.array_equal(grad.view(np.uint8), branch_first_grad.view(np.uint8))


def test_projecting_block_backward_holds_no_zero_filled_input_gradient():
    # base@224's stage-0 first block at batch 2. With the projection recorded
    # first, conv_a's input gradient becomes the input's and the projection's
    # term is added into it, so backward peaks at 3.8x the input's bytes.
    # Branch first, the projection's zero-filled input gradient is held while
    # conv_a builds its own, and the peak is 4.5x.
    block = ResidualBlock("b", 32, 32, 2, np.random.default_rng(5))
    x = Tensor(np.random.default_rng(7).normal(size=(2, 112, 112, 32)).astype(np.float32),
               requires_grad=True)
    with Tape() as tape:
        out = block(x)
    seed = np.ones(out.shape, dtype=np.float32)
    assert traced_peak(lambda: tape.backward(out, seed)) < 4.2 * x.data.nbytes
