"""Texture branch: descriptor math, gating, and the two-branch split."""

import numpy as np
import pytest

from helpers import scalar_tensor
from tkfnet.tafe import TAFE
from tkfnet.tensor import Tensor, add, hadamard, spatial_moments


def make_tafe(channels=4, seed=0):
    return TAFE(channels, np.random.default_rng(seed))


def test_descriptor_hand_case():
    # mean 2.5, var 1.25; fused = 2 * 2.5 + 4 * 1.25 = 10.
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
    mean, var = spatial_moments(x)
    fused = add(
        hadamard(mean, scalar_tensor(2.0, np.float64)),
        hadamard(var, scalar_tensor(4.0, np.float64)),
    )
    assert mean.item() == 2.5
    assert var.item() == 1.25
    assert fused.item() == 10.0


def test_descriptor_uses_learned_scalars():
    tafe = make_tafe(channels=1)
    tafe.alpha.data[:] = 2.0
    tafe.beta.data[:] = 4.0
    branch = Tensor(np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32).reshape(1, 2, 2, 1))
    desc = tafe.descriptor(branch)
    assert desc.fused.item() == 10.0


def test_default_scalar_values():
    tafe = make_tafe()
    assert tafe.alpha.item() == 1.0
    assert tafe.beta.item() == pytest.approx(0.1)


def test_output_width_doubles_input():
    for c in (2, 4, 8):
        tafe = make_tafe(channels=c, seed=c)
        assert tafe.out_channels == 2 * c
        x = Tensor(np.random.default_rng(c).normal(size=(2, 5, 5, c)).astype(np.float32))
        assert tafe(x).shape == (2, 5, 5, 2 * c)


def test_output_preserves_spatial_extent():
    tafe = make_tafe()
    x = Tensor(np.zeros((3, 7, 9, 4), dtype=np.float32))
    assert tafe(x).shape == (3, 7, 9, 8)


def test_branches_occupy_fixed_channel_ranges():
    # Zeroing the context stack's last conv leaves the top half exactly zero
    # while the gated texture half is unaffected, and vice versa.
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(1, 4, 4, 4)).astype(np.float32))

    tafe = make_tafe(seed=9)
    full = tafe(x).data.copy()

    tafe.ctx_conv1b.weight.data[:] = 0.0
    tafe.ctx_conv1b.bias.data[:] = 0.0
    no_ctx = tafe(x).data
    np.testing.assert_array_equal(no_ctx[..., 4:], 0.0)
    np.testing.assert_array_equal(no_ctx[..., :4], full[..., :4])

    tafe2 = make_tafe(seed=9)
    tafe2.mod_conv.weight.data[:] = 0.0
    tafe2.mod_conv.bias.data[:] = 0.0
    no_gate = tafe2(x).data
    np.testing.assert_array_equal(no_gate[..., :4], 0.0)
    np.testing.assert_array_equal(no_gate[..., 4:], full[..., 4:])


def test_constant_gate_scales_texture_branch():
    # With mod_conv forced to a constant, the texture half is branch1 output
    # times that constant.
    tafe = make_tafe(seed=2)
    tafe.mod_conv.weight.data[:] = 0.0
    tafe.mod_conv.bias.data[:] = 3.0
    x = Tensor(np.random.default_rng(3).normal(size=(1, 4, 4, 4)).astype(np.float32))
    first, _ = tafe.project(x)
    out = tafe(x)
    np.testing.assert_allclose(
        out.data[..., :4], 3.0 * first.data, rtol=1e-6, atol=1e-6
    )


def test_descriptor_invariant_to_spatial_permutation():
    tafe = make_tafe(seed=4)
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(1, 6, 6, 4)).astype(np.float32)
    perm = rng.permutation(36)
    shuffled = vals.reshape(1, 36, 4)[:, perm, :].reshape(1, 6, 6, 4)

    d1 = tafe.descriptor(Tensor(vals))
    d2 = tafe.descriptor(Tensor(shuffled))
    np.testing.assert_array_equal(d1.fused.data, d2.fused.data)


def test_variance_term_breaks_first_order_homogeneity():
    # Doubling the branch doubles the mean but quadruples the variance, so
    # the fused descriptor is not simply scaled; with alpha = 0 it scales by
    # exactly 4.
    tafe = make_tafe(channels=2)
    tafe.alpha.data[:] = 0.0
    tafe.beta.data[:] = 1.0
    vals = np.random.default_rng(8).normal(size=(1, 3, 3, 2)).astype(np.float64)
    d1 = tafe.descriptor(Tensor(vals))
    d2 = tafe.descriptor(Tensor(2.0 * vals))
    np.testing.assert_allclose(d2.fused.data, 4.0 * d1.fused.data, rtol=1e-12)


def test_parameter_inventory():
    tafe = make_tafe(channels=4)
    names = [p.name for p in tafe.parameters()]
    assert len(names) == len(set(names))
    assert "tafe.alpha" in names
    assert "tafe.beta" in names
    # 6 conv layers with weight + bias, plus the two fusion scalars.
    assert len(names) == 14


def test_seeded_init_is_reproducible():
    a = make_tafe(seed=11)
    b = make_tafe(seed=11)
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
