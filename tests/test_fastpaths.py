"""The fast forward and backward paths against the plain ones, bit for bit.

The references below are the straightforward forms: im2col through a
sliding-window view with a col2im scatter of the full column gradient, and a
bilinear resize that gathers all four corners at the output size. The fast
paths must reproduce their float bits exactly, not just within a tolerance.
"""

import numpy as np
import pytest

from tkfnet.data import _axis_coords, _resize_bilinear
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import (
    Tape,
    Tensor,
    _accum,
    _conv_geometry,
    _record,
    activation,
    adaptive_pool,
    conv2d,
    hadamard,
    reduce_sum,
)


def bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)


def assert_same_bits(a, b, what="values"):
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert np.array_equal(bits(a), bits(b)), f"{what} differ in their bits"


def reference_conv2d(x, weight, bias, stride=1, padding="same"):
    n, h, w, cin = x.shape
    kh, kw, _, cout = weight.shape
    oh, ow, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.pad(x.data, ((0, 0), (pt, pb), (pl, pr), (0, 0)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    patches = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    cols = patches.reshape(n * oh * ow, kh * kw * cin)
    wmat = weight.data.reshape(kh * kw * cin, cout)
    y = (cols @ wmat).reshape(n, oh, ow, cout) + bias.data.reshape(cout)
    out = Tensor(y, requires_grad=True)

    def run():
        g = out.grad
        g2 = g.reshape(n * oh * ow, cout)
        _accum(weight, (cols.T @ g2).reshape(kh, kw, cin, cout))
        _accum(bias, g.astype(np.float64).sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout))
        gcols = (g2 @ wmat.T).reshape(n, oh, ow, kh, kw, cin)
        gxp = np.zeros_like(xp)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :] += gcols[:, :, :, i, j, :]
        _accum(x, gxp[:, pt : pt + h, pl : pl + w, :])

    _record("conv2d", (out,), run)
    return out


def reference_resize(arr, th, tw):
    r0, r1, fr = _axis_coords(arr.shape[1], th, arr.dtype)
    c0, c1, fc = _axis_coords(arr.shape[2], tw, arr.dtype)
    tl = arr[:, r0[:, None], c0[None, :], :]
    tr = arr[:, r0[:, None], c1[None, :], :]
    bl = arr[:, r1[:, None], c0[None, :], :]
    br = arr[:, r1[:, None], c1[None, :], :]
    wr = fr[None, :, None, None]
    wc = fc[None, None, :, None]
    top = (1 - wc) * tl + wc * tr
    bottom = (1 - wc) * bl + wc * br
    return (1 - wr) * top + wr * bottom


def conv_output_and_grads(conv, x, w, b, upstream, stride, padding):
    """Forward output plus the x, weight and bias gradients for a fixed
    upstream gradient, through a fresh copy of every input."""
    x, w, b = (Tensor(t.copy(), requires_grad=True) for t in (x, w, b))
    with Tape() as tape:
        out = conv(x, w, b, stride=stride, padding=padding)
        tape.backward(reduce_sum(hadamard(out, Tensor(upstream))))
    return out.data, x.grad, w.grad, b.grad


# (batch, height, width, cin, cout, kernel, stride, padding)
CONV_SHAPES = [
    (1, 6, 6, 4, 5, 1, 1, "same"),
    (8, 6, 6, 4, 5, 1, 1, "valid"),
    (8, 6, 6, 4, 5, 1, 2, "same"),
    (1, 7, 5, 4, 3, 1, 2, "same"),
    (1, 7, 5, 3, 4, 3, 1, "same"),
    (8, 7, 5, 3, 4, 3, 1, "same"),
    (1, 7, 5, 3, 4, 3, 2, "same"),
    (8, 8, 8, 3, 6, 3, 2, "same"),
    (1, 7, 5, 3, 4, 2, 1, "valid"),
    (8, 6, 6, 2, 3, 2, 2, "valid"),
    (1, 7, 5, 2, 3, 3, 2, "valid"),
    # Shapes of the base model at a 112 px input: stem, a strided block
    # with its projection, a plain block, and TAFE's 1x1 and 3x3 convs.
    (1, 112, 112, 3, 32, 3, 2, "same"),
    (8, 28, 28, 32, 64, 3, 2, "same"),
    (8, 28, 28, 32, 64, 1, 2, "same"),
    (8, 14, 14, 64, 64, 3, 1, "same"),
    (8, 7, 7, 128, 128, 1, 1, "same"),
    (8, 7, 7, 128, 128, 3, 1, "same"),
    (1, 1, 1, 256, 128, 1, 1, "same"),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "n{}_{}x{}_{}to{}_k{}s{}_{}".format(*s))
def test_conv2d_matches_reference_bits(shape, dtype):
    n, h, w, cin, cout, k, stride, padding = shape
    rng = np.random.default_rng(list(shape[:7]))
    x = rng.normal(size=(n, h, w, cin)).astype(dtype)
    weight = rng.normal(size=(k, k, cin, cout)).astype(dtype)
    bias = rng.normal(size=(1, 1, 1, cout)).astype(dtype)
    oh, ow, _ = _conv_geometry(h, w, k, k, stride, padding)
    upstream = rng.normal(size=(n, oh, ow, cout)).astype(dtype)
    fast = conv_output_and_grads(conv2d, x, weight, bias, upstream, stride, padding)
    ref = conv_output_and_grads(reference_conv2d, x, weight, bias, upstream, stride, padding)
    for name, a, b in zip(("output", "x grad", "weight grad", "bias grad"), fast, ref):
        assert_same_bits(a, b, name)


def test_conv2d_without_tape_matches_reference_bits():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(2, 9, 9, 8)).astype(np.float32))
    for k, stride in ((1, 1), (1, 2), (3, 1), (3, 2)):
        w = Tensor(rng.normal(size=(k, k, 8, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 1, 1, 4)).astype(np.float32), requires_grad=True)
        assert_same_bits(conv2d(x, w, b, stride=stride).data,
                         reference_conv2d(x, w, b, stride=stride).data)


@pytest.mark.parametrize(
    "src, dst",
    [((48, 48), (224, 224)), ((7, 7), (3, 3)), ((1, 1), (4, 4)), ((6, 5), (6, 5)),
     ((5, 9), (11, 4)), ((1, 6), (3, 1))],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resize_matches_reference_bits(src, dst, dtype):
    arr = np.random.default_rng(list(src + dst)).uniform(size=(2, *src, 3)).astype(dtype)
    assert_same_bits(_resize_bilinear(arr, *dst), reference_resize(arr, *dst))


def test_identity_resize_returns_the_source_bits():
    arr = np.random.default_rng(0).uniform(size=(1, 6, 5, 3)).astype(np.float32)
    assert_same_bits(_resize_bilinear(arr, 6, 5), arr)


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "gelu"])
def test_activation_output_same_with_and_without_tape(kind):
    data = np.random.default_rng(1).normal(scale=3.0, size=(2, 5, 5, 4)).astype(np.float32)
    x = Tensor(data, requires_grad=True)
    untaped = activation(kind, x)
    with Tape() as tape:
        taped = activation(kind, x)
    assert len(tape.nodes) == 1
    assert_same_bits(untaped.data, taped.data)


@pytest.mark.parametrize("out_size", [(1, 1), (2, 3)])
def test_max_pool_output_same_with_and_without_tape(out_size):
    data = np.random.default_rng(2).normal(size=(2, 5, 6, 4)).astype(np.float32)
    x = Tensor(data, requires_grad=True)
    untaped = adaptive_pool("max", x, out_size)
    with Tape() as tape:
        taped = adaptive_pool("max", x, out_size)
    assert len(tape.nodes) == 1
    assert_same_bits(untaped.data, taped.data)


def test_model_forward_same_with_and_without_tape():
    model = TKFNet(model_config("small", 7), seed=4)
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, size=(2, 32, 32, 3)).astype(np.float32))
    logits, gate = model.forward_with_attention(x)
    with Tape():
        taped_logits, taped_gate = model.forward_with_attention(x)
    assert_same_bits(logits.data, taped_logits.data)
    assert_same_bits(gate.data, taped_gate.data)
