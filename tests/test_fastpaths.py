"""The fast forward and backward paths against the plain ones, bit for bit.

The references below are the straightforward forms: im2col through a
sliding-window view with a col2im scatter of the full column gradient, a
bilinear resize that gathers all four corners at the output size, a fully
connected layer as its own matrix product, pooling over a one-region grid
with a scatter-add of the max gradient, a product by a scalar and a product
that takes either a same-shape operand or a channel vector, and a tape walk
that releases nothing. The fast and merged paths must reproduce their float
bits exactly, not just within a tolerance.
"""

import contextlib

import numpy as np
import pytest

import tkfnet.tensor
from helpers import empty_pool, scale_gradients, traced_peak
from tkfnet.data import _axis_coords, _resize_bilinear
from tkfnet.gradcheck import OP_TOLERANCE, _conv_case, grad_check
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import (
    Tape,
    Tensor,
    _accum,
    _conv_geometry,
    _record,
    _sample_blocks,
    _sorted_sum,
    _tap_span,
    _taping,
    activation,
    add,
    conv2d,
    global_pool,
    hadamard,
    reduce_sum,
    softmax_cross_entropy,
    spatial_moments,
)


def bits(arr):
    arr = np.ascontiguousarray(arr)
    return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)


def assert_same_bits(a, b, what="values"):
    assert a.shape == b.shape and a.dtype == b.dtype, what
    assert np.array_equal(bits(a), bits(b)), f"{what} differ in their bits"


def reference_conv2d(x, weight, bias, stride=1):
    n, h, w, cin = x.shape
    kh, kw, _, cout = weight.shape
    oh, ow, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride)
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

    _record((out,), run)
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


def reference_conv2d_vector(x, weight, bias):
    """A 1x1 conv on (n, 1, 1, cin) vectors as a fully connected layer."""
    n, _, _, cin = x.shape
    cout = weight.shape[3]
    x2 = x.data.reshape(n, cin)
    wmat = weight.data.reshape(cin, cout)
    y = (x2 @ wmat + bias.data.reshape(cout)).reshape(n, 1, 1, cout)
    out = Tensor(y, requires_grad=True)

    def run():
        g2 = out.grad.reshape(n, cout)
        _accum(x, (g2 @ wmat.T).reshape(n, 1, 1, cin))
        _accum(weight, (x2.T @ g2).reshape(1, 1, cin, cout))
        _accum(bias, g2.astype(np.float64).sum(axis=0).reshape(1, 1, 1, cout))

    _record((out,), run)
    return out


def reference_global_pool(kind, x):
    """Global pooling over a one-region grid, the whole input."""
    n, h, w, c = x.shape
    region = x.data.reshape(n, -1, c)
    if kind == "avg":
        y = (_sorted_sum(region.astype(np.float64)) / region.shape[1]).astype(x.dtype)
    elif _taping(x.requires_grad):
        idx = region.argmax(axis=1)
        y = np.take_along_axis(region, idx[:, None, :], axis=1)[:, 0, :]
    else:
        y = region.max(axis=1)
    out = Tensor(y.reshape(n, 1, 1, c), requires_grad=x.requires_grad)

    def run():
        g = out.grad
        gx = np.zeros(x.shape)
        if kind == "avg":
            gx += g / (h * w)
        else:
            index = (np.arange(n)[:, None], idx // w, idx % w, np.arange(c)[None, :])
            np.add.at(gx, index, g[:, 0, 0, :])
        _accum(x, gx)

    _record((out,), run, kind)
    return out


def reference_hadamard_scalar(x, s):
    """Product with a (1, 1, 1, 1) scalar, whose gradient is a flat sum."""
    out = Tensor(x.data * s.data, requires_grad=x.requires_grad or s.requires_grad)

    def run():
        g = out.grad
        if x.requires_grad:
            _accum(x, g * s.data)
        if s.requires_grad:
            _accum(s, (g.astype(np.float64) * x.data).sum().reshape(1, 1, 1, 1))

    _record((out,), run)
    return out


def reference_hadamard(x, y):
    """Product with a same-shape operand or a (n, 1, 1, c) channel vector."""
    vector = y.shape != x.shape
    out = Tensor(x.data * y.data, requires_grad=x.requires_grad or y.requires_grad)

    def run():
        g = out.grad
        if x.requires_grad:
            _accum(x, g * y.data)
        if y.requires_grad:
            if vector:
                _accum(y, (g.astype(np.float64) * x.data).sum(axis=(1, 2), keepdims=True))
            else:
                _accum(y, g * x.data)

    _record((out,), run)
    return out


def conv_output_and_grads(conv, x, w, b, upstream, stride):
    """Forward output plus the x, weight and bias gradients for a fixed
    upstream gradient, through a fresh copy of every input."""
    x, w, b = (Tensor(t.copy(), requires_grad=True) for t in (x, w, b))
    with Tape() as tape:
        out = conv(x, w, b, stride=stride)
        tape.backward(reduce_sum(hadamard(out, Tensor(upstream))))
    return out.data, x.grad, w.grad, b.grad


# (batch, height, width, cin, cout, kernel, stride); every conv pads "same".
CONV_SHAPES = [
    (1, 6, 6, 4, 5, 1, 1),
    (8, 6, 6, 4, 5, 1, 1),
    (8, 6, 6, 4, 5, 1, 2),
    (1, 7, 5, 4, 3, 1, 2),
    (1, 7, 5, 3, 4, 3, 1),
    (8, 7, 5, 3, 4, 3, 1),
    (1, 7, 5, 3, 4, 3, 2),
    (8, 8, 8, 3, 6, 3, 2),
    (1, 7, 5, 3, 4, 2, 1),
    (8, 6, 6, 2, 3, 2, 2),
    (1, 7, 5, 2, 3, 3, 2),
    # Shapes of the base model at a 112 px input: stem, a strided block
    # with its projection, a plain block, and TAFE's 1x1 and 3x3 convs.
    (1, 112, 112, 3, 32, 3, 2),
    (8, 28, 28, 32, 64, 3, 2),
    (8, 28, 28, 32, 64, 1, 2),
    (8, 14, 14, 64, 64, 3, 1),
    (8, 7, 7, 128, 128, 1, 1),
    (8, 7, 7, 128, 128, 3, 1),
    (1, 1, 1, 256, 128, 1, 1),
]


def assert_conv_matches_reference_bits(shape, dtype):
    n, h, w, cin, cout, k, stride = shape
    rng = np.random.default_rng(list(shape))
    x = rng.normal(size=(n, h, w, cin)).astype(dtype)
    weight = rng.normal(size=(k, k, cin, cout)).astype(dtype)
    bias = rng.normal(size=(1, 1, 1, cout)).astype(dtype)
    oh, ow, _ = _conv_geometry(h, w, k, k, stride)
    upstream = rng.normal(size=(n, oh, ow, cout)).astype(dtype)
    fast = conv_output_and_grads(conv2d, x, weight, bias, upstream, stride)
    ref = conv_output_and_grads(reference_conv2d, x, weight, bias, upstream, stride)
    for name, a, b in zip(("output", "x grad", "weight grad", "bias grad"), fast, ref):
        assert_same_bits(a, b, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "n{}_{}x{}_{}to{}_k{}s{}_same".format(*s))
def test_conv2d_matches_reference_bits(shape, dtype):
    assert_conv_matches_reference_bits(shape, dtype)


def skip_unless_row_split_keeps_bits(n, h, w, cin, cout, k, stride, dtype):
    """Skip unless the BLAS kernel in use gives this conv's GEMM, split at
    its sample blocks, the whole GEMM's bits, as seen on seeded operands of
    the same shapes. OpenBLAS 0.3.31's SkylakeX kernel does for every case
    here; its Haswell kernel does not even at the stage-0 shape, and its
    Prescott kernel not for some one-sample blocks."""
    oh, ow, _ = _conv_geometry(h, w, k, k, stride)
    rows, depth = oh * ow, k * k * cin
    rng = np.random.default_rng(0)
    a = rng.normal(size=(n * rows, depth)).astype(dtype)
    b = rng.normal(size=(depth, cout)).astype(dtype)
    split = np.concatenate([a[i * rows : j * rows] @ b for i, j in _sample_blocks(n, rows * depth)])
    if not np.array_equal(bits(a @ b), bits(split)):
        pytest.skip("the BLAS kernel in use gives this GEMM split into row blocks other bits than the whole GEMM")


def skip_unless_kernel_row_split_keeps_bits(n, h, w, cin, cout, k, stride, dtype):
    """Skip when conv2d, at the current ``_PATCH_BLOCK``, builds this conv's
    kernel gradient a kernel row at a time and the BLAS kernel in use gives
    that split GEMM other bits than the whole one, as seen on seeded operands
    of the same shapes. OpenBLAS 0.3.31's SkylakeX and SandyBridge kernels
    keep the bits at every base@224 conv shape; its Haswell and Prescott
    kernels do not at the stem's (cin 3), nor at some small shapes."""
    oh, ow, _ = _conv_geometry(h, w, k, k, stride)
    rows, band = n * oh * ow, k * cin
    if k == 1 or rows * band < tkfnet.tensor._PATCH_BLOCK:
        return
    rng = np.random.default_rng(1)
    a = rng.normal(size=(rows, k * band)).astype(dtype)
    g = rng.normal(size=(rows, cout)).astype(dtype)
    split = np.concatenate([np.ascontiguousarray(a[:, i * band : (i + 1) * band]).T @ g for i in range(k)])
    if not np.array_equal(bits(a.T @ g), bits(split)):
        pytest.skip("the BLAS kernel in use gives the kernel-gradient GEMM split a kernel row at a time other bits than the whole GEMM")


def skip_unless_tap_split_keeps_bits(n, h, w, cin, cout, k, stride, dtype):
    """Skip unless the BLAS kernel in use gives the input-gradient GEMM,
    split a tap at a time as conv2d splits it, the bits of the reference's
    one GEMM, as seen on seeded operands of the same shapes. OpenBLAS
    0.3.31's Haswell kernel does not at several base conv shapes, and its
    SkylakeX, SandyBridge and Prescott kernels not at some one-row float32
    ones."""
    oh, ow, _ = _conv_geometry(h, w, k, k, stride)
    rng = np.random.default_rng(2)
    g = rng.normal(size=(n * oh * ow, cout)).astype(dtype)
    wmat = rng.normal(size=(k * k * cin, cout)).astype(dtype)
    taps = np.concatenate([g @ wmat[t * cin : (t + 1) * cin].T for t in range(k * k)], axis=1)
    if not np.array_equal(bits(g @ wmat.T), bits(taps)):
        pytest.skip("the BLAS kernel in use gives the input-gradient GEMM split a tap at a time other bits than the whole GEMM")


def test_sample_blocks_reach_the_floor_and_merge_the_remainder():
    stage0 = 56 * 56 * 3 * 3 * 32  # patch elements of one sample, base@224 stage 0
    assert _sample_blocks(8, stage0) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert _sample_blocks(7, stage0) == [(0, 2), (2, 4), (4, 7)]
    assert _sample_blocks(1, stage0) == [(0, 1)]
    # A batch under the floor, such as small@32's stem at batch 32, is one block.
    assert _sample_blocks(32, 32 * 32 * 3 * 3 * 3) == [(0, 32)]
    assert _sample_blocks(3, 1 << 21) == [(0, 1), (1, 2), (2, 3)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("samples", [1, 2], ids=["blocks_of_1", "blocks_of_2"])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_conv2d_sample_blocks_match_reference_bits(monkeypatch, n, k, stride, samples, dtype):
    # The least floor that makes each block `samples` samples; with two, an
    # odd batch ends in a merged block of three.
    shape = (n, 7, 5, 3, 4, k, stride)
    oh, ow, _ = _conv_geometry(7, 5, k, k, stride)
    monkeypatch.setattr(tkfnet.tensor, "_PATCH_BLOCK", (samples - 1) * oh * ow * k * k * 3 + 1)
    skip_unless_row_split_keeps_bits(*shape, dtype)
    skip_unless_kernel_row_split_keeps_bits(*shape, dtype)
    assert_conv_matches_reference_bits(shape, dtype)


def test_stage0_conv_in_four_blocks_matches_reference_bits():
    shape = (8, 56, 56, 32, 32, 3, 1)
    skip_unless_row_split_keeps_bits(*shape, np.float32)
    skip_unless_kernel_row_split_keeps_bits(*shape, np.float32)
    assert_conv_matches_reference_bits(shape, np.float32)


@pytest.mark.parametrize("stride", [1, 2])
def test_grad_check_passes_through_one_sample_blocks(monkeypatch, stride):
    monkeypatch.setattr(tkfnet.tensor, "_PATCH_BLOCK", 1)
    f, inputs = _conv_case(3, (3, 4, 5, 2), stride=stride)(np.random.default_rng(stride), np.float64)
    assert grad_check(f, inputs) <= OP_TOLERANCE


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("extent", [(7, 5), (2, 1)], ids=["7x5", "2x1"])
@pytest.mark.parametrize("n", [1, 3])
def test_conv2d_kernel_rows_match_reference_bits(monkeypatch, n, extent, k, stride, dtype):
    # A floor of one element puts the kernel gradient on its kernel-row path,
    # and the forward in one-sample blocks. At 2x1 most taps of a 5x5 kernel
    # read only padding.
    shape = (n, *extent, 3, 4, k, stride)
    monkeypatch.setattr(tkfnet.tensor, "_PATCH_BLOCK", 1)
    skip_unless_row_split_keeps_bits(*shape, dtype)
    skip_unless_kernel_row_split_keeps_bits(*shape, dtype)
    skip_unless_tap_split_keeps_bits(*shape, dtype)
    assert_conv_matches_reference_bits(shape, dtype)


def test_kernel_rows_start_at_the_floor(monkeypatch):
    # The kernel-row path starts where each kernel row's columns hold
    # _PATCH_BLOCK elements; the whole GEMM runs below it.
    x = Tensor(np.ones((2, 6, 6, 3)), requires_grad=True)
    w = Tensor(np.ones((3, 3, 3, 2)), requires_grad=True)
    b = Tensor(np.zeros((1, 1, 1, 2)), requires_grad=True)
    band = 2 * 6 * 6 * 3 * 3  # patch elements of one kernel row at stride 1
    seen = []
    im2col = tkfnet.tensor._im2col
    monkeypatch.setattr(tkfnet.tensor, "_im2col",
                        lambda *a, **kw: seen.append(kw.get("kernel_rows")) or im2col(*a, **kw))
    for floor, expected in ((band + 1, [(0, 3)]), (band, [(0, 1), (1, 2), (2, 3)])):
        monkeypatch.setattr(tkfnet.tensor, "_PATCH_BLOCK", floor)
        with Tape() as tape:
            loss = reduce_sum(conv2d(x, w, b))
        del seen[:]
        tape.backward(loss)
        assert seen == expected


@pytest.mark.parametrize("k, stride", [(3, 3), (5, 1), (5, 2)])
def test_grad_check_passes_through_kernel_rows(monkeypatch, k, stride):
    monkeypatch.setattr(tkfnet.tensor, "_PATCH_BLOCK", 1)
    f, inputs = _conv_case(k, (2, 5, 4, 3), stride=stride)(np.random.default_rng(k + stride), np.float64)
    assert grad_check(f, inputs) <= OP_TOLERANCE


def test_fault_scale_reaches_the_conv_input_gradient(monkeypatch):
    rng = np.random.default_rng(11)
    arrays = [rng.normal(size=s).astype(np.float32) for s in ((2, 5, 5, 3), (3, 3, 3, 4), (1, 1, 1, 4))]
    upstream = rng.normal(size=(2, 5, 5, 4)).astype(np.float32)
    plain = conv_output_and_grads(conv2d, *arrays, upstream, 1)
    scale_gradients(monkeypatch, 2.0)
    scaled = conv_output_and_grads(conv2d, *arrays, upstream, 1)
    # Three writes scale: the sum's gradient, the product's and the conv's.
    for a, b in zip(plain[1:], scaled[1:]):
        assert_same_bits(8 * a, b)


@pytest.mark.parametrize("stride", [1, 2])
def test_fault_scale_reaches_the_1x1_term_added_into_a_held_gradient(monkeypatch, stride):
    # The input also feeds a product with zeros, recorded after the conv, so
    # it holds a gradient of +0 when the conv's term is added into it.
    rng = np.random.default_rng(17)
    data = rng.normal(size=(2, 5, 5, 3)).astype(np.float32)
    weight, bias = (Tensor(rng.normal(size=s).astype(np.float32)) for s in ((1, 1, 3, 4), (1, 1, 1, 4)))
    upstream = Tensor(rng.normal(size=(2, -(-5 // stride), -(-5 // stride), 4)).astype(np.float32))

    def input_grad():
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, weight, bias, stride=stride)
            held = reduce_sum(hadamard(x, Tensor(np.zeros_like(data))))
            tape.backward(add(reduce_sum(hadamard(out, upstream)), held))
        return x.grad

    plain = input_grad()
    assert np.count_nonzero(plain) == plain[:, ::stride, ::stride].size
    scale_gradients(monkeypatch, 2.0)
    # Four writes scale: add's, the sum's, the product's and the conv's.
    assert_same_bits(16 * plain, input_grad())


def test_fault_scale_reaches_the_relu_input_gradient(monkeypatch):
    rng = np.random.default_rng(13)
    data, upstream = (rng.normal(size=(2, 5, 5, 3)).astype(np.float32) for _ in range(2))

    def relu_input_grad():
        x = Tensor(data, requires_grad=True)
        with Tape() as tape:
            tape.backward(reduce_sum(hadamard(activation("relu", x), Tensor(upstream))))
        return x.grad

    plain = relu_input_grad()
    scale_gradients(monkeypatch, 2.0)
    # Three writes scale: the sum's gradient, the product's and relu's.
    assert_same_bits(8 * plain, relu_input_grad())


def test_im2col_copies_a_chunk_of_samples_per_pass(monkeypatch):
    # One sliding-window pass per block of _sample_blocks, through the padded
    # buffer. small@32's stem at batch 32 is a single block. base@224's
    # strided stage-0 conv at batch 8 has 2 samples to a block, so its
    # backward makes 4 passes per kernel row, not one per sample.
    calls = []
    view = np.lib.stride_tricks.sliding_window_view
    monkeypatch.setattr(np.lib.stride_tricks, "sliding_window_view",
                        lambda *a, **kw: calls.append(a[0].shape[0]) or view(*a, **kw))
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(32, 32, 32, 3)).astype(np.float32))
    weight = Tensor(rng.normal(size=(3, 3, 3, 8)).astype(np.float32))
    bias = Tensor(np.zeros((1, 1, 1, 8), dtype=np.float32))
    y = conv2d(x, weight, bias, stride=2)
    assert calls == [32]
    assert_same_bits(y.data, reference_conv2d(x, weight, bias, stride=2).data)

    x = Tensor(rng.normal(size=(8, 112, 112, 32)).astype(np.float32))
    weight = Tensor(rng.normal(size=(3, 3, 32, 32)).astype(np.float32), requires_grad=True)
    bias = Tensor(np.zeros((1, 1, 1, 32), dtype=np.float32))
    del calls[:]
    with Tape() as tape:
        loss = reduce_sum(conv2d(x, weight, bias, stride=2))
    assert calls == [2] * 4
    del calls[:]
    tape.backward(loss)
    assert calls == [2] * 4 * 3


def test_conv2d_forward_holds_less_than_the_batch_patch_matrix():
    n, h, w, c = 8, 56, 56, 32
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(n, h, w, c)).astype(np.float32))
    weight = Tensor(rng.normal(size=(3, 3, c, c)).astype(np.float32))
    bias = Tensor(np.zeros((1, 1, 1, c), dtype=np.float32))
    patch_matrix = n * h * w * 3 * 3 * c * 4
    # From an empty pool, so that traced_peak counts the scratch it grows.
    empty_pool()
    assert traced_peak(lambda: conv2d(x, weight, bias)) < patch_matrix


def strided_stage0_conv_backward_peak(x_grad):
    """tracemalloc peak of the backward of base@224's first strided 3x3 conv
    at batch 8, replayed inside its tape as in training, and the bytes of its
    whole patch matrix."""
    n, h, w, c = 8, 112, 112, 32
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(n, h, w, c)).astype(np.float32), requires_grad=x_grad)
    weight = Tensor(rng.normal(size=(3, 3, c, c)).astype(np.float32), requires_grad=True)
    bias = Tensor(np.zeros((1, 1, 1, c), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        loss = reduce_sum(conv2d(x, weight, bias, stride=2))
        peak = traced_peak(lambda: tape.backward(loss))
    oh, ow, _ = _conv_geometry(h, w, 3, 3, 2)
    return peak, n * oh * ow * 3 * 3 * c * 4


def test_conv2d_backward_holds_no_padded_copy_of_the_batch():
    # Nor the whole patch matrix, nor a padded copy of the input gradient.
    peak, patch_matrix = strided_stage0_conv_backward_peak(x_grad=True)
    assert peak < patch_matrix


def test_conv2d_weight_gradient_holds_less_than_the_patch_matrix():
    peak, patch_matrix = strided_stage0_conv_backward_peak(x_grad=False)
    assert peak < patch_matrix


def test_conv2d_input_gradient_holds_one_tap_product():
    # What the backward must hold: the conv output's gradient, which the sum
    # writes, the input gradient and one tap's (n * oh * ow, cin) product. A
    # second live tap product would pass the limit.
    peak, _ = strided_stage0_conv_backward_peak(x_grad=True)
    n, h, w, c, oh, ow = 8, 112, 112, 32, 56, 56
    out_grad = tap = n * oh * ow * c * 4
    x_grad = n * h * w * c * 4
    assert peak < out_grad + x_grad + tap + tap // 2


@pytest.mark.parametrize("kind", ["relu", "sigmoid", "gelu"])
def test_activation_backward_holds_at_most_a_mask(kind):
    # At the shape of base@224's stem relu at batch 8. The backward overwrites
    # the output's gradient, so beyond the memory live when it starts it holds
    # at most relu's bool mask, a quarter of one float32 array of this shape.
    # A fresh product for the input's gradient would hold 2x the output's
    # bytes.
    shape = (8, 112, 112, 32)
    x = Tensor(np.random.default_rng(14).normal(size=shape).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out = activation(kind, x)
    out.grad = np.ones(shape, dtype=np.float32)
    assert traced_peak(tape.nodes[0].run) < out.grad.nbytes


# TAFE's and DCIF's input at base@224, batch 32.
FEATURE_SHAPE = (32, 14, 14, 256)


def feature_map(seed, requires_grad=False):
    data = np.random.default_rng(seed).normal(size=FEATURE_SHAPE).astype(np.float32)
    return Tensor(data, requires_grad=requires_grad)


@pytest.mark.parametrize("taped, bound", [(False, 1.5), (True, 3.5)], ids=["untaped", "taped"])
def test_gelu_forward_builds_in_place(taped, bound):
    # Untaped, the forward holds its output and _erf's small scratch; taped,
    # also the local derivative and one temporary. Building each step out of
    # place holds 2.1 and 4.0 maps.
    x = feature_map(16, requires_grad=True)
    with Tape() if taped else contextlib.nullcontext():
        peak = traced_peak(lambda: activation("gelu", x))
    assert peak < bound * x.data.nbytes


@pytest.mark.parametrize("op, bound", [(lambda x: global_pool("avg", x), 0.5), (spatial_moments, 0.5)],
                         ids=["avg_pool", "spatial_moments"])
def test_sorted_reductions_copy_no_map_to_float64(op, bound):
    # Sorting a float64 copy of the map would hold 4x the map's bytes in the
    # average pool and 8x in the moments; sorting the whole map itself, 1x
    # and 4x. Sorting one sample at a time holds 1/32 of the map's bytes; the
    # moments' float64 centered values, one sample at a time too, 1/16 more.
    # The whole batch's centered values would hold 2x.
    x = feature_map(20)
    assert traced_peak(lambda: op(x)) < bound * x.data.nbytes


def test_max_pool_forward_scans_a_sample_at_a_time():
    # argmax over the spatial axis copies what it scans with the channel axis
    # last: one sample's map, not the whole batch's, 1x.
    x = feature_map(25)
    assert traced_peak(lambda: global_pool("max", x)) < 0.5 * x.data.nbytes


@pytest.mark.parametrize("op, bound", [(hadamard, 0.5), (add, 1.5)], ids=["channel_gate", "add"])
def test_backward_builds_over_the_output_gradient(op, bound):
    # The channel gate's float64 products are formed and summed one sample at
    # a time, 1/16 of the map's bytes; the whole batch's would be 2x. The
    # map's own gradient is written over the output's; a fresh one would add
    # 1x. add hands the output's gradient on to its first operand and copies
    # it for its second; two copies would make 2x.
    x = feature_map(21, requires_grad=True)
    other = feature_map(22, requires_grad=True)
    if op is hadamard:
        other = Tensor(np.random.default_rng(23).uniform(size=(32, 1, 1, 256)).astype(np.float32),
                       requires_grad=True)
    with Tape() as tape:
        out = op(x, other)
    out.grad = np.ones(out.shape, dtype=np.float32)
    assert traced_peak(tape.nodes[0].run) < bound * x.data.nbytes


def test_spatial_moments_backward_builds_a_sample_at_a_time():
    # The float32 gradient that is handed on, plus one sample's float64
    # values. The whole batch's float64 gradient and centered values and
    # their float32 copy would hold 5x the map's bytes.
    x = feature_map(24, requires_grad=True)
    with Tape() as tape:
        mean, var = spatial_moments(x)
    mean.grad = np.ones(mean.shape, dtype=np.float32)
    var.grad = np.ones(var.shape, dtype=np.float32)
    assert traced_peak(tape.nodes[0].run) < 1.5 * x.data.nbytes


@pytest.mark.parametrize("planted", [False, True], ids=["normal", "planted"])
@pytest.mark.parametrize("shape", [(1, 20000, 1), (2, 100000, 1), (128, 196, 256)],
                         ids=["1x20000x1", "2x100000x1", "dcif_b128"])
def test_sorted_sum_of_float32_matches_a_float64_copy_bits(shape, planted):
    # With one channel the reduced axis is contiguous, where numpy sums
    # pairwise; a numpy whose casting reduction summed in other blocks than
    # the float64 copy's would move bits here. (128, 196, 256) is DCIF's
    # average pool at batch 128.
    values = np.random.default_rng(list(shape)).normal(size=shape).astype(np.float32)
    if planted:
        n, count, c = shape
        for i, special in enumerate([-0.0, 1e-40, np.inf, -np.inf, np.nan]):
            values[i % n, (37 * i) % count, i % c] = special
    with np.errstate(invalid="ignore"):
        expected = np.sort(values.astype(np.float64), axis=1).sum(axis=1)
        assert_same_bits(_sorted_sum(values), expected, "sorted sum")


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


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -1.5, 1e-40]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_backward_matches_float_mask_bits(dtype):
    # Every pairing of a special input with a special upstream gradient,
    # including inf * 0 = NaN and products that come out as -0. The expected
    # values are taken first: backward overwrites the output's gradient.
    d, g = (a.reshape(1, 8, 8, 1).astype(dtype) for a in np.meshgrid(SPECIALS, SPECIALS, indexing="ij"))
    x = Tensor(d, requires_grad=True)
    with Tape() as tape:
        out = activation("relu", x)
    out.grad = g.copy()
    expected = np.zeros_like(d)
    with np.errstate(invalid="ignore"):
        expected += g * (d > 0).astype(dtype)
        tape.nodes[0].run()
    assert_same_bits(x.grad, expected, "relu input gradient")


def out_of_place_conv_input_grad(g, weight, x_shape, stride):
    """conv2d's input gradient with a fresh array per tap, summed as conv2d
    sums it and then copied as ``+ 0``. Where two NaNs meet, the sign of the
    sum depends on numpy's loop for the operands' strides, so the reference
    adds the same slices."""
    n, h, w, cin = x_shape
    kh, kw, _, cout = weight.shape
    oh, ow, (pt, _, pl, _) = _conv_geometry(h, w, kh, kw, stride)
    g2 = g.reshape(n * oh * ow, cout)
    gx = np.zeros(x_shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            spans = _tap_span(i, pt, h, oh, stride), _tap_span(j, pl, w, ow, stride)
            if None not in spans:
                (out_h, in_h), (out_w, in_w) = spans
                gx[:, in_h, in_w] += (g2 @ weight[i, j].T).reshape(n, oh, ow, cin)[:, out_h, out_w]
    return gx + 0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, stride", [(1, 1), (3, 1), (3, 2)])
def test_conv2d_input_gradient_matches_out_of_place_bits(k, stride, dtype):
    # An upstream gradient full of -0, infinities and NaN, written straight
    # into the output's slot.
    rng = np.random.default_rng(k * 10 + stride)
    x = Tensor(rng.normal(size=(2, 5, 4, 3)).astype(dtype), requires_grad=True)
    weight = Tensor(rng.normal(size=(k, k, 3, 4)).astype(dtype), requires_grad=True)
    bias = Tensor(np.zeros((1, 1, 1, 4), dtype=dtype), requires_grad=True)
    with Tape() as tape:
        out = conv2d(x, weight, bias, stride=stride)
    g = rng.choice(np.array(SPECIALS), size=out.shape).astype(dtype)
    out.grad = g.copy()
    with np.errstate(invalid="ignore", over="ignore"):
        expected = out_of_place_conv_input_grad(g, weight.data, x.shape, stride)
        tape.nodes[0].run()
    assert_same_bits(x.grad, expected, "conv2d input gradient")


@pytest.mark.parametrize("x_dtype, w_dtype", [(np.float32, np.float32), (np.float64, np.float64),
                                              (np.float32, np.float64)], ids=["float32", "float64", "mixed"])
@pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
@pytest.mark.parametrize("stride", [1, 2])
def test_1x1_conv_input_gradient_lands_with_zero_filled_bits(stride, held, x_dtype, w_dtype):
    # The reference sums the 1x1 term into zeros of the input's dtype and
    # adds that to the gradient the input already holds, if any. Output pixel
    # (0, 0, 0) gets an upstream gradient of -0; at (0, 0, 1) channel 0's
    # terms cancel to 0; at (0, 0, 2) the held gradient cancels the term.
    rng = np.random.default_rng([41, stride, held])
    x_shape, cout = (2, 5, 6, 3), 4
    x = Tensor(rng.normal(size=x_shape).astype(x_dtype), requires_grad=True)
    weight = Tensor(rng.normal(size=(1, 1, 3, cout)).astype(w_dtype))
    weight.data[0, 0, 0, :2] = [0.75, -0.75]
    with Tape() as tape:
        out = conv2d(x, weight, Tensor(np.zeros((1, 1, 1, cout), dtype=w_dtype)), stride=stride)
    g = rng.normal(size=out.shape).astype(w_dtype)
    g[0, 0, 0] = -0.0
    g[0, 0, 1] = [1.0, 1.0, 0.0, 0.0]
    expected = out_of_place_conv_input_grad(g, weight.data, x_shape, stride).astype(x_dtype)
    if held:
        x.grad = rng.normal(size=x_shape).astype(x_dtype)
        x.grad[0, 0, 2 * stride] = -expected[0, 0, 2 * stride]
        expected = x.grad + expected
    out.grad = g
    tape.nodes[0].run()
    assert (expected == 0).sum() >= (3 if held else 4)
    assert_same_bits(x.grad, expected, "1x1 conv input gradient")
    assert not np.signbit(x.grad[x.grad == 0]).any()


def test_strided_1x1_backward_adds_into_the_held_gradient():
    # base@224's stage-0 projection at batch 8, whose input's gradient
    # conv_a's backward has already built. The term goes in place into that
    # gradient through the (n * oh * ow, cin) product, a quarter of the
    # input's bytes; an input-sized buffer of zeros would hold 1.25x.
    n, h, w, c = 8, 112, 112, 32
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(n, h, w, c)).astype(np.float32), requires_grad=True)
    weight = Tensor(rng.normal(size=(1, 1, c, c)).astype(np.float32), requires_grad=True)
    bias = Tensor(np.zeros((1, 1, 1, c), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        out = conv2d(x, weight, bias, stride=2)
    out.grad = np.ones(out.shape, dtype=np.float32)
    x.grad = np.zeros(x.shape, dtype=np.float32)
    assert traced_peak(tape.nodes[0].run) < 0.5 * x.data.nbytes


def closure_arrays(node):
    """The ndarrays a tape node's backward holds directly, as their owners."""
    for cell in node.run.__closure__ or ():
        obj = cell.cell_contents
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            yield obj


def _conv(k, stride):
    def op(x):
        rng = np.random.default_rng(k * 10 + stride)
        w = Tensor(rng.normal(size=(k, k, 8, 8)).astype(np.float32), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 1, 1, 8)).astype(np.float32), requires_grad=True)
        return conv2d(x, w, b, stride=stride)
    return op


@pytest.mark.parametrize(
    "op, reads",
    [
        (_conv(3, 1), "input"),
        (_conv(3, 2), "input"),
        (_conv(1, 2), "input"),
        (lambda x: activation("relu", x), "output"),
        (lambda x: activation("sigmoid", x), "derivative"),
        (lambda x: activation("gelu", x), "derivative"),
        (lambda x: spatial_moments(x)[0], "input"),
    ],
    ids=["conv3x3_s1", "conv3x3_s2", "conv1x1_s2", "relu", "sigmoid", "gelu", "spatial_moments"],
)
def test_tape_keeps_no_input_sized_arrays(op, reads):
    # Backward rebuilds im2col matrices, relu masks and centered values from
    # the one array its formula reads, the op's own input or output, so the
    # tape keeps that array and nothing else as large. sigmoid and gelu keep
    # their local derivative instead, and neither their input nor output.
    x = Tensor(np.random.default_rng(6).normal(size=(2, 8, 8, 8)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out = op(x)
    (node,) = tape.nodes
    large = [a for a in closure_arrays(node) if a.nbytes >= x.data.nbytes]
    if reads == "derivative":
        assert len(large) == 1 and large[0] is not x.data and large[0] is not out.data
    else:
        assert [id(a) for a in large] == [id(x.data if reads == "input" else out.data)]


def zero_fill_accum(shape, dtype, grads):
    """The plain accumulation: a zero-filled buffer, then += each gradient."""
    buf = np.zeros(shape, dtype=dtype)
    for g in grads:
        buf += np.asarray(g, dtype=dtype).reshape(shape)
    return buf


def special_grads(dtype, layout):
    # SPECIALS plus a NaN with a payload, as a contiguous array or as the
    # cropped interior of a larger one.
    vals = np.array(SPECIALS + [0.0], dtype=dtype)
    if dtype == np.float32:
        vals[-1:].view(np.uint32)[0] = 0x7FC01234
    else:
        vals[-1:].view(np.uint64)[0] = 0x7FF8000000001234
    grid = vals.reshape(1, 3, 3, 1)
    if layout == "contiguous":
        return grid, grid[:, ::-1].copy()
    padded = np.zeros((1, 5, 5, 1), dtype=dtype)
    padded[:, 1:4, 1:4] = grid
    return padded[:, 1:4, 1:4], padded[:, 1:4, 3:0:-1]


@pytest.mark.parametrize("layout", ["contiguous", "cropped"])
@pytest.mark.parametrize("grad_dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_accum_matches_zero_fill_bits(dtype, grad_dtype, layout):
    first, second = special_grads(grad_dtype, layout)
    x = Tensor(np.zeros((1, 3, 3, 1), dtype=dtype), requires_grad=True)
    with np.errstate(invalid="ignore"):
        _accum(x, first)
        assert_same_bits(x.grad, zero_fill_accum(x.shape, dtype, [first]), "first write")
        assert x.grad.flags.c_contiguous and not np.shares_memory(x.grad, first)
        _accum(x, second)
        assert_same_bits(x.grad, zero_fill_accum(x.shape, dtype, [first, second]), "sum")


@pytest.mark.parametrize("scale", [1.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_owned_accum_adopts_the_gradient_with_the_bits_of_a_copy(dtype, scale):
    grad, _ = special_grads(dtype, "contiguous")
    payload = bits(grad).reshape(-1)[-1]
    x = Tensor(np.zeros(grad.shape, dtype=dtype), requires_grad=True)
    with np.errstate(invalid="ignore"):
        expected = np.add(grad * scale, 0)
        _accum(x, grad, owned=True)
    assert x.grad is grad
    assert_same_bits(x.grad, expected, "adopted gradient")
    flat = x.grad.reshape(-1)
    assert not np.signbit(flat[1]) and np.isnan(flat[4]) and bits(flat)[-1] == payload


@pytest.mark.parametrize("case", ["second write", "other dtype", "cropped"])
def test_owned_accum_copies_what_it_cannot_adopt(case):
    grad, _ = special_grads(np.float64 if case == "other dtype" else np.float32,
                            "cropped" if case == "cropped" else "contiguous")
    x = Tensor(np.zeros(grad.shape, dtype=np.float32), requires_grad=True)
    if case == "second write":
        _accum(x, np.ones_like(grad))
    given = [g for g in (x.grad, grad) if g is not None]
    expected = zero_fill_accum(x.shape, np.float32, given)
    untouched = grad.copy()
    with np.errstate(invalid="ignore"):
        _accum(x, grad, owned=True)
    assert not np.shares_memory(x.grad, grad)
    assert_same_bits(grad, untouched, "given gradient")
    assert_same_bits(x.grad, expected, "accumulated gradient")


@pytest.mark.parametrize("shape", [(2, 5, 6, 4), (3, 1, 7, 2)])
def test_max_pool_output_same_with_and_without_tape(shape):
    data = np.random.default_rng(2).normal(size=shape).astype(np.float32)
    # A maximum tied between -0 and +0 keeps the sign of the first one.
    data[0, :, :, 0] = 0.0
    data[0, 0, 0, 0] = -0.0
    x = Tensor(data, requires_grad=True)
    untaped = global_pool("max", x)
    with Tape() as tape:
        taped = global_pool("max", x)
    assert len(tape.nodes) == 1
    assert_same_bits(untaped.data, taped.data)
    assert np.signbit(untaped.data[0, 0, 0, 0])


# Inputs to the pooling and fully connected bit tests: continuous values,
# small integers full of tied maxima, and the special values.
BIT_INPUTS = {
    "normal": lambda rng, shape, dtype: rng.normal(size=shape).astype(dtype),
    "ties": lambda rng, shape, dtype: rng.integers(-2, 2, size=shape).astype(dtype),
    "specials": lambda rng, shape, dtype: rng.choice(np.array(SPECIALS), size=shape).astype(dtype),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 1, 3), (2, 5, 6, 4), (8, 7, 7, 64)], ids=str)
@pytest.mark.parametrize("inputs", list(BIT_INPUTS))
@pytest.mark.parametrize("kind", ["avg", "max"])
def test_global_pool_matches_reference_bits(kind, inputs, shape, dtype):
    rng = np.random.default_rng(list(shape))
    data = BIT_INPUTS[inputs](rng, shape, dtype)
    upstream = BIT_INPUTS[inputs](rng, (shape[0], 1, 1, shape[3]), dtype)
    results = []
    for pool in (global_pool, reference_global_pool):
        x = Tensor(data.copy(), requires_grad=True)
        with np.errstate(invalid="ignore"):
            untaped = pool(kind, x)
            with Tape() as tape:
                out = pool(kind, x)
                tape.backward(reduce_sum(hadamard(out, Tensor(upstream))))
        results.append((untaped.data, out.data, x.grad))
    for name, a, b in zip(("untaped output", "taped output", "x grad"), *results):
        assert_same_bits(a, b, name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n, cin, cout", [(1, 4, 3), (8, 16, 4), (8, 64, 16), (8, 256, 7), (2, 256, 64)])
@pytest.mark.parametrize("inputs", ["normal", "specials"])
def test_1x1_conv_matches_reference_linear_bits(inputs, n, cin, cout, dtype):
    rng = np.random.default_rng([n, cin, cout])
    make = BIT_INPUTS[inputs]
    x = make(rng, (n, 1, 1, cin), dtype)
    weight = rng.normal(size=(1, 1, cin, cout)).astype(dtype)
    bias = rng.normal(size=(1, 1, 1, cout)).astype(dtype)
    upstream = make(rng, (n, 1, 1, cout), dtype)

    def reference(x, w, b, stride):
        return reference_conv2d_vector(x, w, b)

    with np.errstate(invalid="ignore", over="ignore"):
        fast = conv_output_and_grads(conv2d, x, weight, bias, upstream, 1)
        ref = conv_output_and_grads(reference, x, weight, bias, upstream, 1)
        untaped = [op(Tensor(x), Tensor(weight), Tensor(bias), 1).data for op in (conv2d, reference)]
    for name, a, b in zip(("output", "x grad", "weight grad", "bias grad"), fast, ref):
        assert_same_bits(a, b, name)
    assert_same_bits(*untaped, "untaped output")


# (x shape, y shape, reference) for the broadcasting product.
HADAMARD_CASES = {
    "scalar_on_vector": ((8, 1, 1, 64), (1, 1, 1, 1), reference_hadamard_scalar),
    "scalar_on_map": ((8, 7, 7, 64), (1, 1, 1, 1), reference_hadamard_scalar),
    "vector_n1": ((1, 7, 7, 64), (1, 1, 1, 64), reference_hadamard),
    "vector_n8": ((8, 7, 7, 64), (8, 1, 1, 64), reference_hadamard),
    "same_shape": ((2, 5, 6, 4), (2, 5, 6, 4), reference_hadamard),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(HADAMARD_CASES))
@pytest.mark.parametrize("inputs", ["normal", "specials"])
def test_hadamard_matches_reference_product_bits(inputs, case, dtype):
    x_shape, y_shape, reference = HADAMARD_CASES[case]
    rng = np.random.default_rng([*x_shape, *y_shape])
    make = BIT_INPUTS[inputs]
    xd, yd, upstream = make(rng, x_shape, dtype), make(rng, y_shape, dtype), make(rng, x_shape, dtype)
    results = []
    for op in (hadamard, reference):
        x = Tensor(xd.copy(), requires_grad=True)
        y = Tensor(yd.copy(), requires_grad=True)
        with np.errstate(invalid="ignore", over="ignore"):
            untaped = op(x, y)
            with Tape() as tape:
                out = op(x, y)
                tape.backward(reduce_sum(hadamard(out, Tensor(upstream))))
        results.append((untaped.data, out.data, x.grad, y.grad))
    for name, a, b in zip(("untaped output", "taped output", "x grad", "y grad"), *results):
        assert_same_bits(a, b, name)


def test_model_forward_same_with_and_without_tape():
    model = TKFNet(model_config("small", 7), seed=4)
    x = Tensor(np.random.default_rng(5).uniform(-1, 1, size=(2, 32, 32, 3)).astype(np.float32))
    logits, gate = model.forward_with_attention(x)
    with Tape():
        taped_logits, taped_gate = model.forward_with_attention(x)
    assert_same_bits(logits.data, taped_logits.data)
    assert_same_bits(gate.data, taped_gate.data)


def reference_backward(tape, loss):
    """The tape walk that releases nothing: every closure and every output
    gradient stays alive until the tape itself is dropped."""
    loss.grad = np.ones(loss.shape, dtype=loss.data.dtype)
    for node in reversed(tape.nodes):
        if any(out.grad is not None for out in node.outs):
            node.run()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_releasing_backward_matches_reference_walk_bits(dtype):
    x = np.random.default_rng(8).uniform(-1, 1, size=(3, 32, 32, 3)).astype(dtype)
    grads = []
    for walk in (Tape.backward, reference_backward):
        model = TKFNet(model_config("small", 7), seed=6, dtype=dtype)
        with Tape() as tape:
            loss = softmax_cross_entropy(model(Tensor(x)), np.array([0, 3, 6]))
        walk(tape, loss)
        grads.append({p.name: p.grad for p in model.parameters()})
    released, reference = grads
    assert list(released) == list(reference)
    for name, g in reference.items():
        assert_same_bits(released[name], g, f"{name} gradient")
