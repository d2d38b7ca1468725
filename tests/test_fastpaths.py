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
    _sorted_sum,
    _taping,
    activation,
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


def reference_linear(x, weight, bias):
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

    _record("linear", (out,), run)
    return out


def reference_pool(kind, x):
    """Adaptive pooling to a (1, 1) grid: one region, the whole input."""
    n, h, w, c = x.shape
    region = x.data.reshape(n, -1, c)
    if kind == "avg":
        y = (_sorted_sum(region.astype(np.float64), 1) / region.shape[1]).astype(x.dtype)
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

    _record(f"adaptive_pool[{kind}]", (out,), run)
    return out


def reference_scale(x, s):
    """Product with a (1, 1, 1, 1) scalar, whose gradient is a flat sum."""
    out = Tensor(x.data * s.data, requires_grad=x.requires_grad or s.requires_grad)

    def run():
        g = out.grad
        if x.requires_grad:
            _accum(x, g * s.data)
        if s.requires_grad:
            _accum(s, (g.astype(np.float64) * x.data).sum().reshape(1, 1, 1, 1))

    _record("scale", (out,), run)
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

    _record("hadamard", (out,), run)
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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", CONV_SHAPES, ids=lambda s: "n{}_{}x{}_{}to{}_k{}s{}_same".format(*s))
def test_conv2d_matches_reference_bits(shape, dtype):
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
    # including inf * 0 = NaN and products that come out as -0.
    d, g = (a.reshape(1, 8, 8, 1).astype(dtype) for a in np.meshgrid(SPECIALS, SPECIALS, indexing="ij"))
    x = Tensor(d, requires_grad=True)
    with Tape() as tape:
        out = activation("relu", x)
    out.grad = g
    expected = np.zeros_like(d)
    with np.errstate(invalid="ignore"):
        tape.nodes[0].run()
        expected += g * (d > 0).astype(dtype)
    assert_same_bits(x.grad, expected, "relu input gradient")


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
        (lambda x: spatial_moments(x)[0], "input"),
    ],
    ids=["conv3x3_s1", "conv3x3_s2", "conv1x1_s2", "relu", "spatial_moments"],
)
def test_tape_keeps_no_input_sized_arrays(op, reads):
    # Backward rebuilds im2col matrices, relu masks and centered values from
    # the one array its formula reads, the op's own input or output, so the
    # tape keeps that array and nothing else as large.
    x = Tensor(np.random.default_rng(6).normal(size=(2, 8, 8, 8)).astype(np.float32), requires_grad=True)
    with Tape() as tape:
        out = op(x)
    (node,) = tape.nodes
    large = [a for a in closure_arrays(node) if a.nbytes >= x.data.nbytes]
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
    for pool in (global_pool, reference_pool):
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

    def linear(x, w, b, stride):
        return reference_linear(x, w, b)

    with np.errstate(invalid="ignore", over="ignore"):
        fast = conv_output_and_grads(conv2d, x, weight, bias, upstream, 1)
        ref = conv_output_and_grads(linear, x, weight, bias, upstream, 1)
        untaped = [op(Tensor(x), Tensor(weight), Tensor(bias), 1).data for op in (conv2d, linear)]
    for name, a, b in zip(("output", "x grad", "weight grad", "bias grad"), fast, ref):
        assert_same_bits(a, b, name)
    assert_same_bits(*untaped, "untaped output")


# (x shape, y shape, reference) for the broadcasting product.
HADAMARD_CASES = {
    "scalar_on_vector": ((8, 1, 1, 64), (1, 1, 1, 1), reference_scale),
    "scalar_on_map": ((8, 7, 7, 64), (1, 1, 1, 1), reference_scale),
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
