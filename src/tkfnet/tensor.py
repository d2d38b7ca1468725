"""Rank-4 tensor arithmetic with reverse-mode differentiation.

Every value handled by the network is a dense (batch, height, width, channel)
array: feature maps directly, convolution kernels as (kh, kw, cin, cout),
weight matrices as (1, 1, cin, cout), per-channel vectors as (n, 1, 1, c) and
scalars as (1, 1, 1, 1). Storage defaults to float32 and may be float64 for
verification work; reductions always accumulate in float64. The purely
spatial reductions (moments, average pooling) sum their operands in sorted
order, so spatially permuting an input reproduces the reduced values bit for
bit.

Differentiable calls record onto the innermost active ``Tape``. Replaying a
tape visits operations in exact reverse execution order and accumulates into
``.grad`` buffers, so a tensor consumed twice receives the sum of both
contributions.
"""

import math
import threading

import numpy as np
from scipy.special import erf

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Fault-injection hook for verification tooling: every gradient written by a
# backward pass is scaled by this factor. Must stay at 1.0 in normal use; the
# gradcheck negative-control test flips it to prove the oracle catches a
# wrong backward.
_GRAD_FAULT_SCALE = 1.0


class ShapeError(ValueError):
    """An operand's shape violates the operation's contract."""


class Tensor:
    """Dense rank-4 value container.

    Axis order is (batch, height, width, channel), row-major with the
    channel axis fastest. ``data`` is always contiguous.
    """

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank 4, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Named learnable tensor.

    The gradient buffer is cleared by the optimizer after every step, so each
    step starts from zero accumulated gradient.
    """

    def __init__(self, name, data):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape}, dtype={self.data.dtype.name})"


class _TapeNode:
    __slots__ = ("op", "outs", "run")

    def __init__(self, op, outs, run):
        self.op = op
        self.outs = outs
        self.run = run


class Tape:
    """Execution-ordered record of differentiable operations.

    ``backward`` replays the record in exact reverse execution order. A tape
    is single-threaded; independent tapes on different threads do not
    interact.
    """

    _local = threading.local()

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        self._stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stack().pop()
        return False

    @classmethod
    def _stack(cls):
        stack = getattr(cls._local, "stack", None)
        if stack is None:
            stack = []
            cls._local.stack = stack
        return stack

    @classmethod
    def active(cls):
        stack = cls._stack()
        return stack[-1] if stack else None

    def backward(self, loss):
        """Seed d(loss)/d(loss) = 1 and accumulate gradients for every input."""
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        loss.grad = np.ones(loss.shape, dtype=loss.data.dtype)
        for node in reversed(self.nodes):
            if any(out.grad is not None for out in node.outs):
                node.run()


def _record(op, outs, run):
    tape = Tape.active()
    if tape is not None and any(out.requires_grad for out in outs):
        tape.nodes.append(_TapeNode(op, outs, run))


def _taping(requires_grad):
    """Whether ``_record`` will keep an op whose outputs have ``requires_grad``.

    Values that only a backward pass reads are computed under this check.
    """
    return requires_grad and Tape.active() is not None


def _accum(tensor, grad):
    if not tensor.requires_grad:
        return
    if _GRAD_FAULT_SCALE != 1.0:
        grad = grad * _GRAD_FAULT_SCALE
    if tensor.grad is None:
        tensor.grad = np.zeros_like(tensor.data)
    tensor.grad += np.asarray(grad, dtype=tensor.data.dtype).reshape(tensor.shape)


def scalar_tensor(value, dtype=DEFAULT_DTYPE):
    """Wrap a python number as a (1, 1, 1, 1) tensor."""
    return Tensor(np.full((1, 1, 1, 1), value, dtype=dtype))


def channel_vector(values, dtype=DEFAULT_DTYPE):
    """Wrap a 1-D sequence as a (1, 1, 1, c) tensor."""
    arr = np.asarray(values, dtype=dtype).reshape(1, 1, 1, -1)
    return Tensor(arr)


def _sorted_sum(values, axis):
    # Summing in sorted order makes the result independent of the original
    # element order, which keeps spatial reductions permutation-invariant at
    # the bit level.
    return np.sort(values, axis=axis).sum(axis=axis)


def _conv_geometry(h, w, kh, kw, stride, padding):
    if padding == "same":
        oh = -(-h // stride)
        ow = -(-w // stride)
        pad_h = max((oh - 1) * stride + kh - h, 0)
        pad_w = max((ow - 1) * stride + kw - w, 0)
        pads = (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)
    elif padding == "valid":
        if h < kh or w < kw:
            raise ShapeError(
                f"valid convolution needs input at least {kh}x{kw}, got {h}x{w}"
            )
        oh = (h - kh) // stride + 1
        ow = (w - kw) // stride + 1
        pads = (0, 0, 0, 0)
    else:
        raise ValueError(f"unknown padding mode {padding!r}; expected 'same' or 'valid'")
    return oh, ow, pads


def conv2d(x, weight, bias, stride=1, padding="same"):
    """2-D convolution over (n, h, w, c) with kernel (kh, kw, cin, cout).

    Args:
        x: input tensor (n, h, w, cin).
        weight: kernel tensor (kh, kw, cin, cout).
        bias: per-output-channel bias (1, 1, 1, cout).
        stride: positive step applied to both spatial axes.
        padding: 'same' (zero-padded, output ceil(h/stride)) or 'valid'.
    """
    n, h, w, cin = x.shape
    kh, kw, wcin, cout = weight.shape
    if wcin != cin:
        raise ShapeError(
            f"conv2d input has {cin} channels (shape {x.shape}) but the kernel "
            f"expects {wcin} (shape {weight.shape})"
        )
    if bias.shape != (1, 1, 1, cout):
        raise ShapeError(f"conv2d bias must be (1, 1, 1, {cout}), got {bias.shape}")
    if not isinstance(stride, int) or stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    oh, ow, (pt, pb, pl, pr) = _conv_geometry(h, w, kh, kw, stride, padding)

    padded = (n, pt + h + pb, pl + w + pr, cin)
    if (kh, kw, stride) == (1, 1, 1):
        # The input itself is the im2col matrix of a 1x1 stride-1 kernel.
        cols = x.data.reshape(n * h * w, cin)
    else:
        if padded == x.shape:
            xp = x.data
        else:
            xp = np.zeros(padded, dtype=x.dtype)
            xp[:, pt : pt + h, pl : pl + w, :] = x.data
        windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
        windows = windows[:, ::stride, ::stride]
        patches = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
        cols = patches.reshape(n * oh * ow, kh * kw * cin)
    kernel = weight.data
    wmat = kernel.reshape(kh * kw * cin, cout)
    y = (cols @ wmat).reshape(n, oh, ow, cout) + bias.data.reshape(cout)

    grad_needed = x.requires_grad or weight.requires_grad or bias.requires_grad
    out = Tensor(y, requires_grad=grad_needed)

    def run():
        g = out.grad
        g2 = g.reshape(n * oh * ow, cout)
        if weight.requires_grad:
            _accum(weight, (cols.T @ g2).reshape(kh, kw, cin, cout))
        if bias.requires_grad:
            _accum(bias, g.astype(np.float64).sum(axis=(0, 1, 2)).reshape(1, 1, 1, cout))
        if x.requires_grad:
            # One (cin, cout) slice of the kernel per tap: the same products
            # and sums as the full im2col gradient, without its kh*kw-fold
            # copy of the input.
            gxp = np.zeros(padded, dtype=x.dtype)
            for i in range(kh):
                for j in range(kw):
                    window = gxp[:, i : i + oh * stride : stride, j : j + ow * stride : stride, :]
                    window += (g2 @ kernel[i, j].T).reshape(n, oh, ow, cin)
            _accum(x, gxp[:, pt : pt + h, pl : pl + w, :])

    _record("conv2d", (out,), run)
    return out


def linear(x, weight, bias):
    """Fully connected layer on channel vectors.

    ``x`` must be (n, 1, 1, cin); ``weight`` is a (1, 1, cin, cout) matrix and
    ``bias`` a (1, 1, 1, cout) vector.
    """
    n, h, w, cin = x.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"linear expects (n, 1, 1, c) inputs, got {x.shape}")
    kh, kw, wcin, cout = weight.shape
    if (kh, kw) != (1, 1) or wcin != cin:
        raise ShapeError(
            f"linear weight must be (1, 1, {cin}, cout), got {weight.shape}"
        )
    if bias.shape != (1, 1, 1, cout):
        raise ShapeError(f"linear bias must be (1, 1, 1, {cout}), got {bias.shape}")

    x2 = x.data.reshape(n, cin)
    wmat = weight.data.reshape(cin, cout)
    y = (x2 @ wmat + bias.data.reshape(cout)).reshape(n, 1, 1, cout)
    out = Tensor(y, requires_grad=x.requires_grad or weight.requires_grad or bias.requires_grad)

    def run():
        g2 = out.grad.reshape(n, cout)
        if x.requires_grad:
            _accum(x, (g2 @ wmat.T).reshape(n, 1, 1, cin))
        if weight.requires_grad:
            _accum(weight, (x2.T @ g2).reshape(1, 1, cin, cout))
        if bias.requires_grad:
            _accum(bias, g2.astype(np.float64).sum(axis=0).reshape(1, 1, 1, cout))

    _record("linear", (out,), run)
    return out


def _sigmoid_values(d):
    y = np.empty_like(d)
    pos = d >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    y[~pos] = ez / (1.0 + ez)
    # Clamp to the largest open sub-interval of (0, 1) so saturated inputs
    # still map strictly inside the interval.
    info = np.finfo(d.dtype)
    np.clip(y, info.tiny, 1.0 - info.epsneg, out=y)
    return y


def activation(kind, x):
    """Elementwise nonlinearity: 'relu', 'sigmoid' or 'gelu'.

    The gelu is the exact Gaussian-CDF form x * Phi(x), not a tanh fit.
    """
    d = x.data
    if kind == "relu":
        y = np.maximum(d, 0)
    elif kind == "sigmoid":
        y = _sigmoid_values(d)
    elif kind == "gelu":
        cdf = 0.5 * (1.0 + erf(d * _INV_SQRT2))
        y = d * cdf
    else:
        raise ValueError(f"unknown activation {kind!r}; expected 'relu', 'sigmoid' or 'gelu'")
    out = Tensor(y, requires_grad=x.requires_grad)
    if not _taping(out.requires_grad):
        return out
    if kind == "relu":
        local = (d > 0).astype(d.dtype)
    elif kind == "sigmoid":
        local = y * (1.0 - y)
    else:
        local = cdf + d * np.exp(-0.5 * d * d) * _INV_SQRT_2PI

    def run():
        _accum(x, out.grad * local)

    _record(f"activation[{kind}]", (out,), run)
    return out


def spatial_moments(x):
    """Per-channel mean and population variance over the spatial extent.

    Returns two (n, 1, 1, c) tensors. The variance divides by h * w, not
    h * w - 1.
    """
    n, h, w, c = x.shape
    if h * w == 0:
        raise ShapeError(f"spatial_moments needs a non-empty spatial extent, got {x.shape}")
    count = h * w
    flat = x.data.reshape(n, count, c).astype(np.float64)
    mean64 = _sorted_sum(flat, 1) / count
    centered = flat - mean64[:, None, :]
    var64 = _sorted_sum(centered * centered, 1) / count

    grad_needed = x.requires_grad
    mean = Tensor(mean64.reshape(n, 1, 1, c).astype(x.dtype), requires_grad=grad_needed)
    var = Tensor(var64.reshape(n, 1, 1, c).astype(x.dtype), requires_grad=grad_needed)

    def run():
        gx = np.zeros((n, count, c))
        if mean.grad is not None:
            gx += mean.grad.reshape(n, 1, c) / count
        if var.grad is not None:
            # d var / d x_i = 2 (x_i - mean) / count; the mean's own
            # dependence cancels because the centered values sum to zero.
            gx += var.grad.reshape(n, 1, c) * 2.0 * centered / count
        _accum(x, gx.reshape(x.shape))

    _record("spatial_moments", (mean, var), run)
    return mean, var


def _pool_regions(extent, target):
    bounds = []
    for i in range(target):
        lo = (i * extent) // target
        hi = -((-(i + 1) * extent) // target)
        bounds.append((lo, hi))
    return bounds


def adaptive_pool(kind, x, out_size):
    """Adaptive spatial pooling to a fixed (oh, ow) grid.

    Region (i, j) covers rows [floor(i*h/oh), ceil((i+1)*h/oh)) and the
    analogous columns. 'avg' averages each region; 'max' takes the maximum,
    routing the gradient to the first maximum in row-major scan order. With
    no tape recording, 'max' skips locating the maximum; the value keeps its
    bits, except that a maximum tied between +0 and -0 may take either sign.
    """
    n, h, w, c = x.shape
    oh, ow = out_size
    if not (1 <= oh <= h and 1 <= ow <= w):
        raise ShapeError(
            f"adaptive_pool target {out_size} must be within the input extent ({h}, {w})"
        )
    if kind not in ("avg", "max"):
        raise ValueError(f"unknown pooling kind {kind!r}; expected 'avg' or 'max'")

    rows = _pool_regions(h, oh)
    cols = _pool_regions(w, ow)
    y = np.empty((n, oh, ow, c), dtype=x.dtype)
    taping = _taping(x.requires_grad)
    argmax = {} if kind == "max" else None
    for i, (r0, r1) in enumerate(rows):
        for j, (c0, c1) in enumerate(cols):
            region = x.data[:, r0:r1, c0:c1, :].reshape(n, -1, c)
            if kind == "avg":
                y[:, i, j, :] = (_sorted_sum(region.astype(np.float64), 1) / region.shape[1]).astype(x.dtype)
            elif taping:
                idx = region.argmax(axis=1)
                y[:, i, j, :] = np.take_along_axis(region, idx[:, None, :], axis=1)[:, 0, :]
                argmax[(i, j)] = idx
            else:
                y[:, i, j, :] = region.max(axis=1)

    out = Tensor(y, requires_grad=x.requires_grad)

    def run():
        g = out.grad
        gx = np.zeros(x.shape)
        batch_idx = np.arange(n)[:, None]
        chan_idx = np.arange(c)[None, :]
        for i, (r0, r1) in enumerate(rows):
            for j, (c0, c1) in enumerate(cols):
                if kind == "avg":
                    count = (r1 - r0) * (c1 - c0)
                    gx[:, r0:r1, c0:c1, :] += g[:, i : i + 1, j : j + 1, :] / count
                else:
                    idx = argmax[(i, j)]
                    rcols = c1 - c0
                    np.add.at(
                        gx,
                        (batch_idx, r0 + idx // rcols, c0 + idx % rcols, chan_idx),
                        g[:, i, j, :],
                    )
        _accum(x, gx)

    _record(f"adaptive_pool[{kind}]", (out,), run)
    return out


def hadamard(x, y):
    """Elementwise product of (n, h, w, c) with either the same shape or a
    per-channel vector (n, 1, 1, c) broadcast across the spatial extent."""
    n, h, w, c = x.shape
    if y.shape == x.shape:
        vector = False
    elif y.shape == (n, 1, 1, c):
        vector = True
    else:
        raise ShapeError(
            f"hadamard operands {x.shape} and {y.shape} match neither elementwise "
            f"nor as a channel-vector broadcast"
        )
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


def scale(x, s):
    """Multiply a tensor by a learnable (1, 1, 1, 1) scalar."""
    if s.shape != (1, 1, 1, 1):
        raise ShapeError(f"scale factor must be (1, 1, 1, 1), got {s.shape}")
    out = Tensor(x.data * s.data, requires_grad=x.requires_grad or s.requires_grad)

    def run():
        g = out.grad
        if x.requires_grad:
            _accum(x, g * s.data)
        if s.requires_grad:
            _accum(s, (g.astype(np.float64) * x.data).sum().reshape(1, 1, 1, 1))

    _record("scale", (out,), run)
    return out


def add(x, y):
    """Elementwise sum of two same-shape tensors."""
    if x.shape != y.shape:
        raise ShapeError(f"add needs matching shapes, got {x.shape} and {y.shape}")
    out = Tensor(x.data + y.data, requires_grad=x.requires_grad or y.requires_grad)

    def run():
        g = out.grad
        _accum(x, g)
        _accum(y, g)

    _record("add", (out,), run)
    return out


def concat_channels(a, b):
    """Concatenate two tensors along the channel axis."""
    na, ha, wa, ca = a.shape
    nb, hb, wb, _ = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(
            f"concat_channels needs matching leading axes, got {a.shape} and {b.shape}"
        )
    out = Tensor(
        np.concatenate([a.data, b.data], axis=3),
        requires_grad=a.requires_grad or b.requires_grad,
    )

    def run():
        g = out.grad
        _accum(a, g[..., :ca])
        _accum(b, g[..., ca:])

    _record("concat_channels", (out,), run)
    return out


def reduce_sum(x):
    """Sum every element into a (1, 1, 1, 1) tensor (float64 accumulation)."""
    total = x.data.astype(np.float64).sum()
    out = Tensor(np.full((1, 1, 1, 1), total).astype(x.dtype), requires_grad=x.requires_grad)

    def run():
        _accum(x, np.broadcast_to(out.grad.reshape(()), x.shape))

    _record("reduce_sum", (out,), run)
    return out


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    ``logits`` must be (n, 1, 1, q); ``labels`` an integer array of length n
    with values in [0, q). The softmax is max-shifted and the gradient is
    (softmax - onehot) / n.
    """
    n, h, w, q = logits.shape
    if (h, w) != (1, 1):
        raise ShapeError(f"softmax_cross_entropy expects (n, 1, 1, q) logits, got {logits.shape}")
    if n == 0:
        raise ShapeError("softmax_cross_entropy needs at least one sample")
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(
            f"labels must be a length-{n} vector to match the logits, got shape {labels.shape}"
        )
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= q:
        bad = labels[(labels < 0) | (labels >= q)][0]
        raise ValueError(f"label {bad} is outside [0, {q})")

    z = logits.data.reshape(n, q).astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    denom = ez.sum(axis=1, keepdims=True)
    probs = ez / denom
    rows = np.arange(n)
    log_true = z[rows, labels] - np.log(denom[:, 0])
    value = -log_true.sum() / n
    out = Tensor(np.full((1, 1, 1, 1), value).astype(logits.dtype), requires_grad=logits.requires_grad)

    def run():
        g = float(out.grad.reshape(()))
        d = probs.copy()
        d[rows, labels] -= 1.0
        d *= g / n
        _accum(logits, d.reshape(n, 1, 1, q))

    _record("softmax_cross_entropy", (out,), run)
    return out
