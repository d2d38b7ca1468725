"""Rank-4 tensor arithmetic with reverse-mode differentiation.

Every value handled by the network is a dense (batch, height, width, channel)
array: feature maps directly, convolution kernels as (kh, kw, cin, cout),
per-channel vectors as (n, 1, 1, c) and scalars as (1, 1, 1, 1). Scalars and
vectors multiply a map through ``hadamard``, which broadcasts them. A fully
connected layer is a 1x1 kernel applied to a (n, 1, 1, cin) vector,
convolutions pad "same", and pooling is global, from (n, h, w, c) to
(n, 1, 1, c). Storage defaults to float32 and may be float64 for
verification work; reductions always accumulate in float64. The purely
spatial reductions (moments, average pooling) sort their operands in the
operands' own dtype and sum them in that order, so spatially permuting an
input reproduces the reduced values bit for bit. The module needs numpy
alone: the error function behind gelu, ``_erf``, ports the Cephes rational
approximation that ``scipy.special.erf`` evaluates and gives scipy's float32
bits.

The differentiable ops, registered in ``OPS`` by ``@_op``, record onto the
innermost active ``Tape`` of the calling thread, in nodes named after the op
plus any kind, such as ``conv2d`` or ``activation[relu]``. Replaying a tape
visits operations in exact reverse execution order and accumulates into
``.grad`` buffers, so a tensor consumed twice receives the sum of both
contributions.

A tensor's gradient lives apart from its value, in a small ``_GradSlot``
that holds the shape, dtype, ``requires_grad`` flag and ``grad`` buffer; the
tensor's ``grad`` and ``requires_grad`` read and write its slot. A recorded op
keeps its tensors' slots and, of their values, only the arrays its derivative
formula reads: a convolution its input, when the kernel needs a gradient, and
its kernel; relu its output; ``spatial_moments`` its input; ``hadamard`` each
operand when the other needs a gradient. ``add``, ``concat_channels``,
``global_pool``, ``reduce_sum`` and ``softmax_cross_entropy`` keep no tensor
data. So once the caller drops an intermediate tensor, a value that no
backward reads, such as a convolution's or a sum's output, is freed during the
forward pass. Beyond those arrays an op keeps only small values, such as
per-channel means, softmax probabilities or max-pool indices, and the local
derivative of sigmoid and gelu. Backward rebuilds what a copy or a comparison
gives back: a convolution's im2col matrix, relu's mask and the centered values
of ``spatial_moments``. The rebuilt values carry the forward pass's own bits,
so gradients do not change.

A convolution's forward builds its im2col patch matrix and multiplies it a
block of whole samples at a time, each block at least ``_PATCH_BLOCK``
elements, so it never holds the whole batch's matrix; a 1x1 stride-1
kernel's matrix is the block of input itself. One rule, in ``_scratch``,
decides where a convolution's patch and padded-input scratch lives: while the
calling thread has a ``Tape`` active, ``_scratch`` empties that thread's pool
and allocates afresh; otherwise it hands out the thread's pooled buffer for the
role, each in its own anonymous ``mmap`` grown to the largest request seen.
Every padded buffer has its border zeroed on every call. Backward rebuilds
the matrix for the kernel gradient through one reused buffer, a kernel row at
a time when each kernel row's columns hold at least ``_PATCH_BLOCK``
elements, and whole, for one product, below that. Either way the samples are
padded one of the forward's blocks at a time in one reused buffer, never in a
padded copy of the batch. The input gradient is summed tap by tap into an
unpadded buffer, which then becomes the input's gradient; each tap's product
goes through one reused buffer. A 1x1 kernel has one tap, whose product is
the gradient itself at stride 1; at a larger stride, when the input already
holds a gradient, the product is added into it in place.

A tape replays once. Right after a node has run, or has been skipped because
none of its outputs received a gradient, backward drops the node's closure,
its outputs' slots and their gradients, so the arrays the closure kept and
the intermediate gradients are freed as the walk goes. Afterwards only
leaves, the tensors that no recorded op produced (inputs and parameters),
hold a ``.grad``.

Gradients follow one ownership rule: a slot's ``grad`` is always an array
that the slot alone holds, and it never holds -0. Every backward hands each
gradient array it builds to ``_accum(..., owned=True)``, which adopts it, with
the bits of the copy it no longer makes, when it has the slot's shape and
dtype. Since a node's output gradients are dropped as soon as the node has
run, the node may build its input's gradient over them: the activations
multiply their output's gradient in place, ``add`` hands it to its first
operand and ``hadamard`` writes its first operand's gradient over it. As
the slot owns its gradient, a 1x1 convolution adds its input's term into it
in place. The sorted reductions, ``spatial_moments``' centered values and
gradient, max pooling's argmax and the float64 products behind a channel
gate's gradient go a sample at a time, so no copy of the whole batch's map
is made.
"""

import math
import mmap
import threading

import numpy as np

DEFAULT_DTYPE = np.float32

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Coefficients of the Cephes ndtr.c erf and erfc, highest degree first:
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1 and erfc(x) = exp(-x^2) P(x) / Q(x)
# for 1 < x < 8. The leading 1.0 of U and Q is the one Cephes' p1evl implies.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
# Elements per pass of _erf: its four float64 scratch rows stay in cache.
_ERF_BLOCK = 1 << 14
# Least patch elements per block of conv2d's forward, 4 MiB of float32. Smaller
# blocks can fall on OpenBLAS's small-matrix GEMM path, whose bits differ from
# those of the whole batch's GEMM. That blocks of this size keep the whole
# GEMM's bits was checked under OpenBLAS 0.3.31's SkylakeX and SandyBridge
# kernels; under its Haswell and Prescott kernels it does not hold.
_PATCH_BLOCK = 1 << 20
# The calling thread's reused convolution scratch while no Tape is active, one
# buffer per role, each in its own anonymous mapping. See _scratch.
_POOL = threading.local()
# The differentiable ops, name -> function, in the order they are defined.
OPS = {}


class _TapeStack(threading.local):
    """The calling thread's entered tapes, innermost last, as ``stack``."""

    def __init__(self):
        self.stack = []


_TAPES = _TapeStack()


class ShapeError(ValueError):
    """An operand's shape violates the operation's contract."""


class _GradSlot:
    """The gradient side of a tensor, without its value: what a tape node
    keeps of the tensors it reads and writes."""

    __slots__ = ("shape", "dtype", "requires_grad", "grad")

    def __init__(self, shape, dtype, requires_grad):
        self.shape = shape
        self.dtype = dtype
        self.requires_grad = requires_grad
        self.grad = None


class Tensor:
    """Dense rank-4 value container.

    Axis order is (batch, height, width, channel), row-major with the
    channel axis fastest. ``data`` is always contiguous. ``grad`` and
    ``requires_grad`` live in the tensor's ``_GradSlot``.
    """

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.ndim != 4:
            raise ShapeError(f"tensors are rank 4, got shape {arr.shape}")
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = np.ascontiguousarray(arr)
        self._slot = _GradSlot(self.data.shape, self.data.dtype, bool(requires_grad))

    @property
    def requires_grad(self):
        return self._slot.requires_grad

    @requires_grad.setter
    def requires_grad(self, value):
        self._slot.requires_grad = bool(value)

    @property
    def grad(self):
        return self._slot.grad

    @grad.setter
    def grad(self, value):
        self._slot.grad = value

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

    def release(self):
        # A method, so that no loop variable outlives the call and keeps the
        # last output alive while earlier nodes run.
        for out in self.outs:
            out.grad = None
        self.outs = ()
        self.run = None


class Tape:
    """Execution-ordered record of differentiable operations.

    ``backward`` replays the record once, in exact reverse execution order,
    and releases each node as soon as it has run: its closure, its outputs
    and their gradients. ``nodes`` keeps each node's ``op`` name, so the
    record of which ops ran outlives the replay. Each thread has its own
    stack of entered tapes: ops record onto the innermost active tape of the
    calling thread.
    """

    def __init__(self):
        self.nodes = []
        self.replayed = False

    def __enter__(self):
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPES.stack.pop()
        return False

    @staticmethod
    def active():
        """The innermost active tape of the calling thread, or None."""
        stack = _TAPES.stack
        return stack[-1] if stack else None

    def backward(self, loss):
        """Seed d(loss)/d(loss) = 1 and accumulate gradients into the leaves.

        Every recorded output, the loss included, ends with ``grad`` None.
        """
        if loss.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
        if self.replayed:
            raise RuntimeError(
                "tape already replayed: its first backward released the recorded "
                "values and gradients; record a new tape"
            )
        self.replayed = True
        loss.grad = np.ones(loss.shape, dtype=loss.data.dtype)
        for node in reversed(self.nodes):
            if any(out.grad is not None for out in node.outs):
                node.run()
            node.release()


def _op(fn):
    """Register ``fn`` in ``OPS`` under its name and return it unchanged."""
    OPS[fn.__name__] = fn
    return fn


def _record(outs, run, kind=None):
    """Keep ``run``, the backward of ``outs``, on the active tape, named after
    the op whose body defines ``run``, plus ``[kind]`` when given."""
    tape = Tape.active()
    if tape is not None and any(out.requires_grad for out in outs):
        op = run.__qualname__.partition(".")[0] + ("" if kind is None else f"[{kind}]")
        tape.nodes.append(_TapeNode(op, tuple(out._slot for out in outs), run))


def _taping(requires_grad):
    """Whether ``_record`` will keep an op whose outputs have ``requires_grad``.

    Values that only a backward pass reads are computed under this check.
    """
    return requires_grad and Tape.active() is not None


def _accum(slot, grad, owned=False, stride=1):
    """Add ``grad`` into the gradient of ``slot``, a ``_GradSlot`` or a tensor.

    A slot's ``grad`` is always an array that the slot alone holds, and it
    never holds -0. With ``owned`` the caller gives ``grad`` up: when the slot
    has no gradient yet and ``grad`` is a C-contiguous array of the slot's
    shape and dtype, it has 0 added in place and becomes the slot's
    gradient. That gives the bits of the copy made otherwise: -0
    becomes +0, and a NaN stays NaN. With ``stride`` above 1, ``grad`` is the
    gradient of every ``stride``-th row and column of an (n, h, w, c) slot
    that already holds a gradient, and is added into those pixels in place.
    """
    if not slot.requires_grad:
        return
    if stride > 1:
        slot.grad[:, ::stride, ::stride] += grad
        return
    if (owned and slot.grad is None and grad.shape == slot.shape
            and grad.dtype == slot.dtype and grad.flags.c_contiguous):
        slot.grad = np.add(grad, 0, out=grad)
        return
    if slot.grad is None:
        # g + 0 in the slot's dtype, in one pass: the bits of adding g to a
        # zero-filled buffer, -0 becoming +0 included.
        slot.grad = np.add(np.reshape(grad, slot.shape), 0, dtype=slot.dtype, order="C")
    else:
        slot.grad += np.asarray(grad, dtype=slot.dtype).reshape(slot.shape)


def _sorted_sum(values, center=None):
    # The float64 sum of (n, count, c) values over axis 1 or, given an (n, c)
    # float64 ``center``, of their squared deviations from it. Summing in
    # sorted order makes the result independent of the original element order,
    # which keeps spatial reductions permutation-invariant at the bit level.
    # Widening to float64 is exact and keeps the order, so sorting in the
    # input's dtype gives the bits of sorting a float64 copy. A sample at a
    # time, only one sample's centered and sorted copies are held.
    out = np.empty((values.shape[0], values.shape[2]))
    for b, sample in enumerate(values):
        if center is not None:
            sample = sample - center[b]
            sample *= sample
        out[b] = np.sort(sample, axis=0).sum(axis=0, dtype=np.float64)
    return out


def _scratch(role, shape, dtype):
    """A ``shape`` and ``dtype`` scratch array for ``role``, uninitialized:
    while the calling thread has a ``Tape`` active, a fresh array, after the
    thread's pool has been emptied; otherwise a view of the thread's pooled buffer for
    ``role``, grown to the largest request seen.

    Each pooled buffer is an anonymous ``mmap``, outside the malloc heap: it
    stays mapped from one untaped forward to the next, so later forwards
    fault none of its pages in again, and emptying the pool unmaps it
    without leaving a hole in the heap for later allocations to fragment
    around. Emptying it on every call while a ``Tape`` is active keeps its
    buffers from sitting beside a taped step's own.
    """
    if Tape.active() is not None:
        vars(_POOL).clear()
        return np.empty(shape, dtype=dtype)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    raw = getattr(_POOL, role, None)
    if raw is None or raw.size < nbytes:
        raw = np.frombuffer(mmap.mmap(-1, max(nbytes, 1)), dtype=np.uint8)
        setattr(_POOL, role, raw)
    return raw[:nbytes].view(dtype).reshape(shape)


def _conv_geometry(h, w, kh, kw, stride):
    oh = -(-h // stride)
    ow = -(-w // stride)
    pad_h = max((oh - 1) * stride + kh - h, 0)
    pad_w = max((ow - 1) * stride + kw - w, 0)
    return oh, ow, (pad_h // 2, pad_h - pad_h // 2, pad_w // 2, pad_w - pad_w // 2)


def _im2col(data, kh, kw, stride, pads, oh, ow, out, kernel_rows=None):
    """The (n * oh * ow, kh * kw * cin) patch matrix of a convolution input,
    written into the caller's buffer ``out``.

    Row (b, i, j) holds the zero-padded kh x kw window under output pixel
    (i, j) of sample b, taps in row-major order with channels fastest. With
    ``kernel_rows = (r0, r1)`` only the columns of taps in kernel rows r0 to
    r1 - 1 are written, an (n * oh * ow, (r1 - r0) * kw * cin) matrix. A 1x1
    stride-1 kernel's matrix is the input itself, as a view. Otherwise the
    windows are copied straight into the matrix one block of
    ``_sample_blocks`` at a time, from the input itself or, when the kernel
    pads, from one padded buffer sized for the largest block, whose zero
    border is written on every call: the ``_scratch`` "pad" buffer, fresh
    while a ``Tape`` is active and the thread's pooled one otherwise.
    """
    n, h, w, cin = data.shape
    if (kh, kw, stride) == (1, 1, 1):
        return data.reshape(n * h * w, cin)
    r0, r1 = kernel_rows or (0, kh)
    dst = out.reshape(n, oh, ow, r1 - r0, kw, cin)
    pt, pb, pl, pr = pads
    blocks = _sample_blocks(n, oh * ow * kh * kw * cin)
    if any(pads):
        xp = _scratch("pad", (n - blocks[-1][0], pt + h + pb, pl + w + pr, cin), data.dtype)
        xp[:, :pt] = xp[:, pt + h :] = 0
        xp[:, :, :pl] = xp[:, :, pl + w :] = 0
    for start, stop in blocks:
        src = data[start:stop]
        if any(pads):
            xp[: stop - start, pt : pt + h, pl : pl + w] = src
            src = xp[: stop - start]
        windows = np.lib.stride_tricks.sliding_window_view(src, (kh, kw), axis=(1, 2))
        dst[start:stop] = windows[:, ::stride, ::stride, :, r0:r1].transpose(0, 1, 2, 4, 5, 3)
    return out


def _tap_span(tap, pad, extent, out_extent, stride):
    """(output slice, input slice) along one axis: the output positions whose
    window puts kernel tap ``tap`` inside the input, and the input positions
    it reads there. None when it reads none."""
    first = max(0, -((tap - pad) // stride))
    stop = min(out_extent, -((tap - pad - extent) // stride))
    if stop <= first:
        return None
    start = first * stride + tap - pad
    return slice(first, stop), slice(start, start + (stop - first - 1) * stride + 1, stride)


def _sample_blocks(n, per_sample):
    """Sample bounds of the forward's patch-matrix blocks: each block holds
    at least ``_PATCH_BLOCK`` elements, a trailing remainder smaller than a
    block joins the block before it, and a batch smaller than one block is a
    single block."""
    step = max(1, -(-_PATCH_BLOCK // max(per_sample, 1)))
    blocks = max(1, n // step)
    return [(b * step, n if b == blocks - 1 else (b + 1) * step) for b in range(blocks)]


@_op
def conv2d(x, weight, bias, stride=1):
    """2-D convolution over (n, h, w, c) with kernel (kh, kw, cin, cout),
    zero-padded "same": the output is (n, ceil(h/stride), ceil(w/stride), cout).

    Args:
        x: input tensor (n, h, w, cin).
        weight: kernel tensor (kh, kw, cin, cout).
        bias: per-output-channel bias (1, 1, 1, cout).
        stride: positive step applied to both spatial axes.
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
    oh, ow, pads = _conv_geometry(h, w, kh, kw, stride)
    rows, depth = oh * ow, kh * kw * cin
    wmat = weight.data.reshape(depth, cout)
    # The patch matrix of one block of whole samples at a time, each written
    # into the same buffer and multiplied into its rows of y. y comes after
    # the buffer: allocated first, it left the batch-1 infer bench's peak RSS
    # 1.6 MiB higher in 12 of 16 runs on a 2-CPU host. The buffer, and the
    # padded one, come from _scratch: fresh while a Tape is active, the
    # thread's pooled ones otherwise.
    blocks = _sample_blocks(n, rows * depth)
    buf = _scratch("patch", ((n - blocks[-1][0]) * rows, depth), x.dtype)
    y = np.empty((n * rows, cout), dtype=np.result_type(x.data, wmat, bias.data))
    for start, stop in blocks:
        cols = _im2col(x.data[start:stop], kh, kw, stride, pads, oh, ow, buf[: (stop - start) * rows])
        np.matmul(cols, wmat, out=y[start * rows : stop * rows])
    y = y.reshape(n, oh, ow, cout)
    y += bias.data.reshape(cout)

    out = Tensor(y, requires_grad=x.requires_grad or weight.requires_grad or bias.requires_grad)
    x_slot, w_slot, b_slot, out_slot = x._slot, weight._slot, bias._slot, out._slot
    x_data = x.data if weight.requires_grad else None
    w_data = weight.data

    def run():
        g2 = out_slot.grad.reshape(n * oh * ow, cout)
        if x_data is not None:
            # The same copy of the input as in the forward pass, rebuilt
            # rather than kept on the tape, and freed before the input
            # gradient is allocated. When each kernel row's columns hold at
            # least _PATCH_BLOCK elements, it is built and multiplied a kernel
            # row at a time through one reused buffer; otherwise in one GEMM,
            # since a split small GEMM can round differently.
            band = kw * cin
            step = 1 if n * oh * ow * band >= _PATCH_BLOCK else kh
            gw = np.empty((kh * band, cout), dtype=np.result_type(x_data, g2))
            buf = np.empty((n * oh * ow, step * band), dtype=x_data.dtype)
            for r0 in range(0, kh, step):
                cols = _im2col(x_data, kh, kw, stride, pads, oh, ow, buf, kernel_rows=(r0, r0 + step))
                np.matmul(cols.T, g2, out=gw[r0 * band : (r0 + step) * band])
            del cols, buf
            _accum(w_slot, gw.reshape(kh, kw, cin, cout), owned=True)
        if b_slot.requires_grad:
            _accum(b_slot, g2.sum(axis=0, dtype=np.float64).reshape(1, 1, 1, cout), owned=True)
        if x_slot.requires_grad:
            # One (cin, cout) slice of the kernel per tap: the same products
            # and sums as the full im2col gradient, without its kh*kw-fold
            # copy of the input. Each tap adds only into the input pixels it
            # reads, so no padded buffer is needed, and every tap's product
            # goes through one reused buffer.
            pt, _, pl, _ = pads
            tap = np.empty((n * oh * ow, cin), dtype=np.result_type(g2, w_data))
            gtap = tap.reshape(n, oh, ow, cin)
            if ((kh, kw) == (1, 1) and tap.dtype == x_slot.dtype
                    and (stride == 1 or x_slot.grad is not None)):
                # A 1x1 kernel gives each input pixel at most one term, so the
                # term needs no zero-filled buffer: at stride 1 it is the
                # gradient itself, and at a larger stride it is added in place
                # into the gradient the input already holds. _accum turns -0
                # into +0, so the bits are those of the loop below. With mixed
                # dtypes the loop keeps its cast order.
                np.matmul(g2, w_data[0, 0].T, out=tap)
                _accum(x_slot, gtap, owned=True, stride=stride)
                return
            gx = np.zeros((n, h, w, cin), dtype=x_slot.dtype)
            for i in range(kh):
                span_h = _tap_span(i, pt, h, oh, stride)
                for j in range(kw):
                    span_w = _tap_span(j, pl, w, ow, stride)
                    if span_h is None or span_w is None:
                        continue
                    (out_h, in_h), (out_w, in_w) = span_h, span_w
                    np.matmul(g2, w_data[i, j].T, out=tap)
                    gx[:, in_h, in_w] += gtap[:, out_h, out_w]
            _accum(x_slot, gx, owned=True)

    _record((out,), run)
    return out


def _polevl(x, coefs, out):
    """Horner's rule for the polynomial ``coefs`` at x, in Cephes' order."""
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(x):
    """The error function of a float32 or float64 array, in x's dtype,
    written over x itself when x is contiguous, and returned.

    A port of the Cephes ndtr.c approximation that ``scipy.special.erf``
    evaluates, with its operations in its order, in float64: x T(x^2) / U(x^2)
    for |x| <= 1 and sign(x) (1 - exp(-x^2) P(|x|) / Q(|x|)) up to |x| = 6,
    beyond which the difference rounds to 1. float32 results equal scipy's
    bit for bit; float64 ones may differ in the last bit, from ``np.exp``.
    Both branches run on every element, a block at a time, which measured
    faster than gathering each branch's elements.
    """
    flat = x.reshape(-1)
    scratch = np.empty((4, min(flat.size, _ERF_BLOCK)))
    for start in range(0, flat.size, _ERF_BLOCK):
        xb = flat[start : start + _ERF_BLOCK]
        a, z, y, p = scratch[:, : xb.size]
        # NaN stays NaN; infinities clip to 6 like every other |x| >= 6.
        np.minimum(np.abs(xb, out=a), 6.0, out=a)
        np.multiply(a, a, out=z)
        _polevl(z, _ERF_T, y)
        y *= a
        y /= _polevl(z, _ERF_U, p)
        erfc = np.exp(np.negative(z, out=z), out=z)
        erfc *= _polevl(a, _ERFC_P, p)
        erfc /= _polevl(a, _ERFC_Q, p)
        np.copyto(y, np.subtract(1.0, erfc, out=erfc), where=a > 1.0)
        np.copysign(y, xb, out=xb)
    return flat.reshape(x.shape)


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


@_op
def activation(kind, x):
    """Elementwise nonlinearity: 'relu', 'sigmoid' or 'gelu'.

    The gelu is the exact Gaussian-CDF form x * Phi(x), not a tanh fit, with
    Phi(x) = (1 + erf(x / sqrt 2)) / 2 and erf from ``_erf``, a numpy port of
    the Cephes approximation that scipy uses. It raises no floating-point
    warning at infinite or huge inputs: gelu(-inf) is -inf * 0, NaN.
    """
    d = x.data
    taped = _taping(x.requires_grad)
    # relu keeps its output, sigmoid and gelu their local derivative.
    if kind == "relu":
        y = local = np.maximum(d, 0)
    elif kind == "sigmoid":
        y = _sigmoid_values(d)
        local = y * (1.0 - y) if taped else None
    elif kind == "gelu":
        # cdf = 0.5 * (1.0 + _erf(d * _INV_SQRT2)), y = d * cdf and, taped,
        # local = cdf + d * np.exp(-0.5 * d * d) * _INV_SQRT_2PI: the same
        # operations in the same order, in place. Untaped, y overwrites cdf.
        cdf = _erf(np.multiply(d, _INV_SQRT2))
        cdf += 1.0
        cdf *= 0.5
        with np.errstate(over="ignore", invalid="ignore"):
            y = np.multiply(d, cdf, out=None if taped else cdf)
            if taped:
                local = np.multiply(d, -0.5)
                local *= d
                np.multiply(d, np.exp(local, out=local), out=local)
                local *= _INV_SQRT_2PI
                np.add(cdf, local, out=local)
    else:
        raise ValueError(f"unknown activation {kind!r}; expected 'relu', 'sigmoid' or 'gelu'")
    out = Tensor(y, requires_grad=x.requires_grad)
    if not taped:
        return out
    x_slot, out_slot = x._slot, out._slot

    def run():
        # relu's bool mask multiplies as 1.0 or 0.0, so the products are
        # those of a float mask without keeping one on the tape. The output's
        # gradient is dropped once this node has run, so it is overwritten
        # and handed on.
        g = out_slot.grad
        np.multiply(g, local > 0 if kind == "relu" else local, out=g)
        _accum(x_slot, g, owned=True)

    _record((out,), run, kind)
    return out


@_op
def spatial_moments(x):
    """Per-channel mean and population variance over the spatial extent.

    Returns two (n, 1, 1, c) tensors. The variance divides by h * w, not
    h * w - 1.
    """
    n, h, w, c = x.shape
    if h * w == 0:
        raise ShapeError(f"spatial_moments needs a non-empty spatial extent, got {x.shape}")
    count = h * w
    flat = x.data.reshape(n, count, c)
    mean64 = _sorted_sum(flat) / count
    var64 = _sorted_sum(flat, center=mean64) / count

    grad_needed = x.requires_grad
    mean = Tensor(mean64.reshape(n, 1, 1, c).astype(x.dtype), requires_grad=grad_needed)
    var = Tensor(var64.reshape(n, 1, 1, c).astype(x.dtype), requires_grad=grad_needed)
    x_slot, mean_slot, var_slot, x_data = x._slot, mean._slot, var._slot, x.data

    def run():
        # The float64 gradient is built one sample at a time and rounded
        # into the input's dtype, so only one sample's float64 values live.
        gm = None if mean_slot.grad is None else mean_slot.grad.reshape(n, 1, c) / count
        gv = None if var_slot.grad is None else var_slot.grad.reshape(n, 1, c) * 2.0
        gx = np.empty((n, count, c), dtype=x_slot.dtype)
        for b, sample in enumerate(x_data.reshape(n, count, c)):
            row = np.zeros((count, c))
            if gm is not None:
                row += gm[b]
            if gv is not None:
                # d var / d x_i = 2 (x_i - mean) / count; the mean's own
                # dependence cancels because the centered values sum to zero.
                centered = sample - mean64[b]
                centered *= gv[b]
                row += np.divide(centered, count, out=centered)
            gx[b] = row
        _accum(x_slot, gx.reshape(n, h, w, c), owned=True)

    _record((mean, var), run)
    return mean, var


@_op
def global_pool(kind, x):
    """Global spatial pooling of (n, h, w, c) to (n, 1, 1, c).

    'avg' averages over the whole spatial extent; 'max' takes the first
    maximum in row-major scan order, and routes the gradient to it.
    """
    n, h, w, c = x.shape
    if h * w == 0:
        raise ShapeError(f"global_pool needs a non-empty spatial extent, got {x.shape}")
    if kind not in ("avg", "max"):
        raise ValueError(f"unknown pooling kind {kind!r}; expected 'avg' or 'max'")
    count = h * w
    flat = x.data.reshape(n, count, c)
    idx = None
    if kind == "avg":
        y = (_sorted_sum(flat) / count).astype(x.dtype)
    else:
        # A sample at a time: argmax over a non-last axis makes a transposed
        # copy of what it scans.
        idx = np.empty((n, 1, c), dtype=np.intp)
        for b, sample in enumerate(flat):
            idx[b, 0] = sample.argmax(axis=0)
        y = np.take_along_axis(flat, idx, axis=1)
    out = Tensor(y.reshape(n, 1, 1, c), requires_grad=x.requires_grad)
    x_slot, out_slot = x._slot, out._slot

    def run():
        g = out_slot.grad.reshape(n, 1, c)
        if kind == "avg":
            _accum(x_slot, np.broadcast_to(g / count, (n, count, c)))
        else:
            gx = np.zeros(x_slot.shape, dtype=x_slot.dtype)
            np.put_along_axis(gx.reshape(n, count, c), idx, g, axis=1)
            _accum(x_slot, gx, owned=True)

    _record((out,), run, kind)
    return out


@_op
def hadamard(x, y):
    """Elementwise product of x with a y whose every axis has x's size or 1,
    such as a per-channel vector (n, 1, 1, c) or a scalar (1, 1, 1, 1),
    broadcast as in NumPy; y's gradient sums over its size-1 axes in float64."""
    if any(sy not in (sx, 1) for sx, sy in zip(x.shape, y.shape)):
        raise ShapeError(
            f"hadamard operands {x.shape} and {y.shape} do not broadcast: every "
            f"axis of the second must match the first or be 1"
        )
    axes = tuple(a for a, sy in enumerate(y.shape) if sy == 1)
    out = Tensor(x.data * y.data, requires_grad=x.requires_grad or y.requires_grad)
    x_slot, y_slot, out_slot = x._slot, y._slot, out._slot
    # Each operand's value is read only for the other operand's gradient.
    x_data = x.data if y.requires_grad else None
    y_data = y.data if x.requires_grad else None

    def run():
        # y's gradient reads the output's gradient, so it comes first; x's
        # is then written over it.
        g = out_slot.grad
        if x_data is not None:
            if 0 in axes:
                gy = np.multiply(g, x_data, dtype=np.float64).sum(axis=axes, keepdims=True)
            else:
                # y keeps the batch axis, as a channel gate does: its float64
                # products are formed and summed one sample at a time.
                gy = np.empty(y_slot.shape)
                sample_axes = tuple(a - 1 for a in axes)
                for b in range(len(g)):
                    gy[b] = np.multiply(g[b], x_data[b], dtype=np.float64).sum(axis=sample_axes, keepdims=True)
            _accum(y_slot, gy, owned=True)
        if y_data is not None:
            _accum(x_slot, np.multiply(g, y_data, out=g), owned=True)

    _record((out,), run)
    return out


@_op
def add(x, y):
    """Elementwise sum of two same-shape tensors."""
    if x.shape != y.shape:
        raise ShapeError(f"add needs matching shapes, got {x.shape} and {y.shape}")
    out = Tensor(x.data + y.data, requires_grad=x.requires_grad or y.requires_grad)
    x_slot, y_slot, out_slot = x._slot, y._slot, out._slot

    def run():
        g = out_slot.grad
        _accum(y_slot, g)
        _accum(x_slot, g, owned=True)

    _record((out,), run)
    return out


@_op
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
    a_slot, b_slot, out_slot = a._slot, b._slot, out._slot

    def run():
        g = out_slot.grad
        _accum(a_slot, g[..., :ca])
        _accum(b_slot, g[..., ca:])

    _record((out,), run)
    return out


@_op
def reduce_sum(x):
    """Sum every element into a (1, 1, 1, 1) tensor (float64 accumulation)."""
    total = x.data.astype(np.float64).sum()
    out = Tensor(np.full((1, 1, 1, 1), total).astype(x.dtype), requires_grad=x.requires_grad)
    x_slot, out_slot = x._slot, out._slot

    def run():
        _accum(x_slot, np.broadcast_to(out_slot.grad.reshape(()), x_slot.shape))

    _record((out,), run)
    return out


@_op
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
    logits_slot, out_slot = logits._slot, out._slot

    def run():
        g = float(out_slot.grad.reshape(()))
        d = probs.copy()
        d[rows, labels] -= 1.0
        d *= g / n
        _accum(logits_slot, d.reshape(n, 1, 1, q), owned=True)

    _record((out,), run)
    return out
