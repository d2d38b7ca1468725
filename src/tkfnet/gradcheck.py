"""Central finite-difference verification of the differentiation tape.

``grad_check`` compares tape gradients of a scalar computation against
two-sided finite differences. The sweep helpers build randomized probe cases
for every differentiable op and for each network block; they run in float64
so the difference quotients keep enough significant digits to certify the
1e-3 and 1e-2 tolerances.
"""

from functools import partial

import numpy as np

from .tensor import (
    Tape,
    Tensor,
    activation,
    add,
    concat_channels,
    conv2d,
    global_pool,
    hadamard,
    reduce_sum,
    softmax_cross_entropy,
    spatial_moments,
)

ERROR_FLOOR = 1e-8
OP_TOLERANCE = 1e-3
MODULE_TOLERANCE = 1e-2


class GradCheckError(RuntimeError):
    """A non-finite value surfaced while probing gradients."""


def _relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), ERROR_FLOOR)


def grad_check(f, inputs, eps=1e-3, coords=None):
    """Return the worst relative error between tape and numeric gradients.

    Args:
        f: deterministic callable mapping ``*inputs`` to a scalar tensor.
        inputs: tensors whose elements are perturbed; those with
            ``requires_grad`` receive tape gradients (others count as zero).
        eps: central-difference step.
        coords: optional list of (input_index, flat_element_index) pairs to
            probe; every element of every input when omitted.

    The error at one element is |a - n| / max(|a|, |n|, 1e-8). Non-finite
    values in the forward evaluations or the tape gradients raise
    ``GradCheckError`` naming the offending coordinates.
    """
    with Tape() as tape:
        out = f(*inputs)
    if out.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued computation, got shape {out.shape}")
    if not np.isfinite(out.item()):
        raise GradCheckError("non-finite objective value at the unperturbed point")
    tape.backward(out)
    grads = []
    for i, t in enumerate(inputs):
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            bad = np.argwhere(~np.isfinite(g))[0]
            raise GradCheckError(f"non-finite tape gradient at input {i}, element {tuple(bad)}")
        grads.append(np.array(g, copy=True).reshape(-1))
        t.grad = None

    if coords is None:
        coords = [(i, j) for i, t in enumerate(inputs) for j in range(t.size)]

    worst = 0.0
    for i, j in coords:
        flat = inputs[i].data.reshape(-1)
        orig = flat[j]
        flat[j] = orig + eps
        hi = float(flat[j])
        fp = f(*inputs).item()
        flat[j] = orig - eps
        lo = float(flat[j])
        fm = f(*inputs).item()
        flat[j] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise GradCheckError(f"non-finite objective value at input {i}, element {j}")
        numeric = (fp - fm) / (hi - lo)
        worst = max(worst, _relative_error(float(grads[i][j]), numeric))
    return worst


def _shift_away(values, center, radius):
    # Finite differences lose significance where the derivative vanishes or
    # kinks; push samples out of a small band around such points.
    close = np.abs(values - center) < radius
    return values + close * np.sign(values - center + 1e-12) * (2.0 * radius)


def _uniform(rng, shape, dtype, lo=-2.0, hi=2.0):
    return rng.uniform(lo, hi, size=shape).astype(dtype)


def _weight_tensor(rng, shape, dtype):
    # Random fixed coefficients make the probe functional sensitive to which
    # output position each gradient lands in.
    return Tensor(rng.uniform(0.5, 1.5, size=shape).astype(dtype))


def _separated(rng, shape, dtype, gap=0.05, jitter=0.01):
    n = int(np.prod(shape))
    base = (rng.permutation(n) - n / 2.0) * gap
    vals = base + rng.uniform(-jitter, jitter, size=n)
    return vals.reshape(shape).astype(dtype)


def _draw(shape, lo=-2.0, hi=2.0, avoid=None):
    """Input maker: uniform values, optionally pushed out of a band ``avoid``."""

    def make(rng, dtype):
        vals = _uniform(rng, shape, dtype, lo, hi)
        return vals if avoid is None else _shift_away(vals, *avoid).astype(dtype)

    return make


def _spread(shape):
    """Input maker: distinct values, far enough apart that no maximum moves."""
    return lambda rng, dtype: _separated(rng, shape, dtype)


def _probe(op, *makers):
    """Case builder for ``reduce_sum(hadamard(op(*inputs), cw))``.

    The inputs are drawn in the order of ``makers``, then the coefficients
    ``cw`` over the shape of the op's output.
    """

    def build(rng, dtype):
        inputs = [Tensor(make(rng, dtype), requires_grad=True) for make in makers]
        cw = _weight_tensor(rng, op(*inputs).shape, dtype)

        def f(*ts):
            return reduce_sum(hadamard(op(*ts), cw))

        return f, inputs

    return build


def _conv_case(kernel, x_shape, stride=None):
    """Probe of a square-kernel conv; a None stride draws 1 or 2 per seed."""
    makers = (_draw(x_shape), _draw((kernel, kernel, x_shape[3], 2), -1.0, 1.0), _draw((1, 1, 1, 2)))

    def build(rng, dtype):
        step = int(rng.integers(1, 3)) if stride is None else stride
        return _probe(partial(conv2d, stride=step), *makers)(rng, dtype)

    return build


def _case_spatial_moments(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)
    cm = _weight_tensor(rng, (2, 1, 1, 4), dtype)
    cv = _weight_tensor(rng, (2, 1, 1, 4), dtype)

    def f(x):
        mean, var = spatial_moments(x)
        return reduce_sum(add(hadamard(mean, cm), hadamard(var, cv)))

    return f, [x]


def _case_reduce_sum(rng, dtype):
    return reduce_sum, [Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)]


def _case_cross_entropy(rng, dtype):
    logits = Tensor(_uniform(rng, (3, 1, 1, 7), dtype), requires_grad=True)
    labels = rng.integers(0, 7, size=3)

    def f(logits):
        return softmax_cross_entropy(logits, labels)

    return f, [logits]


_MAP = (2, 2, 2, 4)
_MAP3 = (2, 2, 2, 3)
_POOLED = (2, 3, 4, 3)

# Each case keeps its slot: the sweep seeds case i with [97, i, seed]. The
# gelu derivative crosses zero near x = -0.7518; relu kinks at zero.
OP_CASES = {
    "conv2d": _conv_case(2, (1, 3, 3, 2)),
    # A fully connected layer: a 1x1 conv on a (n, 1, 1, cin) vector.
    "conv2d_1x1_vector": _conv_case(1, (3, 1, 1, 4), stride=1),
    "relu": _probe(partial(activation, "relu"), _draw(_MAP, avoid=(0.0, 0.05))),
    "sigmoid": _probe(partial(activation, "sigmoid"), _draw(_MAP)),
    "gelu": _probe(partial(activation, "gelu"), _draw(_MAP, avoid=(-0.7518, 0.15))),
    "spatial_moments": _case_spatial_moments,
    "global_pool_avg": _probe(partial(global_pool, "avg"), _draw(_POOLED)),
    "global_pool_max": _probe(partial(global_pool, "max"), _spread(_POOLED)),
    "hadamard": _probe(hadamard, _draw(_MAP), _draw(_MAP)),
    "hadamard_vector": _probe(hadamard, _draw(_MAP), _draw((2, 1, 1, 4))),
    "hadamard_scalar": _probe(hadamard, _draw(_MAP3), _draw((1, 1, 1, 1))),
    "add": _probe(add, _draw(_MAP3), _draw(_MAP3)),
    "concat_channels": _probe(concat_channels, _draw(_MAP3), _draw(_MAP3)),
    "reduce_sum": _case_reduce_sum,
    "softmax_cross_entropy": _case_cross_entropy,
    # The 1x1 stride-1 conv reads its input as the im2col matrix; the
    # strided 1x1 and the 3x3 convs build it tap by tap.
    "conv2d_1x1": _conv_case(1, (2, 3, 3, 3), stride=1),
    "conv2d_1x1_stride2": _conv_case(1, (2, 3, 3, 3), stride=2),
    "conv2d_3x3": _conv_case(3, (1, 4, 5, 2)),
}


def per_op_sweep(seeds=100, eps=1e-3, dtype=np.float64):
    """Run every op case over ``seeds`` random draws; return {op: max error}."""
    results = {}
    for op_index, (name, builder) in enumerate(OP_CASES.items()):
        worst = 0.0
        for s in range(seeds):
            rng = np.random.default_rng([97, op_index, s])
            f, inputs = builder(rng, dtype)
            worst = max(worst, grad_check(f, inputs, eps=eps))
        results[name] = worst
    return results


def _sample_coords(inputs, count, rng, required=()):
    sizes = [t.size for t in inputs]
    offsets = np.cumsum([0] + sizes)
    total = offsets[-1]
    coords = list(required)
    want = max(count - len(coords), 0)
    picks = rng.choice(total, size=min(want, total), replace=False)
    for flat in sorted(int(p) for p in picks):
        i = int(np.searchsorted(offsets, flat, side="right")) - 1
        coords.append((i, flat - int(offsets[i])))
    return coords


def check_backbone(seed=0, eps=1e-3, param_samples=100):
    from .backbone import build_backbone
    from .model import PRESETS

    cfg = PRESETS["small"]
    dtype = np.float64
    backbone = build_backbone(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng([211, seed])
    f, (x,) = _probe(backbone, _draw((1, 8, 8, 3), -1.0, 1.0))(rng, dtype)
    inputs = [x] + backbone.parameters()
    coords = [(0, j) for j in range(x.size)]
    coords += _sample_coords(inputs, param_samples, rng)
    # The parameters are perturbed in place, where the block reads them.
    return grad_check(lambda x, *_: f(x), inputs, eps=eps, coords=coords)


def check_tafe(seed=0, eps=1e-3):
    from .tafe import TAFE

    dtype = np.float64
    rng = np.random.default_rng([223, seed])
    block = TAFE(4, rng=np.random.default_rng([223, seed, 1]), dtype=dtype)
    f, (x,) = _probe(block, _draw((1, 4, 4, 4), -1.0, 1.0))(rng, dtype)
    return grad_check(lambda x, *_: f(x), [x] + block.parameters(), eps=eps)


def check_dcif(seed=0, eps=1e-3):
    from .dcif import DCIF

    dtype = np.float64
    rng = np.random.default_rng([227, seed])
    block = DCIF(4, classes=3, rng=np.random.default_rng([227, seed, 1]), dtype=dtype)
    x = Tensor(_separated(rng, (2, 2, 2, 4), dtype), requires_grad=True)
    labels = rng.integers(0, 3, size=2)

    def f(*_):
        logits, _gate = block(x)
        return softmax_cross_entropy(logits, labels)

    return grad_check(f, [x] + block.parameters(), eps=eps)


def check_loss(seed=0, eps=1e-3):
    rng = np.random.default_rng([229, seed])
    f, inputs = _case_cross_entropy(rng, np.float64)
    return grad_check(f, inputs, eps=eps)


def check_model(seed=0, eps=1e-3, samples=50, input_hw=16):
    """Full-network probe: sampled parameter coordinates against finite
    differences, always including the two descriptor scalars."""
    from .model import TKFNet, model_config

    dtype = np.float64
    model = TKFNet(model_config("small"), seed=seed, dtype=dtype)
    rng = np.random.default_rng([233, seed])
    x = Tensor(_uniform(rng, (1, input_hw, input_hw, 3), dtype, -1.0, 1.0))
    labels = rng.integers(0, model.config.classes, size=1)

    def f(*_):
        return softmax_cross_entropy(model(x), labels)

    params = model.parameters()
    names = [p.name for p in params]
    required = [
        (names.index("tafe.alpha"), 0),
        (names.index("tafe.beta"), 0),
    ]
    coords = _sample_coords(params, samples, rng, required=required)
    return grad_check(f, params, eps=eps, coords=coords)


def suite_checks(seed=0, op_seeds=100, model_samples=50):
    """Ordered (name, thunk, tolerance) triples covering every module."""
    return [
        ("tensor-core", lambda: max(per_op_sweep(seeds=op_seeds).values()), OP_TOLERANCE),
        ("backbone", lambda: check_backbone(seed), MODULE_TOLERANCE),
        ("tafe", lambda: check_tafe(seed), MODULE_TOLERANCE),
        ("dcif", lambda: check_dcif(seed), MODULE_TOLERANCE),
        ("train", lambda: check_loss(seed), OP_TOLERANCE),
        ("full-model", lambda: check_model(seed, samples=model_samples), MODULE_TOLERANCE),
    ]


def run_suite(seed=0, op_seeds=100, model_samples=50, progress=None, fail_fast=False):
    """Per-module maximum relative errors with their tolerances.

    ``progress`` is called with (name, error, tolerance) after each module.
    With ``fail_fast`` the suite stops at the first module out of tolerance
    and returns the partial results.
    """
    results = {}
    for name, thunk, tolerance in suite_checks(seed, op_seeds, model_samples):
        err = thunk()
        results[name] = (err, tolerance)
        if progress is not None:
            progress(name, err, tolerance)
        if fail_fast and not err <= tolerance:
            break
    return results
