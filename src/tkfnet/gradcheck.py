"""Central finite-difference verification of the differentiation tape.

``grad_check`` compares tape gradients of a scalar computation against
two-sided finite differences. The sweep helpers build randomized probe cases
for every differentiable op and for each network block; they run in float64
so the difference quotients keep enough significant digits to certify the
1e-3 and 1e-2 tolerances.
"""

import numpy as np

from .tensor import (
    Tape,
    Tensor,
    activation,
    adaptive_pool,
    add,
    concat_channels,
    conv2d,
    hadamard,
    linear,
    reduce_sum,
    scale,
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


def _conv_case(kernel, x_shape, stride=None):
    """Probe of a square-kernel conv; a None stride draws 1 or 2 per seed."""

    def build(rng, dtype):
        step = int(rng.integers(1, 3)) if stride is None else stride
        padding = "same" if rng.integers(0, 2) else "valid"
        cin = x_shape[3]
        x = Tensor(_uniform(rng, x_shape, dtype), requires_grad=True)
        w = Tensor(_uniform(rng, (kernel, kernel, cin, 2), dtype, -1.0, 1.0), requires_grad=True)
        b = Tensor(_uniform(rng, (1, 1, 1, 2), dtype), requires_grad=True)
        probe = conv2d(x, w, b, stride=step, padding=padding)
        cw = _weight_tensor(rng, probe.shape, dtype)

        def f(x, w, b):
            return reduce_sum(hadamard(conv2d(x, w, b, stride=step, padding=padding), cw))

        return f, [x, w, b]

    return build


def _case_linear(rng, dtype):
    x = Tensor(_uniform(rng, (3, 1, 1, 4), dtype), requires_grad=True)
    w = Tensor(_uniform(rng, (1, 1, 4, 3), dtype, -1.0, 1.0), requires_grad=True)
    b = Tensor(_uniform(rng, (1, 1, 1, 3), dtype), requires_grad=True)
    probe = linear(x, w, b)
    cw = _weight_tensor(rng, probe.shape, dtype)

    def f(x, w, b):
        return reduce_sum(hadamard(linear(x, w, b), cw))

    return f, [x, w, b]


def _activation_case(kind, avoid=None):
    def build(rng, dtype):
        vals = _uniform(rng, (2, 2, 2, 4), dtype)
        if avoid is not None:
            vals = _shift_away(vals, *avoid).astype(dtype)
        x = Tensor(vals, requires_grad=True)
        cw = _weight_tensor(rng, x.shape, dtype)

        def f(x):
            return reduce_sum(hadamard(activation(kind, x), cw))

        return f, [x]

    return build


def _case_spatial_moments(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)
    cm = _weight_tensor(rng, (2, 1, 1, 4), dtype)
    cv = _weight_tensor(rng, (2, 1, 1, 4), dtype)

    def f(x):
        mean, var = spatial_moments(x)
        return reduce_sum(add(hadamard(mean, cm), hadamard(var, cv)))

    return f, [x]


def _case_avg_pool(rng, dtype):
    out_size = [(1, 1), (2, 2), (3, 3)][int(rng.integers(0, 3))]
    x = Tensor(_uniform(rng, (1, 4, 4, 4), dtype), requires_grad=True)
    cw = _weight_tensor(rng, (1, *out_size, 4), dtype)

    def f(x):
        return reduce_sum(hadamard(adaptive_pool("avg", x, out_size), cw))

    return f, [x]


def _case_max_pool(rng, dtype):
    out_size = [(1, 1), (2, 2), (3, 3)][int(rng.integers(0, 3))]
    x = Tensor(_separated(rng, (1, 4, 4, 4), dtype), requires_grad=True)
    cw = _weight_tensor(rng, (1, *out_size, 4), dtype)

    def f(x):
        return reduce_sum(hadamard(adaptive_pool("max", x, out_size), cw))

    return f, [x]


def _case_hadamard_full(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)
    y = Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)
    cw = _weight_tensor(rng, x.shape, dtype)

    def f(x, y):
        return reduce_sum(hadamard(hadamard(x, y), cw))

    return f, [x, y]


def _case_hadamard_vector(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)
    y = Tensor(_uniform(rng, (2, 1, 1, 4), dtype), requires_grad=True)
    cw = _weight_tensor(rng, x.shape, dtype)

    def f(x, y):
        return reduce_sum(hadamard(hadamard(x, y), cw))

    return f, [x, y]


def _case_scale(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 3), dtype), requires_grad=True)
    s = Tensor(_uniform(rng, (1, 1, 1, 1), dtype), requires_grad=True)
    cw = _weight_tensor(rng, x.shape, dtype)

    def f(x, s):
        return reduce_sum(hadamard(scale(x, s), cw))

    return f, [x, s]


def _case_add(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 3), dtype), requires_grad=True)
    y = Tensor(_uniform(rng, (2, 2, 2, 3), dtype), requires_grad=True)
    cw = _weight_tensor(rng, x.shape, dtype)

    def f(x, y):
        return reduce_sum(hadamard(add(x, y), cw))

    return f, [x, y]


def _case_concat(rng, dtype):
    a = Tensor(_uniform(rng, (2, 2, 2, 3), dtype), requires_grad=True)
    b = Tensor(_uniform(rng, (2, 2, 2, 3), dtype), requires_grad=True)
    cw = _weight_tensor(rng, (2, 2, 2, 6), dtype)

    def f(a, b):
        return reduce_sum(hadamard(concat_channels(a, b), cw))

    return f, [a, b]


def _case_reduce_sum(rng, dtype):
    x = Tensor(_uniform(rng, (2, 2, 2, 4), dtype), requires_grad=True)

    def f(x):
        return reduce_sum(x)

    return f, [x]


def _case_cross_entropy(rng, dtype):
    logits = Tensor(_uniform(rng, (3, 1, 1, 7), dtype), requires_grad=True)
    labels = rng.integers(0, 7, size=3)

    def f(logits):
        return softmax_cross_entropy(logits, labels)

    return f, [logits]


# The gelu derivative crosses zero near x = -0.7518; relu kinks at zero.
OP_CASES = {
    "conv2d": _conv_case(2, (1, 3, 3, 2)),
    "linear": _case_linear,
    "relu": _activation_case("relu", avoid=(0.0, 0.05)),
    "sigmoid": _activation_case("sigmoid"),
    "gelu": _activation_case("gelu", avoid=(-0.7518, 0.15)),
    "spatial_moments": _case_spatial_moments,
    "adaptive_pool_avg": _case_avg_pool,
    "adaptive_pool_max": _case_max_pool,
    "hadamard": _case_hadamard_full,
    "hadamard_vector": _case_hadamard_vector,
    "scale": _case_scale,
    "add": _case_add,
    "concat_channels": _case_concat,
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


def _probe_sum(block, x, rng, dtype):
    probe = block(x)
    cw = _weight_tensor(rng, probe.shape, dtype)

    def f(*_):
        return reduce_sum(hadamard(block(x), cw))

    return f


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
    from .model import ModelConfig

    cfg = ModelConfig.small().backbone
    dtype = np.float64
    backbone = build_backbone(cfg, seed=seed, dtype=dtype)
    rng = np.random.default_rng([211, seed])
    x = Tensor(_uniform(rng, (1, 8, 8, 3), dtype, -1.0, 1.0), requires_grad=True)
    f = _probe_sum(backbone, x, rng, dtype)
    params = backbone.parameters()
    inputs = [x] + params
    coords = [(0, j) for j in range(x.size)]
    coords += _sample_coords(inputs, param_samples, rng)
    return grad_check(f, inputs, eps=eps, coords=coords)


def check_tafe(seed=0, eps=1e-3):
    from .tafe import TAFE

    dtype = np.float64
    rng = np.random.default_rng([223, seed])
    block = TAFE(4, rng=np.random.default_rng([223, seed, 1]), dtype=dtype)
    x = Tensor(_uniform(rng, (1, 4, 4, 4), dtype, -1.0, 1.0), requires_grad=True)
    f = _probe_sum(block, x, rng, dtype)
    return grad_check(f, [x] + block.parameters(), eps=eps)


def check_dcif(seed=0, eps=1e-3):
    from .dcif import DCIF

    dtype = np.float64
    rng = np.random.default_rng([227, seed])
    block = DCIF(4, classes=3, rng=np.random.default_rng([227, seed, 1]), reduction=4, dtype=dtype)
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
    from .model import ModelConfig, TKFNet

    dtype = np.float64
    model = TKFNet(ModelConfig.small(), seed=seed, dtype=dtype)
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
