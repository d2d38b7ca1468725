"""Central finite-difference verification of the differentiation tape.

``grad_check`` compares tape gradients of a scalar computation against
two-sided finite differences. Two tables of randomized probe cases feed it:
``OP_CASES``, cases named ``<op>`` or ``<op>_<variant>`` after the ops of
``tensor.OPS``, swept over many draws at a step of 1e-3, and
``MODULE_CASES``, one row per network block, the loss and the whole network,
at ``MODULE_EPS``. ``run_suite`` runs the sweep, then the rows. The cases
run in float64 so the difference quotients keep enough significant digits to
certify the 1e-3 and 1e-2 tolerances.
"""

from functools import partial

import numpy as np

from .backbone import build_backbone
from .dcif import DCIF
from .layers import he_normal
from .model import PRESETS, TKFNet, model_config
from .tafe import TAFE
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
# The module rows' central-difference step. A step of 1e-3 crosses a relu or
# max-pool kink somewhere in a whole network at some seeds. In float64, the
# round-off of a quotient at 1e-5 stays far below the tolerances, except on
# gradients near zero.
MODULE_EPS = 1e-5


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


def _conv_into_grad_case(x_shape, stride):
    """Probe of a 1x1 conv whose input also feeds an op recorded after it, so
    the conv's backward adds into the gradient the input already holds."""
    conv = _conv_case(1, x_shape, stride=stride)

    def build(rng, dtype):
        f, inputs = conv(rng, dtype)
        cx = _weight_tensor(rng, x_shape, dtype)

        def g(x, *rest):
            return add(f(x, *rest), reduce_sum(hadamard(x, cx)))

        return g, inputs

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
    "activation_relu": _probe(partial(activation, "relu"), _draw(_MAP, avoid=(0.0, 0.05))),
    "activation_sigmoid": _probe(partial(activation, "sigmoid"), _draw(_MAP)),
    "activation_gelu": _probe(partial(activation, "gelu"), _draw(_MAP, avoid=(-0.7518, 0.15))),
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
    # A 1x1 conv's input term goes in place into the gradient its input
    # already holds, at stride 1 and at stride 2.
    "conv2d_1x1_into_grad": _conv_into_grad_case((2, 3, 3, 3), stride=1),
    "conv2d_1x1_stride2_into_grad": _conv_into_grad_case((2, 3, 3, 3), stride=2),
}


def per_op_sweep(seeds=100):
    """Run every op case over ``seeds`` random draws; return {op: max error}."""
    results = {}
    for op_index, (name, builder) in enumerate(OP_CASES.items()):
        worst = 0.0
        for s in range(seeds):
            rng = np.random.default_rng([97, op_index, s])
            f, inputs = builder(rng, np.float64)
            worst = max(worst, grad_check(f, inputs))
        results[name] = worst
    return results


def _sample_coords(inputs, count, rng, required=()):
    offsets = np.cumsum([0] + [t.size for t in inputs])
    coords = list(required)
    want = max(count - len(coords), 0)
    picks = rng.choice(offsets[-1], size=min(want, offsets[-1]), replace=False)
    for flat in sorted(int(p) for p in picks):
        i = int(np.searchsorted(offsets, flat, side="right")) - 1
        coords.append((i, flat - int(offsets[i])))
    return coords


def _block_probe(block, shape, rng):
    """``_probe`` of ``block`` on a (-1, 1) input, over the input and the
    block's parameters, which are perturbed in place, where the block reads
    them."""
    f, (x,) = _probe(block, _draw(shape, -1.0, 1.0))(rng, np.float64)
    return (lambda x, *_: f(x)), [x] + block.parameters()


def _live_branches(module, rng):
    # Each residual block's conv_b starts at zero, so the branch is 0 and its
    # conv_a gets no gradient at all; draw conv_b He-normal instead.
    for p in module.parameters():
        if p.name.endswith(".conv_b.weight"):
            p.data[:] = he_normal(rng, p.shape, np.prod(p.shape[:3]), p.dtype)


def _backbone_case(seed):
    backbone = build_backbone(PRESETS["small"], seed=seed, dtype=np.float64)
    _live_branches(backbone, np.random.default_rng([211, seed, 1]))
    rng = np.random.default_rng([211, seed])
    f, inputs = _block_probe(backbone, (1, 8, 8, 3), rng)
    coords = [(0, j) for j in range(inputs[0].size)] + _sample_coords(inputs, 100, rng)
    return f, inputs, coords


def _tafe_case(seed):
    block = TAFE(4, rng=np.random.default_rng([223, seed, 1]), dtype=np.float64)
    return (*_block_probe(block, (1, 4, 4, 4), np.random.default_rng([223, seed])), None)


def _dcif_case(seed):
    rng = np.random.default_rng([227, seed])
    block = DCIF(4, classes=3, rng=np.random.default_rng([227, seed, 1]), dtype=np.float64)
    x = Tensor(_separated(rng, (2, 2, 2, 4), np.float64), requires_grad=True)
    labels = rng.integers(0, 3, size=2)

    def f(*_):
        logits, _gate = block(x)
        return softmax_cross_entropy(logits, labels)

    return f, [x] + block.parameters(), None


def _loss_case(seed):
    return (*_case_cross_entropy(np.random.default_rng([229, seed]), np.float64), None)


def _model_case(seed):
    model = TKFNet(model_config("small"), seed=seed, dtype=np.float64)
    _live_branches(model, np.random.default_rng([233, seed, 1]))
    rng = np.random.default_rng([233, seed])
    x = Tensor(_uniform(rng, (1, 16, 16, 3), np.float64, -1.0, 1.0))
    labels = rng.integers(0, model.config.classes, size=1)

    def f(*_):
        return softmax_cross_entropy(model(x), labels)

    params = model.parameters()
    required = [(i, 0) for i, p in enumerate(params) if p.name in ("tafe.alpha", "tafe.beta")]
    return f, params, _sample_coords(params, 50, rng, required=required)


# The module rows of the suite, in order: name -> (case, tolerance). A case
# maps a seed to (f, inputs, coords), the arguments of ``grad_check``, with
# coords None to probe every element.
MODULE_CASES = {
    "backbone": (_backbone_case, MODULE_TOLERANCE),
    "tafe": (_tafe_case, MODULE_TOLERANCE),
    "dcif": (_dcif_case, MODULE_TOLERANCE),
    "train": (_loss_case, OP_TOLERANCE),
    "full-model": (_model_case, MODULE_TOLERANCE),
}


def check_module(name, seed=0):
    """The worst relative error of ``MODULE_CASES[name]`` drawn at ``seed``."""
    f, inputs, coords = MODULE_CASES[name][0](seed)
    return grad_check(f, inputs, eps=MODULE_EPS, coords=coords)


def run_suite(seed=0, op_seeds=100, progress=None):
    """{row: (maximum relative error, tolerance)}: the op sweep as
    ``tensor-core``, then every ``MODULE_CASES`` row, up to and including the
    first row out of tolerance.

    ``progress`` is called with (name, error, tolerance) after each row.
    """
    rows = [("tensor-core", lambda: max(per_op_sweep(op_seeds).values()), OP_TOLERANCE)]
    rows += [(name, partial(check_module, name, seed), tol) for name, (_, tol) in MODULE_CASES.items()]
    results = {}
    for name, check, tolerance in rows:
        err = check()
        results[name] = (err, tolerance)
        if progress is not None:
            progress(name, err, tolerance)
        if not err <= tolerance:
            break
    return results
