"""Outside-in span tracing for the tkfnet benchmark.

Nothing here changes the package: a ``Tracer`` replaces names with timing
wrappers where the package's modules look them up (the op functions each
module imports, ``Tape.backward``, the CLI's loaders) and replaces a model's
sub-modules with timing proxies. ``Tracer.restore`` puts every original back.

Spans nest on a stack, so each span knows how much of its own time its
children covered. Span time and tape counts accumulate into the open *unit*:
a training step, an evaluation batch or an inference request. Per-layer
metrics are medians over the units of a run; call counts are run totals.
"""

import contextlib
import statistics
import time
from collections import Counter

import numpy as np

BLOCKS = [f"stage{s}.block{b}" for s in range(3) for b in range(2)]
OPS = [
    "conv2d", "linear", "activation", "spatial_moments", "adaptive_pool",
    "hadamard", "scale", "add", "concat_channels", "softmax_cross_entropy",
]
# Modules whose imported op names are wrapped; each op is wrapped wherever
# one of these modules imported it.
OP_MODULES = ["layers", "backbone", "tafe", "dcif", "train"]

# (metric, unit) in the order the traced run reports them.
PER_LAYER = (
    [("data.preprocess_ms", "ms"), ("data.load_image_ms", "ms"),
     ("backbone.stem.fwd_ms", "ms")]
    + [(f"backbone.{b}.fwd_ms", "ms") for b in BLOCKS]
    + [("tafe.fwd_ms", "ms"), ("dcif.fwd_ms", "ms"), ("loss.fwd_ms", "ms")]
    + [m for op in OPS for m in ((f"op.{op}.calls", "count"), (f"op.{op}.fwd_ms", "ms"))]
    + [("tape.bwd_ms", "ms"), ("tape.nodes", "count"), ("tape.kept_mb", "MiB"),
       ("tape.grad_subnormal_share", "fraction"),
       ("optim.step_ms", "ms"), ("eval.batch_ms", "ms"),
       ("model.build_ms", "ms"), ("weights.read_ms", "ms"), ("model.load_state_ms", "ms"),
       ("cli.self_ms", "ms"), ("trace.overhead", "fraction")]
)


def kept_bytes(nodes):
    """Distinct ndarray bytes reachable from the closures of tape nodes.

    Views count once, through the array that owns their buffer.
    """
    from tkfnet.tensor import Tensor

    seen = {}
    stack = [cell.cell_contents for node in nodes for cell in (node.run.__closure__ or ())]
    visited = set()
    while stack:
        obj = stack.pop()
        if id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            seen[id(obj)] = obj.nbytes
        elif isinstance(obj, Tensor):
            stack.extend(a for a in (obj.data, obj.grad) if a is not None)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return sum(seen.values())


def subnormal_counts(nodes):
    """(subnormal, nonzero) element counts over the float32 output gradients."""
    tiny = np.finfo(np.float32).tiny
    subnormal = nonzero = 0
    for node in nodes:
        for out in node.outs:
            g = out.grad
            if g is None or g.dtype != np.float32:
                continue
            mag = np.abs(g)
            nonzero += int(np.count_nonzero(mag))
            subnormal += int(np.count_nonzero((mag > 0) & (mag < tiny)))
    return subnormal, nonzero


class _TimedModule:
    """Proxy that times calls to a model sub-module and delegates the rest."""

    def __init__(self, tracer, name, inner):
        self._call = tracer.wrap(name, inner.__call__)
        self._inner = inner

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self._stack = []  # [name, child seconds] per open span
        self._unit = None  # (kind, {metric: value}) of the open unit
        self.units = {"train": [], "eval": [], "infer": []}
        self.loose = {}  # span name -> seconds, for spans outside any unit
        self.calls = Counter()
        self.subnormal = 0
        self.nonzero = 0
        self._saved = []
        self.eval_mode = False

    # -- spans and units ---------------------------------------------------

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            if self._unit is not None:
                self.calls[name] += 1
            self._stack.append([name, 0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                _, child = self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self._add(name, dur)
                if name == "cli":
                    self._add("cli.self", dur - child)
        return timed

    def _add(self, name, value):
        if self._unit is None:
            self.loose.setdefault(name, []).append(value)
        else:
            values = self._unit[1]
            values[name] = values.get(name, 0.0) + value

    def begin(self, kind):
        self._unit = (kind, {})

    def boundary(self):
        """Close the open unit and open the next one of the same kind."""
        kind, values = self._unit
        self.units[kind].append(values)
        self.begin(kind)

    def end(self):
        """Drop the open unit; it holds no completed step."""
        self._unit = None

    # -- installing wrappers ----------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        from tkfnet import cli, train
        from tkfnet.tensor import Tape

        for mod_name in OP_MODULES:
            module = importlib.import_module(f"tkfnet.{mod_name}")
            for op in OPS:
                if hasattr(module, op):
                    self._patch(module, op, self.wrap(f"op.{op}", getattr(module, op)))
        self._patch(train, "compute_loss", self.wrap("loss", train.compute_loss))
        self._patch(train, "preprocess", self.wrap("data.preprocess", train.preprocess))
        self._patch(cli, "preprocess", self.wrap("data.preprocess", cli.preprocess))
        self._patch(cli, "load_image", self.wrap("data.load_image", cli.load_image))
        self._patch(cli, "read_weights", self.wrap("weights.read", cli.read_weights))
        self._patch(cli, "TKFNet", self._model_factory(cli.TKFNet))
        self._patch(Tape, "backward", self._backward(Tape.backward))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _model_factory(self, cls):
        build = self.wrap("model.build", cls)

        def factory(*args, **kwargs):
            return self.instrument(build(*args, **kwargs))
        return factory

    def instrument(self, model):
        """Time the model's forward, load path and sub-modules."""
        backbone = model.backbone
        backbone.stem = _TimedModule(self, "backbone.stem", backbone.stem)
        for s, stage in enumerate(backbone.stages):
            for b, block in enumerate(stage):
                stage[b] = _TimedModule(self, f"backbone.stage{s}.block{b}", block)
        model.tafe = _TimedModule(self, "tafe", model.tafe)
        model.dcif = _TimedModule(self, "dcif", model.dcif)
        model.load_state = self.wrap("model.load_state", model.load_state)
        forward = self.wrap("model.fwd", model.forward_with_attention)

        def forward_with_attention(images):
            out = forward(images)
            if self.eval_mode:
                self.boundary()
            return out
        model.forward_with_attention = forward_with_attention
        return model

    def instrument_optimizer(self, optimizer):
        step = self.wrap("optim.step", optimizer.step)

        def timed_step():
            step()
            self.boundary()
        optimizer.step = timed_step

    def _backward(self, original):
        timed = self.wrap("tape.bwd", original)

        def backward(tape, loss):
            self._add("tape.nodes", len(tape.nodes))
            self._add("tape.kept_bytes", kept_bytes(tape.nodes))
            timed(tape, loss)
            sub, nz = subnormal_counts(tape.nodes)
            self.subnormal += sub
            self.nonzero += nz
        return backward

    # -- results -------------------------------------------------------------

    def _median(self, kind, name):
        units = self.units[kind]
        if any(name in u for u in units):
            return statistics.median(u.get(name, 0.0) for u in units)
        if name in self.loose:
            return statistics.median(self.loose[name])
        return 0.0

    def metrics(self, kind, overhead):
        """Every per-layer metric; 0 where the layer did no work in the run."""
        values = {}
        for metric, unit in PER_LAYER:
            if metric.endswith(".calls"):
                value = self.calls[metric[: -len(".calls")]]
            elif metric == "tape.nodes":
                value = self._median(kind, "tape.nodes")
            elif metric == "tape.kept_mb":
                value = self._median(kind, "tape.kept_bytes") / 2**20
            elif metric == "tape.grad_subnormal_share":
                value = self.subnormal / self.nonzero if self.nonzero else 0.0
            elif metric == "eval.batch_ms":
                batches = self.units["eval"]
                value = 1000 * statistics.median(
                    u.get("data.preprocess", 0.0) + u.get("model.fwd", 0.0) for u in batches
                ) if batches else 0.0
            elif metric == "trace.overhead":
                value = overhead
            else:
                span = metric[: -len("_ms")].removesuffix(".fwd")
                value = 1000 * self._median(kind, span)
            values[metric] = {"value": value, "unit": unit}
        return values
