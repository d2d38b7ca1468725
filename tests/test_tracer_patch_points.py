"""The names that ``bench/spans.py`` patches from outside the package, and
the tape internals that its metrics read.

The benchmark's tracer replaces these names with timing wrappers and does
not check first that they exist, so deleting or renaming one would break
``bench/run.py --trace 1`` without failing any other test. Its tape metrics
walk ``Tape.nodes``: each node's closure cells and the gradients of its
``outs``. Its per-op metrics time the ops it lists in ``OPS``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from helpers import model_step_nodes
from tkfnet import cli, train
from tkfnet.model import TKFNet, model_config
from tkfnet.tensor import OPS, Tape, Tensor, softmax_cross_entropy

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# (owner, name) pairs that Tracer.install patches unconditionally.
PATCH_POINTS = [
    (train, "compute_loss"),
    (train, "preprocess"),
    (cli, "preprocess"),
    (cli, "load_image"),
    (cli, "read_weights"),
    (cli, "TKFNet"),
    (Tape, "backward"),
]


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(spans):
    modules = [importlib.import_module(f"tkfnet.{name}") for name in spans.OP_MODULES] + [cli]
    names = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    names["Tape.backward"] = Tape.backward
    return names


def test_tracer_patches_every_name_and_restores_the_originals():
    missing = [f"{owner.__name__}.{name}" for owner, name in PATCH_POINTS if not hasattr(owner, name)]
    assert not missing, missing
    spans = load_spans()
    before = namespaces(spans)
    originals = [getattr(owner, name) for owner, name in PATCH_POINTS]
    tracer = spans.Tracer()
    try:
        tracer.install()
        for (owner, name), original in zip(PATCH_POINTS, originals):
            assert getattr(owner, name) is not original, f"{owner.__name__}.{name} not patched"
    finally:
        tracer.restore()
    after = namespaces(spans)
    assert before.keys() == after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, changed


def test_tape_metrics_read_a_slot_based_tape():
    spans = load_spans()
    model = TKFNet(model_config("small", 3), seed=2)
    x = Tensor(np.random.default_rng(3).uniform(size=(2, 16, 16, 3)).astype(np.float32))
    with Tape() as tape:
        softmax_cross_entropy(model(x), np.array([0, 2]))
    held = {}
    for node in tape.nodes:
        for cell in node.run.__closure__ or ():
            arr = cell.cell_contents
            if isinstance(arr, np.ndarray):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                held[id(arr)] = arr.nbytes
    kept = spans.kept_bytes(tape.nodes)
    assert kept > 0
    assert kept == sum(held.values())
    assert spans.subnormal_counts(tape.nodes) == (0, 0)
    tape.nodes[-1].outs[0].grad = np.full((1, 1, 1, 1), 1e-40, dtype=np.float32)
    assert spans.subnormal_counts(tape.nodes) == (1, 1)


def test_instrumented_model_lists_the_same_parameters():
    # Module.parameters reaches the wrapped sub-modules through the proxies'
    # attribute forwarding.
    model = TKFNet(model_config("base"), seed=0)
    before = model.parameters()
    load_spans().Tracer().instrument(model)
    assert type(model.tafe).__name__ == "_TimedModule"
    assert type(model.backbone.stages[0][0]).__name__ == "_TimedModule"
    after = model.parameters()
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.xfail(strict=True, reason="bench/spans.py OPS is stale until ROADMAP item 4")
def test_bench_times_the_registered_ops_a_model_step_records():
    recorded = OPS.keys() & {n.partition("[")[0] for n in model_step_nodes()}
    assert sorted(load_spans().OPS) == sorted(recorded)
