"""The names that ``bench/spans.py`` patches from outside the package.

The benchmark's tracer replaces these names with timing wrappers and does
not check first that they exist, so deleting or renaming one would break
``bench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from tkfnet import cli, train
from tkfnet.tensor import Tape

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
