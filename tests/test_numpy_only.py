"""The package imports nothing beyond the standard library and numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import tkfnet
from tkfnet.data import encode_ppm
from tkfnet.model import TKFNet, model_config
from tkfnet.weights import write_weights

PACKAGE = Path(tkfnet.__file__).resolve().parent


def run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, tkfnet.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    result = run_python(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_infer_runs_with_scipy_blocked(tmp_path):
    weights = tmp_path / "weights.tkfw"
    write_weights(weights, TKFNet(model_config("small", 3), seed=0).state_arrays())
    (tmp_path / "manifest.txt").write_text("input_size=16\n")
    image = tmp_path / "face.ppm"
    pixels = np.random.default_rng(0).uniform(size=(1, 16, 16, 3)).astype(np.float32)
    image.write_bytes(encode_ppm(pixels))
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tkfnet.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    result = run_python(code, "infer", str(weights), str(image))
    assert result.returncode == 0, result.stderr
    lines = [line for line in result.stdout.splitlines() if not line.startswith("# ")]
    assert lines[0].startswith("predicted class")
    assert [line.split()[:2] for line in lines[1:]] == [["prob", f"class{i}"] for i in range(3)]


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_stdlib_or_numpy_or_relative():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    found = {
        path.name: sorted(set(_imported_roots(ast.parse(path.read_text(encoding="utf-8")))) - allowed)
        for path in sources
    }
    assert {name: roots for name, roots in found.items() if roots} == {}
