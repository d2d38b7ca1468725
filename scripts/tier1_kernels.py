"""Run the tier-1 suite once per OpenBLAS setting; print one line for each.

    python3 scripts/tier1_kernels.py [PYTEST_ARGS...]

The settings are numpy's default OpenBLAS kernel, ``OPENBLAS_CORETYPE`` set
to ``Haswell``, ``SandyBridge`` or ``Prescott``, and ``OPENBLAS_NUM_THREADS=1``.
Each runs ``python -m pytest -q --continue-on-collection-errors`` (then any
PYTEST_ARGS) from the repository root in a process of its own, one after
another, with ``src`` on ``PYTHONPATH`` and the setting's variable in that
process's environment only: neither variable is inherited from the caller.
A line gives the setting, pytest's counts and the node IDs that failed or
erred.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIABLES = ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")
SETTINGS = {
    "default": {},
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "SandyBridge": {"OPENBLAS_CORETYPE": "SandyBridge"},
    "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "one-thread": {"OPENBLAS_NUM_THREADS": "1"},
}


def run_tier1(setting, pytest_args=()):
    """(pytest's counts line, failing node IDs) of one run under ``setting``."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(setting)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", *pytest_args]
    lines = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True).stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    counts = next((line.strip("= ") for line in reversed(lines)
                   if re.match(r"=* ?\d+ (passed|failed|skipped|errors?|deselected|xfailed)\b", line)),
                  "no counts line")
    return counts, failed


def main(argv=None):
    pytest_args = sys.argv[1:] if argv is None else argv
    for name, setting in SETTINGS.items():
        counts, failed = run_tier1(setting, pytest_args)
        print(f"{name}: {counts}; failing: {' '.join(failed) or 'none'}", flush=True)


if __name__ == "__main__":
    main()
