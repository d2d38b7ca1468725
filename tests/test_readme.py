"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "epochs=60" in code
    exec(compile(code.replace("epochs=60", "epochs=1"), str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 0.0 <= accuracy <= 1.0
