"""The README's library example runs as written, its overview lists the ops
of ``tkfnet.tensor.OPS``, and its CLI reference lists exactly the settings
and each command's flags that ``tkfnet.cli`` declares and the rows that
``tkfnet gradcheck`` runs."""

import argparse
import re
from dataclasses import fields
from pathlib import Path

from tkfnet.cli import CONFIG_PARSERS, RunConfig, _build_parser
from tkfnet.gradcheck import MODULE_CASES
from tkfnet.tensor import OPS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "epochs=60" in code
    exec(compile(code.replace("epochs=60", "epochs=1"), str(README), "exec"), {})
    accuracy = float(capsys.readouterr().out)
    assert 0.0 <= accuracy <= 1.0


def config_key_lines():
    """Config key -> its line in the README's config-key block."""
    section = README.read_text().split("### Config files", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return {line.split()[0]: line for line in block.splitlines()}


def subcommands():
    """Subcommand name -> its parser."""
    parser = _build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def backticked_flags(text):
    return set(re.findall(r"`(--[a-z-]+)[^`]*`", text))


def test_config_keys_are_the_run_settings_with_their_defaults():
    lines = config_key_lines()
    assert sorted(lines) == sorted(f.name for f in fields(RunConfig))
    for f in fields(RunConfig):
        default = re.search(r"\(default ([^,)]+)", lines[f.name])
        if f.default is None:
            assert default is None, lines[f.name]
        else:
            assert default is not None, lines[f.name]
            assert CONFIG_PARSERS[f.name](default.group(1)) == f.default, lines[f.name]


def test_config_file_only_marks_the_settings_without_a_flag():
    dests = {a.dest for sub in subcommands().values() for a in sub._actions if a.option_strings}
    marked = {key for key, line in config_key_lines().items() if "config-file only" in line}
    assert marked == {f.name for f in fields(RunConfig)} - dests


def test_flag_lists_match_the_parsers():
    flags = {
        name: {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        for name, sub in subcommands().items()
    }
    common = set.intersection(*flags.values())
    cli = README.read_text().split("## CLI", 1)[1]
    assert backticked_flags(re.search(r"All accept (.*?)\.\n", cli, re.S).group(1)) == common
    for name, own in flags.items():
        section = cli.split(f"### {name}\n", 1)[1].split("\n### ", 1)[0]
        listed = backticked_flags(re.search(r"Flags: (.*?)\.\s", section, re.S).group(1))
        assert listed == own - common, name


def test_gradcheck_rows_are_the_suite_roster():
    section = README.read_text().split("### gradcheck", 1)[1].split("\n### ", 1)[0]
    assert re.findall(r"^- `([\w-]+)`", section, re.M) == ["tensor-core", *MODULE_CASES]


def test_differentiable_ops_are_the_registered_ops():
    listed = re.search(r"`tkfnet\.tensor\.OPS` lists the differentiable ops:(.*?)\.\s", README.read_text(), re.S)
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(OPS)
