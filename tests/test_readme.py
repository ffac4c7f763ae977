"""The python examples and the command lines of README.md run and print
what their comments say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from poisson_forge.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
# command lines of the form "poisson-forge ARGS  # -> OUTPUT"
COMMANDS = re.findall(r"^poisson-forge (.+?)\s+# -> (.*)$", TEXT, re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(block):
    # each print line ends in "# <the line it prints>"
    expected = []
    for line in block.splitlines():
        if line.startswith("print("):
            assert "  # " in line, f"print line without its output comment: {line}"
            expected.append(line.split("  # ", 1)[1])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("command, expected", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_prints_its_comment(command, expected):
    out = io.StringIO()
    assert main(shlex.split(command), out=out) == 0
    assert out.getvalue() == expected + "\n"
