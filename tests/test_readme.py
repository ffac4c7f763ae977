"""The python examples of README.md run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


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
