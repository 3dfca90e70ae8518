"""README's quick start runs as written and prints what its comments say."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def _expected_prints(blocks: list[str]) -> list[str]:
    """The comment on each ``print(...)`` line, in order."""
    return [line.split("#", 1)[1].strip()
            for block in blocks for line in block.splitlines()
            if line.startswith("print(") and "#" in line]


def _matches(printed: str, comment: str) -> bool:
    """A number in the comment holds to its digits; any other comment verbatim."""
    head = comment.split()[0]
    mantissa = re.fullmatch(r"-?\d\.(\d+)e[-+]\d+", head)
    if mantissa is None:
        return printed == comment
    return f"{float(printed):.{len(mantissa.group(1))}e}" == head


def test_quick_start_prints_match_comments():
    blocks = _python_blocks(README.read_text())
    expected = _expected_prints(blocks)
    assert len(expected) == 4
    printed = []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert len(printed) == len(expected)
    for got, comment in zip(printed, expected):
        assert _matches(got, comment), (got, comment)


@pytest.mark.parametrize("printed, comment, ok", [
    ("target 461", "target 461", True),
    ("target 462", "target 461", False),
    ("5.2649e-10", "5.3e-10", True),
    ("5.36e-10", "5.3e-10", False),
    ("7.0e-09", "7.0e-09 for this pair", True),
])
def test_comment_matching(printed, comment, ok):
    assert _matches(printed, comment) is ok
