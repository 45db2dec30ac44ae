"""README's python examples run as written and show what they say they show.

The blocks run in order in one namespace. A top-level line ``expr  # value``
must evaluate to ``value`` (Fractions in their canonical text, tuples and
lists spelled as Python spells them), and the ``#`` lines that end a block
are what the block prints.
"""

import ast
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

from folcan.exact_core import format_rational

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _spell(value) -> str:
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return format_rational(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_spell, value)) + ")"
    if isinstance(value, list):
        return "[" + ", ".join(map(_spell, value)) + "]"
    return repr(value)


def _trailing_comments(lines: list[str]) -> list[str]:
    printed = []
    for line in reversed(lines):
        if not line.startswith("# "):
            break
        printed.insert(0, line[2:])
    return printed


def test_readme_examples_run_and_match_their_comments():
    blocks = _blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    checked = 0
    for block in blocks:
        lines = block.rstrip("\n").splitlines()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for node in ast.parse(block).body:
                line = lines[node.lineno - 1]
                expr, sep, expected = line.partition("  # ")
                if isinstance(node, ast.Expr) and node.end_lineno == node.lineno and sep:
                    assert _spell(eval(expr, namespace)) == expected.strip(), line
                    checked += 1
                else:
                    source = "\n".join(lines[node.lineno - 1 : node.end_lineno])
                    exec(compile(source, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == _trailing_comments(lines)
    # the pullback, the intersection number, the table values and the upper bound
    assert checked == 4
