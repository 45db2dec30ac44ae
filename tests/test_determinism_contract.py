"""The determinism contract, checked on the source and on the golden runs.

Equal inputs give byte-identical stdout, and no float is used anywhere.
The golden digests check only what the contract's breaches happen to
print, so the contract is also checked where it is written:

- Static: every module of ``src/folcan``, parsed with ``ast``, has no
  float (or complex) literal, names none of ``float``, ``round`` and
  ``complex``, calls no ``math`` function but the integer ones in use
  (``lcm``, ``gcd``, ``isqrt``, ``comb``), by attribute or by
  ``from math import``, and imports none of ``time``, ``random``,
  ``datetime``, ``os``, ``threading`` and ``concurrent`` (clocks, random
  draws, the environment and scheduling). A change that needs one of them
  changes these lists here, in the open.
- At run time: a ``sys.settrace`` return hook over the golden CLI and
  enumerate corpora sees no float returned (or yielded) from a frame of
  ``src/folcan``, nor one inside a returned tuple or list.

Each static rule is shown failing on a seeded source string, and the run
time check on a float put into ``riemann_roch.window_length`` that leaves
every golden digest as it was.
"""

import ast
import contextlib
import pathlib
import sys

import pytest

import folcan.riemann_roch
import test_golden_cli
import test_golden_enumerate
from test_golden_cli import documents  # the golden documents' fixture

SRC = pathlib.Path(folcan.riemann_roch.__file__).parent
INTEGER_MATH = {"lcm", "gcd", "isqrt", "comb"}
FLOAT_NAMES = {"float", "round", "complex"}
IMPURE_MODULES = {"time", "random", "datetime", "os", "threading", "concurrent"}


def contract_breaches(source):
    """Each breach of the static rules in ``source``, as ``(line, text)``."""
    tree, breaches = ast.parse(source), []
    math_names = set()  # the names math is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            breaches.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id in FLOAT_NAMES:
            breaches.append((node.lineno, f"name {node.id}"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in IMPURE_MODULES:
                    breaches.append((node.lineno, f"import {alias.name}"))
                if alias.name == "math":
                    math_names.add(alias.asname or "math")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.split(".")[0] in IMPURE_MODULES:
                breaches.append((node.lineno, f"from {node.module} import"))
            if node.module == "math":
                breaches += [(node.lineno, f"math.{a.name}") for a in node.names if a.name not in INTEGER_MATH]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in math_names:
            if node.attr not in INTEGER_MATH:
                breaches.append((node.lineno, f"math.{node.attr}"))
    return breaches


def test_the_source_keeps_the_contract():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        assert contract_breaches(path.read_text()) == [], path.name


@pytest.mark.parametrize(
    "source, breach",
    [
        ("x = 0.5", "literal 0.5"),
        ("x = 1e3", "literal 1000.0"),
        ("x = 2j", "literal 2j"),
        ("y = float(n)", "name float"),
        ("y = round(n / d)", "name round"),
        ("z = complex(1, 2)", "name complex"),
        ("import math\nr = math.sqrt(n)", "math.sqrt"),
        ("import math as m\nr = m.log2(n)", "math.log2"),
        ("from math import gcd, floor", "math.floor"),
        ("import time", "import time"),
        ("import random", "import random"),
        ("from datetime import date", "from datetime import"),
        ("import os.path", "import os.path"),
        ("import threading", "import threading"),
        ("from concurrent.futures import ThreadPoolExecutor", "from concurrent.futures import"),
    ],
)
def test_each_static_rule_catches_a_seeded_breach(source, breach):
    assert [text for _, text in contract_breaches(source)] == [breach]


def test_the_integer_math_in_use_passes():
    source = "import math\nfrom math import gcd, lcm\nn = math.isqrt(k) + math.comb(k, 2) + gcd(1, 2)"
    assert contract_breaches(source) == []


def holds_a_float(value):
    if isinstance(value, (tuple, list)):
        return any(isinstance(x, (float, complex)) for x in value)
    return isinstance(value, (float, complex))


@contextlib.contextmanager
def float_returns():
    """Count the returns (yields too) from frames of ``src/folcan``, and collect ``(function, value)`` of the floats."""
    report = {"returns": 0, "floats": []}
    prefix = str(SRC)

    def on_return(frame, event, arg):
        if event == "return":
            report["returns"] += 1
            if holds_a_float(arg):
                report["floats"].append((frame.f_code.co_name, arg))
        return on_return

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            frame.f_trace_lines = False
            return on_return
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        yield report
    finally:
        sys.settrace(previous)


def run_the_golden_corpora(documents):
    """Every golden CLI case in JSON and CSV and every golden enumerate rung, each digest checked."""
    digests = test_golden_cli.DIGESTS
    for name, argv in test_golden_cli.CASES:
        for output_format in ("json", "csv"):
            digest = test_golden_cli.stdout_digest(["--format", output_format] + argv, documents)
            assert digest == digests[(name, output_format)], name
    for argv, digest in test_golden_enumerate.LADDER:
        assert test_golden_cli.stdout_digest(argv, {}) == digest, argv
    return len(test_golden_cli.CASES) * 2 + len(test_golden_enumerate.LADDER)


def test_no_float_is_returned_on_the_golden_runs(documents):
    with float_returns() as report:
        runs = run_the_golden_corpora(documents)
    assert runs == 42 and report["returns"] > 5000 and report["floats"] == []


# a float put into riemann_roch.window_length, in riemann_roch's own file so
# that its frames are folcan's: the window comes back an int, so every
# golden digest stays as it was, and only the returned float shows it
FLOAT_WINDOW = """
def window_length(period, k1, k2):
    return int(_as_float(math.lcm(period, 2 * k1.denominator, 2 * k2.denominator)))


def _as_float(value):
    return value * 1.0
"""


def test_a_float_in_the_window_is_caught(monkeypatch, documents):
    namespace = dict(vars(folcan.riemann_roch))
    exec(compile(FLOAT_WINDOW, folcan.riemann_roch.__file__, "exec"), namespace)
    monkeypatch.setattr(folcan.riemann_roch, "window_length", namespace["window_length"])
    with float_returns() as report:
        run_the_golden_corpora(documents)
    assert report["floats"] and {name for name, _ in report["floats"]} == {"_as_float"}
