"""Every module of the package keeps to exact arithmetic.

Each `src/groupeq/*.py`, and `scripts/make_catalog.py` that writes the
catalog files, is parsed with `ast`. A float or complex literal,
a `float(...)` call, or a `math` function outside the integer ones fails
the test, whether `math` is imported plainly, under another name, or
through `from math import ...`.
"""

import ast
from pathlib import Path

import pytest

import groupeq

INTEGER_MATH = {"gcd", "comb", "isqrt", "lcm", "prod"}
MODULES = sorted(Path(groupeq.__file__).parent.glob("*.py")) + [
    Path(__file__).resolve().parents[1] / "scripts" / "make_catalog.py"]


def inexact_uses(source: str) -> list[tuple[int, str]]:
    """(line, construct) for each inexact construct in a module's source."""
    tree = ast.parse(source)
    math_names = {alias.asname or alias.name
                  for node in ast.walk(tree) if isinstance(node, ast.Import)
                  for alias in node.names if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {alias.name}")
                      for alias in node.names if alias.name not in INTEGER_MATH]
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...)"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_names and node.attr not in INTEGER_MATH):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_check_sees_every_form():
    source = ("import math\nimport math as m\nfrom math import gcd, log\n"
              "from math import sqrt as root\n"
              "a = math.gcd(4, 6) + math.log(8, 2) + m.floor(2)\n"
              "b = 0.5 + 1j + float('3') + int(2) + gcd(2, 4)\n")
    assert inexact_uses(source) == [
        (3, "from math import log"), (4, "from math import sqrt"),
        (5, "m.floor"), (5, "math.log"),
        (6, "float(...)"), (6, "literal 0.5"), (6, "literal 1j")]
    assert inexact_uses("from math import comb, isqrt, lcm, prod\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_exact_arithmetic_only(path):
    assert inexact_uses(path.read_text(encoding="utf-8")) == []
