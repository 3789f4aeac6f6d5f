"""The benchmark's span tracer (`perfbench/launcher.py`) patches groupeq
methods by name, so a renamed or deleted method would make every traced
command fail. This guard reads the launcher's METHODS list with `ast`,
without importing or running it, and checks that each method exists."""

import ast
import importlib
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "perfbench" / "launcher.py"


def traced_methods() -> list[tuple[str, str, str]]:
    tree = ast.parse(LAUNCHER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "METHODS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no METHODS list in {LAUNCHER}")


def test_every_method_the_tracer_patches_exists():
    methods = traced_methods()
    assert ("wreath", "WreathGroup", "realize") in methods
    for module, cls, name in methods:
        owner = getattr(importlib.import_module(f"groupeq.{module}"), cls)
        assert callable(getattr(owner, name, None)), f"groupeq.{module}.{cls}.{name}"
