"""The benchmark's span tracer (`perfbench/launcher.py`) patches groupeq
methods by name, so a renamed or deleted method would make every traced
command fail, and its per-layer metrics (`BENCHMARK.json`) name groupeq
functions, so a renamed one would silently read 0. These guards read the
launcher's METHODS list with `ast` and the metric names as JSON, without
importing or running the benchmark, and check that each name exists."""

import ast
import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = ROOT / "perfbench" / "launcher.py"
# counters the launcher derives rather than reads off one function's spans
DERIVED = {"verifiers.brute_force_solve.assignments", "verifiers.brute_force_solve.evaluated",
           "verifiers.brute_force_solve.useful_ratio", "cli.import_s"}


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


def test_every_per_layer_metric_names_a_groupeq_function():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in benchmark["per_layer"]]
    checked = 0
    for metric in names:
        if metric.startswith(("layer.", "trace.")) or metric in DERIVED:
            continue
        path, suffix = metric.rsplit(".", 1)
        assert suffix in ("calls", "self_s"), metric
        module, *attrs = path.split(".")
        owner = importlib.import_module(f"groupeq.{module}")
        for attr in attrs:
            # the tracer labels a dunder method without its underscores
            owner = getattr(owner, attr, None) or getattr(owner, f"__{attr}__", None)
            assert owner is not None, f"{metric}: groupeq.{path} does not exist"
        assert callable(owner), metric
        checked += 1
    assert checked >= 40
    assert "groups.FiniteGroup.validate.self_s" in names and "groups.closure.calls" in names
