"""Every function, class and method in `src/groupeq` is reached, by name, from code
run on import, the names the acceptance criteria use, the benchmark's names or KEPT."""

import ast
import json

from test_perfbench_methods import ROOT, traced_methods

KEPT = {    # reached by no command; each kept for the reason given
    "kaloujnine_krasner": "the embedding that the overgroup solver of ROADMAP item 1 starts from",
    "reconstruct_solution": "undoes the coordinatewise transform for ROADMAP item 1's solver",
    "as_group": "gives the abelian normal subgroup A of ROADMAP item 1 its own table",
    "is_zero_divisor": "the exact decision that tests hold the non-zero-divisor certificate to",
    "pq_structure_check": "the order-pq reduction as a checkable report, pinned by its test",
    "format_word": "the printable form that parse_word reads back, pinned by the round trip",
}


def _refs(node: ast.AST) -> set[str]:
    """Plain names, attribute names and imported names in *node*."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name.rsplit(".", 1)[-1] for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def test_every_package_definition_is_reachable():
    refs, places, roots = {}, [], {"main", *KEPT}
    for path in (ROOT / "src" / "groupeq").glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[:2] == "__":
                roots |= _refs(node)
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)
                       and m.name[:2] != "__"] if isinstance(node, ast.ClassDef) else []
            node.body = [m for m in node.body if m not in methods]  # a dunder is the class's
            for d, place in [(node, node.name)] + [(m, f"{node.name}.{m.name}") for m in methods]:
                refs.setdefault(d.name, set()).update(_refs(d))
                places.append((d.name, f"{path.stem}.{place}"))
    roots |= _refs(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots |= {part for metric in benchmark["per_layer"] for part in metric["name"].split(".")}
    roots |= {name for _, cls, method in traced_methods() for name in (cls, method)}
    reached, todo = set(), list(roots)
    while todo:
        if (name := todo.pop()) not in reached:
            reached.add(name)
            todo += refs.get(name, ())
    assert set(KEPT) <= set(refs), "a kept name is no longer defined"
    unreachable = sorted(place for name, place in places if name not in reached)
    assert not unreachable, f"no command, criterion or benchmark reaches {unreachable}"
