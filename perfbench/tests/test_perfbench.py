"""Tests of the benchmark itself: seeding, oracles, failure counting, spans.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles as O  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from spans import covered, self_times  # noqa: E402

CATALOG = str(ROOT / "src" / "groupeq" / "data" / "catalog")


def group(file: str) -> O.CatalogGroup:
    return next(g for g in O.load_catalog(CATALOG) if g.file == file)


def serialized(workload: str, seed: int) -> bytes:
    rounds = W.build(workload, seed, 3, CATALOG)
    return json.dumps([[(c.args, c.files) for c in rnd] for rnd in rounds]).encode()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert serialized(workload, 7) == serialized(workload, 7)
    assert serialized(workload, 7) != serialized(workload, 8)


# -- oracles on known cases ----------------------------------------------------

def test_example0_determinant_and_singular_prime():
    x, y, z = (("sym", v) for v in "xyz")
    g1, g2, g3 = (("sym", c) for c in ("g1", "g2", "g3"))
    words = [("seq", [("comm", x, y), ("pow", x, 2), g1, ("pow", y, -3)]),
             ("seq", [("comm", y, z), z]),
             ("seq", [x, g2, y, g3, z])]
    text = (ROOT / "src/groupeq/data/examples/example0.sys").read_text()
    for w in words:
        assert "eq: " + O.word_text(w) in text
    matrix = [O.exponent_sums(O.word_letters(w), "xyz") for w in words]
    answer = O.smith_answer(matrix)
    assert answer["determinant"] == -5
    assert answer["singular_primes"] == [5]
    assert answer["nonsingular"] and not answer["unimodular"]


def test_rows_demo_is_certified():
    # rows_demo.alg over Z_2[C2]:  row 1 ; 0  and  row x1 ; 1
    rows = [[[(1, (0,), ())], []], [[(1, (1,), ())], [(1, (0,), ())]]]
    text = W._row_file("algebra p=2 torsion=1 free=0", rows)
    demo = (ROOT / "src/groupeq/data/examples/rows_demo.alg").read_text()
    assert [ln for ln in text.splitlines() if ln.startswith("row:")] == \
        ["row: 1 ; 0", "row: x1^1 ; 1"]
    assert "row: x1 ; 1" in demo
    aug = [[W._aug(t, 2) for t in row] for row in rows]
    assert O.rank_mod_p(aug, 2) == 2


def test_s4_subgroups_and_f42_witness():
    subs, normals = O.subgroup_orders(group("024_s4.grp"))
    assert len(subs) == 30 and normals == [1, 4, 12, 24]
    f42 = O.group_facts(group("042_f42.grp"))
    assert f42.metabelian and f42.witness_primes == ()
    s3s3 = O.group_facts(group("036_s3xs3.grp"))
    assert s3s3.metabelian and 2 in s3s3.witness_primes


def test_odd_right_hand_side_has_no_solution():
    rng = random.Random(3)
    catalog = O.load_catalog(CATALOG)
    checked = 0
    while checked < 2:
        cmd = W._unsolvable(rng, catalog, rng.random() * 0.05, "t.sys", 1, False)
        exp = cmd.expect
        if exp["space"] > 5_000:
            continue
        variables = exp["variables"]
        identity = exp["elements"][0]
        for letters in exp["equations"]:
            assert all(s % 2 == 0 for s in O.exponent_sums(letters, variables))
            for values in itertools.product(exp["elements"], repeat=len(variables)):
                env = {**exp["values"], **dict(zip(variables, values))}
                assert O.evaluate(letters, env, identity) != identity
        assert exp["space"] == len(exp["elements"]) ** len(variables)
        checked += 1


# -- failures are counted ------------------------------------------------------

def fake(code: int, payload: dict | None, timed_out: bool = False):
    return SimpleNamespace(code=code, timed_out=timed_out, stderr="",
                           stdout="" if payload is None else json.dumps(payload))


def planted_solve():
    rng = random.Random(11)
    while True:
        cmd = W._solvable(rng, O.load_catalog(CATALOG), "p.sys", 1, False)
        if len(cmd.expect["variables"]) == 1:
            return cmd


def test_planted_solution_is_accepted_and_corruptions_are_not():
    cmd = planted_solve()
    G = group(next(iter(cmd.files.values())).split("bind: @catalog/")[1].split()[0])
    var = cmd.expect["variables"][0]
    good = next(e for e in G.elements
                if all(O.evaluate(eq, {**{c: cmd.expect["by_name"][n]
                                          for c, n in cmd.expect["coeffs"].items()},
                                       var: e}, G.identity) == G.identity
                       for eq in cmd.expect["equations"]))
    bad = next(e for e in G.elements if e != good and not all(
        O.evaluate(eq, {**{c: cmd.expect["by_name"][n]
                           for c, n in cmd.expect["coeffs"].items()},
                        var: e}, G.identity) == G.identity
        for eq in cmd.expect["equations"]))

    def output(elem):
        return {"solution": {var: 0}, "searched": 1, "exhaustive": False,
                "solution_names": {var: O.perm_name(elem)}}
    assert run.verdict_error(cmd, fake(0, output(good))) is None
    assert run.verdict_error(cmd, fake(0, output(bad))) is not None
    assert run.verdict_error(cmd, fake(1, output(good))) is not None
    assert run.verdict_error(cmd, fake(-9, None, timed_out=True)) is not None
    assert run.verdict_error(cmd, fake(1, {"solution": None, "searched": 5,
                                           "exhaustive": True})) is not None


def test_corrupted_verdicts_fail():
    cert = W.Command("certify", "rows", [], expect={"verdict": "refuted"})
    assert run.verdict_error(cert, fake(1, {"verdict": "refuted"})) is None
    assert run.verdict_error(cert, fake(0, {"verdict": "certified"})) is not None
    enum = W.Command("enumerate", "enumerate", [], expect={"n": 8})
    assert run.verdict_error(enum, fake(0, {"count": 5, "matches_classification": True})) is None
    assert run.verdict_error(enum, fake(0, {"count": 4, "matches_classification": True})) \
        is not None
    assert run.verdict_error(enum, fake(1, None)) is not None


def test_a_wrong_answer_from_the_program_counts_in_fail_ratio(tmp_path):
    args = ["--format", "structured", "enumerate", "6"]
    right = W.Command("enumerate", "enumerate", args, expect={"n": 6})
    wrong = W.Command("enumerate", "enumerate", args, expect={"n": 8})   # planted
    env = run.child_env()
    for deck, ratio in (([right], 0.0), ([wrong], 1.0)):
        latencies, failures, rss, setup, _, loop_s = run.run_untraced(deck, 1e-9, tmp_path, env)
        assert len(latencies) == 1 and len(setup) == 1
        metrics = run.end_to_end(latencies, failures, rss, setup, loop_s)
        assert metrics["fail_ratio"] == ratio
        assert metrics["verdicts_per_s"] == pytest.approx((1 - ratio) / loop_s)


# -- spans ---------------------------------------------------------------------

def test_covered_merges_overlapping_children():
    assert covered([(2, 5), (4, 8), (10, 12)], 0, 20) == 8
    assert covered([(0, 30)], 5, 15) == 10
    assert covered([], 0, 10) == 0


def test_self_time_on_a_synthetic_span_tree():
    ns = 1_000_000_000
    spans = [
        {"id": 1, "parent": 0, "name": "a.root", "start": 0, "end": 10 * ns},
        {"id": 2, "parent": 1, "name": "b.child", "start": 1 * ns, "end": 4 * ns},
        {"id": 3, "parent": 1, "name": "b.child", "start": 3 * ns, "end": 6 * ns},
        {"id": 4, "parent": 2, "name": "c.leaf", "start": 2 * ns, "end": 3 * ns},
    ]
    out = self_times(spans)
    assert out["a.root"] == [1, pytest.approx(5.0)]        # 10 - union(1..6)
    assert out["b.child"] == [2, pytest.approx(2.0 + 3.0)]  # (3 - 1) + 3
    assert out["c.leaf"] == [1, pytest.approx(1.0)]


def test_declared_layer_metrics_name_real_functions():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if parts[0] in ("layer", "trace") or metric["name"] == "cli.import_s":
            continue
        obj = importlib.import_module(f"groupeq.{parts[0]}")
        for attr in parts[1:-1]:
            obj = getattr(obj, attr if hasattr(obj, attr) else f"__{attr}__")
        assert callable(obj), metric["name"]
