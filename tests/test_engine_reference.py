"""The group engine against naive references written here.

The subgroup lattice is checked against the pairwise-join fixed point of
cyclic closures (normal subgroups by an explicit conjugation filter), and
Cayley tables built from generators against n^2 permutation compositions.
Commutator subgroups and both central series are checked against the
closure of all pairwise commutators, Sylow subgroups against the p-part
of the order, and automorphism counts against known values. Normality
decided on generators is checked against conjugation by every element,
and element names built on first read against names built eagerly.
A5 and S5 are not solvable, so they check that the searches are complete
beyond the solvable groups of the catalog.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from groupeq.catalog import bundled_catalog_dir
from groupeq.cli import main
from groupeq.errors import CapExceeded, ParseError
from groupeq.groups import (all_subgroups, automorphisms, commutator_subgroup,
                            cycles_str, cyclic, derived_series, direct_product,
                            from_generators, is_normal, load_group, load_group_file,
                            lower_central_series, normal_subgroups, parse_cycles,
                            perm_compose, prime_factors, quotient, sylow_subgroup)
from groupeq.wreath import WreathGroup

CATALOG = sorted(bundled_catalog_dir().glob("*.grp"))
NON_SOLVABLE = {"A5": ["(1 2 3)", "(3 4 5)"], "S5": ["(1 2)", "(1 2 3 4 5)"]}


def _ref_closure(G, gens):
    elems, frontier = {0}, [0]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                x = G.table[a][g]
                if x not in elems:
                    elems.add(x)
                    nxt.append(x)
        frontier = nxt
    return frozenset(elems)


def _ref_lattice(G):
    found = {}                                  # subgroup -> generators
    for g in G.elements():
        found.setdefault(_ref_closure(G, [g]), [g])
    work = list(found)
    while work:
        new = []
        for a in work:
            for b in list(found):
                if a <= b or b <= a:            # the join is a or b
                    continue
                gens = found[a] + found[b]
                joined = _ref_closure(G, gens)
                if joined not in found:
                    found[joined] = gens
                    new.append(joined)
        work = new
    subs = sorted((tuple(sorted(S)) for S in found), key=lambda e: (len(e), e))
    normal = [S for S in subs
              if all(G.conj(s, g) in S for g in G.elements() for s in S)]
    return subs, normal


GROUPS = ([pytest.param(path, id=path.stem) for path in CATALOG]
          + [pytest.param(gens, id=name) for name, gens in NON_SOLVABLE.items()])


@pytest.mark.parametrize("source", GROUPS)
def test_lattice_matches_pairwise_join_reference(source):
    G = load_group_file(source) if isinstance(source, Path) else from_generators(source)
    subs, normal = _ref_lattice(G)
    assert [S.elements for S in all_subgroups(G)] == subs
    assert [S.elements for S in normal_subgroups(G)] == normal


def test_non_solvable_lattice_sizes():
    a5 = from_generators(NON_SOLVABLE["A5"])
    s5 = from_generators(NON_SOLVABLE["S5"])
    assert (len(all_subgroups(a5)), len(normal_subgroups(a5))) == (59, 2)
    assert (len(all_subgroups(s5)), len(normal_subgroups(s5))) == (156, 3)


def _ref_from_generators(perms):
    degree = max((len(p) for p in perms), default=1)
    gens = [tuple(p) + tuple(range(len(p), degree)) for p in perms]
    elems = [tuple(range(degree))]
    pos = {elems[0]: 0}
    frontier = list(elems)
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = perm_compose(e, g)
                if prod not in pos:
                    pos[prod] = len(elems)
                    elems.append(prod)
                    nxt.append(prod)
        frontier = nxt
    table = tuple(tuple(pos[perm_compose(a, b)] for b in elems) for a in elems)
    names = ("1",) + tuple(cycles_str(e) for e in elems[1:])
    return table, names


def _generator_lines(path):
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln]
    assert lines[1] == "generators:"
    return lines[2:]


@pytest.mark.parametrize("path", CATALOG, ids=lambda p: p.stem)
def test_table_matches_composition_reference(path):
    perms = [parse_cycles(ln) for ln in _generator_lines(path)]
    G = from_generators(perms)
    assert (G.table, G.names) == _ref_from_generators(perms)


@pytest.mark.parametrize("perms", [[], [(0,)], ["(1)"], ["()", "(1 2)"],
                                   ["(1 2 3)", "(1 2 3)"], ["(2 3)", "(1 2)(3 4)"]])
def test_table_edge_cases(perms):
    parsed = [parse_cycles(p) if isinstance(p, str) else p for p in perms]
    G = from_generators(perms)
    assert (G.table, G.names) == _ref_from_generators(parsed)


def test_closure_cap_message():
    # S7 has 5,040 elements: the closure stops at the table cap, before the
    # quadratic table; a header's declared order still takes precedence
    t0 = time.perf_counter()
    with pytest.raises(CapExceeded, match=r"^generator closure exceeds the table cap 4096$"):
        from_generators(["(1 2)", "(1 2 3 4 5 6 7)"])
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(ParseError, match=r"^generators produce a group of order more "
                                         r"than 4096, header says 4096$"):
        load_group("group S7 order 4096\ngenerators:\n(1 2)\n(1 2 3 4 5 6 7)\n")


S6_UNDER_ORDER_6 = "group bad order 6\ngenerators:\n(1 2 3 4 5 6)\n(1 2)\n"


def test_header_order_bounds_the_closure(tmp_path):
    with pytest.raises(ParseError, match=r"^generators produce a group of order more "
                                         r"than 6, header says 6$"):
        load_group(S6_UNDER_ORDER_6)
    with pytest.raises(ParseError, match=r"^generators produce a group of order 3, "
                                         r"header says 12$"):
        load_group("group small order 12\ngenerators:\n(1 2 3)\n")
    path = tmp_path / "bad.grp"
    path.write_text(S6_UNDER_ORDER_6, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["group", str(path)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == ("error: generators produce a group of order more than 6, "
                              "header says 6\n")


def _ref_commutators(G, xs, ys):
    return _ref_closure(G, [G.comm(x, y) for x in xs for y in ys])


def _ref_series(G, step):
    series = [frozenset(G.elements())]
    while (nxt := step(series[-1])) != series[-1]:
        series.append(nxt)
    return [tuple(sorted(S)) for S in series]


def _load(source):
    if isinstance(source, Path):
        return load_group_file(source)
    if source == "C2wrC6":
        return WreathGroup(cyclic(2), direct_product(cyclic(2), cyclic(3))).realize()
    return from_generators(NON_SOLVABLE[source])


STRUCTURE_GROUPS = ([pytest.param(path, id=path.stem) for path in CATALOG]
                    + [pytest.param(name, id=name) for name in (*NON_SOLVABLE, "C2wrC6")])


@pytest.mark.parametrize("source", STRUCTURE_GROUPS)
def test_series_and_sylow_match_all_pairs_reference(source):
    G = _load(source)
    derived = _ref_series(G, lambda S: _ref_commutators(G, S, S))
    lower = _ref_series(G, lambda S: _ref_commutators(G, S, G.elements()))
    assert [S.elements for S in derived_series(G)] == derived
    assert [S.elements for S in lower_central_series(G)] == lower
    for p in prime_factors(G.order):
        part = 1
        while G.order % (part * p) == 0:
            part *= p
        assert sylow_subgroup(G, p).order == part


SMALL = [path for path in CATALOG if int(path.name.split("_")[0]) <= 24]


@pytest.mark.parametrize("path", SMALL, ids=lambda p: p.stem)
def test_commutator_of_every_subgroup_matches_all_pairs(path):
    G = load_group_file(path)
    for S in all_subgroups(G):
        want = tuple(sorted(_ref_commutators(G, S.elements, S.elements)))
        assert commutator_subgroup(G, S).elements == want


@pytest.mark.parametrize("stem,count", [
    ("008_d4", 8), ("008_q8", 24), ("008_c23", 168), ("012_a4", 24),
    ("024_s4", 24), ("009_c32", 48), ("010_d5", 20), ("024_sl23", 24)])
def test_automorphism_group_orders(stem, count):
    G = load_group_file(bundled_catalog_dir() / f"{stem}.grp")
    assert len(automorphisms(G)) == count


def _normal_by_definition(G, S):
    return all(G.conj(s, g) in S for g in G.elements() for s in S.elements)


@pytest.mark.parametrize("source", [pytest.param(path, id=path.stem) for path in SMALL]
                         + [pytest.param(name, id=name) for name in NON_SOLVABLE])
def test_normality_on_generators_is_the_definition(source):
    G = _load(source)
    subs = all_subgroups(G)
    by_definition = [_normal_by_definition(G, S) for S in subs]
    assert [is_normal(G, S) for S in subs] == by_definition
    assert ([S.elements for S in normal_subgroups(G)]
            == [S.elements for S, normal in zip(subs, by_definition) if normal])


@pytest.mark.parametrize("path", CATALOG, ids=lambda p: p.stem)
def test_names_built_on_demand_are_the_eager_names(path):
    G = load_group_file(path)
    _, names = _ref_from_generators([parse_cycles(ln) for ln in _generator_lines(path)])
    assert G.names == names
    assert [G.index_of(name) for name in names] == list(G.elements())
    for N in normal_subgroups(G):
        Q, proj = quotient(G, N)
        reps = [min(g for g in G.elements() if proj(g) == q) for q in Q.elements()]
        assert Q.names == ("1",) + tuple(f"[{names[r]}]" for r in reps[1:])
        assert [Q.index_of(name) for name in Q.names] == list(Q.elements())
