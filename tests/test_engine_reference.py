"""The group engine against naive references written here.

The subgroup lattice is checked against the pairwise-join fixed point of
cyclic closures (normal subgroups by an explicit conjugation filter), and
Cayley tables built from generators against n^2 permutation compositions.
A5 and S5 are not solvable, so they check that the lattice search is
complete beyond the solvable groups of the catalog.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from groupeq.catalog import bundled_catalog_dir
from groupeq.cli import main
from groupeq.config import Config
from groupeq.errors import CapExceeded, ParseError
from groupeq.groups import (all_subgroups, cycles_str, from_generators,
                            load_group, load_group_file, normal_subgroups,
                            parse_cycles, perm_compose)

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
    with pytest.raises(CapExceeded, match=r"^generator closure exceeds cap 50$"):
        from_generators(["(1 2 3 4 5)", "(1 2)"], Config(closure_cap=50))


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
