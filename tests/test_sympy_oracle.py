"""The structure invariants of every catalog group, and the invariant
factors of the Smith normal form, against sympy.

Each sympy `PermutationGroup` is built from the group file's own generator
lines, parsed here, so no groupeq routine stands between the file and the
oracle.
"""

import random
import re

import pytest

from groupeq.catalog import bundled_catalog_dir
from groupeq.equations import smith_normal_form
from groupeq.groups import (center, derived_series, is_nilpotent, load_group_file,
                            lower_central_series, prime_factors, sylow_subgroup)

combinatorics = pytest.importorskip("sympy.combinatorics")
matrices = pytest.importorskip("sympy.matrices")
normalforms = pytest.importorskip("sympy.matrices.normalforms")

CATALOG = sorted(bundled_catalog_dir().glob("*.grp"))


def _sympy_group(path):
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln]
    assert lines[1] == "generators:"
    cycles = [[[int(x) - 1 for x in c.split(",")] for c in re.findall(r"\(([^()]+)\)", ln)]
              for ln in lines[2:]]
    degree = max((x + 1 for gen in cycles for c in gen for x in c), default=1)
    return combinatorics.PermutationGroup(
        [combinatorics.Permutation(gen, size=degree) for gen in cycles])


@pytest.mark.parametrize("path", CATALOG, ids=lambda p: p.stem)
def test_invariants_match_sympy(path):
    G, S = load_group_file(path), _sympy_group(path)
    ours = (G.order, G.is_abelian, is_nilpotent(G),
            [H.order for H in derived_series(G)],
            [H.order for H in lower_central_series(G)], center(G).order,
            {p: sylow_subgroup(G, p).order for p in prime_factors(G.order)})
    theirs = (S.order(), S.is_abelian, S.is_nilpotent,
              [H.order() for H in S.derived_series()],
              [H.order() for H in S.lower_central_series()], S.center().order(),
              {p: S.sylow_subgroup(p).order() for p in prime_factors(G.order)})
    assert ours == theirs


def test_invariant_factors_match_sympy():
    rng = random.Random(21)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        theirs = tuple(int(f) for f in normalforms.invariant_factors(matrices.Matrix(A))
                       if f)
        assert smith_normal_form(A).invariant_factors == theirs, A
