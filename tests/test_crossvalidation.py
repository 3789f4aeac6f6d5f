"""Independent oracles cross-checking the core engines on known ground truth."""

import itertools
import random

from conftest import build_all
from make_catalog import dihedral

from groupeq.config import Config
from groupeq.equations import parse_system, smith_normal_form
from groupeq.groups import (abelian_p_basis, all_subgroups, cyclic,
                            direct_product, isomorphic,
                            normal_subgroups, quotient, sylow_subgroup,
                            prime_factors)
from groupeq.verifiers import brute_force_solve


def test_isomorphic_reflexive_on_every_catalog_group():
    for name, G in build_all():
        hom = isomorphic(G, G, Config(iso_order_cap=128))
        assert hom is not None, name
        assert hom.is_injective() and set(hom.image) == set(G.elements())


def brute_isomorphism_exists(G, H):
    """All-bijections oracle; only viable for tiny orders."""
    if G.order != H.order:
        return False
    n = G.order
    for perm in itertools.permutations(range(1, n)):
        image = (0,) + perm
        if all(image[G.table[a][b]] == H.table[image[a]][image[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


def test_isomorphic_agrees_with_all_bijections_oracle():
    small = [(name, G) for name, G in build_all((1, 2, 3, 4, 5, 6))]
    for (n1, g1), (n2, g2) in itertools.product(small, repeat=2):
        if g1.order != g2.order:
            continue
        got = isomorphic(g1, g2) is not None
        want = brute_isomorphism_exists(g1, g2)
        assert got == want, (n1, n2)


KNOWN_SUBGROUP_COUNTS = {
    "D4": 10,        # order 8 dihedral
    "Q8": 6,
    "A4": 10,
    "S4": 30,
    "C2^4": 67,      # number of subspaces of a 4-dim F2 space
    "C6xC6": 30,     # lattice of C2^2 times lattice of C3^2: 5 * 6
}


def test_subgroup_counts_against_literature():
    groups = dict(build_all())
    for name, want in KNOWN_SUBGROUP_COUNTS.items():
        G = groups[name]
        assert len(all_subgroups(G)) == want, name


def test_sylow_subgroups_are_maximal_p_subgroups():
    for name, G in build_all((12, 18, 20, 24)):
        subs = all_subgroups(G)
        for p in prime_factors(G.order):
            syl = sylow_subgroup(G, p)
            target = 1
            n = G.order
            while n % p == 0:
                target *= p
                n //= p
            assert syl.order == target, (name, p)
            bigger = [S for S in subs
                      if S.order > syl.order and
                      all(f == p for f in prime_factors(S.order))]
            assert not bigger, (name, p)


def test_quotient_projections_over_all_normal_subgroups():
    for G in (dict(build_all())["S4"], dihedral(6), cyclic(12)):
        for N in normal_subgroups(G):
            Q, proj = quotient(G, N)
            assert Q.order * N.order == G.order
            assert set(proj.image) == set(Q.elements())
            assert tuple(a for a, x in enumerate(proj.image) if x == 0) == N.elements


def test_abelian_p_basis_recovers_random_products():
    rng = random.Random(6)
    for _ in range(20):
        p = rng.choice((2, 3))
        ks = sorted((rng.randint(1, 2) for _ in range(rng.randint(1, 3))),
                    reverse=True)
        factors = [cyclic(p ** k) for k in ks]
        rng.shuffle(factors)
        G = factors[0]
        for F in factors[1:]:
            G = direct_product(G, F)
        basis, _ = abelian_p_basis(G, p)
        got = sorted((G.element_order(b) for b in basis), reverse=True)
        assert got == sorted((p ** k for k in ks), reverse=True)


def test_smith_known_diagonal_values():
    assert smith_normal_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)
    assert smith_normal_form([[4, 0], [0, 6]]).invariant_factors == (2, 12)
    assert smith_normal_form([[0, 3], [2, 0]]).invariant_factors == (1, 6)
    assert smith_normal_form([[2, 0, 0], [0, 6, 0], [0, 0, 10]]
                             ).invariant_factors == (2, 2, 30)


def test_brute_force_jobs_agree_on_multisolution_systems():
    s = parse_system("vars: x y\neq: x y x^-1 y^-1").bind(dihedral(3), {})
    seq = brute_force_solve(s)
    par = brute_force_solve(s, Config(jobs=3))
    assert seq == par
    assert seq.solution == {"x": 0, "y": 0}
    down = brute_force_solve(s, descending=True)
    down_par = brute_force_solve(s, Config(jobs=5), descending=True)
    assert down == down_par
