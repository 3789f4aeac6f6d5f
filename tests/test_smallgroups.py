import pytest
from make_catalog import dicyclic, dihedral

from groupeq.catalog import EXPECTED_COUNTS, bundled_catalog_dir
from groupeq.config import Config
from groupeq.errors import ValidationError
from groupeq.groups import (cyclic, direct_product, is_nilpotent, isomorphic,
                            load_group_file)
from groupeq.smallgroups import enumerate_groups


def test_counts_match_classical_values():
    for n in range(1, 13):
        assert len(enumerate_groups(n)) == EXPECTED_COUNTS[n], n


def test_enumerated_groups_are_valid_and_distinct():
    for n in (6, 8, 10, 12):
        groups = enumerate_groups(n)
        for G in groups:
            assert G.order == n
            G.validate()
        for i, G in enumerate(groups):
            for H in groups[i + 1:]:
                assert isomorphic(G, H) is None


def test_known_types_show_up():
    order8 = enumerate_groups(8)
    targets = [cyclic(8), direct_product(cyclic(4), cyclic(2)),
               direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))),
               dihedral(4), dicyclic(2)]
    for T in targets:
        assert any(isomorphic(G, T) is not None for G in order8)


def test_order_12_contains_a4():
    order12 = enumerate_groups(12)
    a4_like = [G for G in order12 if not G.is_abelian and not is_nilpotent(G)
               and len([e for e in G.elements() if G.element_order(e) == 2]) == 3]
    assert a4_like


def test_bad_input():
    with pytest.raises(ValidationError):
        enumerate_groups(0)


def test_enumeration_is_a_bijection_with_the_catalog():
    catalog: dict[int, list] = {}
    for path in sorted(bundled_catalog_dir().glob("*.grp")):
        G = load_group_file(path)
        catalog.setdefault(G.order, []).append(G)
    config = Config(enumeration_cap=42)
    assert sorted(catalog) == sorted(EXPECTED_COUNTS)
    for n, expected in EXPECTED_COUNTS.items():
        groups = enumerate_groups(n, config)
        assert len(groups) == len(catalog[n]) == expected, n
        matches = [[i for i, H in enumerate(catalog[n]) if isomorphic(G, H) is not None]
                   for G in groups]
        assert all(len(m) == 1 for m in matches), n
        assert len({m[0] for m in matches}) == expected, n
