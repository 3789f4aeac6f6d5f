"""Builders and bookkeeping for the bundled small-groups catalog.

The catalog ships one group file per isomorphism type for every order
listed in `EXPECTED_COUNTS` (all orders through 16, plus the composite
orders 18..42 that the structure audit sweeps). Files are generated from
the constructions below by ``scripts/make_catalog.py`` and carry
permutation generators from the right-regular representation.

Naming: Dn is the dihedral group of order 2n, Dicn the dicyclic group of
order 4n, Fk the Frobenius group of order k, a colon marks a semidirect
product, and C4oD4 is the central product. The per-order counts are the
classical classification counts (see the CITATIONS file next to the
data); the code verifies orders and pairwise non-isomorphism but does not
re-derive completeness, except through `smallgroups` for orders <= 12.
"""

from __future__ import annotations

from functools import reduce
from pathlib import Path
from typing import Callable

from .groups import (FiniteGroup, Perm, affine_group_over_prime_field, cyclic,
                     cyclic_action, dicyclic, dihedral, direct_product,
                     from_generators, generated_subgroup, inversion_action,
                     perm_identity, quotient, semidirect_product,
                     trivial_group)

EXPECTED_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
    18: 5, 20: 5, 24: 15, 28: 4, 30: 4, 36: 14, 40: 14, 42: 6,
}

AUDIT_ORDERS = (12, 18, 20, 24, 28, 30, 36, 40)


def _c(n: int) -> FiniteGroup:
    return cyclic(n)


def _prod(*groups: FiniteGroup) -> FiniteGroup:
    return reduce(direct_product, groups)


def _pow_perm(n: int, k: int) -> Perm:
    """x -> x^k on a canonical cyclic group of order n."""
    return tuple((k * i) % n for i in range(n))


def _s3() -> FiniteGroup:
    return dihedral(3, name="S3")


def _s4() -> FiniteGroup:
    return from_generators(["(1 2)", "(1 2 3 4)"], name="S4")


def _a4() -> FiniteGroup:
    return from_generators(["(1 2 3)", "(2 3 4)"], name="A4")


def _sl23() -> FiniteGroup:
    vecs = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    pos = {v: i for i, v in enumerate(vecs)}

    def mat_perm(m) -> Perm:
        return tuple(pos[((m[0][0] * a + m[0][1] * b) % 3,
                          (m[1][0] * a + m[1][1] * b) % 3)]
                     for a, b in vecs)

    return from_generators([mat_perm([[1, 1], [0, 1]]),
                            mat_perm([[0, -1], [1, 0]])], name="SL(2,3)")


def _pauli16() -> FiniteGroup:
    # central product C4 o D4: kill the diagonal central involution
    G = direct_product(cyclic(4), dihedral(4))
    z = 2 * 8 + 4          # (g^2, r^2)
    Q, _ = quotient(G, generated_subgroup(G, [z]))
    return Q


def _mod16() -> FiniteGroup:
    return semidirect_product(cyclic(8), cyclic(2),
                              {0: perm_identity(8), 1: _pow_perm(8, 5)},
                              name="M4(2)")


def _sd16() -> FiniteGroup:
    return semidirect_product(cyclic(8), cyclic(2),
                              {0: perm_identity(8), 1: _pow_perm(8, 3)},
                              name="SD16")


def _c4_sd_c4() -> FiniteGroup:
    return semidirect_product(cyclic(4), cyclic(4),
                              cyclic_action(cyclic(4), inversion_action(cyclic(4))),
                              name="C4:C4")


def _c22_sd_c4() -> FiniteGroup:
    v4 = direct_product(cyclic(2), cyclic(2))
    swap = (0, 2, 1, 3)
    return semidirect_product(v4, cyclic(4), cyclic_action(cyclic(4), swap),
                              name="C2^2:C4")


def _gen_dihedral_c3c3() -> FiniteGroup:
    a = direct_product(cyclic(3), cyclic(3))
    return semidirect_product(a, cyclic(2),
                              {0: perm_identity(9), 1: inversion_action(a)},
                              name="C3:S3")


def _f20() -> FiniteGroup:
    return semidirect_product(cyclic(5), cyclic(4),
                              cyclic_action(cyclic(4), _pow_perm(5, 2)),
                              name="F20")


def _c3_sd_c8() -> FiniteGroup:
    return semidirect_product(cyclic(3), cyclic(8),
                              cyclic_action(cyclic(8), inversion_action(cyclic(3))),
                              name="C3:C8")


def _c3_sd_d4() -> FiniteGroup:
    # r inverts, s acts trivially (the kernel is the Klein subgroup <r^2, s>)
    inv = inversion_action(cyclic(3))
    act = {i: inv if (i // 2) % 2 else perm_identity(3) for i in range(8)}
    return semidirect_product(cyclic(3), dihedral(4), act, name="C3:D4")


def _c5_sd_d4() -> FiniteGroup:
    inv = inversion_action(cyclic(5))
    act = {i: inv if (i // 2) % 2 else perm_identity(5) for i in range(8)}
    return semidirect_product(cyclic(5), dihedral(4), act, name="C5:D4")


def _dic9() -> FiniteGroup:
    return dicyclic(9, name="Dic9")


def _c3_sd_dic3() -> FiniteGroup:
    a = direct_product(cyclic(3), cyclic(3))
    return semidirect_product(a, cyclic(4),
                              cyclic_action(cyclic(4), inversion_action(a)),
                              name="C3:Dic3")


def _c3c3_sd_c4() -> FiniteGroup:
    # C4 acting faithfully on C3 x C3 as a rotation of order 4
    perm = tuple((((-b) % 3) * 3 + a) for a in range(3) for b in range(3))
    a = direct_product(cyclic(3), cyclic(3))
    return semidirect_product(a, cyclic(4), cyclic_action(cyclic(4), perm),
                              name="C3^2:C4")


def _c22_sd_c9() -> FiniteGroup:
    v4 = direct_product(cyclic(2), cyclic(2))
    rot = (0, 2, 3, 1)    # cycles the three involutions
    return semidirect_product(v4, cyclic(9), cyclic_action(cyclic(9), rot),
                              name="C2^2:C9")


def _c5_sd_c8() -> FiniteGroup:
    return semidirect_product(cyclic(5), cyclic(8),
                              cyclic_action(cyclic(8), _pow_perm(5, 2)),
                              name="C5:C8")


def _c5_sd2_c8() -> FiniteGroup:
    return semidirect_product(cyclic(5), cyclic(8),
                              cyclic_action(cyclic(8), inversion_action(cyclic(5))),
                              name="C5:2C8")


def _c7_sd_c3() -> FiniteGroup:
    return semidirect_product(cyclic(7), cyclic(3),
                              cyclic_action(cyclic(3), _pow_perm(7, 2)),
                              name="C7:C3")


def _named(name: str, builder: Callable[[], FiniteGroup]) -> Callable[[], FiniteGroup]:
    def build() -> FiniteGroup:
        G = builder()
        return FiniteGroup(G.table, G.names, name=name)
    return build


# (order, name, builder); names are unique within each order
CATALOG: list[tuple[int, str, Callable[[], FiniteGroup]]] = [
    (1, "C1", trivial_group),
    (2, "C2", lambda: _c(2)),
    (3, "C3", lambda: _c(3)),
    (4, "C4", lambda: _c(4)),
    (4, "C2^2", _named("C2^2", lambda: _prod(_c(2), _c(2)))),
    (5, "C5", lambda: _c(5)),
    (6, "C6", lambda: _c(6)),
    (6, "S3", _s3),
    (7, "C7", lambda: _c(7)),
    (8, "C8", lambda: _c(8)),
    (8, "C4xC2", _named("C4xC2", lambda: _prod(_c(4), _c(2)))),
    (8, "C2^3", _named("C2^3", lambda: _prod(_c(2), _c(2), _c(2)))),
    (8, "D4", lambda: dihedral(4)),
    (8, "Q8", _named("Q8", lambda: dicyclic(2))),
    (9, "C9", lambda: _c(9)),
    (9, "C3^2", _named("C3^2", lambda: _prod(_c(3), _c(3)))),
    (10, "C10", lambda: _c(10)),
    (10, "D5", lambda: dihedral(5)),
    (11, "C11", lambda: _c(11)),
    (12, "C12", lambda: _c(12)),
    (12, "C6xC2", _named("C6xC2", lambda: _prod(_c(6), _c(2)))),
    (12, "D6", lambda: dihedral(6)),
    (12, "A4", _a4),
    (12, "Dic3", lambda: dicyclic(3)),
    (13, "C13", lambda: _c(13)),
    (14, "C14", lambda: _c(14)),
    (14, "D7", lambda: dihedral(7)),
    (15, "C15", lambda: _c(15)),
    (16, "C16", lambda: _c(16)),
    (16, "C4^2", _named("C4^2", lambda: _prod(_c(4), _c(4)))),
    (16, "C8xC2", _named("C8xC2", lambda: _prod(_c(8), _c(2)))),
    (16, "C4xC2^2", _named("C4xC2^2", lambda: _prod(_c(4), _c(2), _c(2)))),
    (16, "C2^4", _named("C2^4", lambda: _prod(_c(2), _c(2), _c(2), _c(2)))),
    (16, "D8", lambda: dihedral(8)),
    (16, "SD16", _sd16),
    (16, "Q16", _named("Q16", lambda: dicyclic(4))),
    (16, "M4(2)", _mod16),
    (16, "C2xD4", _named("C2xD4", lambda: _prod(_c(2), dihedral(4)))),
    (16, "C2xQ8", _named("C2xQ8", lambda: _prod(_c(2), dicyclic(2)))),
    (16, "C4oD4", _named("C4oD4", _pauli16)),
    (16, "C4:C4", _c4_sd_c4),
    (16, "C2^2:C4", _c22_sd_c4),
    (18, "C18", lambda: _c(18)),
    (18, "C3xC6", _named("C3xC6", lambda: _prod(_c(3), _c(6)))),
    (18, "D9", lambda: dihedral(9)),
    (18, "C3xS3", _named("C3xS3", lambda: _prod(_c(3), _s3()))),
    (18, "C3:S3", _gen_dihedral_c3c3),
    (20, "C20", lambda: _c(20)),
    (20, "C2xC10", _named("C2xC10", lambda: _prod(_c(2), _c(10)))),
    (20, "D10", lambda: dihedral(10)),
    (20, "F20", _f20),
    (20, "Dic5", lambda: dicyclic(5)),
    (24, "C24", lambda: _c(24)),
    (24, "C2xC12", _named("C2xC12", lambda: _prod(_c(2), _c(12)))),
    (24, "C2^2xC6", _named("C2^2xC6", lambda: _prod(_c(2), _c(2), _c(6)))),
    (24, "S4", _s4),
    (24, "C2xA4", _named("C2xA4", lambda: _prod(_c(2), _a4()))),
    (24, "SL(2,3)", _sl23),
    (24, "D12", lambda: dihedral(12)),
    (24, "Dic6", lambda: dicyclic(6)),
    (24, "C3:C8", _c3_sd_c8),
    (24, "C4xS3", _named("C4xS3", lambda: _prod(_c(4), _s3()))),
    (24, "C2xDic3", _named("C2xDic3", lambda: _prod(_c(2), dicyclic(3)))),
    (24, "C3:D4", _c3_sd_d4),
    (24, "C3xD4", _named("C3xD4", lambda: _prod(_c(3), dihedral(4)))),
    (24, "C3xQ8", _named("C3xQ8", lambda: _prod(_c(3), dicyclic(2)))),
    (24, "C2^2xS3", _named("C2^2xS3", lambda: _prod(_c(2), _c(2), _s3()))),
    (28, "C28", lambda: _c(28)),
    (28, "C2xC14", _named("C2xC14", lambda: _prod(_c(2), _c(14)))),
    (28, "D14", lambda: dihedral(14)),
    (28, "Dic7", lambda: dicyclic(7)),
    (30, "C30", lambda: _c(30)),
    (30, "D15", lambda: dihedral(15)),
    (30, "C3xD5", _named("C3xD5", lambda: _prod(_c(3), dihedral(5)))),
    (30, "C5xS3", _named("C5xS3", lambda: _prod(_c(5), _s3()))),
    (36, "C36", lambda: _c(36)),
    (36, "C2xC18", _named("C2xC18", lambda: _prod(_c(2), _c(18)))),
    (36, "C3xC12", _named("C3xC12", lambda: _prod(_c(3), _c(12)))),
    (36, "C6xC6", _named("C6xC6", lambda: _prod(_c(6), _c(6)))),
    (36, "D18", lambda: dihedral(18)),
    (36, "Dic9", _dic9),
    (36, "C3xDic3", _named("C3xDic3", lambda: _prod(_c(3), dicyclic(3)))),
    (36, "C3:Dic3", _c3_sd_dic3),
    (36, "C3^2:C4", _c3c3_sd_c4),
    (36, "C2^2:C9", _c22_sd_c9),
    (36, "C3xA4", _named("C3xA4", lambda: _prod(_c(3), _a4()))),
    (36, "S3xS3", _named("S3xS3", lambda: _prod(_s3(), _s3()))),
    (36, "C6xS3", _named("C6xS3", lambda: _prod(_c(6), _s3()))),
    (36, "C2xC3:S3", _named("C2xC3:S3", lambda: _prod(_c(2), _gen_dihedral_c3c3()))),
    (40, "C40", lambda: _c(40)),
    (40, "C2xC20", _named("C2xC20", lambda: _prod(_c(2), _c(20)))),
    (40, "C2^2xC10", _named("C2^2xC10", lambda: _prod(_c(2), _c(2), _c(10)))),
    (40, "C5:C8", _c5_sd_c8),
    (40, "C5:2C8", _c5_sd2_c8),
    (40, "D20", lambda: dihedral(20)),
    (40, "Dic10", lambda: dicyclic(10)),
    (40, "C2xDic5", _named("C2xDic5", lambda: _prod(_c(2), dicyclic(5)))),
    (40, "C4xD5", _named("C4xD5", lambda: _prod(_c(4), dihedral(5)))),
    (40, "C2xF20", _named("C2xF20", lambda: _prod(_c(2), _f20()))),
    (40, "C2^2xD5", _named("C2^2xD5", lambda: _prod(_c(2), _c(2), dihedral(5)))),
    (40, "C5xD4", _named("C5xD4", lambda: _prod(_c(5), dihedral(4)))),
    (40, "C5xQ8", _named("C5xQ8", lambda: _prod(_c(5), dicyclic(2)))),
    (40, "C5:D4", _c5_sd_d4),
    (42, "C42", lambda: _c(42)),
    (42, "D21", lambda: dihedral(21)),
    (42, "F42", _named("F42", lambda: affine_group_over_prime_field(7))),
    (42, "C2xC7:C3", _named("C2xC7:C3", lambda: _prod(_c(2), _c7_sd_c3()))),
    (42, "C3xD7", _named("C3xD7", lambda: _prod(_c(3), dihedral(7)))),
    (42, "C7xS3", _named("C7xS3", lambda: _prod(_c(7), _s3()))),
]


def build_all(orders: tuple[int, ...] | None = None) -> list[tuple[str, FiniteGroup]]:
    out = []
    for order, name, builder in CATALOG:
        if orders is not None and order not in orders:
            continue
        G = builder()
        if G.order != order:
            raise AssertionError(f"builder for {name} produced order {G.order}")
        out.append((name, G))
    return out


def slug(order: int, name: str) -> str:
    safe = (name.lower().replace("^", "").replace(":", "_")
            .replace("(", "").replace(")", "").replace(",", ""))
    return f"{order:03d}_{safe}"


def bundled_catalog_dir() -> Path:
    return Path(__file__).parent / "data" / "catalog"


def resolve_data_path(token: str) -> Path:
    """Map @catalog/<file> and @examples/<file> to bundled data files."""
    if token.startswith("@catalog/"):
        return bundled_catalog_dir() / token[len("@catalog/"):]
    if token.startswith("@examples/"):
        return bundled_examples_dir() / token[len("@examples/"):]
    if not token:           # Path("") is the current directory; open("") is ENOENT
        raise FileNotFoundError(2, "No such file or directory", token)
    return Path(token)


def bundled_examples_dir() -> Path:
    return Path(__file__).parent / "data" / "examples"
