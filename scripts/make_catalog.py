#!/usr/bin/env python3
"""Regenerate the bundled catalog group files from the catalog names.

Each group is built from its name (see `build`) and written as one .grp
file (permutation generators from the right-regular representation),
plus the CITATIONS note, after reloading every file and checking it is
isomorphic to the group built. With ``--check`` it writes nothing and
exits 1, naming each bundled file that differs from what is built.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import partial, reduce
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from groupeq.catalog import EXPECTED_COUNTS
from groupeq.groups import (FiniteGroup, affine_group_over_prime_field, cyclic, cyclic_action,
                            dicyclic, dihedral, direct_product, format_group_file,
                            from_generators, generated_subgroup, inversion_action, isomorphic,
                            load_group, perm_identity, quotient, semidirect_product)

# The catalog names of each order, in the order `build_all` returns them. Dn is the
# dihedral group of order 2n, Dicn the dicyclic group of order 4n, Fk the Frobenius group
# of order k, a colon marks a semidirect product, C4oD4 is the central product, and an
# "x" joins the factors of a direct product.
NAMES = {
    1: "C1", 2: "C2", 3: "C3", 4: "C4 C2^2", 5: "C5", 6: "C6 S3", 7: "C7",
    8: "C8 C4xC2 C2^3 D4 Q8", 9: "C9 C3^2", 10: "C10 D5", 11: "C11",
    12: "C12 C6xC2 D6 A4 Dic3", 13: "C13", 14: "C14 D7", 15: "C15",
    16: "C16 C4^2 C8xC2 C4xC2^2 C2^4 D8 SD16 Q16 M4(2) C2xD4 C2xQ8 C4oD4 C4:C4 C2^2:C4",
    18: "C18 C3xC6 D9 C3xS3 C3:S3", 20: "C20 C2xC10 D10 F20 Dic5",
    24: "C24 C2xC12 C2^2xC6 S4 C2xA4 SL(2,3) D12 Dic6 C3:C8 C4xS3 C2xDic3 C3:D4 C3xD4 "
        "C3xQ8 C2^2xS3",
    28: "C28 C2xC14 D14 Dic7", 30: "C30 D15 C3xD5 C5xS3",
    36: "C36 C2xC18 C3xC12 C6xC6 D18 Dic9 C3xDic3 C3:Dic3 C3^2:C4 C2^2:C9 C3xA4 S3xS3 "
        "C6xS3 C2xC3:S3",
    40: "C40 C2xC20 C2^2xC10 C5:C8 C5:2C8 D20 Dic10 C2xDic5 C4xD5 C2xF20 C2^2xD5 C5xD4 "
        "C5xQ8 C5:D4",
    42: "C42 D21 F42 C2xC7:C3 C3xD7 C7xS3",
}


def _c4_o_d4() -> FiniteGroup:
    # central product C4 o D4: kill the diagonal central involution (g^2, r^2)
    G = direct_product(cyclic(4), dihedral(4))
    return quotient(G, generated_subgroup(G, [2 * 8 + 4]))[0]


def _by_d4(n: int) -> FiniteGroup:
    """Cn x| D4: r inverts, s acts trivially (the kernel is <r^2, s>)."""
    inv = inversion_action(cyclic(n))
    act = {i: inv if (i // 2) % 2 else perm_identity(n) for i in range(8)}
    return semidirect_product(cyclic(n), dihedral(4), act)


# the names that are neither products nor semidirect products by a cyclic group
BUILDERS = {
    "S3": lambda: dihedral(3), "Q8": lambda: dicyclic(2), "Q16": lambda: dicyclic(4),
    "S4": lambda: from_generators(["(1 2)", "(1 2 3 4)"]),
    "A4": lambda: from_generators(["(1 2 3)", "(2 3 4)"]),
    # [[1, 1], [0, 1]] and [[0, -1], [1, 0]] on the nonzero vectors of F_3^2
    "SL(2,3)": lambda: from_generators(["(1 4 7)(2 8 5)", "(1 6 2 3)(4 7 8 5)"]),
    "C4oD4": _c4_o_d4, "F42": lambda: affine_group_over_prime_field(7),
    "C3:D4": lambda: _by_d4(3), "C5:D4": lambda: _by_d4(5),
}

# Cn x| Cm, the generator of Cm acting on Cn by x -> x^k: name -> (n, m, k)
CYCLIC_BY_CYCLIC = {"M4(2)": (8, 2, 5), "SD16": (8, 2, 3), "C4:C4": (4, 4, 3),
                    "F20": (5, 4, 2), "C3:C8": (3, 8, 2), "C5:C8": (5, 8, 2),
                    "C5:2C8": (5, 8, 4), "C7:C3": (7, 3, 2)}

# A x| Cm, the generator of Cm permuting the elements of A: name -> (A, m, permutation)
BY_CYCLIC = {
    "C2^2:C4": ("C2^2", 4, (0, 2, 1, 3)),                   # swaps the two generators
    "C2^2:C9": ("C2^2", 9, (0, 2, 3, 1)),                   # cycles the three involutions
    "C3:S3": ("C3^2", 2, (0, 2, 1, 6, 8, 7, 3, 5, 4)),      # inversion
    "C3:Dic3": ("C3^2", 4, (0, 2, 1, 6, 8, 7, 3, 5, 4)),    # inversion
    "C3^2:C4": ("C3^2", 4, (0, 6, 3, 1, 7, 4, 2, 8, 5)),    # (a, b) -> (-b, a)
    **{name: (f"C{n}", m, tuple(k * i % n for i in range(n)))
       for name, (n, m, k) in CYCLIC_BY_CYCLIC.items()},
}


def _factors(name: str) -> list[FiniteGroup]:
    """The direct factors that a name without "x" spells: Cn^k is k copies of Cn."""
    if name in BUILDERS:
        return [BUILDERS[name]()]
    if name in BY_CYCLIC:
        base, m, perm = BY_CYCLIC[name]
        return [semidirect_product(build(base), cyclic(m), cyclic_action(cyclic(m), perm))]
    family, n, k = re.fullmatch(r"(C|Dic|D)(\d+)(?:\^(\d+))?", name).groups()
    return [{"C": cyclic, "D": dihedral, "Dic": dicyclic}[family](int(n))] * int(k or 1)


def build(name: str) -> FiniteGroup:
    """The group a catalog name spells: the direct product of its factors, in order."""
    return reduce(direct_product, [G for part in name.split("x") for G in _factors(part)])


# (order, name, builder); names are unique within each order
CATALOG = [(order, name, partial(build, name))
           for order, names in NAMES.items() for name in names.split()]


def build_all(orders: tuple[int, ...] | None = None) -> list[tuple[str, FiniteGroup]]:
    """(name, group) for the catalog entries of *orders* (default: all), by catalog name."""
    out = []
    for order, name, builder in CATALOG:
        if orders is None or order in orders:
            G = builder()
            if G.order != order:
                raise AssertionError(f"builder for {name} produced order {G.order}")
            out.append((name, FiniteGroup(G.table, G.names, name=name)))
    return out


def slug(order: int, name: str) -> str:
    safe = (name.lower().replace("^", "").replace(":", "_")
            .replace("(", "").replace(")", "").replace(",", ""))
    return f"{order:03d}_{safe}"


CITATIONS = """\
Catalog sources
===============

The group lists bundled here (one file per isomorphism type, for every
order up to 16 and for orders 18, 20, 24, 28, 30, 36, 40, 42) follow the
classical classification of groups of small order:

- O. Hoelder, "Die Gruppen der Ordnungen p^3, pq^2, pqr, p^4",
  Math. Ann. 43 (1893), and the standard classification literature
  summarized in textbooks (e.g. M. Hall, "The Theory of Groups").
- H. U. Besche, B. Eick, E. A. O'Brien, "The SmallGroups Library"
  (per-order isomorphism-type counts).
- Names largely follow the GroupNames conventions (T. Dokchitser,
  groupnames.org), except that Dn here denotes the dihedral group of
  order 2n and Dicn the dicyclic group of order 4n.

Trust boundary: the code verifies that every bundled group has the stated
order, that groups of the same order are pairwise non-isomorphic, and
that the per-order counts match the classification counts above. The
test suite also re-derives completeness for every order listed here: an
independent exhaustive enumerator (cyclic extensions of smaller groups)
finds the groups of each order, and they match the bundled files of that
order one-to-one, up to isomorphism.

Per-order counts asserted:
""" + "\n".join(f"  order {o}: {c}" for o, c in sorted(EXPECTED_COUNTS.items())) + "\n"


OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "groupeq" / "data" / "catalog"


def expected_files() -> dict[str, str]:
    """File name -> text of every catalog file and CITATIONS, as built."""
    files = {}
    for name, G in build_all():
        text = format_group_file(G, style="generators")
        reloaded = load_group(text)
        assert reloaded.order == G.order, (name, reloaded.order)
        assert isomorphic(reloaded, G) is not None, name
        files[f"{slug(G.order, name)}.grp"] = text
    files["CITATIONS"] = CITATIONS
    return files


def differing_files(directory: Path, files: dict[str, str]) -> list[str]:
    """Names of the files in *directory* that are missing, extra or differ."""
    names = set(files) | {path.name for path in directory.glob("*.grp")}
    return sorted(name for name in names
                  if not (directory / name).is_file() or name not in files
                  or (directory / name).read_text(encoding="utf-8") != files[name])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 naming each bundled file "
                             "that differs from the builders' output")
    args = parser.parse_args(argv)
    files = expected_files()
    if args.check:
        stale = differing_files(OUT_DIR, files)
        for name in stale:
            print(f"differs: {name}")
        return 1 if stale else 0
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for old in OUT_DIR.glob("*.grp"):
        old.unlink()
    for name, text in files.items():
        (OUT_DIR / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(files) - 1} group files to {OUT_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
