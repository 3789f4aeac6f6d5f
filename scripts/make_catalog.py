#!/usr/bin/env python3
"""Regenerate the bundled catalog group files from the builders.

Writes one .grp file per catalog entry (permutation generators from the
right-regular representation) plus the CITATIONS note, after reloading
every file and checking it is isomorphic to its builder's output. With
``--check`` it writes nothing and exits 1, naming each bundled file that
differs from what the builders produce.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from groupeq.catalog import CATALOG, EXPECTED_COUNTS, slug
from groupeq.groups import FiniteGroup, format_group_file, isomorphic, load_group

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
that the per-order counts match the classification counts above. It does
NOT re-derive completeness of the classification, except for orders <= 12
where an independent exhaustive enumerator (cyclic extensions of smaller
groups) reproduces the counts.

Per-order counts asserted:
""" + "\n".join(f"  order {o}: {c}" for o, c in sorted(EXPECTED_COUNTS.items())) + "\n"


OUT_DIR = Path(__file__).resolve().parent.parent / "src" / "groupeq" / "data" / "catalog"


def expected_files() -> dict[str, str]:
    """File name -> text of every catalog file and CITATIONS, as built."""
    files = {}
    for order, name, builder in CATALOG:
        G = builder()
        assert G.order == order, (name, G.order)
        named = FiniteGroup(G.table, G.names, name=name)
        text = format_group_file(named, style="generators")
        reloaded = load_group(text)
        assert reloaded.order == order, (name, reloaded.order)
        assert isomorphic(reloaded, named) is not None, name
        files[f"{slug(order, name)}.grp"] = text
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
