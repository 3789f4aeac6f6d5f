"""Bookkeeping for the bundled small-groups catalog.

The catalog ships one group file per isomorphism type for every order
listed in `EXPECTED_COUNTS` (all orders through 16, plus the composite
orders 18..42 that the structure audit sweeps). ``scripts/make_catalog.py``
builds each group from its name and writes the files, with permutation
generators from the right-regular representation.

The per-order counts are the classical classification counts (see the
CITATIONS file next to the data). The code verifies orders and pairwise
non-isomorphism, and the test suite re-derives completeness for every
catalog order: `smallgroups` enumerates each order and matches its groups
one-to-one, up to isomorphism, with the files of that order.
"""

from __future__ import annotations

from pathlib import Path

EXPECTED_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2, 10: 2, 11: 1,
    12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
    18: 5, 20: 5, 24: 15, 28: 4, 30: 4, 36: 14, 40: 14, 42: 6,
}

AUDIT_ORDERS = (12, 18, 20, 24, 28, 30, 36, 40)


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
