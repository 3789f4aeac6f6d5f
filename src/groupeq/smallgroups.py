"""Exhaustive enumeration of groups of small order, up to isomorphism.

Every group whose order is a product of small primes (in particular every
group of order <= 12) is solvable, and a solvable group always has a
normal subgroup of prime index p. It is therefore a cyclic extension:
G = <N, t> with t^p = z in N and conjugation by t an automorphism phi of
N satisfying phi(z) = z and phi^p = conjugation by z. Enumerating all
(N, p, phi, z) candidates, keeping the ones whose multiplication table
passes the full group axioms, and deduplicating by isomorphism is then a
complete enumeration.

This is a cross-check tool for the bundled catalog, deliberately capped
at small orders.
"""

from __future__ import annotations

from functools import lru_cache

from .config import DEFAULT_CONFIG, Config
from .errors import CapExceeded, ValidationError
from .groups import (FiniteGroup, automorphisms, isomorphic, prime_factors,
                     trivial_group)


def _cyclic_extensions(N: FiniteGroup, p: int) -> list[FiniteGroup]:
    """All groups with a normal copy of N of index p, with duplicates."""
    out = []
    n = N.order
    for phi in automorphisms(N):
        powers = [tuple(range(n))]
        for _ in range(p):
            powers.append(tuple(phi(x) for x in powers[-1]))
        for z in N.elements():
            # compatibility: phi fixes z and phi^p is conjugation by z
            if phi(z) != z:
                continue
            conj_z = tuple(N.table[N.table[z][x]][N.inverse[z]] for x in N.elements())
            if powers[p] != conj_z:
                continue
            table = []
            for x in range(n):
                for i in range(p):
                    row = []
                    for y in range(n):
                        for j in range(p):
                            v = N.table[x][powers[i][y]]
                            if i + j >= p:
                                v = N.table[v][z]
                            row.append(v * p + (i + j) % p)
                    table.append(row)
            try:
                G = FiniteGroup(table, None, name=f"ext({N.name},{p})")
                G.validate()
            except ValidationError:
                continue
            out.append(G)
    return out


@lru_cache(maxsize=None)
def _enumerate(n: int) -> tuple[FiniteGroup, ...]:
    if n == 1:
        return (trivial_group(),)
    found: list[FiniteGroup] = []
    for p in prime_factors(n):
        for N in _enumerate(n // p):
            for G in _cyclic_extensions(N, p):
                if all(isomorphic(G, H) is None for H in found):
                    found.append(G)
    return tuple(found)


def enumerate_groups(n: int, config: Config = DEFAULT_CONFIG) -> list[FiniteGroup]:
    """All groups of order n up to isomorphism (n capped by config)."""
    if n < 1:
        raise ValidationError("order must be positive")
    if n > config.enumeration_cap:
        raise CapExceeded(
            f"enumeration is capped at order {config.enumeration_cap}, got {n}")
    return list(_enumerate(n))
