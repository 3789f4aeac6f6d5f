"""Finite group engine.

Groups are stored as validated Cayley tables over element indices
``0..order-1``. Index 0 is always the identity and is always named ``"1"``;
tables are normalized on construction so this holds for every group that
leaves this module. Objects do not change once built; the element names of
permutation closures and quotients are built only when first read.

Subgroups are Python-int bitsets; the lattice, normal subgroups, commutator
subgroups, both central series and Sylow subgroups all grow them with one
closure, ``_close``, and none is re-checked: only ``subgroup`` checks a
caller's element list. Associativity (Light's test), normality and
commutativity are decided on a generating sequence that each group caches,
as it caches its derived series.

A group, a FiniteGroup or a packed `wreath.WreathGroup`, has a name and is read
only through order, identity, mul, mul_all, inv, conj, elements, element_name
and index_of.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from math import gcd
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .config import DEFAULT_CONFIG, Config
from .errors import CapExceeded, ParseError, ValidationError, read_text_file
from .record import Record
from .words import strip_comment

Perm = tuple[int, ...]
MAX_TABLE_ORDER = 4096     # largest order of any Cayley table built (order^2 entries)


# ---------------------------------------------------------------------------
# permutations (0-based internally; file cycle notation is 1-based)

def perm_compose(p: Perm, q: Perm) -> Perm:
    """Left-to-right composition: apply p, then q."""
    return tuple(map(q.__getitem__, p))


def perm_identity(n: int) -> Perm:
    return tuple(range(n))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> Perm:
    """Parse cycle notation like ``(1 2 3)(4 5)`` or ``(1,2,3)`` (1-based)."""
    stripped = text.replace(" ", "").replace(",", "")
    if stripped in ("", "()"):
        return ()
    body = text.strip()
    if not re.fullmatch(r"(\s*\([^()]*\)\s*)+", body):
        raise ParseError(f"bad cycle notation: {text!r}")
    cycles: list[list[int]] = []
    maxpt = 0
    for inner in _CYCLE_RE.findall(body):
        pts = [tok for tok in re.split(r"[,\s]+", inner.strip()) if tok]
        if not pts:
            continue
        try:
            cyc = [int(tok) for tok in pts]
        except ValueError as exc:
            raise ParseError(f"bad cycle entry in {text!r}: {exc}") from exc
        if any(p < 1 for p in cyc):
            raise ParseError(f"cycle points must be >= 1 in {text!r}")
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"repeated point inside a cycle: {text!r}")
        maxpt = max(maxpt, max(cyc))
        if maxpt > MAX_TABLE_ORDER:     # the point list below has maxpt entries
            raise ParseError(f"cycle point {maxpt} exceeds the point cap {MAX_TABLE_ORDER}")
        cycles.append(cyc)
    flat = [p for cyc in cycles for p in cyc]
    if len(set(flat)) != len(flat):
        raise ParseError(f"cycles are not disjoint: {text!r}")
    perm = list(range(maxpt))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def cycles_str(perm: Perm) -> str:
    """Format a permutation in compact 1-based cycle notation."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = perm[x]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


# ---------------------------------------------------------------------------
# core type

class FiniteGroup:
    """A finite group given by its Cayley table.

    ``table[a][b]`` is the index of the product a*b. Construction performs
    the cheap structural checks (identity, Latin property, two-sided
    inverses, unique names); ``validate()`` additionally checks
    associativity, which products built by this module guarantee by
    construction. *names* may be a function returning them: the names are
    then built, and checked unique, only when first read.
    """

    __slots__ = ("name", "order", "table", "inverse", "_make_names", "_identity_was",
                 "__dict__")

    def __init__(self, table: Sequence[Sequence[int]],
                 names: Sequence[str] | Callable[[], Sequence[str]] | None = None,
                 name: str = "G") -> None:
        n = len(table)
        if n == 0:
            raise ValidationError("empty Cayley table")
        rows = [tuple(map(int, row)) for row in table]
        if any(len(row) != n for row in rows):
            raise ValidationError("Cayley table is not square")
        if any(min(row) < 0 or max(row) >= n for row in rows):
            raise ValidationError("Cayley table entry out of range")
        if names is None:
            names = [f"g{i}" for i in range(n)]     # by file index; the identity becomes "1"
        if not callable(names) and len(names) != n:
            raise ValidationError("names length does not match order")

        rows, self._identity_was = _normalize_identity(rows)

        self.name, self.order, self.table = name, n, tuple(rows)
        self._make_names = names
        if not callable(names):
            self.names      # given names are checked at once

        full = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise ValidationError(f"row of {self.names[i]!r} is not a permutation")
        for j, col in enumerate(zip(*self.table)):
            if set(col) != full:
                raise ValidationError(f"column of {self.names[j]!r} is not a permutation")

        self.inverse = tuple(row.index(0) for row in self.table)
        for a, b in enumerate(self.inverse):
            if self.table[b][a] != 0:
                raise ValidationError(f"element {self.names[a]!r} has no two-sided inverse")

    @cached_property
    def names(self) -> tuple[str, ...]:
        names = self._make_names
        names = [str(s) for s in (names() if callable(names) else names)]
        e = self._identity_was
        names[0], names[e] = names[e], names[0]
        if names[0] != "1":
            if "1" in names[1:]:
                raise ValidationError('the name "1" is reserved for the identity')
            names[0] = "1"
        if len(set(names)) != self.order:
            raise ValidationError("element names are not unique")
        return tuple(names)

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.names)}

    # -- basic ops ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def mul_all(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[x*y for x, y in zip(xs, ys)] as one gather over the table."""
        t = self.table
        return [t[x][y] for x, y in zip(xs, ys)]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    identity = 0

    def conj(self, g: int, h: int) -> int:
        """g**h = h^-1 * g * h."""
        hinv = self.inverse[h]
        return self.table[self.table[hinv][g]][h]

    def comm(self, g: int, h: int) -> int:
        """[g,h] = g^-1 h^-1 g h."""
        t = self.table
        return t[t[t[self.inverse[g]][self.inverse[h]]][g]][h]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse[a], -k
        out = 0
        while k:
            if k & 1:
                out = self.table[out][a]
            a = self.table[a][a]
            k >>= 1
        return out

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.table[x][a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def element_name(self, a: int) -> str:
        return self.names[a]

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise ValidationError(f"group {self.name!r} has no element named {name!r}") from None

    @cached_property
    def is_abelian(self) -> bool:
        t, gens = self.table, self._generators
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    @cached_property
    def order_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.element_order(a) for a in self.elements()))

    @cached_property
    def _generators(self) -> tuple[int, ...]:
        """`_generating_sequence` of the whole group."""
        return tuple(_generating_sequence(self, self.elements()))

    @cached_property
    def _derived(self) -> tuple[Subgroup, ...]:
        """The derived series; `derived_series` returns a copy."""
        return tuple(_series(self, lambda S: commutator_subgroup(self, S)))

    @cached_property
    def _fingerprint(self) -> tuple:
        """Isomorphism invariants, compared before any map is tried."""
        Z = center(self)
        return (self.order, self.is_abelian, self.order_multiset,
                tuple(sorted(self.element_order(z) for z in Z.elements)),
                tuple(S.order for S in self._derived))

    def validate(self) -> None:
        """Full axiom check; raises ValidationError naming the row-major first failing triple.

        Light's test (Clifford and Preston, The Algebraic Theory of Semigroups
        I, 1.2): the s with (a*s)*c == a*(s*c) for all a, c are closed under
        products, so it is enough that row(a*s) is row(a) read at row(s) (one
        itemgetter gather) for the generators s, once ``_close`` (reachability,
        as x*1 = x) shows they reach every element. Failures gather all pairs.
        """
        t = self.table
        n = self.order
        if n == 1:      # itemgetter with one index returns a scalar
            return
        gens = self._generators
        if _close(self, 1, gens).bit_count() == n and all(
                t[row[s]] == gather(row)
                for s in gens for gather in [itemgetter(*t[s])] for row in t):
            return
        gathers = [itemgetter(*row) for row in t]
        for a, row_a in enumerate(t):
            for b, ab in enumerate(row_a):
                left = t[ab]                    # c -> (a*b)*c
                right = gathers[b](row_a)       # c -> a*(b*c)
                if left != right:
                    c = next(c for c in range(n) if left[c] != right[c])
                    raise ValidationError(
                        "associativity fails at triple "
                        f"({self.names[a]!r}, {self.names[b]!r}, {self.names[c]!r})")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteGroup) and self.table == other.table
                and self.names == other.names)

    def __hash__(self) -> int:
        return hash((self.order, self.table))


def _normalize_identity(rows: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], int]:
    """The rows with the identity swapped to index 0, and its old index."""
    n = len(rows)
    ident = None
    idx = tuple(range(n))
    for e in range(n):
        if rows[e] == idx and all(rows[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise ValidationError("table has no two-sided identity element")
    if ident != 0:
        swap = list(range(n))
        swap[0], swap[ident] = ident, 0
        rows = [tuple(swap[rows[swap[a]][swap[b]]] for b in range(n)) for a in range(n)]
    return rows, ident


# ---------------------------------------------------------------------------
# subgroups and homomorphisms

class Subgroup(Record):
    """A subgroup as the bitset of its element indices, read ascending as ``elements``."""
    parent: FiniteGroup
    bits: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", _members(self.bits))     # a function of bits

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, a: int) -> bool:
        return bool(self.bits >> a & 1)

    def is_abelian(self) -> bool:
        t, gens = self.parent.table, _generating_sequence(self.parent, self.elements)
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    def as_group(self, name: str | None = None) -> FiniteGroup:
        """The subgroup as a standalone FiniteGroup on re-indexed elements."""
        pos = {g: i for i, g in enumerate(self.elements)}
        table = [[pos[self.parent.table[a][b]] for b in self.elements]
                 for a in self.elements]
        return FiniteGroup(table, lambda: [self.parent.names[g] for g in self.elements],
                           name or f"{self.parent.name}-sub{self.order}")


def subgroup(G: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """The subgroup of G on a caller's element indices, checked for range and closure."""
    bits = 0
    for a in elements:
        if not 0 <= a < G.order:
            raise ValidationError(f"subgroup element index {a} is out of range 0..{G.order - 1}")
        bits |= 1 << a
    if not bits & 1:
        raise ValidationError("subgroup must contain the identity")
    for a in (elems := _members(bits)):
        if not bits >> G.inverse[a] & 1:
            raise ValidationError(f"subgroup not closed under inverse at {G.names[a]!r}")
        for b in elems:
            if not bits >> G.table[a][b] & 1:
                raise ValidationError(
                    f"subgroup not closed under product at ({G.names[a]!r}, {G.names[b]!r})")
    return Subgroup(G, bits)


def _members(bits: int) -> tuple[int, ...]:
    """The indices of the set bits of *bits*, ascending."""
    return tuple(i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1")


def _close(G: FiniteGroup, bits: int, gens: Sequence[int]) -> int:
    """Bitset of the subgroup K generated by the subgroup *bits* and *gens*,
    where *gens* generate K or *bits* is normal in K. K is a union of left
    cosets x*bits, which left multiplication by a generator permutes, so a
    breadth-first search over coset representatives adds each coset once."""
    t, hs = G.table, _members(bits)
    frontier = [0]
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                x = t[g][r]
                if not bits >> x & 1:
                    row = t[x]
                    for h in hs:
                        bits |= 1 << row[h]
                    nxt.append(x)
        frontier = nxt
    return bits


def closure(G: FiniteGroup, seed: Sequence[int]) -> tuple[int, ...]:
    """Elements of the subgroup generated by *seed*."""
    return _members(_close(G, 1, seed))


def is_normal(G: FiniteGroup, S: Subgroup) -> bool:
    """S^g is in S for each generator g, hence S^g = S, for every g in G."""
    return all(S.bits >> G.conj(s, g) & 1 for g in G._generators for s in S.elements)


def check_subgroup_cap(order: int, config: Config) -> None:
    """Refuse a subgroup enumeration in a group of *order* past the cap."""
    if order > config.subgroup_order_cap:
        raise CapExceeded(
            f"subgroup enumeration needs order <= {config.subgroup_order_cap}, got {order}")


def _joins(G: FiniteGroup, config: Config,
           atoms: Iterable[tuple[int, list[int]]]) -> list[Subgroup]:
    """Every join of the subgroups in *atoms*, (bitset, generators) pairs
    read only after the order cap is checked, sorted by (order, elements).
    Each subgroup found is grown once by each atom it does not contain, and
    every join of atoms is a chain of such steps; a union that is already a
    subgroup found is its own join."""
    check_subgroup_cap(G.order, config)
    atoms = dict(atoms)
    found = dict(atoms)
    work = list(found)
    while work:
        new = []
        for bits in work:
            for atom, atom_gens in atoms.items():
                if bits & atom != atom and bits | atom not in found:
                    gens = found[bits] + atom_gens
                    joined = _close(G, bits, gens)
                    if joined not in found:
                        found[joined] = gens
                        new.append(joined)
        work = new
    return sorted((Subgroup(G, bits) for bits in found), key=lambda S: (S.order, S.elements))


def all_subgroups(G: FiniteGroup, config: Config = DEFAULT_CONFIG) -> list[Subgroup]:
    """Every subgroup of G, sorted by (order, elements).

    Every subgroup of a finite group is a join of cyclic subgroups, and a
    cyclic subgroup is the join of its Sylow subgroups, so the joins of the
    cyclic subgroups of prime-power order find them all.
    """
    return _joins(G, config, ((_close(G, 1, [g]), [g]) for g in G.elements()
                              if len(prime_factors(G.element_order(g))) < 2))


def normal_subgroups(G: FiniteGroup, config: Config = DEFAULT_CONFIG) -> list[Subgroup]:
    """Every normal subgroup of G, sorted by (order, elements).

    A normal subgroup is the join of the normal closures of its elements,
    each generated by a conjugacy class (an orbit under conjugation by the
    generators), so the joins of the closures, one per class, find them all.
    """
    return _joins(G, config, ((_close(G, 1, cls), cls) for cls in _classes(G)))


def _classes(G: FiniteGroup) -> Iterator[list[int]]:
    seen: set[int] = set()
    for g in G.elements():
        if g not in seen:
            seen.add(g)
            cls = [g]
            for x in cls:                   # appending while iterating
                new = {G.conj(x, h) for h in G._generators} - seen
                seen |= new
                cls += sorted(new)
            yield cls


def _generating_sequence(G: FiniteGroup, elems: Iterable[int]) -> list[int]:
    """Generators of the subgroup *elems*, taken greedily by descending
    element order, then index (``G._generators`` for G itself)."""
    gens: list[int] = []
    span = 1
    for g in sorted(elems, key=lambda x: (-G.element_order(x), x)):
        if not span >> g & 1:
            gens.append(g)
            span = _close(G, span, gens)
    return gens


def _commutators(G: FiniteGroup, xs: Sequence[int], ys: Sequence[int]) -> Subgroup:
    """[<xs>, <ys>]: the normal closure in <xs, ys> of the commutators [x, y]
    of the generators (Robinson, A Course in the Theory of Groups, 5.1.7).
    Each conjugate of a generator of the closure by a generator of
    <xs, ys> that falls outside it is added, until none does."""
    gens: list[int] = []
    bits = 1
    todo = [G.comm(x, y) for x in xs for y in ys]
    while todo:
        c = todo.pop()
        if not bits >> c & 1:
            gens.append(c)
            bits = _close(G, bits, gens)
            todo += [G.conj(c, z) for z in (*xs, *ys)]
    return Subgroup(G, bits)


def _series(G: FiniteGroup, step: Callable[[Subgroup], Subgroup]) -> list[Subgroup]:
    """G, step(G), step(step(G)), ..., stopping once a term repeats."""
    series = [Subgroup(G, (1 << G.order) - 1)]
    while (nxt := step(series[-1])).bits != series[-1].bits:
        series.append(nxt)
    return series


def commutator_subgroup(G: FiniteGroup, within: Subgroup | None = None) -> Subgroup:
    """[S, S] for S = *within* (default G)."""
    gens = G._generators if within is None else _generating_sequence(G, within.elements)
    return _commutators(G, gens, gens)


def derived_series(G: FiniteGroup) -> list[Subgroup]:
    """G >= G' >= G'' >= ..., stopping once the series stabilizes."""
    return list(G._derived)


def lower_central_series(G: FiniteGroup) -> list[Subgroup]:
    """G >= [G, G] >= [[G, G], G] >= ..., stopping once it stabilizes."""
    return _series(G, lambda S: _commutators(
        G, _generating_sequence(G, S.elements), G._generators))


def center(G: FiniteGroup) -> Subgroup:
    t = G.table
    return Subgroup(G, sum(1 << z for z in G.elements()
                           if all(t[z][g] == t[g][z] for g in G._generators)))


def is_metabelian(G: FiniteGroup) -> bool:
    """Second derived subgroup is trivial."""
    series = G._derived
    return len(series) <= 3 and series[-1].order == 1


def is_nilpotent(G: FiniteGroup) -> bool:
    return lower_central_series(G)[-1].order == 1


def sylow_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """A subgroup of order equal to the maximal power of p dividing |G|:
    one pass adds each p-element that keeps the subgroup a p-group, which
    leaves a maximal p-subgroup, hence (Sylow) a Sylow subgroup."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if G.order % p != 0:
        raise ValidationError(f"{p} does not divide the group order {G.order}")
    gens: list[int] = []
    bits = 1
    for g in G.elements():
        if not bits >> g & 1 and p_split(G.element_order(g), p)[1] == 1:
            grown = _close(G, bits, gens + [g])
            if p_split(grown.bit_count(), p)[1] == 1:
                gens.append(g)
                bits = grown
    return Subgroup(G, bits)


def p_split(n: int, p: int) -> tuple[int, int]:
    """(a, u) with n = p^a * u and u prime to p, for n nonzero and p > 1."""
    a = 0
    while n % p == 0:
        n, a = n // p, a + 1
    return a, n


class Homomorphism(Record):
    """A checked map from a FiniteGroup into any group of the module's
    protocol; the check costs one ``mul_all`` gather per source row and
    names the first failing pair."""
    source: FiniteGroup
    target: object
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        img = tuple(int(x) for x in self.image)
        object.__setattr__(self, "image", img)
        n = self.source.order
        if len(img) != n:
            raise ValidationError("homomorphism image has wrong length")
        if any(x < 0 or x >= self.target.order for x in img):
            raise ValidationError("homomorphism image out of range")
        if img[0] != 0:
            raise ValidationError("homomorphism must send identity to identity")
        mul_all = self.target.mul_all
        for a, row in enumerate(self.source.table):
            got = mul_all([img[a]] * n, img)              # img(a) * img(b)
            want = [img[ab] for ab in row]                # img(a * b)
            if got != want:
                b = next(b for b in range(n) if got[b] != want[b])
                raise ValidationError(
                    f"not multiplicative at ({self.source.names[a]!r}, "
                    f"{self.source.names[b]!r})")

    def __call__(self, a: int) -> int:
        return self.image[a]

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.source.order


def quotient(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, Homomorphism]:
    """The quotient G/N with its canonical projection; N must be normal."""
    if N.parent is not G and N.parent != G:
        raise ValidationError("subgroup does not belong to this group")
    if not is_normal(G, N):
        raise ValidationError("subgroup is not normal")
    rep_of: dict[int, int] = {}         # each coset is first met at its least element
    for g in G.elements():
        if g not in rep_of:
            rep_of.update((G.table[g][n], g) for n in N.elements)
    reps = sorted(set(rep_of.values()))
    pos = {r: i for i, r in enumerate(reps)}
    table = [[pos[rep_of[G.table[a][b]]] for b in reps] for a in reps]
    Q = FiniteGroup(table, lambda: ["1"] + [f"[{G.names[r]}]" for r in reps[1:]],
                    name=f"{G.name}/N{N.order}")
    proj = Homomorphism(G, Q, tuple(pos[rep_of[g]] for g in G.elements()))
    return Q, proj


# ---------------------------------------------------------------------------
# constructions

def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], ["1"], name="1")


def cyclic(n: int, name: str | None = None, gen_symbol: str = "g") -> FiniteGroup:
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    names = ["1"] + [gen_symbol if k == 1 else f"{gen_symbol}^{k}" for k in range(1, n)]
    return FiniteGroup(table, names, name or f"C{n}")


def direct_product(G: FiniteGroup, H: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n, m = G.order, H.order
    table = [[(G.table[a1][a2]) * m + H.table[b1][b2]
              for a2 in range(n) for b2 in range(m)]
             for a1 in range(n) for b1 in range(m)]
    names = [f"({G.names[a]},{H.names[b]})" for a in range(n) for b in range(m)]
    return FiniteGroup(table, names, name or f"{G.name}x{H.name}")


def from_generators(perms: Sequence[Perm | str], name: str = "G",
                    max_order: int | None = None) -> FiniteGroup:
    """Closure of permutations under composition, as a Cayley table.

    Elements are numbered breadth-first from the identity and named in
    cycle notation when their names are first read. The search
    records right[j][a] = a*g_j and, for each new element b = parent*g_j,
    (parent, j), so column b is column parent read through right[j]:
    a*b = (a*parent)*g_j. Before any table is built, passing *max_order*
    elements raises ParseError and passing MAX_TABLE_ORDER CapExceeded.
    """
    parsed = [parse_cycles(p) if isinstance(p, str) else tuple(p) for p in perms]
    degree = max((len(p) for p in parsed), default=1)
    gens = []
    for p in parsed:
        q = tuple(p) + tuple(range(len(p), degree))
        if sorted(q) != list(range(degree)):
            raise ValidationError(f"not a permutation: {p!r}")
        gens.append(q)
    ident = perm_identity(degree)
    elems: list[Perm] = [ident]
    pos: dict[Perm, int] = {ident: 0}
    right: list[list[int]] = [[] for _ in gens]
    steps: list[tuple[int, list[int]]] = []     # (parent, right[j]) of elements 1..n-1
    for a, e in enumerate(elems):               # appending while iterating: breadth-first
        for g, right_g in zip(gens, right):
            prod = perm_compose(e, g)
            x = pos.get(prod)
            if x is None:
                if max_order is not None and len(elems) >= max_order:
                    raise ParseError(f"generators produce a group of order more than "
                                     f"{max_order}, header says {max_order}")
                if len(elems) >= MAX_TABLE_ORDER:
                    raise CapExceeded(
                        f"generator closure exceeds the table cap {MAX_TABLE_ORDER}")
                x = pos[prod] = len(elems)
                elems.append(prod)
                steps.append((a, right_g))
            right_g.append(x)
    cols = [range(len(elems))]                  # column b: a -> a*b
    for parent, right_g in steps:
        cols.append(list(map(right_g.__getitem__, cols[parent])))
    table = list(zip(*cols))
    return FiniteGroup(table, lambda: ["1"] + [cycles_str(e) for e in elems[1:]],
                       name=name)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981   # Sorenson and Webster 2015


def is_prime(n: int) -> bool:
    """Trial division below 43^2, else Miller-Rabin to the 13 prime bases to 41 (a base
    sharing a factor with n is a witness): exact below ``_MR_EXACT_BELOW``, then CapExceeded."""
    if n < 43 * 43:         # a composite n has a factor b <= 41 with b * b <= n
        return n >= 2 and all(n % b for b in _MR_BASES if b * b <= n)
    if n >= _MR_EXACT_BELOW:
        raise CapExceeded(f"cannot decide whether {n} is prime (exact below {_MR_EXACT_BELOW})")
    s = ((n - 1) & (1 - n)).bit_length() - 1       # n - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


_TRIAL_BOUND, _RHO_STEPS = 1 << 10, 1 << 17       # the work bounds of prime_factors
_RHO_BATCH = 128                # rho steps whose differences share one gcd


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n that bounded work proves, in increasing order:
    trial division below ``_TRIAL_BOUND``, then, on what is left, `is_prime` and Brent's
    variant of Pollard's rho (R. P. Brent, BIT 20, 1980) for ``_RHO_STEPS`` steps in all,
    one gcd per ``_RHO_BATCH`` steps, replayed step by step when it is not 1. The primes
    of a cofactor left unfactored are not listed; below ``_TRIAL_BOUND ** 2`` none is left."""
    out = []
    for p in itertools.chain([2], range(3, _TRIAL_BOUND, 2)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    todo, steps = [n] if n > 1 else [], _RHO_STEPS
    while todo:                 # no m has a prime factor below _TRIAL_BOUND
        m = todo.pop()
        if m < _TRIAL_BOUND ** 2 or m < _MR_EXACT_BELOW and is_prime(m):
            out.append(m)
            continue
        x, y, c, i = 2, 2, 1, 1     # y -> y*y + c, compared with x, its value at step 2^k
        while steps:
            saved, batch, q = (x, y, i), min(steps, _RHO_BATCH), 1
            for _ in range(batch):
                y = (y * y + c) % m
                q = q * (x - y) % m
                if i & (i - 1) == 0:
                    x = y
                i += 1
            if gcd(q, m) == 1:
                steps -= batch
                continue
            x, y, i = saved     # some step of the batch meets a factor: replay it
            while True:
                steps -= 1
                y = (y * y + c) % m
                g = gcd(x - y, m)
                if g > 1:
                    break
                if i & (i - 1) == 0:
                    x = y
                i += 1
            if g < m:
                todo += [g, m // g]
                break
            x, y, c, i = 2, 2, c + 1, 1     # the cycle closed mod m itself: start again with c + 1
    return sorted(set(out))


# ---------------------------------------------------------------------------
# isomorphism search

def _extend_map(G: FiniteGroup, H: FiniteGroup, gens: Sequence[int],
                images: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Extend gens->images to an isomorphism G -> H, or None. Checking
    img(a*g) = img(a)*h once per element a and generator g -> h makes img
    multiplicative (induction on word length), so a bijection suffices."""
    img: list[Optional[int]] = [None] * G.order
    img[0] = 0
    reached = [0]
    for a in reached:                   # appending while iterating: breadth-first
        row, hrow = G.table[a], H.table[img[a]]
        for g, h in zip(gens, images):
            x, y = row[g], hrow[h]
            if img[x] is None:
                img[x] = y
                reached.append(x)
            elif img[x] != y:
                return None
    if len(reached) != G.order or len(set(img)) != G.order:
        return None
    return tuple(img)


def all_isomorphisms(G: FiniteGroup, H: FiniteGroup,
                     config: Config = DEFAULT_CONFIG) -> Iterator[Homomorphism]:
    """Yield every isomorphism G -> H (possibly none)."""
    if max(G.order, H.order) > config.iso_order_cap:
        raise CapExceeded(
            f"isomorphism search capped at order {config.iso_order_cap}")
    if G._fingerprint != H._fingerprint:
        return
    gens = G._generators
    by_order: dict[int, list[int]] = {}
    for h in H.elements():
        by_order.setdefault(H.element_order(h), []).append(h)
    cands = [by_order.get(G.element_order(g), []) for g in gens]
    for images in itertools.product(*cands):
        image = _extend_map(G, H, gens, images)
        if image is not None:
            yield Homomorphism(G, H, image)


def isomorphic(G: FiniteGroup, H: FiniteGroup,
               config: Config = DEFAULT_CONFIG) -> Optional[Homomorphism]:
    """A concrete isomorphism G -> H, or None; the decision is exact."""
    return next(all_isomorphisms(G, H, config), None)


def automorphisms(G: FiniteGroup) -> list[Homomorphism]:
    return list(all_isomorphisms(G, G))


# ---------------------------------------------------------------------------
# abelian p-group decomposition

def check_abelian_p_group(G: FiniteGroup, p: int) -> None:
    """Refuse a G that is not abelian, then one whose order is not a power of p."""
    if not G.is_abelian:
        raise ValidationError("group is not abelian")
    if p_split(G.order, p)[1] != 1:
        raise ValidationError(f"group order {G.order} is not a power of {p}")


def abelian_p_basis(G: FiniteGroup, p: int) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Indices b_1..b_l with G = <b_1> x ... x <b_l>, orders p^k1 >= ... >= p^kl, and
    coords[h] = (e_1, ..., e_l) with h = b_1^e_1 * ... * b_l^e_l, 0 <= e_i < ord(b_i).

    One greedy pass over the elements sorted by (-order, index): g is kept
    when g^(ord(g)/p) lies outside the span S of the elements kept so far,
    and S grows by <g>. Every nontrivial subgroup of the p-group <g>
    contains that element of order p, so the test holds exactly when <g>
    meets S trivially. Then S x <g> is direct, and s*g^e gets coords[s] + (e,).

    Each S is a direct summand, G = S x C, by induction. A nontrivial c in
    C meets S trivially, so it also meets the smaller span of its own turn
    trivially; had c come before g, it would have been kept and would lie
    in S. So no element of C has order above ord(g). When g is kept, its
    projection to C has the order of g and generates a cyclic subgroup of
    maximal order, which is a direct summand of C, so S x <g> is again a
    summand of G. The same argument shows that the pass ends with S = G.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    check_abelian_p_group(G, p)
    orders = [G.element_order(g) for g in G.elements()]
    basis: list[int] = []
    coords: dict[int, tuple[int, ...]] = {0: ()}           # over S, keyed by S's elements
    for g in sorted(G.elements(), key=lambda g: (-orders[g], g)):
        if len(coords) == G.order:
            break
        if G.power(g, orders[g] // p) not in coords:
            basis.append(g)
            powers = [G.power(g, e) for e in range(orders[g])]
            coords = {G.table[s][x]: c + (e,) for s, c in coords.items()
                      for e, x in enumerate(powers)}
    return basis, coords


# ---------------------------------------------------------------------------
# group file format

def group_header(text: str) -> tuple[str, int]:
    """The name and declared order of a group file, from its header alone."""
    lines = (strip_comment(ln).rstrip() for ln in text.splitlines())
    first = next((ln for ln in lines if ln.strip()), None)
    if first is None:
        raise ParseError("empty group file")
    header = first.split()
    if len(header) != 4 or header[0] != "group" or header[2] != "order":
        raise ParseError(f"bad header: {first!r} "
                         "(expected: group <name> order <n>)")
    try:
        order = int(header[3])
    except ValueError as exc:
        raise ParseError(f"bad order in header: {header[3]!r}") from exc
    if order < 1:
        raise ParseError("order must be positive")
    if order > MAX_TABLE_ORDER:
        raise CapExceeded(f"group order {order} exceeds the table cap {MAX_TABLE_ORDER}")
    return header[1], order


def load_group(text: str) -> FiniteGroup:
    """Parse and fully validate a group file (see package docs for the format)."""
    name, order = group_header(text)
    lines = [(n, strip_comment(ln).rstrip()) for n, ln in enumerate(text.splitlines(), 1)]
    lines = [(n, ln) for n, ln in lines if ln.strip()]
    if len(lines) < 2:
        raise ParseError("missing body (table: or generators:)")
    mode = lines[1][1].strip()
    body = lines[2:]
    if mode == "table:":
        try:
            rows = [[int(tok) for tok in ln.split()] for _, ln in body]
        except ValueError as exc:
            raise ParseError(f"bad table entry: {exc}") from exc
        entries = sum(map(len, rows))
        if entries != order * order:
            raise ParseError(f"table has {entries} entries, expected {order * order}")
        for (lineno, _), row in zip(body, rows):    # n lines of n entries
            if len(row) != order:
                raise ParseError(f"line {lineno}: table row has {len(row)} "
                                 f"entries, expected {order}")
        G = FiniteGroup(rows, None, name=name)
    elif mode == "generators:":
        perms = [parse_cycles(ln) for _, ln in body]
        G = from_generators(perms, name=name, max_order=order)
        if G.order != order:
            raise ParseError(
                f"generators produce a group of order {G.order}, header says {order}")
    else:
        raise ParseError(f"expected 'table:' or 'generators:', got {mode!r}")
    G.validate()
    return G


def load_group_file(path: str | Path) -> FiniteGroup:
    return load_group(read_text_file(path))
