"""Cartesian wreath products and the coordinatewise system transformation.

A wreath product H wr B is the set of pairs (f, t) with f: B -> H and
t in B; the top group acts on tuples by index translation, so conjugating
a base element by d moves coordinate b to coordinate b*d^-1. Elements are
packed into integers and multiplied without a Cayley table, which keeps
groups like C2 wr (C2 x C3) (order 384) cheap to work with and bounds them
by ``wreath_order_cap`` alone; ``realize`` builds the table on request.
`kaloujnine_krasner` embeds G into N wr (G/N) as a `Homomorphism` checked
on the packed product.

The transformation pipeline turns a system over H wr B into an equivalent
family of systems over H, one per top element. Each stage hands
an ordinary `EquationSystem` to the next, so `solve`'s scan, `satisfies`
and `brute_force_solve` read every one of them as is:

1. `normalize_top_component` changes variables so every coefficient lies
   in the base. The system must be p-nonsingular, so the image system over
   the abelian top solves in the top itself and the wreath product never
   grows; the output is bound to the same wreath product, the change
   x -> x*beta written with bound top elements.
2. `coordinatewise_transform` rewrites each equation of a system bound to
   H wr B whose top parts cancel into |B| equations over H in the
   variables y_<i>_<b>, bound to H.
3. `extract_rows` produces, per original equation, the row of group-ring
   elements over Z_p[B] that controls independence, together with the
   translation relation between the rows for different top elements.
4. `reconstruct_solution` assembles a wreath solution from a pointwise one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import AbelianGroupSpec, AlgebraElement, RowFamily, augmentation
from .config import DEFAULT_CONFIG, Config
from .equations import (EquationSystem, is_p_nonsingular, satisfies,
                        solve_abelian_p_system)
from .errors import CapExceeded, ValidationError
from .groups import (MAX_TABLE_ORDER, FiniteGroup, Homomorphism, Subgroup,
                     abelian_p_basis, dlog_table, quotient)
from .record import Record
from .words import COEFF, VAR, Letter, exponent_sum


def wreath_order(base_order: int, top_order: int, config: Config = DEFAULT_CONFIG) -> int:
    """|H|^|B| * |B|, or CapExceeded over ``wreath_order_cap`` (no power past its bit length)."""
    cap = config.wreath_order_cap
    order = base_order ** min(top_order, cap.bit_length()) * top_order
    if order > cap:
        raise CapExceeded(f"wreath product order {base_order}^{top_order} * "
                          f"{top_order} exceeds cap {cap}")
    return order


class WreathGroup:
    """H wr B on packed element indices; identity is index 0."""

    identity = 0

    def __init__(self, base: FiniteGroup | WreathGroup, top: FiniteGroup,
                 config: Config = DEFAULT_CONFIG) -> None:
        self.order = wreath_order(base.order, top.order, config)
        self.base = base
        self.top = top
        self.name = f"{base.name}wr{top.name}"
        self._translate = tuple(zip(*top.table))     # [t][b] = b*t
        self._group: FiniteGroup | None = None

    # -- packing -------------------------------------------------------------

    def encode(self, f: Iterable[int], t: int) -> int:
        n, code = self.base.order, 0
        for v in f:
            code = code * n + v
        return code * self.top.order + t

    def decode(self, x: int) -> tuple[list[int], int]:
        n, k = self.base.order, self.top.order
        code, t = divmod(x, k)
        f = [0] * k
        for i in range(k - 1, -1, -1):
            code, f[i] = divmod(code, n)
        return f, t

    def embed_base(self, f: Sequence[int]) -> int:
        return self.encode(f, 0)

    def embed_top(self, t: int) -> int:
        return self.encode((0,) * self.top.order, t)

    def top_of(self, x: int) -> int:
        return x % self.top.order

    # -- group law -------------------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        f, t = self.decode(x)
        g, u = self.decode(y)
        prod = self.base.mul_all(f, [g[b] for b in self._translate[t]])
        return self.encode(prod, self.top.table[t][u])

    def mul_all(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[x*y for x, y in zip(xs, ys)], without realizing the table."""
        return list(map(self.mul, xs, ys))

    def inv(self, x: int) -> int:
        f, t = self.decode(x)
        tinv = self.top.inverse[t]
        h = map(self.base.inv, [f[c] for c in self._translate[tinv]])
        return self.encode(h, tinv)

    def conj(self, x: int, d: int) -> int:
        return self.mul(self.mul(self.inv(d), x), d)

    def elements(self) -> range:
        return range(self.order)

    def element_name(self, x: int) -> str:
        f, t = self.decode(x)
        if x == 0:
            return "1"
        coords = ",".join(map(self.base.element_name, f))
        return f"({coords};{self.top.element_name(t)})"

    def index_of(self, name: str) -> int:
        """The least x with ``element_name(x) == name``, read through the
        base and top groups' names: any ';' may end the coordinates, and each
        split keeps its least reading other than the identity (named "1").
        Only a FiniteGroup base has names to read: a nested product binds #k."""
        base_names = self.base._name_index if isinstance(self.base, FiniteGroup) else {}
        hits = [0] if name == "1" else []
        for i, ch in enumerate(name[:-1] if name[:1] == "(" and name[-1:] == ")" else ""):
            t = self.top._name_index.get(name[i + 1:-1]) if ch == ";" else None
            if t is not None:
                xs = (self.encode(f, t) for f in _readings(name[1:i], base_names, self.top.order))
                hits += itertools.islice(filter(None, xs), 1)
        if hits:
            return min(hits)
        raise ValidationError(f"wreath product has no element named {name!r} "
                              "(hint: #<index> bindings always work)")

    def realize(self) -> FiniteGroup:
        """Materialize the Cayley table (cached); capped because the table
        is quadratic in the order."""
        if self._group is None:
            if self.order > MAX_TABLE_ORDER:
                raise CapExceeded(f"wreath order {self.order} exceeds the table cap "
                                  f"{MAX_TABLE_ORDER}")
            table = [[self.mul(a, b) for b in range(self.order)]
                     for a in range(self.order)]
            names = [self.element_name(x) for x in range(self.order)]
            self._group = FiniteGroup(table, names, name=self.name)
        return self._group

    def __repr__(self) -> str:
        return f"WreathGroup({self.base.name} wr {self.top.name}, order={self.order})"


def _readings(text: str, names: Mapping[str, int], k: int) -> Iterator[tuple[int, ...]]:
    """Each way to spell *text* as k of *names* joined by commas, least first; a
    name may contain commas, and left[a] counts names that spell text past cut a."""
    cuts = [-1] + [i for i, ch in enumerate(text) if ch == ","] + [len(text)]
    span = 2 + max((w.count(",") for w in names), default=0)
    steps = [sorted((names[w], b) for b in range(a + 1, min(a + span, len(cuts)))
                    if (w := text[cuts[a] + 1:cuts[b]]) in names) for a in range(len(cuts))]
    left = [set() for _ in cuts[1:]] + [{0}]
    for a in reversed(range(len(cuts) - 1)):
        left[a] = {m + 1 for _, b in steps[a] for m in left[b] if m < k}
    stack = [(0, k, ())]
    while stack:
        a, m, f = stack.pop()
        if m == 0:
            yield f
        stack += [(b, m - 1, f + (v,)) for v, b in reversed(steps[a]) if m - 1 in left[b]]


def kaloujnine_krasner(G: FiniteGroup, N: Subgroup,
                       config: Config = DEFAULT_CONFIG) -> Homomorphism:
    """Embed G into the packed N wr (G/N) via the lex-least coset transversal.

    The returned homomorphism (its target is the WreathGroup) is fully
    validated, so injectivity and multiplicativity are exhaustively checked
    facts, not assumptions.
    """
    Q, proj = quotient(G, N)
    H = N.as_group(name=f"{G.name}-N")
    npos = {g: i for i, g in enumerate(N.elements)}
    # transversal: least preimage of each quotient element (the last one written)
    transversal = {proj(g): g for g in reversed(G.elements())}
    W = WreathGroup(H, Q, config)
    images = []
    for g in G.elements():      # coordinate q: t_q * g * t_(q*g)^-1, an element of N
        pg = proj(g)
        f = [npos[G.table[G.table[transversal[q]][g]][G.inverse[transversal[Q.table[q][pg]]]]]
             for q in range(Q.order)]
        images.append(W.encode(f, pg))
    hom = Homomorphism(G, W, tuple(images))
    if not hom.is_injective():
        raise ValidationError("embedding is not injective")  # cannot happen
    return hom


# ---------------------------------------------------------------------------
# normalization into the base

def _bound_wreath(system: EquationSystem) -> WreathGroup:
    if system.binding is None or not isinstance(system.binding.group, WreathGroup):
        raise ValidationError("system must be bound to a wreath product")
    return system.binding.group


class NormalizedSystem(Record):
    system: EquationSystem           # bound to the same wreath product
    beta: dict[str, int]             # top solution used for the variable change


def normalize_top_component(system: EquationSystem, p: int) -> NormalizedSystem:
    """Change variables x -> x*beta so all coefficients land in the base.

    beta solves the image system over the abelian top. The system must be
    p-nonsingular, so the image solves inside the top itself and the wreath
    product is kept. The change writes x as x followed by a fresh
    coefficient "beta x" (a name no parsed word can use) bound to beta[x];
    the other coefficients keep their values.
    """
    W = _bound_wreath(system)
    top = W.top
    if not top.is_abelian:
        raise ValidationError("the top group must be abelian")
    if not is_p_nonsingular(system, p):
        raise ValidationError(f"system is not {p}-nonsingular")

    image_values = {c: W.top_of(v) for c, v in system.binding.values.items()}
    sol = solve_abelian_p_system(system.bind(top, image_values), p)
    if sol.lift_exponent:     # rank mod p and the Smith form disagree
        raise ValidationError("internal error: a p-nonsingular image needs a larger top")
    shift = {x: f"beta {x}" for x in system.variables}
    values = dict(system.binding.values)
    values.update((shift[x], W.embed_top(sol.assignment[x])) for x in system.variables)

    def substitute(letter: Letter) -> tuple[Letter, ...]:      # x -> x*beta
        if letter.kind == COEFF:
            return (letter,)
        b = Letter(COEFF, shift[letter.name], letter.sign)
        return (letter, b) if letter.sign > 0 else (b, letter)

    words = tuple(tuple(itertools.chain.from_iterable(map(substitute, word)))
                  for word in system.words)
    normalized = EquationSystem(system.variables,
                                system.coefficients + tuple(shift.values()), words)
    return NormalizedSystem(normalized.bind(W, values), sol.assignment)


# ---------------------------------------------------------------------------
# the coordinatewise transformation

class TransformedSystem(Record):
    """Coordinate b of wreath equation j is equation j*|B| + b of ``system``,
    a system over the base group H bound to the nontrivial coordinates of
    the coefficients; variable k is y[coords[k]], named y_<i>_<b>."""
    system: EquationSystem
    coords: tuple[tuple[str, int], ...]          # (i, b) in (i, b) order
    source: EquationSystem                       # bound to the wreath product


def coordinatewise_transform(system: EquationSystem) -> TransformedSystem:
    """Rewrite each equation of a system bound to H wr B, its variables
    read in the base, into one equation over H per top element b.

    With t the top part of the letters before it, the letter x_i^s becomes
    y[i, b*t]^s and coefficient c becomes its coordinate [c]_(b*t) (named
    c1, c2, ... by first appearance, and left out when trivial). An
    equation whose top parts do not cancel has no solution in the base and
    is refused; `normalize_top_component` makes every equation cancel.
    """
    W = _bound_wreath(system)
    values = system.binding.values
    tm = W.top.table
    coords = tuple((i, b) for i in system.variables for b in W.top.elements())
    names = {c: f"y_{c[0]}_{c[1]}" for c in coords}
    symbols: dict[int, str] = {}           # coordinate value -> coefficient name
    words = []
    for j, word in enumerate(system.words):
        read = []                          # (letter, its coordinates or None, t)
        t = 0
        for letter in word:
            if letter.kind == VAR:
                read.append((letter, None, t))
                continue
            v = values[letter.name]
            f, u = W.decode(v if letter.sign > 0 else W.inv(v))
            read.append((letter, f, t))
            t = tm[t][u]
        if t != 0:
            raise ValidationError(f"equation {j + 1}: top components do not cancel")
        for b in W.top.elements():
            letters = []
            for letter, f, t in read:
                bt = tm[b][t]
                if f is None:
                    letters.append(Letter(VAR, names[letter.name, bt], letter.sign))
                elif f[bt] != 0:
                    c = symbols.setdefault(f[bt], f"c{len(symbols) + 1}")
                    letters.append(Letter(COEFF, c, 1))
            words.append(tuple(letters))
    out = EquationSystem(tuple(names.values()), tuple(symbols.values()), tuple(words))
    return TransformedSystem(out.bind(W.base, {c: h for h, c in symbols.items()}),
                             coords, system)


def reconstruct_solution(ts: TransformedSystem,
                         pointwise: Mapping[str, int]) -> dict[str, int]:
    """Assemble base-subgroup wreath elements from a solution of
    ``ts.system`` and verify them against the wreath system."""
    if not satisfies(ts.system, pointwise):
        raise ValidationError("pointwise assignment fails an equation")
    W = ts.source.binding.group
    f = {i: [0] * W.top.order for i in ts.source.variables}
    for (i, b), y in zip(ts.coords, ts.system.variables):
        f[i][b] = pointwise[y]
    assignment = {i: W.embed_base(fi) for i, fi in f.items()}
    if not satisfies(ts.source, assignment):
        raise ValidationError("internal error: reconstruction fails to verify")
    return assignment


# ---------------------------------------------------------------------------
# group-ring rows

class ExtractedRows(Record):
    spec: AbelianGroupSpec
    rows: RowFamily                                   # the rows m[j,1]
    all_rows: dict[tuple[int, int], tuple[AlgebraElement, ...]]   # (j, b)
    translation_holds: bool                           # m[j,b] == b * m[j,1]
    augmentation_matches: bool                        # aug(m[j,1]) = exponent row mod p


def extract_rows(ts: TransformedSystem, p: int) -> ExtractedRows:
    """Rows of Z_p[B] elements recording where each variable occurs.

    Row (j,b) has one entry per original variable i: the sum over
    occurrences of y[i, b'] in f[j,b] of sign * b'. The rows satisfy
    m[j,b] = b * m[j,1], and augmenting m[j,1] recovers the exponent-sum
    row of the wreath equation j mod p.
    """
    top = ts.source.binding.group.top
    basis = abelian_p_basis(top, p)
    orders = [top.element_order(g) for g in basis]            # each a power of p
    spec = AbelianGroupSpec(p, tuple(next(k for k in range(o) if p ** k == o)
                                     for o in orders), 0)
    logs = dlog_table(top, basis)
    mono = [AlgebraElement.monomial(spec, logs[b]) for b in top.elements()]

    variables = ts.source.variables
    coord_of = dict(zip(ts.system.variables, ts.coords))
    all_rows: dict[tuple[int, int], tuple[AlgebraElement, ...]] = {}
    for e, word in enumerate(ts.system.words):        # e = j*|B| + b
        entries = {i: AlgebraElement.zero(spec) for i in variables}
        for letter in word:
            if letter.kind == VAR:
                i, b = coord_of[letter.name]
                entries[i] = entries[i] + mono[b].scale(letter.sign)
        all_rows[divmod(e, top.order)] = tuple(entries[i] for i in variables)

    rows = tuple(all_rows[(j, 0)] for j in range(len(ts.source.words)))   # m[j,1]
    translation = all(all_rows[(j, b)] == tuple(mono[b] * e for e in row)
                      for j, row in enumerate(rows) for b in top.elements())
    aug_ok = all(augmentation(e) == exponent_sum(ts.source.words[j], i) % p
                 for j, row in enumerate(rows) for e, i in zip(row, variables))
    return ExtractedRows(spec, RowFamily(spec, rows), all_rows, translation, aug_ok)
