"""Answers the benchmark derives on its own, without importing groupeq.

Everything here works from the documented file formats and semantics:
permutation arithmetic on the catalog's generator files, word expansion by
the documented grammar, ranks by elimination, and group facts, Smith forms
and determinants from sympy.  The checkers at the bottom compare one
command's exit code and structured output against these answers and return
an error string, or None when the verdict is correct.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

# counts of groups of order n up to isomorphism, n = 1..12
ENUMERATION_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                      10: 2, 11: 1, 12: 5}

# orders on which the audit expects every metabelian group to have a witness
AUDIT_ORDERS = (12, 18, 20, 24, 28, 30, 36, 40)


# ---------------------------------------------------------------------------
# permutations: tuples of 0-based images; a*b means "apply a, then b",
# the convention of the group files' generators

def perm_mul(a: tuple, b: tuple) -> tuple:
    return tuple(b[x] for x in a)


def perm_inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_parse(text: str, degree: int) -> tuple:
    perm = list(range(degree))
    for inner in re.findall(r"\(([^()]*)\)", text):
        pts = [int(t) - 1 for t in re.split(r"[,\s]+", inner.strip()) if t]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return tuple(perm)


def perm_name(perm: tuple) -> str:
    """Element name: 1-based cycles joined by commas, '1' for the identity."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            continue
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = perm[x]
        parts.append("(" + ",".join(map(str, cyc)) + ")")
    return "".join(parts) or "1"


def perm_odd(perm: tuple) -> bool:
    seen = [False] * len(perm)
    transpositions = 0
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        transpositions += max(length - 1, 0)
    return transpositions % 2 == 1


def perm_order(perm: tuple) -> int:
    k, x = 1, perm
    ident = tuple(range(len(perm)))
    while x != ident:
        x = perm_mul(x, perm)
        k += 1
    return k


@dataclass(frozen=True)
class CatalogGroup:
    file: str                 # e.g. "024_s4.grp"
    name: str                 # header name
    order: int
    gens: tuple               # generator permutations
    elements: tuple           # every element, identity first

    @property
    def ref(self) -> str:
        return "@catalog/" + self.file

    @property
    def identity(self) -> tuple:
        return self.elements[0]

    @property
    def has_odd_generator(self) -> bool:
        return any(perm_odd(g) for g in self.gens)


def read_group_file(path: Path) -> CatalogGroup:
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    _, name, _, order = lines[0].split()
    if lines[1] != "generators:":
        raise ValueError(f"{path.name}: expected a generators: body")
    order = int(order)
    gens = tuple(perm_parse(ln, order) for ln in lines[2:])
    ident = tuple(range(order))
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                x = perm_mul(e, g)
                if x not in seen:
                    seen.add(x)
                    elements.append(x)
                    nxt.append(x)
        frontier = nxt
    if len(elements) != order:
        raise ValueError(f"{path.name}: generators give order {len(elements)}")
    return CatalogGroup(path.name, name, order, gens, tuple(elements))


@lru_cache(maxsize=None)
def load_catalog(catalog_dir: str) -> tuple[CatalogGroup, ...]:
    return tuple(read_group_file(p) for p in sorted(Path(catalog_dir).glob("*.grp")))


# ---------------------------------------------------------------------------
# group facts from sympy, computed from the same generators

def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class GroupFacts:
    order: int
    abelian: bool
    nilpotent: bool
    metabelian: bool
    center_order: int
    derived_series_orders: tuple[int, ...]
    element_orders: tuple[int, ...]
    # primes p for which an abelian normal A with G/A an abelian p-group exists
    witness_primes: tuple[int, ...]
    # order of the smallest such A per prime (its index is a power of p)
    witness_min_order: dict


@lru_cache(maxsize=None)
def group_facts(G: CatalogGroup) -> GroupFacts:
    """Structure facts of a catalog group, computed with sympy.

    A witness (A, p) needs A to contain G' (G/A abelian) and every element
    of order prime to p (G/A a p-group), so it exists exactly when
    M_p = <G', p'-elements> is abelian; M_p is then the smallest witness.
    """
    from sympy.combinatorics import Permutation, PermutationGroup

    def sym(p: tuple) -> Permutation:
        return Permutation(list(p))

    S = PermutationGroup([sym(g) for g in G.gens])
    series = S.derived_series()
    orders = tuple(H.order() for H in series)
    if len(orders) > 1 and orders[-1] == orders[-2]:
        orders = orders[:-1]                  # stop once the series is stable
    derived = series[1] if len(series) > 1 else S
    element_orders = tuple(sorted(perm_order(e) for e in G.elements))
    witness_primes, witness_min = [], {}
    for p in prime_factors(G.order) or [2]:
        coprime = [sym(e) for e, o in zip(G.elements, (perm_order(e) for e in G.elements))
                   if o % p]
        M = PermutationGroup(list(derived.generators) + coprime)
        if M.is_abelian:
            witness_primes.append(p)
            witness_min[p] = M.order()
    return GroupFacts(
        order=S.order(), abelian=S.is_abelian, nilpotent=S.is_nilpotent,
        metabelian=len(orders) <= 3 and orders[-1] == 1,
        center_order=S.center().order(), derived_series_orders=orders,
        element_orders=element_orders, witness_primes=tuple(witness_primes),
        witness_min_order=witness_min)


@lru_cache(maxsize=None)
def subgroup_orders(G: CatalogGroup) -> tuple[list[int], list[int]]:
    """Sorted orders of all subgroups and of the normal ones.

    Subgroups are bitmasks over element positions.  Every subgroup is a join
    of cyclic subgroups, so joining found subgroups with cyclic ones until
    nothing new appears finds them all.
    """
    pos = {e: i for i, e in enumerate(G.elements)}
    n = G.order
    table = [[pos[perm_mul(a, b)] for b in G.elements] for a in G.elements]
    inverse = [row.index(0) for row in table]

    def close(gens: list[int]) -> int:
        mask, frontier = 1, [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    x = table[a][g]
                    if not mask >> x & 1:
                        mask |= 1 << x
                        nxt.append(x)
            frontier = nxt
        return mask

    cyclic = {}
    for g in range(n):
        cyclic.setdefault(close([g]), g)
    found = {mask: [g] for mask, g in cyclic.items()}
    work = list(found)
    while work:
        mask = work.pop()
        for cmask, g in cyclic.items():
            if cmask & ~mask:
                joined = close(found[mask] + [g])
                if joined not in found:
                    found[joined] = found[mask] + [g]
                    work.append(joined)

    def normal(mask: int) -> bool:
        members = [i for i in range(n) if mask >> i & 1]
        return all(mask >> table[table[inverse[g]][h]][g] & 1
                   for g in range(n) for h in members)

    orders = sorted(bin(m).count("1") for m in found)
    normals = sorted(bin(m).count("1") for m in found if normal(m))
    return orders, normals


# ---------------------------------------------------------------------------
# words: trees rendered in the system-file grammar and expanded by hand

def word_text(node) -> str:
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind == "seq":
        return " ".join(_atom_text(n) for n in node[1])
    if kind == "pow":
        return f"{_atom_text(node[1])}^{node[2]}"
    if kind == "conj":
        return f"{_atom_text(node[1])}^({word_text(node[2])})"
    if kind == "comm":
        return f"[{word_text(node[1])},{word_text(node[2])}]"
    raise ValueError(kind)


def _atom_text(node) -> str:
    text = word_text(node)
    return f"({text})" if node[0] == "seq" and len(node[1]) > 1 else text


def word_letters(node) -> list[tuple[str, int]]:
    """Expansion into (symbol, +-1): t^(u) = u^-1 t u, [u,v] = u^-1 v^-1 u v."""
    kind = node[0]
    if kind == "sym":
        return [(node[1], 1)]
    if kind == "seq":
        return [l for n in node[1] for l in word_letters(n)]
    if kind == "pow":
        base = word_letters(node[1])
        return base * node[2] if node[2] >= 0 else _inverse(base) * -node[2]
    if kind == "conj":
        t, u = word_letters(node[1]), word_letters(node[2])
        return _inverse(u) + t + u
    if kind == "comm":
        u, v = word_letters(node[1]), word_letters(node[2])
        return _inverse(u) + _inverse(v) + u + v
    raise ValueError(kind)


def _inverse(letters):
    return [(s, -e) for s, e in reversed(letters)]


def exponent_sums(letters, variables) -> list[int]:
    return [sum(e for s, e in letters if s == v) for v in variables]


def evaluate(letters, values: dict, identity: tuple) -> tuple:
    acc = identity
    for s, e in letters:
        x = values[s]
        acc = perm_mul(acc, x if e > 0 else perm_inv(x))
    return acc


# ---------------------------------------------------------------------------
# exact linear algebra

def rank_mod_p(rows, p: int) -> int:
    m = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def rank_rational(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def smith_answer(matrix) -> dict:
    """Determinant, invariant factors and singular primes via sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form
    M = Matrix(matrix)
    rows, cols = M.shape
    D = smith_normal_form(M, domain=ZZ)
    factors = [abs(int(D[i, i])) for i in range(min(rows, cols)) if D[i, i] != 0]
    det = int(M.det()) if rows == cols else None
    if len(factors) < rows:
        primes = "all"
    else:
        primes = prime_factors(factors[-1]) if factors and factors[-1] > 1 else []
    return {"determinant": det, "invariant_factors": factors,
            "singular_primes": primes,
            "nonsingular": len(factors) == rows,
            "unimodular": len(factors) == rows and primes == []}


# ---------------------------------------------------------------------------
# checkers: (exit code, parsed structured output, expectation) -> error or None

def _want(cond: bool, what: str) -> str | None:
    return None if cond else what


def check_solve(code: int, out: dict, exp: dict) -> str | None:
    if exp["solvable"]:
        if code != 0 or out.get("solution") is None or out.get("exhaustive"):
            return f"expected a solution, got exit {code}"
        names = out.get("solution_names") or {}
        if sorted(names) != sorted(exp["variables"]):
            return "solution does not name every variable"
        by_name = exp["by_name"]
        if any(n not in by_name for n in names.values()):
            return "solution names an element outside the group"
        values = {**{c: by_name[n] for c, n in exp["coeffs"].items()},
                  **{v: by_name[n] for v, n in names.items()}}
        identity = by_name["1"]
        for letters in exp["equations"]:
            if evaluate(letters, values, identity) != identity:
                return "reported solution does not satisfy the system"
        return _want(1 <= out.get("searched", 0) <= exp["space"],
                     "scan position outside the search space")
    if code != 1 or out.get("solution") is not None:
        return f"expected no solution, got exit {code}"
    if not out.get("exhaustive"):
        return "unsolvable system not reported as exhaustive"
    return _want(out.get("searched") == exp["space"],
                 f"searched {out.get('searched')}, expected {exp['space']}")


def check_group(code: int, out: dict, exp: dict) -> str | None:
    f: GroupFacts = exp["facts"]
    if code != 0:
        return f"exit {code}"
    got = (out.get("order"), out.get("abelian"), out.get("nilpotent"),
           out.get("metabelian"), out.get("center_order"),
           tuple(out.get("derived_series_orders", ())),
           tuple(out.get("element_order_multiset", ())))
    want = (f.order, f.abelian, f.nilpotent, f.metabelian, f.center_order,
            f.derived_series_orders, f.element_orders)
    if got != want:
        return f"group facts {got} != {want}"
    sylow = {str(p): f.order // _prime_free_part(f.order, p)
             for p in prime_factors(f.order)}
    if out.get("sylow_orders", {}) != sylow:
        return "wrong Sylow orders"
    if "subgroups" in exp:
        got = (out.get("subgroup_orders"), out.get("normal_subgroup_orders"))
        if got != exp["subgroups"]:
            return "subgroup or normal subgroup orders differ"
    return None


def _prime_free_part(n: int, p: int) -> int:
    while n % p == 0:
        n //= p
    return n


def _witness_error(report: dict, f: GroupFacts, name: str) -> str | None:
    if report.get("order") != f.order or report.get("metabelian") != f.metabelian:
        return f"{name}: order/metabelian mismatch"
    w = report.get("witness")
    if not f.metabelian:
        return _want(w is None, f"{name}: witness for a non-metabelian group")
    if not f.witness_primes:
        return _want(w is None, f"{name}: witness reported where none exists")
    if w is None:
        return f"{name}: no witness reported, but one exists"
    p, a = w.get("prime"), w.get("subgroup_order")
    if p not in f.witness_primes or f.order % a:
        return f"{name}: witness prime {p} is impossible"
    if a < f.witness_min_order[p] or _prime_free_part(f.order // a, p) != 1:
        return f"{name}: witness of order {a} cannot have a {p}-group quotient"
    return None


def check_classify(code: int, out: dict, exp: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    return _witness_error(out, exp["facts"], exp["name"])


def check_audit(code: int, out: dict, exp: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    if out.get("orders") != exp["orders"]:
        return f"audited orders {out.get('orders')} != {exp['orders']}"
    groups = out.get("groups", [])
    if [g.get("group") for g in groups] != [n for n, _ in exp["groups"]]:
        return "audited groups differ from the catalog files of those orders"
    for report, (name, facts) in zip(groups, exp["groups"]):
        err = _witness_error(report, facts, name)
        if err:
            return err
    if out.get("deviations") or not out.get("counts_ok") \
            or not out.get("pairwise_distinct"):
        return "audit reports deviations"
    return _want(out.get("without_witness") == exp["without_witness"],
                 f"without-witness list {out.get('without_witness')}")


def check_enumerate(code: int, out: dict, exp: dict) -> str | None:
    want = ENUMERATION_COUNTS[exp["n"]]
    return _want(code == 0 and out.get("count") == want
                 and out.get("matches_classification") is True,
                 f"enumerate {exp['n']}: exit {code}, count {out.get('count')}")


def check_certify(code: int, out: dict, exp: dict) -> str | None:
    want = exp["verdict"]
    if out.get("verdict") != want:
        return f"verdict {out.get('verdict')!r}, expected {want!r}"
    return _want(code == (0 if want == "certified" else 1), f"exit {code}")


def check_analyze(code: int, out: dict, exp: dict) -> str | None:
    if code != 0:
        return f"exit {code}"
    if out.get("matrix") != exp["matrix"]:
        return "exponent matrix differs"
    cls = out.get("classification", {})
    got = {"determinant": out.get("determinant"),
           "invariant_factors": cls.get("invariant_factors"),
           "singular_primes": cls.get("singular_primes"),
           "nonsingular": cls.get("nonsingular"),
           "unimodular": cls.get("unimodular")}
    if got != exp["smith"]:
        return f"classification {got} != {exp['smith']}"
    pn = {str(p): rank_mod_p(exp["matrix"], p) == len(exp["matrix"])
          for p in exp["primes"]}
    return _want(out.get("p_nonsingular") == pn, "p-nonsingular verdicts differ")


def check_wreath(code: int, out: dict, exp: dict) -> str | None:
    ok = (code == 0 and out.get("translation_identity_holds") is True
          and out.get("augmentation_matches") is True
          and out.get("rows_certified_independent") is True)
    return _want(ok, f"wreath-transform identities fail (exit {code})")


def check_counterexample(code: int, out: dict, exp: dict) -> str | None:
    p, q = exp["p"], exp["q"]
    n = pow(p, -1, q)
    m = (1 - n * p) // q
    if (out.get("p"), out.get("q"), out.get("n"), out.get("m")) != (p, q, n, m):
        return "wrong parameters n, m"
    if out.get("order") != 2 ** (p * q) * p * q or out.get("unimodular") is not True:
        return "wrong order or not unimodular"
    ob = out.get("obstruction", {})
    if code != 0 or ob.get("ring_identity_holds") is not True or ob.get("s_is_zero"):
        return f"ring identity fails (exit {code})"
    if exp["symbolic"]:
        return _want(ob.get("confirmed") is None, "symbolic mode realized the group")
    return _want(ob.get("confirmed") is True
                 and ob.get("group_inequality_holds") is True,
                 "obstruction not confirmed")


CHECKERS = {
    "solve": check_solve, "group": check_group, "classify": check_classify,
    "audit": check_audit, "enumerate": check_enumerate,
    "certify": check_certify, "analyze": check_analyze,
    "wreath": check_wreath, "counterexample": check_counterexample,
}
