"""Seeded inputs for the three workloads, each with its expected answer.

A workload is a list of rounds.  Every round holds one command of each
slot class in a fixed order, so a run cut short by its time limit still
runs a balanced mix.  One class per workload has a size knob (orders
audited, exhaustive scan length, exhaustive row search); its commands take
their sizes from a low-discrepancy sequence of quantiles, so latencies
spread continuously and the mix of sizes is nearly the same for every seed.

Everything a command needs is either bundled data (``@catalog/...``) or a
file listed in ``Command.files``; the expectation is computed here, before
any command runs, and never from groupeq itself.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles as O

WORKLOADS = ("structure", "search", "certify")

# an exhaustive scan costs about (fixed + per_letter * letters) microseconds
# per assignment; used only to size inputs, never to check them
_SCAN_FIXED_US = 2.0
_SCAN_LETTER_US = 0.2
# the exhaustive row search: seconds per element of the finite algebra it
# lists first, per combination tried, per row entry it reads while checking a
# column, and per pair of terms it multiplies (fitted on 2 shared vCPUs)
_POOL_ELEMENT_S = 28e-6
_COMBO_S = 22e-6
_ENTRY_S = 6.4e-6
_TERM_PAIR_S = 3.7e-6


@dataclass
class Command:
    kind: str                       # checker key in oracles.CHECKERS
    label: str                      # slot class, for per-class reporting
    args: list[str]                 # groupeq arguments after the program name
    files: dict[str, str] = field(default_factory=dict)
    expect: dict = field(default_factory=dict, repr=False)


def build(workload: str, seed: int, rounds: int, catalog_dir: str) -> list[list[Command]]:
    rng = random.Random(f"{workload}:{seed}")
    catalog = O.load_catalog(catalog_dir)
    maker = {"structure": _structure_round, "search": _search_round,
             "certify": _certify_round}[workload]
    sizes = Quantiles(rng)
    return [maker(rng, catalog, r, sizes) for r in range(rounds)]


class Quantiles:
    """Size quantiles for a workload's sized class: a golden-ratio sequence
    from a seeded start, so every prefix of a run covers [0, 1) evenly and
    the mix of sizes barely depends on the seed or on where a run stops."""

    STEP = 0.6180339887498949

    def __init__(self, rng: random.Random) -> None:
        self.x = rng.random()

    def __call__(self) -> float:
        self.x = (self.x + self.STEP) % 1.0
        return self.x


def _structured(args: list[str], jobs: int = 1) -> list[str]:
    return ["--format", "structured"] + (["--jobs", str(jobs)] if jobs > 1 else []) + args


# ---------------------------------------------------------------------------
# structure: the group engine

def _pick_group(rng, catalog, low=16, high=42, small_share=0.15):
    """Weighted toward orders 16..42; small groups only measure start-up."""
    if rng.random() < small_share:
        pool = [g for g in catalog if 8 <= g.order < low]
    else:
        pool = [g for g in catalog if low <= g.order <= high]
    return rng.choice(pool)


def _audit(catalog, orders, jobs) -> Command:
    chosen = [g for g in catalog if orders is None or g.order in orders]
    present = sorted({g.order for g in chosen})
    expect = {
        "orders": present,
        "groups": [(g.name, O.group_facts(g)) for g in chosen],
        "without_witness": [f"{g.name} (order {g.order})" for g in chosen
                            if O.group_facts(g).metabelian
                            and not O.group_facts(g).witness_primes
                            and g.order not in O.AUDIT_ORDERS],
    }
    args = ["audit-catalog"]
    if orders is not None:
        args += ["--orders", ",".join(map(str, orders))]
    label = "audit-full" if orders is None else "audit-subset"
    return Command("audit", label, _structured(args, jobs), expect=expect)


# cost ladder for audit subsets: orders sorted by how much work auditing them
# takes (the number of groups and their order); a slot's quantile picks from it
_AUDIT_LADDER = [[10], [12], [20], [16], [18], [12, 14], [24], [28, 30],
                 [15, 18], [42], [20, 28], [36], [12, 42], [40], [24, 36],
                 [30, 40]]


def _structure_round(rng, catalog, index, sizes) -> list[Command]:
    cmds = []
    if index == 0:
        cmds.append(_audit(catalog, None, rng.choice((1, 2))))
    for slot in range(10):
        if slot in (2, 7):
            orders = sorted(_AUDIT_LADDER[int(sizes() * len(_AUDIT_LADDER))])
            cmds.append(_audit(catalog, orders, 2 if slot == 7 else 1))
        elif slot == 5:
            n = rng.randint(1, 12)
            cmds.append(Command("enumerate", "enumerate",
                                _structured(["enumerate", str(n)]), expect={"n": n}))
        elif slot % 2 == 0:
            G = _pick_group(rng, catalog)
            cmds.append(Command("group", "group-subgroups",
                                _structured(["group", G.ref, "--subgroups"],
                                            rng.choice((1, 1, 2))),
                                expect={"facts": O.group_facts(G),
                                        "subgroups": O.subgroup_orders(G)}))
        else:
            G = _pick_group(rng, catalog)
            cmds.append(Command("classify", "classify",
                                _structured(["classify", G.ref], rng.choice((1, 1, 2))),
                                expect={"facts": O.group_facts(G), "name": G.name}))
    return cmds


# ---------------------------------------------------------------------------
# search: brute-force solving

def _random_items(rng, variables, coeffs, n_items):
    """Word pieces using powers, conjugates t^(u) and commutators [u,v]."""
    items = []
    for _ in range(n_items):
        v = ("sym", rng.choice(variables))
        c = ("sym", rng.choice(coeffs))
        kind = rng.randrange(5)
        if kind == 0:
            items.append(("pow", v, rng.choice((-2, -1, 2, 3))))
        elif kind == 1:
            items.append(("conj", v, c))
        elif kind == 2:
            items.append(("comm", v, ("sym", rng.choice(variables + coeffs))))
        elif kind == 3:
            items.append(("seq", [c, v]))
        else:
            items.append(("conj", ("pow", v, rng.choice((-1, 2))),
                          ("sym", rng.choice(variables + coeffs))))
    return items


def _system_text(variables, coeffs, bind_ref, names, equations) -> str:
    lines = ["vars: " + " ".join(variables), "coeffs: " + " ".join(coeffs),
             "bind: " + bind_ref + " " + " ".join(f"{c}={names[c]}" for c in coeffs)]
    lines += ["eq: " + text for text in equations]
    return "\n".join(lines) + "\n"


def _search_space_options(catalog):
    """(group, variables) pairs for unsolvable systems under the scan cap."""
    return [(G, n) for G in catalog if G.order >= 12 and G.has_odd_generator
            for n in range(1, 5) if G.order ** n <= 160_000]


def _unsolvable(rng, catalog, q, path, jobs, descending) -> Command:
    """Every variable has even exponent sum and the coefficients multiply to
    an odd permutation, so no assignment can give the identity."""
    lo, hi = 0.03, 0.6                       # exhaustive scan seconds, log-uniform
    target_us = 1e6 * lo * (hi / lo) ** q
    fits = []
    for G, n in _search_space_options(catalog):
        letters = (target_us / G.order ** n - _SCAN_FIXED_US) / _SCAN_LETTER_US
        if 4 <= letters <= 40:
            fits.append((G, n, int(letters)))
    G, n, letters_wanted = rng.choice(fits)
    space = G.order ** n
    variables = ["x", "y", "z", "w"][:n]
    coeffs = ["a", "b", "c"]
    items = []
    while len(O.word_letters(("seq", items))) < max(letters_wanted - n, 3):
        items += _random_items(rng, variables, coeffs, 1)
    letters = O.word_letters(("seq", items))
    for v, s in zip(variables, O.exponent_sums(letters, variables)):
        if s % 2:
            items.append(("pow", ("sym", v), rng.choice((1, -1))))
    values = {c: rng.choice(G.elements) for c in coeffs}
    letters = O.word_letters(("seq", items))
    odd = sum(O.perm_odd(values[s]) for s, _ in letters if s in values) % 2
    values["r"] = rng.choice([e for e in G.elements if O.perm_odd(e) != bool(odd)])
    names = {c: O.perm_name(v) for c, v in values.items()}
    text = _system_text(variables, coeffs + ["r"], G.ref, names,
                        [O.word_text(("seq", items)) + " = r"])
    args = ["solve", path] + (["--descending"] if descending else [])
    expect = {"solvable": False, "space": space, "variables": variables,
              "values": values, "elements": G.elements,
              "equations": [O.word_letters(("seq", items)) + [("r", -1)]]}
    return Command("solve", "solve-exhaustive", _structured(args, jobs), {path: text}, expect)


def _solvable(rng, catalog, path, jobs, descending) -> Command:
    """Plant an assignment and bind the right-hand sides to its values."""
    G = rng.choice([g for g in catalog if g.order >= 12])
    n = rng.choice([k for k in range(1, 5) if G.order ** k <= 10**6])
    variables = ["x", "y", "z", "w"][:n]
    coeffs = ["a", "b"]
    early = list(G.elements[:1 + len(G.gens)])
    planted = {v: rng.choice(early if rng.random() < 0.8 else G.elements)
               for v in variables}
    values = {c: rng.choice(G.elements) for c in coeffs}
    equations, expanded = [], []
    for j in range(rng.choice((1, 1, 2))):
        items = _random_items(rng, variables, coeffs, rng.randint(2, 5))
        letters = O.word_letters(("seq", items))
        rhs = f"r{j}"
        values[rhs] = O.evaluate(letters, {**values, **planted}, G.identity)
        equations.append(O.word_text(("seq", items)) + f" = {rhs}")
        expanded.append(letters + [(rhs, -1)])
    names = {c: O.perm_name(v) for c, v in values.items()}
    text = _system_text(variables, list(values), G.ref, names, equations)
    args = ["solve", path] + (["--descending"] if descending else [])
    expect = {"solvable": True, "space": G.order ** n, "variables": variables,
              "coeffs": names, "equations": expanded,
              "by_name": {O.perm_name(e): e for e in G.elements}}
    return Command("solve", "solve-planted", _structured(args, jobs), {path: text}, expect)


def _search_round(rng, catalog, index, sizes) -> list[Command]:
    cmds = []
    for slot in range(10):
        path = f"r{index:03d}_s{slot}.sys"
        jobs = 2 if slot in (2, 3) else 1
        descending = slot in (4, 7)
        if slot in (1, 3, 5, 7):
            cmds.append(_unsolvable(rng, catalog, sizes(), path, jobs, descending))
        else:
            cmds.append(_solvable(rng, catalog, path, jobs, descending))
    return cmds


# ---------------------------------------------------------------------------
# certify: group algebras, the wreath pipeline, linear algebra

# finite Z_p[P] with |P| <= 8, as (p, torsion exponents)
_FINITE_SPECS = [(2, ()), (2, (1,)), (2, (2,)), (2, (1, 1)), (2, (3,)),
                 (2, (1, 2)), (2, (1, 1, 1)), (3, ()), (3, (1,)), (5, ()), (5, (1,))]


def _monomials(exps, p):
    out = [()]
    for e in exps:
        out = [m + (k,) for m in out for k in range(p ** e)]
    return out


def _element_text(terms) -> str:
    """terms: list of (coefficient, torsion exponents, free exponents)."""
    parts = []
    for c, tv, fv in terms:
        factors = [f"x{i + 1}^{a}" for i, a in enumerate(tv) if a]
        factors += [f"t{i + 1}^{a}" for i, a in enumerate(fv) if a]
        mono = "*".join(factors)
        body = (f"{abs(c)}*{mono}" if abs(c) != 1 else mono) if mono else str(abs(c))
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _row_file(header, rows_terms) -> str:
    lines = [header]
    for row in rows_terms:
        lines.append("row: " + " ; ".join(_element_text(t) for t in row))
    return "\n".join(lines) + "\n"


def _aug(terms, p=None):
    s = sum(c for c, _, _ in terms)
    return s % p if p else s


def _finite_header(p, exps) -> str:
    return f"algebra p={p} torsion={','.join(map(str, exps))} free=0"


def _certified_rows(rng, path) -> Command:
    """Random rows over Z_p[P] whose augmented rows have full rank mod p."""
    p, exps = rng.choice(_FINITE_SPECS)
    monos = _monomials(exps, p)
    k = rng.randint(1, 4)
    width = k + rng.randint(0, 1)
    while True:
        rows = [[[(rng.randrange(1, p), m, ())
                  for m in rng.sample(monos, rng.randint(0, min(3, len(monos))))]
                 for _ in range(width)] for _ in range(k)]
        if O.rank_mod_p([[_aug(t, p) for t in row] for row in rows], p) == k:
            break
    return Command("certify", "rows-finite", _structured(["certify-rows", path]),
                   {path: _row_file(_finite_header(p, exps), rows)},
                   {"verdict": "certified"})


def _alg_mul(a: dict, b: dict, p: int, orders) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple((x + y) % o for x, y, o in zip(m1, m2, orders))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def _first_annihilator(a: dict, p, monos, orders) -> int:
    """Position of the first nonzero c with c*a = 0 when the elements of
    Z_p[P] are listed as coefficient vectors in lexicographic order."""
    n = len(monos)
    for index in range(1, p ** n):
        digits, x = [], index
        for _ in range(n):
            x, d = divmod(x, p)
            digits.append(d)
        c = {m: d for m, d in zip(monos, reversed(digits)) if d}
        if not _alg_mul(c, a, p, orders):
            return index
    raise ValueError("an element of the augmentation ideal has an annihilator")


def _algebra_element(rng, p, monos, ideal: bool) -> dict:
    """1-3 random terms, with augmentation 0 iff ideal."""
    while True:
        e = {m: rng.randrange(1, p)
             for m in rng.sample(monos, rng.randint(1, min(3, len(monos))))}
        if (sum(e.values()) % p == 0) == ideal:
            return e


def _ideal_samples(rng, p, exps, count=6) -> list[tuple[dict, int]]:
    """Elements of the augmentation ideal with their first annihilator."""
    monos = _monomials(exps, p)
    orders = tuple(p ** e for e in exps)
    out = []
    for _ in range(count):
        a = _algebra_element(rng, p, monos, ideal=True)
        out.append((a, _first_annihilator(a, p, monos, orders)))
    return out


def _search_seconds(p, n_monos, first, z, columns, terms) -> float:
    """Time of the exhaustive search on the rows _singular_rows builds.

    Combinations come in lexicographic order, the last row fastest, so it
    tries those with c_i = 0 for i < z and c_z below the first annihilator of
    row z: first * size^(k-1-z) of them.  A column holds one row's entry, so
    its sum is zero only when that row's coefficient is 0 (for row z too, as
    no c_z below the first annihilator kills it); a combination reads columns
    until the first nonzero one.  terms[i] is the number of terms of row i's
    single entry."""
    size = p ** n_monos
    k = len(columns)
    values = [1] * z + [first] + [size] * (k - 1 - z)    # choices of c_i
    term_sums = [0] * z + [_digit_terms(first, p, n_monos)] \
        + [size * n_monos * (p - 1) / p] * (k - 1 - z)  # terms over those
    row_of = sorted(range(k), key=lambda i: columns[i])
    combos = math.prod(values)
    entries = pairs = 0.0
    reach = combos                       # combinations that read this column
    for i in row_of:
        entries += k * reach
        pairs += reach / values[i] * term_sums[i] * terms[i]
        reach /= values[i]               # only c_i = 0 passes the column
    return (size * _POOL_ELEMENT_S + combos * _COMBO_S + entries * _ENTRY_S
            + pairs * _TERM_PAIR_S)


@functools.lru_cache(maxsize=None)
def _digit_terms(n, p, width) -> int:
    """Nonzero base-p digits over 0..n-1: the terms of the first n elements."""
    total = 0
    for index in range(n):
        for _ in range(width):
            index, d = divmod(index, p)
            total += d != 0
    return total


def _singular_rows(rng, q, path) -> Command:
    """k rows over Z_p[P], one nonzero entry each in distinct columns: units
    (nonzero augmentation) except in row z, whose entry has augmentation 0.
    The augmented rows are singular, so only the exhaustive oracle decides;
    the slot's quantile picks the length of that search, and the candidate
    whose modelled time (_search_seconds) comes closest is kept."""
    lo, hi = 0.02, 0.4                       # search seconds, log-uniform
    target = lo * (hi / lo) ** q
    best = None
    for p, exps in _FINITE_SPECS:
        monos = _monomials(exps, p)
        size = p ** len(monos)
        if size == p or size > 256:          # no zero divisors / slow to list
            continue
        for a, first in _ideal_samples(rng, p, exps):
            for k in range(1, 5):
                if size ** k > 10**6:
                    continue
                for z in range(k):
                    entries = [_algebra_element(rng, p, monos, ideal=False)
                               for _ in range(k)]
                    entries[z] = a
                    columns = rng.sample(range(k), k)
                    guess = _search_seconds(p, len(monos), first, z, columns,
                                            [len(e) for e in entries])
                    miss = abs(math.log(guess / target))
                    if best is None or miss < best[0]:
                        best = (miss, p, exps, entries, columns)
    _, p, exps, entries, columns = best
    k = len(entries)
    rows = [[[] for _ in range(k)] for _ in range(k)]
    for i, e in enumerate(entries):
        rows[i][columns[i]] = [(c, m, ()) for m, c in sorted(e.items())]
    aug = [[_aug(t, p) for t in row] for row in rows]
    verdict = "certified" if O.rank_mod_p(aug, p) == k else "refuted"
    return Command("certify", "rows-finite-singular", _structured(["certify-rows", path]),
                   {path: _row_file(_finite_header(p, exps), rows)}, {"verdict": verdict})


def _rational_rows(rng, path) -> Command:
    free = rng.randint(1, 2)
    k = rng.randint(1, 3)
    width = k + rng.randint(0, 1)

    def entry():
        return [(rng.choice((-3, -2, -1, 1, 2, 3)), (),
                 tuple(rng.randint(-2, 2) for _ in range(free)))
                for _ in range(rng.randint(1, 3))]
    rows = [[entry() for _ in range(width)] for _ in range(k)]
    if rng.random() < 0.5 and k > 1:           # copy a row's augmentation: rank drops
        rows[-1] = [[(c, tv, tuple(-a for a in fv)) for c, tv, fv in e] for e in rows[0]]
    aug = [[_aug(t) for t in row] for row in rows]
    verdict = "certified" if O.rank_rational(aug) == k else "unknown"
    return Command("certify", "rows-rational", _structured(["certify-rows", path]),
                   {path: _row_file(f"algebra rational free={free}", rows)},
                   {"verdict": verdict})


def _analyze(rng, path) -> Command:
    n = rng.randint(1, 8)
    m = rng.randint(1, 8) if rng.random() < 0.3 else rng.randint(1, n)
    variables = [f"x{i + 1}" for i in range(n)]
    coeffs = ["g1", "g2"]
    equations, matrix = [], []
    for _ in range(m):
        items = _random_items(rng, variables, coeffs, rng.randint(2, 2 + n))
        letters = O.word_letters(("seq", items))
        equations.append(O.word_text(("seq", items)))
        matrix.append(O.exponent_sums(letters, variables))
    text = "\n".join(["vars: " + " ".join(variables), "coeffs: " + " ".join(coeffs)]
                     + ["eq: " + e for e in equations]) + "\n"
    extra = rng.choice(([], [17], [19, 23]))
    args = ["analyze-system", path] + [a for p in extra for a in ("--prime", str(p))]
    expect = {"matrix": matrix, "smith": O.smith_answer(matrix),
              "primes": sorted({2, 3, 5, 7, 11, 13} | set(extra))}
    return Command("analyze", "analyze-system", _structured(args), {path: text}, expect)


# base, top, prime, wreath order
_WREATHS = [("002_c2.grp", "002_c2.grp", 2, 8), ("002_c2.grp", "004_c4.grp", 2, 64),
            ("003_c3.grp", "003_c3.grp", 3, 81)]


def _wreath(rng, path) -> Command:
    base, top, p, order = rng.choice(_WREATHS)
    n = rng.randint(1, 2)
    variables = ["x", "y"][:n]
    coeffs = ["c1", "c2", "c3"]
    while True:
        equations, matrix = [], []
        for _ in range(rng.randint(1, n)):
            items = _random_items(rng, variables, coeffs, rng.randint(2, 4))
            letters = O.word_letters(("seq", items))
            equations.append(O.word_text(("seq", items)))
            matrix.append(O.exponent_sums(letters, variables))
        if O.rank_mod_p(matrix, p) == len(matrix):
            break
    binds = " ".join(f"{c}=#{rng.randrange(order)}" for c in coeffs)
    text = "\n".join(["vars: " + " ".join(variables), "coeffs: " + " ".join(coeffs),
                      "bind: @group " + binds] + ["eq: " + e for e in equations]) + "\n"
    args = ["wreath-transform", path, "--base", "@catalog/" + base,
            "--top", "@catalog/" + top, "--prime", str(p)]
    return Command("wreath", "wreath-transform", _structured(args), {path: text})


_SYMBOLIC_PAIRS = [(2, 5), (5, 2), (3, 5), (2, 7), (3, 7), (5, 7), (7, 11),
                   (2, 11), (11, 13), (5, 13)]


def _counterexample(rng) -> Command:
    if rng.random() < 0.5:
        p, q = rng.choice(((2, 3), (3, 2)))
        args, symbolic = ["counterexample", "--p", str(p), "--q", str(q)], False
    else:
        p, q = rng.choice(_SYMBOLIC_PAIRS)
        args = ["counterexample", "--p", str(p), "--q", str(q), "--symbolic"]
        symbolic = True
    return Command("counterexample", "counterexample", _structured(args),
                   expect={"p": p, "q": q, "symbolic": symbolic})


def _certify_round(rng, catalog, index, sizes) -> list[Command]:
    cmds = []
    for slot in range(10):
        path = f"r{index:03d}_s{slot}"
        if slot in (1, 4, 8):
            cmds.append(_singular_rows(rng, sizes(), path + ".alg"))
        elif slot == 0:
            cmds.append(_certified_rows(rng, path + ".alg"))
        elif slot == 2:
            cmds.append(_rational_rows(rng, path + ".alg"))
        elif slot in (3, 7):
            cmds.append(_analyze(rng, path + ".sys"))
        elif slot in (5, 9):
            cmds.append(_wreath(rng, path + ".sys"))
        else:
            cmds.append(_counterexample(rng))
    return cmds


def write_inputs(rounds: list[list[Command]], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for rnd in rounds:
        for cmd in rnd:
            for name, text in cmd.files.items():
                (directory / name).write_text(text, encoding="utf-8")
