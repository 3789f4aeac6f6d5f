"""Structure classification, catalog audit, and the counterexample family.

The classification side answers one question per group: is it metabelian,
and if so, does it have an abelian normal subgroup A with G/A an abelian
p-group? Such a pair (A, p) is called a witness here; groups with a
witness cannot carry a unimodular equation that is unsolvable in
metabelian groups, so the audit over the bundled catalog isolates the
order-42 exception. G/A is abelian exactly when A contains G', so the
search builds no quotient group; `verify_witness` re-checks through one.

The counterexample side builds, for distinct primes p and q, the group
C2 wr (Cp x Cq) and the unimodular one-variable equation whose right-hand
side c*c^(ab) lies in the commutator subgroup. The obstruction to solving
it in any metabelian overgroup is checked exactly: the combination
S = n(1+b)(1+a+...+a^(p-1)) + m(1+a)(1+b+...+b^(q-1)) satisfies
S*(1+ab) = S*(a+b) in the integral group ring of Cp x Cq, while the
corresponding conjugate combinations of c*c^(ab) differ in the group.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Sequence

from .catalog import AUDIT_ORDERS, EXPECTED_COUNTS
from .config import DEFAULT_CONFIG, Config
from .equations import (Classification, EquationSystem, classify,
                        compile_word, satisfies, scan_solutions)
from .errors import CapExceeded, GroupEqError, ValidationError, read_text_file
from .groups import (FiniteGroup, Subgroup, cyclic, derived_series,
                     direct_product, group_header, is_metabelian,
                     is_normal, is_prime, isomorphic, load_group, normal_subgroups,
                     p_split, prime_factors, quotient, sylow_subgroup)
from .record import Record
from .words import (COEFF, VAR, Letter, Word, _check_length, word_conjugate,
                    word_inverse, word_power)


# ---------------------------------------------------------------------------
# witnesses

class Witness(Record):
    subgroup: Subgroup
    prime: int


def verify_witness(G: FiniteGroup, w: Witness) -> bool:
    """Re-check a witness from scratch: A abelian normal, G/A an abelian
    p-group (the trivial quotient counts as a p-group for any p)."""
    A = w.subgroup
    if not A.is_abelian() or not is_normal(G, A):
        return False
    Q, _ = quotient(G, A)
    if Q.order == 1:
        return G.order % w.prime == 0 or G.order == 1
    return Q.is_abelian and p_split(Q.order, w.prime)[1] == 1


def abelian_by_abelian_p_witness(G: FiniteGroup,
                                 config: Config = DEFAULT_CONFIG
                                 ) -> tuple[Witness | None, int]:
    """Exhaustive witness search over normal subgroups.

    Returns (witness, number of normal subgroups examined). The first
    witness in canonical order (largest A, then smallest p) is returned;
    None certifies that no normal subgroup works.
    """
    # an abelian G is its own witness, first in canonical order; past the cap, the lattice refuses
    small_abelian = G.is_abelian and G.order <= config.subgroup_order_cap
    normals = [Subgroup(G, (1 << G.order) - 1)] if small_abelian else normal_subgroups(G, config)
    derived = derived_series(G)[:2][-1].bits        # G', or G when G = G'
    examined = 0
    for A in sorted(normals, key=lambda S: (-S.order, S.elements)):
        examined += 1
        # G/A is abelian iff A contains G'; the trivial quotient counts
        # as a p-group for the least prime dividing |G|, or 2 when G = 1
        if derived & ~A.bits or not A.is_abelian():
            continue
        ps = prime_factors(G.order // A.order)
        if len(ps) > 1:
            continue
        w = Witness(A, ps[0] if ps else (prime_factors(G.order) + [2])[0])
        if not verify_witness(G, w):
            raise ValidationError("internal error: witness failed re-verification")
        return w, examined
    return None, examined


class ClassificationReport(Record):
    group_id: str
    order: int
    metabelian: bool
    witness: Witness | None
    normals_examined: int
    note: str

    def to_dict(self) -> dict:
        return {
            "group": self.group_id,
            "order": self.order,
            "metabelian": self.metabelian,
            "witness": None if self.witness is None else {
                "subgroup_order": self.witness.subgroup.order,
                "subgroup_elements": list(self.witness.subgroup.elements),
                "prime": self.witness.prime,
            },
            "normals_examined": self.normals_examined,
            "note": self.note,
        }


def classify_group(G: FiniteGroup, config: Config = DEFAULT_CONFIG
                   ) -> ClassificationReport:
    if not is_metabelian(G):
        return ClassificationReport(
            G.name, G.order, False, None, 0,
            "not metabelian (second derived subgroup is nontrivial); skipped")
    w, examined = abelian_by_abelian_p_witness(G, config)
    if w is None:
        note = (f"metabelian, NO witness: none of the {examined} normal "
                "subgroups is abelian with an abelian prime-power quotient")
    else:
        Qord = G.order // w.subgroup.order
        note = (f"witness: abelian normal subgroup of order {w.subgroup.order}, "
                f"quotient is an abelian {w.prime}-group of order {Qord}")
    return ClassificationReport(G.name, G.order, True, w, examined, note)


# ---------------------------------------------------------------------------
# the two order-reduction arguments, as checkable reports

class PqOrderReport(Record):
    group_id: str
    p: int
    q: int
    sylow_q_unique: bool
    witness: Witness


def pq_structure_check(G: FiniteGroup) -> PqOrderReport:
    """For |G| = p*q (p < q primes): the Sylow q-subgroup is unique, hence
    normal, giving a witness (C_q, p)."""
    ps = prime_factors(G.order)
    if len(ps) != 2 or ps[0] * ps[1] != G.order:
        raise ValidationError(f"order {G.order} is not a product of two "
                              "distinct primes")
    p, q = ps
    syl = sylow_subgroup(G, q)
    if not is_normal(G, syl):       # cannot happen for |G| = pq with q > p
        raise ValidationError(f"Sylow {q}-subgroup is not unique")
    w = Witness(syl, p)
    if not verify_witness(G, w):
        raise ValidationError("internal error: pq witness failed verification")
    return PqOrderReport(G.name, p, q, True, w)


class PGroupReport(Record):
    group_id: str
    p: int
    trials: int
    solved: int
    seed: int

    @property
    def all_solved(self) -> bool:
        return self.solved == self.trials


def random_unimodular_equation(G: FiniteGroup, rng: random.Random
                               ) -> EquationSystem:
    """A one-variable equation with exponent sum forced to +-1, random
    coefficients from G."""
    target = rng.choice((1, -1))
    blocks = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(0, 3))]
    blocks.append(target - sum(blocks))
    blocks = [e for e in blocks if e != 0]
    coeffs = []
    letters: list[Letter] = []
    for e in blocks:
        sym = f"g{len(coeffs)}"
        coeffs.append((sym, rng.randrange(G.order)))
        letters.append(Letter(COEFF, sym, +1))
        letters.extend(word_power((Letter(VAR, "x", +1),), e))
    sym = f"g{len(coeffs)}"
    coeffs.append((sym, rng.randrange(G.order)))
    letters.append(Letter(COEFF, sym, +1))
    system = EquationSystem(("x",), tuple(s for s, _ in coeffs),
                            (tuple(letters),))
    return system.bind(G, dict(coeffs))


def p_group_equation_check(G: FiniteGroup, trials: int = 100, seed: int = 0) -> PGroupReport:
    """Solve random unimodular one-variable equations inside a p-group.

    All of them are expected to solve in G itself; a failure would be a
    finding, not an error.
    """
    ps = prime_factors(G.order)
    if len(ps) > 1:
        raise ValidationError(f"order {G.order} is not a prime power")
    p = ps[0] if ps else 2
    rng = random.Random(seed)
    solved = 0
    for _ in range(trials):
        if brute_force_solve(random_unimodular_equation(G, rng)).solution is not None:
            solved += 1
    return PGroupReport(G.name, p, trials, solved, seed)


# ---------------------------------------------------------------------------
# catalog audit

class AuditEntry(Record):
    file: str
    report: ClassificationReport | None
    error: str | None


class AuditReport(Record):
    entries: tuple[AuditEntry, ...]
    orders: tuple[int, ...]
    deviations: tuple[str, ...]          # metabelian audit-order groups without witness
    counts_ok: bool
    pairwise_distinct: bool
    expected_without_witness: tuple[str, ...]   # order-42 exceptions found

    @property
    def all_witnessed(self) -> bool:
        return not self.deviations

    def to_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "groups": [e.report.to_dict() if e.report else {"file": e.file,
                                                            "error": e.error}
                       for e in self.entries],
            "deviations": list(self.deviations),
            "counts_ok": self.counts_ok,
            "pairwise_distinct": self.pairwise_distinct,
            "without_witness": list(self.expected_without_witness),
        }


def audit_catalog(directory: str | Path, orders: Sequence[int] | None = None,
                  config: Config = DEFAULT_CONFIG) -> AuditReport:
    """Classify every group file in a directory and check catalog hygiene.

    Files are selected by the order their header declares: one declaring an
    order outside ``orders`` is not parsed past its header. Per-file load
    errors, bad headers and unreadable files included, are collected, not
    fatal. Within each order the groups are checked pairwise non-isomorphic
    and, when the order is one the catalog claims to cover completely, the
    count is compared against the classification count.
    """
    entries: list[AuditEntry] = []
    loaded: dict[int, list[FiniteGroup]] = {}
    for path in sorted(Path(directory).glob("*.grp")):
        try:
            text = read_text_file(path)
            if orders is not None and group_header(text)[1] not in orders:
                continue
            G = load_group(text)
        except (GroupEqError, OSError) as exc:
            entries.append(AuditEntry(path.name, None, str(exc)))
            continue
        entries.append(AuditEntry(path.name, classify_group(G, config), None))
        loaded.setdefault(G.order, []).append(G)

    unwitnessed = [e.report for e in entries
                   if e.report and e.report.metabelian and e.report.witness is None]
    deviations = [f"{r.group_id} (order {r.order})" for r in unwitnessed
                  if r.order in AUDIT_ORDERS]
    exceptions = [f"{r.group_id} (order {r.order})" for r in unwitnessed
                  if r.order not in AUDIT_ORDERS]
    counts_ok = all(len(groups) == EXPECTED_COUNTS[o] for o, groups in loaded.items()
                    if o in EXPECTED_COUNTS)

    pairwise = True
    for lst in loaded.values():
        for g1, g2 in itertools.combinations(lst, 2):
            if isomorphic(g1, g2, config) is not None:
                pairwise = False

    return AuditReport(tuple(entries), tuple(sorted(loaded)),
                       tuple(deviations), counts_ok, pairwise,
                       tuple(exceptions))


# ---------------------------------------------------------------------------
# the counterexample family

class CounterexampleInstance(Record):
    p: int
    q: int
    n: int
    m: int
    system: EquationSystem           # bound to C2 wr (Cp x Cq) unless symbolic
    classification: Classification

    @property
    def realized(self) -> bool:
        return self.system.binding is not None

    @property
    def order(self) -> int:
        return 2 ** (self.p * self.q) * self.p * self.q


def counterexample_equation(p: int, q: int, n: int, m: int) -> Word:
    """x^n * x^(na) * ... * x^(na^(p-1)) * x^m * x^(mb) * ... * x^(mb^(q-1))
    = c * c^(ab), folded into a single left-hand word."""
    x = (Letter(VAR, "x", +1),)
    a = (Letter(COEFF, "a", +1),)
    b = (Letter(COEFF, "b", +1),)
    c = (Letter(COEFF, "c", +1),)
    lhs: list[Letter] = []
    for k in range(p):       # x^(n a^k) = a^-k x^n a^k
        lhs += word_power(a, -k) + word_power(x, n) + word_power(a, k)
    for k in range(q):
        lhs += word_power(b, -k) + word_power(x, m) + word_power(b, k)
    rhs = c + word_conjugate(c, a + b)
    return tuple(lhs) + word_inverse(rhs)


def counterexample_text(p: int, q: int, n: int, m: int) -> str:
    """The same equation in source syntax (parseable by the word grammar)."""
    parts = [f"x^{n}"]
    parts += [f"x^{n}^(a" + (f"^{k}" if k > 1 else "") + ")" for k in range(1, p)]
    parts.append(f"x^{m}")
    parts += [f"x^{m}^(b" + (f"^{k}" if k > 1 else "") + ")" for k in range(1, q)]
    return " ".join(parts) + " = c c^(a b)"


def counterexample_build(p: int, q: int, symbolic: bool = False,
                         config: Config = DEFAULT_CONFIG) -> CounterexampleInstance:
    """The wreath-product instance C2 wr (Cp x Cq) with its unimodular
    equation; n is the least positive integer with n*p = 1 (mod q). The
    group is packed-index arithmetic with no Cayley table, bounded by
    ``wreath_order_cap``; symbolic mode builds no group. The order's digit
    count, that cap and the word length are checked before anything is built."""
    from .algebra import MAX_ORDER_DIGITS, ORDER_LIMIT
    from .wreath import WreathGroup, wreath_order
    if not (is_prime(p) and is_prime(q)):
        raise ValidationError(f"{p} and {q} must be prime")
    if p == q:
        raise ValidationError("the two primes must be distinct")
    n = pow(p, -1, q)
    m = (1 - n * p) // q
    assert n * p + m * q == 1
    # 2^e >= ORDER_LIMIT once e reaches its bit length
    if 2 ** min(p * q, ORDER_LIMIT.bit_length()) * p * q >= ORDER_LIMIT:
        raise CapExceeded(f"group order 2^{p * q} * {p * q} has more than "
                          f"{MAX_ORDER_DIGITS} digits")
    if not symbolic:
        wreath_order(2, p * q, config)
    _check_length(p * abs(n) + p * (p - 1) + q * abs(m) + q * (q - 1) + 6)
    word = counterexample_equation(p, q, n, m)
    system = EquationSystem(("x",), ("a", "b", "c"), (word,))
    cls = classify(system)
    if not cls.unimodular:
        raise ValidationError("internal error: the equation must be unimodular")

    if symbolic:
        return CounterexampleInstance(p, q, n, m, system, cls)
    top = direct_product(cyclic(p), cyclic(q))
    W = WreathGroup(cyclic(2, gen_symbol="c"), top, config)
    bound = system.bind(W, {"a": W.embed_top(q),      # (g_p, 1): index 1*q + 0
                            "b": W.embed_top(1),      # (1, g_q): index 0*q + 1
                            "c": W.embed_base((1,) + (0,) * (top.order - 1))})
    return CounterexampleInstance(p, q, n, m, bound, cls)


class ObstructionReport(Record):
    ring_identity_holds: bool
    s_element: AlgebraElement
    s_is_zero: bool
    group_inequality_holds: bool | None     # None when the group part was skipped
    lhs_vs_rhs: tuple[str, str] | None

    @property
    def confirmed(self) -> bool | None:
        if self.group_inequality_holds is None:
            return None
        return self.ring_identity_holds and self.group_inequality_holds

    def to_dict(self) -> dict:
        from .algebra import format_element
        return {
            "ring_identity_holds": self.ring_identity_holds,
            "s": format_element(self.s_element),
            "s_is_zero": self.s_is_zero,
            "group_inequality_holds": self.group_inequality_holds,
            "confirmed": self.confirmed,
        }


def obstruction_s_element(p: int, q: int, n: int, m: int) -> AlgebraElement:
    from .algebra import AlgebraElement, IntegralGroupSpec
    spec = IntegralGroupSpec((p, q), 0)
    one = AlgebraElement.one(spec)
    a = AlgebraElement.monomial(spec, (1, 0))
    b = AlgebraElement.monomial(spec, (0, 1))
    sum_a = AlgebraElement(spec, [(((k, 0), ()), 1) for k in range(p)])
    sum_b = AlgebraElement(spec, [(((0, k), ()), 1) for k in range(q)])
    return (one + b) * sum_a * AlgebraElement.scalar(spec, n) + \
           (one + a) * sum_b * AlgebraElement.scalar(spec, m)


def group_obstruction(G, a: int, b: int, c: int) -> tuple[int, int]:
    """(w^(1+ab), w^(a+b)) for w = c c^(ab), in any group object with
    ``mul`` and ``conj``: w^(1+ab) is w w^(ab), w^(a+b) is w^a w^b.

    The group half of the obstruction is that the two differ. The argument
    needs that a and b commute and have orders p and q (distinct primes), so
    that <a, b> is Cp x Cq, and that w lies in an abelian normal subgroup,
    on which Z[Cp x Cq] then acts by conjugation; none of this is checked
    here.
    """
    mul, conj = G.mul, G.conj
    ab = mul(a, b)
    w = mul(c, conj(c, ab))
    return mul(w, conj(w, ab)), mul(conj(w, a), conj(w, b))


def obstruction_check(inst: CounterexampleInstance) -> ObstructionReport:
    """Exact check of both halves of the obstruction.

    (i)  S*(1+ab) = S*(a+b) in Z[Cp x Cq], by expansion.
    (ii) `group_obstruction` in the wreath group, unless the instance is
         symbolic.
    """
    from .algebra import AlgebraElement
    S = obstruction_s_element(inst.p, inst.q, inst.n, inst.m)
    one, a, b = (AlgebraElement.one(S.spec), AlgebraElement.torsion_gen(S.spec, 0),
                 AlgebraElement.torsion_gen(S.spec, 1))
    ring_ok = (S * (one + a * b)) == (S * (a + b))

    if not inst.realized:
        return ObstructionReport(ring_ok, S, S.is_zero(), None, None)

    W, values = inst.system.binding.group, inst.system.binding.values
    lhs, rhs = group_obstruction(W, values["a"], values["b"], values["c"])
    return ObstructionReport(ring_ok, S, S.is_zero(), lhs != rhs,
                             (W.element_name(lhs), W.element_name(rhs)))


# ---------------------------------------------------------------------------
# brute-force equation solving

class BruteForceResult(Record):
    solution: dict[str, int] | None
    searched: int
    exhaustive: bool

    def to_dict(self) -> dict:
        return {"solution": self.solution, "searched": self.searched,
                "exhaustive": self.exhaustive}


def brute_force_solve(system: EquationSystem,
                      config: Config = DEFAULT_CONFIG,
                      descending: bool = False) -> BruteForceResult:
    """Scan all assignments in lexicographic element-index order
    (`equations.scan_solutions` over all of G).

    Returns the lexicographically least solution (greatest, if descending)
    or an exhaustive-failure certificate. The reported search count is the
    scan position of the solution (or the full space size).
    """
    if system.binding is None:
        raise ValidationError("system must be bound to a group")
    G = system.binding.group
    order = G.order
    nvars = len(system.variables)
    total = order ** nvars
    if total > config.brute_force_cap:
        raise CapExceeded(f"search space {order}^{nvars} exceeds the cap "
                          f"{config.brute_force_cap}")
    words = [compile_word(w, G, system.binding.values) for w in system.words]
    hit = next(scan_solutions(G, words, system.variables, range(order), descending), None)
    if hit is None:
        return BruteForceResult(None, total, True)
    searched, values = hit
    solution = dict(zip(system.variables, values))
    if not satisfies(system, solution):
        raise ValidationError("internal error: brute-force solution "
                              "failed re-verification")
    return BruteForceResult(solution, searched, False)
