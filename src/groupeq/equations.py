"""Equation systems, exponent matrices, and their classification.

An equation system is a list of words over declared variables and
coefficient symbols, optionally bound to a concrete group. The diagonal D
of a Smith normal form U*E*V = D of the exponent-sum matrix E answers every
question about E: the non-singular / p-nonsingular / unimodular verdicts,
the rank mod p (the number of invariant factors p does not divide) and,
with the sign det(U)*det(V), the determinant; only the abelian solver reads
U and V. `echelon`, exact elimination over Q or a prime field, serves the
group-ring certificates and oracles.

Words compile to one letter form, which `evaluate_compiled` evaluates
and `scan_solutions`, the one exhaustive search behind `solve`, solves; a
system bound to a wreath product compiles like any other.

All integer arithmetic is arbitrary precision.
"""

from __future__ import annotations

import itertools
from math import gcd, prod
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .errors import ParseError, ValidationError, int_literal, read_text_file
from .groups import (FiniteGroup, Homomorphism, abelian_p_basis, cyclic,
                     direct_product, dlog_table, is_prime, load_group_file,
                     prime_factors)
from .record import Record
from .words import VAR, Word, exponent_sum, parse_word, strip_comment, symbol_kinds

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# exact integer linear algebra

def mat_mul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    if A and B and len(A[0]) != len(B):
        raise ValueError("matrix shape mismatch")
    cols = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(cols)]
            for i in range(len(A))]


class SmithDecomposition(Record):
    """U * A * V = D with U, V unimodular (None for the verdicts, which read
    only D and the sign), D diagonal, d_i | d_{i+1}, sign = det(U) * det(V)."""
    U: IntMatrix | None
    D: IntMatrix
    V: IntMatrix | None
    sign: int

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k) if self.D[i][i] != 0)

    def p_nonsingular(self, p: int) -> bool:
        """Whether A has full row rank mod the prime p: its rank mod p is the
        number of invariant factors that p does not divide."""
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        factors = self.invariant_factors
        return len(factors) == len(self.D) and (not factors or factors[-1] % p != 0)


def _diagonalize(M: IntMatrix, rows: int, cols: int) -> int:
    """Diagonalize the top-left rows x cols block of M in place by gcd-driven
    steps on whole rows and columns of M, so that an identity beside or below
    it becomes U or V; return det(U) * det(V). The pivot is a nonzero block
    entry of least absolute value, the lowest (row, column) on ties."""
    if any(len(row) != len(M[0]) for row in M[:rows]):
        raise ValueError("matrix is not rectangular")
    sign = 1            # each swap and each negation flips it

    def reduce(t: int, end_row: int, end_col: int) -> None:
        """Diagonalize the block of rows t..end_row-1 and columns t..end_col-1."""
        nonlocal sign
        while t < min(end_row, end_col):
            pivot = min(((abs(x), i, j) for i in range(t, end_row)
                         for j, x in enumerate(M[i][t:end_col], t) if x), default=None)
            if pivot is None:
                return
            _, pi, pj = pivot
            if pi != t:                                 # swap rows t and pi
                M[t], M[pi], sign = M[pi], M[t], -sign
            if pj != t:                                 # swap columns t and pj
                for row in M:
                    row[t], row[pj] = row[pj], row[t]
                sign = -sign
            reduced = False
            for i in range(t + 1, end_row):
                if M[i][t] != 0:                        # row_i -= q * row_t
                    q = M[i][t] // M[t][t]
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    reduced |= M[i][t] != 0
            qs = [(j, M[t][j] // M[t][t]) for j in range(t + 1, end_col) if M[t][j]]
            for row in M:                               # col_j -= q * col_t
                if row[t]:
                    for j, q in qs:
                        row[j] -= q * row[t]
            reduced |= any(M[t][t + 1:end_col])
            if reduced:
                continue  # a smaller remainder appeared; pick a new pivot
            if M[t][t] < 0:
                M[t], sign = [-x for x in M[t]], -sign
            t += 1

    reduce(0, rows, cols)
    # enforce the divisibility chain d_i | d_{i+1}: fold d_{i+1} into column
    # i and rediagonalize rows and columns i, i+1 in place, until d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(min(rows, cols) - 1):
            while M[i][i] != 0 and M[i + 1][i + 1] % M[i][i] != 0:
                for row in M:                           # col_i += col_{i+1}
                    row[i] += row[i + 1]
                reduce(i, i + 2, i + 2)
                changed = True
    return sign


def smith_normal_form(A: Sequence[Sequence[int]]) -> SmithDecomposition:
    """U * A * V = D from [A | I_rows] over I_cols (rows of A's width only),
    diagonalized: U is its top right, D its top left and V its bottom."""
    rows, cols = len(A), len(A[0]) if A else 0
    M = [[*map(int, row), *(int(i == j) for j in range(rows))] for i, row in enumerate(A)]
    M += [[int(i == j) for j in range(cols)] for i in range(cols)]
    sign = _diagonalize(M, rows, cols)
    return SmithDecomposition([row[cols:] for row in M[:rows]],
                              [row[:cols] for row in M[:rows]], M[rows:], sign)


def _smith_diagonal(A: Sequence[Sequence[int]]) -> SmithDecomposition:
    """D and the sign, for the verdicts: the diagonalization of A alone."""
    D = [[int(x) for x in row] for row in A]
    return SmithDecomposition(None, D, None, _diagonalize(D, len(D), len(D[0]) if D else 0))


def det_int(snf: SmithDecomposition) -> int:
    """det A of the square A that *snf* decomposes: its sign times the invariant
    factors' product, or 0 when they are fewer than the rows."""
    factors = snf.invariant_factors
    return snf.sign * prod(factors) if len(factors) == len(snf.D) else 0


class Echelon(Record):
    """Outcome of `echelon`: the rank, the pivot column of each pivot row,
    the determinant of the minor on those columns (0 when the rows are
    dependent), and the reduced rows, pivot rows first in pivot order."""
    rank: int
    pivots: tuple[int, ...]
    det: int | Fraction
    rows: list[list[int | Fraction]]


def echelon(A: Sequence[Sequence[int]], p: int | None = None) -> Echelon:
    """Gaussian elimination over the p-element field, or over Q when p is
    None.

    Stops once every row has a pivot. ``det`` is the sign of the row swaps
    times the product of the pivot leads (reduced mod p), which is the
    determinant of the square minor on the pivot columns. Each pivot is
    a column outside the span of the columns before it.
    """
    if p is None:
        from fractions import Fraction      # only elimination over Q needs it
        m = [[Fraction(x) for x in row] for row in A]
        det = Fraction(1)
    else:
        if not is_prime(p):
            raise ValidationError(f"{p} is not prime")
        m = [[x % p for x in row] for row in A]
        det = 1
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = -det
        lead = m[r][c]
        det *= lead
        inv = 1 / lead if p is None else pow(lead, -1, p)
        for i in range(r + 1, rows):
            if not m[i][c]:
                continue
            f = m[i][c] * inv
            if p is None:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            else:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
    if len(pivots) < rows:
        det = 0
    elif p is not None:
        det %= p
    return Echelon(len(pivots), tuple(pivots), det, m)


def rank_mod_p(A: Sequence[Sequence[int]], p: int) -> int:
    """Rank over the p-element field."""
    return echelon(A, p).rank


# ---------------------------------------------------------------------------
# equation systems

class Binding(Record):
    group: object                      # FiniteGroup or any group-like
    values: Mapping[str, int]          # coefficient symbol -> element index


class EquationSystem(Record):
    variables: tuple[str, ...]
    coefficients: tuple[str, ...]
    words: tuple[Word, ...]
    binding: Binding | None = None

    def __post_init__(self) -> None:
        kinds = symbol_kinds(self.variables, self.coefficients, ValidationError)
        # each distinct letter once, in order of first occurrence
        for letter in dict.fromkeys(itertools.chain.from_iterable(self.words)):
            if letter.name not in kinds:
                raise ValidationError(f"undeclared symbol {letter.name!r} in word")
            if letter.kind != kinds[letter.name]:
                raise ValidationError(f"symbol {letter.name!r} used as wrong kind")
        if self.binding is not None:
            for c in self.coefficients:
                if c not in self.binding.values:
                    raise ValidationError(f"bound system lacks a value for {c!r}")

    def bind(self, group: object, values: Mapping[str, int]) -> "EquationSystem":
        return EquationSystem(self.variables, self.coefficients, self.words,
                              Binding(group, dict(values)))


def exponent_matrix(system: EquationSystem) -> IntMatrix:
    """Row j, column i: exponent sum of variable i in word j."""
    return [[exponent_sum(w, v) for v in system.variables] for w in system.words]


class Classification(Record):
    nonsingular: bool
    singular_primes: tuple[int, ...] | str   # finite set, or "all"
    unimodular: bool
    invariant_factors: tuple[int, ...]
    note: str
    smith: SmithDecomposition          # of the exponent matrix; not in to_dict

    def to_dict(self) -> dict:
        return {f: self.__dict__[f] for f in self._fields if f != "smith"}


def classify_matrix(A: Sequence[Sequence[int]]) -> Classification:
    snf = _smith_diagonal(A)
    factors = snf.invariant_factors
    if len(factors) < len(A):
        return Classification(False, "all", False, factors,
                              "exponent rows are dependent over Q; singular for all p", snf)
    last = factors[-1] if factors else 1
    bad, cofactor = tuple(prime_factors(last)), last
    for p in bad:
        while cofactor % p == 0:
            cofactor //= p
    # the primes of an unfactored cofactor are singular too, but unproved and unlisted
    note = f"primes dividing the last invariant factor {last}" + (
        f"; cofactor {cofactor} not factored" if cofactor > 1 else "")
    return Classification(True, bad, last == 1, factors, note, snf)


def classify(system: EquationSystem) -> Classification:
    """Non-singular / p-nonsingular / unimodular verdicts for a system."""
    return classify_matrix(exponent_matrix(system))


def is_p_nonsingular(system: EquationSystem, p: int) -> bool:
    return _smith_diagonal(exponent_matrix(system)).p_nonsingular(p)


# ---------------------------------------------------------------------------
# system file format

def parse_system(text: str, base_dir: str | Path | None = None,
                 group: object | None = None) -> EquationSystem:
    """Parse a system file.

    Format: a ``vars:`` line, an optional ``coeffs:`` line, at most one
    ``bind:`` line (``bind: <group-file>|@group sym=element ...``, each sym
    a declared coefficient named once), then one ``eq: <word>`` line per
    equation. ``#`` comments and blank lines are ignored. ``@group`` binds
    to the group passed by the caller.
    """
    variables: list[str] = []
    coefficients: list[str] = []
    bind_spec: tuple[str, dict[str, str]] | None = None
    eq_texts: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected '<key>: ...', got {line!r}")
        key, rest = line.split(":", 1)
        key = key.strip()
        rest = rest.strip()
        if key == "vars":
            variables.extend(rest.split())
        elif key == "coeffs":
            coefficients.extend(rest.split())
        elif key == "bind":
            toks = rest.split()
            if not toks:
                raise ParseError(f"line {lineno}: empty bind clause")
            if bind_spec is not None:
                raise ParseError(f"line {lineno}: a system has one bind clause")
            pairs = {}
            for tok in toks[1:]:
                if "=" not in tok:
                    raise ParseError(f"line {lineno}: bind entries look like sym=element")
                sym, elem = tok.split("=", 1)
                if sym in pairs:
                    raise ParseError(f"line {lineno}: {sym!r} is bound twice")
                pairs[sym] = elem
            bind_spec = (toks[0], pairs)
        elif key == "eq":
            eq_texts.append(rest)
        else:
            raise ParseError(f"line {lineno}: unknown section {key!r}")
    words = tuple(parse_word(t, variables, coefficients) for t in eq_texts)
    system = EquationSystem(tuple(variables), tuple(coefficients), words)
    if bind_spec is None:
        return system
    source, pairs = bind_spec
    for sym in pairs:
        if sym not in coefficients:
            raise ParseError(f"bind: {sym!r} is not a declared coefficient")
    if source == "@group":
        if group is None:
            raise ParseError("system binds to @group but no group was supplied")
        target = group
    else:
        from .catalog import resolve_data_path
        path = resolve_data_path(source)
        if not source.startswith("@") and base_dir is not None \
                and not path.is_absolute():
            path = Path(base_dir) / path
        target = load_group_file(path)
    values = {}
    for sym, elem in pairs.items():
        if elem.startswith("#"):
            k = elem[1:]
            if not k.isdecimal() or int_literal(k) >= target.order:
                raise ParseError(f"bind: {sym}={elem} is not #k with "
                                 f"0 <= k < {target.order}")
            values[sym] = int(k)
        else:
            values[sym] = target.index_of(elem)
    return system.bind(target, values)


def parse_system_file(path: str | Path, group: object | None = None) -> EquationSystem:
    return parse_system(read_text_file(path), Path(path).parent, group)


# ---------------------------------------------------------------------------
# evaluation and exhaustive search

def compile_word(word: Word, group, coeffs: Mapping[str, int]) -> list[tuple]:
    """A word as letters (variable name, sign) | (None, element); a
    coefficient letter is its element, inverted when the sign is -1."""
    return [(name, sign) if kind == VAR else
            (None, coeffs[name] if sign > 0 else group.inv(coeffs[name]))
            for kind, name, sign in word]


def evaluate_compiled(group, word: Sequence[tuple], values) -> int:
    """Product of a compiled word, each variable read as values[key]."""
    mul, inv = group.mul, group.inv
    acc = group.identity
    for k, v in word:
        acc = mul(acc, v if k is None else values[k] if v > 0 else inv(values[k]))
    return acc


def evaluate_word(word: Word, group, coeffs: Mapping[str, int],
                  var_values: Mapping[str, int]) -> int:
    """Product of a word's letters in a group-like object."""
    return evaluate_compiled(group, compile_word(word, group, coeffs), var_values)


def scan_solutions(group, words: Sequence[Sequence[tuple]], variables: Sequence,
                   domain: Sequence[int], descending: bool = False
                   ) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (scan position from 1, values) for every assignment from
    *domain* to *variables* that makes each compiled word the identity, in
    lexicographic order of *domain* (reversed when descending).

    The first n-1 variables are fixed per block and each word is evaluated
    for all values x of the last variable at once. Coefficients and fixed
    letters fold into an element c; each occurrence of x but the first
    costs one `mul_all` gather with the shifted block c*x^(+-1), cached by
    (c, sign) when n >= 2 (at most 2|G| blocks of len(domain) entries). A
    word holds where its block equals the inverse of the c after the last x.
    """
    mul, inv, one, mul_all = group.mul, group.inv, group.identity, group.mul_all
    words = [[(k if k is None else variables.index(k), v) for k, v in w] for w in words]
    nvars = len(variables)
    rng = domain[::-1] if descending else domain
    last = nvars - 1
    xs = list(rng) if nvars else [one]     # nvars = 0: one block of size 1
    shifted = {(one, 1): xs, (one, -1): list(map(inv, xs))}
    for block, prefix in enumerate(itertools.product(rng, repeat=max(last, 0))):
        hits = range(len(xs))
        for word in words:
            c, acc = one, None
            for k, v in word:
                if k is None:
                    c = mul(c, v)
                elif k != last:
                    c = mul(c, prefix[k] if v > 0 else inv(prefix[k]))
                else:
                    ys = shifted.get((c, v))
                    if ys is None:
                        ys = mul_all([c] * len(xs), shifted[one, v])
                        if nvars > 1:       # more than one block
                            shifted[c, v] = ys
                    acc = ys if acc is None else mul_all(acc, ys)
                    c = one
            if acc is None:          # holds for the whole block or for none of it
                if c != one:
                    break
                continue
            target = inv(c)
            hits = [i for i in hits if acc[i] == target] if target in acc else ()
            if not hits:
                break
        else:
            for i in hits:
                yield block * len(xs) + i + 1, (prefix + (xs[i],))[:nvars]


def satisfies(system: EquationSystem, var_values: Mapping[str, int]) -> bool:
    """Whether every word of a bound system is the identity at *var_values*."""
    if system.binding is None:
        raise ValidationError("system is not bound to a group")
    group, values = system.binding.group, system.binding.values
    return all(evaluate_word(w, group, values, var_values) == group.identity
               for w in system.words)


# ---------------------------------------------------------------------------
# abelian p-group solver (base case of the solvability machinery)

class AbelianSolution(Record):
    group: FiniteGroup                 # B itself, or an extension B' >= B
    embedding: Homomorphism            # B -> group
    assignment: dict[str, int]         # variable -> element index of group
    lift_exponent: int                 # every cyclic factor grew by p**this
    basis: tuple[int, ...]             # direct basis of group (element indices)


def solve_abelian_p_system(system: EquationSystem, p: int) -> AbelianSolution:
    """Solve a non-singular system over a finite abelian p-group B.

    One Smith form U*E*V = D of the exponent matrix E does all the work:
    the system is non-singular when D has a nonzero entry per equation, and
    with b the right-hand sides over the basis of B, D*z = U*b is solved
    componentwise and y = V*z. The lift exponent v is the p-valuation of
    the last invariant factor. A p-nonsingular system has v = 0 and solves
    in B itself: the group is B, the embedding the identity and the basis
    B's. Otherwise each cyclic factor grows by p^v in a new direct product
    B', into which B embeds by h -> h^(p^v).
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if system.binding is None:
        raise ValidationError("system must be bound to a group")
    B = system.binding.group
    if not isinstance(B, FiniteGroup):
        raise ValidationError("abelian solver needs a FiniteGroup binding")
    basis = abelian_p_basis(B, p)
    cyc_orders = [B.element_order(b) for b in basis]
    if B.order > 1 and not basis:
        raise ValidationError("no decomposition for the bound group")

    snf = smith_normal_form(exponent_matrix(system))
    factors = snf.invariant_factors
    if len(factors) != len(system.words):
        raise ValidationError("system is not non-singular; the abelian solver "
                              "needs independent exponent rows")
    last = factors[-1] if factors else 1
    v = 0
    while last % p == 0:
        last //= p
        v += 1

    logB = dlog_table(B, basis)
    lift = p ** v
    if v:
        # extension group B' and the embedding h -> h^(p^v)
        orders = [o * lift for o in cyc_orders]
        group = _direct_of_cyclics(orders, name=f"{B.name}-ext")
        basis = _canonical_basis(group, orders)
        embedding = Homomorphism(B, group, tuple(
            _from_vector(group, basis, [e * lift for e in logB[g]])
            for g in B.elements()))
    else:
        orders, group = cyc_orders, B
        embedding = Homomorphism(B, B, tuple(B.elements()))

    # right-hand side: equation j says sum_i E[j][i] * y_i = -c_j
    values, at_identity = system.binding.values, dict.fromkeys(system.variables, 0)
    rhs = [[e * lift for e in logB[B.inv(evaluate_word(w, B, values, at_identity))]]
           for w in system.words]
    z = [[_solve_congruence(snf.D[j][j], x % n, n) for x, n in zip(row, orders)]
         for j, row in enumerate(mat_mul(snf.U, rhs))]
    z += [[0] * len(orders) for _ in range(len(system.variables) - len(z))]
    assignment = {var: _from_vector(group, basis, [x % n for x, n in zip(y, orders)])
                  for var, y in zip(system.variables, mat_mul(snf.V, z))}

    coeffs = {c: embedding(values[c]) for c in system.coefficients}
    if not satisfies(system.bind(group, coeffs), assignment):
        raise ValidationError("internal error: abelian solution fails to verify")
    return AbelianSolution(group, embedding, assignment, v, tuple(basis))


def _solve_congruence(d: int, a: int, n: int) -> int:
    """Some z with d*z = a (mod n); raises if insoluble."""
    g = gcd(d, n)
    if a % g != 0:
        raise ValidationError(f"congruence {d}*z = {a} (mod {n}) has no solution")
    if n == 1:
        return 0
    d2, a2, n2 = d // g, a // g, n // g
    return (a2 * pow(d2, -1, n2)) % n2


def _direct_of_cyclics(orders: Sequence[int], name: str = "B") -> FiniteGroup:
    if not orders:
        return cyclic(1, name=name)
    G = cyclic(orders[0], gen_symbol="h1")
    for t, o in enumerate(orders[1:], start=2):
        G = direct_product(G, cyclic(o, gen_symbol=f"h{t}"))
    return FiniteGroup(G.table, G.names, name=name)


def _canonical_basis(G: FiniteGroup, orders: Sequence[int]) -> list[int]:
    """Generator indices of a group built by _direct_of_cyclics."""
    basis = []
    stride = G.order
    for o in orders:
        stride //= o
        basis.append(stride)
    return basis


def _from_vector(G: FiniteGroup, basis: Sequence[int], vec: Sequence[int]) -> int:
    x = G.identity
    for b, e in zip(basis, vec):
        x = G.mul(x, G.power(b, e))
    return x
