"""Group algebras of finitely generated abelian groups, with certificates.

The algebras here are spanned by monomials ``x1^a1 ... xl^al * t1^b1 ...
tr^br`` where each ``x_i`` generates a finite cyclic factor and each
``t_i`` generates an infinite cyclic factor (Laurent monomials, no
truncation). Two coefficient settings are used:

* `AbelianGroupSpec`: coefficients in the p-element field, torsion orders
  all powers of the same p. This is where the augmentation certificates
  live: a square matrix whose augmentation is nonsingular over Z_p is not
  a zero divisor, and rows whose augmentations are independent over Z_p
  are independent over the whole group algebra.
* `IntegralGroupSpec`: integer coefficients, arbitrary torsion orders.
  Used for the rational independence certificate (torsion-free case) and
  for exact identities in integral group rings.

Certificates are sufficient, never necessary: "not certified" makes no
claim. For finite algebras the regular representation is the one exact
oracle: the rank of its images decides zero divisors, and one elimination
of [images | I] finds an annihilating combination of rows or proves that
there is none.
"""

from __future__ import annotations

import itertools
import re
from math import comb
from typing import Iterator, Sequence

from .equations import echelon, rank_mod_p
from .errors import ParseError, ValidationError, int_literal
from .groups import is_prime
from .record import Record
from .words import strip_comment

Monomial = tuple[tuple[int, ...], tuple[int, ...]]   # (torsion exps, free exps)


MAX_ORDER_DIGITS = 4300    # the interpreter's int-to-str limit; describe() prints p^k
ORDER_LIMIT = 10 ** MAX_ORDER_DIGITS   # least order with more digits than that
MAX_GENERATORS = 64        # torsion factors plus free rank: the length of every monomial


def _check_generators(torsion: tuple[int, ...], free_rank: int) -> None:
    if len(torsion) + free_rank > MAX_GENERATORS:
        raise ValidationError(f"{len(torsion) + free_rank} generators (torsion factors "
                              f"plus free rank) exceed the cap {MAX_GENERATORS}")


def _group_desc(torsion_orders: tuple[int, ...], free_rank: int) -> str:
    parts = [f"C{o}" for o in torsion_orders]
    if free_rank:
        parts.append(f"Z^{free_rank}" if free_rank > 1 else "Z")
    return " x ".join(parts) or "1"


class AbelianGroupSpec(Record):
    """C_{p^k1} x ... x C_{p^kl} x Z^r with coefficients in Z_p."""
    p: int
    torsion_exponents: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion_exponents", tuple(self.torsion_exponents))
        _check_generators(self.torsion_exponents, self.free_rank)
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if any(k < 1 for k in self.torsion_exponents):
            raise ValidationError("torsion exponents must be >= 1")
        # p^k >= 2^k, so capping k at the bit length of the limit is exact
        for k in self.torsion_exponents:
            if self.p ** min(k, ORDER_LIMIT.bit_length()) >= ORDER_LIMIT:
                raise ValidationError(f"torsion factor {self.p}^{k} has more "
                                      f"than {MAX_ORDER_DIGITS} digits")
        if self.free_rank < 0:
            raise ValidationError("free rank must be >= 0")
        object.__setattr__(self, "torsion_orders", tuple(self.p ** k for k in self.torsion_exponents))

    @property
    def characteristic(self) -> int:
        return self.p

    def describe(self) -> str:
        return f"Z_{self.p}[{_group_desc(self.torsion_orders, self.free_rank)}]"


class IntegralGroupSpec(Record):
    """Prod C_{n_i} x Z^r with integer coefficients."""
    torsion_orders: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "torsion_orders", tuple(self.torsion_orders))
        _check_generators(self.torsion_orders, self.free_rank)
        if any(n < 2 for n in self.torsion_orders):
            raise ValidationError("torsion orders must be >= 2")
        if self.free_rank < 0:
            raise ValidationError("free rank must be >= 0")

    @property
    def characteristic(self) -> int:
        return 0

    def describe(self) -> str:
        return f"Z[{_group_desc(self.torsion_orders, self.free_rank)}]"


Spec = AbelianGroupSpec | IntegralGroupSpec


class AlgebraElement:
    """An element of the group algebra: monomial -> nonzero coefficient."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: Spec, terms=()) -> None:
        self.spec = spec
        acc: dict[Monomial, int] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        char = spec.characteristic
        orders = spec.torsion_orders
        for (tv, fv), c in items:
            if len(tv) != len(orders) or len(fv) != spec.free_rank:
                raise ValidationError("monomial does not match the algebra spec")
            tv = tuple(e % o for e, o in zip(tv, orders))
            fv = tuple(int(e) for e in fv)
            c = c % char if char else int(c)
            if c:
                key = (tv, fv)
                c0 = acc.get(key, 0) + c
                c0 = c0 % char if char else c0
                if c0:
                    acc[key] = c0
                elif key in acc:
                    del acc[key]
        self.terms = tuple(sorted(acc.items()))

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(spec: Spec) -> "AlgebraElement":
        return AlgebraElement(spec)

    @staticmethod
    def one(spec: Spec) -> "AlgebraElement":
        return AlgebraElement.scalar(spec, 1)

    @staticmethod
    def scalar(spec: Spec, c: int) -> "AlgebraElement":
        mono = ((0,) * len(spec.torsion_orders), (0,) * spec.free_rank)
        return AlgebraElement(spec, [(mono, c)])

    @staticmethod
    def monomial(spec: Spec, torsion: Sequence[int] = (), free: Sequence[int] = (),
                 coeff: int = 1) -> "AlgebraElement":
        tv = tuple(torsion) + (0,) * (len(spec.torsion_orders) - len(torsion))
        fv = tuple(free) + (0,) * (spec.free_rank - len(free))
        return AlgebraElement(spec, [((tv, fv), coeff)])

    @staticmethod
    def torsion_gen(spec: Spec, i: int) -> "AlgebraElement":
        tv = tuple(1 if j == i else 0 for j in range(len(spec.torsion_orders)))
        return AlgebraElement(spec, [((tv, (0,) * spec.free_rank), 1)])

    # -- ring operations -----------------------------------------------------

    def _need_same_spec(self, other: "AlgebraElement") -> None:
        if self.spec != other.spec:
            raise ValidationError("algebra spec mismatch")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._need_same_spec(other)
        return AlgebraElement(self.spec, self.terms + other.terms)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.spec, [(m, -c) for m, c in self.terms])

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._need_same_spec(other)
        char = self.spec.characteristic
        orders = self.spec.torsion_orders
        acc: dict[Monomial, int] = {}
        for (tv1, fv1), c1 in self.terms:
            for (tv2, fv2), c2 in other.terms:
                tv = tuple((a + b) % o for a, b, o in zip(tv1, tv2, orders))
                fv = tuple(a + b for a, b in zip(fv1, fv2))
                key = (tv, fv)
                c = acc.get(key, 0) + c1 * c2
                acc[key] = c % char if char else c
        return AlgebraElement(self.spec, acc)

    def scale(self, c: int) -> "AlgebraElement":
        return AlgebraElement(self.spec, [(m, k * c) for m, k in self.terms])

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValidationError("negative powers of algebra elements are undefined")
        out = AlgebraElement.one(self.spec)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement) and self.spec == other.spec
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.spec, self.terms))

    def __repr__(self) -> str:
        return f"AlgebraElement({format_element(self)!r})"


def augmentation(m: AlgebraElement) -> int:
    """Coefficient sum; group elements map to 1. A ring homomorphism."""
    char = m.spec.characteristic
    s = sum(c for _, c in m.terms)
    return s % char if char else s


class AlgebraMatrix(Record):
    spec: Spec
    entries: tuple[tuple[AlgebraElement, ...], ...]

    def __post_init__(self) -> None:
        entries = tuple(tuple(row) for row in self.entries)
        object.__setattr__(self, "entries", entries)
        width = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != width:
                raise ValidationError("rows have unequal lengths")
            for e in row:
                if e.spec != self.spec:
                    raise ValidationError("matrix entry has a different spec")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __mul__(self, other: "AlgebraMatrix") -> "AlgebraMatrix":
        if self.spec != other.spec or self.ncols != other.nrows:
            raise ValidationError("matrix product shape/spec mismatch")
        zero = AlgebraElement.zero(self.spec)
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return AlgebraMatrix(self.spec, tuple(rows))


def augmentation_matrix(M: AlgebraMatrix) -> list[list[int]]:
    return [[augmentation(e) for e in row] for row in M.entries]


class RowFamily(AlgebraMatrix):
    """A matrix read as a family of rows over the algebra."""

    @property
    def rows(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        return self.entries


# ---------------------------------------------------------------------------
# nilpotent basis expansion

def nilpotent_basis_expansion(m: AlgebraElement, var: int) -> list[AlgebraElement]:
    """Coefficients M_0..M_{P-1} with m = sum M_t (x-1)^t, x the var-th
    torsion generator and P its order; each M_t omits that generator.

    M_0 is the partial augmentation at the chosen generator.
    """
    spec = m.spec
    if var < 0 or var >= len(spec.torsion_orders):
        raise ValidationError(f"no torsion generator with index {var}")
    P = spec.torsion_orders[var]
    out_terms: list[dict] = [dict() for _ in range(P)]
    char = spec.characteristic
    for (tv, fv), c in m.terms:
        d = tv[var]
        tv0 = tuple(0 if j == var else e for j, e in enumerate(tv))
        key = (tv0, fv)
        for t in range(d + 1):
            acc = out_terms[t]
            val = acc.get(key, 0) + comb(d, t) * c
            acc[key] = val % char if char else val
    return [AlgebraElement(spec, terms) for terms in out_terms]


def reassemble_expansion(coeffs: Sequence[AlgebraElement], var: int) -> AlgebraElement:
    """Sum of M_t * (x-1)^t; inverse of nilpotent_basis_expansion."""
    spec = coeffs[0].spec
    x = AlgebraElement.torsion_gen(spec, var)
    xm1 = x - AlgebraElement.one(spec)
    out = AlgebraElement.zero(spec)
    power = AlgebraElement.one(spec)
    for t, M in enumerate(coeffs):
        out = out + M * power
        power = power * xm1
    return out


# ---------------------------------------------------------------------------
# certificates

class RowIndependenceCertificate(Record):
    """Witness of independence over the group algebra: a nonsingular square
    minor of the augmented rows over the base field."""
    augmented: tuple[tuple[int, ...], ...]
    pivot_columns: tuple[int, ...]
    minor_det: int | Fraction
    field: str          # "Z_p" or "Q"


def certify_row_independence(M: AlgebraMatrix) -> RowIndependenceCertificate | None:
    """Independence of the rows of M over its group algebra, by augmenting
    to the base field: Z_p for Z_p[P x Z^r], Q for a torsion-free Z[Z^r].

    Independent means no combination with algebra coefficients, not all
    zero, gives the zero row. None is not a dependence claim.
    """
    p = M.spec.p if isinstance(M.spec, AbelianGroupSpec) else None
    if p is None and M.spec.torsion_orders:
        raise ValidationError("rational certification needs a torsion-free group")
    aug = augmentation_matrix(M)
    e = echelon(aug, p)
    if e.rank < len(aug):
        return None
    return RowIndependenceCertificate(tuple(map(tuple, aug)), e.pivots, e.det,
                                      "Q" if p is None else f"Z_{p}")


def certify_non_zero_divisor(M: AlgebraMatrix) -> RowIndependenceCertificate | None:
    """Certificate that a square M over Z_p[P x Z^r] is not a zero divisor,
    exactly when its augmentation matrix is nonsingular; ``minor_det`` is
    then that matrix's determinant mod p.

    None is NOT a claim that M is a zero divisor.
    """
    if not isinstance(M.spec, AbelianGroupSpec):
        raise ValidationError("this certificate needs the prime-field setting")
    if not M.is_square():
        raise ValidationError("zero-divisor certification needs a square matrix")
    return certify_row_independence(M)


# ---------------------------------------------------------------------------
# exact oracles (finite specs only)

def _finite_monomials(spec: Spec) -> list[Monomial]:
    if spec.free_rank != 0:
        raise ValidationError("oracles need a finite algebra (free rank 0)")
    return [(tv, ()) for tv in itertools.product(
        *(range(o) for o in spec.torsion_orders))]


def all_elements(spec: Spec) -> Iterator[AlgebraElement]:
    """Every element of a finite prime-field algebra."""
    if not isinstance(spec, AbelianGroupSpec):
        raise ValidationError("enumeration needs a finite prime-field algebra")
    monos = _finite_monomials(spec)
    for coeffs in itertools.product(range(spec.p), repeat=len(monos)):
        yield AlgebraElement(spec, list(zip(monos, coeffs)))


def _images(spec: Spec, rows: Sequence[Sequence[AlgebraElement]]) -> list[list[int]]:
    """Row (i, m) is the monomial m times ``rows[i]`` in Z_p coordinates over
    (column, monomial): the matrix of c -> c*R on A^k, for finite specs."""
    if not isinstance(spec, AbelianGroupSpec):
        raise ValidationError("the regular representation needs the prime-field setting")
    monos = _finite_monomials(spec)
    pos = {tv: i for i, (tv, _) in enumerate(monos)}
    nm, orders = len(monos), spec.torsion_orders
    out = []
    for row in rows:
        for tv, _ in monos:
            image = [0] * (nm * len(row))
            for j, entry in enumerate(row):
                for (tv2, _), c in entry.terms:   # m permutes the monomials
                    image[j * nm + pos[tuple((a + b) % o for a, b, o
                                             in zip(tv, tv2, orders))]] = c
            out.append(image)
    return out


def _side_images(M: AlgebraMatrix, side: str) -> list[list[int]]:
    if side not in ("left", "right"):
        raise ValidationError("side must be 'left' or 'right'")
    return _images(M.spec, M.entries if side == "right" else tuple(zip(*M.entries)))


def regular_representation(M: AlgebraMatrix, side: str = "left") -> list[list[int]]:
    """The Z_p-matrix of multiplication by M on the free module: v -> M*v on
    columns (left) or v -> v*M on rows (right), for any shape.

    Only defined for finite algebras. M is a left (right) zero divisor
    exactly when the corresponding operator is singular.
    """
    return [list(col) for col in zip(*_side_images(M, side))]


def is_zero_divisor(M: AlgebraMatrix, side: str = "left") -> bool:
    """Exact decision: the operator's rank is below its column count."""
    images = _side_images(M, side)
    return rank_mod_p(images, M.spec.p) < len(images)


def _exceeds_work_cap(rows: RowFamily, work_cap: int) -> bool:
    """Whether [images | I] for *rows* has more than ``work_cap`` entries:
    k*p^s rows and (width+k)*p^s columns over the p^s monomials."""
    k, s = rows.nrows, sum(rows.spec.torsion_exponents)
    # p^s >= 2^s > work_cap once s reaches work_cap's bit length
    return (s >= work_cap.bit_length()
            or k * (rows.ncols + k) * rows.spec.p ** (2 * s) > work_cap)


def find_annihilating_combination(rows: RowFamily,
                                  work_cap: int = 10 ** 6
                                  ) -> tuple[AlgebraElement, ...] | None:
    """Nonzero coefficients with sum c_i * row_i = 0, or None when there are
    none: one elimination of [images | I], where a reduced row whose pivot
    lies in the identity block carries such c. ``work_cap`` bounds the
    entries of that matrix before it is built."""
    spec = rows.spec
    if not isinstance(spec, AbelianGroupSpec):
        raise ValidationError("the row oracle needs a finite prime-field algebra")
    k, width = rows.nrows, rows.ncols
    if k == 0:
        return None
    if _exceeds_work_cap(rows, work_cap):
        raise ValidationError(f"the row oracle's matrix over {spec.p}^"
                              f"{sum(spec.torsion_exponents)} monomials "
                              f"exceeds the work cap {work_cap}")
    monos = _finite_monomials(spec)
    nm = len(monos)
    ech = echelon([img + [int(i == r) for i in range(k * nm)]
                   for r, img in enumerate(_images(spec, rows.entries))], spec.p)
    c = next((row[width * nm:] for row, piv in zip(ech.rows, ech.pivots)
              if piv >= width * nm), None)
    if c is None:
        return None
    combo = tuple(AlgebraElement(spec, zip(monos, c[i * nm:(i + 1) * nm]))
                  for i in range(k))
    if not (AlgebraMatrix(spec, (combo,)) * rows).is_zero():
        raise ValidationError("internal error: the annihilating combination "
                              "failed re-verification")
    return combo


def decide_row_independence(rows: RowFamily, work_cap: int = 10 ** 6
                            ) -> tuple[str, RowIndependenceCertificate | None]:
    """Verdict 'certified', 'refuted' or 'unknown', with the augmentation
    certificate when there is one. 'unknown' means only that the row oracle
    cannot run (integer coefficients, a free part, or a matrix over
    ``work_cap``); any other error of the oracle propagates."""
    cert = certify_row_independence(rows)
    if cert is not None:
        return "certified", cert
    if (not isinstance(rows.spec, AbelianGroupSpec) or rows.spec.free_rank
            or _exceeds_work_cap(rows, work_cap)):
        return "unknown", None
    if find_annihilating_combination(rows, work_cap) is None:   # Z_p[P] is self-injective
        raise ValidationError("internal error: open rows have no annihilating combination")
    return "refuted", None


# ---------------------------------------------------------------------------
# text format:  algebra p=<p> torsion=<k1,k2,...> free=<r>  /  row: e ; e ; ...

_FACTOR_RE = re.compile(r"([xt])(\d+)(?:\^(-?\d+))?\Z")


def parse_algebra_header(line: str) -> Spec:
    toks = line.split()
    if not toks or toks[0] != "algebra":
        raise ParseError(f"expected 'algebra ...' header, got {line!r}")
    fields = {}
    rational = False
    for tok in toks[1:]:
        if tok == "rational":
            rational = True
            continue
        if "=" not in tok:
            raise ParseError(f"bad header token {tok!r}")
        k, v = tok.split("=", 1)
        if k in fields or k not in ("p", "torsion", "free"):
            raise ParseError(f"{'repeated' if k in fields else 'unknown'} header key {k!r}")
        fields[k] = v
    try:
        free = int(fields.get("free", "0"))
        torsion = tuple(int(t) for t in fields.get("torsion", "").split(",") if t)
        if rational:
            if torsion:
                raise ParseError("rational algebras here are torsion-free")
            if "p" in fields:
                raise ParseError("rational algebras take no p=")
            return IntegralGroupSpec((), free)
        if "p" not in fields:
            raise ParseError("header needs p=<prime> (or 'rational')")
        return AbelianGroupSpec(int(fields["p"]), torsion, free)
    except ValueError as exc:
        raise ParseError(f"bad algebra header {line!r}: {exc}") from None


def parse_element(spec: Spec, text: str) -> AlgebraElement:
    """Parse e.g. ``1 + x1^2*t1^-1 - 2*x2`` against a spec."""
    text = text.strip()
    if not text or text == "0":
        return AlgebraElement.zero(spec)
    # split into signed terms; +/- after '^' or '*' belongs to an exponent,
    # and signs in a row multiply
    terms: list[tuple[int, str]] = []
    sign = +1
    buf = ""
    prev = ""
    for ch in text:
        if ch in "+-" and prev not in ("^", "*"):
            if buf.strip():
                terms.append((sign, buf.strip()))
                sign = +1
            sign = sign if ch == "+" else -sign
            buf = ""
            prev = ""
            continue
        buf += ch
        if not ch.isspace():
            prev = ch
    if buf.strip():
        terms.append((sign, buf.strip()))
    elif terms:      # the text ends in a sign
        raise ParseError(f"sign with no term after it in {text!r}")
    if not terms:
        raise ParseError(f"empty element: {text!r}")
    ntors = len(spec.torsion_orders)
    out = []
    for sgn, term in terms:
        coeff = sgn
        tv = [0] * ntors
        fv = [0] * spec.free_rank
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {term!r}")
            if re.fullmatch(r"\d+", factor):
                coeff *= int_literal(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r} in {text!r}")
            kind, idx = m.group(1), int_literal(m.group(2)) - 1
            exp = int_literal(m.group(3) or "1")
            if kind == "x":
                if idx < 0 or idx >= ntors:
                    raise ParseError(f"no torsion generator x{idx + 1}")
                tv[idx] += exp
            else:
                if idx < 0 or idx >= spec.free_rank:
                    raise ParseError(f"no free generator t{idx + 1}")
                fv[idx] += exp
        out.append(((tuple(tv), tuple(fv)), coeff))
    return AlgebraElement(spec, out)


def format_element(e: AlgebraElement) -> str:
    if not e.terms:
        return "0"
    parts = []
    for (tv, fv), c in e.terms:
        factors = []
        for i, a in enumerate(tv):
            if a:
                factors.append(f"x{i + 1}" + (f"^{a}" if a != 1 else ""))
        for i, a in enumerate(fv):
            if a:
                factors.append(f"t{i + 1}" + (f"^{a}" if a != 1 else ""))
        mono = "*".join(factors)
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}")
    return " + ".join(parts)


def format_header(spec: Spec) -> str:
    if isinstance(spec, AbelianGroupSpec):
        tors = ",".join(str(k) for k in spec.torsion_exponents)
        return f"algebra p={spec.p} torsion={tors} free={spec.free_rank}"
    return f"algebra rational free={spec.free_rank}"


def parse_row_file(text: str) -> RowFamily:
    """Parse an algebra header plus ``row:`` lines into a RowFamily."""
    spec = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("algebra"):
            if spec is not None:
                raise ParseError(f"line {lineno}: duplicate algebra header")
            spec = parse_algebra_header(line)
        elif line.startswith("row:"):
            if spec is None:
                raise ParseError(f"line {lineno}: row before algebra header")
            rows.append(tuple(parse_element(spec, part)
                              for part in line[4:].split(";")))
        else:
            raise ParseError(f"line {lineno}: expected 'algebra' or 'row:', got {line!r}")
    if spec is None:
        raise ParseError("missing algebra header")
    return RowFamily(spec, tuple(rows))


def format_row_file(rows: RowFamily) -> str:
    out = [format_header(rows.spec)]
    for r in rows.rows:
        out.append("row: " + " ; ".join(format_element(e) for e in r))
    return "\n".join(out) + "\n"
