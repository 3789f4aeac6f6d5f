import itertools
import math
import random

import pytest

from groupeq.algebra import (MAX_ORDER_DIGITS, AbelianGroupSpec, AlgebraElement, AlgebraMatrix,
                             IntegralGroupSpec, RowFamily, all_elements,
                             augmentation, augmentation_matrix,
                             certify_non_zero_divisor,
                             certify_row_independence,
                             decide_row_independence, format_element,
                             format_row_file, find_annihilating_combination,
                             is_zero_divisor, nilpotent_basis_expansion,
                             parse_algebra_header, parse_element,
                             parse_row_file, reassemble_expansion,
                             regular_representation)
from groupeq.equations import rank_mod_p
from groupeq.errors import ParseError, ValidationError

Z2C2 = AbelianGroupSpec(2, (1,))
Z2C4 = AbelianGroupSpec(2, (2,))
Z3C3 = AbelianGroupSpec(3, (1,))


def one(spec):
    return AlgebraElement.one(spec)


def x(spec, i=0):
    return AlgebraElement.torsion_gen(spec, i)


def test_spec_validation():
    with pytest.raises(ValidationError):
        AbelianGroupSpec(4, (1,))
    with pytest.raises(ValidationError):
        AbelianGroupSpec(2, (0,))
    with pytest.raises(ValidationError):
        IntegralGroupSpec((1,), 0)


@pytest.mark.parametrize("p", [2, 3])
def test_spec_order_digit_bound(p):
    limit = 10 ** MAX_ORDER_DIGITS
    k = int(MAX_ORDER_DIGITS / math.log10(p))
    while p ** k >= limit:
        k -= 1
    while p ** (k + 1) < limit:
        k += 1
    spec = AbelianGroupSpec(p, (1, k))          # the largest printable factor
    assert spec.describe() == f"Z_{p}[C{p} x C{p ** k}]"
    assert len(str(p ** k)) == MAX_ORDER_DIGITS
    with pytest.raises(ValidationError) as exc:
        AbelianGroupSpec(p, (1, k + 1))
    assert str(exc.value) == (f"torsion factor {p}^{k + 1} has more than "
                              f"{MAX_ORDER_DIGITS} digits")


def test_identity_monomial_is_neutral():
    e = x(Z2C2)
    assert one(Z2C2) * e == e


def test_char2_square_of_one_plus_x():
    assert ((one(Z2C2) + x(Z2C2)) * (one(Z2C2) + x(Z2C2))).is_zero()


def test_frobenius_identities():
    # (x-1)^(p^k) = 0 in Z_p[C_{p^k}]
    for p, k in [(2, 1), (2, 2), (3, 1), (5, 1)]:
        spec = AbelianGroupSpec(p, (k,))
        assert ((x(spec) - one(spec)) ** (p ** k)).is_zero()
        assert not ((x(spec) - one(spec)) ** (p ** k - 1)).is_zero()


def test_augmentation_values_and_homomorphism():
    s = Z3C3
    assert augmentation(one(s) + x(s) + x(s) * x(s)) == 0
    assert augmentation(x(s)) == 1
    rng = random.Random(0)
    pool = list(all_elements(AbelianGroupSpec(3, (1,))))
    for _ in range(100):
        a, b = rng.choice(pool), rng.choice(pool)
        assert augmentation(a * b) == (augmentation(a) * augmentation(b)) % 3
        assert augmentation(a + b) == (augmentation(a) + augmentation(b)) % 3


def test_augmentation_matrix_over_z2c2():
    M = AlgebraMatrix(Z2C2, ((one(Z2C2), one(Z2C2) + x(Z2C2)),
                             (AlgebraElement.zero(Z2C2), one(Z2C2))))
    assert augmentation_matrix(M) == [[1, 0], [0, 1]]


def test_nilpotent_basis_expansion_linear():
    # a0 + a1*x expands to (a0+a1, a1)
    for a0 in range(2):
        for a1 in range(2):
            m = AlgebraElement.scalar(Z2C2, a0) + x(Z2C2).scale(a1)
            M = nilpotent_basis_expansion(m, 0)
            assert M[0] == AlgebraElement.scalar(Z2C2, (a0 + a1) % 2)
            assert M[1] == AlgebraElement.scalar(Z2C2, a1)
            assert reassemble_expansion(M, 0) == m


def test_nilpotent_basis_expansion_x_squared_in_z2c4():
    m = x(Z2C4) * x(Z2C4)
    M = nilpotent_basis_expansion(m, 0)
    assert M[0] == one(Z2C4)          # the partial augmentation
    assert reassemble_expansion(M, 0) == m
    zero = AlgebraElement.zero(Z2C4)
    assert all(e.is_zero() for e in nilpotent_basis_expansion(zero, 0))


def test_expansion_constant_term_is_partial_augmentation():
    spec = AbelianGroupSpec(2, (2, 1))
    rng = random.Random(1)
    monos = [( (i, j), () ) for i in range(4) for j in range(2)]
    for _ in range(50):
        m = AlgebraElement(spec, [(mono, rng.randrange(2)) for mono in monos])
        M = nilpotent_basis_expansion(m, 0)
        # collapsing x1 -> 1 by hand
        collapsed = AlgebraElement(
            spec, [(((0, tv[1]), ()), c) for (tv, _), c in m.terms])
        assert M[0] == collapsed
        assert reassemble_expansion(M, 0) == m


def test_round_trip_random_multivariate():
    spec = AbelianGroupSpec(3, (1, 1))
    rng = random.Random(2)
    monos = [((i, j), ()) for i in range(3) for j in range(3)]
    for _ in range(100):
        m = AlgebraElement(spec, [(mono, rng.randrange(3)) for mono in monos])
        for var in (0, 1):
            assert reassemble_expansion(nilpotent_basis_expansion(m, var), var) == m


def test_certificates_on_named_examples():
    Mx = AlgebraMatrix(Z2C2, ((x(Z2C2),),))
    cert = certify_non_zero_divisor(Mx)
    assert cert is not None and cert.minor_det == 1
    assert not is_zero_divisor(Mx, "left") and not is_zero_divisor(Mx, "right")

    M1x = AlgebraMatrix(Z2C2, ((one(Z2C2) + x(Z2C2),),))
    assert certify_non_zero_divisor(M1x) is None
    assert regular_representation(M1x, "left") == [[1, 1], [1, 1]]
    assert is_zero_divisor(M1x, "left") and is_zero_divisor(M1x, "right")

    M2 = AlgebraMatrix(Z2C2, ((one(Z2C2), one(Z2C2) + x(Z2C2)),
                              (AlgebraElement.zero(Z2C2), one(Z2C2))))
    assert certify_non_zero_divisor(M2) is not None
    assert not is_zero_divisor(M2, "left") and not is_zero_divisor(M2, "right")

    Mx3 = AlgebraMatrix(Z3C3, ((x(Z3C3),),))
    rep = regular_representation(Mx3, "left")
    assert sorted(map(tuple, rep)) == sorted([(0, 0, 1), (1, 0, 0), (0, 1, 0)])
    assert rank_mod_p(rep, 3) == 3

    Mone = AlgebraMatrix(Z3C3, ((one(Z3C3),),))
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert regular_representation(Mone, "left") == ident
    assert regular_representation(Mone, "right") == ident


def test_certificate_requires_square_and_prime_field():
    with pytest.raises(ValidationError):
        certify_non_zero_divisor(AlgebraMatrix(Z2C2, ((one(Z2C2), x(Z2C2)),)))
    free = IntegralGroupSpec((), 1)
    with pytest.raises(ValidationError):
        certify_non_zero_divisor(
            AlgebraMatrix(free, ((AlgebraElement.one(free),),)))


def test_regular_representation_needs_finite_spec():
    spec = AbelianGroupSpec(2, (1,), free_rank=1)
    M = AlgebraMatrix(spec, ((AlgebraElement.one(spec),),))
    with pytest.raises(ValidationError):
        regular_representation(M, "left")


def test_row_independence_examples():
    zero = AlgebraElement.zero(Z2C2)
    fam = RowFamily(Z2C2, ((one(Z2C2), zero), (x(Z2C2), one(Z2C2))))
    assert certify_row_independence(fam) is not None
    assert find_annihilating_combination(fam) is None

    fam2 = RowFamily(Z2C2, ((one(Z2C2), one(Z2C2)), (x(Z2C2), x(Z2C2))))
    assert certify_row_independence(fam2) is None
    combo = find_annihilating_combination(fam2)
    assert combo is not None
    # verify the witness annihilates
    for j in range(2):
        acc = zero
        for c, row in zip(combo, fam2.rows):
            acc = acc + c * row[j]
        assert acc.is_zero()
    assert decide_row_independence(fam2)[0] == "refuted"

    empty = RowFamily(Z2C2, ())
    assert certify_row_independence(empty) is not None


def test_certified_families_survive_exhaustive_search():
    pool = list(all_elements(Z2C2))
    rng = random.Random(4)
    checked = 0
    while checked < 40:
        rows = RowFamily(Z2C2, tuple(
            tuple(rng.choice(pool) for _ in range(2)) for _ in range(2)))
        if certify_row_independence(rows) is None:
            continue
        checked += 1
        assert find_annihilating_combination(rows) is None


def _det(A):
    """sympy's determinant (Bareiss by default), independent of groupeq."""
    from sympy import Matrix
    return int(Matrix(A).det())


def _minor_det(cert):
    assert len(cert.pivot_columns) == len(cert.augmented)
    return _det([[row[j] for j in cert.pivot_columns] for row in cert.augmented])


def test_certificates_recheck_by_bareiss():
    pytest.importorskip("sympy")
    rng = random.Random(23)
    certified = 0
    for spec in (Z2C2, Z2C4, Z3C3):
        p = spec.p
        pool = list(all_elements(spec))
        for _ in range(60):
            n, k = rng.randint(1, 3), rng.randint(1, 4)
            M = AlgebraMatrix(spec, tuple(
                tuple(rng.choice(pool) for _ in range(n)) for _ in range(n)))
            aug = augmentation_matrix(M)
            cert = certify_non_zero_divisor(M)
            assert (cert is None) == (_det(aug) % p == 0)
            if cert is not None:
                assert cert.minor_det == _det(aug) % p
            fam = RowFamily(spec, tuple(
                tuple(rng.choice(pool) for _ in range(k)) for _ in range(n)))
            cert = certify_row_independence(fam)
            if cert is not None:
                certified += 1
                assert _minor_det(cert) % p == cert.minor_det != 0
    free = IntegralGroupSpec((), 1)
    for _ in range(60):
        n, k = rng.randint(1, 3), rng.randint(1, 4)
        fam = RowFamily(free, tuple(tuple(
            AlgebraElement(free, [(((), (rng.randint(-2, 2),)), rng.randint(-3, 3))
                                  for _ in range(2)])
            for _ in range(k)) for _ in range(n)))
        cert = certify_row_independence(fam)
        if cert is not None:
            certified += 1
            assert _minor_det(cert) == cert.minor_det != 0
    assert certified > 60


def test_rational_certification():
    free = IntegralGroupSpec((), 1)
    t = AlgebraElement.monomial(free, (), (1,))
    one_z = AlgebraElement.one(free)
    two = AlgebraElement.scalar(free, 2)
    zero = AlgebraElement.zero(free)
    assert certify_row_independence(
        RowFamily(free, ((one_z, zero), (zero, one_z)))) is not None
    assert certify_row_independence(
        RowFamily(free, ((one_z + t, two), (t, one_z)))) is None
    assert certify_row_independence(
        RowFamily(free, ((one_z - t,),))) is None
    assert certify_row_independence(
        RowFamily(free, ((t,),))) is not None
    with pytest.raises(ValidationError):
        certify_row_independence(
            RowFamily(IntegralGroupSpec((2,), 0),
                      ((AlgebraElement.one(IntegralGroupSpec((2,), 0)),),)))


def test_spec_mismatch_raises():
    with pytest.raises(ValidationError):
        one(Z2C2) + one(Z2C4)
    with pytest.raises(ValidationError):
        one(Z2C2) * one(Z3C3)


def test_laurent_monomials_do_not_truncate():
    spec = AbelianGroupSpec(2, (), free_rank=1)
    t = AlgebraElement.monomial(spec, (), (1,))
    tinv = AlgebraElement.monomial(spec, (), (-1,))
    assert t * tinv == AlgebraElement.one(spec)
    big = t ** 5
    assert list(big.terms)[0][0][1] == (5,)


def test_text_format_roundtrip():
    spec = AbelianGroupSpec(3, (1, 2), 1)
    for text in ("1 + x1^2*t1^-1 - 2*x2", "0", "x1*x2^3", "2", "-1 + x1"):
        e = parse_element(spec, text)
        assert parse_element(spec, format_element(e)) == e
    # signs in a row multiply: format_element writes '+ -1*x' for -x
    z5c5 = AbelianGroupSpec(5, (1,))
    assert parse_element(z5c5, "1 - -1*x1") == parse_element(z5c5, "1 + x1")
    assert parse_element(z5c5, "1 - + x1") == parse_element(z5c5, "1 - x1")
    assert parse_element(z5c5, "- -x1 + - - 2") == parse_element(z5c5, "x1 + 2")
    integral = IntegralGroupSpec((3,), 1)
    for text in ("1 - x1 - 2*t1^-1", "-3*x1^2*t1 + -1", "-x1 - -x1^2"):
        e = parse_element(integral, text)
        assert parse_element(integral, format_element(e)) == e
    assert format_element(parse_element(integral, "1 - x1")) == "1 + -1*x1"
    fam = parse_row_file(
        "algebra p=2 torsion=1 free=0\nrow: 1 ; 0\nrow: x1 ; 1\n")
    assert len(fam.rows) == 2
    assert parse_row_file(format_row_file(fam)).rows == fam.rows
    spec2 = parse_algebra_header("algebra rational free=2")
    assert isinstance(spec2, IntegralGroupSpec) and spec2.free_rank == 2


def test_text_format_errors():
    with pytest.raises(ParseError):
        parse_algebra_header("algebra torsion=1")
    with pytest.raises(ParseError):
        parse_element(Z2C2, "x2")
    with pytest.raises(ParseError):
        parse_element(Z2C2, "t1")
    with pytest.raises(ParseError):
        parse_row_file("row: 1\n")
    # a sign needs a term after it; a text with no term at all is empty
    for text in ("1 -", "1 +", "x1 - -", "1 + x1 -"):
        with pytest.raises(ParseError, match="sign with no term after it"):
            parse_element(Z2C2, text)
    for text in ("-", "+ -", "- + -"):
        with pytest.raises(ParseError, match="empty element"):
            parse_element(Z2C2, text)


# -- the row oracle against exhaustive search ---------------------------------

ORACLE_SPECS = (AbelianGroupSpec(2, ()), Z2C2, Z2C4, Z3C3,
                AbelianGroupSpec(2, (1, 1)), AbelianGroupSpec(5, ()))


def _exhaustive_annihilator(fam):
    """The first nonzero coefficient tuple c with sum c_i * row_i = 0 in
    lexicographic order over `all_elements`, or None."""
    pool = list(all_elements(fam.spec))
    zero = AlgebraElement.zero(fam.spec)
    for combo in itertools.product(pool, repeat=len(fam.rows)):
        if any(not c.is_zero() for c in combo) and all(
                sum((c * row[j] for c, row in zip(combo, fam.rows)), zero).is_zero()
                for j in range(fam.ncols)):
            return combo
    return None


def _random_family(rng, spec, k, width):
    pool = list(all_elements(spec))
    return RowFamily(spec, tuple(tuple(rng.choice(pool) for _ in range(width))
                                 for _ in range(k)))


def test_annihilator_oracle_matches_exhaustive_search():
    rng = random.Random(8)
    refuted = decided = 0
    for spec in ORACLE_SPECS:
        for _ in range(12):
            # keep p^(monomials * k) small enough for the reference scan
            k = rng.randint(1, 2 if spec is Z3C3 else 3)
            fam = _random_family(rng, spec, k, rng.randint(1, 3))
            witness = find_annihilating_combination(fam)
            assert (witness is None) == (_exhaustive_annihilator(fam) is None)
            decided += 1
            if witness is not None:
                refuted += 1
                assert len(witness) == k and any(not c.is_zero() for c in witness)
                product = AlgebraMatrix(spec, (witness,)) * fam
                assert product.is_zero()
            # Z_p[P] is local: augmentation independence is exact
            assert (certify_row_independence(fam) is None) == (witness is not None)
    assert decided == 72 and 10 < refuted < 62


def test_annihilator_oracle_on_families_of_any_shape():
    rng = random.Random(9)
    for spec in ORACLE_SPECS:
        for k, width in ((1, 1), (2, 1), (1, 3), (4, 2), (3, 0)):
            fam = _random_family(rng, spec, k, width)
            witness = find_annihilating_combination(fam)
            assert (certify_row_independence(fam) is None) == (witness is not None)
            if witness is not None:
                assert (AlgebraMatrix(spec, (witness,)) * fam).is_zero()
    assert find_annihilating_combination(RowFamily(Z2C2, ())) is None


def test_annihilator_oracle_cap_bounds_the_augmented_matrix():
    # 2 rows of width 3 over Z_2[C2]: (2*2) x ((3+2)*2) = 40 entries
    fam = RowFamily(Z2C2, ((one(Z2C2), x(Z2C2), one(Z2C2)),
                           (x(Z2C2), one(Z2C2), x(Z2C2))))
    assert find_annihilating_combination(fam, work_cap=40) is not None
    assert decide_row_independence(fam, 40)[0] == "refuted"
    with pytest.raises(ValidationError):
        find_annihilating_combination(fam, work_cap=39)
    assert decide_row_independence(fam, 39)[0] == "unknown"
    huge = RowFamily(AbelianGroupSpec(2, (40,)),
                     ((AlgebraElement.zero(AbelianGroupSpec(2, (40,))),),))
    with pytest.raises(ValidationError):
        find_annihilating_combination(huge)


def _coordinates(e, monos):
    coeffs = dict(e.terms)
    return [coeffs.get(m, 0) for m in monos]


@pytest.mark.parametrize("shape,side,zero_divisor", [
    ((1, 3), "left", True), ((1, 3), "right", False),
    ((3, 1), "left", False), ((3, 1), "right", True),
    ((2, 2), "left", False), ((2, 2), "right", False)])
def test_regular_representation_of_any_shape(shape, side, zero_divisor):
    spec = Z2C2
    e1, ex = one(spec), x(spec)
    entries = {(1, 3): ((e1, ex, e1 + ex),), (3, 1): ((e1,), (ex,), (e1 + ex,)),
               (2, 2): ((e1, e1 + ex), (AlgebraElement.zero(spec), ex))}[shape]
    M = AlgebraMatrix(spec, entries)
    monos = [((i,), ()) for i in range(2)]
    nrows, ncols = shape
    op = regular_representation(M, side)
    dom, cod = (ncols, nrows) if side == "left" else (nrows, ncols)
    assert len(op) == cod * 2 and all(len(r) == dom * 2 for r in op)
    zero = AlgebraElement.zero(spec)
    for slot in range(dom):
        for mi, mono in enumerate(monos):
            basis = [zero] * dom
            basis[slot] = AlgebraElement(spec, [(mono, 1)])
            if side == "left":
                image = (M * AlgebraMatrix(spec, tuple((b,) for b in basis))).entries
                image = [row[0] for row in image]
            else:
                image = (AlgebraMatrix(spec, (tuple(basis),)) * M).entries[0]
            expected = [c for e in image for c in _coordinates(e, monos)]
            assert [row[slot * 2 + mi] for row in op] == expected
    assert (rank_mod_p(op, 2) < dom * 2) == zero_divisor == is_zero_divisor(M, side)


def test_row_verdict_is_unknown_only_when_the_oracle_cannot_run(monkeypatch):
    # a free part or a matrix over the cap gives 'unknown' before any search
    free = AbelianGroupSpec(2, (1,), 1)
    t_plus_one = one(free) + AlgebraElement.monomial(free, (), (1,))
    assert decide_row_independence(RowFamily(free, ((t_plus_one,),)))[0] == "unknown"
    fam = RowFamily(Z2C2, ((one(Z2C2), one(Z2C2)), (x(Z2C2), x(Z2C2))))
    assert decide_row_independence(fam, work_cap=31)[0] == "unknown"
    assert decide_row_independence(fam, work_cap=32)[0] == "refuted"
    # an annihilator that fails its re-verification is a fault, not 'unknown'
    monkeypatch.setattr(AlgebraMatrix, "is_zero", lambda self: False)
    with pytest.raises(ValidationError, match="internal error"):
        decide_row_independence(fam)
