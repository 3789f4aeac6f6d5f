import itertools
import math
import random
import textwrap

import pytest
from conftest import run_python

import groupeq.equations as equations
from make_catalog import dihedral

from groupeq.catalog import bundled_catalog_dir
from groupeq.equations import (EquationSystem, classify, classify_matrix,
                               det_int, echelon, evaluate_word, exponent_matrix,
                               parse_system,
                               rank_mod_p, satisfies, smith_normal_form,
                               solve_abelian_p_system)
from groupeq.errors import CapExceeded, ParseError, ValidationError
from groupeq.groups import (FiniteGroup, abelian_p_basis, cyclic, direct_product,
                            load_group_file, prime_factors)
from groupeq.words import COEFF, VAR, Letter, format_word

EXAMPLE0 = """
vars: x y z
coeffs: g1 g2 g3
eq: [x,y] x^2 g1 y^-3
eq: [y,z] z
eq: x g2 y g3 z
"""


def mat_mul(A, B):
    """The integer matrix product A * B."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("matrix shape mismatch")
    cols = len(B[0]) if B else 0
    return [[sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(cols)]
            for i in range(len(A))]


def det(A):
    """sympy's determinant, independent of groupeq."""
    from sympy import Matrix
    return int(Matrix(A).det())


def minors_gcd(A, k):
    g = 0
    rows, cols = len(A), len(A[0])
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            g = math.gcd(g, det([[A[i][j] for j in ci] for i in ri]))
    return g


def test_example_system_matrix_and_classification():
    s = parse_system(EXAMPLE0)
    E = exponent_matrix(s)
    assert E == [[2, -3, 0], [0, 0, 1], [1, 1, 1]]
    cls = classify(s)
    assert det_int(cls.smith) == -5
    assert cls.nonsingular and not cls.unimodular
    assert cls.singular_primes == (5,)
    assert cls.invariant_factors == (1, 1, 5)
    assert rank_mod_p(E, 5) == 2
    assert rank_mod_p(E, 2) == 3 and rank_mod_p(E, 3) == 3
    assert echelon(E).rank == 3


def test_empty_and_commutator_rows():
    s = parse_system("vars: x y\neq: x y x^-1 y^-1")
    assert exponent_matrix(s) == [[0, 0]]
    empty = parse_system("vars: x y\n")
    assert exponent_matrix(empty) == []
    cls = classify(empty)
    assert cls.unimodular and cls.nonsingular


def test_single_equation_classifications():
    s = parse_system("vars: x\neq: x^2")
    cls = classify(s)
    assert cls.nonsingular and cls.singular_primes == (2,) and not cls.unimodular
    dep = classify_matrix([[1, 1], [2, 2]])
    assert not dep.nonsingular and dep.singular_primes == "all"
    assert not dep.unimodular


def test_smith_trivial_cases():
    snf = smith_normal_form([[1, 0], [0, 1]])
    assert snf.D == [[1, 0], [0, 1]]
    z = smith_normal_form([[0, 0], [0, 0]])
    assert z.invariant_factors == ()
    assert z.D == [[0, 0], [0, 0]]


def test_smith_properties_random():
    pytest.importorskip("sympy")
    rng = random.Random(0)
    for _ in range(400):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(A)
        assert mat_mul(mat_mul(snf.U, A), snf.V) == snf.D
        assert abs(det(snf.U)) == 1
        assert abs(det(snf.V)) == 1
        assert snf.sign == det(snf.U) * det(snf.V)
        fs = snf.invariant_factors
        assert all(f > 0 for f in fs)
        assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
        if rows <= 4 and cols <= 4:
            prod = 1
            for k in range(1, min(rows, cols) + 1):
                g = minors_gcd(A, k)
                if k <= len(fs):
                    prod *= fs[k - 1]
                    assert g == prod
                else:
                    assert g == 0


# (A, U, D, V) for matrices whose diagonal after the main pivoting loop
# breaks the chain d_i | d_{i+1}, so the repair pass chooses part of U and
# V. U and V choose beta in `wreath-transform` whenever a system has more
# variables than equations, so they are pinned exactly, not only up to
# the properties above. The last two are diagonal and need the repair on
# two and three pairs; the one before them needs it twice.
SMITH_GOLDEN = [
    ([[6, -2], [-5, -6], [3, -2]],
     [[5, 1, -8], [11, 2, -16], [14, 3, -23]],
     [[1, 0], [0, 2], [0, 0]],
     [[1, 0], [4, -1]]),
    ([[2, 6], [-2, 3]],
     [[-3, 1], [-7, 2]],
     [[1, 0], [0, 18]],
     [[-2, 15], [1, -8]]),
    ([[2, -1, 3], [-6, -3, -6], [0, -1, -5], [0, -2, -1]],
     [[-1, 0, 0, 0], [-4, -1, -1, 4], [-9, -2, -1, 8], [9, 3, 4, -11]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 6], [0, 0, 0]],
     [[0, -3, 5], [1, -3, 4], [0, 1, -2]]),
    ([[0, 2, 2], [5, -5, -4], [0, -3, -2]],
     [[3, 1, 0], [-9, -3, -1], [-23, -8, -2]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 10]],
     [[0, 1, -4], [1, 3, -10], [0, -4, 15]]),
    ([[6, 0, 4], [-4, 0, -3], [6, -5, 3]],
     [[0, -1, 0], [5, 7, -1], [11, 16, -2]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 10]],
     [[1, -3, 15], [0, 1, -4], [-1, 4, -20]]),
    ([[0, -5], [3, -3]],
     [[-1, -1], [-6, -5]],
     [[1, 0], [0, 15]],
     [[-3, 8], [-1, 3]]),
    ([[-6, -4, 0, 6], [-1, 6, 6, 3], [-3, -3, 6, 6]],
     [[0, -1, 0], [1, 3, -3], [3, 6, -8]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 12, 0]],
     [[1, -6, 15, 21], [0, -1, 3, 3], [0, 4, -12, -11], [0, -8, 23, 23]]),
    ([[6, -2, 6], [4, -4, -5]],
     [[2, -1], [5, -2]],
     [[1, 0, 0], [0, 2, 0]],
     [[-2, 0, 17], [-2, -1, 27], [1, 0, -8]]),
    ([[-6, -4, 5, 3], [-6, 3, -3, -5], [-4, 4, -5, 2]],
     [[0, 0, 1], [1, 1, 4], [6, 5, 6]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 5, 0]],
     [[0, -1, 0, 3], [0, -27, 2, 80], [1, -22, 2, 64], [3, -3, 1, 6]]),
    ([[0, 4, 2, -6], [3, 0, 0, 6], [4, -4, 0, 0]],
     [[0, -1, 1], [-1, -2, 2], [0, 4, -3]],
     [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 12, 0]],
     [[1, 0, 4, -2], [0, 0, 1, -2], [1, -1, -2, 7], [0, 0, 0, 1]]),
    ([[-5, -6, 6], [4, 2, 4]],
     [[1, 3], [2, 5]],
     [[1, 0, 0], [0, 2, 0]],
     [[-5, 0, 18], [7, -1, -22], [2, 0, -7]]),
    ([[6, 2, -4, 2], [5, 0, -5, -5], [-4, 0, 3, -6]],
     [[0, 1, 2], [2, -7, -13], [5, -16, -30]],
     [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 10, 0]],
     [[0, 1, -4, -9], [3, 2, -7, 6], [1, 3, -12, -10], [0, 0, 0, 1]]),
    ([[2, 0, 0], [0, 4, 0], [0, 0, 3]],
     [[-1, 0, 1], [-3, -1, 2], [6, 3, -4]],
     [[1, 0, 0], [0, 2, 0], [0, 0, 12]],
     [[1, -3, -6], [0, 1, 3], [1, -2, -4]]),
    ([[4, 0, 0, 0], [0, 6, 0, 0], [0, 0, 9, 0]],
     [[-2, 1, -1], [-3, 1, -2], [9, -6, 4]],
     [[1, 0, 0, 0], [0, 6, 0, 0], [0, 0, 36, 0]],
     [[-2, 3, -9, 0], [-1, 1, -6, 0], [1, -2, 4, 0], [0, 0, 0, 1]]),
]


@pytest.mark.parametrize("A,U,D,V", SMITH_GOLDEN)
def test_smith_operations_are_pinned(A, U, D, V):
    snf = smith_normal_form(A)
    assert (snf.U, snf.D, snf.V) == (U, D, V)
    assert mat_mul(mat_mul(U, A), V) == D


def test_rank_errors():
    with pytest.raises(ValidationError):
        rank_mod_p([[1]], 4)


def test_smith_decomposition_matches_sympy():
    """Determinant, invariant factors, singular primes and p-verdicts, all read
    from one Smith form, against sympy on 0-8 x 0-8 matrices."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(25)
    kinds = {"square": 0, "dependent": 0, "non-square": 0, "empty": 0}
    for trial in range(360):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        if trial % 3 == 0:
            cols = rows
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and trial % 5 == 0:      # force a dependent row
            A[-1] = [2 * a - 3 * b for a, b in zip(A[0], A[1])]
        M = sympy.Matrix(rows, cols, [x for row in A for x in row])
        snf = smith_normal_form(A)
        cls = classify_matrix(A)
        assert (cls.smith.D, cls.smith.sign) == (snf.D, snf.sign)
        d = sympy_snf(M, domain=sympy.ZZ)
        expected = tuple(abs(int(d[i, i])) for i in range(min(rows, cols)) if d[i, i])
        assert snf.invariant_factors == expected
        if rows == cols:
            assert det_int(snf) == M.det()
        full = len(expected) == rows
        last = expected[-1] if expected else 1
        assert cls.singular_primes == (tuple(sorted(sympy.factorint(last))) if full else "all")
        assert cls.unimodular == (full and last == 1) and "not factored" not in cls.note
        for p in (2, 3, 5, 7, 11, 13, 17):
            rank = DomainMatrix.from_list(A, sympy.GF(p)).rank() if rows and cols else 0
            assert snf.p_nonsingular(p) == (rank == rows)
        kinds["square" if rows == cols else "non-square"] += 1
        kinds["dependent"] += not full
        kinds["empty"] += not (rows and cols)
    assert min(kinds.values()) >= 10, kinds
    for p in (0, 1, 4, -3):
        with pytest.raises(ValidationError, match=f"^{p} is not prime$"):
            snf.p_nonsingular(p)
        with pytest.raises(ValidationError, match=f"^{p} is not prime$"):
            equations.is_p_nonsingular(parse_system(EXAMPLE0), p)


def test_verdict_diagonal_matches_sympy_up_to_24x24():
    """The invariant factors and determinant the verdicts read, from the
    diagonalization that builds no U and V, against sympy on seeded square,
    non-square and rank-deficient matrices up to 24x24."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(24)
    kinds = {"square": 0, "non-square": 0, "deficient": 0}
    for trial in range(36):
        rows = rng.randint(12, 24)
        cols = rows if trial % 2 == 0 else rng.randint(12, 24)
        A = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if trial % 3 == 0:                  # force a dependent row
            A[-1] = [2 * a - 3 * b for a, b in zip(A[0], A[1])]
        cls = classify_matrix(A)
        assert cls.smith.U is None and cls.smith.V is None
        d = sympy_snf(sympy.Matrix(A), domain=sympy.ZZ)
        expected = tuple(abs(int(d[i, i])) for i in range(min(rows, cols)) if d[i, i])
        assert cls.invariant_factors == expected, A
        if rows == cols:
            assert det_int(cls.smith) == DomainMatrix.from_list(A, sympy.ZZ).det(), A
        kinds["square" if rows == cols else "non-square"] += 1
        kinds["deficient"] += len(expected) < min(rows, cols)
    assert min(kinds.values()) >= 10, kinds


def test_smith_of_no_rows_or_no_columns():
    """U is the identity and V is empty."""
    assert smith_normal_form([]) == equations.SmithDecomposition([], [], [], 1)
    for rows in (1, 2, 3):
        identity = [[int(i == j) for j in range(rows)] for i in range(rows)]
        assert smith_normal_form([[]] * rows) == equations.SmithDecomposition(
            identity, [[]] * rows, [], 1)
        assert classify_matrix([[]] * rows).singular_primes == "all"


def test_echelon_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rng = random.Random(17)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:   # force a dependent row
            A[-1] = [a + 2 * b for a, b in zip(A[0], A[-2])]
        M = sympy.Matrix(A)
        assert echelon(A).rank == M.rank()
        assert echelon(A).pivots == M.rref()[1]
        for p in (2, 3, 5, 7):
            Ap = DomainMatrix.from_list(A, sympy.GF(p))
            e = echelon(A, p)
            assert e.rank == Ap.rank() == rank_mod_p(A, p)
            assert e.pivots == Ap.rref()[1]


def test_system_file_binding_and_format():
    text = "vars: x\ncoeffs: g\nbind: @catalog/003_c3.grp g=#1\neq: x^2 = g\n"
    s = parse_system(text)
    assert s.binding is not None
    assert s.binding.group.order == 3
    assert [format_word(w) for w in s.words] == ["x^2 g^-1"]


def test_system_parse_errors():
    with pytest.raises(ParseError):
        parse_system("vars: x\nnonsense\n")
    with pytest.raises(ParseError):
        parse_system("vars: x\nbogus: 1\n")
    with pytest.raises(ParseError):
        parse_system("vars: x\nbind: @group g=x\neq: x\n")   # no group given


@pytest.mark.parametrize("elem", ["#-1", "#99", "#z"])
def test_bind_index_out_of_range(elem):
    with pytest.raises(ParseError):
        parse_system(f"vars: x\ncoeffs: a\nbind: @catalog/006_s3.grp a={elem}\n"
                     "eq: x a\n")


def test_evaluate_and_satisfies():
    c6 = cyclic(6)
    s = parse_system("vars: x\ncoeffs: g\neq: x^2 g").bind(c6, {"g": 2})
    assert evaluate_word(s.words[0], c6, {"g": 2}, {"x": 2}) == 0
    assert satisfies(s, {"x": 2})
    assert not satisfies(s, {"x": 1})


def brute_solutions(system, B):
    out = []
    values = system.binding.values
    nvars = len(system.variables)
    for combo in itertools.product(B.elements(), repeat=nvars):
        assign = dict(zip(system.variables, combo))
        if all(evaluate_word(wd, B, values, assign) == 0 for wd in system.words):
            out.append(assign)
    return out


def test_abelian_solver_in_group():
    s = parse_system("vars: x\ncoeffs: g\neq: x g").bind(cyclic(3), {"g": 1})
    sol = solve_abelian_p_system(s, 3)
    assert sol.lift_exponent == 0 and sol.group.order == 3
    assert sol.assignment["x"] == 2


def test_abelian_solver_needs_extension():
    # x^3 g over C9 at p=3: no solution in C9, one extra power of 3 suffices
    c9 = cyclic(9)
    s = parse_system("vars: x\ncoeffs: g\neq: x^3 g").bind(c9, {"g": 1})
    assert not brute_solutions(s, c9)
    sol = solve_abelian_p_system(s, 3)
    assert sol.lift_exponent == 1 and sol.group.order == 27
    lifted = s.bind(sol.group, {"g": sol.embedding(1)})
    oracle = brute_solutions(lifted, sol.group)
    assert {"x": sol.assignment["x"]} in oracle


def test_abelian_solver_two_equations_over_c2():
    c2 = cyclic(2)
    s = parse_system("vars: x y\ncoeffs: g\neq: x y\neq: x y^-1 g").bind(
        c2, {"g": 1})
    sol = solve_abelian_p_system(s, 2)
    lifted = s.bind(sol.group, {"g": sol.embedding(1)})
    assert satisfies(lifted, sol.assignment)
    # oracle agrees a solution exists at this extension level
    assert brute_solutions(lifted, sol.group)


def test_abelian_solver_p_nonsingular_stays_inside():
    B = direct_product(cyclic(2), cyclic(4))
    rng = random.Random(3)
    for _ in range(25):
        e = rng.choice([1, 3, 5])
        g = rng.randrange(B.order)
        s = parse_system(f"vars: x\ncoeffs: g\neq: x^{e} g").bind(B, {"g": g})
        sol = solve_abelian_p_system(s, 2)
        assert sol.lift_exponent == 0
        lifted = s.bind(sol.group, {"g": sol.embedding(g)})
        assert satisfies(lifted, sol.assignment)


NON_PRIME_BASIS = textwrap.dedent("""
    from groupeq.equations import parse_system, solve_abelian_p_system
    from groupeq.errors import ValidationError
    from groupeq.groups import cyclic
    G = cyclic(4)
    s = parse_system("vars: x\\ncoeffs: g\\neq: x^2 g").bind(G, {"g": 2})
    for p in (1, 0, 4):
        try:
            solve_abelian_p_system(s, p)
        except ValidationError as exc:
            assert str(exc) == f"{p} is not prime", exc
        else:
            raise SystemExit(f"p = {p} was accepted")
""")


def test_abelian_solver_refuses_non_prime_p_with_explicit_basis():
    # with p = 1 the lift-exponent loop never ends, so this runs in a child
    proc = run_python(NON_PRIME_BASIS, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_abelian_solver_rejects_singular_and_nonabelian():
    s = parse_system("vars: x\neq: x x^-1").bind(cyclic(2), {})
    with pytest.raises(ValidationError):
        solve_abelian_p_system(s, 2)
    s2 = parse_system("vars: x\neq: x").bind(dihedral(3), {})
    with pytest.raises(ValidationError):
        solve_abelian_p_system(s2, 3)


def test_echelon_returns_reduced_rows_in_pivot_order():
    rng = random.Random(18)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        for p in (None, 2, 5):
            e = echelon(A, p)
            assert len(e.rows) == rows
            assert e.rank == echelon(e.rows, p).rank
            for r, c in enumerate(e.pivots):
                assert e.rows[r][c] != 0 and not any(e.rows[r][:c])
                assert not any(row[c] for row in e.rows[r + 1:])
            assert not any(any(row) for row in e.rows[e.rank:])


def _solve_congruence(d, a, n):
    """Some z with d*z = a (mod n)."""
    g = math.gcd(d, n)
    assert a % g == 0, (d, a, n)
    return 0 if n == 1 else a // g * pow(d // g, -1, n // g) % (n // g)


def coordinate_solve(system, p):
    """Reference for `solve_abelian_p_system`: D*z = U*b solved one congruence
    per coordinate over the direct basis of B that `abelian_p_basis` gives,
    each cyclic factor grown by p^v. Returns the grown order, the image of
    B's elements (coordinates times p^v) and the assignment; over a grown
    group an element's index is its coordinate vector in mixed radix."""
    B, values = system.binding.group, system.binding.values
    basis, logs = abelian_p_basis(B, p)
    snf = smith_normal_form(exponent_matrix(system))
    last, v = (snf.invariant_factors or (1,))[-1], 0
    while last % p == 0:
        last, v = last // p, v + 1
    lift = p ** v
    orders = [B.element_order(b) * lift for b in basis]

    def element(vec):
        x = B.identity
        for b, o, e in zip(basis, orders, vec):
            x = x * o + e if v else B.mul(x, B.power(b, e))
        return x

    image = tuple(element([e * lift for e in logs[g]]) for g in B.elements())
    at_identity = dict.fromkeys(system.variables, 0)
    rhs = [[e * lift for e in logs[B.inv(evaluate_word(w, B, values, at_identity))]]
           for w in system.words]
    z = [[_solve_congruence(snf.D[j][j], x % n, n) for x, n in zip(row, orders)]
         for j, row in enumerate(mat_mul(snf.U, rhs))]
    z += [[0] * len(orders) for _ in range(len(system.variables) - len(z))]
    assignment = {var: element([x % n for x, n in zip(y, orders)])
                  for var, y in zip(system.variables, mat_mul(snf.V, z))}
    return math.prod(orders), image, assignment


def seeded_system(B, rng):
    """1-3 variables, as many or fewer equations, exponents in -4..4, each
    equation ending in a coefficient bound to a random element of B."""
    nvars = rng.randint(1, 3)
    variables = "xyz"[:nvars]
    rows = [[rng.randint(-4, 4) for _ in variables] for _ in range(rng.randint(1, nvars))]
    words = [" ".join(f"{v}^{k}" for v, k in zip(variables, row) if k) + f" g{j}"
             for j, row in enumerate(rows)]
    text = (f"vars: {' '.join(variables)}\ncoeffs: {' '.join(f'g{j}' for j in range(len(rows)))}\n"
            + "".join(f"eq: {w}\n" for w in words))
    return rows, parse_system(text).bind(B, {f"g{j}": rng.randrange(B.order)
                                             for j in range(len(rows))})


def test_abelian_solver_p_nonsingular_solves_in_b_itself(monkeypatch):
    """Every abelian p-group of the catalog up to order 16 and three more
    groups: a p-nonsingular system solves in B by powers alone, with the
    reference's assignment; one that needs a lift grows B as the reference
    does (grown orders past 256 are left out to keep the test fast)."""
    catalog = [load_group_file(path) for path in sorted(bundled_catalog_dir().glob("0*.grp"))
               if 1 < int(path.name[:3]) <= 16]
    groups = [(B, prime_factors(B.order)[0]) for B in catalog
              if B.is_abelian and len(prime_factors(B.order)) == 1]
    assert len(groups) == 18
    groups += [(direct_product(cyclic(2), cyclic(2)), 2), (direct_product(cyclic(4), cyclic(2)), 2),
               (direct_product(cyclic(3), cyclic(9)), 3)]
    rng = random.Random(19)
    lifted = []

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"a p-nonsingular solve called {name}")
        return call

    with monkeypatch.context() as m:
        for name in ("_direct_of_cyclics", "abelian_p_basis"):
            m.setattr(equations, name, refuse(name))
        solved = 0
        for B, p in groups:
            for _ in range(12):
                rows, s = seeded_system(B, rng)
                if len(smith_normal_form(rows).invariant_factors) < len(rows):
                    continue                    # singular over Q: no solver applies
                order, image, assignment = coordinate_solve(s, p)
                if rank_mod_p(rows, p) < len(rows):
                    lifted.append((s, p, order, image))
                    continue
                sol = solve_abelian_p_system(s, p)
                assert sol.group is B and sol.lift_exponent == 0
                assert sol.embedding.image == image == tuple(B.elements())
                assert sol.assignment == assignment
                assert satisfies(s, sol.assignment)
                solved += 1
    assert solved >= 150
    grown = [case for case in lifted if case[2] <= 256]
    assert len(grown) >= 50
    for s, p, order, image in grown:
        sol = solve_abelian_p_system(s, p)
        assert sol.lift_exponent > 0
        assert (sol.group.order, sol.embedding.image) == (order, image)
        coeffs = {c: sol.embedding(x) for c, x in s.binding.values.items()}
        assert satisfies(s.bind(sol.group, coeffs), sol.assignment)


def _count_constructions(monkeypatch) -> list:
    built = []
    init = FiniteGroup.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("name"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(FiniteGroup, "__init__", counting)
    return built


def test_abelian_solver_caps_the_grown_group_before_building_it(monkeypatch):
    s = parse_system("vars: x\ncoeffs: g\neq: x^8192 g").bind(cyclic(2), {"g": 1})
    built = _count_constructions(monkeypatch)
    with pytest.raises(CapExceeded, match="^grown group order 16384 exceeds the table cap 4096$"):
        solve_abelian_p_system(s, 2)
    assert built == []


def test_abelian_solver_builds_the_grown_group_once(monkeypatch):
    s = parse_system("vars: x\ncoeffs: g\neq: x^4 g").bind(cyclic(2), {"g": 1})
    built = _count_constructions(monkeypatch)
    sol = solve_abelian_p_system(s, 2)
    assert (sol.group.name, sol.group.order, sol.lift_exponent) == ("C2-ext", 8, 2)
    assert len(built) == 1


def test_system_reports_its_first_bad_letter():
    x, g = Letter(VAR, "x", 1), Letter(COEFF, "g", 1)
    undeclared, misused = Letter(COEFF, "q", 1), Letter(VAR, "g", -1)
    for word, message in (((x, g, x, undeclared, misused), "undeclared symbol 'q'"),
                          ((x, misused, g, undeclared), "symbol 'g' used as wrong kind")):
        with pytest.raises(ValidationError, match=message):
            EquationSystem(("x",), ("g",), (word[:2], word))
