import itertools
import math
import random
import re
import textwrap

import pytest
from conftest import run_python
from make_catalog import (affine_group_over_prime_field, cyclic_action, dicyclic, dihedral,
                          format_group_file, quaternion_group, semidirect_product)

from groupeq import groups
from groupeq.catalog import bundled_catalog_dir
from groupeq.config import Config
from groupeq.errors import CapExceeded, ParseError, ValidationError
from groupeq.groups import (FiniteGroup, Homomorphism, Subgroup, _close,
                            abelian_p_basis, all_subgroups, automorphisms, center,
                            closure, commutator_subgroup, cyclic, derived_series,
                            direct_product, from_generators, is_metabelian,
                            is_nilpotent, isomorphic, load_group, load_group_file,
                            lower_central_series, normal_subgroups,
                            is_prime, parse_cycles, perm_compose, prime_factors, quotient,
                            subgroup, sylow_subgroup, trivial_group)
from groupeq.wreath import WreathGroup

# a 6x6 loop: identity, Latin, two-sided inverses, but (2*2)*4 != 2*(2*4)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


def test_trivial_group_from_file():
    G = load_group("group T order 1\ntable:\n0\n")
    assert G.order == 1 and G.names == ("1",)


def test_nonassociative_table_is_rejected_naming_a_triple():
    table_text = "group L order 6\ntable:\n" + "\n".join(
        " ".join(map(str, row)) for row in NONASSOC_LOOP)
    with pytest.raises(ValidationError, match="associativity"):
        load_group(table_text)


def _first_nonassociative_triple(G):
    t, n = G.table, G.order
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return a, b, c
    return None


def _intercalate_switches(rng, count):
    """Catalog tables with one 2x2 Latin subsquare x y / y x, off the
    identity row and column, switched to y x / x y. Only tables the
    constructor accepts are kept; intercalates need an involution, so
    only even orders are drawn."""
    files = [f for f in sorted(bundled_catalog_dir().glob("*.grp"))
             if int(f.name.split("_")[0]) % 2 == 0]
    out = []
    while len(out) < count:
        G = load_group_file(rng.choice(files))
        t = [list(row) for row in G.table]
        for _ in range(50):
            r1, r2, c1 = (rng.randrange(1, G.order) for _ in range(3))
            x, y = t[r1][c1], t[r2][c1]
            c2 = t[r1].index(y)
            if r1 != r2 and c2 != 0 and t[r2][c2] == x:
                t[r1][c1], t[r1][c2], t[r2][c1], t[r2][c2] = y, x, x, y
                try:
                    out.append(FiniteGroup(t, G.names))
                except ValidationError:
                    pass
                break
    return out


def test_validate_names_the_row_major_first_failing_triple():
    tables = [FiniteGroup(NONASSOC_LOOP)] + _intercalate_switches(random.Random(7), 40)
    failing = 0
    for G in tables:
        triple = _first_nonassociative_triple(G)
        if triple is None:
            G.validate()
            continue
        failing += 1
        a, b, c = (G.names[i] for i in triple)
        with pytest.raises(ValidationError) as exc:
            G.validate()
        assert str(exc.value) == f"associativity fails at triple ({a!r}, {b!r}, {c!r})"
    assert failing >= 30


def _associative(G):
    """(a*b)*c == a*(b*c) for every triple, a row of c at a time."""
    t = G.table
    return all(t[ab] == tuple(row_a[bc] for bc in t[b])
               for row_a in t for b, ab in enumerate(row_a))


def _validates(G):
    try:
        G.validate()
    except ValidationError:
        return False
    return True


def test_validate_accepts_exactly_the_associative_tables():
    loaded = [load_group_file(path) for path in sorted(bundled_catalog_dir().glob("*.grp"))]
    tables = ([FiniteGroup(NONASSOC_LOOP)] + _intercalate_switches(random.Random(7), 40)
              + [FiniteGroup(G.table, G.names, name=G.name) for G in loaded])
    for G in tables:
        assert _validates(G) == _associative(G), G.name
    assert sum(map(_validates, tables)) == len(loaded)


def test_validate_falls_back_to_all_pairs_when_generators_do_not_reach():
    for G in (FiniteGroup(NONASSOC_LOOP), dihedral(5), quaternion_group()):
        want = _first_nonassociative_triple(G)
        G.__dict__["_generators"] = ()          # reaches only the identity
        if want is None:
            G.validate()
            continue
        a, b, c = (G.names[i] for i in want)
        with pytest.raises(ValidationError, match=re.escape(f"({a!r}, {b!r}, {c!r})")):
            G.validate()


def test_validating_f42_builds_one_gatherer_per_generator(monkeypatch):
    import groupeq.groups as groups
    text = (bundled_catalog_dir() / "042_f42.grp").read_text(encoding="utf-8")
    built = []
    real = groups.itemgetter
    monkeypatch.setattr(groups, "itemgetter", lambda *idx: built.append(idx) or real(*idx))
    G = load_group(text)
    assert G.order == 42 and 0 < len(built) <= len(G._generators) == 2


def test_duplicate_names_are_refused_when_they_are_built():
    with pytest.raises(ValidationError, match="^element names are not unique$"):
        FiniteGroup(cyclic(3).table, ["1", "a", "a"])
    G = FiniteGroup(cyclic(3).table, lambda: ["1", "a", "a"])
    assert G.order == 3
    for _ in range(2):
        with pytest.raises(ValidationError, match="^element names are not unique$"):
            G.names


def test_audit_and_classification_build_no_element_names(monkeypatch):
    import groupeq.groups as groups
    from groupeq.verifiers import audit_catalog, classify_group

    def refuse(perm):
        raise AssertionError("element names were built")
    monkeypatch.setattr(groups, "cycles_str", refuse)
    report = audit_catalog(bundled_catalog_dir())
    assert len(report.entries) == 109 and not any(e.error for e in report.entries)
    assert report.all_witnessed and report.counts_ok and report.pairwise_distinct
    for path in sorted(bundled_catalog_dir().glob("*.grp")):
        classify_group(load_group_file(path))
    with pytest.raises(AssertionError, match="element names were built"):
        load_group_file(bundled_catalog_dir() / "006_s3.grp").names


def test_engine_subgroups_are_never_rechecked(monkeypatch):
    # only subgroup() checks closure; every engine constructor hands over
    # the bitset it grew, and Subgroup itself checks nothing
    import groupeq.groups as groups
    from groupeq.verifiers import audit_catalog

    def refuse(G, elements):
        raise AssertionError("an engine subgroup was re-checked")
    monkeypatch.setattr(groups, "subgroup", refuse)
    report = audit_catalog(bundled_catalog_dir())
    assert len(report.entries) == 109 and not any(e.error for e in report.entries)
    for path in sorted(bundled_catalog_dir().glob("*.grp")):
        G = load_group_file(path)
        assert all_subgroups(G) and derived_series(G) and lower_central_series(G)
        assert center(G).order >= 1
        for p in prime_factors(G.order):
            assert G.order % sylow_subgroup(G, p).order == 0
        for N in normal_subgroups(G):
            Q, proj = quotient(G, N)
            kernel = tuple(a for a, x in enumerate(proj.image) if x == 0)
            assert kernel == N.elements and Q.order * N.order == G.order
    assert Subgroup(cyclic(4), 0b0010).order == 1       # taken as given
    with pytest.raises(AssertionError, match="re-checked"):
        groups.subgroup(cyclic(2), [0, 1])


def test_checked_and_engine_subgroups_are_equal():
    # == and hash see only (parent, bits), whether or not .elements was
    # read on one side, for every subgroup of S4 and both constructors
    G = load_group_file(bundled_catalog_dir() / "024_s4.grp")
    subs = all_subgroups(G)
    assert len(subs) == 30
    for S in subs:
        for read in ("checked", "engine", "neither"):
            checked = subgroup(G, reversed(S.elements))
            engine = Subgroup(G, _close(G, 1, S.elements))
            if read == "checked":
                assert checked.elements == S.elements
            elif read == "engine":
                assert engine.elements == S.elements
            assert checked == engine == S and hash(checked) == hash(engine) == hash(S)
            assert len({checked, engine, S}) == 1
    assert subgroup(G, [0]) == center(G) != Subgroup(G, 0b11)


def test_light_checks_reject_broken_tables():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])           # not Latin
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 2, 1], [2, 1, 0], [1, 0, 2]])   # Latin, no identity
    # C2 with its identity at index 1 loads under the default names
    assert FiniteGroup([[1, 0], [0, 1]], None).names == ("1", "g0")
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 0]], ["1", "1"])   # duplicate names


def test_default_names_follow_the_file_index():
    # the identity sits at file index 2: its default name g2 becomes "1"
    G = load_group("group X order 3\ntable:\n1 2 0\n2 0 1\n0 1 2\n")
    assert G.names == ("1", "g1", "g0")
    assert load_group("group C3 order 3\ntable:\n0 1 2\n1 2 0\n2 0 1\n").names == \
        ("1", "g1", "g2")


def test_identity_normalization():
    # identity sits at index 1 here; construction must move it to 0
    table = [[1, 0, 2], [0, 1, 2], [2, 2, 0]]   # broken beyond identity, use C3 relabeled
    c3 = cyclic(3)
    perm = [2, 0, 1]   # new index -> old index
    relabeled = [[perm.index(c3.table[perm[a]][perm[b]]) for b in range(3)]
                 for a in range(3)]
    G = FiniteGroup(relabeled, ["a", "b", "c"])
    assert G.table[0] == (0, 1, 2)
    assert G.names[0] == "1" or G.names[0] == "b"


def test_s3_from_generators():
    G = from_generators(["(1 2)", "(1 2 3)"], name="S3")
    assert G.order == 6
    G.validate()
    subs = all_subgroups(G)
    assert len(subs) == 6
    norms = normal_subgroups(G)
    assert len(norms) == 3
    assert sorted(S.order for S in norms) == [1, 3, 6]


def test_from_generators_trivial_and_c2():
    assert from_generators([]).order == 1
    assert from_generators(["(1 2)"]).order == 2


def test_affine_group_orders():
    assert affine_group_over_prime_field(2).order == 2
    G3 = affine_group_over_prime_field(3)
    assert G3.order == 6
    assert isomorphic(G3, dihedral(3)) is not None
    assert affine_group_over_prime_field(7).order == 42
    with pytest.raises(ValidationError):
        affine_group_over_prime_field(6)


def test_affine7_matches_semidirect_construction():
    aff = affine_group_over_prime_field(7)
    sd = semidirect_product(cyclic(7), cyclic(6),
                            cyclic_action(cyclic(6),
                                          tuple((3 * x) % 7 for x in range(7))))
    assert isomorphic(aff, sd) is not None


def test_affine7_normal_subgroup_orders():
    aff = affine_group_over_prime_field(7)
    assert sorted(S.order for S in normal_subgroups(aff)) == [1, 7, 14, 21, 42]


def test_direct_product_c2_c3_is_c6():
    assert isomorphic(direct_product(cyclic(2), cyclic(3)), cyclic(6)) is not None


def test_cyclic_subgroup_count_prime():
    for p in (2, 3, 5, 7):
        assert len(all_subgroups(cyclic(p))) == 2


def test_semidirect_rejects_non_automorphism():
    with pytest.raises(ValidationError):
        semidirect_product(cyclic(3), cyclic(2),
                           {0: (0, 1, 2), 1: (0, 0, 0)})
    with pytest.raises(ValidationError):
        # inversion twice is not trivial, so this map is no homomorphism
        semidirect_product(cyclic(5), cyclic(4),
                           {0: (0, 1, 2, 3, 4), 1: (0, 4, 3, 2, 1),
                            2: (0, 4, 3, 2, 1), 3: (0, 1, 2, 3, 4)})


def test_derived_series_and_predicates():
    s3 = dihedral(3)
    assert [S.order for S in derived_series(s3)] == [6, 3, 1]
    assert is_metabelian(s3) and not s3.is_abelian
    assert not is_nilpotent(s3)
    aff = affine_group_over_prime_field(7)
    assert commutator_subgroup(aff).order == 7
    assert is_metabelian(aff) and not is_nilpotent(aff)
    for n in (1, 2, 6, 12):
        G = cyclic(n)
        assert G.is_abelian and is_metabelian(G) and is_nilpotent(G)
    assert is_nilpotent(quaternion_group())


def test_commutator_subgroup_contained_in_abelian_quotient_kernels():
    for G in (dihedral(6), affine_group_over_prime_field(5), dicyclic(3)):
        Gp = commutator_subgroup(G)
        for N in normal_subgroups(G):
            Q, _ = quotient(G, N)
            if Q.is_abelian:
                assert set(Gp.elements) <= set(N.elements)


def test_quotients():
    s3 = dihedral(3)
    A3 = subgroup(s3, closure(s3, [e for e in s3.elements()
                                   if s3.element_order(e) == 3][:1]))
    Q, proj = quotient(s3, A3)
    assert Q.order == 2
    assert set(proj.image) == set(Q.elements())
    assert tuple(a for a, x in enumerate(proj.image) if x == 0) == A3.elements
    aff = affine_group_over_prime_field(7)
    C7 = [S for S in normal_subgroups(aff) if S.order == 7][0]
    Q7, _ = quotient(aff, C7)
    assert isomorphic(Q7, cyclic(6)) is not None
    triv = subgroup(s3, closure(s3, []))
    Qt, _ = quotient(s3, triv)
    assert isomorphic(Qt, s3) is not None
    with pytest.raises(ValidationError):
        non_normal = [S for S in all_subgroups(s3)
                      if S.order == 2][0]
        quotient(s3, non_normal)


def test_sylow_subgroups():
    for G, p, want in [(dihedral(6), 2, 4), (dihedral(6), 3, 3),
                       (affine_group_over_prime_field(7), 7, 7),
                       (affine_group_over_prime_field(7), 2, 2),
                       (affine_group_over_prime_field(7), 3, 3),
                       (dicyclic(6), 2, 8)]:
        assert sylow_subgroup(G, p).order == want
    with pytest.raises(ValidationError):
        sylow_subgroup(cyclic(6), 5)


NON_PRIME_P = textwrap.dedent("""
    import sys
    from groupeq.errors import ValidationError
    from groupeq.groups import abelian_p_basis, cyclic, sylow_subgroup
    p = int(sys.argv[1])
    for call in (lambda: abelian_p_basis(cyclic(4), p), lambda: sylow_subgroup(cyclic(12), p)):
        try:
            call()
        except ValidationError as exc:
            assert str(exc) == f"{p} is not prime", exc
        else:
            raise SystemExit(f"p = {p} was accepted")
""")


@pytest.mark.parametrize("p", [0, 1, 4, 6])
def test_non_prime_p_is_refused(p):
    # p_split(n, 1) never returns, so each p runs in a child under a timeout
    proc = run_python(NON_PRIME_P, str(p), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_isomorphic_basics():
    c4, v4 = cyclic(4), direct_product(cyclic(2), cyclic(2))
    assert isomorphic(c4, v4) is None
    hom = isomorphic(c4, c4)
    assert hom is not None and hom.is_injective()
    # symmetry on a sampled pair
    d6, c12 = dihedral(6), cyclic(12)
    assert (isomorphic(d6, c12) is None) == (isomorphic(c12, d6) is None)
    assert len(automorphisms(direct_product(cyclic(2), cyclic(2)))) == 6


def test_iso_cap():
    with pytest.raises(CapExceeded):
        isomorphic(cyclic(200), cyclic(200), Config(iso_order_cap=128))


def test_subgroup_enumeration_cap():
    with pytest.raises(CapExceeded):
        all_subgroups(cyclic(16), Config(subgroup_order_cap=8))


def test_homomorphism_validation():
    c4 = cyclic(4)
    c2 = cyclic(2)
    proj = Homomorphism(c4, c2, (0, 1, 0, 1))
    assert proj.image.count(0) == 2
    # the first failing pair in row-major order is named, for a Cayley-table
    # target and for a packed wreath product alike
    with pytest.raises(ValidationError, match=r"not multiplicative at \('g', 'g'\)"):
        Homomorphism(c4, c2, (0, 1, 1, 0))
    W = WreathGroup(c2, c2)
    with pytest.raises(ValidationError, match=r"not multiplicative at \('g', 'g'\)"):
        Homomorphism(c4, W, (0, 1, 2, 3))
    rot = W.encode((1, 0), 1)               # an element of order 4 in C2 wr C2
    powers = (0, rot, W.mul(rot, rot), W.mul(rot, W.mul(rot, rot)))
    assert Homomorphism(c4, W, powers).is_injective()


def test_abelian_p_basis():
    G = direct_product(cyclic(2), cyclic(4))
    basis, coords = abelian_p_basis(G, 2)
    assert sorted(G.element_order(b) for b in basis) == [2, 4]
    assert len(coords) == 8
    with pytest.raises(ValidationError):
        abelian_p_basis(dihedral(4), 2)
    with pytest.raises(ValidationError):
        abelian_p_basis(cyclic(6), 2)
    assert abelian_p_basis(trivial_group(), 3) == ([], {0: ()})


def test_group_file_roundtrip():
    for G in (dihedral(4), dicyclic(3), affine_group_over_prime_field(5)):
        for style in ("generators", "table"):
            G2 = load_group(format_group_file(G, style))
            assert G2.order == G.order
            assert isomorphic(G, G2) is not None


def test_group_file_errors():
    with pytest.raises(ParseError):
        load_group("nonsense\n")
    with pytest.raises(ParseError):
        load_group("group X order 3\ntable:\n0 1\n")
    with pytest.raises(ParseError, match="line 4: table row has 3 entries, expected 2"):
        load_group("group X order 2\ntable:\n# rows\n0 1 1\n0\n")
    with pytest.raises(ParseError, match="table has 3 entries, expected 4"):
        load_group("group X order 2\ntable:\n0 1\n1\n")
    with pytest.raises(ParseError):
        load_group("group X order 4\ngenerators:\n(1 2)\n")  # order mismatch
    with pytest.raises(ParseError):
        parse_cycles("(1 2")
    with pytest.raises(ParseError):
        parse_cycles("(1 1)")


def test_parse_cycles_forms():
    assert parse_cycles("(1 2 3)(4 5)") == parse_cycles("(1,2,3)(4,5)")
    assert parse_cycles("()") == ()
    p = parse_cycles("(1 2)")
    assert perm_compose(p, p) == (0, 1)


def test_closure_and_random_axioms():
    rng = random.Random(0)
    for G in (dihedral(5), dicyclic(4), affine_group_over_prime_field(5)):
        for _ in range(200):
            a, b, c = (rng.randrange(G.order) for _ in range(3))
            assert G.mul(G.mul(a, b), c) == G.mul(a, G.mul(b, c))
            assert G.mul(a, G.inv(a)) == 0
        sub = closure(G, [1])
        assert len(G.elements()) % len(sub) == 0   # Lagrange


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(42) == [2, 3, 7]
    assert prime_factors(64) == [2]


def per_step_prime_factors(n, gcd=math.gcd):
    """prime_factors as it was written with one gcd per rho step."""
    out = []
    for p in itertools.chain([2], range(3, groups._TRIAL_BOUND, 2)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    todo, steps = [n] if n > 1 else [], groups._RHO_STEPS
    while todo:
        m = todo.pop()
        if m < groups._TRIAL_BOUND ** 2 or m < groups._MR_EXACT_BELOW and is_prime(m):
            out.append(m)
            continue
        x, y, c, i = 2, 2, 1, 1
        while steps:
            steps -= 1
            y = (y * y + c) % m
            g = gcd(x - y, m)
            if 1 < g < m:
                todo += [g, m // g]
                break
            if g == m:
                x, y, c, i = 2, 2, c + 1, 0
            elif i & (i - 1) == 0:
                x = y
            i += 1
    return sorted(set(out))


# the last invariant factor of the 64x64 matrix of random.Random(64), one
# randint(-3, 3) per entry row by row; its cofactor past 3 * 17 * 7566421
# outlasts the rho budget
SEEDED_64_FACTOR = 385760928275415452986526073472948171226659145241792352415024217


def test_prime_factors_batches_find_what_one_gcd_per_step_finds(monkeypatch):
    # every gcd past 1 of a batch is followed by the one of the step it
    # replays up to; those steps must take the same gcds, of the same x - y
    met = []

    def recording_gcd(a, b):
        g = math.gcd(a, b)
        if g > 1:
            met.append((a, b))
        return g

    monkeypatch.setattr(groups, "gcd", recording_gcd)
    rng = random.Random(33)

    def prime(digits):
        while not is_prime(p := rng.randrange(10 ** (digits - 1), 10 ** digits)):
            pass
        return p

    # rho's cycle closes mod 1031 * 1291 and 1033 * 1187 themselves, so c = 1 gives way to 2
    cases = [SEEDED_64_FACTOR, 2 ** 61 - 1, (10 ** 9 + 7) ** 2, 1031 * 1291, 1033 * 1187]
    for _ in range(16):         # about half of them spend the whole budget
        ps = [prime(rng.randint(3, 14)) for _ in range(rng.randint(1, 3))]
        cases.append(math.prod(p ** rng.choice((1, 2)) for p in ps))
    for n in cases:
        met.clear()
        got = prime_factors(n)
        batched, met[:] = met[:], []
        assert got == per_step_prime_factors(n, recording_gcd), n
        assert batched[1::2] == met and len(batched) == 2 * len(met), n


def test_prime_factors_takes_one_gcd_per_batch(monkeypatch):
    # the whole rho budget of 2^17 steps spent on one cofactor: 1,024 batches
    calls = []
    monkeypatch.setattr(groups, "gcd", lambda a, b: calls.append(1) or math.gcd(a, b))
    ps = prime_factors(SEEDED_64_FACTOR)
    assert ps == [3, 17, 7566421]
    cofactor = SEEDED_64_FACTOR
    for p in ps:
        while cofactor % p == 0:
            cofactor //= p
    assert cofactor > 1
    assert len(calls) <= 2048, len(calls)


def test_bundled_s3_and_affine7_examples():
    from groupeq.catalog import bundled_examples_dir
    from groupeq.groups import isomorphic, load_group_file
    from make_catalog import affine_group_over_prime_field, dihedral
    d = bundled_examples_dir()
    s3 = load_group_file(d / "s3.grp")
    assert s3.order == 6
    assert isomorphic(s3, dihedral(3)) is not None
    aff = load_group_file(d / "affine7.grp")
    assert aff.order == 42
    assert isomorphic(aff, affine_group_over_prime_field(7)) is not None


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from groupeq.groups import is_prime
    assert [n for n in range(10 ** 5) if is_prime(n)] == list(sympy.primerange(10 ** 5))
    assert not any(is_prime(n) for n in range(-50, 2))
    assert all(is_prime(n) == sympy.isprime(n) for n in range(-5, 5001))
    rng = random.Random(64)
    for _ in range(3000):
        n = rng.getrandbits(64) | 1
        assert is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to the first 7, 9 and 12 prime bases
    for n in (341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)
    assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))
    with pytest.raises(CapExceeded):
        is_prime(3_317_044_064_679_887_385_961_981)


def test_group_file_order_is_bounded_before_the_body_is_read():
    from groupeq.groups import MAX_TABLE_ORDER
    with pytest.raises(CapExceeded):
        load_group(f"group G order {MAX_TABLE_ORDER + 1}\ntable:\n")
    with pytest.raises(ParseError):      # at the cap the body is read and checked
        load_group(f"group G order {MAX_TABLE_ORDER}\ntable:\n0\n")


def _counting_basis(G, p):
    """Reference for `abelian_p_basis`: factor orders from counting elements
    of order dividing p^j, then a backtracking search for the first element
    of each order whose cyclic group meets the span so far trivially."""
    orders = {g: G.element_order(g) for g in G.elements()}
    exponent = max(orders.values())
    le = {1: 1}
    pj = p
    while pj <= exponent:
        le[pj] = sum(1 for o in orders.values() if pj % o == 0)
        pj *= p
    lam = []
    pj = p
    while pj <= exponent:
        ratio, j = le[pj] // le[pj // p], 0
        while ratio > 1:
            ratio //= p
            j += 1
        lam.append(j)
        pj *= p
    factor_orders = []
    for j, ge in enumerate(lam, start=1):
        factor_orders += [p ** j] * (ge - (lam[j] if j < len(lam) else 0))
    factor_orders.sort(reverse=True)
    basis = []

    def pick(i, span):
        if i == len(factor_orders):
            return span.bit_count() == G.order
        want, size = factor_orders[i], span.bit_count()
        for g in G.elements():
            if orders[g] != want or span >> g & 1:
                continue
            grown = _close(G, span, [g])
            if grown.bit_count() == size * want:
                basis.append(g)
                if pick(i + 1, grown):
                    return True
                basis.pop()
        return False

    assert pick(0, 1)
    return basis


def _relabel(G, rng):
    """G with its non-identity elements renumbered at random."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    table = [[0] * G.order for _ in G.elements()]
    for a in G.elements():
        for b in G.elements():
            table[perm[a]][perm[b]] = perm[G.table[a][b]]
    return FiniteGroup(table, None, name=f"{G.name}-relabelled")


def _cyclic_p_products(p, max_order):
    """C_{p^k1} x ... x C_{p^kl}, k1 >= ... >= kl, of order at most
    max_order, one per partition of the exponent, on mixed-radix indices."""
    def partitions(n, top):
        if n == 0:
            yield []
        for k in range(min(n, top), 0, -1):
            for rest in partitions(n - k, k):
                yield [k] + rest
    s = 1
    while p ** s <= max_order:
        for ks in partitions(s, s):
            radix = [p ** k for k in ks]
            vecs = list(itertools.product(*(range(r) for r in radix)))
            index = {v: i for i, v in enumerate(vecs)}
            table = [[index[tuple((x + y) % r for x, y, r in zip(u, v, radix))]
                      for v in vecs] for u in vecs]
            yield FiniteGroup(table, None, name="x".join(f"C{r}" for r in radix))
        s += 1


def test_abelian_p_basis_is_the_first_path_of_the_counting_search():
    groups = []
    for path in sorted(bundled_catalog_dir().glob("*.grp")):
        G = load_group_file(path)
        ps = prime_factors(G.order)
        if G.is_abelian and len(ps) == 1:
            groups.append((G, ps[0]))
    assert len(groups) == 18
    for p, max_order in ((2, 128), (3, 81), (5, 125)):
        groups += [(G, p) for G in _cyclic_p_products(p, max_order)]
    rng = random.Random(12)
    groups += [(_relabel(G, rng), p) for G, p in groups]
    for G, p in groups:
        basis, coords = abelian_p_basis(G, p)
        assert basis == _counting_basis(G, p), G.name
        # coords maps G one to one onto the vectors with 0 <= e_i < ord(b_i)
        orders = [G.element_order(b) for b in basis]
        assert sorted(coords) == list(G.elements()), G.name
        assert sorted(coords.values()) == list(itertools.product(*map(range, orders))), G.name
        for h, vec in coords.items():
            x = G.identity
            for b, e in zip(basis, vec):
                x = G.mul(x, G.power(b, e))
            assert x == h, G.name
    assert abelian_p_basis(trivial_group(), 2) == ([], {0: ()})
