import itertools
import random
import time

import pytest
from conftest import build_all
from make_catalog import affine_group_over_prime_field, dicyclic, dihedral, quaternion_group

from groupeq.algebra import AlgebraElement, IntegralGroupSpec
from groupeq.catalog import bundled_catalog_dir, resolve_data_path
from groupeq.config import Config
from groupeq.equations import (EquationSystem, compile_word, evaluate_compiled,
                               evaluate_word, parse_system, scan_solutions)
from groupeq.errors import CapExceeded, GroupEqError, ValidationError
from groupeq.groups import (MAX_TABLE_ORDER, FiniteGroup, closure, commutator_subgroup,
                            cyclic, direct_product, from_generators,
                            is_normal, isomorphic, load_group, load_group_file,
                            normal_subgroups, prime_factors, subgroup, trivial_group)
from groupeq.verifiers import (AuditEntry, CounterexampleInstance,
                               abelian_by_abelian_p_witness,
                               audit_catalog, brute_force_solve, classify_group,
                               counterexample_build, counterexample_equation,
                               counterexample_text, group_obstruction,
                               p_group_equation_check, pq_structure_check,
                               obstruction_check, obstruction_s_element,
                               random_unimodular_equation, verify_witness)
from groupeq.words import COEFF, VAR, Letter, exponent_sum, parse_word
from groupeq.wreath import WreathGroup


def build_a4():
    return dict(build_all((12,)))["A4"]


def test_a4_witness():
    w, examined = abelian_by_abelian_p_witness(build_a4())
    assert w is not None
    assert w.subgroup.order == 4 and w.prime == 3
    assert examined >= 1


def test_affine7_has_no_witness():
    aff = affine_group_over_prime_field(7)
    w, examined = abelian_by_abelian_p_witness(aff)
    assert w is None
    assert examined == 5          # certified over all normal subgroups


def test_abelian_groups_witness_themselves():
    for G, p in [(cyclic(6), 2), (cyclic(9), 3), (cyclic(1), 2)]:
        w, _ = abelian_by_abelian_p_witness(G)
        assert w.subgroup.order == G.order and w.prime == p
        assert verify_witness(G, w)


def test_abelian_groups_are_classified_without_the_lattice(monkeypatch):
    from groupeq import groups
    monkeypatch.setattr(groups, "_joins", lambda *args: pytest.fail("built the lattice"))
    G = cyclic(2)
    for _ in range(7):
        G = direct_product(G, cyclic(2))
    report = classify_group(G)                   # C2^8 has 417,199 subgroups
    assert (report.order, report.normals_examined) == (256, 1)
    assert report.witness.subgroup.order == 256 and report.witness.prime == 2
    assert "quotient is an abelian 2-group of order 1" in report.note
    monkeypatch.undo()
    with pytest.raises(CapExceeded, match="subgroup enumeration needs order <= 128, got 256"):
        classify_group(G, Config(subgroup_order_cap=128))      # the cap holds as before


def test_witness_reverification_catches_bad_pairs():
    from groupeq.verifiers import Witness
    s3 = dihedral(3)
    rot = [e for e in s3.elements() if s3.element_order(e) == 3][0]
    A3 = subgroup(s3, closure(s3, [rot]))
    assert verify_witness(s3, Witness(A3, 2))
    assert not verify_witness(s3, Witness(A3, 3))   # quotient C2, not a 3-group
    refl = [e for e in s3.elements() if s3.element_order(e) == 2][0]
    C2 = subgroup(s3, closure(s3, [refl]))
    assert not verify_witness(s3, Witness(C2, 3))   # not normal


def test_pq_structure():
    rep = pq_structure_check(dihedral(3))
    assert (rep.p, rep.q) == (2, 3)
    assert rep.witness.subgroup.order == 3 and rep.witness.prime == 2
    rep15 = pq_structure_check(cyclic(15))
    assert rep15.witness.subgroup.order == 5 and rep15.witness.prime == 3
    with pytest.raises(ValidationError):
        pq_structure_check(cyclic(8))
    with pytest.raises(ValidationError):
        pq_structure_check(cyclic(12))


def test_p_group_check_trivial_case():
    c3 = cyclic(3)
    s = parse_system("vars: x\ncoeffs: g\neq: x g").bind(c3, {"g": 1})
    res = brute_force_solve(s)
    assert res.solution == {"x": 2}


def test_p_group_check_dihedral_and_quaternion():
    for G, seed in [(dihedral(4), 0), (quaternion_group(), 1)]:
        rep = p_group_equation_check(G, trials=100, seed=seed)
        assert rep.all_solved, rep
    with pytest.raises(ValidationError):
        p_group_equation_check(cyclic(6))


def test_random_unimodular_equation_shape():
    rng = random.Random(5)
    G = dihedral(4)
    for _ in range(50):
        system = random_unimodular_equation(G, rng)
        assert abs(exponent_sum(system.words[0], "x")) == 1


def test_counterexample_build_2_3():
    inst = counterexample_build(2, 3)
    assert (inst.n, inst.m) == (2, -1)
    assert inst.n * 2 + inst.m * 3 == 1
    assert inst.order == 384 and inst.realized
    assert inst.classification.unimodular
    assert exponent_sum(inst.system.words[0], "x") == 1
    # the textual form parses to the same word
    text = counterexample_text(2, 3, inst.n, inst.m)
    parsed = parse_word(text, ["x"], ["a", "b", "c"])
    assert parsed == counterexample_equation(2, 3, inst.n, inst.m)


def test_counterexample_roles_swapped():
    inst = counterexample_build(3, 2)
    assert inst.n * 3 + inst.m * 2 == 1
    assert inst.classification.unimodular
    rep = obstruction_check(inst)
    assert rep.confirmed


def test_counterexample_rejects_bad_primes():
    with pytest.raises(ValidationError):
        counterexample_build(2, 2)
    with pytest.raises(ValidationError):
        counterexample_build(4, 3)


def test_counterexample_cap_and_symbolic():
    with pytest.raises(CapExceeded):
        counterexample_build(3, 7)      # order 2^21 * 21 is over wreath_order_cap
    inst = counterexample_build(2, 5, symbolic=True)
    rep = obstruction_check(inst)
    assert rep.ring_identity_holds
    assert rep.group_inequality_holds is None and rep.confirmed is None


def test_counterexample_keeps_its_group_in_the_binding():
    assert CounterexampleInstance._fields == ("p", "q", "n", "m", "system", "classification")
    symbolic = counterexample_build(2, 3, symbolic=True)
    assert not symbolic.realized and symbolic.system.binding is None
    inst = counterexample_build(2, 3)
    assert inst.realized and inst.system.binding.group.order == 384
    assert set(inst.system.binding.values) == {"a", "b", "c"}
    assert obstruction_check(inst).confirmed


def test_obstruction_2_3_confirmed():
    inst = counterexample_build(2, 3)
    rep = obstruction_check(inst)
    assert rep.ring_identity_holds
    assert not rep.s_is_zero
    assert rep.group_inequality_holds
    assert rep.confirmed
    # difference expands to the zero element exactly
    spec = IntegralGroupSpec((2, 3), 0)
    one = AlgebraElement.one(spec)
    a = AlgebraElement.monomial(spec, (1, 0))
    b = AlgebraElement.monomial(spec, (0, 1))
    S = obstruction_s_element(2, 3, inst.n, inst.m)
    assert (S * (one + a * b) - S * (a + b)).is_zero()


def test_obstruction_ring_identity_many_prime_pairs():
    for p, q in [(2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (5, 7), (2, 7)]:
        n = pow(p, -1, q)
        m = (1 - n * p) // q
        spec = IntegralGroupSpec((p, q), 0)
        one = AlgebraElement.one(spec)
        a = AlgebraElement.monomial(spec, (1, 0))
        b = AlgebraElement.monomial(spec, (0, 1))
        S = obstruction_s_element(p, q, n, m)
        assert (S * (one + a * b)) == (S * (a + b)), (p, q)
        assert not S.is_zero()


def test_obstruction_s_zero_is_flagged_anomalous():
    inst = counterexample_build(2, 3)
    forced = inst.replace(n=0, m=0)
    rep = obstruction_check(forced)
    assert rep.s_is_zero
    assert rep.ring_identity_holds          # trivially
    assert rep.group_inequality_holds       # group part still computed


def test_counterexample_equation_unsolvable_in_G_itself():
    # G is metabelian, so the equation cannot have a solution even in G
    inst = counterexample_build(2, 3)
    res = brute_force_solve(inst.system)
    assert res.solution is None and res.exhaustive
    assert res.searched == 384


def test_order_42_equation_over_f42_itself():
    # every triple (a, b, c) of F42 with a of order 2, b of order 3, ab = ba
    # and c of order 7: the hypotheses of group_obstruction hold (w lies in
    # the derived subgroup C7, abelian and normal), the two sides differ,
    # and the (2,3) equation bound to (a, b, c) has no solution in F42
    t0 = time.time()
    G = load_group_file(resolve_data_path("@catalog/042_f42.grp"))
    D = commutator_subgroup(G)
    assert D.order == 7 and D.is_abelian() and is_normal(G, D)
    equation = counterexample_build(2, 3, symbolic=True).system
    by_order = {k: [g for g in G.elements() if G.element_order(g) == k] for k in (2, 3, 7)}
    triples = [(a, b, c) for a in by_order[2] for b in by_order[3] for c in by_order[7]
               if G.mul(a, b) == G.mul(b, a)]
    assert len(triples) == 84
    for a, b, c in triples:
        w = G.mul(c, G.conj(c, G.mul(a, b)))
        assert w in D
        lhs, rhs = group_obstruction(G, a, b, c)
        assert lhs != rhs
        res = brute_force_solve(equation.bind(G, {"a": a, "b": b, "c": c}))
        assert res.solution is None and res.exhaustive and res.searched == 42
    assert time.time() - t0 < 1.0


# F(p, q, r) = C_r : C_pq with C_pq acting faithfully (pq divides r - 1): every
# such group of order at most 512, the default subgroup_order_cap
FROBENIUS_FAMILY = [(2, 3, r) for r in (7, 13, 19, 31, 37, 43, 61, 67, 73, 79)] + [
    (2, 5, 11), (2, 5, 31), (2, 5, 41), (2, 7, 29), (2, 11, 23), (3, 5, 31)]


def frobenius_group(p: int, q: int, r: int) -> FiniteGroup:
    """The maps x -> m*x + b over Z_r, for m of multiplicative order pq."""
    m = next(m for m in range(2, r)
             if min(k for k in range(1, r) if pow(m, k, r) == 1) == p * q)
    shift = [(x + 1) % r for x in range(r)]
    scale = [m * x % r for x in range(r)]
    return from_generators([shift, scale], name=f"C{r}:C{p * q}")


def test_order_42_obstruction_on_the_frobenius_family():
    # F42 = F(2, 3, 7) is the least member; on every member the derived
    # subgroup C_r is abelian and normal, no normal subgroup is a witness,
    # the group half of the (p, q) obstruction holds at every triple, and
    # the (p, q) equation bound to the first triple has no solution in G
    t0 = time.time()
    assert len(FROBENIUS_FAMILY) == 16
    for p, q, r in FROBENIUS_FAMILY:
        G = frobenius_group(p, q, r)
        assert G.order == p * q * r <= Config().subgroup_order_cap
        if r == 7:
            assert isomorphic(G, load_group_file(resolve_data_path("@catalog/042_f42.grp")))
        report = classify_group(G)
        assert report.metabelian and report.witness is None
        assert report.normals_examined == len(normal_subgroups(G))
        D = commutator_subgroup(G)
        assert D.order == r and D.is_abelian() and is_normal(G, D)
        by_order = {k: [g for g in G.elements() if G.element_order(g) == k] for k in (p, q, r)}
        commuting = [(a, b) for a in by_order[p] for b in by_order[q]
                     if G.mul(a, b) == G.mul(b, a)]
        triples = [(a, b, c) for a, b in commuting for c in by_order[r]]
        assert len(triples) == (p - 1) * (q - 1) * r * (r - 1)
        for a, b, c in triples:
            assert G.mul(c, G.conj(c, G.mul(a, b))) in D
            lhs, rhs = group_obstruction(G, a, b, c)
            assert lhs != rhs
        a, b, c = triples[0]
        equation = counterexample_build(p, q, symbolic=True).system
        res = brute_force_solve(equation.bind(G, {"a": a, "b": b, "c": c}))
        assert res.solution is None and res.exhaustive and res.searched == G.order
    assert time.time() - t0 < 3.0


def test_brute_force_examples_and_determinism():
    c3 = cyclic(3)
    s = parse_system("vars: x\ncoeffs: g\neq: x^2 = g").bind(c3, {"g": 1})
    res = brute_force_solve(s)
    assert res.solution == {"x": 2}
    res_desc = brute_force_solve(s, descending=True)
    assert res_desc.solution == {"x": 2}    # unique solution
    res_jobs = brute_force_solve(s, Config(jobs=4))
    assert res_jobs == res

    # x*g=1 over a nonabelian group
    d4 = dihedral(4)
    s2 = parse_system("vars: x\ncoeffs: g\neq: x g").bind(d4, {"g": 5})
    r2 = brute_force_solve(s2)
    assert r2.solution == {"x": d4.inverse[5]}

    # lexicographically least among several solutions, asc vs desc agree on
    # solvability
    s3 = parse_system("vars: x y\neq: x y").bind(cyclic(4), {})
    asc = brute_force_solve(s3)
    desc = brute_force_solve(s3, descending=True)
    assert asc.solution == {"x": 0, "y": 0}
    assert desc.solution == {"x": 3, "y": 1}
    assert (asc.solution is None) == (desc.solution is None)


def test_brute_force_cap():
    s = parse_system("vars: x y z\neq: x y z").bind(cyclic(12), {})
    with pytest.raises(CapExceeded):
        brute_force_solve(s, Config(brute_force_cap=100))


def test_classify_group_notes():
    rep = classify_group(dicyclic(6))
    assert rep.metabelian and rep.witness is not None
    s4 = dict(build_all((24,)))["S4"]
    rep4 = classify_group(s4)
    assert not rep4.metabelian and rep4.witness is None
    assert "not metabelian" in rep4.note


def test_audit_catalog_order20():
    report = audit_catalog(bundled_catalog_dir(), orders=(20,))
    assert len(report.entries) == 5
    for e in report.entries:
        assert e.report is not None and e.report.metabelian
        assert e.report.witness is not None
        assert e.report.witness.prime == 2
    assert report.all_witnessed and report.counts_ok and report.pairwise_distinct


def test_audit_catalog_order42_exception():
    report = audit_catalog(bundled_catalog_dir(), orders=(42,))
    assert report.all_witnessed          # 42 is not an audited order
    assert report.expected_without_witness == ("F42 (order 42)",)


def test_audit_collects_load_errors(tmp_path):
    (tmp_path / "bad.grp").write_text("group X order 2\ntable:\n0 1\n1 1\n")
    (tmp_path / "good.grp").write_text("group C2 order 2\ntable:\n0 1\n1 0\n")
    report = audit_catalog(tmp_path)
    errs = [e for e in report.entries if e.error]
    assert len(errs) == 1 and errs[0].file == "bad.grp"
    assert len([e for e in report.entries if e.report]) == 1


def _restricted(full, orders):
    """The full audit's verdicts on the groups of the given orders."""
    def keep(entry_text):
        return any(entry_text.endswith(f"(order {o})") for o in orders)
    return (tuple(e for e in full.entries if e.report.order in orders),
            tuple(o for o in full.orders if o in orders),
            full.counts_ok, full.pairwise_distinct,
            tuple(filter(keep, full.deviations)),
            tuple(filter(keep, full.expected_without_witness)))


def test_subset_audit_is_the_restricted_full_audit(monkeypatch):
    full = audit_catalog(bundled_catalog_dir())
    assert full.counts_ok and full.pairwise_distinct
    assert not any(e.error for e in full.entries)
    validated = []
    real_validate = FiniteGroup.validate

    def counting_validate(G):
        validated.append(G.order)
        return real_validate(G)
    monkeypatch.setattr(FiniteGroup, "validate", counting_validate)
    subsets = [(o,) for o in full.orders] + [(12, 42), (24, 36), (30, 40)]
    for orders in subsets:
        validated.clear()
        sub = audit_catalog(bundled_catalog_dir(), orders)
        assert (sub.entries, sub.orders, sub.counts_ok, sub.pairwise_distinct,
                sub.deviations, sub.expected_without_witness) == \
            _restricted(full, orders)
        # one validated build per file of the audited orders, none for the rest
        assert len(validated) == len(sub.entries) > 0
        assert set(validated) == set(orders)


GOOD_C2 = "group C2 order 2\ntable:\n0 1\n1 0\n"
BROKEN_BODY = "group X order 2\ntable:\n0 1\n1 1\n"   # not a Latin square


@pytest.mark.parametrize("text", [
    "# only a comment\n",
    "grp X order 2\ntable:\n0\n",
    "group X order two\ntable:\n0\n",
    "group X order 0\ntable:\n",
    f"group X order {MAX_TABLE_ORDER + 1}\ntable:\n",
])
def test_audit_reports_bad_headers_under_any_filter(tmp_path, text):
    (tmp_path / "a_bad.grp").write_text(text)
    (tmp_path / "good.grp").write_text(GOOD_C2)
    with pytest.raises(GroupEqError) as exc:
        load_group(text)
    for orders in (None, (2,), (3,)):
        report = audit_catalog(tmp_path, orders)
        assert report.entries[0] == AuditEntry("a_bad.grp", None, str(exc.value))
        assert [e.file for e in report.entries[1:]] == \
            ([] if orders == (3,) else ["good.grp"])


def test_audit_filters_broken_bodies_by_declared_order(tmp_path):
    (tmp_path / "broken.grp").write_text(BROKEN_BODY)
    (tmp_path / "c3.grp").write_text(
        "group C3 order 3\ngenerators:\n(1,2,3)\n")
    (tmp_path / "latin1.grp").write_bytes(b"group X order 3\n\xff\n")
    with pytest.raises(GroupEqError) as exc:
        load_group(BROKEN_BODY)
    broken = AuditEntry("broken.grp", None, str(exc.value))
    for orders in (None, (2,), (2, 3)):
        assert broken in audit_catalog(tmp_path, orders).entries
    report = audit_catalog(tmp_path, (3,))
    assert [e.file for e in report.entries] == ["c3.grp", "latin1.grp"]
    assert report.entries[0].report.order == 3
    # undecodable files are reported whatever the filter
    for orders in (None, (2,), (5,)):
        errors = [e for e in audit_catalog(tmp_path, orders).entries
                  if e.file == "latin1.grp"]
        assert len(errors) == 1 and "not UTF-8 text" in errors[0].error


def test_audit_empty_directory(tmp_path):
    report = audit_catalog(tmp_path)
    assert report.entries == ()
    assert report.all_witnessed


def reference_scan(system, descending=False):
    """The per-assignment scan the block scan must reproduce."""
    G, values = system.binding.group, system.binding.values
    rng = range(G.order - 1, -1, -1) if descending else range(G.order)
    combos = itertools.product(rng, repeat=len(system.variables))
    for searched, combo in enumerate(combos, start=1):
        assignment = dict(zip(system.variables, combo))
        if all(evaluate_word(w, G, values, assignment) == G.identity
               for w in system.words):
            return assignment, searched, False
    return None, G.order ** len(system.variables), True


def random_bound_system(G, rng):
    variables = tuple(f"x{i}" for i in range(rng.randint(0, 3)))
    coeffs, words = {}, []
    for _ in range(rng.randint(1, 3)):
        letters = []
        for _ in range(rng.randint(1, 6)):
            if variables and rng.random() < 0.6:
                letters.append(Letter(VAR, rng.choice(variables), rng.choice((1, -1))))
            else:
                sym = f"g{len(coeffs)}"
                coeffs[sym] = rng.randrange(G.order)
                letters.append(Letter(COEFF, sym, rng.choice((1, -1))))
        words.append(tuple(letters))
    return EquationSystem(variables, tuple(coeffs), tuple(words)).bind(G, coeffs)


def test_block_scan_matches_reference_scan():
    rng = random.Random(4)
    groups = [load_group_file(f) for f in sorted(bundled_catalog_dir().glob("*.grp"))
              if int(f.name[:3]) <= 12]
    groups.append(WreathGroup(cyclic(2), cyclic(2)))
    seen = set()
    for _ in range(150):
        system = random_bound_system(rng.choice(groups), rng)
        for descending in (False, True):
            res = brute_force_solve(system, descending=descending)
            expected = reference_scan(system, descending)
            assert (res.solution, res.searched, res.exhaustive) == expected, system
            seen.add((len(system.variables), res.exhaustive))
    assert seen == {(n, e) for n in range(4) for e in (False, True)}


@pytest.mark.parametrize("text,g,solution,searched", [
    ("eq: x\neq: y g", 1, {"x": 0, "y": 5}, 6),       # last value of block 1
    ("eq: x g\neq: y", 5, {"x": 1, "y": 0}, 7),       # first value of block 2
    # y^2 = 1 holds at y in {0, 3}, but y = x - 1 only at y = 5 when x = 0
    ("eq: y^2\neq: y x^-1 g", 1, {"x": 1, "y": 0}, 7),
    ("eq: y^2\neq: y g", 1, None, 36),                # disjoint in every block
])
def test_block_scan_boundaries(text, g, solution, searched):
    system = parse_system("vars: x y\ncoeffs: g\n" + text).bind(cyclic(6), {"g": g})
    res = brute_force_solve(system)
    assert (res.solution, res.searched) == (solution, searched)
    for descending in (False, True):
        res = brute_force_solve(system, descending=descending)
        assert (res.solution, res.searched, res.exhaustive) == \
            reference_scan(system, descending)


def shifted_block_system(G, nvars, rng):
    """1-3 random words over two coefficients, each with the same
    coefficient before two occurrences of the last variable, so the scan
    looks up a shifted block it has already built."""
    variables = tuple(f"x{i}" for i in range(nvars))

    def coeff(name):
        return Letter(COEFF, name, rng.choice((1, -1)))

    words = []
    for _ in range(rng.randint(1, 3)):
        letters = [Letter(VAR, rng.choice(variables), rng.choice((1, -1)))
                   if variables and rng.random() < 0.5 else coeff(rng.choice("ab"))
                   for _ in range(rng.randint(1, 5))]
        if variables:
            a, x = coeff("a"), Letter(VAR, variables[-1], rng.choice((1, -1)))
            at = rng.randrange(len(letters) + 1)
            letters[at:at] = [a, x, a, x]
        words.append(tuple(letters))
    values = {"a": rng.randrange(G.order), "b": rng.randrange(G.order)}
    return EquationSystem(variables, ("a", "b"), tuple(words)).bind(G, values)


def reference_solutions(G, words, variables, descending):
    """Every (scan position, values) of the per-assignment scan."""
    rng = range(G.order - 1, -1, -1) if descending else range(G.order)
    combos = itertools.product(rng, repeat=len(variables))
    return [(searched, combo) for searched, combo in enumerate(combos, start=1)
            if all(evaluate_compiled(G, w, dict(zip(variables, combo))) == G.identity
                   for w in words)]


def test_block_scan_yields_every_solution_of_the_reference_scan():
    rng = random.Random(12)
    groups = [load_group_file(f) for f in sorted(bundled_catalog_dir().glob("*.grp"))
              if int(f.name[:3]) <= 24]
    groups += [trivial_group(), WreathGroup(cyclic(2), cyclic(2)),
               WreathGroup(WreathGroup(cyclic(2), cyclic(2)), cyclic(2))]
    seen = set()
    for G in groups:
        for nvars in range(4):
            if G.order ** nvars > 1000:
                break
            system = shifted_block_system(G, nvars, rng)
            words = [compile_word(w, G, system.binding.values) for w in system.words]
            for descending in (False, True):
                got = list(scan_solutions(G, words, system.variables, G.elements(),
                                          descending))
                assert got == reference_solutions(G, words, system.variables,
                                                  descending), (G.name, system)
                seen.add((nvars, min(len(got), 2)))
    assert seen == {(0, 0), (0, 1)} | {(n, k) for n in range(1, 4) for k in range(3)}


class GatherCounter:
    """A group that counts the scan's gathers."""

    def __init__(self, G):
        self.G, self.gathers = G, 0
        self.mul, self.inv, self.identity = G.mul, G.inv, G.identity

    def mul_all(self, xs, ys):
        self.gathers += 1
        return self.G.mul_all(xs, ys)


@pytest.mark.parametrize("variables,gathers", [
    # the word 5 y 5 y (x) y^-1 over C12, 2 products per block
    # one block, no cache: each 5 y shifts the block
    (("y",), 2 + 2),
    # 12 blocks: (5, 1) is shifted once, (x, -1) once for each x but the
    # identity, within the cache bound of 2|G| shifted blocks
    (("x", "y"), 12 * 2 + 1 + 11),
])
def test_block_scan_gathers_and_shifted_block_cache(variables, gathers):
    G = GatherCounter(cyclic(12))
    word = [(None, 5), ("y", 1), (None, 5), ("y", 1)] + \
        [(v, 1) for v in variables[:-1]] + [("y", -1)]
    list(scan_solutions(G, [word], variables, range(12)))
    assert G.gathers == gathers


def test_wreath_scan_never_realizes_the_table(monkeypatch):
    def no_table(self):
        raise AssertionError("the scan realized the wreath product's table")
    monkeypatch.setattr(WreathGroup, "realize", no_table)
    res = brute_force_solve(counterexample_build(2, 3).system)
    assert (res.solution, res.searched, res.exhaustive) == (None, 384, True)


def test_counterexample_caps_are_checked_before_building(monkeypatch):
    from groupeq import verifiers
    from groupeq.algebra import MAX_ORDER_DIGITS
    from groupeq.words import MAX_WORD_LENGTH

    def no_table(*args, **kwargs):
        raise AssertionError("a Cayley table was built before the caps were checked")
    monkeypatch.setattr(verifiers, "direct_product", no_table)
    # 2^14351 * 14351 has 4,324 digits
    with pytest.raises(CapExceeded, match=f"more than {MAX_ORDER_DIGITS} digits"):
        counterexample_build(113, 127, symbolic=True)
    with pytest.raises(CapExceeded, match="digits"):
        counterexample_build(1009, 1013)
    # order 2^2018 * 2018: refused before the order-2018 top group is built
    with pytest.raises(CapExceeded, match=r"wreath product order 2\^2018 \* 2018"):
        counterexample_build(2, 1009)
    # pq = 14002 is under the digit bound, the word has about 7001^2 letters
    with pytest.raises(CapExceeded, match=f"limit {MAX_WORD_LENGTH}"):
        counterexample_build(2, 7001, symbolic=True)


def test_counterexample_order_digit_bound():
    from groupeq.algebra import MAX_ORDER_DIGITS
    # 19 * 751 = 14269 and 7 * 2039 = 14273 are the neighbouring products of
    # two distinct primes on either side of the bound
    pq = [n for n in range(14269, 14274)
          if len(f := prime_factors(n)) == 2 and f[0] * f[1] == n]
    assert pq == [14269, 14273]
    for p, q in ((19, 751), (751, 19)):
        inst = counterexample_build(p, q, symbolic=True)
        assert len(str(inst.order)) == MAX_ORDER_DIGITS
    for p, q in ((7, 2039), (2039, 7)):
        with pytest.raises(CapExceeded) as exc:
            counterexample_build(p, q, symbolic=True)
        assert str(exc.value) == (f"group order 2^14273 * 14273 has more than "
                                  f"{MAX_ORDER_DIGITS} digits")


def test_counterexample_word_and_s_element_for_larger_primes():
    inst = counterexample_build(2, 211, symbolic=True)
    word = inst.system.words[0]
    assert len(word) == 2 * inst.n + 2 + 211 * abs(inst.m) + 211 * 210 + 6
    assert exponent_sum(word, "x") == 1 and inst.classification.unimodular
    spec = IntegralGroupSpec((2, 211), 0)
    mono = lambda i, j: AlgebraElement.monomial(spec, (i, j))
    sum_a, sum_b = mono(0, 0) + mono(1, 0), mono(0, 0)
    for k in range(1, 211):
        sum_b = sum_b + mono(0, k)
    one, a, b = mono(0, 0), mono(1, 0), mono(0, 1)
    expected = ((one + b) * sum_a * AlgebraElement.scalar(spec, inst.n)
                + (one + a) * sum_b * AlgebraElement.scalar(spec, inst.m))
    assert obstruction_s_element(2, 211, inst.n, inst.m) == expected
    rep = obstruction_check(inst)
    assert rep.ring_identity_holds and not rep.s_is_zero


def test_obstruction_confirmed_for_all_prime_pairs_up_to_13():
    primes = (2, 3, 5, 7, 11, 13)
    config = Config(wreath_order_cap=2 ** (11 * 13) * 11 * 13)
    pairs = [(p, q) for p in primes for q in primes if p != q]
    assert len(pairs) == 30
    for p, q in pairs:
        inst = counterexample_build(p, q, config=config)
        rep = obstruction_check(inst)
        assert rep.ring_identity_holds and rep.group_inequality_holds, (p, q)
        assert rep.confirmed, (p, q)
        text = counterexample_text(p, q, inst.n, inst.m)
        assert parse_word(text, ["x"], ["a", "b", "c"]) == \
            counterexample_equation(p, q, inst.n, inst.m), (p, q)
