"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated budget and exact expectations."""

import itertools
import json
import random
import time

from conftest import bound_solutions, build_all, random_wreath_system
from test_cli import SCENARIOS, run_cli

from groupeq.algebra import (AbelianGroupSpec, AlgebraElement, AlgebraMatrix,
                             all_elements, augmentation,
                             certify_non_zero_divisor,
                             certify_row_independence, nilpotent_basis_expansion,
                             reassemble_expansion, regular_representation)
from groupeq.catalog import AUDIT_ORDERS, bundled_catalog_dir
from groupeq.equations import (classify_matrix, evaluate_word,
                               exponent_matrix, rank_mod_p)
from groupeq.groups import cyclic as _cyclic
from groupeq.groups import is_prime, prime_factors
from groupeq.verifiers import (audit_catalog, classify_group,
                               counterexample_build, p_group_equation_check,
                               obstruction_check)
from groupeq.wreath import (WreathGroup as wreath_product, extract_rows,
                            coordinatewise_transform, normalize_top_component,
                            reconstruct_solution)

PRIMES_TO_100 = [p for p in range(2, 101) if is_prime(p)]


def report(k: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {k} ({name}): PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget"


def test_criterion_1_example_system_reproduction():
    t0 = time.time()
    code, out, _ = run_cli(["--format", "structured", "analyze-system",
                            "@examples/example0.sys"])
    assert code == 0
    d = json.loads(out)
    assert d["matrix"] == [[2, -3, 0], [0, 0, 1], [1, 1, 1]]
    assert d["determinant"] == -5
    for p in (2, 3, 7, 11, 13):
        assert d["p_nonsingular"][str(p)] is True
    assert d["p_nonsingular"]["5"] is False
    assert d["classification"]["unimodular"] is False
    assert d["classification"]["nonsingular"] is True
    assert d["classification"]["singular_primes"] == [5]
    report(1, "example system reproduction", t0, 1.0)


def test_criterion_2_unimodular_iff_trivial_invariant_factors():
    t0 = time.time()
    rng = random.Random(0)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        cls = classify_matrix(A)
        factors = cls.invariant_factors
        assert cls.unimodular == (cls.nonsingular and
                                  all(f == 1 for f in factors))
        candidates = set(PRIMES_TO_100)
        if factors:
            candidates.update(prime_factors(factors[-1]))
        per_prime = all(rank_mod_p(A, p) == rows for p in sorted(candidates))
        assert cls.unimodular == per_prime, A
    report(2, "unimodular iff all invariant factors 1, 500 matrices", t0, 30.0)


def test_criterion_3_certificate_soundness_exhaustive():
    t0 = time.time()
    z2c2 = AbelianGroupSpec(2, (1,))
    pool2 = list(all_elements(z2c2))
    assert len(pool2) == 4
    matrices2 = []
    certified2 = 0
    for entries in itertools.product(pool2, repeat=4):
        M = AlgebraMatrix(z2c2, ((entries[0], entries[1]),
                                 (entries[2], entries[3])))
        cert = certify_non_zero_divisor(M)
        matrices2.append((M, cert is not None))
        if cert is None:
            continue
        certified2 += 1
        for side in ("left", "right"):
            rep = regular_representation(M, side)
            assert rank_mod_p(rep, 2) == len(rep), "soundness violation"
    assert len(matrices2) == 256 and certified2 == 96

    # the same 2x2 matrices checked directly against every candidate
    # annihilator: 256 * 256 = 65536 ordered pairs
    pairs_checked = 0
    for M, is_cert in matrices2:
        for entries in itertools.product(pool2, repeat=4):
            B = AlgebraMatrix(z2c2, ((entries[0], entries[1]),
                                     (entries[2], entries[3])))
            pairs_checked += 1
            if not is_cert or B.is_zero():
                continue
            assert not (M * B).is_zero(), "right annihilator found"
            assert not (B * M).is_zero(), "left annihilator found"
    assert pairs_checked == 65536

    # all 65536 2x2 matrices over Z_2[C4]
    z2c4 = AbelianGroupSpec(2, (2,))
    pool4 = list(all_elements(z2c4))
    assert len(pool4) == 16
    count4 = 0
    certified4 = 0
    for a in pool4:
        for b in pool4:
            for c in pool4:
                for d in pool4:
                    M = AlgebraMatrix(z2c4, ((a, b), (c, d)))
                    count4 += 1
                    if certify_non_zero_divisor(M) is None:
                        continue
                    certified4 += 1
                    for side in ("left", "right"):
                        rep = regular_representation(M, side)
                        assert rank_mod_p(rep, 2) == len(rep)
    assert count4 == 65536 and certified4 == 24576

    # every element of Z_2[C4] and Z_3[C3] as a 1x1 matrix
    for spec, p in ((z2c4, 2), (AbelianGroupSpec(3, (1,)), 3)):
        for e in all_elements(spec):
            M = AlgebraMatrix(spec, ((e,),))
            if certify_non_zero_divisor(M) is None:
                continue
            for side in ("left", "right"):
                rep = regular_representation(M, side)
                assert rank_mod_p(rep, p) == len(rep)
    report(3, "certificate soundness, exhaustive", t0, 60.0)


def test_criterion_4_nilpotent_basis_identities():
    t0 = time.time()
    for p, k in ((2, 1), (2, 2), (3, 1), (5, 1)):
        spec = AbelianGroupSpec(p, (k,))
        x = AlgebraElement.torsion_gen(spec, 0)
        one = AlgebraElement.one(spec)
        assert ((x - one) ** (p ** k)).is_zero(), (p, k)

    rng = random.Random(1)
    specs = [AbelianGroupSpec(2, (2,)), AbelianGroupSpec(3, (1, 1)),
             AbelianGroupSpec(2, (1, 2)), AbelianGroupSpec(5, (1,))]
    done = 0
    while done < 1000:
        spec = rng.choice(specs)
        monos = [(tv, ()) for tv in itertools.product(
            *(range(o) for o in spec.torsion_orders))]
        m = AlgebraElement(spec, [(mono, rng.randrange(spec.p))
                                  for mono in monos])
        var = rng.randrange(len(spec.torsion_exponents))
        coeffs = nilpotent_basis_expansion(m, var)
        assert reassemble_expansion(coeffs, var) == m
        # the constant term is the partial augmentation at that generator
        collapsed = AlgebraElement(
            spec, [((tuple(0 if i == var else e for i, e in enumerate(tv)), fv), c)
                   for (tv, fv), c in m.terms])
        assert coeffs[0] == collapsed
        done += 1
    report(4, "nilpotent-basis identities and 1000 round trips", t0, 5.0)


def test_criterion_5_wreath_transformation_chain():
    t0 = time.time()
    W = wreath_product(_cyclic(2), _cyclic(2))
    rng = random.Random(0)
    for _ in range(200):
        system = random_wreath_system(W, rng, max_vars=2, prime=2)
        E = exponent_matrix(system)
        norm = normalize_top_component(system, 2)
        ts = coordinatewise_transform(norm.system)
        ex = extract_rows(ts, 2)
        # (a) translation identity, exact
        assert ex.translation_holds
        # (b) augmentation of m[j,1] equals the exponent-sum row mod 2
        assert ex.augmentation_matches
        aug = [[augmentation(e) for e in row] for row in ex.rows.rows]
        assert aug == [[v % 2 for v in row] for row in E]
        # (c) row independence certified
        assert certify_row_independence(ex.rows) is not None
        # (d) solution sets coincide
        recon = sorted(
            tuple(reconstruct_solution(ts, pw)[v] for v in system.variables)
            for pw in bound_solutions(ts.system))
        beta_w = {v: W.embed_top(t) for v, t in norm.beta.items()}
        shifted = sorted(
            tuple(W.mul(s[i], beta_w[v]) for i, v in enumerate(system.variables))
            for s in recon)
        values = system.binding.values
        brute = sorted(
            combo for combo in itertools.product(
                W.elements(), repeat=len(system.variables))
            if all(evaluate_word(w, W, values,
                                 dict(zip(system.variables, combo))) == 0
                   for w in system.words))
        assert shifted == brute
    report(5, "wreath transformation chain, 200 instances", t0, 120.0)


def test_criterion_6_structure_audit():
    t0 = time.time()
    rep = audit_catalog(bundled_catalog_dir(), orders=AUDIT_ORDERS)
    assert not any(e.error for e in rep.entries)
    audited = [e.report for e in rep.entries if e.report]
    assert {r.order for r in audited} == set(AUDIT_ORDERS)
    metabelian = [r for r in audited if r.metabelian]
    assert all(r.witness is not None for r in metabelian)
    assert rep.all_witnessed and rep.counts_ok and rep.pairwise_distinct
    skipped = sorted(r.group_id for r in audited if not r.metabelian)
    assert skipped == ["S4", "SL(2,3)"]

    # order 42: the affine group is metabelian with NO witness, certified
    # by exhaustive normal-subgroup search
    from make_catalog import affine_group_over_prime_field
    aff = classify_group(affine_group_over_prime_field(7))
    assert aff.metabelian and aff.witness is None
    assert aff.normals_examined == 5
    report(6, "structure audit over the bundled catalog", t0, 120.0)


def test_criterion_7_obstruction_at_2_3():
    t0 = time.time()
    inst = counterexample_build(2, 3)
    assert (inst.n, inst.m) == (2, -1)
    assert inst.classification.unimodular
    from groupeq.words import exponent_sum
    assert exponent_sum(inst.system.words[0], "x") == 1
    assert inst.order == 384
    rep = obstruction_check(inst)
    assert rep.ring_identity_holds
    assert rep.group_inequality_holds
    assert rep.confirmed
    report(7, "counterexample obstruction at (2,3)", t0, 10.0)


def test_criterion_8_p_group_equations():
    t0 = time.time()
    p_groups = [(name, G) for name, G in build_all()
                if G.order <= 16 and len(prime_factors(G.order)) == 1]
    assert len(p_groups) == 29
    for name, G in p_groups:
        rep = p_group_equation_check(G, trials=100, seed=0)
        assert rep.all_solved, (name, rep.solved)
    report(8, "unimodular equations solve inside p-groups (<=16)", t0, 60.0)


def test_criterion_9_jobs_determinism():
    t0 = time.time()
    for argv, expected in SCENARIOS:
        code1, out1, _ = run_cli(["--jobs", "1"] + argv)
        code4, out4, _ = run_cli(["--jobs", "4"] + argv)
        assert code1 == code4 == expected
        assert out1 == out4, argv
    report(9, "byte-identical output across --jobs", t0, 300.0)
