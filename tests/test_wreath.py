import contextlib
import io
import itertools
import random
import time

import pytest

from conftest import bound_solutions, random_wreath_system
from make_catalog import dihedral
from groupeq.algebra import (AlgebraElement, augmentation,
                             certify_row_independence)
from groupeq.catalog import bundled_catalog_dir
from groupeq.config import Config
from groupeq.equations import (EquationSystem, evaluate_word,
                               exponent_matrix, parse_system, satisfies)
from groupeq.errors import CapExceeded, ValidationError
from groupeq.groups import (MAX_TABLE_ORDER, FiniteGroup, closure, cyclic, direct_product,
                            from_generators, isomorphic, load_group_file, normal_subgroups,
                            subgroup)
from groupeq.verifiers import brute_force_solve, classify_group
from groupeq import wreath
from groupeq.words import COEFF, VAR, Letter
from groupeq.wreath import (WreathGroup, extract_rows, kaloujnine_krasner,
                            coordinatewise_transform, normalize_top_component,
                            reconstruct_solution)


def c2wrc2():
    return WreathGroup(cyclic(2), cyclic(2))


def wreath_system(W, variables, words, values):
    """An EquationSystem over W from words of (symbol, sign) pairs; a symbol
    in *values* is a coefficient bound to that element of W."""
    letters = tuple(tuple(Letter(COEFF if name in values else VAR, name, sign)
                          for name, sign in word) for word in words)
    return EquationSystem(tuple(variables), tuple(values), letters).bind(W, values)


def base_elements(W):
    return [x for x in W.elements() if W.top_of(x) == 0]


def test_orders_and_isomorphism_type():
    W = c2wrc2()
    assert W.order == 8
    assert isomorphic(W.realize(), dihedral(4)) is not None
    W384 = WreathGroup(cyclic(2), direct_product(cyclic(2), cyclic(3)))
    assert W384.order == 2 ** 6 * 6
    Wtriv = WreathGroup(dihedral(3), cyclic(1))
    assert Wtriv.order == 6
    assert isomorphic(Wtriv.realize(), dihedral(3)) is not None


def test_wreath_cap():
    with pytest.raises(CapExceeded):
        WreathGroup(cyclic(2), cyclic(6), Config(wreath_order_cap=100))
    with pytest.raises(CapExceeded, match=r"^wreath order 4608 exceeds the table cap 4096$"):
        WreathGroup(cyclic(2), cyclic(9)).realize()


def test_group_axioms_sampled_at_384():
    W = WreathGroup(cyclic(2), direct_product(cyclic(2), cyclic(3)))
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = (rng.randrange(W.order) for _ in range(3))
        assert W.mul(W.mul(a, b), c) == W.mul(a, W.mul(b, c))
        assert W.mul(a, W.inv(a)) == 0
        assert W.mul(W.inv(a), a) == 0


def coordinate_law_holds(W):
    for x in W.elements():
        fx, _ = W.decode(x)
        for t in W.top.elements():
            fxd, _ = W.decode(W.conj(x, W.embed_top(t)))
            for b in W.top.elements():
                if fxd[b] != fx[W.top.table[b][W.top.inverse[t]]]:
                    return False
    return True


def test_coordinate_action_law_exhaustive():
    assert coordinate_law_holds(c2wrc2())
    assert coordinate_law_holds(WreathGroup(cyclic(3), cyclic(2)))
    assert coordinate_law_holds(
        WreathGroup(cyclic(2), direct_product(cyclic(2), cyclic(3))))


def test_nested_product_is_the_sylow_2_subgroup_of_s8():
    W = WreathGroup(c2wrc2(), cyclic(2))
    P = from_generators(["(1 2)", "(1 3)(2 4)", "(1 5)(2 6)(3 7)(4 8)"])
    assert W.order == P.order == 128          # 2^7 is the 2-part of 8! = 40,320
    assert isomorphic(W.realize(), P) is not None
    # names nest: each coordinate is the base's own element name
    x = W.encode((W.base.embed_top(1), W.base.encode((1, 0), 1)), 1)
    assert W.element_name(x) == "((1,1;g),(g,1;g);g)"
    assert len({W.element_name(x) for x in W.elements()}) == W.order


def imprimitive_action(G):
    """(number of points, x -> permutation): a FiniteGroup on itself by right
    multiplication, H wr B on (points of H) x B by (w, b) * (f, t) = (w * f(b), b * t)."""
    if not isinstance(G, WreathGroup):
        return G.order, lambda h: tuple(G.table[w][h] for w in G.elements())
    n, act = imprimitive_action(G.base)
    tops = G.top.table

    def perm(x):
        f, t = G.decode(x)
        moves = [act(v) for v in f]
        return tuple(tops[b][t] * n + moves[b][w] for b in G.top.elements() for w in range(n))
    return n * G.top.order, perm


def test_nested_product_acts_faithfully_on_twelve_points():
    # (C3 wr C2) wr C2 in Sym(12), by the action written from the definition;
    # points are composed left to right, p * (x y) = (p * x) * y
    inner = WreathGroup(cyclic(3), cyclic(2))
    W = WreathGroup(inner, cyclic(2))
    n, phi = imprimitive_action(W)
    assert (n, W.order) == (12, 648)
    image = {x: phi(x) for x in W.elements()}
    assert len(set(image.values())) == W.order            # injective
    gens = [W.embed_top(1), W.embed_base((inner.embed_top(1), 0)),
            W.embed_base((inner.embed_base((1, 0)), 0))]
    reached, seen = [W.identity], {W.identity}
    for x in reached:                  # appending while iterating: breadth-first
        for g in gens:
            y = W.mul(x, g)
            assert image[y] == tuple(image[g][p] for p in image[x]), (x, g)
            if y not in seen:
                seen.add(y)
                reached.append(y)
    assert len(reached) == W.order     # the gens generate
    for x in W.elements():
        assert tuple(image[W.inv(x)][p] for p in image[x]) == tuple(range(n))


def test_kaloujnine_krasner_embeddings():
    c4 = cyclic(4)
    N = subgroup(c4, closure(c4, [2]))
    hom = kaloujnine_krasner(c4, N)
    assert isinstance(hom.target, WreathGroup) and hom.target.order == 8
    assert hom.is_injective()

    s3 = from_generators(["(1 2)", "(1 2 3)"], name="S3")
    A3 = [S for S in normal_subgroups(s3) if S.order == 3][0]
    hom2 = kaloujnine_krasner(s3, A3)
    assert hom2.target.order == 18
    assert hom2.is_injective()

    full = subgroup(s3, closure(s3, list(s3.elements())))
    hom3 = kaloujnine_krasner(s3, full)
    assert hom3.target.order == 6
    assert hom3.is_injective()
    assert isomorphic(hom3.target.realize(), s3) is not None


def test_kaloujnine_krasner_embeds_every_witnessed_catalog_group():
    # G embeds in A wr (G/A) for each witness A, checked on the packed
    # product; 7 targets (orders 5,184 to 40,000) exceed MAX_TABLE_ORDER
    t0 = time.time()
    targets = []
    for path in sorted(bundled_catalog_dir().glob("*.grp")):
        G = load_group_file(path)
        witness = classify_group(G).witness
        if witness is None:
            continue
        A = witness.subgroup
        hom = kaloujnine_krasner(G, A)
        W = hom.target
        assert isinstance(W, WreathGroup) and hom.is_injective()
        assert (W.base.order, W.top.order) == (A.order, G.order // A.order)
        targets.append(W.order)
    assert len(targets) == 106
    big = sorted(o for o in targets if o > MAX_TABLE_ORDER)
    assert len(big) == 7 and big[0] == 5184 and big[-1] == 40000
    assert time.time() - t0 < 2.0


def test_normalize_shifts_coefficients_into_base():
    W = c2wrc2()
    cval = W.encode((1, 0), 1)            # nontrivial top component
    system = EquationSystem(("x",), ("c",), (
        (Letter(VAR, "x", 1), Letter(COEFF, "c", 1)),)).bind(W, {"c": cval})
    norm = normalize_top_component(system, 2)
    assert norm.beta["x"] == 1            # x -> x*t
    # x c becomes x t c: a bound top coefficient after the variable
    assert norm.system.binding.group is W
    assert norm.system.words == ((Letter(VAR, "x", 1), Letter(COEFF, "beta x", 1),
                                  Letter(COEFF, "c", 1)),)
    assert norm.system.binding.values == {"c": cval, "beta x": W.embed_top(1)}
    # t c = (0,1;0) lies in the base, so the top parts cancel
    ts = coordinatewise_transform(norm.system)
    assert ts.system.words == ((Letter(VAR, "y_x_0", 1),),
                               (Letter(VAR, "y_x_1", 1), Letter(COEFF, "c1", 1)))


def test_normalize_already_base_is_unchanged():
    W = c2wrc2()
    cval = W.embed_base((1, 1))
    system = EquationSystem(("x",), ("c",), (
        (Letter(VAR, "x", 1), Letter(COEFF, "c", 1)),)).bind(W, {"c": cval})
    norm = normalize_top_component(system, 2)
    assert norm.beta["x"] == 0
    assert norm.system.binding.values["beta x"] == W.identity
    # the trivial shift adds no coordinate: both transforms agree
    assert coordinatewise_transform(norm.system).system == \
        coordinatewise_transform(system).system


def test_normalize_rejects_singular_and_nonabelian_top():
    W = c2wrc2()
    sys_singular = EquationSystem(("x",), (), (
        (Letter(VAR, "x", 1), Letter(VAR, "x", 1)),)).bind(W, {})
    with pytest.raises(ValidationError):
        normalize_top_component(sys_singular, 2)
    Wbad = WreathGroup(cyclic(2), dihedral(3))
    sys2 = EquationSystem(("x",), (), (
        (Letter(VAR, "x", 1),),)).bind(Wbad, {})
    with pytest.raises(ValidationError):
        normalize_top_component(sys2, 2)


def test_transform_on_x_xt_equation():
    # x * x^t * c = 1 over C2 wr C2, written x t x t^-1 c with t a top
    # coefficient, is not normalized but its top parts cancel; it becomes
    # y_b * y_{b t} * [c]_b = 1
    W = c2wrc2()
    system = wreath_system(W, ("x",), [[("x", 1), ("t", 1), ("x", 1), ("t", -1), ("c", 1)]],
                           {"t": W.embed_top(1), "c": W.embed_base((1, 0))})
    ts = coordinatewise_transform(system)
    y0, y1, c1 = Letter(VAR, "y_x_0", 1), Letter(VAR, "y_x_1", 1), Letter(COEFF, "c1", 1)
    assert ts.coords == (("x", 0), ("x", 1))
    assert ts.system.variables == ("y_x_0", "y_x_1")
    assert ts.system.coefficients == ("c1",)
    assert ts.system.words == ((y0, y1, c1), (y1, y0))
    assert ts.system.binding.group is W.base
    assert ts.system.binding.values == {"c1": 1}
    ex = extract_rows(ts, 2)
    one_plus_t = AlgebraElement.monomial(ex.spec, (0,)) + \
        AlgebraElement.monomial(ex.spec, (1,))
    assert ex.rows.rows[0][0] == one_plus_t
    assert ex.translation_holds and ex.augmentation_matches
    # not 2-nonsingular, so no certificate for this one
    assert certify_row_independence(ex.rows) is None


def test_transform_single_variable_row():
    W = c2wrc2()
    ex = extract_rows(coordinatewise_transform(wreath_system(W, ("x",), [[("x", 1)]], {})), 2)
    assert ex.rows.rows[0][0] == AlgebraElement.one(ex.spec)


def test_transform_empty_system():
    W = c2wrc2()
    ts = coordinatewise_transform(wreath_system(W, ("x",), [], {}))
    assert ts.system.words == () and ts.system.coefficients == ()
    ex = extract_rows(ts, 2)
    assert ex.rows.rows == ()


def test_example0_lifted_to_wreath_recovers_matrix_mod_2():
    text = """
vars: x y z
coeffs: g1 g2 g3
eq: [x,y] x^2 g1 y^-3
eq: [y,z] z
eq: x g2 y g3 z
"""
    system = parse_system(text)
    E = exponent_matrix(system)
    W = c2wrc2()
    rng = random.Random(7)
    bound = system.bind(W, {c: rng.randrange(W.order)
                            for c in system.coefficients})
    norm = normalize_top_component(bound, 2)
    ex = extract_rows(coordinatewise_transform(norm.system), 2)
    assert ex.translation_holds and ex.augmentation_matches
    aug = [[augmentation(e) for e in row] for row in ex.rows.rows]
    assert aug == [[v % 2 for v in row] for row in E]
    assert certify_row_independence(ex.rows) is not None


def test_reconstruct_rejects_bad_pointwise():
    W = c2wrc2()
    system = wreath_system(W, ("x",), [[("x", 1), ("c", 1)]], {"c": W.embed_base((1, 0))})
    ts = coordinatewise_transform(system)
    with pytest.raises(ValidationError):
        reconstruct_solution(ts, {"y_x_0": 0, "y_x_1": 0})


def round_trip_random_square_systems(W, count, max_vars):
    """Normalize, transform, certify, scan over W's base and reconstruct
    *count* seeded square systems over W, checked against brute force."""
    rng = random.Random(11)
    for _ in range(count):
        system = random_wreath_system(W, rng, max_vars)
        norm = normalize_top_component(system, 2)
        ts = coordinatewise_transform(norm.system)
        ex = extract_rows(ts, 2)
        assert ex.translation_holds and ex.augmentation_matches
        assert certify_row_independence(ex.rows) is not None
        pointwise = bound_solutions(ts.system)
        recon = sorted(
            tuple(reconstruct_solution(ts, pw)[v] for v in system.variables)
            for pw in pointwise)
        # solve's own entry point reads the transformed system unchanged
        first = brute_force_solve(ts.system).solution
        assert first == (pointwise[0] if pointwise else None)
        assert first is None or satisfies(ts.system, first)
        beta_w = {v: W.embed_top(t) for v, t in norm.beta.items()}
        shifted = sorted(
            tuple(W.mul(s[k], beta_w[v]) for k, v in enumerate(system.variables))
            for s in recon)
        brute = []
        values = system.binding.values
        for combo in itertools.product(W.elements(),
                                       repeat=len(system.variables)):
            assign = dict(zip(system.variables, combo))
            if all(evaluate_word(w, W, values, assign) == 0
                   for w in system.words):
                brute.append(combo)
        assert shifted == sorted(brute)


def test_round_trip_random_square_systems():
    round_trip_random_square_systems(c2wrc2(), 40, 2)


def test_round_trip_random_square_systems_over_a_nested_product():
    # the transformed systems lie over the base C2 wr C2, itself a packed product
    W = WreathGroup(c2wrc2(), cyclic(2))
    t0 = time.time()
    round_trip_random_square_systems(W, 12, 1)
    assert time.time() - t0 < 1.0


def test_wreath_solutions_helper_consistency():
    # a system bound to W is solved by the scan behind `solve`, and its
    # solution satisfies the system and reconstructs from the transform
    W = c2wrc2()
    system = wreath_system(W, ("x",), [[("x", 1), ("c", 1)]], {"c": W.embed_base((1, 1))})
    sols = bound_solutions(system)
    assert sols == [{"x": W.embed_base((1, 1))}]
    assert satisfies(system, sols[0])
    ts = coordinatewise_transform(system)
    assert [reconstruct_solution(ts, pw) for pw in bound_solutions(ts.system)] == sols


def test_transform_refuses_uncancelled_top_parts():
    # x t: the top part t survives, so no base value of x solves it
    W = c2wrc2()
    system = wreath_system(W, ("x",), [[("x", 1), ("c", 1)], [("x", 1), ("t", 1)]],
                           {"c": W.embed_base((1, 1)), "t": W.embed_top(1)})
    with pytest.raises(ValidationError) as info:
        coordinatewise_transform(system)
    assert str(info.value) == "equation 2: top components do not cancel"
    with pytest.raises(ValidationError, match="bound to a wreath product"):
        coordinatewise_transform(system.bind(W.base, {"c": 1, "t": 1}))


def reference_wreath_solutions(system, domain):
    """One assignment at a time, with the wreath group law itself."""
    W, values = system.binding.group, system.binding.values
    out = []
    for combo in itertools.product(domain, repeat=len(system.variables)):
        value = dict(zip(system.variables, combo))
        for word in system.words:
            acc = W.identity
            for kind, name, sign in word:
                x = value[name] if kind == VAR else values[name]
                acc = W.mul(acc, x if sign > 0 else W.inv(x))
            if acc != W.identity:
                break
        else:
            out.append(dict(value))
    return out


def test_wreath_solutions_match_reference_scan():
    # the shared scan over all of W and over the base only (a domain that is
    # not a range of indices), compared as full ordered lists
    rng = random.Random(23)
    several = restricted = 0
    for W in (c2wrc2(), WreathGroup(cyclic(3), cyclic(2))):
        for _ in range(20):
            ns = normalize_top_component(random_wreath_system(W, rng), 2).system
            # with one equation fewer than variables, solutions come in families
            ns = EquationSystem(ns.variables, ns.coefficients, ns.words[1:] or ns.words,
                                ns.binding)
            whole = bound_solutions(ns)
            base = bound_solutions(ns, base_elements(W))
            assert whole == reference_wreath_solutions(ns, W.elements())
            assert base == reference_wreath_solutions(ns, base_elements(W))
            several += (len(whole) > 1) + (len(base) > 1)
            restricted += len(base) < len(whole)
    assert several and restricted


def test_normalize_keeps_the_wreath_product_unless_the_top_grows():
    rng = random.Random(20)
    W = WreathGroup(cyclic(2), direct_product(cyclic(2), cyclic(2)))
    for _ in range(10):
        norm = normalize_top_component(random_wreath_system(W, rng), 2)
        assert norm.system.binding.group is W


def test_normalize_refuses_a_top_that_would_grow(monkeypatch):
    # x^2 c is non-singular but 2-singular: its image needs C4 over the top
    # C2. With the rank test bypassed, the solver's lift exponent still stops it.
    W = c2wrc2()
    system = wreath_system(W, "x", [[("x", 1), ("x", 1), ("c", 1)]],
                           {"c": W.encode((1, 0), 1)})
    with pytest.raises(ValidationError, match="^system is not 2-nonsingular$"):
        normalize_top_component(system, 2)
    monkeypatch.setattr(wreath, "is_p_nonsingular", lambda system, p: True)
    with pytest.raises(ValidationError, match="^internal error: a p-nonsingular "
                                              "image needs a larger top$"):
        normalize_top_component(system, 2)


def _scan_index(W):
    """Name -> least x with that name, by naming every element once."""
    least = {}
    for x in W.elements():
        least.setdefault(W.element_name(x), x)
    return least


def _index_or_none(W, name):
    try:
        return W.index_of(name)
    except ValidationError as exc:
        assert str(exc) == (f"wreath product has no element named {name!r} "
                            "(hint: #<index> bindings always work)")
        return None


def test_index_of_matches_the_scan_over_every_element():
    s3 = from_generators(["(1 2)", "(1 2 3)"])       # names with commas: (1,2)
    for W in (c2wrc2(), WreathGroup(s3, cyclic(2)), WreathGroup(cyclic(3), s3)):
        names = [W.element_name(x) for x in W.elements()]
        k = W.top.order
        junk = ["", "(", ")", "()", "(;)", "1,1", "(1;1)", "(" + ",".join(["1"] * k) + ";1)",
                "(" + ",".join(["1"] * (k + 1)) + ";1)", names[-1] + " ", names[-1][1:],
                names[-1][:-1], names[-1].replace(";", ","), "#1", "nosuch"]
        least = _scan_index(W)
        for name in names + junk:
            assert _index_or_none(W, name) == least.get(name), (W, name)
        assert [W.index_of(n) for n in names] == list(W.elements())


def test_index_of_returns_the_least_of_several_readings():
    # base names that are comma-joined runs of other names: "1,1" reads as
    # one coordinate or two, so one name can belong to several elements
    H = FiniteGroup(cyclic(4).table, ["1", "1,1", "a", "1,a"])
    pieces = ["1", "1,1", "a", "1,a", ",", ";"]
    rng = random.Random(5)
    for top in (cyclic(2), cyclic(3)):
        W = WreathGroup(H, top)
        names = [W.element_name(x) for x in W.elements()]
        assert len(set(names)) < len(names)
        made = ["(" + ",".join(rng.choice(pieces) for _ in range(rng.randint(1, 7)))
                + ";" + rng.choice(top.names) + ")" for _ in range(1500)]
        least = _scan_index(W)
        for name in names + made:
            assert _index_or_none(W, name) == least.get(name), name


def test_a_nested_product_binds_by_index_only():
    W = WreathGroup(c2wrc2(), cyclic(2))
    for name in [W.element_name(x) for x in W.elements()][1:] + ["(1,1;1)", "(;)", "nosuch"]:
        assert _index_or_none(W, name) is None, name
    assert W.index_of("1") == W.identity
    text = "vars: x\ncoeffs: c\nbind: @group c={}\neq: x c\n"
    name = W.element_name(5)
    with pytest.raises(ValidationError) as info:
        parse_system(text.format(name), group=W)
    assert str(info.value) == (f"wreath product has no element named {name!r} "
                               "(hint: #<index> bindings always work)")
    assert parse_system(text.format("#5"), group=W).binding.values == {"c": 5}


def test_unknown_wreath_name_is_reported_without_a_scan(tmp_path, monkeypatch):
    from groupeq.cli import main
    path = tmp_path / "big.sys"
    path.write_text("vars: x\ncoeffs: c\nbind: @group c=nosuch\neq: x c\n", encoding="utf-8")
    args = ["wreath-transform", str(path), "--base", "@catalog/004_c4.grp",
            "--top", "@catalog/008_c8.grp", "--prime", "2"]
    calls = []
    for method in ("element_name", "decode"):        # a scan names or decodes every element
        original = getattr(WreathGroup, method)
        monkeypatch.setattr(WreathGroup, method, lambda self, x, f=original, m=method:
                            calls.append(m) or f(self, x))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    assert code == 2
    assert err.getvalue() == ("error: wreath product has no element named 'nosuch' "
                              "(hint: #<index> bindings always work)\n")
    assert len(calls) <= 10, len(calls)            # order 524,288: a scan makes ~10^6 calls
