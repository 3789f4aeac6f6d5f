import functools
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from conftest import python_env, run_python

import groupeq
from groupeq.algebra import AlgebraMatrix
from groupeq.catalog import resolve_data_path
from groupeq.cli import main
from groupeq.config import parse_config_text
from groupeq.errors import ParseError

SCENARIOS = [
    (["analyze-system", "@examples/example0.sys"], 0),
    (["--format", "structured", "analyze-system", "@examples/example0.sys",
      "--prime", "17"], 0),
    (["group", "@catalog/024_s4.grp", "--subgroups"], 0),
    (["classify", "@catalog/042_f42.grp"], 0),
    (["--format", "structured", "classify", "@catalog/012_a4.grp"], 0),
    (["audit-catalog", "--orders", "12,20"], 0),
    (["certify-rows", "@examples/rows_demo.alg"], 0),
    (["certify-rows", "@examples/rows_rational.alg"], 1),
    (["counterexample", "--p", "2", "--q", "3"], 0),
    (["--format", "structured", "counterexample", "--p", "2", "--q", "3"], 0),
    (["counterexample", "--p", "2", "--q", "5", "--symbolic"], 0),
    (["solve", "@examples/solve_demo.sys"], 0),
    (["wreath-transform", "@examples/wreath_demo.sys",
      "--base", "@catalog/002_c2.grp", "--top", "@catalog/002_c2.grp",
      "--prime", "2"], 0),
    (["enumerate", "8"], 0),
]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv,expected", SCENARIOS,
                         ids=[" ".join(a) for a, _ in SCENARIOS])
def test_scenarios_exit_codes(argv, expected):
    code, out, _ = run_cli(argv)
    assert code == expected
    assert out.strip()


def test_analyze_system_output_values():
    code, out, _ = run_cli(["analyze-system", "@examples/example0.sys"])
    assert code == 0
    assert "determinant: -5" in out
    assert "singular primes: {5}" in out
    assert "unimodular: no" in out
    assert "p=5 NO" in out and "p=2 yes" in out


def test_structured_output_round_trips():
    for argv in (["--format", "structured", "analyze-system",
                  "@examples/example0.sys"],
                 ["--format", "structured", "classify",
                  "@catalog/042_f42.grp"],
                 ["--format", "structured", "counterexample",
                  "--p", "2", "--q", "3"],
                 ["--format", "structured", "audit-catalog",
                  "--orders", "12"],
                 ["--format", "structured", "solve",
                  "@examples/solve_demo.sys"],
                 ["--format", "structured", "group", "@catalog/012_a4.grp",
                  "--subgroups"],
                 ["--format", "structured", "enumerate", "6"],
                 ["--format", "structured", "certify-rows",
                  "@examples/rows_demo.alg"],
                 ["--format", "structured", "wreath-transform",
                  "@examples/wreath_demo.sys", "--base",
                  "@catalog/002_c2.grp", "--top", "@catalog/002_c2.grp",
                  "--prime", "2"]):
        code, out, _ = run_cli(argv)
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True) == out.strip()


def test_structured_analyze_fields():
    _, out, _ = run_cli(["--format", "structured", "analyze-system",
                         "@examples/example0.sys"])
    d = json.loads(out)
    assert d["matrix"] == [[2, -3, 0], [0, 0, 1], [1, 1, 1]]
    assert d["determinant"] == -5
    assert d["classification"]["singular_primes"] == [5]
    assert d["classification"]["unimodular"] is False
    assert d["p_nonsingular"]["5"] is False
    assert d["p_nonsingular"]["2"] is True


def test_missing_file_is_operational_error():
    code, out, err = run_cli(["solve", "missing.sys"])
    assert code == 2
    assert "error:" in err


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_solve_group_flag(tmp_path):
    sysfile = tmp_path / "s.sys"
    sysfile.write_text("vars: x\ncoeffs: g\nbind: @group g=#1\neq: x g\n")
    grpfile = tmp_path / "g.grp"
    grpfile.write_text("group C4 order 4\ntable:\n0 1 2 3\n1 2 3 0\n"
                       "2 3 0 1\n3 0 1 2\n")
    code, out, _ = run_cli(["solve", str(sysfile), "--group", str(grpfile)])
    assert code == 0
    assert "x = g3" in out


def test_solve_unsolvable_exits_1(tmp_path):
    sysfile = tmp_path / "s.sys"
    # x^2 = g with g a generator of C4: no solution
    sysfile.write_text("vars: x\ncoeffs: g\nbind: @group g=#1\neq: x^2 g^-1\n")
    grpfile = tmp_path / "g.grp"
    grpfile.write_text("group C4 order 4\ntable:\n0 1 2 3\n1 2 3 0\n"
                       "2 3 0 1\n3 0 1 2\n")
    code, out, _ = run_cli(["solve", str(sysfile), "--group", str(grpfile)])
    assert code == 1
    assert "no solution" in out
    assert "4 assignments" in out


def test_audit_deviation_exit_code(tmp_path):
    # a fake "catalog" where the only group of an audited order has no
    # witness cannot exist mathematically; instead check the counts gate:
    # one order-12 file alone fails the per-order completeness count
    src = (pytest.importorskip("groupeq.catalog").bundled_catalog_dir()
           / "012_a4.grp")
    (tmp_path / "012_a4.grp").write_text(src.read_text())
    code, out, _ = run_cli(["audit-catalog", str(tmp_path)])
    assert code == 1
    assert "counts match the classification: False" in out


def test_config_file_sets_format(tmp_path, monkeypatch):
    conf = tmp_path / "groupeq.conf"
    conf.write_text("output_format = structured\nclassify_primes = 2,5\n")
    code, out, _ = run_cli(["--config", str(conf), "analyze-system",
                            "@examples/example0.sys"])
    assert code == 0
    d = json.loads(out)
    assert set(d["p_nonsingular"]) == {"2", "5"}
    # flags override the file
    code, out, _ = run_cli(["--config", str(conf), "--format", "text",
                            "analyze-system", "@examples/example0.sys"])
    assert out.startswith("system:")


def test_config_env_var(tmp_path, monkeypatch):
    conf = tmp_path / "c.conf"
    conf.write_text("jobs = 3\n")
    monkeypatch.setenv("GROUPEQ_CONFIG", str(conf))
    from groupeq.config import load_config
    assert load_config().jobs == 3


def test_config_parse_errors():
    with pytest.raises(ParseError):
        parse_config_text("nonsense\n")
    with pytest.raises(ParseError):
        parse_config_text("unknown_key = 3\n")
    assert parse_config_text("# comment\n\njobs = 2\n").jobs == 2
    for primes, bad in (("4", 4), ("2, 0", 0)):
        with pytest.raises(ParseError, match=f"^config line 1: bad value for "
                                             f"classify_primes: {bad} is not prime$"):
            parse_config_text(f"classify_primes = {primes}\n")


def test_jobs_do_not_change_output():
    for argv, _ in SCENARIOS:
        if "--format" in argv:
            continue
        _, out1, _ = run_cli(["--jobs", "1"] + argv)
        _, out4, _ = run_cli(["--jobs", "4"] + argv)
        assert out1 == out4, argv


def test_enumerate_over_cap_is_operational_error():
    code, _, err = run_cli(["enumerate", "13"])
    assert code == 2
    assert "capped" in err


def test_analyze_extra_prime_flag():
    code, out, _ = run_cli(["analyze-system", "@examples/example0.sys",
                            "--prime", "17"])
    assert code == 0
    assert "p=17 yes" in out


S3 = "@catalog/006_s3.grp"
MALFORMED = {
    "--jobs 0": (["--jobs", "0", "classify", S3], {}),
    "jobs = 0": (["--config", "c.conf", "classify", S3], {"c.conf": b"jobs = 0\n"}),
    "brute_force_cap = 0": (["--config", "c.conf", "classify", S3],
                            {"c.conf": b"brute_force_cap = 0\n"}),
    "output_format = xml": (["--config", "c.conf", "classify", S3],
                            {"c.conf": b"output_format = xml\n"}),
    # MAX_TABLE_ORDER bounds every table; there is no table-cap key
    "closure_cap = 5": (["--config", "c.conf", "classify", S3],
                        {"c.conf": b"closure_cap = 5\n"}),
    "wreath_table_cap = 5": (["--config", "c.conf", "classify", S3],
                             {"c.conf": b"wreath_table_cap = 5\n"}),
    # a configured prime is checked when the file is read, by every command
    "classify_primes = 4": (["--config", "c.conf", "group", S3],
                            {"c.conf": b"classify_primes = 4\n"}),
    "classify_primes = 2, 0": (["--config", "c.conf", "analyze-system", "@examples/example0.sys"],
                               {"c.conf": b"classify_primes = 2, 0\n"}),
    "algebra p=x": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=x\nrow: 1\n"}),
    "torsion=z": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=2 torsion=z\nrow: 1\n"}),
    "free=y": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=2 free=y\nrow: 1\n"}),
    "non-UTF-8 file": (["group", "g.grp"], {"g.grp": b"group G order 1\ntable:\n\xff\n"}),
    "x^99999999": (["analyze-system", "s.sys"], {"s.sys": b"vars: x\neq: x^99999999\n"}),
    "(x^100000)^100000": (["analyze-system", "s.sys"],
                          {"s.sys": b"vars: x\neq: (x^100000)^100000\n"}),
    # integer literals past the interpreter's 4,300-digit int-to-str limit
    "x^<5000 digits>": (["analyze-system", "s.sys"],
                        {"s.sys": b"vars: x\neq: x^" + b"9" * 5000 + b"\n"}),
    "#<5000 digits>": (["analyze-system", "s.sys"],
                       {"s.sys": b"vars: x\ncoeffs: g\nbind: @catalog/003_c3.grp g=#"
                                 + b"1" * 5000 + b"\neq: x = g\n"}),
    "row: x1^<5000 digits>": (["certify-rows", "r.alg"],
                              {"r.alg": b"algebra p=2 torsion=1\nrow: x1^" + b"1" * 5000
                                        + b"\n"}),
    "row: <5000 digits>": (["certify-rows", "r.alg"],
                           {"r.alg": b"algebra p=2 torsion=1\nrow: " + b"1" * 5000 + b"\n"}),
    "torsion=20000": (["certify-rows", "r.alg"],
                      {"r.alg": b"algebra p=2 torsion=20000\nrow: 0\n"}),
    "torsion=1000000000": (["certify-rows", "r.alg"],
                           {"r.alg": b"algebra p=2 torsion=1000000000\nrow: 0\n"}),
    "p=2 ... p=3": (["certify-rows", "r.alg"],
                    {"r.alg": b"algebra p=2 torsion=1 free=0 p=3\nrow: 1\n"}),
    # every header key is one of p, torsion, free; rational takes no p
    "tosion=3": (["certify-rows", "r.alg"],
                 {"r.alg": b"algebra p=2 torsion=1 tosion=3\nrow: 1\n"}),
    "rational p=3": (["certify-rows", "r.alg"],
                     {"r.alg": b"algebra rational p=3 free=1\nrow: 1\n"}),
    # a sign needs a term after it
    "row: 1 -": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=2 torsion=1\nrow: 1 -\n"}),
    # a table has n lines of n entries, not just n*n entries in all
    "table: 0 1 1 / 0": (["group", "g.grp"], {"g.grp": b"group X order 2\ntable:\n0 1 1\n0\n"}),
    # a system binds once, and only its declared coefficients
    "two bind lines": (["solve", "s.sys"],
                       {"s.sys": b"vars: x\ncoeffs: g\nbind: @catalog/003_c3.grp g=#1\n"
                                 b"bind: @catalog/002_c2.grp g=#1\neq: x = g\n"}),
    "g=#1 g=#2": (["solve", "s.sys"],
                  {"s.sys": b"vars: x\ncoeffs: g\nbind: @catalog/003_c3.grp g=#1 g=#2\n"
                            b"eq: x = g\n"}),
    "h=#1": (["solve", "s.sys"],
             {"s.sys": b"vars: x\ncoeffs: g\nbind: @catalog/003_c3.grp g=#1 h=#1\n"
                       b"eq: x = g\n"}),
    # each symbol is declared once, as a variable or as a coefficient
    "vars: x x": (["analyze-system", "s.sys"], {"s.sys": b"vars: x x\neq: x\n"}),
    "coeffs: a a": (["analyze-system", "s.sys"], {"s.sys": b"vars: x\ncoeffs: a a\neq: x\n"}),
    "vars: x coeffs: x": (["analyze-system", "s.sys"],
                          {"s.sys": b"vars: x\ncoeffs: x\neq: x\n"}),
    # an empty path is a missing file, not Path(""), the current directory
    "--config=": (["--config=", "enumerate", "4"], {}),
    'classify ""': (["classify", ""], {}),
}


@pytest.mark.parametrize("argv,files", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_operational_error(tmp_path, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--config=", "enumerate", "4"], ["classify", ""]])
def test_empty_path_is_named(argv):
    assert run_cli(argv) == (2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_duplicate_symbol_is_named(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for key, message in [("vars: x x", "symbol 'x' is declared twice"),
                         ("coeffs: a a", "symbol 'a' is declared twice"),
                         ("vars: x coeffs: x", "symbol 'x' is both a variable and a coefficient")]:
        argv, files = MALFORMED[key]
        (tmp_path / "s.sys").write_bytes(files["s.sys"])
        assert run_cli(argv) == (2, "", f"error: {message}\n"), key


def test_cli_runs_without_numpy_or_a_thread_pool():
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None      # any numpy import now fails
        from groupeq.cli import main
        assert main(["classify", "@catalog/042_f42.grp"]) == 0
        assert "concurrent.futures" not in sys.modules
    """)
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr


def test_cli_starts_without_dataclasses_or_inspect():
    script = textwrap.dedent("""
        import json, sys
        before = set(sys.modules)
        from groupeq.cli import build_parser, main
        build_parser()
        loaded = {"dataclasses", "inspect"} & (set(sys.modules) - before)
        assert not loaded, f"starting the CLI loaded {sorted(loaded)}"
        sys.modules["dataclasses"] = None      # any dataclasses import now fails
        for argv, expected in json.loads(sys.argv[1]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            assert code == expected, (argv, code)
    """)
    runs = SCENARIOS + [(["--help"], 0)]
    proc = run_python(script, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr


PUBLIC_NAMES = """
    AbelianGroupSpec AlgebraElement AlgebraMatrix IntegralGroupSpec RowFamily augmentation
    augmentation_matrix certify_non_zero_divisor certify_row_independence
    decide_row_independence find_annihilating_combination
    is_zero_divisor nilpotent_basis_expansion regular_representation Config DEFAULT_CONFIG
    load_config AbelianSolution Classification EquationSystem SmithDecomposition classify
    classify_matrix det_int evaluate_word exponent_matrix parse_system parse_system_file
    rank_mod_p smith_normal_form solve_abelian_p_system CapExceeded GroupEqError
    ParseError ValidationError FiniteGroup Homomorphism Subgroup all_subgroups automorphisms
    center commutator_subgroup cyclic derived_series direct_product from_generators
    is_metabelian is_nilpotent isomorphic load_group load_group_file normal_subgroups
    quotient subgroup sylow_subgroup trivial_group enumerate_groups AuditReport BruteForceResult ClassificationReport
    CounterexampleInstance ObstructionReport PGroupReport PqOrderReport Witness
    abelian_by_abelian_p_witness audit_catalog brute_force_solve classify_group
    counterexample_build group_obstruction obstruction_check p_group_equation_check
    pq_structure_check Letter Word exponent_sum format_word parse_word TransformedSystem
    WreathGroup extract_rows kaloujnine_krasner coordinatewise_transform
    normalize_top_component reconstruct_solution""".split()


# commands run in one fresh interpreter, and the groupeq modules they must not load
IMPORT_CASES = [
    ([(["certify-rows", "r.alg"], 0), (["certify-rows", "@examples/rows_demo.alg"], 0),
      (["certify-rows", "refuted.alg"], 1)], ["verifiers", "wreath", "smallgroups"]),
    ([(["--format", "structured", "classify", "@catalog/012_a4.grp"], 0),
      (["solve", "@examples/solve_demo.sys"], 0),
      (["audit-catalog", "--orders", "12"], 0)], ["algebra", "wreath"]),
]


def _both_formats(runs):
    """*runs* in text form, then each in structured form."""
    text = [(argv[2:] if argv[:2] == ["--format", "structured"] else argv, code)
            for argv, code in runs]
    return text + [(["--format", "structured", *argv], code) for argv, code in text]


def test_cli_loads_no_argparse_or_json_and_only_the_layers_a_command_uses(tmp_path):
    (tmp_path / "r.alg").write_text("algebra rational free=1\nrow: 1 ; 2\nrow: t1 ; 3\n")
    (tmp_path / "refuted.alg").write_text("algebra p=2 torsion=1\nrow: 1 + x1\n")
    script = textwrap.dedent("""
        import ast, contextlib, io, os, sys
        runs, unloaded, names = ast.literal_eval(sys.argv[1])
        os.chdir(sys.argv[2])
        ours = lambda: {m for m in sys.modules if m.split(".")[0] == "groupeq"}
        before = set(sys.modules)
        argparse_or_json = lambda: {"argparse", "gettext", "locale", "json"} & (
            set(sys.modules) - before)
        from groupeq.cli import main
        loaded = {"fractions", "decimal"} & (set(sys.modules) - before) | argparse_or_json()
        assert not loaded, f"importing the CLI loaded {sorted(loaded)}"
        assert ours() == {"groupeq", "groupeq.cli", "groupeq.config", "groupeq.errors",
                          "groupeq.record"}, sorted(ours())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = [main(argv) for argv, _ in runs]
        assert codes == [code for _, code in runs], (codes, out.getvalue())
        loaded = ours() & {"groupeq." + m for m in unloaded}
        assert not loaded, f"the commands loaded {sorted(loaded)}"
        assert not argparse_or_json(), f"the commands loaded {sorted(argparse_or_json())}"
        import groupeq
        assert groupeq.smallgroups.__name__ == "groupeq.smallgroups"
        assert not hasattr(groupeq, "nosuch")
        assert groupeq.__all__ == names and set(names) <= set(dir(groupeq))
        star = {}
        exec("from groupeq import *", star)
        assert all(star[n] is getattr(groupeq, n) for n in names)
        print(out.getvalue(), end="")
    """)
    outputs = []
    for runs, unloaded in IMPORT_CASES:
        proc = run_python(script, repr((_both_formats(runs), unloaded, PUBLIC_NAMES)),
                          str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "verdict: certified\n" in outputs[0]         # over Q, by Fraction
    structured = [json.loads(line) for line in outputs[1].splitlines() if line[:1] == "{"]
    assert structured[0]["metabelian"] is True and len(structured) == 3


def test_help_version_and_usage_errors_come_from_argparse():
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from groupeq import __version__
        from groupeq.cli import main
        results = []
        for argv in json.loads(sys.argv[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            results.append([code, out.getvalue(), err.getvalue()])
        results.append([__version__, "argparse" in sys.modules, "json" in sys.modules])
        print(json.dumps(results))
    """)
    cases = [["--help"], ["solve", "--help"], ["--version"],
             ["solve", "@examples/solve_demo.sys", "--desc"],
             ["solve", "@examples/solve_demo.sys", "--descending"], ["nosuch"]]
    proc = run_python(script, json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    (top, solve, version, desc, descending, unknown, (number, argparse, _)) = \
        json.loads(proc.stdout)
    assert top[0] == 0 and top[1].startswith("usage: groupeq [-h] [--version]") and not top[2]
    assert "{analyze-system,group,classify," in top[1] and "GROUPEQ_CONFIG" in top[1]
    assert solve[0] == 0 and solve[1].startswith("usage: groupeq solve [-h] [--group GROUP]")
    assert "scan assignments in descending order" in solve[1]
    assert version == [0, number + "\n", ""]
    assert desc == descending and desc[0] == 0
    assert unknown[0] == 2 and not unknown[1]
    assert unknown[2].endswith("error: argument command: invalid choice: 'nosuch' (choose from "
                               "'analyze-system', 'group', 'classify', 'audit-catalog', "
                               "'wreath-transform', 'certify-rows', 'counterexample', "
                               "'solve', 'enumerate')\n")
    assert argparse                                   # help and errors are argparse's


def _table_argv(st):
    """argv for `test_table_parser_reads_argv_as_argparse_does`: the required
    arguments of a command with valid values, at times one left out, in any
    order among pieces made of the command table's tokens, many of which only
    argparse reads: abbreviations, "=" forms, "--", "-h", negative,
    non-integer and missing values, stray positionals, and global options
    after the command."""
    from groupeq.cli import COMMANDS, GLOBAL_OPTIONS
    value = st.sampled_from(["s.sys", "@catalog/006_s3.grp", "2", "5", " 7", "1_0", "text",
                             "structured", "classify", "", "-3", "x", "3.5", "-", "--", "json"])

    def piece(item):
        name = item[0]
        if not name.startswith("-"):
            return value.map(lambda v: [v])
        option = st.sampled_from([name] * 4 + [name[:-1], "-h", "--"])
        pair = st.builds(lambda o, v: [o, v], option, value)
        return st.one_of(option.map(lambda o: [o]), pair, pair,
                         st.builds(lambda o, v: [f"{o}={v}"], option, value))

    def exact(item):
        name, (kind, _, _) = item
        v = {"str": "s.sys", "int": "2", "append": "5", "flag": None}.get(kind, "structured")
        return [name] * name.startswith("-") + [v] * (v is not None)

    def pieces(items, size):
        item = st.sampled_from(items)
        return st.lists(item.map(exact) | item.flatmap(piece), max_size=size)

    def after(command):
        arguments = COMMANDS[command][2] if command in COMMANDS else {}
        valid = [exact(item) for item in arguments.items() if item[1][1]]
        kept = st.permutations(valid).flatmap(lambda vs: st.sampled_from([vs, vs, vs[1:]]))
        more = pieces(list(arguments.items()) * 3 + list(GLOBAL_OPTIONS.items()), 3)
        return st.tuples(kept, more).flatmap(lambda t: st.permutations(t[0] + t[1])).map(
            lambda ps: [command] + sum(ps, []))

    return st.builds(lambda before, rest: sum(before, []) + rest,
                     pieces(list(GLOBAL_OPTIONS.items()), 2),
                     st.sampled_from([*COMMANDS, "nosuch"]).flatmap(after))


def _argparse_namespace(parser, argv) -> dict:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"argparse refuses {argv}")


def test_table_parser_reads_argv_as_argparse_does():
    """Whenever the table parser reads an argv, its namespace is argparse's."""
    hypothesis = pytest.importorskip("hypothesis")
    from groupeq.cli import build_parser, parse_args
    parser, read = build_parser(), []

    @hypothesis.settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @hypothesis.given(_table_argv(hypothesis.strategies))
    @hypothesis.example(["audit-catalog", "--orders", "6", "d", "--orders", "8"])
    @hypothesis.example(["--format", "text", "--jobs", "0", "--format", "structured",
                         "analyze-system", "--prime", "2", "s.sys", "--prime", " 3"])
    @hypothesis.example(["--config", "classify", "classify", "classify"])
    def check(argv):
        ns = parse_args(argv)
        read.append(ns is not None)
        if ns is not None:
            got, expected = vars(ns), _argparse_namespace(parser, argv)
            assert got.pop("func") is expected.pop("func")
            assert got == expected

    check()
    assert read.count(True) >= 50 and read.count(False) >= 50, read.count(True)


def test_scenarios_are_read_without_argparse():
    from groupeq.cli import build_parser, parse_args
    parser = build_parser()
    for argv, _ in _both_formats(SCENARIOS):
        got, expected = vars(parse_args(argv)), _argparse_namespace(parser, argv)
        assert got.pop("func") is expected.pop("func") and got == expected, argv


def test_json_writer_matches_json_dumps(monkeypatch):
    from _json import encode_basestring_ascii as quote
    from groupeq import cli
    payloads, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda args, payload, lines: payloads.append(payload)
                        or emit(args, payload, lines))
    for argv, expected in SCENARIOS:
        assert run_cli(argv)[0] == expected
    assert len(payloads) == len(SCENARIOS)
    for payload in payloads:
        assert cli.dumps(payload, quote) == json.dumps(payload, sort_keys=True)
    for bad in (0.5, {"a": [1, 2.0]}, {"a": {1, 2}}, [Path(".")]):
        with pytest.raises(TypeError):
            cli.dumps(bad, quote)

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    text = st.text(st.characters(exclude_categories=()))          # surrogates included
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.integers(-10**30, 10**30) | text,
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(text, inner, max_size=4), max_leaves=12)

    @hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hypothesis.given(values)
    @hypothesis.example(["\U0001f600\ud800\x00\x1f\"\\\u2028/", {"": None, "\x7f": True}])
    def check(x):
        assert cli.dumps(x, quote) == json.dumps(x, sort_keys=True)

    check()


def test_audit_reports_a_non_utf8_file_and_goes_on(tmp_path):
    src = resolve_data_path(S3)
    (tmp_path / "006_s3.grp").write_text(src.read_text(encoding="utf-8"))
    (tmp_path / "bad.grp").write_bytes(b"group G order 1\ntable:\n\xff\n")
    code, out, err = run_cli(["audit-catalog", str(tmp_path)])
    assert code != 2 and err == ""
    assert "bad.grp: LOAD ERROR: " in out and "not UTF-8" in out
    assert "006_s3.grp: order 6, metabelian, witness" in out


def test_audit_reports_an_unreadable_file_and_goes_on(tmp_path):
    src = resolve_data_path("@catalog/004_c4.grp")
    (tmp_path / "004_c4.grp").write_text(src.read_text(encoding="utf-8"))
    (tmp_path / "x.grp").mkdir()
    code, out, err = run_cli(["audit-catalog", str(tmp_path)])
    assert code != 2 and err == ""
    assert any(line.startswith("x.grp: LOAD ERROR: ") for line in out.splitlines())
    assert "004_c4.grp: order 4, metabelian, witness" in out


def test_non_utf8_error_names_the_file(tmp_path):
    bad = tmp_path / "bad.grp"
    bad.write_bytes(b"group G order 1\ntable:\n\xff\n")
    code, out, err = run_cli(["group", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err


def test_audit_orders_must_be_integers():
    code, out, err = run_cli(["audit-catalog", "--orders", "12,x"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--orders" in err


@pytest.mark.parametrize("orders", ["9999", "9999,10000", ",", " "])
def test_audit_orders_that_select_no_file_are_operational_errors(orders):
    code, out, err = run_cli(["audit-catalog", "--orders", orders])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--orders" in err


def test_audit_empty_orders_audits_everything():
    code, out, err = run_cli(["audit-catalog", "--orders", ""])
    assert (code, out, err) == run_cli(["audit-catalog"])
    assert code == 0 and "orders audited: 1, 2, 3," in out


@pytest.mark.parametrize("kind", ["missing", "file", "no .grp file"])
def test_audit_of_a_directory_without_group_files_is_an_operational_error(tmp_path, kind):
    # a typo in DIR must not read as a passed audit
    target = tmp_path / "catalog"
    if kind == "file":
        target.write_text(resolve_data_path(S3).read_text(encoding="utf-8"))
    elif kind == "no .grp file":
        target.mkdir()
        (target / "notes.txt").write_text("group C1 order 1\n")
    code, out, err = run_cli(["audit-catalog", str(target)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(target) in err


WREATH_DEMO = ["wreath-transform", "@examples/wreath_demo.sys", "--base",
               "@catalog/002_c2.grp", "--top", "@catalog/002_c2.grp", "--prime", "2"]

WREATH_DEMO_SYSTEM = """\
# transformed system over the base group C2
vars: y_x_0 y_x_1
coeffs: c1
bind: @catalog/002_c2.grp c1=(1,2)
eq: y_x_0 y_x_1 y_x_0 c1
eq: y_x_1 y_x_0 y_x_1"""

# two equations over C3 wr C3 whose variable change is nontrivial
WREATH_C3_FILE = """\
vars: x y
coeffs: c1 c2 c3
bind: @group c1=#56 c2=#44 c3=#73
eq: x^(c3) (c3 x)
eq: x^-1^(c1) y^(c2) (c3 y) [y,c2]
"""

WREATH_C3_SYSTEM = """\
# transformed system over the base group C3
vars: y_x_0 y_x_1 y_x_2 y_y_0 y_y_1 y_y_2
coeffs: c1 c2
bind: @catalog/003_c3.grp c1=(1,3,2) c2=(1,2,3)
eq: y_x_2 c1 c1 y_x_2
eq: c2 y_x_0 c1 y_x_0
eq: c2 y_x_1 c1 y_x_1
eq: y_x_0^-1 c1 c1 y_y_0 c2 y_y_0 y_y_0^-1 c1 y_y_1 c2
eq: y_x_1^-1 c1 y_y_1 c2 c1 y_y_1 y_y_1^-1 c2 y_y_2 c1
eq: c2 y_x_2^-1 c2 y_y_2 c1 c1 y_y_2 y_y_2^-1 c1 y_y_0 c2"""


def test_wreath_transform_golden_output(tmp_path):
    # the exact text and the structured system and beta fields
    code, out, err = run_cli(WREATH_DEMO)
    assert (code, err) == (0, "")
    assert out == "\n".join([
        "wreath product: C2 wr C2 (order 8)",
        "variable change beta: x -> x*1",
        WREATH_DEMO_SYSTEM,
        "# rows m[j,1] over the top-group algebra",
        "algebra p=2 torsion=1 free=0",
        "row: x1",
        "translation identity m[j,b] = b*m[j,1]: True",
        "augmentation equals exponent row mod 2: True",
        "rows certified independent: True"]) + "\n"
    code, out, _ = run_cli(["--format", "structured"] + WREATH_DEMO)
    payload = json.loads(out)
    assert code == 0
    assert (payload["system"], payload["beta"]) == (WREATH_DEMO_SYSTEM, {"x": "1"})

    path = tmp_path / "c3.sys"
    path.write_text(WREATH_C3_FILE)
    argv = ["wreath-transform", str(path), "--base", "@catalog/003_c3.grp",
            "--top", "@catalog/003_c3.grp", "--prime", "3"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert out == "\n".join([
        "wreath product: C3 wr C3 (order 81)",
        "variable change beta: x -> x*(1,2,3), y -> y*1",
        WREATH_C3_SYSTEM,
        "# rows m[j,1] over the top-group algebra",
        "algebra p=3 torsion=1 free=0",
        "row: 2*x1^2 ; 0",
        "row: 2 ; 1 + x1",
        "translation identity m[j,b] = b*m[j,1]: True",
        "augmentation equals exponent row mod 3: True",
        "rows certified independent: True"]) + "\n"
    code, out, _ = run_cli(["--format", "structured"] + argv)
    payload = json.loads(out)
    assert code == 0
    assert (payload["system"], payload["beta"]) == \
        (WREATH_C3_SYSTEM, {"x": "(1,2,3)", "y": "1"})


def test_p_singular_wreath_refusal_names_only_the_condition():
    # normalization solves the top image inside the top, so a p-singular
    # system is refused rather than given a larger wreath product
    code, out, err = run_cli(["wreath-transform", "@examples/wreath_demo.sys",
                              "--base", "@examples/s3.grp", "--top", "@examples/c3.grp",
                              "--prime", "3"])
    assert (code, out) == (2, "")
    assert err == "error: system is not 3-nonsingular\n"


@pytest.mark.parametrize("torsion", [22, 40])
def test_certify_rows_work_cap_is_checked_before_enumerating(tmp_path, torsion):
    # C_{2^22} and C_{2^40}: the search space 2^(2^k) is far over the cap
    alg = tmp_path / "r.alg"
    alg.write_text(f"algebra p=2 torsion={torsion}\nrow: 0\n")
    code, out, err = run_cli(["certify-rows", str(alg)])
    assert (code, err) == (1, "")
    assert out.endswith("verdict: unknown\n")


def test_certify_rows_decides_families_past_the_old_search_space(tmp_path):
    # 5 rows over Z_2[C4]: p^(4*5) = 2^20 coefficient tuples, a 20 x 40 matrix
    rows = ["1 + x1 ; 0 ; 0 ; 0 ; 0"] + [
        " ; ".join("1" if j == i else "0" for j in range(5)) for i in range(1, 5)]
    alg = tmp_path / "r.alg"
    alg.write_text("algebra p=2 torsion=2\n" + "".join(f"row: {r}\n" for r in rows))
    code, out, err = run_cli(["certify-rows", str(alg)])
    assert (code, err) == (1, "")
    assert out.endswith("verdict: refuted\n")


@pytest.mark.parametrize("header, rows, verdict", [
    ("p=2 torsion=1", "1 + x1", "refuted"), ("p=2 torsion=1", "1 + x1 ; 1", "certified"),
    ("p=2 free=1", "1 + t1", "unknown"), ("rational free=1", "1 - t1", "unknown"),
    ("rational free=1", "1 + t1 ; 1", "certified")])
def test_certify_rows_certifies_once(tmp_path, monkeypatch, header, rows, verdict):
    calls, decisions = [], []
    certify = groupeq.algebra.certify_row_independence
    decide = groupeq.algebra.decide_row_independence
    monkeypatch.setattr(groupeq.algebra, "certify_row_independence",
                        lambda family: calls.append(family) or certify(family))
    monkeypatch.setattr(groupeq.algebra, "decide_row_independence",
                        lambda *args: decisions.append(args) or decide(*args))
    alg = tmp_path / "r.alg"
    alg.write_text(f"algebra {header}\nrow: {rows}\n")
    code, out, err = run_cli(["certify-rows", str(alg)])
    assert (out.splitlines()[-1], err) == (f"verdict: {verdict}", "")
    assert len(calls) == 1 and len(decisions) == 1


def test_ragged_row_file_is_one_error_line(tmp_path):
    alg = tmp_path / "r.alg"
    alg.write_text("algebra p=2 torsion=1\nrow: 1 ; x1\nrow: 1\n")
    assert run_cli(["certify-rows", str(alg)]) == (
        2, "", "error: rows have unequal lengths\n")


def test_analyze_system_builds_one_smith_form(monkeypatch):
    import groupeq.equations as equations
    calls = []
    diagonal = equations._smith_diagonal
    monkeypatch.setattr(equations, "_smith_diagonal", lambda A: calls.append(A) or diagonal(A))
    monkeypatch.setattr(equations, "smith_normal_form",
                        lambda A: pytest.fail("smith_normal_form was called"))
    monkeypatch.setattr(equations, "echelon", lambda *args: pytest.fail("echelon was called"))
    for fmt in ("text", "structured"):
        code, out, err = run_cli(["--format", fmt, "analyze-system", "@examples/example0.sys",
                                  "--prime", "5", "--prime", "17"])
        assert (code, err) == (0, "") and "-5" in out
    assert len(calls) == 2


def test_only_the_abelian_solver_builds_u_and_v(tmp_path, monkeypatch):
    import groupeq.equations as equations
    calls = []
    snf = equations.smith_normal_form
    monkeypatch.setattr(equations, "smith_normal_form", lambda A: calls.append(A) or snf(A))
    rng = random.Random(5)                  # the 40x40 system below
    E = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    names = [f"x{i}" for i in range(1, 41)]
    (tmp_path / "s.sys").write_text("vars: " + " ".join(names) + "\n" + "".join(
        "eq: " + " ".join(f"{v}^{e}" for v, e in zip(names, row) if e) + "\n" for row in E))
    assert run_cli(["analyze-system", str(tmp_path / "s.sys")])[0] == 0
    system = equations.parse_system_file(tmp_path / "s.sys")
    assert equations.classify(system).smith.U is None
    assert equations.is_p_nonsingular(system, 7)
    assert calls == []
    code, out, err = run_cli(["wreath-transform", "@examples/wreath_demo.sys",
                              "--base", "@catalog/002_c2.grp", "--top", "@catalog/002_c2.grp",
                              "--prime", "2"])
    assert (code, err) == (0, "") and len(calls) == 1


def test_analyze_system_factoring_is_bounded(tmp_path):
    """A 40x40 system whose last invariant factor, 36 digits, has the prime
    factors 2, 3, 5, 89, 233 and a 30-digit prime that no trial division finds."""
    rng = random.Random(5)
    E = [[rng.randint(-3, 3) for _ in range(40)] for _ in range(40)]
    names = [f"x{i}" for i in range(1, 41)]
    (tmp_path / "s.sys").write_text("vars: " + " ".join(names) + "\n" + "".join(
        "eq: " + " ".join(f"{v}^{e}" for v, e in zip(names, row) if e) + "\n" for row in E))
    start = time.perf_counter()
    code, out, err = run_cli(["analyze-system", str(tmp_path / "s.sys")])
    assert time.perf_counter() - start < 1
    last, cofactor = 174675638156142092938784497897664010, 280779344739904667886361733291
    assert last == 2 * 3 * 5 * 89 * 233 * cofactor
    assert (code, err) == (0, "")
    assert (f"singular primes: {{2, 3, 5, 89, 233}} (primes dividing the last invariant factor "
            f"{last}; cofactor {cofactor} not factored)") in out.splitlines()
    assert "unimodular: no" in out.splitlines()


def test_huge_primes_are_decided_at_once(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.sys").write_text("vars: x y\neq: x^2 y\neq: x y^3\n")
    code, out, err = run_cli(["analyze-system", "s.sys", "--prime", "1000000000000000003"])
    assert (code, err) == (0, "") and "p=1000000000000000003 yes" in out
    (tmp_path / "r.alg").write_text("algebra p=1000000016000000063\nrow: 1\n")
    code, out, err = run_cli(["certify-rows", "r.alg"])
    assert (code, out, err) == (2, "", "error: 1000000016000000063 is not prime\n")
    code, out, err = run_cli(["counterexample", "--p", str(10 ** 30 + 57), "--q", "2"])
    assert (code, out) == (2, "") and err.startswith("error: cannot decide whether ")


def test_group_file_over_the_table_cap_is_refused_before_its_body(tmp_path):
    # without their caps these inputs need gigabytes: a 40,320 x 40,320
    # table (about 13 GB), a 10^8-point permutation, and exponent tuples of
    # length 10^8 or 10^6 in every algebra term; so each runs in a child
    # process whose address space is capped at 600 MB
    resource = pytest.importorskip("resource")
    cases = [
        ("group", "s8.grp", "group S8 order 40320\ngenerators:\n(1 2)\n(1 2 3 4 5 6 7 8)\n",
         "group order 40320 exceeds the table cap 4096"),
        ("group", "far.grp", "group G order 3\ngenerators:\n(1 99999999)\n",
         "cycle point 99999999 exceeds the point cap 4096"),
        ("certify-rows", "free.alg", "algebra p=2 torsion=1 free=100000000\nrow: 1\n",
         "100000001 generators (torsion factors plus free rank) exceed the cap 64"),
        ("certify-rows", "torsion.alg",
         "algebra p=2 torsion=" + ",".join(["1"] * 10 ** 6) + "\nrow: 1\n",
         "1000000 generators (torsion factors plus free rank) exceed the cap 64"),
    ]
    script = "import sys; from groupeq.cli import main; sys.exit(main(sys.argv[1:]))"
    limit = 600_000 * 1024
    for command, name, text, message in cases:
        (tmp_path / name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", script, command, str(tmp_path / name)], env=python_env(),
            capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")


def test_group_subgroups_past_the_cap_is_refused_from_the_header(tmp_path, monkeypatch):
    import groupeq.groups as groups

    def refuse(*args, **kwargs):
        raise AssertionError("a table was built")
    monkeypatch.setattr(groups, "from_generators", refuse)
    path = tmp_path / "c2_12.grp"          # C2^12: 12 transpositions on 24 points
    path.write_text("group C2^12 order 4096\ngenerators:\n" +
                    "".join(f"({2 * i + 1} {2 * i + 2})\n" for i in range(12)))
    assert run_cli(["group", str(path), "--subgroups"]) == (
        2, "", "error: subgroup enumeration needs order <= 512, got 4096\n")


def test_group_subgroups_reads_the_normal_ones_off_the_lattice(tmp_path, monkeypatch):
    import groupeq.groups as groups
    q8c23 = tmp_path / "q8c23.grp"          # Q8 x C2^3: every subgroup is normal
    q8c23.write_text("group Q8xC2^3 order 64\ngenerators:\n(1 2 3 4)(5 6 7 8)\n"
                     "(1 5 3 7)(2 8 4 6)\n(9 10)\n(11 12)\n(13 14)\n")
    expected = {}
    for path in ("@catalog/024_s4.grp", str(q8c23)):
        G = groups.load_group_file(resolve_data_path(path))
        expected[path] = sorted(S.order for S in groups.normal_subgroups(G))
    monkeypatch.setattr(groups, "normal_subgroups",
                        lambda *args: pytest.fail("normal_subgroups was called"))
    for path, orders in expected.items():
        code, out, err = run_cli(["--format", "structured", "group", path, "--subgroups"])
        assert (code, err) == (0, "") and json.loads(out)["normal_subgroup_orders"] == orders
        code, out, err = run_cli(["group", path, "--subgroups"])
        assert f"normal subgroups: {len(orders)} (orders {orders})" in out.splitlines()
    assert expected["@catalog/024_s4.grp"] == [1, 4, 12, 24] and len(expected[str(q8c23)]) == 425


def _cli_cases(st):
    """Small generated input files and argv for `test_exit_code_contract`.

    Most generated pieces are well-formed, so that commands get past
    parsing; the rest are malformed. Groups stay small (tables up to order
    5, permutations of degree up to 4) and no config value raises a cap, so
    every example runs in milliseconds."""
    def words(symbols):
        ident = st.sampled_from(symbols)
        return st.recursive(
            ident | ident | st.sampled_from(["1", "q", "x^", "(x", "[x,", "^2"]),
            lambda w: st.one_of(
                st.builds("({})^{}".format, w, st.integers(-3, 3)),
                st.builds("{}^({})".format, w, w),
                st.builds("[{},{}]".format, w, w),
                st.builds("{} {}".format, w, w),
                st.builds("{} = {}".format, w, w)),
            max_leaves=6)

    @functools.lru_cache(maxsize=None)     # one strategy per symbol set
    def system(vs, cs):
        return st.builds(
            lambda src, els, eqs, junk: "\n".join(
                ["vars: " + " ".join(vs), "coeffs: " + " ".join(cs),
                 f"bind: {src} " + " ".join(f"{c}={e}" for c, e in zip(cs, els))]
                + ["eq: " + e for e in eqs] + junk) + "\n",
            st.sampled_from(["g.grp", "@group", "@group", "missing.grp"]),
            st.lists(element, min_size=2, max_size=2),
            st.lists(words(list(vs + cs)), min_size=1, max_size=2),
            st.sampled_from([[], [], [], ["eq"], ["foo: 1"], ["vars x"], ["# note"]]))

    element = st.sampled_from(["#0", "#1", "#2", "#3", "#4", "#-1", "#z", "1", "g1", "x"])
    sys_text = st.tuples(
        st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=2, unique=True),
        st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True)
    ).flatmap(lambda vc: system(tuple(vc[0]), tuple(vc[1])))
    n = st.integers(1, 5)
    table = n.flatmap(lambda k: st.one_of(
        st.just([[(i + j) % k for j in range(k)] for i in range(k)]),
        st.lists(st.lists(st.integers(-1, k), min_size=k, max_size=k),
                 min_size=k, max_size=k)).map(lambda rows: (k, rows)))
    cycle = st.lists(st.integers(0, 4), min_size=0, max_size=4).map(
        lambda pts: "(" + " ".join(map(str, pts)) + ")")
    grp_text = st.one_of(
        table.map(lambda t: f"group G order {t[0]}\ntable:\n"
                  + "\n".join(" ".join(map(str, r)) for r in t[1]) + "\n"),
        st.builds(lambda order, gens: f"group G order {order}\ngenerators:\n"
                  + "\n".join(gens) + "\n",
                  st.integers(0, 25), st.lists(cycle, max_size=3)),
        st.sampled_from(["group S3 order 6\ngenerators:\n(1 2)\n(1 2 3)\n",
                         "", "group G order x\ntable:\n0\n", "group G\n"]))
    term = st.sampled_from(["0", "1", "x1", "x1^2", "x2", "t1", "t1^-1", "2*x1",
                            "1 + x1", "x1 - t1", "y", "*"])
    row = st.lists(term, min_size=1, max_size=2).map(lambda es: "row: " + " ; ".join(es))
    header = st.one_of(
        st.builds("algebra p={} torsion={} free={}".format,
                  st.sampled_from([2, 3, 4, 0]),
                  st.sampled_from(["", "1", "2", "1,1", "22", "40", "-1"]),
                  st.integers(-1, 1)),
        st.sampled_from(["algebra rational free=1", "algebra rational torsion=2",
                         "algebra", "ring p=2"]))
    alg_text = st.builds(lambda h, rows: "\n".join([h] + rows) + "\n",
                         header, st.lists(row, max_size=2))
    conf_text = st.lists(st.builds(
        "{} = {}".format,
        st.sampled_from(["jobs", "brute_force_cap", "wreath_order_cap",
                         "enumeration_cap", "subgroup_order_cap", "iso_order_cap",
                         "closure_cap", "classify_primes", "output_format",
                         "seed", "colour"]),
        st.sampled_from(["-1", "0", "1", "2", "12", "2,3", "x", "text",
                         "structured"])), max_size=2).map(lambda ls: "\n".join(ls) + "\n")
    small = st.integers(-1, 6)
    command = st.one_of(
        st.builds(lambda p: ["analyze-system", "s.sys"] + p,
                  st.lists(small, max_size=1).map(
                      lambda ps: [a for p in ps for a in ("--prime", str(p))])),
        st.builds(lambda s: ["group", "g.grp"] + s, st.sampled_from([[], ["--subgroups"]])),
        st.just(["classify", "g.grp"]),
        st.just(["certify-rows", "r.alg"]),
        st.builds(lambda g, d: ["solve", "s.sys"] + g + d,
                  st.sampled_from([[], ["--group", "g.grp"], ["--group", "g.grp"]]),
                  st.sampled_from([[], ["--descending"]])),
        st.builds(lambda b, t, p: ["wreath-transform", "s.sys", "--base", b,
                                   "--top", t, "--prime", str(p)],
                  st.sampled_from(["g.grp", "@catalog/002_c2.grp", "@catalog/001_c1.grp"]),
                  st.sampled_from(["@catalog/002_c2.grp", "@catalog/003_c3.grp",
                                   "@catalog/006_s3.grp"]), small),
        st.builds(lambda p, q, s: ["counterexample", "--p", str(p), "--q", str(q)] + s,
                  small, small, st.sampled_from([[], ["--symbolic"]])),
        st.builds(lambda k: ["enumerate", str(k)], small),
        st.builds(lambda o: ["audit-catalog", "."] + o,
                  st.sampled_from([[], ["--orders", "1,2"], ["--orders", "x"]])))
    options = st.builds(
        lambda j, c, f: j + c + f,
        st.lists(st.integers(0, 4), max_size=1).map(
            lambda js: [a for j in js for a in ("--jobs", str(j))]),
        st.sampled_from([[], [], ["--config", "c.conf"]]),
        st.sampled_from([[], ["--format", "structured"], ["--format", "text"]]))
    return st.fixed_dictionaries({
        "argv": st.builds(lambda o, c: o + c, options, command),
        "files": st.fixed_dictionaries({
            "s.sys": sys_text, "g.grp": grp_text, "r.alg": alg_text,
            "c.conf": conf_text})})


def test_exit_code_contract(monkeypatch):
    """Generated files and flag values: exit 0, 1 or 2 and never an
    exception; exit 2 prints nothing on stdout and one error line, exit 1
    prints a verdict."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=100, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(_cli_cases(hypothesis.strategies))
    @hypothesis.example({"argv": ["certify-rows", "r.alg"], "files": {
        "r.alg": "algebra p=2 torsion=1\nrow: 1 + x1\n"}})       # refuted
    @hypothesis.example({"argv": ["audit-catalog", "."], "files": {
        "g.grp": "group C4 order 4\ntable:\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"}})
    @hypothesis.example({"argv": ["counterexample", "--p", "113", "--q", "127",
                                  "--symbolic"], "files": {}})   # 4,324-digit order
    @hypothesis.example({"argv": ["analyze-system", "s.sys", "--prime",
                                  "1000000000000000003"],
                         "files": {"s.sys": "vars: x\neq: x^2\n"}})
    @hypothesis.example({"argv": ["certify-rows", "r.alg"], "files": {   # (1e9+7)(1e9+9)
        "r.alg": "algebra p=1000000016000000063\nrow: 1\n"}})
    @hypothesis.example({"argv": ["certify-rows", "r.alg"], "files": {   # ragged rows
        "r.alg": "algebra p=2 torsion=1\nrow: 1 ; x1\nrow: 1\n"}})
    def check(case):
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in case["files"].items():
                Path(tmp, name).write_text(text, encoding="utf-8")
            monkeypatch.chdir(tmp)
            code, out, err = run_cli(case["argv"])
        assert code in (0, 1, 2)
        if code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        if code == 1:
            assert out.strip() and err == ""

    check()


def test_certify_rows_exits_2_on_an_internal_fault(tmp_path, monkeypatch):
    rows = tmp_path / "r.alg"
    rows.write_text("algebra p=2 torsion=1\nrow: 1 ; 1\nrow: x1 ; x1\n")
    assert run_cli(["certify-rows", str(rows)])[:2] == (1, "algebra: Z_2[C2]\n"
                                                          "rows: 2\nverdict: refuted\n")
    monkeypatch.setattr(AlgebraMatrix, "is_zero", lambda self: False)
    code, out, err = run_cli(["certify-rows", str(rows)])
    assert (code, out) == (2, "")
    assert err.startswith("error: internal error") and err.count("\n") == 1
    monkeypatch.undo()
    monkeypatch.setattr(groupeq.algebra, "find_annihilating_combination", lambda *args: None)
    assert run_cli(["certify-rows", str(rows)]) == (
        2, "", "error: internal error: open rows have no annihilating combination\n")


# ---------------------------------------------------------------------------
# the process entry: the `groupeq` console script and `python -m groupeq.cli`
# call main() without argv, and main ends the process itself

ENTRY = "import sys; from groupeq.cli import main; sys.exit(main())"
A4 = "@catalog/012_a4.grp"


def run_entry(argv, script=ENTRY, unbuffered=False, **kwargs) -> subprocess.CompletedProcess:
    """*argv* through *script* in a fresh interpreter, stdout and stderr as
    bytes; *unbuffered* sets PYTHONUNBUFFERED, which is otherwise unset."""
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    return subprocess.run([sys.executable, "-c", script, *argv], env=env, timeout=60, **kwargs)


def test_process_entry_prints_and_exits_as_the_library_call(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")         # argparse's help width, in both processes
    runs = [argv for argv, _ in SCENARIOS]
    runs += [["classify", "no/such.grp"], ["enumerate", "four"], ["--help"]]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:           # help and usage errors
                code = exc.code
        proc = run_entry(argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
            code, out.getvalue(), err.getvalue()), argv
    assert code == 0 and out.getvalue().startswith("usage: groupeq")


def test_process_entry_skips_module_teardown():
    script = ("class Teardown:\n    def __del__(self):\n        print('torn down')\n"
              "keep = Teardown()\n" + ENTRY)
    proc = run_entry(["enumerate", "4"], script=script)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (
        0, run_cli(["enumerate", "4"])[1], b"")
    proc = run_entry(["enumerate", "4"], script=script.replace("main()", "main(sys.argv[1:])"))
    assert proc.stdout.decode().endswith("True\ntorn down\n")


def test_process_entry_skips_a_closed_stdout():
    proc = run_entry(["classify", A4], stdout=None, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [["classify", A4], ["audit-catalog", "--orders", "24"]])
def test_process_entry_reports_a_broken_pipe(argv, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_entry(argv, unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    # unbuffered, print fails inside the command; buffered, the flush at exit fails
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
def test_process_entry_reports_a_full_device(unbuffered):
    with open("/dev/full", "wb") as full:
        proc = run_entry(["classify", A4], unbuffered=unbuffered, stdout=full)
    assert (proc.returncode, proc.stderr) == (2, b"error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize("argv", [["classify", A4], ["--format", "structured", "audit-catalog"]])
def test_process_entry_exits_2_when_stdout_and_stderr_fail(argv, unbuffered):
    pipes = [os.pipe(), os.pipe()]
    for read, _ in pipes:
        os.close(read)
    try:
        proc = run_entry(argv, unbuffered=unbuffered, stdout=pipes[0][1], stderr=pipes[1][1])
    finally:
        for _, write in pipes:
            os.close(write)
    assert proc.returncode == 2


@pytest.mark.parametrize("unbuffered", [True, False])
def test_process_entry_delivers_output_past_the_stream_buffer(unbuffered):
    argv = ["--format", "structured", "audit-catalog"]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "") and len(out) > 8192
    proc = run_entry(argv, unbuffered=unbuffered)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")


def test_process_entry_runs_exit_handlers_after_the_output():
    script = "import atexit; atexit.register(print, 'handler ran'); " + ENTRY
    proc = run_entry(["enumerate", "4"], script=script)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (
        0, run_cli(["enumerate", "4"])[1] + "handler ran\n", b"")
