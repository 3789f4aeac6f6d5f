import io
import json
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import groupeq
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
    "algebra p=x": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=x\nrow: 1\n"}),
    "torsion=z": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=2 torsion=z\nrow: 1\n"}),
    "free=y": (["certify-rows", "r.alg"], {"r.alg": b"algebra p=2 free=y\nrow: 1\n"}),
    "non-UTF-8 file": (["group", "g.grp"], {"g.grp": b"group G order 1\ntable:\n\xff\n"}),
}


@pytest.mark.parametrize("argv,files", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_operational_error(tmp_path, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_runs_without_numpy_or_a_thread_pool():
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None      # any numpy import now fails
        from groupeq.cli import main
        assert main(["classify", "@catalog/042_f42.grp"]) == 0
        assert "concurrent.futures" not in sys.modules
    """)
    src = str(Path(groupeq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_audit_reports_a_non_utf8_file_and_goes_on(tmp_path):
    src = resolve_data_path(S3)
    (tmp_path / "006_s3.grp").write_text(src.read_text(encoding="utf-8"))
    (tmp_path / "bad.grp").write_bytes(b"group G order 1\ntable:\n\xff\n")
    code, out, err = run_cli(["audit-catalog", str(tmp_path)])
    assert code != 2 and err == ""
    assert "bad.grp: LOAD ERROR: " in out and "not UTF-8" in out
    assert "006_s3.grp: order 6, metabelian, witness" in out


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
