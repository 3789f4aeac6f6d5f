#!/usr/bin/env python3
"""Compare what two groupeq source trees print, command by command.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

With W one of the perfbench workloads (structure, search, certify), the
commands are the decks that ``perfbench/run.py`` builds for a run of
BENCHMARK.json's ``run_seconds``, one deck per seed from A to B, made with
``perfbench.workloads.build`` and ``write_inputs`` from this checkout.
``--workload catalog`` (no seeds) instead runs ``group --subgroups`` and
``classify`` on every bundled catalog file. Each command runs twice, in
text and in structured format. ``--workload argv`` (no seeds) runs a fixed
list of command lines once each: help and ``--version``, unknown commands,
abbreviated options, ``--opt=value`` and ``--``, missing, non-integer,
negative and badly chosen values, repeated and interleaved options, and
global options after the command, so that help texts, usage errors and
exit codes are compared too, and ``group --subgroups`` and ``classify`` on a
C2^10 generator file, past the subgroup cap. ``--workload analyze`` (no seeds) runs a fixed
list of ``analyze-system`` inputs, in text and in structured format: the
determinant's sign, dependent and non-square exponent matrices, no
equations or no variables, repeated, non-prime and configured primes,
last invariant factors with two primes above the trial-division bound, and
a seeded 64x64 system.
``--workload rows`` (no seeds) runs a fixed list of ``certify-rows``
inputs, in text and in structured format: each verdict over Z_p and over
Q, a family one entry past the row oracle's work cap, a free part, empty
and ragged families, and elements with doubled or trailing signs.
``--workload wreath`` (no seeds) runs a fixed list of ``wreath-transform``
inputs that bind coefficients by element name, in text and in structured
format: C2 wr C2, whose base names contain commas, S3 wr C2, C3 wr C3 with
``--prime 3``, the identity ``1``, a name with one coordinate too few and an
unknown name (both error lines), and ``@examples/wreath_demo.sys``.

Each tree runs in its own child interpreter (``PYTHONPATH=<tree>/src``, in
the directory that holds the deck's input files), which calls
``groupeq.cli.main`` in-process for every command and records its stdout,
stderr and exit code; a traceback is recorded as the interpreter would
print it, with the tree's path replaced by ``<tree>``. ``--workload argv``
instead runs each command in an interpreter of its own, through
``sys.exit(main())`` as the ``groupeq`` console script does, so that the
process entry and its exit are compared too. The first command
whose stdout, stderr or exit code differs is reported with a diff, and the
exit code is 1; 0 means every output was byte-identical.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

# reads one JSON list of argv lists on stdin, writes one JSON list of
# [stdout, stderr, exit code] triples on stdout
CHILD = r"""
import contextlib, io, json, sys, traceback
from groupeq.cli import main
tree = sys.argv[1]
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:          # argparse errors exit 2
            code = 0 if exc.code is None else exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    results.append([out.getvalue(), err.getvalue().replace(tree, "<tree>"), code])
json.dump(results, sys.stdout)
"""


def text_format(args: list[str]) -> list[str]:
    """*args* with its ``--format structured`` pair removed."""
    i = args.index("--format")
    return args[:i] + args[i + 2:]


def deck_commands(workload: str, seed: int, directory: Path) -> list[list[str]]:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    n_rounds = math.ceil(1.5 * seconds / bench.ROUND_ESTIMATE_S[workload]) + 1
    rounds = workloads.build(workload, seed, n_rounds, str(bench.CATALOG))
    workloads.write_inputs(rounds, directory)
    return [cmd.args for rnd in rounds for cmd in rnd]


def catalog_commands() -> list[list[str]]:
    return [["--format", "structured", *cmd, f"@catalog/{path.name}"]
            for path in sorted(bench.CATALOG.glob("*.grp"))
            for cmd in (["group", "--subgroups"], ["classify"])]


A4, S3 = "@catalog/012_a4.grp", "@catalog/006_s3.grp"
WREATH = ["@examples/wreath_demo.sys", "--base", "@catalog/002_c2.grp",
          "--top", "@catalog/002_c2.grp"]
C2_10 = "c2_10.grp"      # order 1024, past subgroup_order_cap: both commands refuse it
ARGV_FILES = {"bound.sys": "vars: x\ncoeffs: g\nbind: @group g=#1\neq: x^2 = g\n",
              "catalog/006_s3.grp": None,          # None: a copy of the bundled file
              C2_10: "group C2^10 order 1024\ngenerators:\n" +
                     "".join(f"({2 * i + 1} {2 * i + 2})\n" for i in range(10))}
ARGV_CASES = [
    [], ["--help"], ["-h"], ["--version"], ["--he"], ["--vers"],
    *([name, "--help"] for name in ("analyze-system", "group", "classify", "audit-catalog",
                                    "wreath-transform", "certify-rows", "counterexample",
                                    "solve", "enumerate")),
    ["nosuch"], ["classif", A4], ["classify"], ["classify", A4, "extra"], ["classify", "-"],
    ["--form", "structured", "classify", A4], ["--format=structured", "classify", A4],
    ["--format", "structured", "classify", A4], ["classify", A4],
    ["--jobs=2", "--config=", "enumerate", "4"], ["group", S3, "--sub"],
    ["group", "--subgroups", S3], ["group", S3, "--subgroups=yes"],
    ["solve", "@examples/solve_demo.sys", "--desc"], ["solve", "--descending", "bound.sys",
                                                      "--group", S3],
    ["solve", "bound.sys", "--gr", S3], ["solve", "bound.sys"],
    ["counterexample", "--p", "2", "--q", "3", "--sym"], ["counterexample", "--q", "3"],
    ["counterexample", "--p", "2", "--q"], ["counterexample", "--p", "2", "--q", "x"],
    ["counterexample", "--p", "-2", "--q", "3"], ["counterexample", "--p=2", "--q=5"],
    ["classify", "--", A4], ["--", "classify", A4], ["classify", A4, "--"],
    ["--jobs"], ["--jobs", "two", "enumerate", "4"], ["--jobs", "-1", "enumerate", "4"],
    ["--jobs", " 2", "enumerate", "4"], ["--jobs", "0", "enumerate", "4"],
    ["--format", "json", "enumerate", "4"], ["--format", "enumerate", "4"],
    ["--config", "missing.conf", "enumerate", "4"],
    ["enumerate", "four"], ["enumerate", "-1"], ["enumerate", "6", "7"], ["enumerate", "1_0"],
    ["analyze-system", "@examples/example0.sys", "--prime", "5", "--prime", "7"],
    ["analyze-system", "@examples/example0.sys", "--pr", "5", "--prime=11"],
    ["analyze-system", "@examples/example0.sys", "--prime", "3.5"],
    ["analyze-system", "@examples/example0.sys", "--prime", "-3"],
    ["analyze-system", "--prime", "2", "@examples/example0.sys", "--prime", "3"],
    ["wreath-transform", *WREATH, "--prime", "2"], ["wreath-transform", *WREATH],
    ["wreath-transform", *WREATH, "--prime"], ["wreath-transform", *WREATH, "--prime", "2",
                                               "--base", "@catalog/003_c3.grp"],
    ["wreath-transform", "--base", "@catalog/002_c2.grp", "@examples/wreath_demo.sys",
     "--top", "@catalog/002_c2.grp", "--prime", "2"],
    ["audit-catalog", "--orders", "6", "catalog"], ["audit-catalog", "catalog", "--ord", "6"],
    ["audit-catalog", "--orders"], ["audit-catalog", "--orders", "-6"],
    ["certify-rows", "@examples/rows_demo.alg", "--format", "structured"],
    ["classify", A4, "--format", "structured"], ["enumerate", "4", "--jobs", "2"],
    ["enumerate", "4", "--config", "missing.conf"], ["classify", A4, "--version"],
    ["certify-rows", "@examples/rows_demo.alg", "-h"],
    ["group", C2_10, "--subgroups"], ["classify", C2_10],
]


def _system(matrix: list[list[int]]) -> str:
    names = [f"x{i}" for i in range(1, len(matrix[0]) + 1)]
    return "vars: " + " ".join(names) + "\n" + "".join(
        "eq: " + " ".join(f"{v}^{e}" for v, e in zip(names, row) if e) + "\n" for row in matrix)


def _seeded(n: int) -> list[list[int]]:
    """The n x n matrix of random.Random(n), one randint(-3, 3) per entry, row by row."""
    rng = random.Random(n)
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


EXAMPLE0 = "@examples/example0.sys"
ANALYZE_FILES = {
    "swaps.sys": "vars: x y z\neq: z^3\neq: y^2\neq: x^5\n",              # determinant -30
    "transposed.sys": "vars: x y\neq: y\neq: x\n",                        # determinant -1
    "dependent.sys": "vars: x y z\neq: x y^2 z\neq: x^2 y^4 z^2\neq: y z^3\n",
    "wide.sys": "vars: x y z\neq: x^2 y^4\neq: y^6 z^9\n",
    "tall.sys": "vars: x\neq: x^4\neq: x^6\n",
    "no-equations.sys": "vars: x y\n",
    "no-variables.sys": "coeffs: g\neq: g\neq: g^2\n",
    "undeclared.sys": "vars: x\neq: x q\n",
    # last invariant factors 10007 * 10009 and 3^2 * 1427 * 152531
    "two-primes.sys": "vars: x y\neq: x^10007\neq: y^10009\n",
    "dense.sys": _system([[12, -1, -7, -6, 1, -8, 20], [-12, 5, 2, -17, -12, -20, -16],
                          [20, -4, 7, -10, -17, -15, 4], [12, -2, 18, -5, -2, -18, 9],
                          [-9, -10, -3, 8, -20, -4, 3], [1, 15, 0, -5, -18, -1, -7],
                          [2, -9, -20, 1, 4, -15, 10]]),
    # the Smith form's transforms grow to thousands of digits here; the verdicts build none
    "seeded-64.sys": _system(_seeded(64)),
    "primes.conf": "classify_primes = 19, 2, 1427\n",
    "not-primes.conf": "classify_primes = 2, 9, 4\n",
}
ANALYZE_CASES = [
    [EXAMPLE0], *([name] for name in ANALYZE_FILES if name.endswith(".sys")),
    [EXAMPLE0, "--prime", "5", "--prime", "5"], [EXAMPLE0, "--prime", "17", "--prime", "2"],
    [EXAMPLE0, "--prime", "4"], [EXAMPLE0, "--prime", "1"], [EXAMPLE0, "--prime", "0"],
    [EXAMPLE0, "--prime", "1000000000000000003"],
    [EXAMPLE0, "--prime", "3317044064679887385961981"],
    ["undeclared.sys", "--prime", "4"], ["no-equations.sys", "--prime", "4"],
    ["dense.sys", "--prime", "1427", "--prime", "152531"],
]
ANALYZE_CONFIGS = [["--config", "primes.conf"], ["--config", "not-primes.conf"]]


Z2C2 = "algebra p=2 torsion=1\n"
ROWS_FILES = {
    "zp-certified.alg": Z2C2 + "row: 1 ; 0\nrow: x1 ; 1\n",
    "zp-refuted.alg": Z2C2 + "row: 1 + x1\n",
    # the row oracle's [images | I] has 2*2 x (3+2)*2 = 40 entries
    "zp-cap.alg": Z2C2 + "row: 1 ; x1 ; 1\nrow: x1 ; 1 ; x1\n",
    "zp-wide.alg": "algebra p=3 torsion=1,1\nrow: 1 + 2*x1*x2 ; x2^2\nrow: x1 - x2 ; 2\n",
    "zp-free.alg": "algebra p=2 torsion=1 free=1\nrow: 1 + t1\n",
    "zp-free-certified.alg": "algebra p=2 torsion=1 free=1\nrow: t1^-1 ; x1*t1\n",
    "q-certified.alg": "algebra rational free=2\nrow: 2*t1 - 3 ; t2^-1\nrow: t1*t2 ; -4\n",
    "q-unknown.alg": "algebra rational free=1\nrow: 1 + t1 ; 2\nrow: t1 ; 1\n",
    "zp-empty.alg": "algebra p=3 torsion=2\n",
    "q-empty.alg": "algebra rational free=1\n",
    "ragged.alg": Z2C2 + "row: 1 ; x1\nrow: 1\n",
    "format-element.alg": "algebra p=5 torsion=1\nrow: 1 + -1*x1 ; 2\n",
    # signs in a row multiply; a sign with no term after it is an error
    "signs-minus-minus.alg": "algebra p=5 torsion=1\nrow: 1 - -1*x1\n",
    "signs-minus-plus.alg": "algebra p=5 torsion=1\nrow: 1 - + x1\n",
    "signs-trailing.alg": Z2C2 + "row: 1 -\n",
    "cap-40.conf": "brute_force_cap = 40\n",
    "cap-39.conf": "brute_force_cap = 39\n",
}
# Over Z_p[P], P a finite p-group, the augmentation certificate is exact: the
# row oracle refutes every family it leaves open.
ROWS_CASES = [
    *([name] for name in ROWS_FILES if name.endswith(".alg")),
    ["@examples/rows_demo.alg"], ["@examples/rows_rational.alg"],
    ["--config", "cap-40.conf", "zp-cap.alg"], ["--config", "cap-39.conf", "zp-cap.alg"],
    ["--config", "cap-39.conf", "zp-certified.alg"],
]


C2, S3, C3 = "@catalog/002_c2.grp", "@catalog/006_s3.grp", "@catalog/003_c3.grp"
WREATH_FILES = {
    "c2-names.sys": "vars: x y\ncoeffs: a b t\nbind: @group a=((1,2),1;(1,2)) "
                    "b=(1,(1,2);1) t=(1,1;(1,2))\neq: x a y t\neq: y b\n",
    "s3-names.sys": "vars: x\ncoeffs: a t\nbind: @group a=((1,3,5)(2,6,4),(1,2)(3,4)(5,6);1) "
                    "t=(1,(1,4)(2,5)(3,6);(1,2))\neq: x a x^-1 t x\n",
    "c3-names.sys": "vars: x y\ncoeffs: a t\nbind: @group a=((1,2,3),1,(1,3,2);(1,2,3)) "
                    "t=(1,1,1;(1,3,2))\neq: x a y\neq: y t y\n",
    "identity.sys": "vars: x\ncoeffs: e\nbind: @group e=1\neq: x e\n",
    "too-few.sys": "vars: x\ncoeffs: a\nbind: @group a=((1,2);(1,2))\neq: x a\n",
    "unknown.sys": "vars: x\ncoeffs: a\nbind: @group a=((1,2),1;(1,3))\neq: x a\n",
}
WREATH_CASES = [
    *([name, "--base", C2, "--top", C2, "--prime", "2"]
      for name in ("c2-names.sys", "identity.sys", "too-few.sys", "unknown.sys")),
    ["s3-names.sys", "--base", S3, "--top", C2, "--prime", "2"],
    ["c3-names.sys", "--base", C3, "--top", C3, "--prime", "3"],
    [*WREATH, "--prime", "2"],
]


def write_files(directory: Path, files: dict[str, str | None]) -> None:
    for name, text in files.items():
        path = directory / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text is not None else (bench.CATALOG / path.name).read_text())


def analyze_commands(directory: Path) -> list[list[str]]:
    write_files(directory, ANALYZE_FILES)
    cases = [["analyze-system", *case] for case in ANALYZE_CASES]
    cases += [[*conf, "analyze-system", file] for conf in ANALYZE_CONFIGS
              for file in (EXAMPLE0, "dense.sys", "undeclared.sys")]
    return [["--format", "structured", *argv] for argv in cases]


def rows_commands(directory: Path) -> list[list[str]]:
    write_files(directory, ROWS_FILES)
    return [["--format", "structured", *case[:-1], "certify-rows", case[-1]]
            for case in ROWS_CASES]


def wreath_commands(directory: Path) -> list[list[str]]:
    write_files(directory, WREATH_FILES)
    return [["--format", "structured", "wreath-transform", *case] for case in WREATH_CASES]


def run_tree(tree: Path, argvs: list[list[str]], cwd: Path, entry: bool) -> list[list]:
    """[stdout, stderr, exit code] of each command of *argvs*, all in one child
    interpreter, or if *entry* each in its own, through the benchmark's
    ``sys.exit(main())``."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("GROUPEQ_CONFIG", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(tree / "src")
    if entry:
        procs = (subprocess.run([sys.executable, *bench.CLI, *argv], cwd=cwd, env=env,
                                capture_output=True, check=False) for argv in argvs)
        return [[p.stdout.decode(), p.stderr.decode().replace(str(tree), "<tree>"),
                 p.returncode] for p in procs]
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tree)], cwd=cwd, env=env,
                          input=json.dumps(argvs), capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"error: the child interpreter for {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def first_difference(argvs, parent, change) -> str | None:
    for argv, old, new in zip(argvs, parent, change):
        for stream, a, b in zip(("stdout", "stderr", "exit code"), old, new):
            if a != b:
                diff = difflib.unified_diff(str(a).splitlines(), str(b).splitlines(),
                                            "parent", "change", lineterm="", n=1)
                return (f"{stream} differs for: groupeq {' '.join(argv)}\n"
                        + "\n".join(list(diff)[:40]))
    return None


FIXED_WORKLOADS = ("catalog", "argv", "analyze", "rows", "wreath")   # fixed lists, no seeds


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, *FIXED_WORKLOADS))
    parser.add_argument("--seeds", type=seed_range,
                        help="A-B or A: the deck seeds (not with --workload "
                             + ", ".join(FIXED_WORKLOADS) + ")")
    args = parser.parse_args(argv)
    if (args.seeds is None) != (args.workload in FIXED_WORKLOADS):
        parser.error("--seeds goes with a perfbench workload and only with one")
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "groupeq" / "cli.py").is_file():
            parser.error(f"no groupeq sources under {tree}")

    total = 0
    for seed in args.seeds or [None]:
        with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
            work = Path(tmp)
            if args.workload == "argv":
                write_files(work, ARGV_FILES)
                structured, argvs = [], ARGV_CASES
            else:
                structured = (catalog_commands() if args.workload == "catalog"
                              else analyze_commands(work) if args.workload == "analyze"
                              else rows_commands(work) if args.workload == "rows"
                              else wreath_commands(work) if args.workload == "wreath"
                              else deck_commands(args.workload, seed, work))
                argvs = structured + [text_format(a) for a in structured]
            parent, change = (run_tree(tree, argvs, work, args.workload == "argv")
                              for tree in trees)
        found = first_difference(argvs, parent, change)
        label = args.workload if seed is None else f"{args.workload} seed {seed}"
        if found:
            print(f"{label}: {found}")
            return 1
        exits = sorted({code for _, _, code in parent})
        shape = f" ({len(structured)} commands x 2 formats)" if structured else ""
        print(f"{label}: {len(argvs)} runs{shape} identical; exit codes {exits}")
        total += len(argvs)
    print(f"all {total} runs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
