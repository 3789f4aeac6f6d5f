#!/usr/bin/env python3
"""Compare what two groupeq source trees print, command by command.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR --workload W --seeds A-B

With W one of the perfbench workloads (structure, search, certify), the
commands are the decks that ``perfbench/run.py`` builds for a run of
BENCHMARK.json's ``run_seconds``, one deck per seed from A to B, made with
``perfbench.workloads.build`` and ``write_inputs`` from this checkout.
``--workload catalog`` (no seeds) instead runs ``group --subgroups`` and
``classify`` on every bundled catalog file. Each command runs twice, in
text and in structured format.

Each tree runs in its own child interpreter (``PYTHONPATH=<tree>/src``, in
the directory that holds the deck's input files), which calls
``groupeq.cli.main`` in-process for every command and records its stdout,
stderr and exit code; a traceback is recorded as the interpreter would
print it, with the tree's path replaced by ``<tree>``. The first command
whose stdout, stderr or exit code differs is reported with a diff, and the
exit code is 1; 0 means every output was byte-identical.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
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


def run_tree(tree: Path, argvs: list[list[str]], cwd: Path) -> list[list]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GROUPEQ_CONFIG", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(tree / "src")
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


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "catalog"))
    parser.add_argument("--seeds", type=seed_range,
                        help="A-B or A: the deck seeds (not with --workload catalog)")
    args = parser.parse_args(argv)
    if (args.seeds is None) != (args.workload == "catalog"):
        parser.error("--seeds goes with a perfbench workload and only with one")
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "groupeq" / "cli.py").is_file():
            parser.error(f"no groupeq sources under {tree}")

    total = 0
    for seed in args.seeds or [None]:
        with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
            work = Path(tmp)
            structured = (catalog_commands() if seed is None
                          else deck_commands(args.workload, seed, work))
            argvs = structured + [text_format(a) for a in structured]
            parent, change = (run_tree(tree, argvs, work) for tree in trees)
        found = first_difference(argvs, parent, change)
        label = args.workload if seed is None else f"{args.workload} seed {seed}"
        if found:
            print(f"{label}: {found}")
            return 1
        exits = sorted({code for _, _, code in parent})
        print(f"{label}: {len(argvs)} runs ({len(structured)} commands x 2 formats) "
              f"identical; exit codes {exits}")
        total += len(argvs)
    print(f"all {total} runs identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
