"""End-to-end benchmark of the groupeq command line.

    python3 perfbench/run.py --workload structure|search|certify --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Inputs come from the seed alone
(see workloads.py) and every verdict is checked against an answer the
benchmark derives itself (oracles.py).  Each command runs in a fresh
interpreter, one at a time (a closed loop with one client), the way a user
or a script pays for a verdict, import included.

--trace 0 runs commands until S seconds have passed and reports the
end-to-end metrics.  --trace 1 runs a fixed, seed-determined prefix of the
same commands twice, once under launcher.py (spans around every public
groupeq function) and once plain, and reports per-layer metrics plus the
tracing overhead.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import LayerTotals  # noqa: E402

SRC = ROOT / "src"
CATALOG = SRC / "groupeq" / "data" / "catalog"
WORK = ROOT / ".bench_work"

CLI = ["-c", "import sys; from groupeq.cli import main; sys.exit(main())"]
SETUP_PROBE = ["-c", "import groupeq.cli"]
COMMAND_TIMEOUT_S = 60.0
PROBE_EVERY = 8                # one set-up probe before every 8th command
# rough seconds per round, used only to size the deck and the traced prefix
ROUND_ESTIMATE_S = {"structure": 4.6, "search": 4.4, "certify": 2.6}
TRACE_SHARE = 0.4              # traced + plain prefix fits in about S seconds


class Child:
    """One finished child process."""

    def __init__(self, argv: list[str], cwd: Path, env: dict, tag: str) -> None:
        out_path, err_path = cwd / f".{tag}.out", cwd / f".{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()           # the kill shows as a negative exit code
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.code = proc.returncode
        self.timed_out = self.code < 0 and self.seconds >= COMMAND_TIMEOUT_S
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def verdict_error(cmd, child: Child) -> str | None:
    if child.timed_out:
        return f"timed out after {COMMAND_TIMEOUT_S} s"
    if child.code < 0:
        return f"killed by signal {-child.code}"
    try:
        out = json.loads(child.stdout) if child.stdout.strip() else {}
    except json.JSONDecodeError:
        return f"unparsable output (exit {child.code}): {child.stderr.strip()[-200:]}"
    return oracles.CHECKERS[cmd.kind](child.code, out, cmd.expect)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GROUPEQ_CONFIG", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1] \
        if len(values) > 1 else values[0]


def environment(args) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "commit": commit, "machine": platform.machine()}


def run_untraced(deck, seconds: float, work: Path, env: dict):
    """Closed loop over the deck until the time is up (at least one command)."""
    latencies, failures, rss, setup = [], [], [], []
    by_label: dict[str, list[float]] = {}
    probe_time = 0.0
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        if i % PROBE_EVERY == 0:
            probe = Child(SETUP_PROBE, work, env, "probe")
            probe_time += probe.seconds
            rss.append(probe.maxrss_mb)
            if probe.code == 0:
                setup.append(probe.seconds)
            else:
                failures.append(("set-up probe", probe.stderr.strip()[-200:]))
        cmd = deck[i % len(deck)]
        child = Child(CLI + cmd.args, work, env, "cmd")
        latencies.append(child.seconds)
        by_label.setdefault(cmd.label, []).append(child.seconds)
        rss.append(child.maxrss_mb)
        err = verdict_error(cmd, child)
        if err:
            failures.append((" ".join(cmd.args), err))
        i += 1
    loop_s = time.perf_counter() - start - probe_time
    return latencies, failures, rss, setup, by_label, loop_s


def end_to_end(latencies, failures, rss, setup, loop_s) -> dict:
    failed = len([f for f in failures if f[0] != "set-up probe"])
    return {
        "verdicts_per_s": (len(latencies) - failed) / loop_s,
        "verdict_p50_s": statistics.median(latencies),
        "verdict_p90_s": quantile(latencies, 0.9),
        "fail_ratio": failed / len(latencies),
        "setup_s": statistics.median(setup) if setup else float("nan"),
        "peak_rss_mb": max(rss),
    }


def run_traced(deck, work: Path, env: dict):
    """Each command under the launcher, then plain; returns layer metrics."""
    totals = LayerTotals()
    failures, traced_s, plain_s, assignments = [], 0.0, 0.0, 0
    launcher = str(HERE / "launcher.py")
    for i, cmd in enumerate(deck):
        spans_path = work / f"spans_{i:04d}.jsonl"
        traced = Child([launcher, str(spans_path), str(i)] + cmd.args, work, env, "traced")
        plain = Child(CLI + cmd.args, work, env, "plain")
        traced_s += traced.seconds
        plain_s += plain.seconds
        for child in (traced, plain):
            err = verdict_error(cmd, child)
            if err:
                failures.append((" ".join(cmd.args), err))
        if spans_path.is_file():
            totals.add_file(spans_path)
        else:
            failures.append((" ".join(cmd.args), "launcher wrote no spans"))
        if cmd.kind == "solve" and not verdict_error(cmd, traced):
            assignments += json.loads(traced.stdout)["searched"]
    metrics = totals.metrics()
    evaluated = metrics.get("verifiers.brute_force_solve.evaluated", 0)
    metrics["verifiers.brute_force_solve.assignments"] = assignments
    metrics["verifiers.brute_force_solve.useful_ratio"] = \
        assignments / evaluated if evaluated else 0.0
    metrics["trace.commands"] = len(deck)
    metrics["trace.traced_s"] = traced_s
    metrics["trace.untraced_s"] = plain_s
    metrics["trace.overhead_s"] = traced_s - plain_s
    return metrics, failures, 2 * len(deck)


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer"] if trace else spec["end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "groupeq" / "cli.py").is_file() or not CATALOG.is_dir():
        print(f"error: no groupeq sources under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    estimate = ROUND_ESTIMATE_S[args.workload]
    if args.trace:
        n_rounds = max(1, round(args.seconds * TRACE_SHARE / estimate))
    else:
        n_rounds = math.ceil(1.5 * args.seconds / estimate) + 1
    rounds = workloads.build(args.workload, args.seed, n_rounds, str(CATALOG))
    deck = [cmd for rnd in rounds for cmd in rnd]

    compileall.compile_dir(SRC / "groupeq", quiet=1)   # users run with bytecode cached
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    workloads.write_inputs(rounds, work)
    env = child_env()
    info = environment(args)
    try:
        if args.trace:
            metrics, failures, attempted = run_traced(deck, work, env)
        else:
            latencies, failures, rss, setup, by_label, loop_s = \
                run_untraced(deck, args.seconds, work, env)
            attempted = len(latencies)
            metrics = end_to_end(latencies, failures, rss, setup, loop_s)
            info["samples"] = {"commands": attempted, "setup_probes": len(setup),
                               "beyond_p90": sum(x > metrics["verdict_p90_s"]
                                                 for x in latencies)}
            info["classes"] = {label: {"n": len(v), "p50_s": round(statistics.median(v), 4),
                                       "max_s": round(max(v), 4)}
                               for label, v in sorted(by_label.items())}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for cmd_text, err in failures[:20]:
        print(f"FAIL {cmd_text}: {err}")
    print("info " + json.dumps(info, sort_keys=True))
    units = {m["name"]: m["unit"] for m in declared}
    units["fail_ratio"] = f"1 ({len(failures)} failed of {attempted} attempted)"
    for name, value in sorted(metrics.items()):
        print(f"  {name:48s} {value} {units.get(name, '')}")
    if args.trace:               # a function never called has no spans: zero work
        metrics = {m["name"]: metrics.get(m["name"], 0) for m in declared}
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
