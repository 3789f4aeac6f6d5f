"""Command-line interface.

Exit codes: 0 when the command ran and its verdicts came out as expected,
1 when a verdict deviated (an audit failure, a refuted certification, an
exhausted search, ...), 2 on operational errors such as unreadable files,
parse errors, or exceeded caps.

Structured output (``--format structured``) prints a single JSON object
per command whose keys are documented in the README; parsing that JSON
and re-serializing it is the identity, which keeps reports scriptable.
"""

from __future__ import annotations

import sys

from . import __version__
from .config import DEFAULT_CONFIG, Config, load_config
from .errors import GroupEqError, ParseError, ValidationError, read_text_file


def dumps(x, quote) -> str:
    """``json.dumps(x, sort_keys=True)`` for what a payload holds: dicts with
    str keys, lists, tuples, str, int, bool and None, with *quote* the
    string encoder json uses, ``_json.encode_basestring_ascii``."""
    if isinstance(x, str):
        return quote(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(dumps(v, quote) for v in x) + "]"
    if isinstance(x, dict):
        return "{" + ", ".join(f"{quote(k)}: {dumps(v, quote)}" for k, v in sorted(x.items())) + "}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        from _json import encode_basestring_ascii    # only structured output needs it
        print(dumps(payload, encode_basestring_ascii))
    else:
        for line in text_lines:
            print(line)


def _matrix_lines(M: list[list[int]]) -> list[str]:
    if not M:
        return ["  (no equations)"]
    width = max((len(str(x)) for row in M for x in row), default=1)
    return ["  [ " + "  ".join(str(x).rjust(width) for x in row) + " ]"
            for row in M]


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze_system(args, config: Config) -> int:
    from .catalog import resolve_data_path
    from .equations import classify_matrix, det_int, exponent_matrix, parse_system_file
    system = parse_system_file(resolve_data_path(args.file))
    E = exponent_matrix(system)
    cls = classify_matrix(E)
    primes = sorted(set(config.classify_primes) | set(args.prime or []))
    verdicts = {p: cls.smith.p_nonsingular(p) for p in primes}
    det = det_int(cls.smith) if E and len(E) == len(E[0]) else None
    payload = {
        "variables": list(system.variables),
        "equations": len(system.words),
        "matrix": E,
        "determinant": det,
        "classification": cls.to_dict(),
        "p_nonsingular": {str(p): v for p, v in verdicts.items()},
    }
    lines = [f"system: {len(system.words)} equations, "
             f"{len(system.variables)} variables "
             f"({', '.join(system.variables)})",
             "exponent matrix:"]
    lines += _matrix_lines(E)
    if det is not None:
        lines.append(f"determinant: {det}")
    lines.append("invariant factors: " +
                 (", ".join(map(str, cls.invariant_factors)) or "(none)"))
    lines.append(f"non-singular: {'yes' if cls.nonsingular else 'NO'}")
    lines.append("p-nonsingular: " + ", ".join(
        f"p={p} {'yes' if v else 'NO'}" for p, v in sorted(verdicts.items())))
    if isinstance(cls.singular_primes, tuple):
        sp = "{" + ", ".join(map(str, cls.singular_primes)) + "}"
    else:
        sp = cls.singular_primes
    lines.append(f"singular primes: {sp} ({cls.note})")
    lines.append(f"unimodular: {'yes' if cls.unimodular else 'no'}")
    _emit(args, payload, lines)
    return 0


def cmd_group(args, config: Config) -> int:
    from .catalog import resolve_data_path
    from .groups import (all_subgroups, center, check_subgroup_cap, derived_series,
                         group_header, is_metabelian, is_nilpotent, is_normal, load_group,
                         prime_factors, sylow_subgroup)
    text = read_text_file(resolve_data_path(args.file))
    if args.subgroups:          # refused from the header, before any table is built
        check_subgroup_cap(group_header(text)[1], config)
    G = load_group(text)
    series = derived_series(G)
    Z = center(G)
    metabelian, nilpotent = is_metabelian(G), is_nilpotent(G)
    payload = {
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian,
        "metabelian": metabelian,
        "nilpotent": nilpotent,
        "center_order": Z.order,
        "derived_series_orders": [S.order for S in series],
        "element_order_multiset": list(G.order_multiset),
    }
    lines = [f"group {G.name}: order {G.order}",
             f"abelian: {G.is_abelian}, metabelian: {metabelian}, "
             f"nilpotent: {nilpotent}",
             f"center order: {Z.order}",
             "derived series orders: " +
             " > ".join(str(S.order) for S in series),
             "element orders: " + ", ".join(
                 f"{o}x{list(G.order_multiset).count(o)}"
                 for o in sorted(set(G.order_multiset)))]
    if args.subgroups:
        subs = all_subgroups(G, config)
        norms = [S for S in subs if is_normal(G, S)]
        payload["subgroup_orders"] = sorted(S.order for S in subs)
        payload["normal_subgroup_orders"] = sorted(S.order for S in norms)
        lines.append(f"subgroups: {len(subs)} "
                     f"(orders {sorted(set(S.order for S in subs))})")
        lines.append(f"normal subgroups: {len(norms)} "
                     f"(orders {sorted(S.order for S in norms)})")
    for p in prime_factors(G.order):
        payload.setdefault("sylow_orders", {})[str(p)] = \
            sylow_subgroup(G, p).order
    _emit(args, payload, lines)
    return 0


def cmd_classify(args, config: Config) -> int:
    from .catalog import resolve_data_path
    from .groups import load_group_file
    from .verifiers import classify_group
    G = load_group_file(resolve_data_path(args.file))
    report = classify_group(G, config)
    lines = [f"group {report.group_id}: order {report.order}",
             f"metabelian: {report.metabelian}"]
    if report.metabelian:
        if report.witness is not None:
            w = report.witness
            lines.append(f"witness: abelian normal subgroup of order "
                         f"{w.subgroup.order}, prime {w.prime}")
        else:
            lines.append(f"witness: NONE (exhaustive over "
                         f"{report.normals_examined} normal subgroups)")
    lines.append(f"note: {report.note}")
    _emit(args, report.to_dict(), lines)
    return 0


def cmd_audit_catalog(args, config: Config) -> int:
    from .catalog import bundled_catalog_dir, resolve_data_path
    from .verifiers import audit_catalog
    directory = resolve_data_path(args.directory) if args.directory else bundled_catalog_dir()
    orders = None
    if args.orders:
        try:
            orders = tuple(int(tok) for tok in args.orders.replace(",", " ").split())
        except ValueError:
            orders = ()
        if not orders:
            raise ParseError(f"--orders: expected comma-separated integers, "
                             f"got {args.orders!r}")
    report = audit_catalog(directory, orders, config)
    if not report.entries:      # an audit of nothing would read as a pass
        raise ValidationError(f"--orders {args.orders}: no group file has one of these orders"
                              if orders else f"{directory} is not a directory with a .grp file")
    lines = []
    for e in report.entries:
        if e.error:
            lines.append(f"{e.file}: LOAD ERROR: {e.error}")
            continue
        r = e.report
        mark = "witness" if r.witness else ("no witness" if r.metabelian
                                            else "skipped")
        lines.append(f"{e.file}: order {r.order}, "
                     f"{'metabelian' if r.metabelian else 'not metabelian'}, "
                     f"{mark}" +
                     (f" (A of order {r.witness.subgroup.order}, "
                      f"p={r.witness.prime})" if r.witness else ""))
    lines.append(f"orders audited: {', '.join(map(str, report.orders))}")
    lines.append(f"pairwise non-isomorphic within orders: {report.pairwise_distinct}")
    lines.append(f"per-order counts match the classification: {report.counts_ok}")
    if report.expected_without_witness:
        lines.append("metabelian without witness (outside the audited "
                     "composite orders): " +
                     "; ".join(report.expected_without_witness))
    if report.deviations:
        lines.append("DEVIATIONS: " + "; ".join(report.deviations))
        lines.append("verdict: FAILED")
    else:
        lines.append("verdict: every audited metabelian group has a witness")
    _emit(args, report.to_dict(), lines)
    ok = (not report.deviations) and report.counts_ok and report.pairwise_distinct
    return 0 if ok else 1


def cmd_wreath_transform(args, config: Config) -> int:
    from .algebra import certify_row_independence, format_row_file
    from .catalog import resolve_data_path
    from .equations import parse_system_file
    from .groups import load_group_file
    from .wreath import (WreathGroup, coordinatewise_transform, extract_rows,
                         normalize_top_component)
    base = load_group_file(resolve_data_path(args.base))
    top = load_group_file(resolve_data_path(args.top))
    W = WreathGroup(base, top, config)
    system = parse_system_file(resolve_data_path(args.file), group=W)
    if system.binding is None:
        raise GroupEqError("the system file must bind its coefficients "
                           "(use 'bind: @group sym=name ...')")
    norm = normalize_top_component(system, args.prime)
    ts = coordinatewise_transform(norm.system)
    ex = extract_rows(ts, args.prime)
    cert = certify_row_independence(ex.rows)

    out = ts.system
    sys_lines = ["# transformed system over the base group " + base.name,
                 "vars: " + " ".join(out.variables)]
    if out.coefficients:
        sys_lines.append("coeffs: " + " ".join(out.coefficients))
        sys_lines.append("bind: " + str(args.base) + " " + " ".join(
            f"{c}={base.names[e]}" for c, e in out.binding.values.items()))
    sys_lines += [" ".join(["eq:"] + [l.name if l.sign > 0 else l.name + "^-1"
                                      for l in word]) for word in out.words]
    row_lines = ["# rows m[j,1] over the top-group algebra",
                 format_row_file(ex.rows).rstrip()]
    beta_desc = {i: top.names[t] for i, t in norm.beta.items()}
    payload = {
        "beta": beta_desc,
        "translation_identity_holds": ex.translation_holds,
        "augmentation_matches": ex.augmentation_matches,
        "rows_certified_independent": cert is not None,
        "system": "\n".join(sys_lines),
        "rows": format_row_file(ex.rows),
    }
    lines = [f"wreath product: {base.name} wr {top.name} "
             f"(order {W.order})",
             "variable change beta: " + ", ".join(
                 f"{i} -> {i}*{n}" for i, n in beta_desc.items())]
    lines += sys_lines + row_lines
    lines.append(f"translation identity m[j,b] = b*m[j,1]: {ex.translation_holds}")
    lines.append(f"augmentation equals exponent row mod {args.prime}: "
                 f"{ex.augmentation_matches}")
    lines.append(f"rows certified independent: {cert is not None}")
    _emit(args, payload, lines)
    return 0 if (ex.translation_holds and ex.augmentation_matches) else 1


def cmd_certify_rows(args, config: Config) -> int:
    from .algebra import decide_row_independence, parse_row_file
    from .catalog import resolve_data_path
    rows = parse_row_file(read_text_file(resolve_data_path(args.file)))
    verdict, cert = decide_row_independence(rows, config.brute_force_cap)
    payload = {"algebra": rows.spec.describe(), "rows": len(rows.rows),
               "verdict": verdict}
    lines = [f"algebra: {rows.spec.describe()}",
             f"rows: {len(rows.rows)}"]
    if cert is not None:
        payload["pivot_columns"] = list(cert.pivot_columns)
        payload["minor_det"] = str(cert.minor_det)
        lines.append(f"certificate: augmented rows have a nonsingular minor "
                     f"on columns {list(cert.pivot_columns)} "
                     f"(det {cert.minor_det} over {cert.field})")
    lines.append(f"verdict: {verdict}")
    _emit(args, payload, lines)
    return 0 if verdict == "certified" else 1


def cmd_counterexample(args, config: Config) -> int:
    from .algebra import format_element
    from .verifiers import counterexample_build, counterexample_text, obstruction_check
    inst = counterexample_build(args.p, args.q, symbolic=args.symbolic,
                                config=config)
    rep = obstruction_check(inst)
    eq_text = counterexample_text(inst.p, inst.q, inst.n, inst.m)
    payload = {
        "p": inst.p, "q": inst.q, "n": inst.n, "m": inst.m,
        "order": inst.order,
        "equation": eq_text,
        "unimodular": inst.classification.unimodular,
        "obstruction": rep.to_dict(),
    }
    lines = [f"parameters: p={inst.p} q={inst.q} n={inst.n} m={inst.m} "
             f"({inst.n}*{inst.p} + {inst.m}*{inst.q} = 1)",
             f"group: C2 wr (C{inst.p} x C{inst.q}), order {inst.order}" +
             ("" if inst.realized else " (not realized; symbolic mode)"),
             f"equation: {eq_text}",
             f"exponent sum of x: 1 (unimodular: "
             f"{inst.classification.unimodular})",
             f"S = {format_element(rep.s_element)}",
             f"ring identity S*(1+ab) = S*(a+b): "
             f"{'holds' if rep.ring_identity_holds else 'FAILS'}"]
    if rep.s_is_zero:
        lines.append("anomaly: S = 0")
    if rep.group_inequality_holds is None:
        lines.append("group inequality: skipped (group not realized)")
        lines.append("obstruction: partial (ring identity only)")
    else:
        lines.append(f"group inequality (c c^(ab))^(1+ab) != (c c^(ab))^(a+b): "
                     f"{'holds' if rep.group_inequality_holds else 'FAILS'}")
        lines.append(f"  lhs = {rep.lhs_vs_rhs[0]}")
        lines.append(f"  rhs = {rep.lhs_vs_rhs[1]}")
        lines.append(f"obstruction: "
                     f"{'confirmed' if rep.confirmed else 'NOT confirmed'}")
    _emit(args, payload, lines)
    if rep.group_inequality_holds is None:
        return 0 if rep.ring_identity_holds else 1
    return 0 if rep.confirmed else 1


def cmd_solve(args, config: Config) -> int:
    from .catalog import resolve_data_path
    from .equations import parse_system_file
    from .groups import load_group_file
    from .verifiers import brute_force_solve
    group = None
    if args.group:
        group = load_group_file(resolve_data_path(args.group))
    system = parse_system_file(resolve_data_path(args.file), group=group)
    if system.binding is None:
        raise GroupEqError("the system is not bound to a group; pass --group "
                           "and a 'bind: @group ...' line")
    result = brute_force_solve(system, config, descending=args.descending)
    G = system.binding.group
    payload = result.to_dict()
    if result.solution is not None:
        payload["solution_names"] = {v: G.names[i]
                                     for v, i in result.solution.items()}
        lines = ["solution: " + ", ".join(
            f"{v} = {G.names[i]}" for v, i in sorted(result.solution.items())),
            f"(scan position {result.searched})"]
        code = 0
    else:
        lines = [f"no solution: exhaustive search over {result.searched} "
                 "assignments"]
        code = 1
    _emit(args, payload, lines)
    return code


def cmd_enumerate(args, config: Config) -> int:
    from .catalog import EXPECTED_COUNTS
    from .smallgroups import enumerate_groups
    groups = enumerate_groups(args.n, config)
    payload = {"order": args.n, "count": len(groups),
               "order_multisets": [list(G.order_multiset) for G in groups]}
    lines = [f"groups of order {args.n}: {len(groups)}"]
    for i, G in enumerate(groups, start=1):
        lines.append(f"  {i}: element orders {list(G.order_multiset)}, "
                     f"abelian: {G.is_abelian}")
    code = 0
    if args.n in EXPECTED_COUNTS:
        ok = len(groups) == EXPECTED_COUNTS[args.n]
        payload["matches_classification"] = ok
        lines.append(f"matches the classification count "
                     f"({EXPECTED_COUNTS[args.n]}): {ok}")
        code = 0 if ok else 1
    _emit(args, payload, lines)
    return code


# ---------------------------------------------------------------------------
# The command table, read by `parse_args` and by `build_parser`. An argument is (kind,
# required, help): kind is "str", "int", "append" (a repeatable int), "flag" or a tuple
# of choices. A name starting with "--" is an option, any other a positional.

FILE, INT = ("str", True, None), ("int", True, None)
GLOBAL_OPTIONS = {
    "--config": ("str", False, "path to a groupeq.conf file"),
    "--jobs": ("int", False, "accepted and validated (must be >= 1); every command runs in "
               "one thread, so output is identical for every N"),
    "--format": (("text", "structured"), False, "text (default) or structured JSON output")}
COMMANDS = {   # name: (handler, help, arguments)
    "analyze-system": (cmd_analyze_system, "exponent matrix, determinant, singular primes, and "
                       "unimodularity of a system file", {"file": FILE, "--prime": (
                           "append", False, "additional prime to test (repeatable)")}),
    "group": (cmd_group, "structural facts about a group file",
              {"file": FILE, "--subgroups": ("flag", False, "also enumerate subgroups")}),
    "classify": (cmd_classify, "metabelianity and the abelian-by-abelian-p witness search for "
                 "one group", {"file": FILE}),
    "audit-catalog": (cmd_audit_catalog, "classify every group file in a directory and check "
                      "the catalog invariants", {
                          "directory": ("str", False,
                                        "directory of .grp files (default: bundled catalog)"),
                          "--orders": ("str", False, "comma-separated filter on the order a "
                                       "file's header declares; other files are not parsed "
                                       "past the header")}),
    "wreath-transform": (cmd_wreath_transform, "normalize a system over base wr top and emit the "
                         "per-coordinate equations plus group-ring rows",
                         {"file": FILE, "--base": FILE, "--top": FILE, "--prime": INT}),
    "certify-rows": (cmd_certify_rows, "augmentation-based independence certificate for rows "
                     "over a group algebra", {"file": FILE}),
    "counterexample": (cmd_counterexample, "build the wreath-product instance with its "
                       "unimodular equation and check the obstruction", {
                           "--p": INT, "--q": INT, "--symbolic": (
                               "flag", False, "skip the group realization; ring identity only")}),
    "solve": (cmd_solve, "brute-force a bound system inside its group", {
        "file": FILE, "--group": ("str", False, "group file for 'bind: @group' systems"),
        "--descending": ("flag", False, "scan assignments in descending order")}),
    "enumerate": (cmd_enumerate, "exhaustively enumerate groups of a small order up to "
                  "isomorphism", {"n": INT}),
}
Namespace = type(sys.implementation)      # types.SimpleNamespace, without importing types


def parse_args(argv: list[str]) -> Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` gives when *argv* is
    an exact, complete use of one command, else None: help, --version,
    abbreviations, "=" and "--", a token starting with "-" that is no option
    of the command, and a bad or missing value or argument are argparse's."""
    args = {"config": None, "jobs": None, "format": None}
    spec, positionals, missing = GLOBAL_OPTIONS, [], set()
    tokens = iter(argv)
    for token in tokens:
        if "command" not in args and token in COMMANDS:
            func, _, spec = COMMANDS[token]
            args.update({name.lstrip("-"): False if kind == "flag" else None
                         for name, (kind, _, _) in spec.items()}, command=token, func=func)
            positionals = [name for name in spec if not name.startswith("-")]
            missing = {name for name, (_, required, _) in spec.items() if required}
            continue
        if token.startswith("-") and token in spec:
            name = token
            if spec[name][0] != "flag" and (token := next(tokens, "-")).startswith("-"):
                return None
        elif positionals and not token.startswith("-"):
            name = positionals.pop(0)
        else:
            return None
        kind, dest = spec[name][0], name.lstrip("-")
        try:
            value = True if kind == "flag" else int(token) if kind in ("int", "append") else token
        except ValueError:
            return None
        if isinstance(kind, tuple) and value not in kind:
            return None
        args[dest] = (args[dest] or []) + [value] if kind == "append" else value
        missing.discard(name)
    return Namespace(**args) if "command" in args and not missing else None


def _defaults_epilog() -> str:
    pairs = ", ".join(f"{name}={getattr(DEFAULT_CONFIG, name)}" for name in DEFAULT_CONFIG._fields)
    return ("configuration defaults (override via groupeq.conf, the "
            f"GROUPEQ_CONFIG environment variable, or flags): {pairs}")


def _add_arguments(parser, arguments: dict) -> None:
    for name, (kind, required, help) in arguments.items():
        kw = {"str": {}, "int": {"type": int}, "append": {"type": int, "action": "append"},
              "flag": {"action": "store_true"}}.get(kind, {"choices": kind})
        if name.startswith("-"):
            kw["required"] = required
        elif not required:
            kw["nargs"] = "?"
        parser.add_argument(name, help=help, **kw)


def build_parser():
    """The argparse parser of the command table; only this function loads argparse."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="groupeq", epilog=_defaults_epilog(),
        description="Exact tools for systems of equations over finite groups: exponent-sum "
                    "classification, group-ring certificates, wreath-product transformations, "
                    "and a small-groups structure audit.")
    parser.add_argument("--version", action="version", version=__version__)
    _add_arguments(parser, GLOBAL_OPTIONS)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help, arguments) in COMMANDS.items():
        p = sub.add_parser(command, help=help)
        _add_arguments(p, arguments)
        p.set_defaults(func=func)
    return parser


def _report(exc: Exception) -> int:
    """Print *exc* as one ``error:`` line on stderr and give exit code 2, also
    when stderr itself has failed."""
    try:
        print(f"error: {exc}", file=sys.stderr, flush=True)
    except OSError:
        pass
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code. Without *argv*, main runs
    ``sys.argv[1:]`` and owns the process: after the exit handlers and a flush of
    stdout and stderr, ``os._exit`` ends it and skips only module teardown. A
    failing flush is one ``error:`` line on stderr and exit code 2."""
    if argv is None:
        code = main(sys.argv[1:])
        import atexit
        import os
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:          # None when its fd was closed at start
                    stream.flush()
        except OSError as exc:      # one line; os._exit then skips the shutdown flush
            code = _report(exc)
        os._exit(code)
    args = parse_args(argv) or build_parser().parse_args(argv)
    try:
        flags = {"jobs": args.jobs, "output_format": args.format}
        config = load_config(args.config).replace(**{k: v for k, v in flags.items()
                                                     if v is not None})
        args.format = config.output_format
        return args.func(args, config)
    except (GroupEqError, OSError) as exc:
        return _report(exc)


if __name__ == "__main__":
    raise SystemExit(main())
