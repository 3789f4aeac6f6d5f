"""Run one groupeq command with its public functions wrapped in spans.

Usage: python launcher.py SPANS_OUT COMMAND_ID [groupeq arguments...]

The launcher imports groupeq.cli, wraps every public function of every
groupeq module (and the named methods below) from the outside, replacing
the function wherever a module holds it by name, runs ``cli.main`` and
writes the spans as JSON lines at exit.  The exit code is main's.

A span is (id, parent, name, start_ns, end_ns); spans on worker threads
whose own stack is empty take the main thread's innermost open span as
parent.  The hottest functions only count calls, so that tracing does not
swamp the work it measures.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import sys
import threading
import time
import types

METHODS = [("groups", "FiniteGroup", "validate"), ("algebra", "AlgebraElement", "__mul__"),
           ("wreath", "WreathGroup", "mul"), ("wreath", "WreathGroup", "realize")]

# count-only: called up to millions of times per command
COUNT_ONLY = {"groups.closure", "groups.perm_compose", "equations.evaluate_word",
              "algebra.AlgebraElement.mul", "wreath.WreathGroup.mul"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, itertools.count] = {}
        self.ids = itertools.count(1)
        self.local = threading.local()
        self.main_stack: list[int] = []
        self.local.stack = self.main_stack
        self.first_word = None        # first equation of the running brute_force_solve
        self.evaluated = itertools.count()

    def _stack(self) -> list[int]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def span(self, name: str, fn):
        spans, ids, clock = self.spans, self.ids, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self.main_stack[-1] if self.main_stack else 0)
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, name, start, clock()))
                stack.pop()
        return wrapper

    def counter(self, name: str, fn):
        calls = self.counts.setdefault(name, itertools.count())
        if name == "equations.evaluate_word":
            evaluated = self.evaluated

            def evaluate_word(word, *args, **kwargs):
                next(calls)
                if word is self.first_word:
                    next(evaluated)
                return fn(word, *args, **kwargs)
            return evaluate_word

        def wrapper(*args, **kwargs):
            next(calls)
            return fn(*args, **kwargs)
        return wrapper

    def wrap(self, name: str, fn):
        if name == "verifiers.brute_force_solve":
            inner = fn

            def fn(system, *args, **kwargs):
                self.first_word = system.words[0] if system.words else None
                return inner(system, *args, **kwargs)
        return (self.counter if name in COUNT_ONLY else self.span)(name, fn)

    def install(self, package) -> None:
        modules = {info.name: importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)}
        replaced: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and (short != "cli" or attr == "main")):
                    replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and isinstance(obj, types.FunctionType):
                    setattr(mod, attr, replaced[id(obj)])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            label = f"{short}.{cls_name}.{meth.strip('_')}"
            setattr(cls, meth, self.wrap(label, getattr(cls, meth)))

    def write(self, path: str, command: str, import_ns: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"cmd": command, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            counts = {f"{name}.calls": next(c) for name, c in self.counts.items()}
            counts["verifiers.brute_force_solve.evaluated"] = next(self.evaluated)
            fh.write(json.dumps({"cmd": command, "counts": counts,
                                 "import_ns": import_ns}) + "\n")


def main() -> int:
    out_path, command, *args = sys.argv[1:]
    start = time.perf_counter_ns()
    import groupeq
    import groupeq.cli
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    tracer.install(groupeq)
    try:
        return groupeq.cli.main(args)
    finally:
        tracer.write(out_path, command, import_ns)


if __name__ == "__main__":
    sys.exit(main())
