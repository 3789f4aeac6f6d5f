import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import groupeq
from groupeq.equations import (EquationSystem, compile_word, exponent_matrix,
                               rank_mod_p, scan_solutions)
from groupeq.words import COEFF, VAR, Letter

# the catalog constructions live in the script that writes the catalog files;
# a test imports them with `from make_catalog import ...`
_spec = importlib.util.spec_from_file_location(
    "make_catalog", Path(__file__).resolve().parents[1] / "scripts" / "make_catalog.py")
make_catalog = sys.modules["make_catalog"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_catalog)
CATALOG, build_all, slug = make_catalog.CATALOG, make_catalog.build_all, make_catalog.slug


def python_env() -> dict[str, str]:
    """The environment of a child interpreter that imports this checkout's groupeq."""
    src = str(Path(groupeq.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(script: str, *args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run *script* in a fresh interpreter that imports this checkout's
    groupeq; a child still running after *timeout* seconds fails the test."""
    return subprocess.run([sys.executable, "-c", script, *args], env=python_env(),
                          capture_output=True, text=True, timeout=timeout)


def random_wreath_system(W, rng: random.Random, max_vars: int = 2,
                         prime: int = 2) -> EquationSystem:
    """A random square system over the wreath group W whose exponent matrix
    is invertible mod the given prime."""
    nv = rng.randint(1, max_vars)
    variables = tuple(f"x{i}" for i in range(nv))
    while True:
        symbols: dict[str, int] = {}
        words = []
        for _ in range(nv):
            letters = []
            for _ in range(rng.randint(1, 5)):
                if rng.random() < 0.55:
                    letters.append(Letter(VAR, rng.choice(variables),
                                          rng.choice((1, -1))))
                else:
                    sym = f"g{len(symbols)}"
                    symbols[sym] = rng.randrange(W.order)
                    letters.append(Letter(COEFF, sym, rng.choice((1, -1))))
            words.append(tuple(letters))
        system = EquationSystem(variables, tuple(symbols), tuple(words))
        if rank_mod_p(exponent_matrix(system), prime) == nv:
            return system.bind(W, symbols)


def bound_solutions(system: EquationSystem, domain=None) -> list[dict[str, int]]:
    """Every solution of a bound system with values in *domain* (default:
    the whole group), in scan order, through the scan behind `solve` (e.g.
    the ``system`` of a coordinatewise transform)."""
    G, values = system.binding.group, system.binding.values
    words = [compile_word(w, G, values) for w in system.words]
    domain = G.elements() if domain is None else domain
    return [dict(zip(system.variables, sol)) for _, sol in
            scan_solutions(G, words, system.variables, domain)]
