"""groupeq: exact computation with systems of equations over finite groups.

The package covers four connected areas:

* a finite group engine (Cayley tables, subgroup lattices, derived series,
  Sylow subgroups, quotients, isomorphism testing) with a bundled catalog
  of all groups of the covered small orders;
* equation words and systems, their exponent-sum matrices, Smith normal
  form over the integers, and the non-singular / p-nonsingular /
  unimodular classification;
* group algebras of finitely generated abelian groups over prime fields,
  with augmentation certificates for non-zero-divisors and for row
  independence, plus exact finite oracles;
* Cartesian wreath products with the coordinatewise transformation that
  reduces a system over H wr B to systems over H, and the verification
  tooling built on top of it (structure audits, the unimodular
  counterexample family and its obstruction).
"""

__version__ = "0.1.0"

# Each public name by the module that defines it. A module is imported when one of
# its names is first read (PEP 562), so a command loads only the layers it uses.
_EXPORTS = {
    "algebra": "AbelianGroupSpec AlgebraElement AlgebraMatrix IntegralGroupSpec RowFamily "
               "augmentation augmentation_matrix certify_non_zero_divisor "
               "certify_row_independence decide_row_independence "
               "find_annihilating_combination is_zero_divisor nilpotent_basis_expansion "
               "regular_representation",
    "catalog": "", "record": "",            # submodules that export no name
    "config": "Config DEFAULT_CONFIG load_config",
    "equations": "AbelianSolution Classification EquationSystem SmithDecomposition classify "
                 "classify_matrix det_int evaluate_word exponent_matrix parse_system "
                 "parse_system_file rank_mod_p smith_normal_form solve_abelian_p_system",
    "errors": "CapExceeded GroupEqError ParseError ValidationError",
    "groups": "FiniteGroup Homomorphism Subgroup all_subgroups automorphisms center "
              "commutator_subgroup cyclic derived_series direct_product from_generators "
              "is_metabelian is_nilpotent isomorphic load_group load_group_file "
              "normal_subgroups quotient subgroup sylow_subgroup trivial_group",
    "smallgroups": "enumerate_groups",
    "verifiers": "AuditReport BruteForceResult ClassificationReport CounterexampleInstance "
                 "ObstructionReport PGroupReport PqOrderReport Witness "
                 "abelian_by_abelian_p_witness audit_catalog brute_force_solve classify_group "
                 "counterexample_build group_obstruction obstruction_check "
                 "p_group_equation_check pq_structure_check",
    "words": "Letter Word exponent_sum format_word parse_word",
    "wreath": "TransformedSystem WreathGroup extract_rows kaloujnine_krasner "
              "coordinatewise_transform normalize_top_component reconstruct_solution",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_OWNER)


def __getattr__(name: str):
    from importlib import import_module
    if name in _EXPORTS:                 # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
