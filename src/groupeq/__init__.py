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

from .algebra import (AbelianGroupSpec, AlgebraElement, AlgebraMatrix,
                      IntegralGroupSpec, RowFamily, augmentation,
                      augmentation_matrix, certify_non_zero_divisor,
                      certify_row_independence,
                      certify_row_independence_rational,
                      decide_row_independence, find_annihilating_combination,
                      is_zero_divisor, nilpotent_basis_expansion,
                      regular_representation)
from .config import Config, DEFAULT_CONFIG, load_config
from .equations import (AbelianSolution, Classification, EquationSystem,
                        SmithDecomposition, classify, classify_matrix,
                        det_int, evaluate_word, exponent_matrix, parse_system,
                        parse_system_file, rank_mod_p, rank_rational,
                        smith_normal_form, solve_abelian_p_system)
from .errors import CapExceeded, GroupEqError, ParseError, ValidationError
from .groups import (FiniteGroup, Homomorphism, Subgroup,
                     affine_group_over_prime_field, all_subgroups,
                     automorphisms, center, commutator_subgroup, cyclic,
                     derived_series, dicyclic, dihedral, direct_product,
                     from_generators, is_metabelian, is_nilpotent, isomorphic,
                     load_group, load_group_file, normal_subgroups, quotient,
                     semidirect_product, subgroup, sylow_subgroup, trivial_group)
from .smallgroups import enumerate_groups
from .verifiers import (AuditReport, BruteForceResult, ClassificationReport,
                        CounterexampleInstance, ObstructionReport,
                        PGroupReport, PqOrderReport, Witness,
                        abelian_by_abelian_p_witness, audit_catalog,
                        brute_force_solve, classify_group,
                        counterexample_build, group_obstruction,
                        obstruction_check, p_group_equation_check,
                        pq_structure_check)
from .words import Letter, Word, exponent_sum, format_word, parse_word
from .wreath import (TransformedSystem, WreathGroup, extract_rows,
                     kaloujnine_krasner, coordinatewise_transform,
                     normalize_top_component, reconstruct_solution,
                     wreath_product)
