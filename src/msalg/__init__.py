"""Finite many-sorted algebras and their single-sorted companions.

The package moves between a many-sorted algebra A and a single-sorted
algebra on the product of its carriers, in both directions, and checks the
structure that is supposed to survive the trip: clone fragments, diagonal
pairs, matrix products, subalgebra and congruence lattices, invariant
relations, Mal'cev and Jonsson conditions.  Everything is finite and
table-driven; results come back as explicit tables, terms, or witness
tuples rather than yes/no alone.

The namespace is lazy (PEP 562): `import msalg` loads no submodule, and a
submodule is imported the first time one of its names, or the submodule
itself, is read through the package.  Loading algebras needs only `core`,
`fmt` and `corpus`.
"""

import importlib

# Each exported name and the submodule it lives in, in the order of __all__.
_HOME = {name: module for module, names in (
    ("core", "App BudgetError CheckResult OpTable Profile ProfileError SortedAlgebra"
             " SortedSignature Symbol Term Var Verification build_algebra compose eval_term"
             " projection table_of_term term_str"),
    ("clone", "CloneFragment PurityReport fragment_contains generate_fragment is_pure"),
    ("corpus", "CORPUS corpus_algebra corpus_names"),
    ("diagonal", "DiagonalPair MatrixProduct decompose_table find_diagonal_pairs matrix_product"
                 " satisfies_diagonal_identity verify_decomposition verify_diagonal_pair"),
    ("fmt", "FormatError emit_algebra load_algebra parse_algebra save_algebra"),
    ("hetero", "CrossSortFamily HeterogenizedAlgebra canonical_pair cross_family_from_purity"
               " heterogenize verify_mu_roundtrip verify_nu_roundtrip verify_pair_independence"),
    ("homog", "HomogenizedAlgebra assemble assembled_fragment homogenize"),
    ("lattice", "Congruence PPFormula Relation SubUniverse congruence_generate direct_product"
                " enumerate_congruences enumerate_subuniverses inv_enumerate pp_evaluate quotient"
                " subalgebra_generate verify_inv_iso verify_sub_con_transfer"),
    ("malcev", "JonssonChain MalcevWitness check_cd_bruteforce check_cp_bruteforce find_jonsson"
               " find_malcev_homog find_malcev_per_sort"),
) for name in names.split()}

_SUBMODULES = frozenset(_HOME.values())

__all__ = list(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module("." + name, __name__)
    else:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
