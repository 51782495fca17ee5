"""Every open-grid tabulation against its per-point oracle.

The oracles in oracle_tabulate.py walk the domain one point at a time, the
way the library did before the tabulation kernel in msalg.core.  Each case
below runs one converted function and its oracle over the same inputs:
every corpus algebra and its collapse, the binary direct powers, algebras
with nullary symbols, and an algebra with an empty carrier.  Results must
be equal, and every table output must be a Python int: table_search_key
hashes repr(outputs), so numpy scalars would reorder the searches.
"""

from functools import lru_cache

import numpy as np
import pytest

import oracle_tabulate as oracle
from oracle_clone import fragment_tables
from msalg.clone import generate_fragment
from msalg.core import (
    OpTable,
    Profile,
    SortedAlgebra,
    build_algebra,
    compose,
    encode_choices,
    grid_columns,
    is_homomorphism,
    projection,
)
from msalg.corpus import corpus_algebra, corpus_names
from msalg.diagonal import _class_assembled_fragment, decompose_table, find_diagonal_pairs, matrix_product
from msalg.hetero import (
    _conjugate,
    _conjugated,
    canonical_pair,
    cross_family_from_purity,
    heterogenize,
    mu_maps,
)
from msalg.homog import _diag_table, _lift, assemble, assembled_fragment, homogenize, morphism_lift
from msalg.lattice import (
    _formula_sample,
    _pp_grid,
    _quotient_psi,
    _square_psi,
    congruence_generate,
    congruence_product,
    direct_product,
    enumerate_congruences,
    enumerate_subuniverses,
    inv_enumerate,
    quotient,
    restrict_to_subuniverse,
    subalgebra_generate,
)


def _nullary_algebras():
    """Constants with and without a closed term in every sort, and a carrier
    left empty so that one table has an empty domain."""
    every_sort = build_algebra([("u", 2), ("w", 3)], [
        ("c", (), "u", (1,)),
        ("k", (), "w", (2,)),
        ("f", ("u", "w"), "w", (0, 1, 2, 2, 1, 0)),
    ])
    dummy = build_algebra([("u", 2), ("w", 3)], [
        ("c", (), "u", (1,)),
        ("f", ("u",), "u", (1, 0)),
        ("g", ("w", "w"), "w", (0, 1, 2, 1, 2, 0, 2, 0, 1)),
    ])
    empty = build_algebra([("u", 0), ("w", 2)], [
        ("g", ("u",), "w", ()),
        ("h", ("w",), "w", (1, 0)),
        ("p", ("u", "w"), "u", ()),
    ])
    return [("every_sort", every_sort), ("dummy", dummy), ("empty", empty)]


@lru_cache(maxsize=None)
def bases():
    """Corpus and special algebras, by name."""
    return tuple([(name, corpus_algebra(name)) for name in corpus_names()] + _nullary_algebras())


@lru_cache(maxsize=None)
def collapses():
    return tuple((name, homogenize(alg)) for name, alg in bases())


@lru_cache(maxsize=None)
def algebras():
    """Every input algebra: the bases, their collapses and the binary
    direct powers of the corpus."""
    out = list(bases())
    out += [("h_" + name, h.algebra) for name, h in collapses()]
    out += [(name + "^2", direct_product([corpus_algebra(name)] * 2)) for name in corpus_names()]
    return tuple(out)


@lru_cache(maxsize=None)
def pairs():
    """(collapse, pair) for each pure base, along its canonical pair, plus
    the width-2 diagonal pairs of the single-sorted corpus algebra."""
    out = []
    for name, h in collapses():
        family = cross_family_from_purity(h.source)
        if family is not None:
            out.append((name, h.algebra, canonical_pair(h, family)))
    group = corpus_algebra("a_group")
    out += [("a_group", group, p) for p in find_diagonal_pairs(group, 2)[:2]]
    return tuple(out)


def _shifted(alg):
    """One arbitrary per-sort self-map of the carriers."""
    return tuple(tuple((v + 1) % n for v in range(n)) for n in alg.carriers)


def _inner_tables(alg, f):
    """Inner tables for f over f's own input profile: a basic table where
    one fits, a projection otherwise."""
    ins = f.profile.inputs
    out = []
    for i, s in enumerate(ins):
        fit = [t for t in alg.tables if t.profile == Profile(ins, s)]
        out.append(fit[-1] if fit else projection(alg.carriers, ins, i))
    return tuple(out)


# ------------------------------------------------------------------ cases
# Each case yields (label, fast result, oracle result).

def case_projection():
    for name, alg in algebras():
        for f in alg.tables:
            for pos in range(f.arity):
                ins = f.profile.inputs
                yield name, projection(alg.carriers, ins, pos), oracle.projection(alg.carriers, ins, pos)


def case_compose():
    for name, alg in algebras():
        for f in alg.tables:
            if f.arity:
                gs = _inner_tables(alg, f)
                yield name, compose(f, gs), oracle.compose(f, gs)
            else:
                for s in range(alg.n_sorts):
                    yield (name + " no inner", compose(f, (), inputs=(s,)),
                           oracle.compose(f, (), inputs=(s,)))


def case_is_homomorphism():
    for name, alg in algebras():
        ident = tuple(tuple(range(n)) for n in alg.carriers)
        for maps in (ident, _shifted(alg)):
            yield name, is_homomorphism(alg, alg, maps), oracle.is_homomorphism(alg, alg, maps)
        for cong in _congruences(name, alg):
            q = quotient(alg, cong)
            yield (name + " quotient", is_homomorphism(alg, q, cong.classes),
                   oracle.is_homomorphism(alg, q, cong.classes))


def case_lift():
    for name, h in collapses():
        yield name + " diag", _diag_table(h.radices), oracle.diag_table(h.radices)
        for f in h.source.tables:
            if f.arity:
                yield name, _lift(h.radices, f), oracle.lift(h.radices, f)
            else:
                yield name + " dummy", _lift(h.radices, f), oracle.dummy_lift(h.radices, f)


def case_assemble():
    for name, h in collapses():
        S = len(h.radices)
        rho = tuple(range(S))
        frag = generate_fragment(h.source, [rho])
        per_sort = [fragment_tables(frag, Profile(rho, s)) for s in range(S)]
        if all(per_sort):
            for k in range(3):
                gs = tuple(ts[k % len(ts)] for ts in per_sort)
                yield name, assemble(h, gs), oracle.assemble(h, gs)


def case_assembled_fragment():
    for name, h in collapses():
        for lam in (1, 2):
            rho = tuple(range(len(h.radices))) * lam
            frag = generate_fragment(h.source, [rho])
            per_sort = [fragment_tables(frag, Profile(rho, s)) for s in range(len(h.radices))]
            yield ("%s lam=%d" % (name, lam), list(assembled_fragment(h, lam).items()),
                   list(oracle.assembled_fragment(h, per_sort).items()))


def case_encode_choices():
    rows = np.asarray([[0, 1, 1], [1, 0, 0]]), np.asarray([[2, 0, 1], [1, 1, 1], [0, 0, 2]])
    cases = [
        ("two stacks", rows, (2, 3)),
        ("one stack", rows[1:], (3,)),
        ("three stacks", (rows[1], np.zeros((2, 3), dtype=np.int64), rows[0]), (3, 1, 2)),
        ("a stack of no rows", (rows[0], np.zeros((0, 3), dtype=np.int64)), (2, 3)),
        ("zero points", (np.zeros((2, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)), (2, 3)),
    ]
    for label, stacks, radices in cases:
        fast = encode_choices(stacks, radices)
        slow = oracle.encode_choices(stacks, radices)
        yield label, fast.shape, (len(slow), stacks[0].shape[1])
        yield label, fast.tolist(), slow


def case_morphism_lift():
    for name, h in collapses():
        maps = _shifted(h.source)
        yield name, morphism_lift(h, h, maps), oracle.morphism_lift(h, h, maps)


def case_decompose_table():
    for name, alg, pair in pairs():
        for f in alg.tables + (pair.d,) + pair.es:
            yield name, decompose_table(alg, pair, f), oracle.decompose_table(alg, pair, f)


def _rows(matrix):
    """The rows of a table matrix as the set of outputs tuples the oracle
    returns."""
    return set(map(tuple, matrix.tolist()))


def case_class_assembly():
    for name, alg, pair in pairs():
        mp = matrix_product(alg, pair)
        yield name, _rows(_class_assembled_fragment(mp, 1)), oracle.class_assembled_fragment(mp, 1)
        if alg.carriers[0] <= 4:
            yield name + " lam=2", _rows(_class_assembled_fragment(mp, 2)), oracle.class_assembled_fragment(mp, 2)


def case_heterogenize():
    for name, alg, pair in pairs():
        yield name, heterogenize(alg, pair).algebra.tables, oracle.heterogenize_tables(alg, pair)


def case_conjugate():
    for name, alg in algebras():
        fwd = tuple(tuple(reversed(range(n))) for n in alg.carriers)
        for f in alg.tables:
            yield name, _conjugate(f, fwd, fwd, alg.carriers), oracle.conjugate(f, fwd, fwd, alg.carriers)
        # every table of one profile at once, as the fragment checks stack them
        for p in dict.fromkeys(f.profile for f in alg.tables):
            tables = [f for f in alg.tables if f.profile == p]
            stack = np.asarray([f.outputs for f in tables], dtype=np.int64)
            yield name, _conjugated(stack, p, fwd, fwd, alg.carriers), [
                list(oracle.conjugate(f, fwd, fwd, alg.carriers).outputs) for f in tables]


def case_mu_maps_and_canonical_pair():
    for name, h in collapses():
        family = cross_family_from_purity(h.source)
        if family is not None:
            yield name, mu_maps(h, family), oracle.mu_maps(h, family)
            yield name, canonical_pair(h, family).es, oracle.canonical_es(h, family)


def _congruences(name, alg):
    if name.endswith("^2"):
        return [congruence_generate(alg, [[(0, 1)]] + [[]] * (alg.n_sorts - 1))]
    return enumerate_congruences(alg)


def case_quotient():
    for name, alg in algebras():
        for cong in _congruences(name, alg):
            yield name, quotient(alg, cong).tables, oracle.quotient_tables(alg, cong)


def case_restrict_to_subuniverse():
    for name, alg in algebras():
        if name.endswith("^2"):
            subs = [subalgebra_generate(alg, [{0}] + [set()] * (alg.n_sorts - 1))]
        else:
            subs = enumerate_subuniverses(alg)
        for su in subs:
            yield name, restrict_to_subuniverse(alg, su).tables, oracle.restrict_tables(alg, su)


def case_direct_product():
    for name, alg in bases() + tuple(("h_" + n, h.algebra) for n, h in collapses()):
        yield name, direct_product([alg, alg]).tables, oracle.direct_product_tables([alg, alg])
    tiny = corpus_algebra("a_tiny")
    yield "cube", direct_product([tiny] * 3).tables, oracle.direct_product_tables([tiny] * 3)


def case_transfer_maps():
    for name, h in collapses():
        alg = h.source
        for theta in enumerate_congruences(alg):
            yield name, congruence_product(h, theta).classes[0], oracle.congruence_product_classes(h, theta)
            hq = homogenize(quotient(alg, theta))
            yield name, _quotient_psi(h, hq, theta), oracle.quotient_psi(h, hq, theta)
        hsq = homogenize(direct_product([alg, alg]))
        yield name, _square_psi(h, hsq), oracle.square_psi(alg, h, hsq)


def case_pp_sides():
    for name in ("a_tiny", "a_group"):
        alg = corpus_algebra(name)
        h = homogenize(alg)
        rels = inv_enumerate(alg, 1)[:2] + inv_enumerate(alg, 2)[1:3]
        rows = (row for _, block in _pp_grid(h.size, rels, 3) for row in block)
        for p, (f, row) in enumerate(zip(_formula_sample(rels, 3), rows, strict=True)):
            # every seventh formula, and every closed one with a single conjunct
            if p % 7 == 0 or (f.mu == 0 and len(f.conjuncts) == 1):
                yield name, np.flatnonzero(row), oracle.pp_codes(h, rels, f)


def case_grid_columns():
    for name, alg in algebras():
        for f in alg.tables:
            sizes = f.domain_sizes
            yield (name, grid_columns(sizes),
                   oracle.closure_columns(alg.carriers, f.profile.inputs))


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


def _all_python_ints(x) -> bool:
    """No numpy scalar anywhere in x: ints are Python ints, and the other
    leaves are flags, names or None."""
    if isinstance(x, OpTable):
        return all(type(v) is int for v in x.outputs)
    if isinstance(x, SortedAlgebra):
        return _all_python_ints(x.tables)
    if isinstance(x, (tuple, list, set, frozenset)):
        return all(_all_python_ints(v) for v in x)
    if isinstance(x, np.ndarray):
        return True
    return type(x) in (int, bool, str, type(None))


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_oracle(case):
    count = 0
    for label, fast, slow in CASES[case]():
        assert _same(fast, slow), (case, label)
        assert _all_python_ints(fast), (case, label)
        count += 1
    assert count, "case %s compared nothing" % case
