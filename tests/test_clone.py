"""Clone fragment generation against an independent term-enumeration oracle.

The oracle below builds terms breadth first and tabulates each with
table_of_term; it never touches the closure engine's vector stores, so an
agreement between the two is a real cross-check.  Frozen counts in this file
were produced by the oracle and verified by hand where small enough.
"""

import itertools

import numpy as np
import pytest

from msalg import clone
from msalg.clone import fragment_contains, generate_fragment, is_pure
from msalg.core import (
    BudgetError,
    OpTable,
    Profile,
    SortedAlgebra,
    SortedSignature,
    Symbol,
    TABLE_BUDGET,
    build_algebra,
    table_of_term,
    term_depth,
    validate_term,
)
from msalg.corpus import corpus_algebra, corpus_names
from oracle_clone import fragment_tables


def oracle_fragment(alg, inputs):
    """Every term table at the given input profile, by plain fixpoint over
    output tuples with handwritten pointwise composition.  Returns
    {(cod, outputs): depth of first find}.  Depths are exact because round r
    only combines tables found strictly earlier.
    """
    sizes = [alg.carriers[s] for s in inputs]
    points = list(itertools.product(*(range(n) for n in sizes)))
    seen = {}
    for i, s in enumerate(inputs):
        seen.setdefault((s, tuple(p[i] for p in points)), 0)
    fresh = set(seen)
    depth = 0
    while True:
        depth += 1
        pools = {}
        new = {}
        for sym in alg.signature.symbols:
            f = alg.table(sym.name)
            if f.arity == 0:
                if depth == 1:
                    key = (sym.profile.cod, tuple(f.outputs[0] for _ in points))
                    if key not in seen:
                        new.setdefault(key, depth)
                continue
            for s_in in sym.profile.inputs:
                if s_in not in pools:
                    pools[s_in] = [(o, (s_in, o) in fresh) for (cod, o) in seen if cod == s_in]
            doms = f.domain_sizes
            flat = f.outputs
            for combo in itertools.product(*(pools[s] for s in sym.profile.inputs)):
                if not any(isnew for _, isnew in combo):
                    continue
                outs = []
                for j in range(len(points)):
                    idx = 0
                    for (o, _), nn in zip(combo, doms):
                        idx = idx * nn + o[j]
                    outs.append(flat[idx])
                key = (sym.profile.cod, tuple(outs))
                if key not in seen:
                    new.setdefault(key, depth)
        if not new:
            return seen
        seen.update(new)
        fresh = set(new)


def as_table_set(frag, inputs, n_sorts):
    out = set()
    for cod in range(n_sorts):
        for row in frag.matrices[Profile(inputs, cod)].tolist():
            out.add((cod, tuple(row)))
    return out


def test_a_tiny_unary_w_fragment_is_frozen_four():
    """The unary fragment on sort w of a_tiny: identity, the shift m, the
    collapse through sort u, and the constant 1."""
    alg = corpus_algebra("a_tiny")
    frag = generate_fragment(alg, [(1,)])
    tables = set(map(tuple, frag.matrices[Profile((1,), 1)].tolist()))
    assert tables == {(0, 1, 2), (1, 1, 2), (0, 1, 1), (1, 1, 1)}
    oracle = oracle_fragment(alg, (1,))
    assert {o for (cod, o) in oracle if cod == 1} == tables


def test_engine_matches_oracle_everywhere_small():
    for name in corpus_names():
        alg = corpus_algebra(name)
        profiles = [(s,) for s in range(alg.n_sorts)]
        profiles += [(0, 0)]
        if alg.n_sorts > 1:
            profiles += [(0, 1), (1, 0)]
        frag = generate_fragment(alg, profiles)
        for inputs in profiles:
            got = as_table_set(frag, inputs, alg.n_sorts)
            want = {(cod, o) for (cod, o) in oracle_fragment(alg, inputs)}
            assert got == want, (name, inputs)


def test_witnesses_retabulate_to_their_tables():
    for name in ["a_tiny", "a_malcev", "a_lattice"]:
        alg = corpus_algebra(name)
        frag = generate_fragment(alg, [(0,), (1,), (1, 0)])
        for prof, terms in frag.witnesses.items():
            for tab, term in zip(fragment_tables(frag, prof), terms):
                validate_term(alg, term)
                assert table_of_term(alg, term) == tab, (name, prof)


def test_witness_depths_are_minimal():
    alg = corpus_algebra("a_tiny")
    frag = generate_fragment(alg, [(1,)])
    oracle = oracle_fragment(alg, (1,))
    for cod in range(2):
        prof = Profile((1,), cod)
        for tab, term in zip(fragment_tables(frag, prof), frag.witnesses[prof]):
            assert term_depth(term) == oracle[(cod, tab.outputs)], tab.outputs


def test_table_set_independent_of_symbol_order():
    base = corpus_algebra("a_tiny")
    reordered = SortedAlgebra(
        SortedSignature(base.signature.sorts, base.signature.symbols[::-1]),
        base.carriers,
        base.tables[::-1],
    )
    f1 = generate_fragment(base, [(1,), (0, 1)])
    f2 = generate_fragment(reordered, [(1,), (0, 1)])
    for inputs in [(1,), (0, 1)]:
        assert as_table_set(f1, inputs, 2) == as_table_set(f2, inputs, 2), inputs


def test_generation_is_deterministic_across_runs():
    """Two fresh computations, past the shared cache, agree on every table
    and witness in order."""
    alg = corpus_algebra("a_malcev")
    fresh = clone._closure_full.__wrapped__
    first, second = fresh(alg, (0, 1), TABLE_BUDGET), fresh(alg, (0, 1), TABLE_BUDGET)
    assert first.keys() == second.keys()
    for s, (matrix, terms) in first.items():
        assert np.array_equal(matrix, second[s][0]), s
        assert terms == second[s][1], s


@pytest.mark.parametrize("name", corpus_names())
def test_tables_are_the_matrix_rows_in_order(name):
    """Each witness term tabulates to its row of matrices[p], in order,
    and a matrix, shared through the closure cache, refuses writes."""
    alg = corpus_algebra(name)
    profiles = [v for k in (1, 2) for v in itertools.product(range(alg.n_sorts), repeat=k)]
    frag = generate_fragment(alg, profiles)
    assert set(frag.matrices) == {Profile(v, s) for v in profiles for s in range(alg.n_sorts)}
    for p, matrix in frag.matrices.items():
        assert len(frag.witnesses[p]) == len(matrix), p
        for row, term in zip(matrix.tolist(), frag.witnesses[p]):
            assert table_of_term(alg, term) == OpTable(p, alg.carriers, tuple(row)), p
        with pytest.raises(ValueError):
            matrix[...] = 0


def test_nullary_symbols_enter_the_fragment():
    alg = build_algebra([("s", 2)], [("c", [], "s", [1]), ("f", ["s"], "s", [1, 0])])
    frag = generate_fragment(alg, [(0,)])
    tables = set(map(tuple, frag.matrices[Profile((0,), 0)].tolist()))
    assert tables == {(0, 1), (1, 0), (1, 1), (0, 0)}
    for term in frag.witnesses[Profile((0,), 0)]:
        assert term.profile.inputs == (0,)
        validate_term(alg, term)
    # the empty input profile holds exactly the nullary-generated constants
    frag0 = generate_fragment(alg, [()])
    assert set(map(tuple, frag0.matrices[Profile((), 0)].tolist())) == {(1,), (0,)}


def test_empty_input_profile_without_nullaries_is_empty():
    alg = corpus_algebra("a_tiny")
    frag = generate_fragment(alg, [()])
    assert len(frag.matrices[Profile((), 0)]) == 0
    assert len(frag.matrices[Profile((), 1)]) == 0


def test_fragment_contains_and_rejects():
    alg = corpus_algebra("a_tiny")
    frag = generate_fragment(alg, [(1,)])
    found, term = fragment_contains(frag, alg.table("m"))
    assert found and table_of_term(alg, term) == alg.table("m")
    swap = OpTable(Profile((1,), 1), alg.carriers, (0, 2, 1))
    found, term = fragment_contains(frag, swap)
    assert not found and term is None
    with pytest.raises(KeyError):
        fragment_contains(frag, OpTable(Profile((1, 1), 1), alg.carriers, (0,) * 9))


def test_budget_is_enforced():
    alg = corpus_algebra("a_malcev")
    with pytest.raises(BudgetError):
        generate_fragment(alg, [(1, 1, 1)], budget=5)


def test_arity_bound_on_requested_profile():
    alg = corpus_algebra("a_tiny")
    with pytest.raises(Exception):
        generate_fragment(alg, [(1,) * 7])


def test_purity_of_corpus():
    expect = {
        "a_tiny": True, "a_malcev": True, "a_semilat": True,
        "nonpure": False, "a_group": True, "a_lattice": True,
    }
    for name, want in expect.items():
        rep = is_pure(corpus_algebra(name))
        assert rep.pure == want, name
    rep = is_pure(corpus_algebra("nonpure"))
    assert rep.missing() == ((0, 1), (1, 0))


def test_purity_witnesses_land_in_the_right_sort():
    alg = corpus_algebra("a_tiny")
    rep = is_pure(alg)
    for (s1, s2), term in rep.witnesses.items():
        assert term is not None
        assert term.profile == Profile((s1,), s2)
        validate_term(alg, term)
