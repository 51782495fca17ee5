"""Product-carrier collapse: tables, adequacy of the generated clone, and
morphism lifting.

The adequacy check compares two independently computed sets: the fragment
generated inside the collapsed algebra versus the set assembled from source
terms, one per sort.  Neither side knows about the other.
"""

import itertools

import pytest

from msalg.clone import generate_fragment
from oracle_clone import fragment_tables
from msalg.core import BudgetError, Profile, ProfileError, build_algebra, constant_table, is_homomorphism
from msalg.corpus import corpus_algebra, corpus_names
from msalg.homog import (
    assemble,
    assembled_fragment,
    homogenize,
    lift_table,
    morphism_lift,
    verify_morphism_lift,
)


def test_carrier_is_the_product():
    sizes = {"a_tiny": 6, "a_malcev": 6, "a_semilat": 6,
             "nonpure": 4, "a_group": 3, "a_lattice": 4}
    for name, n in sizes.items():
        h = homogenize(corpus_algebra(name))
        assert h.size == n, name
        assert h.algebra.carriers == (n,)
        assert h.algebra.signature.symbols[0].name == "diag"


def test_diag_takes_component_s_from_argument_s():
    h = homogenize(corpus_algebra("a_tiny"))
    d = h.algebra.table("diag")
    for a, b in itertools.product(range(6), repeat=2):
        got = h.decode(d.apply((a, b)))
        assert got == (h.decode(a)[0], h.decode(b)[1]), (a, b)


def test_diag_is_idempotent_and_satisfies_the_grid_identity():
    """d(x, ..., x) = x, and collapsing a full S x S grid row-wise then
    diagonally equals collapsing its main diagonal."""
    for name in ["a_tiny", "a_semilat"]:
        h = homogenize(corpus_algebra(name))
        d = h.algebra.table("diag")
        S = len(h.radices)
        for x in range(h.size):
            assert d.apply((x,) * S) == x
        for grid in itertools.product(range(h.size), repeat=S * S):
            rows = [grid[s * S:(s + 1) * S] for s in range(S)]
            outer = d.apply(tuple(d.apply(r) for r in rows))
            assert outer == d.apply(tuple(rows[s][s] for s in range(S))), grid


def test_lift_applies_f_in_its_slot_and_copies_junk_from_arg_zero():
    for name in corpus_names():
        alg = corpus_algebra(name)
        h = homogenize(alg)
        for sym in alg.signature.symbols:
            f = alg.table(sym.name)
            lifted = h.algebra.table("lift_%s" % sym.name)
            assert lifted == lift_table(h, f)
            for args in itertools.product(range(h.size), repeat=f.arity):
                decoded = [h.decode(a) for a in args]
                got = h.decode(lifted.apply(args))
                want = list(decoded[0])
                want[f.profile.cod] = f.apply(
                    tuple(d[s] for d, s in zip(decoded, sym.profile.inputs)))
                assert got == tuple(want), (name, sym.name, args)


def test_single_sorted_input_collapses_to_itself():
    alg = corpus_algebra("a_group")
    h = homogenize(alg)
    assert h.algebra.table("diag").outputs == (0, 1, 2)
    assert h.algebra.table("lift_p").outputs == alg.table("p").outputs


def test_adequacy_fragments_match_assembled_terms():
    """The lam-ary tables of the collapsed algebra are exactly the
    assemblies of source terms, for lam = 1 and 2."""
    for name in corpus_names():
        alg = corpus_algebra(name)
        h = homogenize(alg)
        for lam in (1, 2):
            frag = generate_fragment(h.algebra, [(0,) * lam])
            inside = set(map(tuple, frag.matrices[Profile((0,) * lam, 0)].tolist()))
            assembled = set(assembled_fragment(h, lam))
            assert inside == assembled, (name, lam, len(inside), len(assembled))


def test_assembled_fragment_needs_lam_at_least_1():
    with pytest.raises(ProfileError):
        assembled_fragment(homogenize(corpus_algebra("a_tiny")), 0)


def test_assembled_fragment_budget_counts_choices():
    # 3 terms into u times 5 into w at lam 1; each fragment fits 5 tables
    h = homogenize(corpus_algebra("a_tiny"))
    assert len(assembled_fragment(h, 1, budget=15)) == 15
    with pytest.raises(BudgetError, match="^assembly would exceed the table budget$"):
        assembled_fragment(h, 1, budget=14)


def test_adequacy_counts_for_the_affine_pair():
    h = homogenize(corpus_algebra("a_malcev"))
    frag = generate_fragment(h.algebra, [(0,), (0, 0)])
    assert len(frag.matrices[Profile((0,), 0)]) == 6
    assert len(frag.matrices[Profile((0, 0), 0)]) == 36


def test_assemble_rejects_bad_components():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    frag = generate_fragment(alg, [(0, 1)])
    g0 = fragment_tables(frag, Profile((0, 1), 0))[0]
    g1 = fragment_tables(frag, Profile((0, 1), 1))[0]
    t = assemble(h, (g0, g1))
    assert t.profile.arity == 1
    with pytest.raises(ProfileError):
        assemble(h, (g1, g0))  # components land in the wrong sorts
    bad = fragment_tables(generate_fragment(alg, [(1, 0)]), Profile((1, 0), 0))[0]
    with pytest.raises(ProfileError):
        assemble(h, (bad, g1))  # profile not (0, 1) repeated
    # components over carriers (4, 1) for a collapse of carriers (1, 4): both
    # have 4 points, and the outputs would all be 0
    swapped = homogenize(build_algebra([("s", 1), ("t", 4)], []))
    with pytest.raises(ProfileError, match="^component 0 is over carriers"):
        assemble(swapped, (constant_table((4, 1), (0, 1), 0, 0), constant_table((4, 1), (0, 1), 1, 0)))


def test_nullary_lift_stays_nullary_when_every_sort_has_closed_terms():
    alg = build_algebra(
        [("s", 2), ("t", 2)],
        [("c", [], "s", [1]), ("u", ["s"], "t", [0, 1])],
    )
    h = homogenize(alg)
    lifted = h.algebra.table("lift_c")
    assert lifted.arity == 0
    # cod slot holds c, the junk slot holds the least closed value in t,
    # which is u(c) = 1
    assert h.decode(lifted.outputs[0]) == (1, 1)


def test_nullary_lift_gains_a_dummy_argument_otherwise():
    alg = build_algebra([("s", 2), ("t", 2)], [("c", [], "s", [1])])
    h = homogenize(alg)
    lifted = h.algebra.table("lift_c")
    assert lifted.arity == 1
    got = tuple(h.decode(lifted.apply((x,))) for x in range(4))
    assert got == ((1, 0), (1, 1), (1, 0), (1, 1))


def test_arity_bound_applies_to_diag():
    # on every call: homogenize's cache stores no error
    alg = build_algebra([("s%d" % i, 1) for i in range(7)], [])
    stored = homogenize.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ProfileError):
            homogenize(alg)
        with pytest.raises(ProfileError):
            homogenize(alg, max_arity=6)
    assert homogenize.cache_info().currsize == stored
    homogenize(alg, max_arity=7)


def test_morphism_lift_of_an_endomorphism():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    ident = (tuple(range(2)), tuple(range(3)))
    ok, detail = verify_morphism_lift(h, h, ident)
    assert ok, detail
    collapse = ((1, 1), (1, 1, 1))
    assert is_homomorphism(alg, alg, collapse)[0]
    ok, detail = verify_morphism_lift(h, h, collapse)
    assert ok, detail
    lifted = morphism_lift(h, h, collapse)
    assert lifted == tuple(h.encode((1, 1)) for _ in range(6))


def test_morphism_lift_rejects_non_homomorphisms():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    broken = ((0, 1), (0, 0, 1))  # cu(broken(1)) = 1 but broken(cu(1)) = 0
    ok, witness = is_homomorphism(alg, alg, broken)
    assert not ok and witness == ("cu", (1,))
    ok, detail = verify_morphism_lift(h, h, broken)
    assert not ok and "source" in detail
