"""Subalgebra and congruence machinery, transfer to the product carrier,
and invariant relations.

Oracles here are deliberately naive: subuniverses by filtering every
candidate family row by row, principal congruences by full-operation
partition refinement, pp membership by explicit witness search.  Frozen
values were derived by hand first and are asserted literally:

  - Sub(a_tiny) has exactly 5 families (cu forces B_w to meet cw's image,
    m pushes 0 to 1, so ({0}, {0}) dies and only the five below survive);
  - the subalgebra of a_tiny generated by {1} at sort u is ({1}, {1});
  - Con(a_tiny) has 4 members; the principal congruence of (0,1) at sort
    u of a_malcev is full on u and trivial on w;
  - NonPure has 16 closed families but H(NonPure) only 10 subuniverses,
    the boxes; the two one-empty-component families collapse onto the
    empty one.
"""

import functools
import itertools

import numpy as np
import pytest

import oracle_lattice as oracle
from value_caches import clear_msalg_caches, msalg_caches
from msalg import lattice
from msalg.clone import is_pure
from msalg.core import BudgetError, ProfileError, build_algebra, open_grid
from msalg.corpus import corpus_algebra
from msalg.homog import homogenize
from msalg.lattice import (
    Congruence,
    PPFormula,
    Relation,
    SubUniverse,
    _formula_sample,
    _pp_grid,
    _pp_members,
    _pp_outside_inv,
    _pp_sample,
    congruence_generate,
    congruence_join,
    congruence_meet,
    congruence_product,
    direct_product,
    enumerate_congruences,
    enumerate_subuniverses,
    family_product,
    inv_enumerate,
    invariance_witness,
    is_closed_family,
    is_congruence,
    make_congruence,
    make_subuniverse,
    pp_evaluate,
    quotient,
    restrict_to_subuniverse,
    subalgebra_generate,
    verify_inv_iso,
    verify_sub_con_transfer,
)


# ---------------------------------------------------------------- oracles

def oracle_closed_families(alg):
    """All closed families, by checking every candidate row by row."""
    def subsets(n):
        out = []
        for mask in range(1 << n):
            out.append(tuple(i for i in range(n) if mask >> i & 1))
        return out

    good = []
    for family in itertools.product(*[subsets(n) for n in alg.carriers]):
        parts = [set(p) for p in family]
        ok = True
        for sym, tab in zip(alg.signature.symbols, alg.tables):
            for args in tab.domain():
                if all(a in parts[s] for a, s in zip(args, sym.profile.inputs)):
                    if tab.apply(args) not in parts[sym.profile.cod]:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            good.append(family)
    return set(good)


def oracle_principal_congruence(alg, sort, a, b):
    """Least congruence relating a and b, by full-operation refinement.

    Keeps a per-sort list of blocks and merges the output blocks of any
    two argument rows that are blockwise related, until nothing changes.
    """
    blocks = [[{x} for x in range(n)] for n in alg.carriers]

    def block_of(s, x):
        for i, blk in enumerate(blocks[s]):
            if x in blk:
                return i
        raise AssertionError("unreachable")

    def merge(s, x, y):
        i, j = block_of(s, x), block_of(s, y)
        if i == j:
            return False
        keep, drop = min(i, j), max(i, j)
        blocks[s][keep] |= blocks[s][drop]
        del blocks[s][drop]
        return True

    merge(sort, a, b)
    changed = True
    while changed:
        changed = False
        for sym, tab in zip(alg.signature.symbols, alg.tables):
            ins = sym.profile.inputs
            for row1 in tab.domain():
                for row2 in tab.domain():
                    if all(block_of(s, x) == block_of(s, y)
                           for s, x, y in zip(ins, row1, row2)):
                        if merge(sym.profile.cod, tab.apply(row1), tab.apply(row2)):
                            changed = True
    labels = []
    for s, n in enumerate(alg.carriers):
        lab, nxt, seen = [0] * n, 0, {}
        for x in range(n):
            i = block_of(s, x)
            if i not in seen:
                seen[i] = nxt
                nxt += 1
            lab[x] = seen[i]
        labels.append(tuple(lab))
    return tuple(labels)


def oracle_pp(relations, formula, carrier):
    """pp membership by explicit existential witness search."""
    res = set()
    for free in itertools.product(range(carrier), repeat=formula.mu):
        for ext in itertools.product(range(carrier), repeat=formula.nu):
            assign = free + ext
            if all(tuple(assign[p] for p in cmap) in relations[k].tuples
                   for k, cmap in formula.conjuncts):
                res.add(free)
                break
    return res


# ------------------------------------------------------------ subuniverses

def test_subalgebra_generate_frozen_and_oracle():
    alg = corpus_algebra("a_tiny")
    su = subalgebra_generate(alg, [{1}, set()])
    assert su.sets == ((1,), (1,))
    # the oracle's least family containing the generators agrees
    candidates = [f for f in oracle_closed_families(alg)
                  if 1 in f[0]]
    least = min(candidates, key=lambda f: (len(f[0]) + len(f[1]), f))
    assert su.sets == least


def test_subalgebra_generate_trivial_families():
    alg = corpus_algebra("a_tiny")
    full = subalgebra_generate(alg, [set(range(n)) for n in alg.carriers])
    assert full.sets == ((0, 1), (0, 1, 2))
    empty = subalgebra_generate(alg, [set(), set()])
    assert empty.sets == ((), ())
    # no corpus algebra has a nullary symbol, so nothing generates from
    # nothing there; with a real constant the value gets pulled in
    pointed = build_algebra([("x", 3)], [("c", [], "x", [1]),
                                         ("f", ["x"], "x", [2, 2, 0])])
    assert subalgebra_generate(pointed, [set()]).sets == ((0, 1, 2),)


def test_enumerate_subuniverses_frozen_counts():
    alg = corpus_algebra("a_tiny")
    subs = enumerate_subuniverses(alg)
    assert [su.sets for su in subs] == [
        ((), ()),
        ((0, 1), (0, 1)),
        ((0, 1), (0, 1, 2)),
        ((1,), (1,)),
        ((1,), (1, 2)),
    ]
    assert {su.sets for su in subs} == oracle_closed_families(alg)
    assert len(enumerate_subuniverses(corpus_algebra("nonpure"))) == 16

    single = build_algebra([("x", 1)], [("f", ("x",), "x", [0])])
    assert len(enumerate_subuniverses(single)) == 2


def test_enumerate_subuniverses_equals_all_generated():
    alg = corpus_algebra("a_tiny")
    gens = []
    for mask_u in range(4):
        for mask_w in range(8):
            gens.append([{i for i in range(2) if mask_u >> i & 1},
                         {i for i in range(3) if mask_w >> i & 1}])
    generated = {subalgebra_generate(alg, g) for g in gens}
    assert generated == set(enumerate_subuniverses(alg))


def test_make_subuniverse_checks_closure():
    alg = corpus_algebra("a_tiny")
    ok = make_subuniverse(alg, [(1,), (1, 2)])
    assert isinstance(ok, SubUniverse)
    with pytest.raises(ProfileError):
        make_subuniverse(alg, [(0,), (0,)])   # m sends 0 to 1, escapes


def test_closure_and_compatibility_witnesses():
    alg = corpus_algebra("a_tiny")
    ok, wit = is_closed_family(alg, ((0,), (0,)))
    assert not ok and wit == ("m", (0,))   # m(0) = 1 escapes
    ok, wit = is_closed_family(alg, ((1,), (1, 2)))
    assert ok and wit is None
    ok, wit = is_congruence(alg, ((0, 1), (0, 0, 1)))
    assert not ok and wit is not None
    sym = wit[0]
    assert sym == "cw"                     # cw splits the merged w block
    ok, wit = is_congruence(alg, ((0, 0), (0, 0, 1)))
    assert ok and wit is None


def test_enumerate_subuniverses_budget():
    # three closures short of the walk's pinned total (WALK_TOTALS below)
    with pytest.raises(BudgetError):
        enumerate_subuniverses(corpus_algebra("a_tiny"), budget=WALK_TOTALS["a_tiny"][0] - 3)


# ------------------------------------------------------------- congruences

def test_congruence_generate_trivial():
    alg = corpus_algebra("a_tiny")
    ident = congruence_generate(alg, [set(), set()])
    assert ident.classes == ((0, 1), (0, 1, 2))
    full = congruence_generate(alg, [{(0, 1)}, {(0, 1), (1, 2)}])
    assert full.classes == ((0, 0), (0, 0, 0))


def test_congruence_generate_principal_matches_oracle():
    alg = corpus_algebra("a_malcev")
    got = congruence_generate(alg, [{(0, 1)}, set()])
    assert got.classes == ((0, 0), (0, 1, 2))
    assert got.classes == oracle_principal_congruence(alg, 0, 0, 1)

    tiny = corpus_algebra("a_tiny")
    got = congruence_generate(tiny, [set(), {(0, 1)}])
    assert got.classes == oracle_principal_congruence(tiny, 1, 0, 1)
    assert got.classes == ((0, 0), (0, 0, 1))


def test_congruence_generate_along_a_long_chain():
    # x -> min(x + 2, n - 1) sends (0, 1) to (2, 3), to (4, 5), and so on,
    # and max keeps those pairs, so Cg(0, 1) pairs 2k with 2k + 1 after
    # n / 2 rounds of translations
    n = 100
    alg = build_algebra([("s", n)], [("f", ("s",), "s", [min(x + 2, n - 1) for x in range(n)]),
                                     ("g", ("s", "s"), "s", [max(x, y) for x in range(n) for y in range(n)])])
    assert congruence_generate(alg, [{(0, 1)}]).classes == (tuple(x // 2 for x in range(n)),)


def test_enumerate_congruences_frozen():
    alg = corpus_algebra("a_tiny")
    cons = enumerate_congruences(alg)
    assert [c.classes for c in cons] == [
        ((0, 0), (0, 0, 0)),
        ((0, 0), (0, 0, 1)),
        ((0, 1), (0, 1, 1)),
        ((0, 1), (0, 1, 2)),
    ]
    point = build_algebra([("x", 1)], [("f", ("x",), "x", [0])])
    assert len(enumerate_congruences(point)) == 1

    h = homogenize(corpus_algebra("a_malcev"))
    assert len(enumerate_congruences(h.algebra)) == 4


def test_every_enumerated_congruence_is_a_fixed_point():
    alg = corpus_algebra("a_tiny")
    for cong in enumerate_congruences(alg):
        pairs = []
        for s, labels in enumerate(cong.classes):
            pairs.append({(a, b) for a in range(len(labels))
                          for b in range(len(labels))
                          if a < b and labels[a] == labels[b]})
        assert congruence_generate(alg, pairs) == cong


def test_congruence_lattice_closed_under_meet_and_join():
    for alg in [corpus_algebra("a_tiny"),
                homogenize(corpus_algebra("a_malcev")).algebra]:
        cons = enumerate_congruences(alg)
        pool = set(cons)
        for c1, c2 in itertools.product(cons, repeat=2):
            assert congruence_meet(c1, c2) in pool
            assert congruence_join(c1, c2) in pool


def test_subuniverse_rejects_an_unsorted_subset():
    with pytest.raises(ProfileError):
        SubUniverse(((1, 0),))


def test_congruence_rejects_labels_out_of_first_appearance_order():
    with pytest.raises(ProfileError):
        Congruence(((1, 0),))


def test_congruence_meet_rejects_mismatched_partitions():
    with pytest.raises(ProfileError):
        congruence_meet(Congruence(((0, 0),)), Congruence(((0, 0, 1),)))
    with pytest.raises(ProfileError):
        congruence_meet(Congruence(((0,),)), Congruence(((0,), (0,))))


def test_relation_rejects_a_bad_arity_or_tuple_length():
    with pytest.raises(ProfileError):
        Relation(2, frozenset({(1,)}))
    with pytest.raises(ProfileError):
        Relation(-1, frozenset())


def test_make_congruence_rejects_incompatible():
    alg = corpus_algebra("a_tiny")
    # relating 0 and 1 at w without relating anything at u breaks cw
    with pytest.raises(ProfileError):
        make_congruence(alg, ((0, 1), (0, 0, 1)))


# ------------------------------------------------- quotients and products

def test_quotient_by_identity_is_the_algebra():
    alg = corpus_algebra("a_tiny")
    ident = congruence_generate(alg, [set(), set()])
    assert quotient(alg, ident) == alg


def test_quotient_blocks_frozen():
    alg = corpus_algebra("a_tiny")
    cong = make_congruence(alg, ((0, 0), (0, 0, 1)))
    q = quotient(alg, cong)
    assert q.carriers == (1, 2)
    assert q.table("m").outputs == (0, 1)
    assert q.table("cw").outputs == (0, 0)
    full = make_congruence(alg, ((0, 0), (0, 0, 0)))
    assert quotient(alg, full).carriers == (1, 1)


def test_product_with_point_is_the_algebra():
    alg = corpus_algebra("a_tiny")
    point = build_algebra(
        [("u", 1), ("w", 1)],
        [("cu", ("u",), "w", [0]),
         ("cw", ("w",), "u", [0]),
         ("m", ("w",), "w", [0])])
    assert direct_product([alg, point]) == alg


def test_product_componentwise_and_signature_check():
    alg = corpus_algebra("a_tiny")
    sq = direct_product([alg, alg])
    assert sq.carriers == (4, 9)
    m = alg.table("m")
    msq = sq.table("m")
    for x1 in range(3):
        for x2 in range(3):
            assert msq.apply((x1 * 3 + x2,)) == m.apply((x1,)) * 3 + m.apply((x2,))
    with pytest.raises(ProfileError):
        direct_product([alg, corpus_algebra("a_malcev")])


def test_restrict_to_subuniverse():
    alg = corpus_algebra("a_tiny")
    su = make_subuniverse(alg, [(1,), (1, 2)])
    small = restrict_to_subuniverse(alg, su)
    assert small.carriers == (1, 2)
    # m fixes both remaining w elements: 1 -> 1, 2 -> 2
    assert small.table("m").outputs == (0, 1)
    assert small.table("cu").outputs == (0,)


def test_quotient_and_restriction_reject_a_family_of_the_wrong_shape():
    # the input checks of is_congruence and is_closed_family, run first
    alg = corpus_algebra("a_tiny")
    with pytest.raises(ProfileError, match=r"^partition shape does not match carriers \(2, 3\)$"):
        quotient(alg, Congruence(((0, 0), (0, 0))))
    with pytest.raises(ProfileError, match="^family has 1 sets for 2 sorts$"):
        restrict_to_subuniverse(alg, SubUniverse(((0, 1),)))


# ---------------------------------------------------------------- transfer

def test_transfer_passes_on_pure_corpus_algebras():
    for name in ["a_tiny", "a_malcev"]:
        ver = verify_sub_con_transfer(corpus_algebra(name))
        assert ver.ok, (name, ver.failures())


def test_a_quotient_collapse_leaves_the_cached_collapse_alone():
    """Closed terms take the values {1, 2} in w.  Modulo the w blocks
    {0, 2} and {1}, the image 1 of the collapse's padding is no longer
    the least closed value, so _quotient_collapse replaces the nullary
    lifts of homogenize(q); the collapse cached for q keeps its own."""
    alg = build_algebra([("u", 2), ("w", 3)], [
        ("k", [], "u", [0]), ("c", [], "w", [1]), ("g", ["w"], "w", [1, 2, 1])])
    theta = make_congruence(alg, ((0, 1), (0, 1, 0)))
    q = quotient(alg, theta)
    cached = homogenize(q)
    hq = lattice._quotient_collapse(homogenize(alg), q, theta)
    assert hq != cached
    assert homogenize(q) is cached and cached == homogenize.__wrapped__(q)
    ver = verify_sub_con_transfer(alg)
    assert ver.ok, ver.failures()


def test_transfer_single_sorted_is_identity_like():
    ver = verify_sub_con_transfer(corpus_algebra("a_group"))
    assert ver.ok, ver.failures()


def test_transfer_nonpure_collapse():
    alg = corpus_algebra("nonpure")
    h = homogenize(alg)
    ver = verify_sub_con_transfer(alg)
    assert ver.ok, ver.failures()
    subs_a = enumerate_subuniverses(alg)
    subs_h = enumerate_subuniverses(h.algebra)
    assert len(subs_a) == 16 and len(subs_h) == 10
    left = family_product(h, make_subuniverse(alg, [(), (0, 1)]))
    right = family_product(h, make_subuniverse(alg, [(0, 1), ()]))
    assert left.sets == ((),) and right.sets == ((),)
    assert not is_pure(alg).pure


def test_input_checks_raise_profile_error_with_their_message():
    # inv_enumerate's mu and verify_inv_iso's mu_max below 1 are pinned
    # through the CLI in test_cli.py
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    for call, message in [
        (lambda: quotient(alg, Congruence(((0, 1), (0, 0, 1)))),
         "not compatible, so the quotient is not well defined: ('cw', 0, (0, 1), ())"),
        (lambda: restrict_to_subuniverse(alg, SubUniverse(((0,), (0,)))), "family is not closed, m escapes at (0,)"),
        (lambda: direct_product([]), "direct product needs at least one factor"),
        (lambda: congruence_join(Congruence(((0, 0),)), Congruence(((0, 0, 1),))),
         "the two partitions cover different carriers"),
        (lambda: congruence_product(h, Congruence(((0, 0),))), "partition has 1 sorts, the collapse 2"),
        (lambda: subalgebra_generate(alg, [{0}]), "need 2 generator sets, got 1"),
        (lambda: congruence_generate(alg, [[]]), "need 2 pair sets, got 1"),
        (lambda: is_closed_family(alg, [(0, 2), ()]), "family member outside carrier 0 of size 2"),
        (lambda: invariance_witness(alg, Relation(1, frozenset({(0,)}))),
         "invariance is checked on a single-sorted algebra"),
    ]:
        with pytest.raises(ProfileError) as exc:
            call()
        assert str(exc.value) == message


def test_family_product_codes():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    su = make_subuniverse(alg, [(1,), (1, 2)])
    # codes u*3 + w for u in {1}, w in {1, 2}
    assert family_product(h, su).sets == ((4, 5),)
    with pytest.raises(ProfileError):
        family_product(h, SubUniverse(((1,),)))


def test_congruence_product_codes():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    cong = make_congruence(alg, ((0, 0), (0, 0, 1)))
    prod = congruence_product(h, cong)
    assert prod.classes == ((0, 0, 1, 0, 0, 1),)


def _terms_up_to_depth(alg, inputs, depth):
    """Every well sorted term over the given input sorts, by iterative
    deepening, grouped per codomain sort."""
    from msalg.core import App, Profile, Var

    by_cod = {s: [] for s in range(alg.n_sorts)}
    for i, s in enumerate(inputs):
        by_cod[s].append(Var(Profile(inputs, s), i))
    for _ in range(depth):
        fresh = {s: list(ts) for s, ts in by_cod.items()}
        for sym in alg.signature.symbols:
            pools = [by_cod[s] for s in sym.profile.inputs]
            for args in itertools.product(*pools):
                t = App(Profile(inputs, sym.profile.cod), sym.name, tuple(args))
                if t not in fresh[sym.profile.cod]:
                    fresh[sym.profile.cod].append(t)
        by_cod = fresh
    return by_cod


def test_hsp_shadow_preserves_identities():
    """Term pairs that coincide on the source keep coinciding in a quotient
    of a subalgebra of a square, at up to two variables."""
    from msalg.core import table_of_term

    alg = corpus_algebra("a_tiny")
    sq = direct_product([alg, alg])
    diag_gens = [{a * n + a for a in range(n)} for n in alg.carriers]
    sub = restrict_to_subuniverse(sq, subalgebra_generate(sq, diag_gens))
    theta = congruence_generate(sub, [{(0, 1)}, set()])
    derived = [sq, sub, quotient(sub, theta)]

    checked = 0
    for inputs in [(0,), (1,), (0, 1), (1, 1)]:
        by_cod = _terms_up_to_depth(alg, inputs, 3)
        for cod, terms in by_cod.items():
            by_table = {}
            for t in terms:
                by_table.setdefault(table_of_term(alg, t).outputs, []).append(t)
            for group in by_table.values():
                for t1, t2 in zip(group, group[1:]):
                    for d in derived:
                        assert table_of_term(d, t1) == table_of_term(d, t2), \
                            (inputs, cod, t1, t2)
                    checked += 1
    assert checked > 5  # the sweep actually saw identities, cw(cu(x)) = x among them


# -------------------------------------------------------------- relations

def test_invariance_trivials():
    for name in ["a_tiny", "a_malcev"]:
        h = homogenize(corpus_algebra(name))
        n = h.size
        full = Relation(2, frozenset(itertools.product(range(n), repeat=2)))
        empty = Relation(2, frozenset())
        assert invariance_witness(h.algebra, full) is None
        assert invariance_witness(h.algebra, empty) is None
    # with a nullary operation around, the empty set is not closed
    pointed = build_algebra([("x", 2)], [("c", [], "x", [1])])
    hp = homogenize(pointed)
    assert invariance_witness(hp.algebra, Relation(2, frozenset())) is not None
    assert invariance_witness(hp.algebra, Relation(2, frozenset({(1, 1)}))) is None


def test_inv_mu1_matches_family_products():
    for name in ["a_tiny", "a_semilat"]:
        alg = corpus_algebra(name)
        h = homogenize(alg)
        rels = inv_enumerate(alg, 1)
        boxes = {family_product(h, su).sets[0]
                 for su in enumerate_subuniverses(alg)}
        assert {tuple(sorted(t[0] for t in r.tuples)) for r in rels} == boxes


def test_inv_one_element_mu2():
    point = build_algebra([("u", 1), ("w", 1)],
                          [("f", ("u",), "w", [0])])
    rels = inv_enumerate(point, 2)
    assert len(rels) == 2


def test_inv_enumerate_cross_checked_by_filter():
    """The join-lattice route agrees with brute subset filtering on a
    single-sorted power small enough to filter."""
    alg = corpus_algebra("a_group")
    h = homogenize(alg)
    rels = inv_enumerate(alg, 2)
    n = h.size
    p = h.algebra.table("lift_p")
    good = set()
    for mask in range(1 << (n * n)):
        tuples = [(c // n, c % n) for c in range(n * n) if mask >> c & 1]
        closed = True
        for rows in itertools.product(tuples, repeat=3):
            img = tuple(p.apply((rows[0][j], rows[1][j], rows[2][j]))
                        for j in range(2))
            if img not in tuples:
                closed = False
                break
        if closed:
            good.add(frozenset(tuples))
    assert {r.tuples for r in rels} == good
    assert len(rels) == len(good)


def test_inv_budget_gate():
    with pytest.raises(BudgetError):
        inv_enumerate(corpus_algebra("a_tiny"), 8)


def test_pp_identity_returns_the_relation():
    alg = corpus_algebra("a_group")
    formula = PPFormula(2, 0, ((0, (0, 1)),))
    for r in inv_enumerate(alg, 2):
        assert pp_evaluate([r], formula, 3) == r


def test_pp_composition():
    # successor graph composed with itself steps by two
    succ = Relation(2, frozenset((a, (a + 1) % 3) for a in range(3)))
    h = homogenize(corpus_algebra("a_group"))
    assert invariance_witness(h.algebra, succ) is None
    formula = PPFormula(2, 1, ((0, (0, 2)), (0, (2, 1))))
    got = pp_evaluate([succ], formula, 3, verify_with=h.algebra)
    assert got.tuples == frozenset((a, (a + 2) % 3) for a in range(3))


def test_pp_matches_oracle_on_sampled_formulas():
    alg = corpus_algebra("a_tiny")
    rels = inv_enumerate(alg, 2)[:3] + inv_enumerate(alg, 1)[:1]
    carrier = homogenize(alg).size
    formulas = [
        PPFormula(2, 0, ((0, (0, 1)),)),
        PPFormula(2, 1, ((0, (0, 2)), (0, (2, 1)))),
        PPFormula(1, 2, ((0, (1, 2)), (3, (1,)))),
        PPFormula(0, 2, ((0, (0, 1)),)),
        PPFormula(3, 1, ((0, (0, 3)), (1, (3, 2)))),
    ]
    for formula in formulas:
        got = pp_evaluate(rels, formula, carrier)
        assert got.tuples == frozenset(oracle_pp(rels, formula, carrier))


def test_pp_validation():
    r = Relation(2, frozenset({(0, 0)}))
    with pytest.raises(ProfileError):
        pp_evaluate([r], PPFormula(1, 0, ((1, (0, 0)),)), 2)   # bad index
    with pytest.raises(ProfileError):
        pp_evaluate([r], PPFormula(1, 0, ((0, (0,)),)), 2)     # arity mismatch
    with pytest.raises(ProfileError):
        PPFormula(1, 0, ((0, (0, 5)),))                        # position range
    with pytest.raises(ProfileError):
        PPFormula(-1, 0, ((0, (0,)),))                         # negative mu
    with pytest.raises(ProfileError):
        PPFormula(2, -1, ((0, (0,)),))                         # negative nu
    with pytest.raises(ProfileError):
        PPFormula(1, 0, ((-1, (0,)),))                         # negative index


def test_verify_inv_iso_a_tiny():
    ver = verify_inv_iso(corpus_algebra("a_tiny"), 2)
    assert ver.ok, ver.failures()


def _join_counts(monkeypatch) -> list:
    """The closures each lattice walk's join computes from the bottom (each
    principal, then each join with a principal), one entry per walk in call
    order: the rows of the batches it is handed.  msalg's value caches are
    cleared first, so a result an earlier test left there is walked again
    and counted."""
    clear_msalg_caches()
    counts = []
    walk = lattice._closed_sets

    def counted(bottom, join, budget):
        rows = []

        def joined(closed, extra):
            rows.append(len(closed))
            return join(closed, extra)

        found = walk(bottom, joined, budget)
        counts.append(sum(rows))
        return found

    monkeypatch.setattr(lattice, "_closed_sets", counted)
    return counts


def test_verify_inv_iso_closure_counts(monkeypatch):
    # inv_enumerate then the matrix route, for mu = 1 and 2; a faster
    # closure kernel must not move them.  The first and third walks are
    # over the mu-th power of the collapse, the second and fourth over the
    # many-sorted power A^mu, whose 2 + 3 and 4 + 9 points are fewer
    # principals than the collapse power's 6 and 36
    counts = _join_counts(monkeypatch)
    assert verify_inv_iso(corpus_algebra("a_tiny"), 2).ok
    assert counts == [13, 9, 1619, 433]


# Joins of the congruence walk on each corpus algebra, then on its collapse.
CON_JOINS = {"a_tiny": [8, 19], "a_malcev": [6, 19], "a_semilat": [18, 45],
             "nonpure": [4, 10], "a_group": [3, 3], "a_lattice": [4, 10]}


def test_congruence_walk_join_counts(monkeypatch):
    counts = _join_counts(monkeypatch)
    for name in CON_JOINS:
        alg = corpus_algebra(name)
        enumerate_congruences(alg)
        enumerate_congruences(homogenize(alg).algebra)
    assert dict(zip(CON_JOINS, zip(counts[::2], counts[1::2]))) == {
        name: tuple(joins) for name, joins in CON_JOINS.items()}


# Closures each walk computes in all, the bottom included: Sub, Con, Inv at
# mu = 1 and Inv at mu = 2, on a_tiny and on its collapse.
WALK_TOTALS = {"a_tiny": (10, 9, 14, 1620), "h_a_tiny": (14, 20, 14, 1620)}


def test_a_walk_raises_exactly_when_its_total_passes_the_budget():
    alg = corpus_algebra("a_tiny")
    walks = (enumerate_subuniverses, enumerate_congruences,
             lambda a, budget: inv_enumerate(a, 1, budget=budget),
             lambda a, budget: inv_enumerate(a, 2, budget=budget))
    for name, a in (("a_tiny", alg), ("h_a_tiny", homogenize(alg).algebra)):
        for walk, total in zip(walks, WALK_TOTALS[name]):
            full = walk(a, budget=total)
            for budget in range(total - 2, total + 2):
                if budget < total:
                    with pytest.raises(BudgetError, match="^more than %d closures computed$" % budget):
                        walk(a, budget=budget)
                else:
                    assert walk(a, budget=budget) == full, (name, budget)


def test_a_repeated_walk_reads_the_cache(monkeypatch):
    # inv --mu 2 then inv-iso, and cp --homogenize then cd --homogenize,
    # in one process: the second call of each walks nothing
    counts = _join_counts(monkeypatch)
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg).algebra
    rels, cons = inv_enumerate(alg, 2), enumerate_congruences(h)
    assert inv_enumerate(alg, 2) == rels and enumerate_congruences(h) == cons
    assert counts == [1619, CON_JOINS["a_tiny"][1]]


def _pair_of_algebras(last):
    return build_algebra([("u", 2), ("w", 3)], [
        ("cu", ("u",), "w", (0, 2)), ("cw", ("w",), "u", (0, 1, 1)), ("m", ("u",), "u", (1, last))])


def test_walks_are_cached_by_value():
    # two equal algebras built apart share one entry; a changed table
    # entry makes a new one
    clear_msalg_caches()
    first, second = _pair_of_algebras(1), _pair_of_algebras(1)
    assert first is not second
    for cache, walk in ((lattice._inv_relations, lambda a: inv_enumerate(a, 2)),
                        (lattice._congruences, enumerate_congruences)):
        found = walk(first)
        assert walk(second) == found
        assert cache.cache_info().currsize == 1 and cache.cache_info().hits == 1
        walk(_pair_of_algebras(0))
        assert cache.cache_info().currsize == 2 and cache.cache_info().misses == 2


def test_a_returned_list_is_the_callers_own():
    alg = corpus_algebra("a_tiny")
    for walk in (lambda: inv_enumerate(alg, 1), lambda: enumerate_congruences(alg)):
        found = walk()
        kept = list(found)
        found.reverse()
        found.append(found[0])
        assert walk() == kept


def test_a_walk_over_budget_raises_on_every_call_and_stores_nothing():
    alg = corpus_algebra("a_tiny")
    walks = ((enumerate_congruences, WALK_TOTALS["a_tiny"][1]),
             (lambda a, budget: inv_enumerate(a, 1, budget=budget), WALK_TOTALS["a_tiny"][2]),
             (lambda a, budget: inv_enumerate(a, 2, budget=budget), WALK_TOTALS["a_tiny"][3]))
    for walk, total in walks:
        sizes = [cache.cache_info().currsize for cache in (lattice._inv_relations, lattice._congruences)]
        for _ in range(2):
            with pytest.raises(BudgetError, match="^more than %d closures computed$" % (total - 1)):
                walk(alg, budget=total - 1)
        assert [cache.cache_info().currsize for cache in (lattice._inv_relations, lattice._congruences)] == sizes


def test_the_cache_helper_finds_every_value_cache():
    import msalg.cli  # noqa: F401  (loads every module that holds a cache)
    assert sorted("%s.%s" % (f.__module__, f.__qualname__) for f in msalg_caches()) == [
        "msalg.cli._parser", "msalg.clone._closure_full", "msalg.clone._symbols",
        "msalg.diagonal._transport_maps", "msalg.diagonal.matrix_product", "msalg.fmt.parse_algebra",
        "msalg.hetero.canonical_pair", "msalg.hetero.heterogenize", "msalg.homog.homogenize",
        "msalg.lattice._congruences", "msalg.lattice._inv_relations"]


def test_a_walk_counts_the_bottom_against_the_budget():
    # a one-element algebra has one closed set and no pairs: Sub computes
    # the bottom and one principal, Con the bottom alone, and neither fits
    # a budget below one closure
    point = build_algebra([("s", 1)], [])
    for walk in (enumerate_subuniverses, enumerate_congruences):
        for budget in (0, -1):
            with pytest.raises(BudgetError, match="^more than %d closures computed$" % budget):
                walk(point, budget=budget)
    assert enumerate_congruences(point, budget=1) == [Congruence(((0,),))]


def test_the_digit_path_computes_no_closure_past_the_budget(monkeypatch):
    # each level is counted before it is computed, so a walk that would
    # pass the budget stops after the last level within it: the bottom,
    # then 36 or 216 principals, then whole levels of joins.  A check per
    # closure would compute budget closures before raising
    real = lattice._Power._close_digits
    closed = []

    def spy(self, rows, extra):
        closed.append(len(rows))
        return real(self, rows, extra)

    monkeypatch.setattr(lattice._Power, "_close_digits", spy)
    monkeypatch.setattr(lattice, "_REACH_CELLS", 0)
    for (mu, budget), computed in {(2, 36): 1, (2, 100): 37, (2, 1000): 555, (3, 1000): 217}.items():
        closed.clear()
        with pytest.raises(BudgetError, match="^more than %d closures computed$" % budget):
            inv_enumerate(corpus_algebra("a_tiny"), mu, budget=budget)
        assert sum(closed) == computed, (mu, budget)


def test_the_digit_path_caps_the_argument_rows_of_a_closure_step(monkeypatch):
    # a step over _STEP_ROWS raises before it gathers, on every call, and
    # the failed walk leaves nothing in the Inv cache
    clear_msalg_caches()
    monkeypatch.setattr(lattice, "_REACH_CELLS", 0)
    monkeypatch.setattr(lattice, "_STEP_ROWS", 100)
    for _ in range(2):
        with pytest.raises(BudgetError, match="^closure step wants 165 argument rows$"):
            inv_enumerate(corpus_algebra("a_tiny"), 2)
    assert lattice._inv_relations.cache_info().currsize == 0


def test_verify_inv_iso_a_malcev():
    # a ternary collapse: the matrix route closes the many-sorted powers
    # A^1 and A^2 under the source's ternary pu, pw and its cross maps
    checks = {c.name: c for c in verify_inv_iso(corpus_algebra("a_malcev"), 2).checks}
    assert all(c.ok for c in checks.values()), checks
    assert checks["reshape-bijection-mu1"].detail == "5 invariant sets as code tuples, 5 as matrices"
    assert checks["reshape-bijection-mu2"].detail == "31 invariant sets as code tuples, 31 as matrices"


def test_verify_inv_iso_single_sorted():
    ver = verify_inv_iso(corpus_algebra("a_group"), 2)
    assert ver.ok, ver.failures()


def test_pp_commutation_counts_a_changed_relation():
    # an invariant relation less one member is not invariant, and the
    # formulas that define it fall outside Inv
    h, rels, invs = _pp_relations("a_group")
    assert _pp_outside_inv(h, rels, invs, 3, 0)[1] == 0
    changed = _changed(rels, invs)
    assert invariance_witness(h.algebra, changed[-1]) is not None
    total, bad, _ = _pp_outside_inv(h, changed, invs, 3, 0)
    assert 0 < bad <= total


@functools.lru_cache(maxsize=None)
def _pp_relations(name):
    """verify_inv_iso's pp-commutation sample on a corpus algebra, with the
    invariant relations of arity 1 and 2 (arity -> relations) it is checked
    against."""
    h = homogenize(corpus_algebra(name))
    invs = {mu: inv_enumerate(h.source, mu) for mu in (1, 2)}
    return h, tuple(_pp_sample(invs)), invs


def _changed(rels, invs):
    """The sample with its last relation (arity 2) swapped for the least
    binary invariant relation of two or more members, less its first
    member: a relation outside Inv on every corpus algebra below."""
    least = next(r for r in invs[2] if len(r.tuples) > 1)
    return rels[:-1] + (Relation(2, frozenset(sorted(least.tuples)[1:])),)


def _same_as_oracle(h, rels, invs, span, spot_checks):
    got = _pp_outside_inv(h, rels, invs, span, spot_checks)
    formulas = list(_formula_sample(rels, span))
    assert got == oracle.pp_outside_inv(h, rels, invs, formulas, spot_checks)
    return got


# span 4 is what verify_inv_iso samples, span 3 keeps the others cheap
CORPUS_SPANS = (("a_tiny", 4), ("a_malcev", 3), ("a_group", 3), ("a_lattice", 3), ("a_semilat", 3))


def test_pp_grid_rows_match_the_per_formula_oracle():
    # every formula's row and free arity, in sample order, against one
    # pp_solutions call, over invariant relations and with one outside Inv
    for name, span in CORPUS_SPANS:
        h, rels, invs = _pp_relations(name)
        n = h.size
        grids = [open_grid((n,) * m) for m in range(span + 1)]
        for sample in (rels, _changed(rels, invs)):
            members = [_pp_members(r.tuples, (n,) * r.arity) for r in sample]
            rows = ((mu, row) for mu, block in _pp_grid(n, sample, span) for row in block)
            for f, (mu, row) in zip(_formula_sample(sample, span), rows, strict=True):
                assert mu == f.mu, (name, f)
                assert np.array_equal(row, oracle.pp_solutions(members, n, grids[f.mu + f.nu], f)), (name, f)


def test_pp_batches_match_the_per_formula_oracle_on_the_corpus():
    for name, span in CORPUS_SPANS:
        h, rels, invs = _pp_relations(name)
        assert is_pure(h.source).pure
        total = sum(1 for _ in _formula_sample(rels, span))
        assert _same_as_oracle(h, rels, invs, span, 25) == (total, 0, True), name
        # a relation outside Inv in the sample puts rows outside Inv
        total, bad, _ = _same_as_oracle(h, _changed(rels, invs), invs, span, 0)
        assert 0 < bad < total, name


def test_pp_counts_outside_inv_match_the_oracle_on_a_pure_3_2_algebra():
    # span 4, as verify_inv_iso samples, with rows outside Inv, on an
    # algebra shaped like perfbench's generated inputs: cross maps cu, cw
    # and endomaps mu, mw (the corpus test above covers a_tiny at span 4)
    pure = build_algebra([("u", 3), ("w", 2)], [
        ("cu", ("u",), "w", [1, 0, 1]), ("cw", ("w",), "u", [2, 0]),
        ("mu", ("u",), "u", [1, 2, 0]), ("mw", ("w",), "w", [1, 0])])
    invs = {mu: inv_enumerate(pure, mu) for mu in (1, 2)}
    total, bad, _ = _same_as_oracle(homogenize(pure), _changed(tuple(_pp_sample(invs)), invs), invs, 4, 0)
    assert 0 < bad < total == 11108


def test_pp_batches_match_the_oracle_at_every_spot_check_count():
    h, rels, invs = _pp_relations("a_group")
    for spot_checks in (0, 25):
        assert _same_as_oracle(h, rels, invs, 2, spot_checks)[2]
    assert _same_as_oracle(h, _changed(rels, invs), invs, 2, 0)[1]
    size = sum(1 for _ in _formula_sample(rels, 1))
    assert _same_as_oracle(h, rels, invs, 1, size + 5)[2]


def test_pp_spot_checks_verify_each_input_relation_once(monkeypatch):
    # the inputs in order, then the distinct results of the first 25
    # sampled formulas in first-seen order: a repeat of a result that
    # passed cannot fail, so it is not checked again
    h, rels, invs = _pp_relations("a_group")
    results = [pp_evaluate(rels, f, h.size) for f in itertools.islice(_formula_sample(rels, 2), 25)]
    distinct = list(dict.fromkeys(results))
    assert len(results) == 25 and len(distinct) < len(results)
    checked = []
    witness = lattice.invariance_witness
    monkeypatch.setattr(lattice, "invariance_witness", lambda halg, rel: checked.append(rel) or witness(halg, rel))
    assert _pp_outside_inv(h, rels, invs, 2, 25)[2]
    assert checked == list(rels) + distinct


def test_pp_spot_checks_name_an_input_that_is_not_invariant():
    h, rels, invs = _pp_relations("a_group")
    broken = Relation(2, frozenset({(0, 1), (1, 2)}))
    assert invariance_witness(h.algebra, broken) is not None
    rels = rels[:-1] + (broken,)
    with pytest.raises(ProfileError) as fast:
        _pp_outside_inv(h, rels, invs, 2, 25)
    with pytest.raises(ProfileError) as slow:
        oracle.pp_outside_inv(h, rels, invs, list(_formula_sample(rels, 2)), 25)
    assert str(fast.value) == str(slow.value)
    assert str(fast.value).startswith("relation %d is not invariant: " % (len(rels) - 1))


def test_verify_inv_iso_rejects_nonpure():
    with pytest.raises(ProfileError):
        verify_inv_iso(corpus_algebra("nonpure"), 1)


def test_enumerations_are_deterministic():
    alg = corpus_algebra("a_tiny")
    assert enumerate_subuniverses(alg) == enumerate_subuniverses(alg)
    assert enumerate_congruences(alg) == enumerate_congruences(alg)
    assert inv_enumerate(alg, 2) == inv_enumerate(alg, 2)
