"""Splitting along a pair, canonical pairs from purity, and the two round
trips.

Hand-derived anchors used below, all on a_tiny (sorts u of size 2 and w of
size 3, cross maps cu = [0, 1] and cw = [0, 1, 1]):

  - the canonical slot maps are mu_0 = (0, 4) and mu_1 = (0, 4, 5), coding
    (a, cu(a)) and (cw(b), b) with sort 0 most significant over radices
    (2, 3);
  - the split of the collapsed algebra has 20 symbols: the 2-ary diag
    contributes 2^3, each of the three unary lifts 2^2.
"""

import dataclasses
import itertools

import pytest

import msalg.hetero as hetero
from msalg.core import BudgetError, OpTable, Profile, ProfileError, Symbol, build_algebra
from msalg.corpus import corpus_algebra, corpus_names
from msalg.diagonal import DiagonalPair, find_diagonal_pairs, verify_decomposition, verify_diagonal_pair
from msalg.hetero import (
    canonical_pair,
    cross_family_from_purity,
    heterogenize,
    mu_maps,
    verify_nu_roundtrip,
    verify_mu_roundtrip,
    verify_pair_independence,
)
from msalg.homog import homogenize

import oracle_hetero
from test_cli import spy_closures
from test_diagonal import diag_style_pair


def test_cross_family_picks_lex_least_tables():
    alg = corpus_algebra("a_tiny")
    fam = cross_family_from_purity(alg)
    assert fam is not None
    assert fam.maps[0][0].outputs == (0, 1)
    assert fam.maps[1][1].outputs == (0, 1, 2)
    assert fam.maps[0][1].outputs == (0, 1)      # cu beats m(cu) = [1, 1]
    assert fam.maps[1][0].outputs == (0, 1, 1)   # cw beats the constant 1


def test_cross_family_none_without_purity():
    assert cross_family_from_purity(corpus_algebra("nonpure")) is None
    h = homogenize(corpus_algebra("nonpure"))
    with pytest.raises(ProfileError):
        canonical_pair(h)


def test_mu_maps_frozen_codes():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    fam = cross_family_from_purity(alg)
    mus = mu_maps(h, fam)
    assert mus[0] == (0, 4)
    assert mus[1] == (0, 4, 5)


def test_canonical_pair_matches_the_directly_built_one():
    h = homogenize(corpus_algebra("a_tiny"))
    pair = canonical_pair(h)
    assert pair == diag_style_pair(h)
    assert verify_diagonal_pair(h.algebra, pair).ok
    assert pair in find_diagonal_pairs(h.algebra, 2)


def test_canonical_pair_verifies_on_every_pure_corpus_algebra():
    for name in ["a_tiny", "a_malcev", "a_semilat", "a_group", "a_lattice"]:
        h = homogenize(corpus_algebra(name))
        pair = canonical_pair(h)
        ver = verify_diagonal_pair(h.algebra, pair)
        assert ver.ok, (name, ver.failures())


def test_heterogenize_shape_and_one_table():
    h = homogenize(corpus_algebra("a_tiny"))
    het = heterogenize(h.algebra, canonical_pair(h))
    assert het.algebra.carriers == (2, 3)
    assert het.algebra.signature.sorts == ("r0", "r1")
    assert len(het.algebra.signature.symbols) == 20
    assert het.retracts == ((0, 4), (0, 4, 5))
    # e_1(lift_m(r)) walks m over the w components: recovers m itself
    assert het.algebra.table("het_lift_m_t1_v1").outputs == (1, 1, 2)
    # diag with both arguments from slot 0, target 0, is the identity on r0
    assert het.algebra.table("het_diag_t0_v00").outputs == (0, 0, 1, 1)


def test_heterogenize_rejects_non_pairs_and_tiny_budgets():
    h = homogenize(corpus_algebra("a_tiny"))
    pair = canonical_pair(h)
    with pytest.raises(ProfileError):
        heterogenize(h.algebra, DiagonalPair(pair.d, (pair.es[1], pair.es[0])))
    with pytest.raises(BudgetError):
        heterogenize(h.algebra, pair, budget=10)
    # the budget counts the split's table entries; an error is never cached
    entries = sum(len(t.outputs) for t in heterogenize(h.algebra, pair).algebra.tables)
    stored = heterogenize.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BudgetError, match="needs %d table entries, budget is %d" % (entries, entries - 1)):
            heterogenize(h.algebra, pair, budget=entries - 1)
    assert heterogenize.cache_info().currsize == stored
    assert heterogenize(h.algebra, pair, budget=entries) == heterogenize(h.algebra, pair)


def test_mu_roundtrip_recovers_every_pure_corpus_algebra():
    for name in ["a_tiny", "a_malcev", "a_semilat", "a_group", "a_lattice"]:
        ver = verify_mu_roundtrip(corpus_algebra(name))
        assert ver.ok, (name, ver.failures())


def test_mu_roundtrip_reports_missing_purity():
    ver = verify_mu_roundtrip(corpus_algebra("nonpure"))
    assert not ver.ok
    assert ver.checks[0].name == "pure" and not ver.checks[0].ok


def test_nu_roundtrip_with_the_canonical_pair():
    for name in ["a_tiny", "a_malcev"]:
        h = homogenize(corpus_algebra(name))
        ver, psi = verify_nu_roundtrip(h.algebra, canonical_pair(h))
        assert ver.ok, (name, ver.failures())
        assert sorted(psi) == list(range(h.size))


def fragments_check(ver):
    return next((c for c in ver.checks if c.name == "fragments-match"), None)


@pytest.mark.parametrize("lam", [1, 2, 3])
@pytest.mark.parametrize("name", corpus_names())
def test_mu_fragments_match_equals_the_full_comparison(name, lam):
    alg = corpus_algebra(name)
    assert fragments_check(verify_mu_roundtrip(alg, lam=lam)) == oracle_hetero.fragments_match(alg, lam=lam)


def spy_fragments(monkeypatch):
    """The (algebra, input profiles) hetero.generate_fragment is called
    with, in call order."""
    seen = []
    real = hetero.generate_fragment

    def spy(alg, profiles, **kw):
        seen.append((alg, tuple(p.inputs if isinstance(p, Profile) else tuple(p) for p in profiles)))
        return real(alg, profiles, **kw)
    monkeypatch.setattr(hetero, "generate_fragment", spy)
    return seen


def splits(seen):
    return [a for a, _ in seen if any(sym.name.startswith("het_") for sym in a.signature.symbols)]


def patch_split(monkeypatch, name, outputs):
    """Make hetero.heterogenize return the split with one table replaced."""
    real = hetero.heterogenize

    def patched(source, pair, **kw):
        het = real(source, pair, **kw)
        tables = tuple(OpTable(t.profile, t.carriers, outputs) if sym.name == name else t
                       for sym, t in zip(het.algebra.signature.symbols, het.algebra.tables))
        return dataclasses.replace(het, algebra=dataclasses.replace(het.algebra, tables=tables))
    monkeypatch.setattr(hetero, "heterogenize", patched)


# a_tiny with cw = [1, 1, 0]: its w -> u terms are cw and the constant 1, so
# mu_1 codes (cw(b), b) as (3, 4, 2), a 3-cycle of the retract's order
CYCLED = build_algebra([("u", 2), ("w", 3)], [("cu", ["u"], "w", [0, 1]), ("cw", ["w"], "u", [1, 1, 0])])


# pure, with a constant k0 in u; through cu, w has closed terms too
CONSTANT = build_algebra([("u", 2), ("w", 2)], [("k0", [], "u", [1]), ("cu", ["u"], "w", [0, 1]),
                                                ("cw", ["w"], "u", [1, 0])])


@pytest.mark.parametrize("alg", [corpus_algebra("a_tiny"), corpus_algebra("a_malcev"), CYCLED, CONSTANT])
def test_a_certified_mu_roundtrip_generates_no_split_fragment(monkeypatch, alg):
    # only the source's unary fragments, which the cross family reads, and
    # its closed terms when it has a constant
    seen = spy_fragments(monkeypatch)
    for lam in [2, 3]:
        ver = verify_mu_roundtrip(alg, lam=lam)
        assert ver.ok, ver.failures()
    unary = {((s,),) for s in range(alg.n_sorts)}
    constant = any(f.arity == 0 for f in alg.tables)
    assert {a for a, _ in seen} == {alg}
    assert {ps for _, ps in seen} == unary | ({((),)} if constant else set())


def test_a_cross_map_that_is_no_term_fails_the_mu_certificate(monkeypatch):
    # a_tiny with the u -> w map (0, 0): the split still satisfies every
    # table identity of the walk, but its diag then reaches the constant
    # u -> w map, no term of a_tiny, and through cw the u -> u map (0, 0)
    alg = corpus_algebra("a_tiny")
    real = hetero.cross_family_from_purity

    def patched(a, **kw):
        fam = real(a, **kw)
        row = (fam.maps[0][0], OpTable(Profile((0,), 1), a.carriers, (0, 0)))
        return dataclasses.replace(fam, maps=(row,) + fam.maps[1:])
    monkeypatch.setattr(hetero, "cross_family_from_purity", patched)
    seen = spy_fragments(monkeypatch)
    ver = verify_mu_roundtrip(alg)
    assert splits(seen)
    assert {c.name: c.ok for c in ver.checks}["ops-transport"]
    assert fragments_check(ver) == oracle_hetero.fragments_match(alg)
    assert fragments_check(ver).detail == "profile Profile(inputs=(0,), cod=0): 2 vs 3"


def test_a_split_table_outside_the_source_clone_falls_back_to_the_full_comparison(monkeypatch):
    # diag on r0 x r0 into r0 is the first projection (0, 0, 1, 1); a_tiny has
    # unary symbols only, so the join (0, 1, 1, 1) is no term of it
    alg = corpus_algebra("a_tiny")
    patch_split(monkeypatch, "het_diag_t0_v00", (0, 1, 1, 1))
    seen = spy_fragments(monkeypatch)
    ver = verify_mu_roundtrip(alg)
    assert splits(seen)
    assert {c.name: c.ok for c in ver.checks}["ops-transport"]
    assert not ver.ok
    assert fragments_check(ver) == oracle_hetero.fragments_match(alg)


def test_a_broken_ops_transport_keeps_the_full_comparison(monkeypatch):
    alg = corpus_algebra("a_tiny")
    patch_split(monkeypatch, "het_lift_m_t1_v1", (2, 1, 2))
    seen = spy_fragments(monkeypatch)
    ver = verify_mu_roundtrip(alg)
    assert splits(seen)
    assert [c.name for c in ver.failures()] == ["ops-transport", "fragments-match"]
    assert fragments_check(ver) == oracle_hetero.fragments_match(alg)


def test_nu_roundtrip_with_a_non_canonical_pair():
    h = homogenize(corpus_algebra("a_tiny"))
    diag = h.algebra.table("diag").outputs
    sharing = [p for p in find_diagonal_pairs(h.algebra, 2) if p.d.outputs == diag]
    assert len(sharing) == 4
    other = next(p for p in sharing if p != canonical_pair(h))
    ver, _psi = verify_nu_roundtrip(h.algebra, other)
    assert ver.ok, ver.failures()


def nu_cases():
    """Every found pair of the a_tiny and a_malcev collapses, and the
    canonical pair of every pure corpus algebra's collapse."""
    cases = []
    for name in ["a_tiny", "a_malcev"]:
        collapse = homogenize(corpus_algebra(name)).algebra
        cases += [pytest.param(collapse, pair, id="%s-pair%d" % (name, i))
                  for i, pair in enumerate(find_diagonal_pairs(collapse, 2))]
    for name in ["a_tiny", "a_malcev", "a_semilat", "a_group", "a_lattice"]:
        h = homogenize(corpus_algebra(name))
        cases.append(pytest.param(h.algebra, canonical_pair(h), id="%s-canonical" % name))
    return cases


@pytest.mark.parametrize("lam", [1, 2, 3])
@pytest.mark.parametrize("source, pair", nu_cases())
def test_nu_fragments_match_equals_the_full_comparison(source, pair, lam):
    ver, _psi = verify_nu_roundtrip(source, pair, lam=lam)
    assert fragments_check(ver) == oracle_hetero.nu_fragments_match(source, pair, lam=lam)


def collapsed_splits(seen):
    return [a for a, _ in seen if any(sym.name.startswith("lift_het_") for sym in a.signature.symbols)]


def certified_nu_cases():
    """The canonical pairs of two collapses, whose d is the basic diag, and
    a pair of a_tiny's collapse whose d is not basic."""
    cases = []
    for name in ["a_tiny", "a_malcev"]:
        h = homogenize(corpus_algebra(name))
        cases.append(pytest.param(h.algebra, canonical_pair(h), id=name))
    collapse = homogenize(corpus_algebra("a_tiny")).algebra
    pair = next(p for p in find_diagonal_pairs(collapse, 2) if p.d not in collapse.tables)
    return cases + [pytest.param(collapse, pair, id="a_tiny-d-not-basic")]


@pytest.mark.parametrize("source, pair", certified_nu_cases())
def test_a_certified_nu_roundtrip_generates_no_collapsed_split_fragment(monkeypatch, source, pair):
    # only the source's unary fragment, and its S-ary one when d is not basic
    seen = spy_fragments(monkeypatch)
    for lam in [2, 3]:
        ver, _psi = verify_nu_roundtrip(source, pair, lam=lam)
        assert ver.ok, ver.failures()
    assert {a for a, _ in seen} == {source}
    wide = set() if pair.d in source.tables else {((0,) * pair.width,)}
    assert {ps for _, ps in seen} == {((0,),)} | wide


def test_a_negative_lam_or_width_is_rejected_before_any_fragment(monkeypatch):
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    pair = canonical_pair(h)
    calls = spy_closures(monkeypatch)
    for check, message in [
        (lambda: verify_decomposition(h.algebra, pair, -1), "lam must be at least 0, got -1"),
        (lambda: verify_mu_roundtrip(alg, lam=-1), "lam must be at least 0, got -1"),
        (lambda: verify_nu_roundtrip(h.algebra, pair, lam=-2), "lam must be at least 0, got -2"),
        (lambda: find_diagonal_pairs(h.algebra, -1), "pair width must be at least 0, got -1"),
    ]:
        with pytest.raises(ProfileError, match="^%s$" % message):
            check()
    assert calls == []


def test_a_nu_lam_above_the_arity_bound_is_rejected_before_any_fragment(monkeypatch):
    h = homogenize(corpus_algebra("a_tiny"))
    pair = canonical_pair(h)
    seen = spy_fragments(monkeypatch)
    with pytest.raises(ProfileError, match=r"\(0, 0, 0, 0, 0, 0, 0\) has arity 7, above the bound 6"):
        verify_nu_roundtrip(h.algebra, pair, lam=7)
    assert seen == []


# het_diag_t0_v00, diag on r0 x r0 into r0, is the first projection
# (0, 0, 1, 1): a_tiny's collapse has no binary term whose slot-0 part is the
# join, so the collapsed split is no longer inside the source's clone.
# het_lift_m_t1_v1 is m = (1, 1, 2) on r1: replaced by the identity, the
# split loses m, so the source is no longer inside the split's clone.
@pytest.mark.parametrize("name, outputs", [("het_diag_t0_v00", (0, 1, 1, 1)),
                                           ("het_lift_m_t1_v1", (0, 1, 2))])
def test_a_patched_split_table_voids_the_nu_certificate(monkeypatch, name, outputs):
    h = homogenize(corpus_algebra("a_tiny"))
    pair = canonical_pair(h)
    patch_split(monkeypatch, name, outputs)
    seen = spy_fragments(monkeypatch)
    ver, _psi = verify_nu_roundtrip(h.algebra, pair)
    assert collapsed_splits(seen)
    assert not fragments_check(ver).ok
    assert fragments_check(ver) == oracle_hetero.nu_fragments_match(h.algebra, pair)


def reduct(alg, keep):
    """alg with only the basic symbols at the positions in keep."""
    sig = alg.signature
    return dataclasses.replace(alg, signature=dataclasses.replace(sig, symbols=tuple(sig.symbols[i] for i in keep)),
                               tables=tuple(alg.tables[i] for i in keep))


# On a_tiny's collapse, diag alone has the identity as its only unary term,
# so the e_s are no terms of it; the unary lifts alone have the e_s
# (lift_cu and lift_cw) but no binary term d.  The canonical pair still
# satisfies the pair equations on either reduct.
@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("keep", [[0], [1, 2, 3]], ids=["diag-only", "lifts-only"])
def test_a_pair_of_non_terms_voids_the_nu_certificate(keep, lam):
    h = homogenize(corpus_algebra("a_tiny"))
    source, pair = reduct(h.algebra, keep), canonical_pair(h)
    ver, _psi = verify_nu_roundtrip(source, pair, lam=lam)
    assert not fragments_check(ver).ok
    assert fragments_check(ver) == oracle_hetero.nu_fragments_match(source, pair, lam=lam)


def test_an_operation_reading_two_slots_of_one_argument_fails_the_nu_certificate(monkeypatch):
    # q(a, b) = (a xor [b = 2], b) on a_tiny's collapse, codes 3a + b: slot 0
    # of q(x) reads both slots of x, so no lift of het_q_t0_v<v> gives it
    # and the split's clone misses q
    h = homogenize(corpus_algebra("a_tiny"))
    q = OpTable(Profile((0,), 0), (6,), (0, 1, 5, 3, 4, 2))
    source = dataclasses.replace(h.algebra, tables=h.algebra.tables + (q,), signature=dataclasses.replace(
        h.algebra.signature, symbols=h.algebra.signature.symbols + (Symbol("q", q.profile),)))
    pair = canonical_pair(h)
    seen = spy_fragments(monkeypatch)
    ver, _psi = verify_nu_roundtrip(source, pair)
    assert collapsed_splits(seen)
    assert fragments_check(ver) == oracle_hetero.nu_fragments_match(source, pair)
    assert fragments_check(ver).detail == "arity 1: 48 vs 35"


def test_a_source_with_a_constant_falls_back_to_the_full_comparison(monkeypatch):
    # every sort has a closed term, so the collapse keeps lift_k0 nullary
    h = homogenize(CONSTANT)
    assert h.algebra.table("lift_k0").arity == 0
    pair = canonical_pair(h)
    seen = spy_fragments(monkeypatch)
    ver, _psi = verify_nu_roundtrip(h.algebra, pair)
    assert collapsed_splits(seen)
    assert ver.ok, ver.failures()
    assert fragments_check(ver) == oracle_hetero.nu_fragments_match(h.algebra, pair)


def test_a_budget_error_in_the_d_check_only_voids_the_nu_certificate(monkeypatch):
    collapse = homogenize(corpus_algebra("a_tiny")).algebra
    pair = next(p for p in find_diagonal_pairs(collapse, 2) if p.d not in collapse.tables)
    seen = spy_fragments(monkeypatch)
    spied = hetero.generate_fragment
    raised = []

    def over_budget_once(alg, profiles, **kw):
        if alg is collapse and list(profiles) == [(0, 0)] and not raised:
            raised.append(profiles)
            raise BudgetError("fragment for cod sort 0 exceeds the table budget")
        return spied(alg, profiles, **kw)
    monkeypatch.setattr(hetero, "generate_fragment", over_budget_once)
    ver, _psi = verify_nu_roundtrip(collapse, pair)
    assert raised and collapsed_splits(seen)
    assert ver.ok, ver.failures()
    assert fragments_check(ver) == oracle_hetero.nu_fragments_match(collapse, pair)


def test_pair_independence_for_pairs_sharing_d():
    h = homogenize(corpus_algebra("a_tiny"))
    diag = h.algebra.table("diag").outputs
    sharing = [p for p in find_diagonal_pairs(h.algebra, 2) if p.d.outputs == diag]
    for p1, p2 in itertools.combinations(sharing, 2):
        ver = verify_pair_independence(h.algebra, p1, p2)
        assert ver.ok, ver.failures()


def test_pair_independence_requires_shared_d():
    h = homogenize(corpus_algebra("a_tiny"))
    found = find_diagonal_pairs(h.algebra, 2)
    diag = h.algebra.table("diag").outputs
    p1 = next(p for p in found if p.d.outputs == diag)
    p2 = next(p for p in found if p.d.outputs != diag)
    ver = verify_pair_independence(h.algebra, p1, p2)
    assert not ver.ok and not ver.checks[0].ok
