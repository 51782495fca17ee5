"""Mal'cev and chain witnesses, searched per sort and on the product
carrier, plus brute-force permutability and distributivity checks.

Hand-derived anchors used below:

  - on a_malcev the only per-sort Mal'cev tables are x - y + z mod 2 and
    mod 3: every ternary term there is linear (the constant-zero cross
    maps keep the constant part zero), and linearity plus the two
    identities forces coefficients (1, -1, 1);
  - on the product carrier the witness is the componentwise assembly of
    the per-sort ones, for the same reason applied per component;
  - neither a_malcev nor a_group has a chain of any length: the only
    candidates with d(x, y, x) = x are x, z and 2x + 2z, and from the
    head x the even link condition only reaches x again;
  - a_lattice has a chain with one middle step, the majority term
    (x and y) or (y and z) or (z and x) on each two-element sort.
"""

import itertools

import pytest

from msalg import clone, malcev
from msalg.core import BudgetError, Profile, projection, table_of_term, table_search_key
from msalg.corpus import corpus_algebra, corpus_names
from msalg.homog import homogenize
from msalg.malcev import (
    JonssonChain,
    MalcevWitness,
    check_cd_bruteforce,
    check_cp_bruteforce,
    find_jonsson,
    find_malcev_homog,
    find_malcev_per_sort,
)
from msalg.core import build_algebra
from oracle_clone import fragment_tables
import oracle_equations as oracle


def affine_outputs(n):
    return tuple((x - y + z) % n
                 for x, y, z in itertools.product(range(n), repeat=3))


def assert_malcev_identities(table, n):
    for x in range(n):
        for y in range(n):
            assert table.apply((x, x, y)) == y
            assert table.apply((x, y, y)) == x


def assert_chain_conditions(steps, n):
    """steps: one ternary table per position, over an n element carrier."""
    last = len(steps) - 1
    assert last % 2 == 0
    for x in range(n):
        for y in range(n):
            assert steps[0].apply((x, y, x)) == x and steps[0].apply((x, x, y)) == x
            assert steps[last].apply((x, y, y)) == y and steps[last].apply((y, y, x)) == x
            for i, t in enumerate(steps):
                assert t.apply((x, y, x)) == x, "position %d" % i
            for i in range(last):
                if i % 2 == 0:
                    assert steps[i].apply((x, x, y)) == steps[i + 1].apply((x, x, y))
                else:
                    assert steps[i].apply((x, y, y)) == steps[i + 1].apply((x, y, y))


# ------------------------------------------------------------------ malcev

def test_malcev_per_sort_frozen_tables():
    alg = corpus_algebra("a_malcev")
    w = find_malcev_per_sort(alg)
    assert isinstance(w, MalcevWitness) and w.mode == "per_sort"
    assert w.tables[0].outputs == affine_outputs(2)
    assert w.tables[1].outputs == affine_outputs(3)
    for s, (table, term) in enumerate(zip(w.tables, w.terms)):
        assert_malcev_identities(table, alg.carriers[s])
        assert table_of_term(alg, term) == table


def test_malcev_per_sort_candidates_are_unique():
    from msalg.clone import generate_fragment

    alg = corpus_algebra("a_malcev")
    for s in range(2):
        prof = Profile((s, s, s), s)
        frag = generate_fragment(alg, [prof])
        n = alg.carriers[s]
        hits = [t for t in fragment_tables(frag, prof)
                if all(t.apply((x, x, y)) == y and t.apply((x, y, y)) == x
                       for x in range(n) for y in range(n))]
        assert len(hits) == 1
        assert hits[0].outputs == affine_outputs(n)


def test_malcev_homog_is_the_componentwise_assembly():
    alg = corpus_algebra("a_malcev")
    h = homogenize(alg)
    w = find_malcev_homog(alg)
    assert w is not None and w.mode == "homogenized"
    per = find_malcev_per_sort(alg)
    expected = []
    for codes in itertools.product(range(h.size), repeat=3):
        cols = [h.decode(c) for c in codes]
        expected.append(h.encode(tuple(
            per.tables[s].apply((cols[0][s], cols[1][s], cols[2][s]))
            for s in range(2))))
    assert w.tables[0].outputs == tuple(expected)
    assert_malcev_identities(w.tables[0], h.size)
    assert table_of_term(h.algebra, w.terms[0]) == w.tables[0]


def test_malcev_absent_on_semilattices():
    alg = corpus_algebra("a_semilat")
    assert find_malcev_per_sort(alg) is None
    assert find_malcev_homog(alg) is None


def test_malcev_single_sorted():
    alg = corpus_algebra("a_group")
    w = find_malcev_per_sort(alg)
    assert w.tables[0].outputs == affine_outputs(3)
    hw = find_malcev_homog(alg)
    assert hw.tables[0].outputs == affine_outputs(3)


def test_malcev_trivial_carriers():
    point = build_algebra([("u", 1), ("w", 1)], [("f", ["u"], "w", [0])])
    assert find_malcev_per_sort(point) is not None
    assert find_malcev_homog(point) is not None


def test_malcev_modes_agree_across_corpus():
    for name in corpus_names():
        alg = corpus_algebra(name)
        per = find_malcev_per_sort(alg)
        hom = find_malcev_homog(alg)
        assert (per is None) == (hom is None), name
        if per is not None:
            for s, t in enumerate(per.tables):
                assert_malcev_identities(t, alg.carriers[s])
            assert_malcev_identities(hom.tables[0], homogenize(alg).size)


def test_malcev_success_implies_permutability():
    for name in ["a_malcev", "a_group"]:
        alg = corpus_algebra(name)
        assert find_malcev_homog(alg) is not None
        rep = check_cp_bruteforce(homogenize(alg).algebra)
        assert rep.ok, (name, rep.witness)


@pytest.mark.parametrize("name, per_sort, homogenized", [("a_semilat", 0, 0), ("a_malcev", 2, 1)])
def test_only_malcev_tables_get_a_search_key(monkeypatch, name, per_sort, homogenized):
    """The identities are read off the fragment matrix, so table_search_key
    hashes the Mal'cev tables only: none on a_semilat, and on a_malcev one
    per sort and one on the product carrier."""
    keyed = []

    def spy(table):
        keyed.append(table)
        return table_search_key(table)

    monkeypatch.setattr(malcev, "table_search_key", spy)
    alg = corpus_algebra(name)
    find_malcev_per_sort(alg)
    assert len(keyed) == per_sort
    find_malcev_homog(alg)
    assert len(keyed) == per_sort + homogenized
    for t in keyed:
        assert_malcev_identities(t, t.carriers[t.profile.cod])


def test_per_sort_search_stops_at_the_first_sort_without_one(monkeypatch):
    """a_semilat's first sort has no Mal'cev table, so the ternary fragment
    of its second sort is never generated."""
    generated = []
    closure = clone._closure_full.__wrapped__

    def spy(alg, inputs, budget):
        generated.append(inputs)
        return closure(alg, inputs, budget)

    monkeypatch.setattr(clone, "_closure_full", spy)
    assert find_malcev_per_sort(corpus_algebra("a_semilat")) is None
    assert generated == [(0, 0, 0)]


def test_malcev_budget_is_enforced():
    with pytest.raises(BudgetError):
        find_malcev_per_sort(corpus_algebra("a_malcev"), budget=10)


# ------------------------------------------------------------------ chains

def test_jonsson_lattice_chain_both_modes():
    alg = corpus_algebra("a_lattice")
    c = find_jonsson(alg, mode="per_sort")
    assert isinstance(c, JonssonChain) and c.n == 1
    assert len(c.steps) == 3
    for s in range(alg.n_sorts):
        assert_chain_conditions([step[s] for step in c.steps], alg.carriers[s])
        for step, term in zip(c.steps, c.terms):
            assert table_of_term(alg, term[s]) == step[s]

    h = homogenize(alg)
    ch = find_jonsson(alg, mode="homogenized")
    assert ch.n == 1
    assert_chain_conditions([step[0] for step in ch.steps], h.size)
    for step, term in zip(ch.steps, ch.terms):
        assert table_of_term(h.algebra, term[0]) == step[0]


def test_jonsson_middle_step_is_majority():
    c = find_jonsson(corpus_algebra("a_lattice"), mode="per_sort")
    majority = tuple(int(x + y + z >= 2)
                     for x, y, z in itertools.product(range(2), repeat=3))
    assert c.steps[1][0].outputs == majority
    assert c.steps[1][1].outputs == majority


def test_jonsson_absent_for_affine_algebras():
    for name in ["a_malcev", "a_group"]:
        alg = corpus_algebra(name)
        assert find_jonsson(alg, mode="per_sort") is None
        assert find_jonsson(alg, mode="homogenized") is None


def test_jonsson_trivial_carriers():
    point = build_algebra([("u", 1), ("w", 1)], [("f", ["u"], "w", [0])])
    c = find_jonsson(point, mode="per_sort")
    assert c.n == 0 and len(c.steps) == 1
    assert find_jonsson(point, mode="homogenized").n == 0


def test_jonsson_modes_agree_across_corpus():
    for name in corpus_names():
        alg = corpus_algebra(name)
        per = find_jonsson(alg, mode="per_sort")
        hom = find_jonsson(alg, mode="homogenized")
        if per is None:
            assert hom is None, name
        else:
            assert hom is not None and per.n == hom.n, name


def test_jonsson_found_chain_implies_distributive_product_carrier():
    for name in corpus_names():
        alg = corpus_algebra(name)
        if find_jonsson(alg, mode="per_sort") is not None:
            rep = check_cd_bruteforce(homogenize(alg).algebra)
            assert rep.ok, name


def test_searches_are_deterministic():
    alg = corpus_algebra("a_lattice")
    assert find_jonsson(alg, mode="per_sort") == find_jonsson(alg, mode="per_sort")
    assert find_malcev_homog(corpus_algebra("a_malcev")) == \
        find_malcev_homog(corpus_algebra("a_malcev"))


# --------------------------------------------- permutability, distributivity

def test_cp_on_product_carriers():
    rep = check_cp_bruteforce(homogenize(corpus_algebra("a_malcev")).algebra)
    assert rep.ok and rep.witness is None and rep.congruences == 4

    rep = check_cp_bruteforce(homogenize(corpus_algebra("a_semilat")).algebra)
    assert not rep.ok
    theta, eta, s, (a, c) = rep.witness
    assert s == 0
    # re-verify the asymmetry straight from the partitions
    n = homogenize(corpus_algebra("a_semilat")).size

    def composes(l1, l2):
        return any(l1[a] == l1[b] and l2[b] == l2[c] for b in range(n))

    assert composes(theta[s], eta[s]) != composes(eta[s], theta[s])


def test_cd_on_product_carriers():
    for name in ["a_lattice", "a_malcev", "a_semilat"]:
        rep = check_cd_bruteforce(homogenize(corpus_algebra(name)).algebra)
        assert rep.ok, (name, rep.witness)


def test_cd_fails_on_a_bare_three_element_set():
    # with no operations the congruences form the full partition lattice,
    # whose three atoms pairwise meet to bottom and join to top
    bare = build_algebra([("x", 3)], [])
    rep = check_cd_bruteforce(bare)
    assert not rep.ok and rep.witness is not None
    assert rep.congruences == 5
    rep = check_cp_bruteforce(bare)
    assert not rep.ok


def test_cd_matches_the_oracle_on_the_bare_set_and_every_collapse():
    # each pair's join and meet once, against the oracle's 2K^3 of them:
    # the same verdict, congruence count and first failing triple
    algebras = [build_algebra([("x", 3)], [])] + [homogenize(corpus_algebra(name)).algebra
                                                  for name in corpus_names()]
    for alg in algebras:
        rep = check_cd_bruteforce(alg)
        assert (rep.ok, rep.congruences, rep.witness) == oracle.check_cd_bruteforce(alg)


def test_trivial_carrier_reports():
    point = build_algebra([("x", 1)], [])
    assert check_cp_bruteforce(point).ok
    assert check_cd_bruteforce(point).ok
