"""Every whole-table equation check against its per-point oracle.

The oracles in oracle_equations.py walk the domain one point at a time and
stop at the first failing point, the way the library checked equations
before msalg.core.first_failure.  Each case below runs one check and its
oracle over the same inputs: every corpus algebra and its collapse, the
nullary-symbol and empty-carrier algebras of test_tabulate.py, every pair
find_diagonal_pairs returns, and candidates that fail at varied points.
Verdicts and witnesses must be equal, and every witness made of Python
ints: reports print them with %r, which shows numpy scalars differently.
The hypothesis cases draw random small tables, so failures land anywhere
and exercise the witness order.
"""

import itertools
import random
from functools import lru_cache
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_equations as oracle
from oracle_clone import fragment_tables
from oracle_lattice import growth_strings
from test_tabulate import _all_python_ints, bases, collapses
from msalg import malcev
from msalg.clone import generate_fragment
from msalg.core import (OpTable, Profile, ProfileError, build_algebra, decode_digits, encode_digits, eval_term,
                        table_search_key, term_str, App, Var)
from msalg.diagonal import (
    DiagonalPair,
    _transport_maps,
    decompose_table,
    exact_projection_holds,
    find_diagonal_pairs,
    satisfies_diagonal_identity,
    stack_tables,
    verify_decomposition,
    verify_diagonal_pair,
)
from msalg.hetero import canonical_pair, cross_family_from_purity, verify_pair_independence
from msalg.homog import homogenize
from msalg.lattice import (
    Congruence,
    Relation,
    _relabel,
    invariance_witness,
    is_closed_family,
    is_congruence,
    pp_evaluate,
    PPFormula,
)
from msalg.malcev import (
    _FLANKS,
    _MALCEV,
    _at,
    _compose_partitions,
    _first_split,
    _passes,
    check_cd_bruteforce,
    check_cp_bruteforce,
)

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)


def single_sorted():
    """Every collapse, with the width of its diagonal pairs."""
    return [(name, h.algebra, len(h.radices)) for name, h in collapses()]


@lru_cache(maxsize=None)
def pairs():
    """(name, collapse, pair): every pair find_diagonal_pairs returns on a
    collapse, and the canonical pair of each pure base."""
    out = []
    for name, h in collapses():
        out += [(name, h.algebra, p) for p in find_diagonal_pairs(h.algebra, len(h.radices))]
        family = cross_family_from_purity(h.source)
        if family is not None:
            out.append((name + " canonical", h.algebra, canonical_pair(h, family)))
    return tuple(out)


def _candidates(alg, width, step):
    """Every step-th (d, es) candidate among the term operations."""
    frag = generate_fragment(alg, [(0,) * width, (0,)])
    combos = itertools.product(fragment_tables(frag, Profile((0,) * width, 0)),
                               itertools.product(fragment_tables(frag, Profile((0,), 0)), repeat=width))
    return [DiagonalPair(d, es) for d, es in itertools.islice(combos, 0, None, step)]


def _outcome(fn):
    """fn's result, or the message of the ProfileError it raised."""
    try:
        return fn()
    except ProfileError as exc:
        return "raises", str(exc)


def _plain(x) -> bool:
    """No numpy scalar anywhere in x, tables and pairs included."""
    if isinstance(x, dict):
        return all(_plain(k) and _plain(v) for k, v in x.items())
    if isinstance(x, DiagonalPair):
        return _plain((x.d,) + x.es)
    if isinstance(x, (tuple, list)):
        return all(_plain(v) for v in x)
    return _all_python_ints(x)


def _checks(ver):
    return [(c.name, c.ok, c.detail) for c in ver.checks]


# ------------------------------------------------------------------ cases
# Each case yields (label, fast result, oracle result).

def case_find_diagonal_pairs():
    for name, alg, width in single_sorted():
        yield name, find_diagonal_pairs(alg, width), oracle.find_diagonal_pairs(alg, width)


def case_diagonal_pair_checks():
    for name, alg, width in single_sorted():
        for pair in _candidates(alg, width, 7) + [p for n, a, p in pairs() if a is alg]:
            yield name, _checks(verify_diagonal_pair(alg, pair)), _checks(oracle.verify_diagonal_pair(alg, pair))
            yield name, exact_projection_holds(alg, pair), oracle.exact_projection_holds(alg, pair)


def case_diagonal_identity():
    for name, alg, width in single_sorted():
        frag = generate_fragment(alg, [(0,) * width])
        for d in fragment_tables(frag, Profile((0,) * width, 0)):
            yield name, satisfies_diagonal_identity(alg, d), oracle.satisfies_diagonal_identity(alg, d)


def case_pair_independence():
    for name, alg, p1 in pairs():
        unary = fragment_tables(generate_fragment(alg, [(0,)]), Profile((0,), 0))
        others = [p for n, a, p in pairs() if a is alg and p.d == p1.d]
        others += [DiagonalPair(p1.d, (g,) * p1.width) for g in unary[:3]]
        for p2 in others:
            yield (name, _outcome(lambda: _checks(verify_pair_independence(alg, p1, p2))),
                   _outcome(lambda: _checks(oracle.verify_pair_independence(alg, p1, p2))))


def _filters(tables, n):
    """The matrix filters on stacked ternary tables, in the oracle's shapes:
    the Mal'cev verdicts, then chain_links (the tables fixing the flanks,
    and their values at (x, x, y) and at (x, y, y))."""
    m = stack_tables(tables, n ** 3)
    keep = _passes(m, n, _FLANKS)
    dset = [t for t, ok in zip(tables, keep) if ok]
    sigs = ({t: tuple(v) for t, v in zip(dset, _at(m[keep], n, p).reshape(len(dset), n * n).tolist())}
            for p in ((0, 0, 1), (0, 1, 1)))
    return _passes(m, n, _MALCEV).tolist(), (dset, *sigs)


def case_malcev_candidates():
    """The survivors of each search against every fragment table filtered
    by the oracle and sorted by search key, with their terms."""
    algs = list(bases()) + [("h_" + name, h.algebra) for name, h in collapses() if h.size <= 4]
    for name, alg in algs:
        for s, n in enumerate(alg.carriers):
            prof = Profile((s, s, s), s)
            frag = generate_fragment(alg, [prof], budget=2_000_000)
            tables = fragment_tables(frag, prof)
            term = dict(zip(tables, map(term_str, frag.witnesses[prof])))
            dset = oracle.chain_links(tables, n)[0]
            for identities, want in ((_MALCEV, [t for t in tables if oracle.is_malcev(t, n)]), (_FLANKS, dset)):
                got, terms, _ = malcev._candidates(alg, s, 2_000_000, identities)
                want = sorted(want, key=table_search_key)
                yield name, (got, list(map(term_str, terms))), (want, [term[t] for t in want])
            yield name, _filters(tables, n), ([oracle.is_malcev(t, n) for t in tables], oracle.chain_links(tables, n))


def _report(r):
    return r.ok, r.congruences, r.witness


def _every_algebra():
    return bases() + tuple(("h_" + n, h.algebra) for n, h in collapses())


def case_permutability_and_distributivity():
    for name, alg in _every_algebra():
        yield name, _report(check_cp_bruteforce(alg)), oracle.check_cp_bruteforce(alg)
        yield name, _report(check_cd_bruteforce(alg)), oracle.check_cd_bruteforce(alg)


def case_closed_family():
    for name, alg in _every_algebra():
        per_sort = [[tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
                    for n in alg.carriers]
        for family in itertools.product(*per_sort):
            yield name, is_closed_family(alg, family), oracle.is_closed_family(alg, family)


def case_congruence():
    for name, alg in _every_algebra():
        for classes in itertools.product(*[list(growth_strings(n)) for n in alg.carriers]):
            yield name, is_congruence(alg, classes), oracle.is_congruence(alg, classes)


def _relations(n, rng):
    """Every relation of arity 1, a sample of arity 2, both of arity 0, and
    the cube with one member dropped, large enough that invariance_witness
    gathers its member rows in steps."""
    out = [Relation(0, frozenset()), Relation(0, frozenset({()}))]
    out += [Relation(1, frozenset((i,) for i in range(n) if mask >> i & 1)) for mask in range(1 << n)]
    square = list(itertools.product(range(n), repeat=2))
    for size in range(0, len(square) + 1, max(1, len(square) // 12)):
        out.append(Relation(2, frozenset(rng.sample(square, size))))
    cube = list(itertools.product(range(n), repeat=3))
    out += [Relation(3, frozenset(cube) - {x}) for x in rng.sample(cube, min(len(cube), 3))]
    return out


def case_invariance():
    rng = random.Random(0)
    for name, h in collapses():
        for rel in _relations(h.size, rng):
            yield name, invariance_witness(h.algebra, rel), oracle.invariance_witness(h.algebra, rel)


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


def _compare(case):
    count = 0
    for label, fast, slow in CASES[case]():
        assert fast == slow, (case, label)
        assert _plain(fast), (case, label)
        count += 1
    assert count, "case %s compared nothing" % case


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_oracle(case):
    _compare(case)


def _composition_certified(alg, pair, tables, unary):
    """(recombine . split is the identity on the carrier, the oracle's first
    (f, gs) at which phi does not commute with composition or None)."""
    retracts = pair.retracts()
    recombine, split = _transport_maps(pair, retracts)
    phi = {f.outputs: decompose_table(alg, pair, f, retracts) for f in tables}
    return (recombine[split].tolist() == list(range(alg.carriers[0])),
            oracle.composition_failure(alg, pair, retracts, tables, unary, phi))


def test_composition_law_is_certified_on_every_corpus_pair():
    """The pair equations make recombine . split the identity, so phi is
    conjugation by a bijection and commutes with every composite; the
    oracle finds none it does not commute with, and verify_decomposition
    passes composition-compatible with an empty detail."""
    for name, alg, pair in pairs():
        for lam in (1, 2) if alg.carriers[0] <= 4 else (1,):
            frag = generate_fragment(alg, [(0,) * lam, (0,)])
            tables, unary = fragment_tables(frag, Profile((0,) * lam, 0)), fragment_tables(frag, Profile((0,), 0))
            assert _composition_certified(alg, pair, tables, unary) == (True, None), (name, lam)
            check = next(c for c in verify_decomposition(alg, pair, lam).checks if c.name == "composition-compatible")
            assert (check.ok, check.detail) == (True, ""), (name, lam)


# ------------------------------------------------------------- hypothesis

def _table(draw, n, arity):
    return OpTable(Profile((0,) * arity, 0), (n,),
                   tuple(draw(st.lists(st.integers(0, n - 1), min_size=n ** arity, max_size=n ** arity))))


@st.composite
def diagonal_candidates(draw):
    n, width = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    d = _table(draw, n, width)
    alg = build_algebra([("c", n)], [("d", ("c",) * width, "c", d.outputs)])
    return alg, DiagonalPair(d, tuple(_table(draw, n, 1) for _ in range(width)))


@SETTINGS
@given(diagonal_candidates())
def test_random_diagonal_candidates(case):
    alg, pair = case
    assert _checks(verify_diagonal_pair(alg, pair)) == _checks(oracle.verify_diagonal_pair(alg, pair))
    assert exact_projection_holds(alg, pair) == oracle.exact_projection_holds(alg, pair)
    assert satisfies_diagonal_identity(alg, pair.d) == oracle.satisfies_diagonal_identity(alg, pair.d)


@st.composite
def diagonal_pairs(draw):
    """A pair that passes verify_diagonal_pair, on a carrier coded onto a
    product of slot ranges by a random bijection: d(x) is the element whose
    slot s digit is that of x_s, and e_s sends y to a randomly chosen
    element with y's slot s digit.  Every diagonal pair has this form, up to
    the code; with it, random lam-ary tables f and unary tables g."""
    width = draw(st.integers(1, 3))
    sizes = tuple(draw(st.lists(st.integers(1, 3 if width < 3 else 2), min_size=width, max_size=width)))
    n = prod(sizes)
    code = np.asarray(draw(st.permutations(range(n))))
    digits, element = decode_digits(code, sizes), np.argsort(code)
    d = OpTable(Profile((0,) * width, 0), (n,), tuple(
        element[encode_digits([digits[s][x] for s, x in enumerate(xs)], sizes)].tolist()
        for xs in itertools.product(range(n), repeat=width)))
    es = []
    for s, m in enumerate(sizes):
        pick = [draw(st.sampled_from(np.flatnonzero(digits[s] == v).tolist())) for v in range(m)]
        es.append(OpTable(Profile((0,), 0), (n,), tuple(pick[v] for v in digits[s].tolist())))
    alg = build_algebra([("c", n)], [("d", ("c",) * width, "c", d.outputs)] +
                        [("e%d" % s, ("c",), "c", e.outputs) for s, e in enumerate(es)])
    lam = draw(st.integers(1, 2))
    tables = [_table(draw, n, lam) for _ in range(draw(st.integers(1, 3)))]
    unary = [_table(draw, n, 1) for _ in range(draw(st.integers(1, 3)))]
    return alg, DiagonalPair(d, tuple(es)), tables, unary


@SETTINGS
@given(diagonal_pairs())
def test_random_pairs_certify_the_composition_law(case):
    alg, pair, tables, unary = case
    assert verify_diagonal_pair(alg, pair).ok
    assert _composition_certified(alg, pair, tables, unary) == (True, None)


@st.composite
def ternary_tables(draw):
    n = draw(st.integers(1, 3))
    tables = [_table(draw, n, 3) for _ in range(draw(st.integers(1, 4)))]
    # a near miss: a random table patched to be Mal'cev off one point
    outs = list(tables[0].outputs)
    for x, y in itertools.product(range(n), repeat=2):
        outs[(x * n + x) * n + y], outs[(x * n + y) * n + y] = y, x
    outs[draw(st.integers(0, n ** 3 - 1))] = draw(st.integers(0, n - 1))
    return n, tables + [OpTable(tables[0].profile, (n,), tuple(outs))]


@SETTINGS
@given(ternary_tables())
def test_random_malcev_candidates(case):
    n, tables = case
    assert _filters(tables, n) == ([oracle.is_malcev(t, n) for t in tables], oracle.chain_links(tables, n))


@st.composite
def partitions(draw):
    n = draw(st.integers(0, 6))
    return n, [tuple(draw(st.lists(st.integers(0, n), min_size=n, max_size=n))) for _ in range(2)]


@SETTINGS
@given(partitions())
def test_random_partitions(case):
    n, (raw1, raw2) = case
    l1, l2 = _relabel(raw1), _relabel(raw2)
    fast = _compose_partitions(l1, l2)
    assert {(int(a), int(c)) for a, c in zip(*np.nonzero(fast))} == oracle.compose_partitions(l1, l2, n)
    c1, c2 = Congruence((l1,)), Congruence((l2,))
    assert _first_split(c1, c2) == oracle.first_split(c1, c2, (n,))
    alg = build_algebra([("c", n)], [("f", ("c", "c"), "c", [(a * 3 + b) % n for a in range(n) for b in range(n)])])
    assert is_congruence(alg, (l1,)) == oracle.is_congruence(alg, (l1,))


@st.composite
def relations(draw):
    n, mu, arity = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(0, 2))
    table = _table(draw, n, arity)
    alg = build_algebra([("c", n)], [("f", ("c",) * arity, "c", table.outputs)])
    points = list(itertools.product(range(n), repeat=mu))
    rel = Relation(mu, frozenset(draw(st.lists(st.sampled_from(points), max_size=len(points)))))
    family = (tuple(sorted(draw(st.sets(st.integers(0, n - 1))))),)
    return alg, rel, family


@SETTINGS
@given(relations())
def test_random_relations(case):
    alg, rel, family = case
    assert invariance_witness(alg, rel) == oracle.invariance_witness(alg, rel)
    assert is_closed_family(alg, family) == oracle.is_closed_family(alg, family)


# ------------------------------------------------------- raised, not asserted

def test_pp_evaluate_rejects_a_relation_that_is_not_invariant():
    h = homogenize(next(alg for name, alg in bases() if name == "a_group"))
    rel = Relation(2, frozenset({(0, 1), (1, 2)}))
    witness = invariance_witness(h.algebra, rel)
    assert witness is not None
    with pytest.raises(ProfileError, match="not invariant: %s" % witness[0]):
        pp_evaluate([rel], PPFormula(2, 0, ((0, (0, 1)),)), h.size, verify_with=h.algebra)


def test_invariance_witness_rejects_members_outside_the_carrier():
    h = homogenize(next(alg for name, alg in bases() if name == "a_group"))
    for bad in ((-1, 0), (0, 3)):
        with pytest.raises(ProfileError, match="outside the carrier"):
            invariance_witness(h.algebra, Relation(2, frozenset({(0, 0), bad})))


def test_apply_and_eval_term_reject_arguments_outside_the_carrier():
    alg = next(alg for name, alg in bases() if name == "a_tiny")
    with pytest.raises(ValueError, match="outside carrier"):
        alg.table("m").apply((3,))
    cw = App(Profile((1,), 0), "cw", (Var(Profile((1,), 1), 0),))
    with pytest.raises(ValueError, match="outside carrier"):
        eval_term(alg, cw, (5,))
