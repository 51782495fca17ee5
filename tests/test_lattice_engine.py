"""The closed-set lattice engine against the enumerators it replaced.

The oracles in oracle_lattice.py filter every candidate family, test every
product of set partitions, or join singleton closures pairwise from
scratch.  Each case below runs one engine entry point and its oracle on the
same inputs: every corpus algebra and its collapse, and the nullary-symbol
and empty-carrier algebras of test_tabulate.py.  congruence_generate and
congruence_join are compared with the least of the oracle's congruences
that relates the given pairs, or the pairs of both congruences.  Inv is
compared for mu up to 2; the pairs that take seconds are left out
(test_verify_inv_iso_a_tiny compares the two routes at mu = 2).  The
matrix route reads the boxes of the closed sets of the many-sorted power
A^mu; its oracle closes matrices under the assembled fragment of the
collapse instead, whose size grows with the source's lam-ary terms.  They
are compared for mu = 1 on the corpus and test_tabulate.py's algebras
(mu = 2 on a_group), and on PURE: pure algebras with a constant, a binary
symbol into a carrier of 3, empty carriers and one-element carriers, at
the arities their oracle finishes within a second.

_Power closes a batch of sets by one of two paths, picked by size: the
bit-packed reach words when the reach tensors fit lattice._REACH_CELLS,
which every case here does, and the digit gather otherwise.  Each case that
closes powers runs once on each path, the other path stubbed out so that it
cannot run unseen, and msalg's value caches cleared first so that no result
of the other path is read back.  The corpus powers have at most 64 points,
one word per mask row; power_close also closes seeds on the cube of a
5-element algebra, 125 points in two words, which case_inv walks at mu = 3.
"""

import itertools

import numpy as np
import pytest

import oracle_lattice as oracle
from msalg import lattice
from msalg.core import SUBUNIVERSE_BUDGET, build_algebra, decode_mixed
from msalg.corpus import corpus_algebra
from msalg.homog import homogenize
from msalg.lattice import (
    _matrix_route,
    congruence_generate,
    congruence_join,
    enumerate_congruences,
    enumerate_subuniverses,
    inv_enumerate,
    subalgebra_generate,
)
from test_tabulate import bases, collapses
from value_caches import clear_msalg_caches

# A 5-element algebra with one unary and one binary symbol: its cube has 125
# points, two words per mask row, and reach tensors under the cap.
FIVE = build_algebra([("s", 5)], [
    ("f", ("s",), "s", tuple((x + 1) % 5 for x in range(5))),
    ("g", ("s", "s"), "s", tuple(max(x, y) for x in range(5) for y in range(5))),
])

# (algebra, mu) pairs whose oracle takes seconds: the pairwise joins of
# a_semilat's 1217 binary relations, and a_malcev's 31.
SLOW_INV = {("a_semilat", 2), ("a_malcev", 2)}


def _algebras():
    return list(bases()) + [("h_" + name, h.algebra) for name, h in collapses()]


def case_subuniverses():
    for name, alg in _algebras():
        yield name, enumerate_subuniverses(alg), oracle.enumerate_subuniverses(alg)


def case_generate():
    for name, alg in _algebras():
        gens = [[set() for _ in alg.carriers], [set(range(n)) for n in alg.carriers]]
        for s, n in enumerate(alg.carriers):
            for x in range(n):
                gens.append([{x} if t == s else set() for t in range(alg.n_sorts)])
        for g in gens:
            yield name, subalgebra_generate(alg, g), oracle.subalgebra_generate(alg, g)


def case_congruences():
    for name, alg in _algebras():
        yield name, enumerate_congruences(alg), oracle.enumerate_congruences(alg)


def _least(cons, related):
    """The least of the oracle's congruences cons that relates every
    (sort, a, b) in related: the one relating the fewest pairs."""
    above = [c for c in cons if all(c.related(*p) for p in related)]
    return min(above, key=lambda c: sum(len(b) ** 2 for s in range(len(c.classes)) for b in c.blocks(s)))


def case_congruence_generate():
    # each pair alone, either way round or reflexive, each two pairs a < b,
    # and all of them
    for name, alg in _algebras():
        cons = oracle.enumerate_congruences(alg)
        pairs = [(s, a, b) for s, n in enumerate(alg.carriers) for a, b in itertools.combinations(range(n), 2)]
        inputs = [[p] for p in pairs] + [[(s, b, a)] for s, a, b in pairs]
        inputs += [[(s, a, a)] for s, n in enumerate(alg.carriers) for a in range(n)]
        inputs += [list(two) for two in itertools.combinations(pairs, 2)] + [pairs]
        for related in inputs:
            by_sort = [[(a, b) for t, a, b in related if t == s] for s in range(alg.n_sorts)]
            yield "%s %r" % (name, related), congruence_generate(alg, by_sort), _least(cons, related)


def case_congruence_join():
    for name, alg in _algebras():
        cons = oracle.enumerate_congruences(alg)
        for c1, c2 in itertools.product(cons, repeat=2):
            related = [(s, a, b) for c in (c1, c2) for s in range(len(c.classes))
                       for block in c.blocks(s) for a, b in itertools.combinations(block, 2)]
            yield "%s %r %r" % (name, c1.classes, c2.classes), congruence_join(c1, c2), _least(cons, related)


def case_inv():
    for name, alg in bases():
        for mu in (1, 2):
            if (name, mu) not in SLOW_INV:
                yield "%s mu=%d" % (name, mu), inv_enumerate(alg, mu), oracle.inv_enumerate(alg, mu)
    yield "five mu=3", inv_enumerate(FIVE, 3), oracle.inv_enumerate(FIVE, 3)


def case_power_close():
    # one batch per power: every point alone, then every point with a
    # second one, against a closure from scratch of each seed
    for name, alg in (("a_lattice", corpus_algebra("a_lattice")), ("five", FIVE)):
        h = homogenize(alg)
        power = lattice._Power((h.size,), h.algebra.tables, 3)
        ops = [(t.arity, np.asarray(t.outputs, dtype=np.int64)) for t in h.algebra.tables]
        seeds = [{x} for x in range(power.size)] + [{x, (7 * x + 3) % power.size} for x in range(power.size)]
        extra = np.zeros((len(seeds), power.size), dtype=bool)
        for row, seed in zip(extra, seeds):
            row[list(seed) + power.constants] = True
        fast = power.close(np.zeros_like(extra), extra)
        for seed, row in zip(seeds, fast):
            yield ("%s^3 %r" % (name, sorted(seed)), frozenset(np.flatnonzero(row).tolist()),
                   oracle.power_close(ops, h.size, 3, seed))


# Pure algebras off the corpus for the matrix route, each with the arities
# at which its oracle finishes within a second.
PURE = [
    ("constant", build_algebra([("u", 3), ("w", 2)], [
        ("k", (), "u", (2,)),
        ("cu", ("u",), "w", (0, 1, 1)),
        ("cw", ("w",), "u", (1, 0)),
    ]), (1, 2)),
    ("binary", build_algebra([("u", 2), ("w", 3)], [
        ("cu", ("u",), "w", (0, 2)),
        ("cw", ("w",), "u", (0, 1, 1)),
        ("b", ("u", "u"), "w", (0, 1, 1, 2)),
    ]), (1,)),
    ("all_empty", build_algebra([("u", 0), ("w", 0)], [
        ("cu", ("u",), "w", ()),
        ("cw", ("w",), "u", ()),
    ]), (1, 2)),
    ("all_ones", build_algebra([("u", 1), ("w", 1)], [
        ("cu", ("u",), "w", (0,)),
        ("cw", ("w",), "u", (0,)),
        ("b", ("u", "w"), "u", (0,)),
    ]), (1, 2)),
]


def case_matrix_route():
    # the engine's point ids are the flat matrices' codes
    corpus = [(name, h, (1, 2) if name == "a_group" else (1,)) for name, h in collapses()]
    for name, h, mus in corpus + [(name, homogenize(alg), mus) for name, alg, mus in PURE]:
        for mu in mus:
            yield ("%s mu=%d" % (name, mu),
                   [frozenset(decode_mixed(c, h.source.carriers * mu) for c in ids)
                    for ids in _matrix_route(h.source, mu, budget=SUBUNIVERSE_BUDGET)],
                   oracle.matrix_route(h.source, h, mu))


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}


def _unused(*args):
    raise AssertionError("the other closure path ran")


def _compare(case):
    clear_msalg_caches()
    count = 0
    for label, fast, slow in CASES[case]():
        assert fast == slow, (case, label)
        count += 1
    assert count, "case %s compared nothing" % case


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_oracle(case, monkeypatch):
    monkeypatch.setattr(lattice._Power, "_close_digits", _unused)
    _compare(case)


# The cases that close no power.
CON_CASES = {"congruences", "congruence_generate", "congruence_join"}


@pytest.mark.parametrize("case", sorted(set(CASES) - CON_CASES))
def test_digit_path_matches_oracle(case, monkeypatch):
    monkeypatch.setattr(lattice, "_REACH_CELLS", 0)
    monkeypatch.setattr(lattice._Power, "_close_words", _unused)
    _compare(case)
