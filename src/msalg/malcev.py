"""Mal'cev witnesses, chain witnesses, and brute-force congruence checks.

A Mal'cev table satisfies p(x, x, y) = y and p(x, y, y) = x; a chain of
length 2n+1 runs from the first projection to the third through tables
fixing the flanks, d_i(x, y, x) = x, with consecutive tables agreeing on
(x, x, y) at even positions and on (x, y, y) at odd ones.  Both are
searched inside generated clone fragments, either one sort at a time or on
the product carrier after homogenizing, and come back with the term that
produced the table.

The identities are checked on the fragment's stacked ternary matrix, one
gather per argument pattern (x, x, y), (x, y, y) or (x, y, x) for every
row at once.  Only the rows that pass become OpTables; the searches scan
them in ascending table_search_key order.  Keys are injective on distinct
tables, so there are no ties to break, and the term attached to a table
is the one its fragment recorded.

The brute-force checks at the bottom are single-algebra statements about
the congruence lattice of their argument, a necessary condition for the
corresponding variety-level property; the term witnesses above are what
certify the variety-level direction.  There partitions are boolean
relation matrices, and witnesses come from core.first_failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .clone import generate_fragment
from .core import (
    JONSSON_MAX,
    SUBUNIVERSE_BUDGET,
    TABLE_BUDGET,
    OpTable,
    Profile,
    ProfileError,
    SortedAlgebra,
    Term,
    encode_digits,
    first_failure,
    open_grid,
    projection,
    table_search_key,
)
from .homog import homogenize
from .lattice import congruence_join, congruence_meet, enumerate_congruences


@dataclass(frozen=True)
class MalcevWitness:
    """mode is per_sort (one table per sort) or homogenized (one table on
    the product carrier); terms re-tabulate to tables."""

    mode: str
    tables: tuple[OpTable, ...]
    terms: tuple[Term, ...]


@dataclass(frozen=True)
class JonssonChain:
    """steps[i] holds position i of the chain, one table per sort in
    per_sort mode and a single table in homogenized mode."""

    mode: str
    n: int
    steps: tuple[tuple[OpTable, ...], ...]
    terms: tuple[tuple[Term, ...], ...]


# Identities as (argument pattern over x = 0 and y = 1, result variable).
_MALCEV = (((0, 0, 1), 1), ((0, 1, 1), 0))  # p(x, x, y) = y, p(x, y, y) = x
_FLANKS = (((0, 1, 0), 0),)  # d(x, y, x) = x


def _at(matrix: np.ndarray, n: int, pattern) -> np.ndarray:
    """Every row of a stack of ternary tables over n elements at an argument
    pattern, one gather, as a (rows, x, y) array."""
    xy = open_grid((n, n))
    return matrix[:, encode_digits([xy[v] for v in pattern], (n, n, n))]


def _passes(matrix: np.ndarray, n: int, identities) -> np.ndarray:
    """Which rows of a stack of ternary tables over n elements satisfy every
    identity."""
    xy = open_grid((n, n))
    return np.logical_and.reduce([(_at(matrix, n, p) == xy[v]).all(axis=(1, 2)) for p, v in identities])


def _candidates(alg: SortedAlgebra, s: int, budget: int, identities):
    """The ternary tables of sort s that satisfy identities, in search order,
    as OpTables, their terms, and their rows stacked."""
    prof = Profile((s, s, s), s)
    frag = generate_fragment(alg, [prof], budget=budget)
    rows = np.flatnonzero(_passes(frag.matrices[prof], alg.carriers[s], identities))
    tables = [OpTable(prof, alg.carriers, tuple(row)) for row in frag.matrices[prof][rows].tolist()]
    order = sorted(range(len(rows)), key=lambda i: table_search_key(tables[i]))
    return [tables[i] for i in order], [frag.witnesses[prof][rows[i]] for i in order], frag.matrices[prof][rows[order]]


def find_malcev_per_sort(alg: SortedAlgebra, *, budget: int = TABLE_BUDGET):
    """One Mal'cev table per sort, or None when any sort lacks one."""
    tables, terms = [], []
    for s in range(alg.n_sorts):
        hits, words, _ = _candidates(alg, s, budget, _MALCEV)
        if not hits:
            return None
        tables.append(hits[0])
        terms.append(words[0])
    return MalcevWitness("per_sort", tuple(tables), tuple(terms))


def find_malcev_homog(alg: SortedAlgebra, *, budget: int = TABLE_BUDGET):
    """A Mal'cev table in the ternary fragment of the product carrier."""
    hits, words, _ = _candidates(homogenize(alg).algebra, 0, budget, _MALCEV)
    return MalcevWitness("homogenized", tuple(hits[:1]), tuple(words[:1])) if hits else None


def _chain_single(alg: SortedAlgebra, s: int, nmax: int, budget: int):
    """Shortest chain over one sort as [(table, term), ...], or None.

    Breadth-first search over (candidate, position parity) among the tables
    fixing the flanks: a state is reached at its least position, and the
    target projection at an even position 2n gives the least n.  A table's
    neighbors share its values at (x, x, y) from an even position and at
    (x, y, y) from an odd one; they come in search order, so the result is
    deterministic.
    """
    dset, terms, rows = _candidates(alg, s, budget, _FLANKS)
    n = alg.carriers[s]
    sigs = [list(map(tuple, _at(rows, n, p).reshape(len(rows), n * n).tolist())) for p in ((0, 0, 1), (0, 1, 1))]
    buckets = [{}, {}]
    for sig, bucket in zip(sigs, buckets):
        for i, key in enumerate(sig):
            bucket.setdefault(key, []).append(i)

    start, goal = ((dset.index(projection(alg.carriers, (s, s, s), k)), 0) for k in (0, 2))
    parent = {start: None}
    frontier = [start]
    pos = 0
    while goal not in parent and frontier and pos < 2 * nmax:
        fresh = []
        for state in frontier:
            i, parity = state
            for j in buckets[parity][sigs[parity][i]]:
                nxt = (j, 1 - parity)
                if nxt not in parent:
                    parent[nxt] = state
                    fresh.append(nxt)
        frontier = fresh
        pos += 1
    if goal not in parent:
        return None
    chain, state = [], goal
    while state is not None:
        chain.insert(0, (dset[state[0]], terms[state[0]]))
        state = parent[state]
    return chain


def find_jonsson(alg: SortedAlgebra, *, nmax: int = JONSSON_MAX,
                 mode: str = "per_sort", budget: int = TABLE_BUDGET):
    """Least-n chain up to nmax, or None as a bounded absence verdict.

    per_sort searches each sort separately and pads shorter chains by
    repeating their final projection, which keeps every link equality;
    homogenized searches the one sort of the product carrier the same way.
    """
    if mode not in ("per_sort", "homogenized") or nmax < 0:
        raise ProfileError("need mode per_sort or homogenized and a chain bound of at least 0, "
                           "got %r and %d" % (mode, nmax))
    if mode == "homogenized":
        alg = homogenize(alg).algebra
    per = []
    for s in range(alg.n_sorts):
        chain = _chain_single(alg, s, nmax, budget)
        if chain is None:
            return None
        per.append(chain)
    n = max((len(c) - 1) // 2 for c in per)
    for chain in per:
        while len(chain) < 2 * n + 1:
            chain.append(chain[-1])
    steps, terms = (tuple(tuple(c[i][k] for c in per) for i in range(2 * n + 1)) for k in (0, 1))
    return JonssonChain(mode, n, steps, terms)


# --------------------------------------------- congruence lattice checks

@dataclass(frozen=True)
class PermutabilityReport:
    ok: bool
    congruences: int
    witness: tuple | None  # (theta classes, eta classes, sort, (a, c))


@dataclass(frozen=True)
class DistributivityReport:
    ok: bool
    congruences: int
    witness: tuple | None  # (theta, eta, delta classes, sort, (a, b))


def _relation(labels) -> np.ndarray:
    """A partition given by block labels, as its boolean relation matrix."""
    return np.equal.outer(labels, labels)


def _compose_partitions(l1, l2):
    """The relation product of two partitions, as a boolean matrix."""
    return _relation(l1).astype(np.int64) @ _relation(l2).astype(np.int64) > 0


def _first_split(left, right):
    """(s, (a, b)), a < b: the first pair just one congruence relates."""
    for s, (l1, l2) in enumerate(zip(left.classes, right.classes)):
        spot = first_failure(np.triu(_relation(l1) != _relation(l2), 1))
        if spot is not None:
            return s, spot
    return None


def check_cp_bruteforce(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> PermutabilityReport:
    """Do all congruence pairs permute, sort by sort, composing both ways."""
    cons = enumerate_congruences(alg, budget=budget)
    for i, theta in enumerate(cons):
        for eta in cons[i + 1:]:
            for s in range(alg.n_sorts):
                left = _compose_partitions(theta.classes[s], eta.classes[s])
                right = _compose_partitions(eta.classes[s], theta.classes[s])
                pair = first_failure(left != right)
                if pair is not None:
                    return PermutabilityReport(
                        False, len(cons),
                        (theta.classes, eta.classes, s, pair))
    return PermutabilityReport(True, len(cons), None)


def check_cd_bruteforce(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> DistributivityReport:
    """Does meet distribute over join across all congruence triples.

    Con is closed under both, so each pair's join and meet is computed once,
    as an index into the enumeration; the triples (theta, eta, delta) are
    then compared in itertools.product order, one theta at a time."""
    cons = enumerate_congruences(alg, budget=budget)
    index = {c: i for i, c in enumerate(cons)}
    join, meet = (np.zeros((len(cons),) * 2, dtype=np.int64) for _ in range(2))
    for i, j in itertools.combinations_with_replacement(range(len(cons)), 2):
        join[i, j] = join[j, i] = index[congruence_join(cons[i], cons[j])]
        meet[i, j] = meet[j, i] = index[congruence_meet(cons[i], cons[j])]
    for theta, row in zip(cons, meet):
        left, right = row[join], join[np.ix_(row, row)]
        bad = first_failure(left != right)
        if bad is not None:
            return DistributivityReport(False, len(cons), (theta.classes, cons[bad[0]].classes, cons[bad[1]].classes)
                                        + _first_split(cons[left[bad]], cons[right[bad]]))
    return DistributivityReport(True, len(cons), None)
