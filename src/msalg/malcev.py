"""Mal'cev witnesses, chain witnesses, and brute-force congruence checks.

A Mal'cev table satisfies p(x, x, y) = y and p(x, y, y) = x; a chain of
length 2n+1 runs from the first projection to the third through tables
fixing the flanks, d_i(x, y, x) = x, with consecutive tables agreeing on
(x, x, y) at even positions and on (x, y, y) at odd ones.  Both are
searched inside generated clone fragments, either one sort at a time or on
the product carrier after homogenizing, and come back with the term that
produced the table.

Searches scan candidates in ascending table_search_key order.  Keys are
injective on distinct tables, so there are no ties to break, and the term
attached to a table is the one its fragment recorded.  The identities are
checked by gathering a candidate at all (x, x, y), (x, y, y) or (x, y, x).

The brute-force checks at the bottom are single-algebra statements about
the congruence lattice of their argument, a necessary condition for the
corresponding variety-level property; the term witnesses above are what
certify the variety-level direction.  There partitions are boolean
relation matrices, and witnesses come from core.first_failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .clone import generate_fragment
import numpy as np

from .core import (
    JONSSON_MAX,
    SUBUNIVERSE_BUDGET,
    TABLE_BUDGET,
    OpTable,
    Profile,
    ProfileError,
    SortedAlgebra,
    Term,
    first_failure,
    gather,
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


def _is_malcev(table: OpTable, n: int) -> bool:
    x, y = open_grid((n, n))
    return not ((gather(table, [x, x, y]) != y) | (gather(table, [x, y, y]) != x)).any()


def _ternary_candidates(alg: SortedAlgebra, s: int, budget: int):
    """The ternary fragment of sort s as (table, term) pairs in search order."""
    prof = Profile((s, s, s), s)
    frag = generate_fragment(alg, [prof], budget=budget)
    return sorted(zip(frag.tables[prof], frag.witnesses[prof]), key=lambda tw: table_search_key(tw[0]))


def find_malcev_per_sort(alg: SortedAlgebra, *, budget: int = TABLE_BUDGET):
    """One Mal'cev table per sort, or None when any sort lacks one."""
    tables, terms = [], []
    for s in range(alg.n_sorts):
        n = alg.carriers[s]
        hit = next(((t, w) for t, w in _ternary_candidates(alg, s, budget) if _is_malcev(t, n)), None)
        if hit is None:
            return None
        tables.append(hit[0])
        terms.append(hit[1])
    return MalcevWitness("per_sort", tuple(tables), tuple(terms))


def find_malcev_homog(alg: SortedAlgebra, *, budget: int = TABLE_BUDGET):
    """A Mal'cev table in the ternary fragment of the product carrier."""
    h = homogenize(alg)
    hit = next(((t, w) for t, w in _ternary_candidates(h.algebra, 0, budget) if _is_malcev(t, h.size)), None)
    if hit is None:
        return None
    return MalcevWitness("homogenized", (hit[0],), (hit[1],))


def _chain_links(cands, n: int):
    """The candidates fixing the flanks, d(x, y, x) = x, and per such table
    its values at (x, x, y) and at (x, y, y), (x, y) row-major."""
    x, y = open_grid((n, n))
    dset = [t for t in cands if not (gather(t, [x, y, x]) != x).any()]
    return (dset, *({t: tuple(gather(t, args).ravel().tolist()) for t in dset}
                    for args in ([x, x, y], [x, y, y])))


def _chain_single(alg: SortedAlgebra, s: int, nmax: int, budget: int):
    """Shortest chain over one sort as [(table, term), ...], or None.

    Breadth-first search over (table, position parity): a state is reached
    at its least position, and the target projection at an even position
    2n gives the least n.  Neighbor order follows the sorted candidate
    list, so the result is deterministic.
    """
    cands = _ternary_candidates(alg, s, budget)
    dset, sig_xxy, sig_xyy = _chain_links([t for t, _ in cands], alg.carriers[s])
    by_xxy, by_xyy = {}, {}
    for t in dset:
        by_xxy.setdefault(sig_xxy[t], []).append(t)
        by_xyy.setdefault(sig_xyy[t], []).append(t)

    pi0 = projection(alg.carriers, (s, s, s), 0)
    pi2 = projection(alg.carriers, (s, s, s), 2)
    assert pi0 in sig_xxy and pi2 in sig_xxy  # projections always qualify

    start, goal = (pi0, 0), (pi2, 0)
    parent = {start: None}
    frontier = [start]
    pos = 0
    while goal not in parent and frontier and pos < 2 * nmax:
        fresh = []
        for state in frontier:
            t, parity = state
            bucket = by_xxy[sig_xxy[t]] if parity == 0 else by_xyy[sig_xyy[t]]
            for t2 in bucket:
                nxt = (t2, 1 - parity)
                if nxt not in parent:
                    parent[nxt] = state
                    fresh.append(nxt)
        frontier = fresh
        pos += 1
    if goal not in parent:
        return None
    chain = []
    state = goal
    while state is not None:
        chain.append(state[0])
        state = parent[state]
    chain.reverse()
    terms = dict(cands)
    return [(t, terms[t]) for t in chain]


def find_jonsson(alg: SortedAlgebra, *, nmax: int = JONSSON_MAX,
                 mode: str = "per_sort", budget: int = TABLE_BUDGET):
    """Least-n chain up to nmax, or None as a bounded absence verdict.

    per_sort searches each sort separately and pads shorter chains by
    repeating their final projection, which keeps every link equality;
    homogenized searches the ternary fragment of the product carrier.
    """
    if mode not in ("per_sort", "homogenized") or nmax < 0:
        raise ProfileError("need mode per_sort or homogenized and a chain bound of at least 0, "
                           "got %r and %d" % (mode, nmax))
    if mode == "homogenized":
        chain = _chain_single(homogenize(alg).algebra, 0, nmax, budget)
        if chain is None:
            return None
        return JonssonChain(mode, (len(chain) - 1) // 2,
                            tuple((t,) for t, _ in chain),
                            tuple((w,) for _, w in chain))
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
    steps = tuple(tuple(per[s][i][0] for s in range(alg.n_sorts))
                  for i in range(2 * n + 1))
    terms = tuple(tuple(per[s][i][1] for s in range(alg.n_sorts))
                  for i in range(2 * n + 1))
    return JonssonChain("per_sort", n, steps, terms)


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
    """Does meet distribute over join across all congruence triples."""
    cons = enumerate_congruences(alg, budget=budget)
    for theta, eta, delta in itertools.product(cons, repeat=3):
        left = congruence_meet(theta, congruence_join(eta, delta))
        right = congruence_join(congruence_meet(theta, eta),
                                congruence_meet(theta, delta))
        if left != right:
            return DistributivityReport(False, len(cons), (theta.classes, eta.classes, delta.classes)
                                        + _first_split(left, right))
    return DistributivityReport(True, len(cons), None)
