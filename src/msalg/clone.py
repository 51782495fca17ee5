"""Clone fragments: term-operation tables of an algebra at fixed input profiles.

Generation fixes one input profile (the tuple of argument sorts) and
saturates the table sets of every cod sort simultaneously: the stores are
seeded with the projections and a new table can only arise by applying one
basic operation to stored tables, which mirrors how terms are built.  The
produced sets are deterministic; witness terms are minimal-depth, with ties
broken by symbol declaration order and then lexicographically by the
insertion order of the argument tables.

The inner loop runs on numpy: a table is a vector over the domain points and
applying a basic operation to a batch of candidate last arguments is one
gather.  The same engine closes generator vectors over an arbitrary point
set (a subalgebra of a direct power), which other modules use to compute
restrictions of high-arity fragments without materializing them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .core import (
    BudgetError,
    App,
    OpTable,
    Profile,
    SortedAlgebra,
    TABLE_BUDGET,
    MAX_ARITY,
    Term,
    Var,
    check_arity,
    grid_columns,
)


class _Store:
    """Growable matrix of table vectors for one cod sort."""

    def __init__(self, n_points: int):
        self.matrix = np.zeros((16, n_points), dtype=np.int64)
        self.count = 0
        self.terms: list[Term] = []
        self.index: dict[bytes, int] = {}

    def rows(self, upto: int | None = None) -> np.ndarray:
        return self.matrix[: self.count if upto is None else upto]

    def add(self, vec: np.ndarray, term: Term) -> bool:
        key = vec.tobytes()
        if key in self.index:
            return False
        if self.count == len(self.matrix):
            self.matrix = np.vstack([self.matrix, np.zeros_like(self.matrix)])
        self.matrix[self.count] = vec
        self.index[key] = self.count
        self.terms.append(term)
        self.count += 1
        return True


def saturate(alg: SortedAlgebra, n_points: int, seeds, budget: int = TABLE_BUDGET, *,
             ambient_inputs: tuple[int, ...]):
    """Close seed vectors under the basic operations, applied pointwise.

    seeds: {sort index: [(vector, term), ...]}.  Returns {sort: (matrix of
    vectors in insertion order, terms)}.  Vectors are value sequences over
    n_points shared evaluation points; for a full input product this is the
    row-major table, for anything else a restriction of one.  ambient_inputs
    is the input profile every witness term is built over; seed terms must
    already carry it.
    """
    stores = {s: _Store(n_points) for s in range(alg.n_sorts)}
    for s, pairs in seeds.items():
        for vec, term in pairs:
            stores[s].add(np.asarray(vec, dtype=np.int64), term)
    flats = [np.asarray(t.outputs, dtype=np.int64) for t in alg.tables]

    before_prev = {s: 0 for s in stores}
    prev = {s: stores[s].count for s in stores}
    round_no = 1
    while True:
        added = False
        for sym, flat in zip(alg.signature.symbols, flats):
            m = sym.profile.arity
            in_sorts = sym.profile.inputs
            cod = sym.profile.cod
            target = stores[cod]
            if m == 0:
                if round_no == 1:
                    vec = np.full(n_points, flat[0], dtype=np.int64)
                    if target.add(vec, App(Profile(ambient_inputs, cod), sym.name, ())):
                        added = True
                continue
            sizes = [alg.carriers[s] for s in in_sorts]
            lead_sorts, last_sort = in_sorts[:-1], in_sorts[-1]
            last_store = stores[last_sort]
            if last_store.count == 0:
                continue
            lead_ranges = [range(prev[s]) for s in lead_sorts]
            for lead in itertools.product(*lead_ranges):
                all_lead_old = all(i < before_prev[s] for i, s in zip(lead, lead_sorts))
                lo = before_prev[last_sort] if all_lead_old else 0
                hi = prev[last_sort]
                if lo >= hi:
                    continue
                idx = None
                for j, (i, s) in enumerate(zip(lead, lead_sorts)):
                    v = stores[s].matrix[i]
                    idx = v if idx is None else idx * sizes[j] + v
                if idx is None:
                    idx = np.zeros(n_points, dtype=np.int64)
                tail = stores[last_sort].matrix[lo:hi]
                out = flat[idx * sizes[-1] + tail] if n_points else np.zeros((hi - lo, 0), dtype=np.int64)
                lead_terms = tuple(stores[s].terms[i] for i, s in zip(lead, lead_sorts))
                for k in range(hi - lo):
                    row = out[k]
                    key = row.tobytes()
                    if key in target.index:
                        continue
                    term = App(Profile(ambient_inputs, cod), sym.name,
                               lead_terms + (last_store.terms[lo + k],))
                    target.add(row, term)
                    added = True
                    if target.count > budget:
                        raise BudgetError(
                            "fragment for cod sort %d exceeds the table budget %d" % (cod, budget))
        if not added:
            break
        before_prev = dict(prev)
        prev = {s: stores[s].count for s in stores}
        round_no += 1
    return {s: (stores[s].rows().copy(), tuple(stores[s].terms)) for s in stores}


@dataclass
class CloneFragment:
    """Generated table sets keyed by Profile, with aligned witness terms."""

    algebra: SortedAlgebra
    tables: dict[Profile, tuple[OpTable, ...]]
    witnesses: dict[Profile, tuple[Term, ...]]
    complete: frozenset[tuple[int, ...]]

    def at(self, profile: Profile) -> tuple[OpTable, ...]:
        if profile.inputs not in self.complete:
            raise KeyError("input profile %r was not generated" % (profile.inputs,))
        return self.tables.get(profile, ())

    def witness(self, table: OpTable) -> Term:
        found, term = fragment_contains(self, table)
        if not found:
            raise KeyError("table not in fragment")
        return term


@lru_cache(maxsize=256)
def _closure_full(alg: SortedAlgebra, inputs: tuple[int, ...], budget: int):
    """Fragment at one input profile, every cod sort, as tables and terms."""
    n_points = prod(alg.carriers[s] for s in inputs)
    seeds = {s: [] for s in range(alg.n_sorts)}
    cols = grid_columns(alg.carriers[s] for s in inputs)
    for i, s in enumerate(inputs):
        seeds[s].append((cols[i], Var(Profile(inputs, s), i)))
    out = saturate(alg, n_points, seeds, budget, ambient_inputs=inputs)
    result = {}
    for s, (matrix, terms) in out.items():
        tabs = tuple(OpTable(Profile(inputs, s), alg.carriers, tuple(int(v) for v in row))
                     for row in matrix)
        result[s] = (tabs, terms)
    return result


def generate_fragment(alg: SortedAlgebra, profiles, *, budget: int = TABLE_BUDGET,
                      max_arity: int = MAX_ARITY) -> CloneFragment:
    """Generate the fragment at the requested profiles.

    profiles may mix Profile values and bare input tuples; either way the
    closure saturates every cod sort of each input profile, so the result is
    complete for all of them.
    """
    wanted: list[tuple[int, ...]] = []
    for p in profiles:
        inputs = p.inputs if isinstance(p, Profile) else tuple(p)
        check_arity(len(inputs), max_arity, "requested input profile %r" % (inputs,))
        if any(s >= alg.n_sorts for s in inputs):
            raise KeyError("input profile %r names a sort outside the algebra" % (inputs,))
        if inputs not in wanted:
            wanted.append(inputs)
    tables: dict[Profile, tuple[OpTable, ...]] = {}
    witnesses: dict[Profile, tuple[Term, ...]] = {}
    for inputs in wanted:
        for s, (tabs, terms) in _closure_full(alg, inputs, budget).items():
            tables[Profile(inputs, s)] = tabs
            witnesses[Profile(inputs, s)] = terms
    return CloneFragment(alg, tables, witnesses, frozenset(wanted))


def fragment_contains(frag: CloneFragment, table: OpTable):
    """Membership by exact table equality; returns (found, witness term)."""
    if table.profile.inputs not in frag.complete:
        raise KeyError("input profile %r was not generated" % (table.profile.inputs,))
    for t, w in zip(frag.tables.get(table.profile, ()), frag.witnesses.get(table.profile, ())):
        if t == table:
            return True, w
    return False, None


@dataclass(frozen=True)
class PurityReport:
    """Unary cross-sort reachability: witnesses[(s1, s2)] is a term s1 -> s2
    or None when no such term exists."""

    pure: bool
    witnesses: dict

    def missing(self) -> tuple[tuple[int, int], ...]:
        return tuple(k for k, v in sorted(self.witnesses.items()) if v is None)


def is_pure(alg: SortedAlgebra, *, budget: int = TABLE_BUDGET) -> PurityReport:
    """Does every ordered sort pair (s1, s2) admit a unary term s1 -> s2?

    Witnesses are the first term the closure stores for the pair, so they
    are minimal-depth and deterministic.
    """
    witnesses: dict[tuple[int, int], Term | None] = {}
    pure = True
    for s1 in range(alg.n_sorts):
        frag = generate_fragment(alg, [(s1,)], budget=budget)
        for s2 in range(alg.n_sorts):
            terms = frag.witnesses.get(Profile((s1,), s2), ())
            witnesses[(s1, s2)] = terms[0] if terms else None
            if not terms:
                pure = False
    return PurityReport(pure=pure, witnesses=witnesses)
