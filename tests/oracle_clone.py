"""Slow reference saturation for the clone closure kernel.

saturate and _Store here are the kernel msalg.clone used before batched
gathers and batch-wise exact-key deduplication replaced it: one numpy
gather per tuple of lead arguments and one bytes-key dict probe per
candidate row.
test_saturate.py compares the kernel with it on values, insertion order,
witness terms and budget errors.
"""

from __future__ import annotations

import itertools

import numpy as np

from msalg.core import App, BudgetError, OpTable, Profile, TABLE_BUDGET, Term


def fragment_tables(frag, prof) -> tuple[OpTable, ...]:
    """The rows of a fragment's matrix at prof as OpTables, in insertion
    order."""
    return tuple(OpTable(prof, frag.algebra.carriers, tuple(row)) for row in frag.matrices[prof].tolist())


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
