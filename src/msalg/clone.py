"""Clone fragments: term-operation tables of an algebra at fixed input profiles.

Generation fixes one input profile (the tuple of argument sorts) and
saturates the table sets of every cod sort simultaneously: the stores are
seeded with the projections and a new table can only arise by applying one
basic operation to stored tables, which mirrors how terms are built.  The
produced sets are deterministic; witness terms are minimal-depth, with ties
broken by symbol declaration order and then lexicographically by the
insertion order of the argument tables.

The inner loop runs on numpy: a table is a vector over the domain points.  A
round takes each symbol's lead-argument tuples in blocks of _CHUNK gathered
values, in itertools.product order; one gather per block reads each tuple's
slice of the table and one take reads every candidate row.  Rows are told
apart by their bytes: each store keeps a set of its rows' bytes, and a
block's candidate rows, turned into bytes in one call, probe it once each
in batch order, so a row is stored at its first occurrence and never
again.  Only new rows build witness terms.

Two facts read off each table, once per algebra, cut idle work.  A symbol
whose profile and table repeat an earlier symbol's is skipped: it reads the
same snapshot of the stores, so its rows are all stored by the time it
runs.  And each argument position has classes: class(a) is the least
value whose slice of the table along that axis equals a's, so stored
tables with the same pointwise class image give the same candidate rows
there.  A round reads, at each position, only the first stored table of
each class image (an ignored argument has one class, so it reads stored
index 0 only; a unary symbol that is not constant reads every table, since
its classes tell its rows apart no sooner than admission does); each
round extends those first tables from the tables stored since the
previous round, by the same set probe on their class images.  A skipped
tuple's row is that of the tuple with each argument replaced by its
class's first table.  Being first depends only on the tables stored
before, so that tuple comes earlier in itertools.product order in the same
round or was read in an earlier one; insertion order, witness terms and
budget errors are therefore unchanged.  A projection yields only stored
rows and a constant table one row.

A fragment stays in the kernel's format: per profile one read-only matrix
of the narrowest unsigned dtype, a row per table in insertion order, with
the witness terms aligned.  Its consumers compare, gather and encode whole
matrices, and fragment_contains compares rows.  OpTables are built from
rows only at the API edges: the Mal'cev and Jonsson witnesses, the pairs
find_diagonal_pairs returns and the maps cross_family_from_purity picks.

The same engine closes generator vectors over an arbitrary point set (a
subalgebra of a direct power), which other modules use to compute
restrictions of high-arity fragments without materializing them.
"""

from __future__ import annotations

from bisect import bisect_right
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
    decode_digits,
    encode_digits,
    grid_columns,
)


# Gathered values per block.  On criteria 3 and 4 of the battery, 2^16 left
# peak RSS where the per-lead-tuple kernel had it; 2^18 ran them 15% faster
# for +0.7 MB, 2^20 30% faster for +4.3 MB.
_CHUNK = 1 << 16


def _keys(rows: np.ndarray) -> np.ndarray:
    """Each row as one opaque np.void value of its bytes (V0 for zero-width
    rows, which .view cannot make)."""
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype="V0")
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def _classes(table: np.ndarray, axis: int) -> np.ndarray | None:
    """class(a) for every value a along one axis of a table: the least value
    whose slice along that axis equals a's; None when every value is its own
    class."""
    n = table.shape[axis]
    slices = np.moveaxis(table, axis, 0).reshape(n, table.size // n if n else 0)
    _, first, inverse = np.unique(_keys(slices), return_index=True, return_inverse=True)
    return None if len(first) == n else first[inverse].astype(table.dtype)


def _novel(rows: np.ndarray, seen: set) -> list[int]:
    """Indexes of the rows whose bytes are not in seen, each at its first
    occurrence in order; their bytes join seen."""
    width = rows.shape[1] * rows.itemsize
    data = np.ascontiguousarray(rows).tobytes()
    keys = [data[at:at + width] for at in range(0, len(data), width)] if width else [b""] * len(rows)
    # set.add returns None, so a key passes the filter once, when first met.
    return [i for i, key in enumerate(keys) if key not in seen and not seen.add(key)]


@lru_cache(maxsize=256)
def _symbols(alg: SortedAlgebra) -> tuple:
    """(symbol, flat table, classes per argument position) for each symbol
    whose profile and table do not repeat an earlier symbol's; tables hold
    the stores' dtype.  Cached by value, like _closure_full."""
    dtype = np.min_scalar_type(max(alg.carriers, default=0))
    seen, symbols = set(), []
    for sym, t in zip(alg.signature.symbols, alg.tables):
        flat = np.asarray(t.outputs, dtype=dtype)
        key = (sym.profile, flat.tobytes())
        if key in seen:
            continue
        seen.add(key)
        table = flat.reshape([alg.carriers[s] for s in sym.profile.inputs])
        classes = [_classes(table, i) for i in range(table.ndim)]
        if table.ndim == 1 and (flat != flat[:1]).any():
            # A unary symbol's classes would cost what admitting its rows
            # does, so only a constant one is pruned.
            classes = [None]
        for a in (flat, *classes):
            if a is not None:
                a.flags.writeable = False
        symbols.append((sym, flat, tuple(classes)))
    return tuple(symbols)


class _Firsts:
    """The stored tables of one sort that one argument position reads: the
    first of each pointwise class image, extended as the store grows."""

    def __init__(self, classes: np.ndarray):
        self.classes = classes
        self.seen: set = set()
        self.reps = np.zeros(0, dtype=np.intp)
        self.upto = 0

    def extend(self, store: _Store, upto: int) -> np.ndarray:
        """The reps among the first upto stored tables."""
        if upto > self.upto:
            new = _novel(self.classes.take(store.matrix[self.upto:upto]), self.seen)
            if new:
                self.reps = np.concatenate([self.reps, np.add(new, self.upto, dtype=np.intp)])
            self.upto = upto
        return self.reps


class _Store:
    """Growable matrix of table vectors for one cod sort, with the terms and
    the set of the stored rows' bytes."""

    def __init__(self, n_points: int, dtype):
        self.matrix = np.zeros((16, n_points), dtype=dtype)
        self.count = 0
        self.terms: list[Term] = []
        self.seen: set[bytes] = set()

    def rows(self, upto: int | None = None) -> np.ndarray:
        return self.matrix[: self.count if upto is None else upto]

    def admit(self, rows: np.ndarray, term_of) -> int:
        """Append the rows of a candidate batch that are not stored yet, each
        at its first occurrence in batch order with the term term_of(r) of
        batch row r; return how many were appended.  Each batch row's bytes
        are probed once in the set of stored rows' bytes."""
        rows = np.asarray(rows, dtype=self.matrix.dtype)
        added = _novel(rows, self.seen)
        if not added:
            return 0
        terms = [term_of(r) for r in added]
        end = self.count + len(added)
        if end > len(self.matrix):
            pad = max(len(self.matrix), len(added))
            self.matrix = np.concatenate([self.rows(), np.zeros((pad, self.matrix.shape[1]), self.matrix.dtype)])
        self.matrix[self.count:end] = rows[added]
        self.terms.extend(terms)
        self.count = end
        return len(added)


def saturate(alg: SortedAlgebra, n_points: int, seeds, budget: int = TABLE_BUDGET, *,
             ambient_inputs: tuple[int, ...]):
    """Close seed vectors under the basic operations, applied pointwise.

    seeds: {sort index: [(vector, term), ...]}.  Returns {sort: (matrix of
    vectors in insertion order, terms)}; the matrix holds the narrowest
    unsigned dtype for the carriers.  Vectors are value sequences over
    n_points shared evaluation points; for a full input product this is the
    row-major table, for anything else a restriction of one.  ambient_inputs
    is the input profile every witness term is built over; seed terms must
    already carry it.

    Symbols that repeat an earlier symbol's profile and table are skipped
    (see _symbols), and at each argument position only the stored tables
    whose pointwise class image (see _classes) is new are enumerated: a
    pruned table gives the rows of its class's first table, which an
    earlier tuple in itertools.product order, in this round or an earlier
    one, has already read.  Each round extends a position's first tables
    from the tables stored since the previous round (see _Firsts).  The
    all-old test reads the real store index, so an argument sort that was
    empty in the previous round counts as new; the first occurrence of
    every row, and so every witness, stays where the full enumeration puts
    it.
    """
    dtype = np.min_scalar_type(max(alg.carriers, default=0))
    stores = {s: _Store(n_points, dtype) for s in range(alg.n_sorts)}
    for s, pairs in seeds.items():
        if pairs:
            vecs, terms = zip(*pairs)
            stores[s].admit(np.asarray(vecs, dtype=dtype).reshape(len(vecs), n_points),
                            terms.__getitem__)
    symbols = [(sym, flat, [None if c is None else _Firsts(c) for c in classes])
               for sym, flat, classes in _symbols(alg)]
    profiles = [Profile(ambient_inputs, s) for s in range(alg.n_sorts)]

    before_prev = {s: 0 for s in stores}
    prev = {s: stores[s].count for s in stores}
    round_no = 1
    while True:
        added = False
        for sym, flat, firsts in symbols:
            in_sorts, cod = sym.profile.inputs, sym.profile.cod
            target = stores[cod]
            prof = profiles[cod]
            if not in_sorts:
                if round_no == 1:
                    vec = np.full((1, n_points), flat[0], dtype=dtype)
                    if target.admit(vec, lambda r: App(prof, sym.name, ())):
                        added = True
                continue
            # The stored tables each position reads: the first of each class
            # image, or all of them where the classes are the identity.
            reps = [np.arange(prev[s]) if f is None else f.extend(stores[s], prev[s])
                    for s, f in zip(in_sorts, firsts)]
            lead_sorts, last_sort = in_sorts[:-1], in_sorts[-1]
            lead_reps, last_reps = reps[:-1], reps[-1]
            sizes = [alg.carriers[s] for s in in_sorts]
            hi = len(last_reps)
            if hi == 0:
                continue
            # One row of the table per code of the lead arguments; a lead
            # tuple's slices (point, last value) are read at these columns.
            by_lead = flat.reshape(prod(sizes[:-1]), sizes[-1])
            columns = np.arange(n_points) * sizes[-1] + stores[last_sort].matrix.take(last_reps, axis=0)
            old_last = int(np.searchsorted(last_reps, before_prev[last_sort]))
            radices = [len(r) for r in lead_reps]
            n_leads = prod(radices)
            step = max(1, _CHUNK // (max(hi, sizes[-1]) * max(n_points, 1)))
            for start in range(0, n_leads, step):
                # A block of lead tuples in itertools.product order and its
                # candidate rows: every read last argument after a tuple
                # with a new table, only the new ones after an all-old tuple;
                # each run of alike tuples is read with one take.
                n_block = min(step, n_leads - start)
                digits = decode_digits(np.arange(start, start + n_block), radices)
                picks = [r.take(d) for r, d in zip(lead_reps, digits)]
                all_old = np.ones(n_block, dtype=bool)
                for p, s in zip(picks, lead_sorts):
                    all_old &= p < before_prev[s]
                lo = np.where(all_old, old_last, 0)
                counts = hi - lo
                if not counts.any():
                    continue
                if lead_sorts:
                    lead = encode_digits([stores[s].matrix.take(p, axis=0)
                                          for p, s in zip(picks, lead_sorts)], sizes[:-1])
                else:
                    lead = np.zeros((1, n_points), dtype=np.int64)
                slices = by_lead.take(lead, axis=0).reshape(n_block, n_points * sizes[-1])
                cuts = [0, *(np.flatnonzero(np.diff(all_old)) + 1).tolist(), n_block]
                rows = np.concatenate([slices[a:b].take(columns[lo[a]:], axis=1)
                                       .reshape((b - a) * (hi - lo[a]), n_points)
                                       for a, b in zip(cuts, cuts[1:])])
                ends = np.cumsum(counts)
                # Batch row r of lead tuple t reads last_reps[shift[t] + r].
                shift = (lo + counts - ends).tolist()
                ends = ends.tolist()

                def term_of(r):
                    t = bisect_right(ends, r)
                    args = [stores[s].terms[p[t]] for p, s in zip(picks, lead_sorts)]
                    last = last_reps[shift[t] + r]
                    return App(prof, sym.name, tuple(args) + (stores[last_sort].terms[last],))

                if target.admit(rows, term_of):
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


@dataclass(eq=False)
class CloneFragment:
    """Generated tables keyed by Profile.  matrices[p] holds one table per
    row, in insertion order, and witnesses[p] the aligned terms; the
    matrices are the closure cache's own, so they are read-only."""

    algebra: SortedAlgebra
    matrices: dict[Profile, np.ndarray]
    witnesses: dict[Profile, tuple[Term, ...]]
    complete: frozenset[tuple[int, ...]]


@lru_cache(maxsize=256)
def _closure_full(alg: SortedAlgebra, inputs: tuple[int, ...], budget: int):
    """Fragment at one input profile, every cod sort, as saturate's
    read-only matrices and terms."""
    n_points = prod(alg.carriers[s] for s in inputs)
    seeds = {s: [] for s in range(alg.n_sorts)}
    cols = grid_columns(alg.carriers[s] for s in inputs)
    for i, s in enumerate(inputs):
        seeds[s].append((cols[i], Var(Profile(inputs, s), i)))
    out = saturate(alg, n_points, seeds, budget, ambient_inputs=inputs)
    for matrix, _terms in out.values():
        matrix.flags.writeable = False
    return out


def check_inputs(inputs: tuple[int, ...], max_arity: int = MAX_ARITY) -> None:
    """Reject a requested input profile above the arity bound."""
    check_arity(len(inputs), max_arity, "requested input profile %r" % (inputs,))


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
        check_inputs(inputs, max_arity)
        if any(s >= alg.n_sorts for s in inputs):
            raise KeyError("input profile %r names a sort outside the algebra" % (inputs,))
        if inputs not in wanted:
            wanted.append(inputs)
    closures = {inputs: _closure_full(alg, inputs, budget) for inputs in wanted}
    matrices = {Profile(i, s): m for i, out in closures.items() for s, (m, _terms) in out.items()}
    witnesses = {Profile(i, s): terms for i, out in closures.items() for s, (_m, terms) in out.items()}
    return CloneFragment(alg, matrices, witnesses, frozenset(wanted))


def fragment_contains(frag: CloneFragment, table: OpTable):
    """Membership by exact table equality; returns (found, witness term)."""
    if table.profile.inputs not in frag.complete:
        raise KeyError("input profile %r was not generated" % (table.profile.inputs,))
    if table.carriers != frag.algebra.carriers:
        return False, None
    hits = np.flatnonzero((frag.matrices[table.profile] == table.outputs).all(axis=1))
    return (True, frag.witnesses[table.profile][hits[0]]) if len(hits) else (False, None)


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
