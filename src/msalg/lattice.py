"""Subuniverses, congruences, quotients, products, and the transfer of all
of these across the product-carrier construction, plus invariant relations
on powers of the product carrier.

A closed family is one subset per sort, stable under every operation.  A
congruence is one partition per sort, compatible with every operation; its
partitions are stored as label strings in first-appearance order, so two
equal partitions are equal tuples.  Relations live on the single product
carrier: a member of a relation of arity mu is a mu-tuple of product codes.

Sub, Con and Inv come from one engine: _closed_sets walks the joins of
principal closed sets level by level, a closed set being a row of a bool
mask array, and closes each level's joins from the already closed sets as
batches of rows, no temporary much over _BATCH_BYTES.  Sub and Inv are
closed subsets of a power of an algebra, operations acting coordinatewise,
closed by one kernel (_Power: bit-packed reach tensors, or past
_REACH_CELLS a semi-naive digit gather).  Con's closed sets are masks over
the pairs a < b of each sort, joined by Mal'cev's lemma (_Con.join): a
batch of congruences, as least-member labels, takes the added pairs and
then, round by round, the images of its new merges under the basic
translations, merged by one union-find over all rows at once.
inv_enumerate and enumerate_congruences keep each walk's result in a
value-keyed cache (_inv_relations, _congruences), so a session that asks
for the same Inv or Con lattice again reads it instead of walking it.
Invariant relations take two independent routes: inv_enumerate closes the
mu-th power of the homogenized algebra under its basic operations, and
verify_inv_iso's matrix route takes the boxes of the closed sets of the
many-sorted power A^mu, the walk Sub runs at mu = 1, then checks that
regrouping matrix rows into product codes is a bijection between the two
answers.  pp-commutation reads its formula sample off one table of
(relation, position map) rows per span: each unordered pair of rows is
ANDed once, its bound positions ORed away one at a time, and its rows of
free arity up to mu_max looked up at once among the sorted, packed
invariant relations.  The membership checks (closure, compatibility,
invariance) gather each operation over an open grid at once and report
core.first_failure's witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .clone import is_pure
from .core import (
    SUBUNIVERSE_BUDGET,
    BudgetError,
    CheckResult,
    OpTable,
    ProfileError,
    SortedAlgebra,
    Verification,
    decode_digits,
    encode_digits,
    encode_mixed,
    first_failure,
    gather,
    is_isomorphism,
    novel_rows,
    open_grid,
    row_keys,
    tabulate,
)
from .homog import HomogenizedAlgebra, homogenize, morphism_lift


# ---------------------------------------------------------- closed-set engine

# Bytes one temporary of the walk or of a closure round aims to hold: the
# below-test of a block of closed sets against every principal, a batch of
# pair rows handed to join, the reach words gathered for a batch of masks,
# the labels of a span of Con joins, the images of a span of their pushes.
# A larger step is split along its rows, which keeps peak memory flat.
_BATCH_BYTES = 1 << 18


def _spans(rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices of rows rows, each of about _BATCH_BYTES."""
    step = max(1, _BATCH_BYTES // max(row_bytes, 1))
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _pack(rows: np.ndarray) -> np.ndarray:
    """Bool rows along the last axis as uint64 words, bit j of word w the
    entry 64w + j; the last word is padded with zeros."""
    octets = np.packbits(rows, axis=-1, bitorder="little")
    words = np.zeros(octets.shape[:-1] + (-(-octets.shape[-1] // 8),), dtype=np.uint64)
    words.view(np.uint8)[..., :octets.shape[-1]] = octets
    return words


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """The first n bits of each row of words, as bools."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little").view(bool)


def _closed_sets(bottom: np.ndarray, join, budget: int) -> np.ndarray:
    """Every closed set, as the rows of a bool array over the points, of a
    lattice in which each closed set is a join of principal ones.

    join(closed, extra) closes a batch: row i of its result is the least
    closed set containing the closed row i of closed and the points of row
    i of extra.  The principals are the joins of the bottom with one point
    each, and the distinct ones other than the bottom are the first level;
    every closed set of a level is then joined with every principal not
    below it (so extra's rows are closed principals): a level's joins in
    batches of about _BATCH_BYTES of pair rows, those not seen before
    (keyed by their packed bytes) the next level.  Closures computed (the
    bottom, each principal and each join) count against budget; each level
    is counted before it is computed, so a walk raises, having computed no
    closure past budget, exactly when its total passes budget."""
    spent, size = 0, len(bottom)

    def count(closures):
        nonlocal spent
        if closures and spent + closures > budget:
            raise BudgetError("more than %d closures computed" % budget)
        spent += closures

    def novel(rows):
        """The rows not in seen, in order, each added to it."""
        return rows[novel_rows(_pack(rows), seen)]

    count(1 + size)
    principals, seen = [np.zeros((0, size), dtype=bool)], {_pack(bottom).tobytes()}
    for part in _spans(size, 2 * size):
        extra = np.arange(size)[part, None] == np.arange(size)
        principals.append(novel(join(np.broadcast_to(bottom, extra.shape), extra)))
    principals = level = np.concatenate(principals)
    words = _pack(principals)
    found = [bottom[None], level]
    while len(level):
        blocks = _spans(len(level), words.nbytes)

        def outside(block):
            return (words & ~_pack(level[block])[:, None]).any(axis=2)

        count(sum(np.count_nonzero(outside(b)) for b in blocks))
        rows = [np.zeros((0, size), dtype=bool)]
        for b in blocks:
            i, j = np.nonzero(outside(b))
            for part in _spans(len(i), 2 * size):
                rows.append(novel(join(level[b][i[part]], principals[j[part]])))
        level = np.concatenate(rows)
        found.append(level)
    return np.concatenate(found)


# Gathered values one closure step, or one block of a reach tensor's build,
# aims to hold at once: a larger step is split along its fresh argument
# position and a build into blocks of argument rows, which keeps peak
# memory flat.
_CHUNK = 1 << 14
# A closure step of the digit path wanting more argument rows than this
# raises BudgetError instead of running for hours.
_STEP_ROWS = 20_000_000
# A power holds reach words only when its reach tensors have fewer than this
# many cells in all; a larger power closes by the digit path.
_REACH_CELLS = 1 << 21


class _Power:
    """The mu-th power of a sorted algebra, operations acting coordinatewise.

    A point of sort s is a code of mu base-n_s digits, first coordinate most
    significant; the points of all sorts share one id space, sort by sort.
    Tables of one profile are stacked.  close takes a batch of masks, bool
    rows over the point ids.  When the power's reach tensors (_reach) have
    fewer than _REACH_CELLS cells in all, they are built once, those of one
    tuple of input sorts concatenated along the word axis.  A closure round
    takes, per tuple and input sort, one gather of the member rows of every
    mask and one bitwise_or.reduceat (_close_words), no gather much over
    _BATCH_BYTES.  The cap bounds the tensors' memory, which grows as
    (n^mu)^(k+1): larger powers close each mask by one gather of stacked
    digit codes per profile and argument position instead (_close_digits).
    Both paths reach the same least fixpoint."""

    def __init__(self, carriers, tables, mu: int):
        self.carriers, self.mu = tuple(carriers), mu
        self.offsets = [0] + list(itertools.accumulate(n ** mu for n in self.carriers))
        self.sorts = [slice(lo, hi) for lo, hi in zip(self.offsets, self.offsets[1:])]
        self.size = self.offsets[-1]
        self.digits = np.zeros((mu, self.size), dtype=np.int64)
        for n, lo, hi in zip(self.carriers, self.offsets, self.offsets[1:]):
            self.digits[:, lo:hi] = decode_digits(np.arange(hi - lo), (n,) * mu)
        stacks, self.constants = {}, []
        for t in tables:
            if t.arity:
                stacks.setdefault(t.profile, []).append(t.outputs)
            else:
                n = self.carriers[t.profile.cod]
                self.constants.append(self.offsets[t.profile.cod] + encode_mixed(t.outputs * mu, (n,) * mu))
        self.stacks = [(p, np.asarray(outs, dtype=np.int64)) for p, outs in stacks.items()]
        cells = sum(math.prod(self.points(s) for s in p.inputs + (p.cod,)) for p, _ in self.stacks)
        self.reach = None
        if cells < _REACH_CELLS:
            groups = {}
            for p, stack in self.stacks:
                groups.setdefault(p.inputs, []).append((p.cod, self._reach(p, stack)))
            self.reach = []
            for inputs, group in groups.items():
                ends = itertools.accumulate(words.shape[-1] for _, words in group)
                cods = [(cod, slice(end - words.shape[-1], end)) for (cod, words), end in zip(group, ends)]
                self.reach.append((inputs, cods, np.concatenate([words for _, words in group], axis=-1)))

    def points(self, s: int) -> int:
        return self.offsets[s + 1] - self.offsets[s]

    def _reach(self, profile, stack) -> np.ndarray:
        """The profile's reach tensor, shape (points of input 1, ..., of
        input k, words of the cod sort): bit z is set at (x_1..x_k) when
        some stacked table sends the power points x_1..x_k to z.  _images
        over every point of each input sort gives runs of rows, each set
        from all tables at once as bool blocks of about _BATCH_BYTES."""
        shape, points = [self.points(s) for s in profile.inputs], self.points(profile.cod)
        pool = [np.arange(self.offsets[s], self.offsets[s + 1]) for s in profile.inputs]
        words = [np.zeros((0, -(-points // 64)), dtype=np.uint64)]
        for ids in self._images(profile, stack, pool, 0):
            ids = ids.reshape(len(stack), -1) - self.offsets[profile.cod]
            for part in _spans(ids.shape[1], points):
                block = np.zeros((len(ids[0, part]), points), dtype=bool)
                block[np.arange(len(block)), ids[:, part]] = True
                words.append(_pack(block))
        return np.concatenate(words).reshape(shape + [words[0].shape[1]])

    def close(self, closed: np.ndarray, extra: np.ndarray) -> np.ndarray:
        """The closures of a batch: row i is the least closed set containing
        the closed row i of closed and the points of row i of extra."""
        if self.reach is None:
            return self._close_digits(closed, extra)
        return self._close_words(closed | extra)

    def _close_words(self, member):
        """Rounds until no mask grows, a mask that stopped growing leaving
        the batch.  A round ORs into each mask the points every reach
        tensor gives on its members (_reached)."""
        active = np.arange(len(member))
        while active.size:
            rows = member[active]
            grown = rows.copy()
            for inputs, cods, words in self.reach:
                for hit, reached in self._reached(rows, inputs, words):
                    for cod, part in cods:
                        grown[hit, self.sorts[cod]] |= _unpack(reached[:, part], self.points(cod))
            member[active] = grown
            active = active[np.count_nonzero(grown, axis=1) > np.count_nonzero(rows, axis=1)]
        return member

    def _reached(self, rows, inputs, words):
        """(masks, words) pairs: the points the tables behind a reach
        tensor send each mask's members to, for the masks with members in
        every input sort.  One input sort at a time, the member rows of that
        axis are gathered and ORed per mask with reduceat.  Masks go in
        batches whose first gather holds about _BATCH_BYTES."""
        batches = [np.arange(len(rows))]
        if words.nbytes * len(rows) > _BATCH_BYTES:
            members = np.count_nonzero(rows[:, self.sorts[inputs[0]]], axis=1).cumsum()
            batch = members * (words.nbytes // len(words)) // _BATCH_BYTES
            batches = np.split(batches[0], np.flatnonzero(np.diff(batch)) + 1)
        for hit in batches:
            acc = words
            for axis, s in enumerate(inputs):
                mask, x = np.nonzero(rows[hit, self.sorts[s]])
                if not mask.size:
                    break
                first = np.ones(len(mask), dtype=bool)
                np.not_equal(mask[1:], mask[:-1], out=first[1:])
                starts = np.flatnonzero(first)
                acc = np.bitwise_or.reduceat(acc[x] if axis == 0 else acc[mask, x], starts, axis=0)
                hit = hit[mask[starts]]
            else:
                yield hit, acc

    def _close_digits(self, closed, extra):
        """Each mask by semi-naive evaluation: only the argument rows that
        use a fresh id are evaluated, the fresh ids of a mask starting as
        extra & ~closed, and each round's new points are the next round's
        fresh ones."""
        member = closed | extra
        for row, fresh in zip(member, extra & ~closed):
            fresh = np.flatnonzero(fresh)
            while fresh.size:
                is_fresh = np.zeros(self.size, dtype=bool)
                is_fresh[fresh] = True
                every = [lo + np.flatnonzero(row[s]) for lo, s in zip(self.offsets, self.sorts)]
                new = [ids[is_fresh[ids]] for ids in every]
                old = [ids[~is_fresh[ids]] for ids in every]
                reached = np.zeros(self.size, dtype=bool)
                for profile, stack in self.stacks:
                    ins = profile.inputs
                    for i in range(len(ins)):
                        pool = [old[s] for s in ins[:i]] + [new[ins[i]]] + [every[s] for s in ins[i + 1:]]
                        for ids in self._images(profile, stack, pool, i):
                            reached[ids] = True
                fresh = np.flatnonzero(reached & ~row)
                row[fresh] = True
        return member

    def _images(self, profile, stack, pool, i):
        """Ids the stacked tables give at every argument row drawn from pool,
        in steps along position i."""
        rows = math.prod(len(ids) for ids in pool)
        if rows > _STEP_ROWS:
            raise BudgetError("closure step wants %d argument rows" % rows)
        step = max(1, _CHUNK * len(pool[i]) // max(rows * len(stack) * self.mu, 1))
        k, sizes = len(pool), [self.carriers[s] for s in profile.inputs]
        for lo in range(0, len(pool[i]) if rows else 0, step):
            part = pool[:i] + [pool[i][lo:lo + step]] + pool[i + 1:]
            cols = [self.digits[:, ids].reshape((self.mu,) + (1,) * j + (len(ids),) + (1,) * (k - 1 - j))
                    for j, ids in enumerate(part)]
            values = stack[:, encode_digits(cols, sizes)]
            yield self.offsets[profile.cod] + encode_digits(
                list(values.swapaxes(0, 1)), (self.carriers[profile.cod],) * self.mu)

    def generate(self, points) -> np.ndarray:
        """The closure of some point ids and the constants, one mask."""
        extra = np.zeros((1, self.size), dtype=bool)
        extra[0, list(points) + self.constants] = True
        return self.close(np.zeros_like(extra), extra)[0]

    def lattice(self, budget: int) -> np.ndarray:
        """Every closed set containing the constants, as mask rows."""
        return _closed_sets(self.generate(()), self.close, budget)

    def subuniverse(self, row: np.ndarray) -> SubUniverse:
        """A mask, as one sorted subset of point codes per sort."""
        ids = np.flatnonzero(row).tolist()
        return SubUniverse(tuple(tuple(x - lo for x in ids if lo <= x < hi)
                                 for lo, hi in zip(self.offsets, self.offsets[1:])))


# ----------------------------------------------------------- closed families

@dataclass(frozen=True, order=True)
class SubUniverse:
    """One sorted subset per sort, each strictly increasing."""

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for xs in self.sets:
            if not all(a < b for a, b in zip(xs, xs[1:])):
                raise ProfileError("subset %r is not strictly increasing" % (xs,))

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(xs) for xs in self.sets)


def is_closed_family(alg: SortedAlgebra, sets) -> tuple[bool, tuple | None]:
    """Whether each operation keeps the family inside itself.

    Returns (True, None) or (False, (symbol name, argument tuple)) with the
    first escaping application, row-major over the sorted members.
    """
    if len(sets) != alg.n_sorts:
        raise ProfileError("family has %d sets for %d sorts" % (len(sets), alg.n_sorts))
    members = [sorted(set(xs)) for xs in sets]
    for s, n in enumerate(alg.carriers):
        if any(not 0 <= x < n for x in members[s]):
            raise ProfileError("family member outside carrier %d of size %d" % (s, n))
    columns = [np.asarray(xs, dtype=np.int64) for xs in members]
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        grid = open_grid(len(members[s]) for s in ins)
        bad = first_failure(~np.isin(gather(tab, [columns[s][c] for s, c in zip(ins, grid)]), columns[cod]))
        if bad is not None:
            return False, (sym.name, tuple(members[s][i] for s, i in zip(ins, bad)))
    return True, None


def make_subuniverse(alg: SortedAlgebra, sets) -> SubUniverse:
    """Build a SubUniverse after checking closure against alg."""
    ok, wit = is_closed_family(alg, tuple(tuple(xs) for xs in sets))
    if not ok:
        raise ProfileError("family is not closed, %s escapes at %r" % wit)
    return SubUniverse(tuple(tuple(xs) for xs in sets))


def subalgebra_generate(alg: SortedAlgebra, gens) -> SubUniverse:
    """Least closed family containing the generators.

    gens is one iterable of elements per sort.  Nullary symbols contribute
    their values even when every generator set is empty.
    """
    if len(gens) != alg.n_sorts:
        raise ProfileError("need %d generator sets, got %d" % (alg.n_sorts, len(gens)))
    members = [set(g) for g in gens]
    for s, n in enumerate(alg.carriers):
        if any(not 0 <= x < n for x in members[s]):
            raise ProfileError("generator outside carrier %d of size %d" % (s, n))
    power = _Power(alg.carriers, alg.tables, 1)
    return power.subuniverse(power.generate(power.offsets[s] + x for s, xs in enumerate(members) for x in xs))


def enumerate_subuniverses(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> list[SubUniverse]:
    """Every closed family, in lexicographic order of their subset tuples.

    budget bounds the closures computed, see _closed_sets."""
    power = _Power(alg.carriers, alg.tables, 1)
    return sorted(power.subuniverse(row) for row in power.lattice(budget))


# -------------------------------------------------------------- congruences

@dataclass(frozen=True, order=True)
class Congruence:
    """One partition per sort, as block labels in first-appearance order."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for labels in self.classes:
            top = -1
            for v in labels:
                if not 0 <= v <= top + 1:
                    raise ProfileError("labels %r are not in first-appearance order" % (labels,))
                top = max(top, v)

    def related(self, s: int, a: int, b: int) -> bool:
        return self.classes[s][a] == self.classes[s][b]

    def block_count(self, s: int) -> int:
        return max(self.classes[s], default=-1) + 1

    def blocks(self, s: int) -> list[tuple[int, ...]]:
        out = [[] for _ in range(self.block_count(s))]
        for x, l in enumerate(self.classes[s]):
            out[l].append(x)
        return [tuple(b) for b in out]


def _relabel(raw) -> tuple[int, ...]:
    """Rename arbitrary block keys into first-appearance labels."""
    seen = {}
    return tuple(seen.setdefault(k, len(seen)) for k in raw)


def is_congruence(alg: SortedAlgebra, classes) -> tuple[bool, tuple | None]:
    """Compatibility of a label family, checked one position at a time.

    Changing a single argument inside its block must not move the output
    out of its block; by chaining positions this covers simultaneous
    changes.  Returns (False, (symbol, position, (a, b), other args)) on
    the first violation by symbol, position, other args, then pair a < b.
    """
    if len(classes) != alg.n_sorts or any(len(c) != n for c, n in zip(classes, alg.carriers)):
        raise ProfileError("partition shape does not match carriers %r" % (alg.carriers,))
    labels = [np.asarray(c, dtype=np.int64) for c in classes]
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        outputs = labels[cod][np.asarray(tab.outputs, dtype=np.int64)].reshape(tab.domain_sizes)
        for pos, s in enumerate(ins):
            a, b = np.nonzero(np.triu(labels[s][:, None] == labels[s][None, :], 1))
            moved = [np.moveaxis(np.take(outputs, x, axis=pos), pos, -1) for x in (a, b)]
            bad = first_failure(moved[0] != moved[1])
            if bad is not None:
                return False, (sym.name, pos, (int(a[bad[-1]]), int(b[bad[-1]])), bad[:-1])
    return True, None


def make_congruence(alg: SortedAlgebra, classes) -> Congruence:
    ok, wit = is_congruence(alg, tuple(tuple(c) for c in classes))
    if not ok:
        raise ProfileError("partition not compatible: %s at position %d on %r with %r" % wit)
    return Congruence(tuple(tuple(c) for c in classes))


def _union(labels: np.ndarray, r, u, v) -> np.ndarray:
    """Partitions of the element ids, one per row of labels, each id
    labelled by the least id of its block, with the blocks of u[i] and v[i]
    merged in row r[i] (r may be one row for all): a union-find over all
    rows at once.  A round hooks the larger root of every pair still apart
    below the smaller one, then compresses paths by pointer jumping, so
    every label stays the least member of its block."""
    base = labels.shape[1] * np.arange(len(labels))
    root, x, y = (labels + base[:, None]).ravel(), base[r] + u, base[r] + v
    while (apart := root[x] != root[y]).any():
        x, y = x[apart], y[apart]
        np.minimum.at(root, np.maximum(root[x], root[y]), np.minimum(root[x], root[y]))
        while (root[root] != root).any():
            root = root[root]
    return root.reshape(labels.shape) - base[:, None]


class _Con:
    """Congruences of one algebra as labels, each element labelled by the
    least member of its block, the elements of all sorts numbered in one
    range, sort by sort.  steps lists the basic translations x -> f(c_1,
    .., x, .., c_k), one (sort of x, outputs as ids with x's axis first,
    product of the other domain sizes) per argument of each table."""

    def __init__(self, carriers, tables=()):
        self.offsets = [0, *itertools.accumulate(carriers)]
        self.n = self.offsets[-1]
        self.sort = np.repeat(np.arange(len(carriers)), carriers)
        self.steps = []
        for tab in tables:
            outputs = self.offsets[tab.profile.cod] + np.array(tab.outputs, dtype=np.int64).reshape(tab.domain_sizes)
            for pos, s in enumerate(tab.profile.inputs):
                others = math.prod(tab.domain_sizes[:pos] + tab.domain_sizes[pos + 1:])
                self.steps.append((s, np.moveaxis(outputs, pos, 0), others))

    def join(self, labels: np.ndarray, r, u, v) -> np.ndarray:
        """Cg(theta | X) for each row's congruence theta, given as labels,
        and the pairs X of (u, v) in row r, as labels.

        The pairs are merged, then in rounds every block root the last
        round hooked is pushed, paired with its new root, through every
        basic translation, and the images merged, until a round hooks
        nothing.  theta and the pushed pairs generate each round's
        partition, so by Mal'cev's lemma the last partition, holding the
        images of its generators, is Cg(theta | X); theta's own pairs are
        never pushed, theta being a congruence.  A push gathers about
        _BATCH_BYTES of images at a time."""
        ids = np.arange(self.n)
        old, labels = labels, _union(labels, r, u, v)
        while (hooked := (old == ids) & (labels != ids)).any():
            (r, x), old = np.nonzero(hooked), labels
            for s, outputs, others in self.steps:
                mine = np.flatnonzero(self.sort[x] == s)
                for i in (mine[part] for part in _spans(len(mine), 16 * others)):
                    ends = [outputs[e - self.offsets[s]].ravel() for e in (old[r[i], x[i]], x[i])]
                    labels = _union(labels, np.repeat(r[i], others), *ends)
        return labels

    def least(self, cong: Congruence) -> np.ndarray:
        """A congruence as labels: each element keyed by its sort and its
        block label, and labelled by the least id with its key."""
        labels = np.fromiter(itertools.chain.from_iterable(cong.classes), dtype=np.int64, count=self.n)
        key = self.n * self.sort + labels
        least = np.full(self.n * len(self.offsets), self.n)
        np.minimum.at(least, key, np.arange(self.n))
        return least[key]

    def congruences(self, labels: np.ndarray) -> list[Congruence]:
        """Each row of labels as a Congruence."""
        return [Congruence(tuple(_relabel(row[lo:hi]) for lo, hi in zip(self.offsets, self.offsets[1:])))
                for row in labels.tolist()]


def congruence_generate(alg: SortedAlgebra, pairs) -> Congruence:
    """Least congruence relating the given pairs, one pair set per sort.

    By Mal'cev's lemma Cg(X) is the equivalence closure of the images of X
    under unary polynomials, the composites of basic translations: the
    join of the bottom with X (see _Con.join), on one row."""
    if len(pairs) != alg.n_sorts:
        raise ProfileError("need %d pair sets, got %d" % (alg.n_sorts, len(pairs)))
    for s, ps in enumerate(pairs):
        for a, b in ps:
            if not (0 <= a < alg.carriers[s] and 0 <= b < alg.carriers[s]):
                raise ProfileError("pair (%d, %d) outside carrier %d" % (a, b, s))
    con = _Con(alg.carriers, alg.tables)
    ends = np.array([(con.offsets[s] + x, con.offsets[s] + y) for s, ps in enumerate(pairs) for x, y in ps],
                    dtype=np.int64).reshape(-1, 2)
    return con.congruences(con.join(np.arange(con.n)[None], 0, *ends.T))[0]


def enumerate_congruences(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> list[Congruence]:
    """Every congruence, in lexicographic order of their label tuples, as
    a new list of the cached _congruences(alg, budget)."""
    return list(_congruences(alg, budget))


@lru_cache(maxsize=256)
def _congruences(alg: SortedAlgebra, budget: int) -> tuple[Congruence, ...]:
    """Every congruence, in lexicographic order of their label tuples.
    Cached by value, like clone._closure_full.

    The lattice walk of _closed_sets over the pairs a < b of every sort,
    in lexicographic order of their ids (see _Con): a congruence is the
    mask of the pairs it relates, so the principals are the congruences
    Cg(a, b).  By Mal'cev's lemma (Mal'cev 1954; Bergman, Universal
    Algebra, 2012, ch. 4) Cg(X) is the equivalence closure of the images
    of X under unary polynomials, the composites of basic translations,
    which may change sort.  A congruence theta already holds the images of
    its own pairs, so Cg(theta | X) only pushes X and the merges it causes
    through the translations: each batch of joins is one _Con.join from
    the rows' congruences, in spans of about _BATCH_BYTES of labels and
    pair gathers (cf. Freese, Algebra Universalis 59, 2008)."""
    con = _Con(alg.carriers, alg.tables)
    a, b = np.nonzero(np.triu(con.sort[:, None] == con.sort, 1))

    def labels(rows):
        r, t = np.nonzero(rows)
        return _union(np.tile(np.arange(con.n), (len(rows), 1)), r, a[t], b[t])

    def join(closed, extra):
        out = []
        for part in _spans(len(closed), 16 * (len(a) + con.n)):
            r, t = np.nonzero(extra[part] & ~closed[part])
            joined = con.join(labels(closed[part]), r, a[t], b[t])
            out.append(joined[:, a] == joined[:, b])
        return np.concatenate(out)

    return tuple(sorted(con.congruences(labels(_closed_sets(np.zeros(len(a), dtype=bool), join, budget)))))


def congruence_meet(c1: Congruence, c2: Congruence) -> Congruence:
    """Blockwise intersection, always a congruence when both inputs are."""
    if [len(c) for c in c1.classes] != [len(c) for c in c2.classes]:
        raise ProfileError("the two partitions cover different carriers")
    return Congruence(tuple(_relabel(zip(l1, l2)) for l1, l2 in zip(c1.classes, c2.classes)))


def congruence_join(c1: Congruence, c2: Congruence) -> Congruence:
    """Transitive closure of the union, taken per sort.

    The result is again compatible: it is Cg(c1 | c2), and by Mal'cev's
    lemma that is the equivalence closure of c1, c2 and their images under
    translations, which c1 and c2 already hold.
    """
    if [len(c) for c in c1.classes] != [len(c) for c in c2.classes]:
        raise ProfileError("the two partitions cover different carriers")
    con = _Con([len(c) for c in c1.classes])
    return con.congruences(_union(con.least(c1)[None], 0, np.arange(con.n), con.least(c2)))[0]


# ------------------------------------------------- quotients and products

def _block_reps(cong: Congruence, s: int) -> np.ndarray:
    """The least element of each block of sort s, in label order."""
    return np.unique(np.asarray(cong.classes[s], dtype=np.int64), return_index=True)[1]


def quotient(alg: SortedAlgebra, cong: Congruence) -> SortedAlgebra:
    """Algebra on the blocks.  Same signature object; element k of sort s
    is the k-th block in first-appearance order."""
    ok, wit = is_congruence(alg, cong.classes)
    if not ok:
        raise ProfileError("not compatible, so the quotient is not well defined: %r" % (wit,))
    counts = tuple(cong.block_count(s) for s in range(alg.n_sorts))
    reps = [_block_reps(cong, s) for s in range(alg.n_sorts)]
    tables = []
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        tables.append(tabulate(sym.profile, counts, lambda *cols: np.asarray(cong.classes[cod])[
            gather(tab, [reps[t][c] for t, c in zip(ins, cols)])]))
    return SortedAlgebra(alg.signature, counts, tuple(tables))


def restrict_to_subuniverse(alg: SortedAlgebra, su: SubUniverse) -> SortedAlgebra:
    """Algebra on a closed family, elements renumbered by position."""
    ok, wit = is_closed_family(alg, su.sets)
    if not ok:
        raise ProfileError("family is not closed, %s escapes at %r" % wit)
    members = [np.asarray(xs, dtype=np.int64) for xs in su.sets]
    tables = []
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        tables.append(tabulate(sym.profile, su.sizes(), lambda *cols: np.searchsorted(
            members[cod], gather(tab, [members[t][c] for t, c in zip(ins, cols)]))))
    return SortedAlgebra(alg.signature, su.sizes(), tuple(tables))


def direct_product(algs) -> SortedAlgebra:
    """Componentwise product over a shared signature.

    Element codes mix the factors with factor 0 most significant, the same
    digit convention the product carrier uses for sorts.
    """
    algs = list(algs)
    if not algs:
        raise ProfileError("direct product needs at least one factor")
    sig = algs[0].signature
    for a in algs[1:]:
        if a.signature != sig:
            raise ProfileError("direct product needs one shared signature")
    radices = [tuple(a.carriers[s] for a in algs) for s in range(algs[0].n_sorts)]
    carriers = tuple(math.prod(r) for r in radices)
    tables = []
    for idx, sym in enumerate(sig.symbols):
        ins, cod = sym.profile.inputs, sym.profile.cod

        def componentwise(*cols):
            split = [decode_digits(c, radices[t]) for c, t in zip(cols, ins)]
            return encode_digits([gather(a.tables[idx], [digits[i] for digits in split])
                                  for i, a in enumerate(algs)], radices[cod])

        tables.append(tabulate(sym.profile, carriers, componentwise))
    return SortedAlgebra(sig, carriers, tuple(tables))


# ----------------------------------------------------------------- transfer

def family_product(h: HomogenizedAlgebra, su: SubUniverse) -> SubUniverse:
    """The box over a closed family, as a subset of the product carrier."""
    if len(su.sets) != len(h.radices):
        raise ProfileError("family has %d sorts, the collapse %d" % (len(su.sets), len(h.radices)))
    codes = tuple(sorted(h.encode(vals) for vals in itertools.product(*su.sets)))
    return SubUniverse((codes,))


def congruence_product(h: HomogenizedAlgebra, cong: Congruence) -> Congruence:
    """Componentwise partition of the product carrier."""
    if len(cong.classes) != len(h.radices):
        raise ProfileError("partition has %d sorts, the collapse %d" % (len(cong.classes), len(h.radices)))
    digits = decode_digits(np.arange(h.size), h.radices)
    labels = [np.asarray(c, dtype=np.int64)[d] for c, d in zip(cong.classes, digits)]
    raw = encode_digits(labels, [cong.block_count(s) for s in range(len(h.radices))])
    return Congruence((_relabel(raw.tolist()),))


def _quotient_psi(h: HomogenizedAlgebra, hq: HomogenizedAlgebra, theta: Congruence):
    """Collapsed quotient -> quotient of the collapse, via least block members."""
    digits = decode_digits(np.arange(hq.size), hq.radices)
    members = [_block_reps(theta, s)[d] for s, d in enumerate(digits)]
    labels = np.asarray(congruence_product(h, theta).classes[0], dtype=np.int64)
    return tuple(labels[encode_digits(members, h.radices)].tolist())


def _quotient_collapse(h: HomogenizedAlgebra, q: SortedAlgebra, theta: Congruence) -> HomogenizedAlgebra:
    """The collapse of the quotient q = alg / theta, with each nullary lift
    the image under theta of h's.  homogenize pads a nullary lift with the
    least closed-term value of every other sort, and a quotient map need
    not send least to least; the quotient of the collapse carries the
    image of h's padding."""
    hq = homogenize(q)
    image = morphism_lift(h, hq, theta.classes)
    tables = tuple(OpTable(t.profile, t.carriers, (image[ht.outputs[0]],)) if t.arity == 0 else t
                   for t, ht in zip(hq.algebra.tables, h.algebra.tables, strict=True))
    return replace(hq, algebra=SortedAlgebra(hq.algebra.signature, hq.algebra.carriers, tables))


def _square_psi(h: HomogenizedAlgebra, hsq: HomogenizedAlgebra):
    """Collapsed square -> square of the collapse: regroup the digits by factor."""
    pairs = [decode_digits(d, (n, n))
             for d, n in zip(decode_digits(np.arange(hsq.size), hsq.radices), h.radices)]
    return tuple(encode_digits([p[i] for i in (0, 1) for p in pairs], h.radices * 2).tolist())


def verify_sub_con_transfer(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> Verification:
    """How closed families and congruences move to the product carrier.

    Five checks: boxes over closed families are exactly the closed subsets
    of the product carrier; componentwise partitions are exactly its
    congruences, bijectively when the product carrier is non-empty (an
    empty one, some carrier being empty, has one congruence, the image of
    every congruence); quotients commute with the construction, the
    quotient's nullary lifts padded with the image of the collapse's
    padding (_quotient_collapse), as do binary direct powers; and the box
    map is injective exactly when closed-term values fill every sort s1
    that has no unary term into some sort.  Only empty boxes collide, and
    the closed-term family lies below every family.
    """
    h = homogenize(alg)
    checks = []

    subs_a = enumerate_subuniverses(alg, budget=budget)
    subs_h = enumerate_subuniverses(h.algebra, budget=budget)
    # each box to its first family; the first family on a taken box collides
    boxes, collision = {}, None
    for su in subs_a:
        first = boxes.setdefault(family_product(h, su), su)
        if first is not su and collision is None:
            collision = (first.sets, su.sets)
    checks.append(CheckResult(
        "sub-product-sets", boxes.keys() == set(subs_h),
        "%d closed families, %d boxes, %d closed subsets of the product carrier"
        % (len(subs_a), len(boxes), len(subs_h))))

    cons_a = enumerate_congruences(alg, budget=budget)
    cons_h = enumerate_congruences(h.algebra, budget=budget)
    prods = {congruence_product(h, c) for c in cons_a}
    checks.append(CheckResult(
        "con-product-bijection",
        prods == set(cons_h) and (len(prods) == len(cons_a) or h.size == 0),
        "%d congruences on both sides" % len(cons_a)
        if len(cons_a) == len(cons_h) else
        "%d congruences, %d on the product carrier" % (len(cons_a), len(cons_h))))

    quot_ok, quot_why = True, "all %d quotients match" % len(cons_a)
    for theta in cons_a:
        hq = _quotient_collapse(h, quotient(alg, theta), theta)
        hmod = quotient(h.algebra, congruence_product(h, theta))
        ok, why = is_isomorphism(hq.algebra, hmod, (_quotient_psi(h, hq, theta),))
        if not ok:
            quot_ok, quot_why = False, "quotient by %r: %s" % (theta.classes, why)
            break
    checks.append(CheckResult("quotient-compatible", quot_ok, quot_why))

    sq = direct_product([alg, alg])
    hsq = homogenize(sq)
    hh = direct_product([h.algebra, h.algebra])
    ok, why = is_isomorphism(hsq.algebra, hh, (_square_psi(h, hsq),))
    checks.append(CheckResult(
        "product-compatible", ok,
        "square on %d product elements" % hsq.size if ok else why))

    report = is_pure(alg)
    closed0 = subalgebra_generate(alg, [()] * alg.n_sorts).sets
    filled = all(len(closed0[s1]) == alg.carriers[s1] for s1, _ in report.missing())
    if collision is None:
        detail = "box map injective on %d families, purity %r" % (len(subs_a), report.pure)
    else:
        detail = "families %r and %r share one box, purity %r" % (collision + (report.pure,))
    checks.append(CheckResult("sub-injective-iff-pure", (collision is None) == filled, detail))

    return Verification(tuple(checks))


# ---------------------------------------------------------------- relations

@dataclass(frozen=True)
class Relation:
    """A set of arity-long tuples of product-carrier codes."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        if self.arity < 0:
            raise ProfileError("relation arity %d is negative" % self.arity)
        for t in self.tuples:
            if len(t) != self.arity:
                raise ProfileError("tuple %r in a relation of arity %d" % (t, self.arity))


def _relation_key(rel: Relation):
    return (len(rel.tuples), sorted(rel.tuples))


def invariance_witness(halg: SortedAlgebra, rel: Relation):
    """None when every basic operation, applied coordinatewise to members,
    lands in the relation; otherwise (symbol name, the first member rows).

    Nullary symbols produce a constant row that must always be present, so
    the empty relation is not closed once the algebra has constants.
    """
    if not halg.is_single_sorted:
        raise ProfileError("invariance is checked on a single-sorted algebra")
    members, radices = sorted(rel.tuples), halg.carriers * rel.arity
    m, rows = len(members), np.asarray(members, dtype=np.int64).reshape(len(members), rel.arity)
    if rows.size and not (0 <= rows.min() and rows.max() < halg.carriers[0]):
        raise ProfileError("relation member outside the carrier of size %d" % halg.carriers[0])
    member = _pp_members(rel.tuples, radices)
    for sym, tab in zip(halg.signature.symbols, halg.tables):
        k = sym.profile.arity
        # the leading member rows one at a time, so a step stays near _CHUNK
        lead = next(i for i in range(k + 1) if m ** (k - i) <= _CHUNK)
        for prefix in itertools.product(range(m), repeat=lead):
            grid = prefix + open_grid((m,) * (k - lead))
            images = [gather(tab, [rows[c, j] for c in grid]) for j in range(rel.arity)]
            bad = first_failure(np.broadcast_to(~member[encode_digits(images, radices)], (m,) * (k - lead)))
            if bad is not None:
                return sym.name, tuple(members[i] for i in prefix + bad)
    return None


def inv_enumerate(alg: SortedAlgebra, mu: int, *, budget: int = SUBUNIVERSE_BUDGET) -> list[Relation]:
    """Every subset of the mu-th power of the product carrier closed under
    its basic operations acting coordinatewise, as a new list of the cached
    _inv_relations(alg, mu, budget).

    These are exactly the subuniverses of the mu-th direct power, each
    holding every nullary operation's constant row (see invariance_witness);
    budget bounds the power carrier and the closures computed."""
    return list(_inv_relations(alg, mu, budget))


@lru_cache(maxsize=256)
def _inv_relations(alg: SortedAlgebra, mu: int, budget: int) -> tuple[Relation, ...]:
    """The invariant relations of arity mu, smaller ones first, then by
    their sorted members.  Cached by value, like clone._closure_full."""
    if mu < 1:
        raise ProfileError("relation arity must be at least 1, got %d" % mu)
    h = homogenize(alg)
    n = h.size
    if n ** mu > budget:
        raise BudgetError("power carrier %d^%d exceeds budget %d" % (n, mu, budget))
    power = _Power((n,), h.algebra.tables, mu)
    out = [Relation(mu, _decoded(np.flatnonzero(row), (n,) * mu)) for row in power.lattice(budget)]
    return tuple(sorted(out, key=_relation_key))


def _matrix_route(alg: SortedAlgebra, mu: int, *, budget: int):
    """Invariant sets computed on the many-sorted side: the distinct boxes
    of the closed sets B of the many-sorted power A^mu (one with an empty
    sort has the empty box), each box the set of mu-row matrices with
    column s in B_s, read row major with radices alg.carriers * mu.  Smaller
    sets first, then by their sorted members; budget bounds the closures
    computed, see _closed_sets."""
    power = _Power(alg.carriers, alg.tables, mu)
    boxes = set()
    for row in power.lattice(budget):
        sets = power.subuniverse(row).sets
        columns = [decode_digits(np.asarray(xs, dtype=np.int64)[g], (n,) * mu)
                   for xs, g, n in zip(sets, open_grid(map(len, sets)), alg.carriers)]
        codes = encode_digits([c[r] for r in range(mu) for c in columns], alg.carriers * mu)
        boxes.add(frozenset(np.ravel(codes).tolist()))
    return sorted(boxes, key=lambda c: (len(c), sorted(c)))


def _decoded(codes, radices) -> frozenset:
    """Flat codes with the given radices, as digit tuples."""
    digits = decode_digits(np.fromiter(codes, dtype=np.int64, count=len(codes)), radices)
    return frozenset(zip(*(d.tolist() for d in digits)))


# ------------------------------------------------- primitive positive logic

@dataclass(frozen=True)
class PPFormula:
    """Existentially quantified conjunction of relation atoms.

    Positions 0..mu-1 are free, mu..mu+nu-1 are bound.  Each conjunct is
    (relation index, position map), the map as long as the relation's arity."""

    mu: int
    nu: int
    conjuncts: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.mu < 0 or self.nu < 0:
            raise ProfileError("free and bound counts %d, %d must not be negative" % (self.mu, self.nu))
        for k, cmap in self.conjuncts:
            if k < 0:
                raise ProfileError("conjunct names relation %d" % k)
            for p in cmap:
                if not 0 <= p < self.mu + self.nu:
                    raise ProfileError("position %d outside %d free plus %d bound" % (p, self.mu, self.nu))


def pp_evaluate(relations, formula: PPFormula, carrier: int, *, verify_with=None) -> Relation:
    """The relation a formula defines over the given relations.

    A free tuple belongs when some assignment of the bound positions makes
    every conjunct hold.  With verify_with set to a single-sorted algebra, a
    non-invariant input or result raises ProfileError with its witness.
    """
    rels = list(relations)
    for k, cmap in formula.conjuncts:
        if not 0 <= k < len(rels):
            raise ProfileError("conjunct names relation %d, only %d given" % (k, len(rels)))
        if len(cmap) != rels[k].arity:
            raise ProfileError("conjunct on relation %d has %d positions, arity is %d"
                               % (k, len(cmap), rels[k].arity))
    out = set()
    for assign in itertools.product(range(carrier), repeat=formula.mu + formula.nu):
        if all(tuple(assign[p] for p in cmap) in rels[k].tuples
               for k, cmap in formula.conjuncts):
            out.add(assign[:formula.mu])
    result = Relation(formula.mu, frozenset(out))
    if verify_with is not None:
        _require_invariant(verify_with, rels, result)
    return result


def _require_invariant(halg: SortedAlgebra, rels, *results) -> None:
    """Raise ProfileError naming the first of rels, then of results, that
    halg does not leave invariant, with its witness."""
    for what, rel in ([("relation %d" % k, r) for k, r in enumerate(rels)]
                      + [("the result", r) for r in results]):
        witness = invariance_witness(halg, rel)
        if witness is not None:
            raise ProfileError("%s is not invariant: %s leaves it at %r" % ((what,) + witness))


def _formula_sample(rels, span):
    """Every formula with at most two conjuncts over the sample relations,
    lazily: per span m = 1..span of free plus bound positions and free
    arity m down to 0, each slot (relation index, position map into the m
    positions) alone, then each ordered pair of slots."""
    for m in range(1, span + 1):
        slots = [(k, cmap) for k, r in enumerate(rels) for cmap in itertools.product(range(m), repeat=r.arity)]
        for mu in range(m, -1, -1):
            for conjuncts in itertools.chain(zip(slots), itertools.product(slots, repeat=2)):
                yield PPFormula(mu, m - mu, conjuncts)


def _pp_members(rows, radices) -> np.ndarray:
    """Membership of a set of digit tuples (with the given radices),
    indexed by their row-major codes."""
    member = np.zeros(math.prod(radices), dtype=bool)
    if rows:
        member[encode_digits(np.array(list(rows), dtype=np.int64).T, radices)] = True
    return member


def _pp_rows(n, rels, m, first, second):
    """The free parts of the span-m formulas with conjuncts the slots
    first[i] and second[i] (in _formula_sample order), per block of pairs
    the list of their rows at free arity mu = 0..m, n^mu bools by flat
    free-position code: the AND of two slot table rows (a slot's membership
    at each assignment), then the row at mu + 1 with position mu bound, the
    OR of n slices.  A block's temporaries hold about _BATCH_BYTES at most."""
    grid, table = open_grid((n,) * m), []
    for r in rels:
        member = _pp_members(r.tuples, (n,) * r.arity).reshape((n,) * r.arity)
        table += [np.broadcast_to(member[tuple(grid[p] for p in cmap)], (n,) * m).ravel()
                  for cmap in itertools.product(range(m), repeat=r.arity)]
    table = np.array(table, dtype=bool).reshape(len(table), n ** m)
    for part in _spans(len(first), 4 * n ** m):
        rows = [table[first[part]]]
        rows[0] &= table[second[part]]
        for mu in range(m, 0, -1):
            bound = rows[-1].reshape(len(rows[-1]), n ** (mu - 1), n)
            rows.append(np.zeros(bound.shape[:2], dtype=bool))
            for j in range(n):
                rows[-1] |= bound[..., j]
        yield rows[::-1]


def _pp_grid(n, rels, span):
    """The free parts of every formula's satisfying assignments, in
    _formula_sample(rels, span) order, as (mu, block) pairs, the block of
    shape (formulas, n^mu): per span, the _pp_rows of each slot alone, then
    of each ordered pair of slots."""
    for m in range(1, span + 1):
        c = np.arange(sum(m ** r.arity for r in rels))
        blocks = list(_pp_rows(n, rels, m, np.r_[c, c.repeat(len(c))], np.r_[c, np.tile(c, len(c))]))
        for mu in range(m, -1, -1):
            yield mu, np.concatenate([np.empty((0, n ** mu), dtype=bool)] + [b[mu] for b in blocks])


def _pp_outside_inv(h, rels, invs, span, spot_checks):
    """Count the formulas of _formula_sample(rels, span) whose _pp_grid row
    has a free arity mu in invs (arity -> its invariant relations) and is
    not one of invs[mu].  Slot c alone defines what (c, c) does and (c1,
    c2) what (c2, c1) does, so a _pp_rows row of a pair c1 <= c2 counts as
    two formulas; a block's rows are looked up at once in invs[mu]'s sorted
    keys.  The first spot_checks rows are compared with pp_evaluate, each
    input and then each distinct result verified invariant once (a repeat
    of a result that passed cannot fail).  Returns (#formulas, #rows
    outside Inv, spot ok)."""
    n, inv = h.size, {}
    for mu, rs in invs.items():
        members = np.array([_pp_members(r.tuples, (n,) * mu) for r in rs], dtype=bool).reshape(len(rs), n ** mu)
        inv[mu] = np.sort(row_keys(_pack(members)))
    total = bad = 0
    for m in range(1, span + 1):
        for rows in _pp_rows(n, rels, m, *np.triu_indices(sum(m ** r.arity for r in rels))):
            total += 2 * (m + 1) * len(rows[0])
            for mu in [mu for mu in inv if mu <= m]:
                keys = row_keys(_pack(rows[mu]))
                lo, hi = (np.searchsorted(inv[mu], keys, side) for side in ("left", "right"))
                bad += 2 * int(np.count_nonzero(lo == hi))

    spot_ok, verified = True, set()
    spots = (row for _, rows in _pp_grid(n, rels, span) for row in rows)
    spot = list(zip(itertools.islice(_formula_sample(rels, span), spot_checks), spots))
    if spot:
        _require_invariant(h.algebra, rels)
    for f, row in spot:
        direct = pp_evaluate(rels, f, n)
        if direct not in verified:
            verified.add(direct)
            _require_invariant(h.algebra, (), direct)
        spot_ok &= np.array_equal(sorted(encode_mixed(t, (n,) * f.mu) for t in direct.tuples), np.flatnonzero(row))
    return total, bad, spot_ok


def _pp_sample(invs):
    """The relations the pp-commutation check reads: up to two of each
    arity 1 and 2 from invs (arity -> relations), those neither empty nor
    full first, then the rest in order."""
    sample = []
    for arity in (1, 2):
        rels = invs.get(arity, [])
        full = max((len(r.tuples) for r in rels), default=0)
        sample.extend(sorted(rels, key=lambda r: not 0 < len(r.tuples) < full)[:2])
    return sample


def verify_inv_iso(alg: SortedAlgebra, mu_max: int, *, budget: int = SUBUNIVERSE_BUDGET) -> Verification:
    """Regrouping matrices into product codes is a bijection between the
    invariant sets found on the many-sorted side and the closed subsets of
    powers of the product carrier, and the relations primitive positive
    formulas define over a sample of them stay invariant.

    Needs a pure unary fragment, the hypothesis under which the regrouping
    map is a bijection on members in the first place.

    The matrix route reads Inv as Sub of a power (Geiger, 1968; Bodnarchuk,
    Kaluzhnin, Kotov and Romov, 1969) on the many-sorted side: a set of
    mu-row matrices closed under the collapse's terms holds the matrix diag
    builds from column s of its s-th of any S members, so it is the box of
    its column sets B_s, and B is a subuniverse of A^mu, each lift acting
    on columns as its symbol does.  Purity makes the box map injective.
    The boxes' codes are their product-code tuples' flat codes, so they
    decode straight into relations, which reshape-bijection-mu1.. compare
    with inv_enumerate's.  Inv is closed under pp-definitions, so
    pp-commutation counts the sampled formulas of free arity 1..mu_max
    that define no enumerated invariant relation, and compares the first
    25 with pp_evaluate (_pp_outside_inv)."""
    if mu_max < 1:
        raise ProfileError("relation arity bound must be at least 1, got %d" % mu_max)
    report = is_pure(alg)
    if not report.pure:
        raise ProfileError("needs a pure unary fragment, no cross maps for sort pairs %r"
                           % (report.missing(),))
    h, checks, invs = homogenize(alg), [], {}
    for mu in range(1, mu_max + 1):
        rels = inv_enumerate(alg, mu, budget=budget)
        ids = _matrix_route(alg, mu, budget=budget)
        reshaped = sorted((Relation(mu, _decoded(c, (h.size,) * mu)) for c in ids), key=_relation_key)
        checks.append(CheckResult(
            "reshape-bijection-mu%d" % mu, reshaped == rels,
            "%d invariant sets as code tuples, %d as matrices" % (len(rels), len(ids))))
        invs[mu] = rels

    sample = _pp_sample(invs)
    if sample:
        total, bad, spot_ok = _pp_outside_inv(h, sample, invs, 4, 25)
        checks.append(CheckResult(
            "pp-commutation", bad == 0 and spot_ok,
            "%d formulas over %d sampled relations, %d disagreements"
            % (total, len(sample), bad)))
    return Verification(tuple(checks))
