"""Subuniverses, congruences, quotients, products, and the transfer of all
of these across the product-carrier construction, plus invariant relations
on powers of the product carrier.

A closed family is one subset per sort, stable under every operation.  A
congruence is one partition per sort, compatible with every operation; its
partitions are stored as label strings in first-appearance order, so two
equal partitions are equal tuples.  Relations live on the single product
carrier: a member of a relation of arity mu is a mu-tuple of product codes.

Sub, Con and Inv come from one engine: _closed_sets walks the joins of
principal closed sets, each join computed from an already closed set.  Sub
and Inv are closed subsets of a power of an algebra, operations acting
coordinatewise, closed by one kernel (_Power); a Con join reruns the
union-find worklist of congruence_generate.  A power builds, once, one
boolean reach tensor per operation profile, true at (x_1..x_k, z) when some
table of that profile sends the power points x_1..x_k to z, and a closure
round contracts the member mask with each tensor one input sort at a time.
A tensor has (n^mu)^(k+1) cells, so a power whose tensors would pass
_REACH_CELLS in all (mu = 3 on a 6-element binary collapse already wants
216^3) closes by the semi-naive digit gather instead, the one path that
runs on large powers.  Invariant relations take two independent routes:
inv_enumerate closes the mu-th power of the homogenized algebra under its
basic operations, and verify_inv_iso's matrix route takes the boxes of the
closed sets of the many-sorted power A^mu, the walk Sub runs at mu = 1,
then checks that regrouping matrix rows into product codes is a bijection
between the two answers.  A matrix read row-major with per-sort radices is
the flat code of its product-code tuple, so both answers are sets of the
same point ids.  The pp-commutation check reads its formula sample off one
table of (relation, position map) rows per span: a single conjunct is a row
of that table, a pair of conjuncts one block per first slot, each reduced
with any over the bound positions, and a row of free arity up to mu_max
must be one of the enumerated invariant relations.  The membership checks
(closure, compatibility, invariance) gather each operation over an open
grid at once and report core.first_failure's witness.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, replace

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
    grid_columns,
    is_isomorphism,
    open_grid,
    tabulate,
)
from .homog import HomogenizedAlgebra, homogenize, morphism_lift


# ---------------------------------------------------------- closed-set engine

def _closed_sets(bottom, generators, join, budget: int) -> list:
    """Every closed set, bottom first, of a lattice of frozensets in which
    each closed set is a join of principal ones.

    join(C, X) computes the least closed set containing the closed C and
    the set X from C.  The principals are the joins of the bottom with one
    generator each, and every closed set found is joined with every
    principal not below it.  Closures computed (the bottom, each principal
    and each join) count against budget."""
    spent = 1

    def counted(c, x):
        nonlocal spent
        spent += 1
        if spent > budget:
            raise BudgetError("more than %d closures computed" % budget)
        return join(c, x)

    principals = dict.fromkeys(counted(bottom, g) for g in generators)
    found, seen = [bottom], {bottom}
    for c in found:
        for p in principals:
            if not p <= c:
                j = counted(c, p)
                if j not in seen:
                    seen.add(j)
                    found.append(j)
    return found


# Gathered values one closure step, or one block of a reach tensor's build,
# aims to hold at once: a larger step is split along its fresh argument
# position and a build into blocks of argument rows, which keeps peak
# memory flat.
_CHUNK = 1 << 14
# A closure step wanting more argument rows than this raises BudgetError
# instead of running for hours.
_STEP_ROWS = 20_000_000
# A power holds reach tensors only when their cells (one byte each) number
# fewer than this in all; a larger power closes by the digit path.
_REACH_CELLS = 1 << 21


class _Power:
    """The mu-th power of a sorted algebra, operations acting coordinatewise.

    A point of sort s is a code of mu base-n_s digits, first coordinate most
    significant; the points of all sorts share one id space, sort by sort.
    Tables of one profile are stacked.  When the power's reach tensors (see
    _reach) have fewer than _REACH_CELLS cells in all, they are built once
    and a closure round is k row selections and any-reductions per k-ary
    profile (_close_reach).  The cap bounds their memory, which grows as
    (n^mu)^(k+1): larger powers close by one gather of stacked digit codes
    per profile and argument position instead (_close_digits).  Both paths
    reach the same least fixpoint."""

    def __init__(self, carriers, tables, mu: int):
        self.carriers, self.mu = tuple(carriers), mu
        self.offsets = [0] + list(itertools.accumulate(n ** mu for n in self.carriers))
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
        self.reach = ([(p, self._reach(p, stack)) for p, stack in self.stacks]
                      if cells < _REACH_CELLS else None)

    def points(self, s: int) -> int:
        return self.offsets[s + 1] - self.offsets[s]

    def _reach(self, profile, stack) -> np.ndarray:
        """The profile's reach tensor, shape (points of input 1, ..., of
        input k, of the cod sort), True where some stacked table sends the
        power points (x_1..x_k) to z: _images over every point of each
        input sort, whose steps along position 0 are runs of rows."""
        shape = [self.points(s) for s in profile.inputs] + [self.points(profile.cod)]
        reach = np.zeros((math.prod(shape[:-1]), shape[-1]), dtype=bool)
        pool = [np.arange(self.offsets[s], self.offsets[s + 1]) for s in profile.inputs]
        lo = 0
        for ids in self._images(profile, stack, pool, 0):
            ids = ids.reshape(len(stack), -1) - self.offsets[profile.cod]
            reach[np.arange(lo, lo + ids.shape[1]), ids] = True
            lo += ids.shape[1]
        return reach.reshape(shape)

    def close(self, member: np.ndarray, fresh: np.ndarray) -> np.ndarray:
        """Grow member, one bool per point id, into its closure.  fresh holds
        the ids added since member was last closed."""
        if self.reach is None:
            return self._close_digits(member, fresh)
        return self._close_reach(member, fresh)

    def _close_reach(self, member, fresh):
        """Rounds until one adds nothing.  A round contracts every reach
        tensor with the member mask, one input sort at a time (an any over
        the member rows of its leading axis), and ORs what is left into the
        cod sort's mask.  Reading only the member rows of a bool tensor beat
        a float32 matmul over all rows by 4-40x on 36-point powers."""
        sorts = [slice(lo, hi) for lo, hi in zip(self.offsets, self.offsets[1:])]
        grown = fresh.size > 0
        while grown:
            before = np.count_nonzero(member)
            rows = [np.flatnonzero(member[s]) for s in sorts]
            for profile, tensor in self.reach:
                for s in profile.inputs:
                    tensor = tensor[rows[s]].any(axis=0)
                member[sorts[profile.cod]] |= tensor
            grown = np.count_nonzero(member) > before
        return member

    def _close_digits(self, member, fresh):
        """Semi-naive evaluation: only the argument rows that use a fresh id
        are evaluated, and each round's new points are the next round's
        fresh ones."""
        while fresh.size:
            is_fresh = np.zeros(self.size, dtype=bool)
            is_fresh[fresh] = True
            every = [lo + np.flatnonzero(member[lo:hi]) for lo, hi in zip(self.offsets, self.offsets[1:])]
            new = [ids[is_fresh[ids]] for ids in every]
            old = [ids[~is_fresh[ids]] for ids in every]
            reached = np.zeros(self.size, dtype=bool)
            for profile, stack in self.stacks:
                ins = profile.inputs
                for i in range(len(ins)):
                    pool = [old[s] for s in ins[:i]] + [new[ins[i]]] + [every[s] for s in ins[i + 1:]]
                    for ids in self._images(profile, stack, pool, i):
                        reached[ids] = True
            fresh = np.flatnonzero(reached & ~member)
            member[fresh] = True
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

    def join(self, closed: frozenset, points) -> frozenset:
        """The closure of a closed set of ids and some more points."""
        member = np.zeros(self.size, dtype=bool)
        member[list(closed)] = True
        fresh = np.fromiter(set(points) - closed, dtype=np.int64)
        member[fresh] = True
        return frozenset(np.flatnonzero(self.close(member, fresh)).tolist())

    def lattice(self, seeds, budget: int) -> list[frozenset]:
        """Every closed set containing the seed ids and the constants; the
        principals are the closures of one more point each."""
        bottom = self.join(frozenset(), list(seeds) + self.constants)
        return _closed_sets(bottom, ((x,) for x in range(self.size)), self.join, budget)

    def subuniverse(self, closed: frozenset) -> SubUniverse:
        """A closed set, as one sorted subset of point codes per sort."""
        ids = sorted(closed)
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
    seeds = [power.offsets[s] + x for s, xs in enumerate(members) for x in xs]
    return power.subuniverse(power.join(frozenset(), seeds + power.constants))


def enumerate_subuniverses(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> list[SubUniverse]:
    """Every closed family, in lexicographic order of their subset tuples.

    budget bounds the closures computed, see _closed_sets."""
    power = _Power(alg.carriers, alg.tables, 1)
    return sorted(power.subuniverse(c) for c in power.lattice((), budget))


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


def congruence_generate(alg: SortedAlgebra, pairs) -> Congruence:
    """Least congruence relating the given pairs, one pair set per sort."""
    if len(pairs) != alg.n_sorts:
        raise ProfileError("need %d pair sets, got %d" % (alg.n_sorts, len(pairs)))
    for s, ps in enumerate(pairs):
        for a, b in ps:
            if not (0 <= a < alg.carriers[s] and 0 <= b < alg.carriers[s]):
                raise ProfileError("pair (%d, %d) outside carrier %d" % (a, b, s))
    return _merge(_identity(alg), [(s, a, b) for s, ps in enumerate(pairs) for a, b in ps], _positions(alg))


def _identity(alg: SortedAlgebra) -> Congruence:
    return Congruence(tuple(tuple(range(n)) for n in alg.carriers))


def _positions(alg: SortedAlgebra):
    """Per sort, (cod, outputs shaped like the domain, position) for every
    operation argument of that sort."""
    out = [[] for _ in alg.carriers]
    for tab in alg.tables:
        outputs = np.asarray(tab.outputs, dtype=np.int64).reshape(tab.domain_sizes)
        for pos, s in enumerate(tab.profile.inputs):
            out[s].append((tab.profile.cod, outputs, pos))
    return out


def _merge(cong: Congruence, pairs, positions) -> Congruence:
    """Least partition above cong that relates the (sort, a, b) pairs and is
    compatible with the operation arguments in positions (see _positions).

    Union-find plus a worklist started from cong's partition with only the
    pairs queued: every merge is pushed through each position against all
    choices of the other arguments, and the merges it causes are queued in
    turn.  cong's own pairs are never pushed, so cong must be compatible."""
    parent = []
    for labels in cong.classes:
        first = {}
        parent.append([first.setdefault(label, x) for x, label in enumerate(labels)])

    def find(s, x):
        while parent[s][x] != x:
            parent[s][x] = x = parent[s][parent[s][x]]
        return x

    def union(s, a, b):
        ra, rb = sorted((find(s, a), find(s, b)))
        parent[s][rb] = ra
        return ra != rb

    queue = deque(p for p in pairs if union(*p))
    while queue:
        s, a, b = queue.popleft()
        for cod, outputs, pos in positions[s]:
            left = np.take(outputs, a, axis=pos).ravel().tolist()
            right = np.take(outputs, b, axis=pos).ravel().tolist()
            for u, v in zip(left, right):
                if union(cod, u, v):
                    queue.append((cod, u, v))
    return Congruence(tuple(_relabel(find(s, x) for x in range(len(labels)))
                            for s, labels in enumerate(cong.classes)))


def enumerate_congruences(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> list[Congruence]:
    """Every congruence, in lexicographic order of their label tuples.

    The lattice walk of _closed_sets, generated by single pairs (so the
    principals are the congruences Cg(a, b)), with each congruence keyed by
    its related (sort, a, b) pairs, a < b."""
    positions = _positions(alg)
    congruences = {}

    def closed(cong):
        key = frozenset((s, a, b) for s in range(alg.n_sorts) for block in cong.blocks(s)
                        for a, b in itertools.combinations(block, 2))
        congruences[key] = cong
        return key

    pairs = ([(s, a, b)] for s, n in enumerate(alg.carriers) for a, b in itertools.combinations(range(n), 2))
    found = _closed_sets(closed(_identity(alg)), pairs,
                         lambda c, more: closed(_merge(congruences[c], more, positions)), budget)
    return sorted(congruences[key] for key in found)


def congruence_meet(c1: Congruence, c2: Congruence) -> Congruence:
    """Blockwise intersection, always a congruence when both inputs are."""
    if [len(c) for c in c1.classes] != [len(c) for c in c2.classes]:
        raise ProfileError("the two partitions cover different carriers")
    return Congruence(tuple(_relabel(zip(l1, l2)) for l1, l2 in zip(c1.classes, c2.classes)))


def congruence_join(c1: Congruence, c2: Congruence) -> Congruence:
    """Transitive closure of the union, taken per sort.

    The result is again compatible: a chain alternating between the two
    congruences maps, position by position, to a chain of the same shape.
    """
    if [len(c) for c in c1.classes] != [len(c) for c in c2.classes]:
        raise ProfileError("the two partitions cover different carriers")
    return _merge(c1, [(s, block[0], x) for s in range(len(c2.classes))
                       for block in c2.blocks(s) for x in block[1:]], [()] * len(c1.classes))


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
    its basic operations acting coordinatewise.

    These are exactly the subuniverses of the mu-th direct power.  Note a
    nullary operation forces its constant row into every member, so the
    empty relation only appears when no sort family of closed terms exists.
    budget bounds the power carrier and the closures computed.
    """
    if mu < 1:
        raise ProfileError("relation arity must be at least 1, got %d" % mu)
    h = homogenize(alg)
    n = h.size
    if n ** mu > budget:
        raise BudgetError("power carrier %d^%d exceeds budget %d" % (n, mu, budget))
    power = _Power((n,), h.algebra.tables, mu)
    out = [Relation(mu, _decoded(c, (n,) * mu)) for c in power.lattice((), budget)]
    return sorted(out, key=_relation_key)


def _matrix_route(alg: SortedAlgebra, mu: int, *, budget: int):
    """Invariant sets computed on the many-sorted side: the distinct boxes
    of the closed sets B of the many-sorted power A^mu (one with an empty
    sort has the empty box), each box the set of mu-row matrices with
    column s in B_s, read row major with radices alg.carriers * mu.  Smaller
    sets first, then by their sorted members; budget bounds the closures
    computed, see _closed_sets."""
    power = _Power(alg.carriers, alg.tables, mu)
    boxes = set()
    for closed in power.lattice((), budget):
        sets = power.subuniverse(closed).sets
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
    (relation index, position map), the map as long as that relation's
    arity.
    """

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


def _slots(rels, m):
    """Every (relation index, position map) over m positions, in the order
    the formula sample and its grid share."""
    return [(k, cmap) for k, r in enumerate(rels) for cmap in itertools.product(range(m), repeat=r.arity)]


def _formula_sample(rels, span):
    """Every formula with at most two conjuncts over the sample relations,
    free plus bound positions adding up to 1..span, generated lazily."""
    for m in range(1, span + 1):
        slots = _slots(rels, m)
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


def _pp_grid(n, rels, span):
    """The free parts of every formula's satisfying assignments, in
    _formula_sample(rels, span) order, as (mu, block) pairs, the block of
    shape (formulas, n^mu) indexed by flat free-position code.  Span m's
    slot table holds each slot's membership at each assignment; single
    conjuncts read its rows, pairs one block per first slot (no block
    larger than the table), each reduced with any over the bound axis."""
    members = [_pp_members(r.tuples, (n,) * r.arity) for r in rels]
    for m in range(1, span + 1):
        slots = _slots(rels, m)
        cols = grid_columns((n,) * m)
        table = np.empty((len(slots), n ** m), dtype=bool)
        for s, (k, cmap) in enumerate(slots):
            codes = encode_digits([cols[p] for p in cmap], (n,) * len(cmap))
            table[s] = members[k][np.broadcast_to(codes, (n ** m,))]
        for mu in range(m, -1, -1):
            split = (len(slots), n ** mu, n ** (m - mu))
            yield mu, table.reshape(split).any(axis=2)
            for c1 in range(len(slots)):
                yield mu, (table[c1] & table).reshape(split).any(axis=2)


def _pp_outside_inv(h, rels, invs, span, spot_checks):
    """Count the formulas of _formula_sample(rels, span) whose _pp_grid row
    has a free arity mu in invs (arity -> its invariant relations) and is
    not one of invs[mu].  The first spot_checks rows are compared with
    pp_evaluate, each result verified invariant and the input relations
    verified once.  Returns (#formulas, #rows outside Inv, spot ok)."""
    n = h.size
    masks = {mu: {_pp_members(r.tuples, (n,) * mu).tobytes() for r in rs} for mu, rs in invs.items()}
    total = bad = 0
    spots = []
    for mu, rows in _pp_grid(n, rels, span):
        total += len(rows)
        if mu in masks:
            bad += sum(row.tobytes() not in masks[mu] for row in rows)
        spots.extend(rows[:spot_checks - len(spots)])

    spot_ok = True
    spot = list(zip(itertools.islice(_formula_sample(rels, span), spot_checks), spots))
    if spot:
        _require_invariant(h.algebra, rels)
    for f, row in spot:
        direct = pp_evaluate(rels, f, n)
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
    pp-commutation counts the sampled formulas whose grid row, of a free
    arity from 1 to mu_max, is not one of the enumerated invariant
    relations; rows of free arity 0 or above mu_max count in the total
    only.  The first 25 formulas' grid rows are also compared with
    pp_evaluate, which verifies that each result is invariant.
    """
    if mu_max < 1:
        raise ProfileError("relation arity bound must be at least 1, got %d" % mu_max)
    report = is_pure(alg)
    if not report.pure:
        raise ProfileError("needs a pure unary fragment, no cross maps for sort pairs %r"
                           % (report.missing(),))
    h = homogenize(alg)
    checks = []
    invs = {}
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
