"""Subuniverses, congruences, quotients, products, and the transfer of all
of these across the product-carrier construction, plus invariant relations
on powers of the product carrier.

A closed family is one subset per sort, stable under every operation.  A
congruence is one partition per sort, compatible with every operation; its
partitions are stored as label strings in first-appearance order, so two
equal partitions are equal tuples.  Relations live on the single product
carrier: a member of a relation of arity mu is a mu-tuple of product codes.

Invariant relations are computed two independent ways.  inv_enumerate walks
the join lattice of subsets of the mu-th power of the homogenized algebra
that are closed under its basic operations acting coordinatewise.
verify_inv_iso recomputes the same lattice from the many-sorted side, using
tuples of source term operations over a shared variable block, applied to
matrices of source elements, and then checks that regrouping matrix rows
into product codes is a bijection between the two answers.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .clone import is_pure
from .core import (
    SUBUNIVERSE_BUDGET,
    BudgetError,
    CheckResult,
    ProfileError,
    SortedAlgebra,
    Verification,
    decode_digits,
    decode_mixed,
    encode_digits,
    encode_mixed,
    gather,
    is_isomorphism,
    open_grid,
    tabulate,
)
from .homog import HomogenizedAlgebra, assembled_fragment, homogenize


# ----------------------------------------------------------- closed families

@dataclass(frozen=True, order=True)
class SubUniverse:
    """One sorted subset per sort, each strictly increasing."""

    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for xs in self.sets:
            assert all(a < b for a, b in zip(xs, xs[1:])), \
                "subset %r is not strictly increasing" % (xs,)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(xs) for xs in self.sets)


def is_closed_family(alg: SortedAlgebra, sets) -> tuple[bool, tuple | None]:
    """Whether each operation keeps the family inside itself.

    Returns (True, None) or (False, (symbol name, argument tuple)) with the
    first escaping application in declaration order.
    """
    assert len(sets) == alg.n_sorts
    members = [set(xs) for xs in sets]
    for s, n in enumerate(alg.carriers):
        assert all(0 <= x < n for x in members[s])
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        for args in itertools.product(*[sorted(members[s]) for s in ins]):
            if tab.apply(args) not in members[cod]:
                return False, (sym.name, args)
    return True, None


def make_subuniverse(alg: SortedAlgebra, sets) -> SubUniverse:
    """Build a SubUniverse after checking closure against alg."""
    ok, wit = is_closed_family(alg, tuple(tuple(xs) for xs in sets))
    assert ok, "family is not closed, %s escapes at %r" % wit
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
    changed = True
    while changed:
        changed = False
        for sym, tab in zip(alg.signature.symbols, alg.tables):
            ins, cod = sym.profile.inputs, sym.profile.cod
            for args in itertools.product(*[sorted(members[s]) for s in ins]):
                v = tab.apply(args)
                if v not in members[cod]:
                    members[cod].add(v)
                    changed = True
    return SubUniverse(tuple(tuple(sorted(m)) for m in members))


def enumerate_subuniverses(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> list[SubUniverse]:
    """Every closed family, in lexicographic order of their subset tuples."""
    total = math.prod(1 << n for n in alg.carriers)
    if total > budget:
        raise BudgetError("would test %d candidate families, budget is %d" % (total, budget))
    per_sort = []
    for n in alg.carriers:
        per_sort.append([tuple(i for i in range(n) if mask >> i & 1)
                         for mask in range(1 << n)])
    out = []
    for family in itertools.product(*per_sort):
        ok, _ = is_closed_family(alg, family)
        if ok:
            out.append(SubUniverse(family))
    return sorted(out)


# -------------------------------------------------------------- congruences

@dataclass(frozen=True, order=True)
class Congruence:
    """One partition per sort, as block labels in first-appearance order."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for labels in self.classes:
            top = -1
            for v in labels:
                assert 0 <= v <= top + 1, \
                    "labels %r are not in first-appearance order" % (labels,)
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
    the first violation.
    """
    assert len(classes) == alg.n_sorts
    for s, n in enumerate(alg.carriers):
        assert len(classes[s]) == n
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        for pos, s in enumerate(ins):
            pairs = [(a, b)
                     for a in range(alg.carriers[s])
                     for b in range(a + 1, alg.carriers[s])
                     if classes[s][a] == classes[s][b]]
            if not pairs:
                continue
            others = [range(alg.carriers[t]) for i, t in enumerate(ins) if i != pos]
            for rest in itertools.product(*others):
                for a, b in pairs:
                    left = tab.apply(rest[:pos] + (a,) + rest[pos:])
                    right = tab.apply(rest[:pos] + (b,) + rest[pos:])
                    if classes[cod][left] != classes[cod][right]:
                        return False, (sym.name, pos, (a, b), rest)
    return True, None


def make_congruence(alg: SortedAlgebra, classes) -> Congruence:
    ok, wit = is_congruence(alg, tuple(tuple(c) for c in classes))
    assert ok, "partition not compatible: %s at position %d on %r with %r" % wit
    return Congruence(tuple(tuple(c) for c in classes))


def congruence_generate(alg: SortedAlgebra, pairs) -> Congruence:
    """Least congruence relating the given pairs, one pair set per sort.

    Union-find plus a worklist: every merge is pushed through each single
    operation position against all choices of the other arguments, and the
    resulting merges are queued in turn.  Transitive consequences are free,
    the union-find keeps classes merged.
    """
    if len(pairs) != alg.n_sorts:
        raise ProfileError("need %d pair sets, got %d" % (alg.n_sorts, len(pairs)))
    parent = [list(range(n)) for n in alg.carriers]

    def find(s, x):
        root = x
        while parent[s][root] != root:
            root = parent[s][root]
        while parent[s][x] != root:
            parent[s][x], x = root, parent[s][x]
        return root

    def union(s, a, b):
        ra, rb = find(s, a), find(s, b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        parent[s][rb] = ra
        return True

    queue = deque()
    for s, ps in enumerate(pairs):
        for a, b in ps:
            if not (0 <= a < alg.carriers[s] and 0 <= b < alg.carriers[s]):
                raise ProfileError("pair (%d, %d) outside carrier %d" % (a, b, s))
            if union(s, a, b):
                queue.append((s, a, b))

    by_sort = [[] for _ in range(alg.n_sorts)]
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        for pos, s in enumerate(sym.profile.inputs):
            by_sort[s].append((sym.profile, tab, pos))

    while queue:
        s, a, b = queue.popleft()
        for profile, tab, pos in by_sort[s]:
            others = [range(alg.carriers[t])
                      for i, t in enumerate(profile.inputs) if i != pos]
            for rest in itertools.product(*others):
                u = tab.apply(rest[:pos] + (a,) + rest[pos:])
                v = tab.apply(rest[:pos] + (b,) + rest[pos:])
                if union(profile.cod, u, v):
                    queue.append((profile.cod, u, v))

    return Congruence(tuple(_relabel(find(s, x) for x in range(n))
                            for s, n in enumerate(alg.carriers)))


def _growth_strings(n):
    """All partitions of range(n) as first-appearance label strings."""
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def rec(i, top):
        if i == n:
            yield tuple(labels)
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def enumerate_congruences(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> list[Congruence]:
    """Every congruence, in lexicographic order of their label tuples."""
    total = math.prod(_bell(n) for n in alg.carriers)
    if total > budget:
        raise BudgetError("would test %d partition families, budget is %d" % (total, budget))
    out = []
    for classes in itertools.product(*[list(_growth_strings(n)) for n in alg.carriers]):
        ok, _ = is_congruence(alg, classes)
        if ok:
            out.append(Congruence(classes))
    return sorted(out)


def congruence_meet(c1: Congruence, c2: Congruence) -> Congruence:
    """Blockwise intersection, always a congruence when both inputs are."""
    assert len(c1.classes) == len(c2.classes)
    out = []
    for l1, l2 in zip(c1.classes, c2.classes):
        assert len(l1) == len(l2)
        out.append(_relabel(zip(l1, l2)))
    return Congruence(tuple(out))


def congruence_join(c1: Congruence, c2: Congruence) -> Congruence:
    """Transitive closure of the union, taken per sort.

    The result is again compatible: a chain alternating between the two
    congruences maps, position by position, to a chain of the same shape.
    """
    assert len(c1.classes) == len(c2.classes)
    out = []
    for l1, l2 in zip(c1.classes, c2.classes):
        assert len(l1) == len(l2)
        n = len(l1)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for labels in (l1, l2):
            firsts = {}
            for x, l in enumerate(labels):
                if l in firsts:
                    ra, rb = find(firsts[l]), find(x)
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
                else:
                    firsts[l] = x
        out.append(_relabel(find(x) for x in range(n)))
    return Congruence(tuple(out))


# ------------------------------------------------- quotients and products

def _block_reps(cong: Congruence, s: int) -> np.ndarray:
    """The least element of each block of sort s, in label order."""
    return np.unique(np.asarray(cong.classes[s], dtype=np.int64), return_index=True)[1]


def quotient(alg: SortedAlgebra, cong: Congruence) -> SortedAlgebra:
    """Algebra on the blocks.  Same signature object; element k of sort s
    is the k-th block in first-appearance order."""
    if len(cong.classes) != alg.n_sorts or any(
            len(c) != n for c, n in zip(cong.classes, alg.carriers)):
        raise ProfileError("partition shape does not match carriers %r" % (alg.carriers,))
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
    if len(su.sets) != alg.n_sorts:
        raise ProfileError("family has %d sets for %d sorts" % (len(su.sets), alg.n_sorts))
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
    assert len(su.sets) == len(h.radices)
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


def _square_psi(h: HomogenizedAlgebra, hsq: HomogenizedAlgebra):
    """Collapsed square -> square of the collapse: regroup the digits by factor."""
    pairs = [decode_digits(d, (n, n))
             for d, n in zip(decode_digits(np.arange(hsq.size), hsq.radices), h.radices)]
    return tuple(encode_digits([p[i] for i in (0, 1) for p in pairs], h.radices * 2).tolist())


def verify_sub_con_transfer(alg: SortedAlgebra, *, budget: int = SUBUNIVERSE_BUDGET) -> Verification:
    """How closed families and congruences move to the product carrier.

    Five checks: boxes over closed families are exactly the closed subsets
    of the product carrier; componentwise partitions are exactly its
    congruences, bijectively; quotients commute with the construction, as
    do binary direct powers; and the box map is injective exactly when the
    unary cross-sort fragment is pure.
    """
    h = homogenize(alg)
    checks = []

    subs_a = enumerate_subuniverses(alg, budget=budget)
    subs_h = enumerate_subuniverses(h.algebra, budget=budget)
    boxes = {family_product(h, su) for su in subs_a}
    checks.append(CheckResult(
        "sub-product-sets", boxes == set(subs_h),
        "%d closed families, %d boxes, %d closed subsets of the product carrier"
        % (len(subs_a), len(boxes), len(subs_h))))

    cons_a = enumerate_congruences(alg, budget=budget)
    cons_h = enumerate_congruences(h.algebra, budget=budget)
    prods = {congruence_product(h, c) for c in cons_a}
    checks.append(CheckResult(
        "con-product-bijection",
        prods == set(cons_h) and len(prods) == len(cons_a),
        "%d congruences on both sides" % len(cons_a)
        if len(cons_a) == len(cons_h) else
        "%d congruences, %d on the product carrier" % (len(cons_a), len(cons_h))))

    quot_ok, quot_why = True, "all %d quotients match" % len(cons_a)
    for theta in cons_a:
        q = quotient(alg, theta)
        hq = homogenize(q)
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

    injective = len(boxes) == len(subs_a)
    pure = is_pure(alg).pure
    if injective:
        detail = "box map injective on %d families, purity %r" % (len(subs_a), pure)
    else:
        seen = {}
        collapse = None
        for su in subs_a:
            key = family_product(h, su)
            if key in seen:
                collapse = (seen[key].sets, su.sets)
                break
            seen[key] = su
        detail = "families %r and %r share one box, purity %r" % (collapse + (pure,))
    checks.append(CheckResult("sub-injective-iff-pure", injective == pure, detail))

    return Verification(tuple(checks))


# ---------------------------------------------------------------- relations

@dataclass(frozen=True)
class Relation:
    """A set of arity-long tuples of product-carrier codes."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        assert self.arity >= 0
        for t in self.tuples:
            assert len(t) == self.arity, "tuple %r in a relation of arity %d" % (t, self.arity)


def _relation_key(rel: Relation):
    return (len(rel.tuples), sorted(rel.tuples))


def invariance_witness(halg: SortedAlgebra, rel: Relation):
    """None when every basic operation, applied coordinatewise to members,
    lands in the relation; otherwise (symbol name, member rows).

    Nullary symbols produce a constant row that must always be present, so
    the empty relation is not closed once the algebra has constants.
    """
    assert halg.is_single_sorted
    members = sorted(rel.tuples)
    for sym, tab in zip(halg.signature.symbols, halg.tables):
        k = sym.profile.arity
        for rows in itertools.product(members, repeat=k):
            image = tuple(tab.apply(tuple(r[j] for r in rows))
                          for j in range(rel.arity))
            if image not in rel.tuples:
                return sym.name, rows
    return None


def _power_close(ops, n_codes, mu, seed, budget):
    """Close a set of flat codes (mu base-n_codes digits) under operations
    acting digit by digit.  ops is a list of (arity, flat output array)."""
    strides = n_codes ** np.arange(mu - 1, -1, -1, dtype=np.int64)
    repunit = int(strides.sum())
    member = np.zeros(n_codes ** mu, dtype=bool)
    for c in seed:
        member[c] = True
    for arity, flat in ops:
        if arity == 0:
            member[int(flat[0]) * repunit] = True
    while True:
        cur = np.flatnonzero(member)
        k = int(cur.size)
        grew = False
        if k:
            digits = (cur[:, None] // strides[None, :]) % n_codes
            for arity, flat in ops:
                if arity == 0:
                    continue
                if k ** arity > 20_000_000:
                    raise BudgetError("closure round wants %d argument rows" % k ** arity)
                acc = None
                for pos in range(arity):
                    shape = [1] * arity + [mu]
                    shape[pos] = k
                    d = digits.reshape(shape)
                    acc = d if acc is None else acc * n_codes + d
                codes = (flat[acc] * strides).sum(axis=-1).ravel()
                fresh = codes[~member[codes]]
                if fresh.size:
                    member[fresh] = True
                    grew = True
        if not grew:
            break
    return frozenset(int(c) for c in np.flatnonzero(member))


def _set_key(s):
    return (len(s), sorted(s))


def _join_saturate(close, n_flat, budget):
    """All closed sets, as closures of singletons completed under pairwise
    joins.  Any closed set is a join of the singleton closures of its own
    members, so this reaches everything."""
    found = {close(frozenset())}
    for c in range(n_flat):
        found.add(close(frozenset([c])))
    pool = sorted(found, key=_set_key)
    frontier = list(pool)
    tried = set()
    while frontier:
        fresh = []
        for a in frontier:
            for b in pool:
                if a <= b or b <= a:
                    continue
                u = a | b
                if u in tried:
                    continue
                tried.add(u)
                c = close(u)
                if c not in found:
                    found.add(c)
                    fresh.append(c)
        if len(found) > budget:
            raise BudgetError("more than %d closed sets" % budget)
        fresh.sort(key=_set_key)
        pool.extend(fresh)
        frontier = fresh
    return sorted(found, key=_set_key)


def inv_enumerate(alg: SortedAlgebra, mu: int, *, budget: int = SUBUNIVERSE_BUDGET) -> list[Relation]:
    """Every subset of the mu-th power of the product carrier closed under
    its basic operations acting coordinatewise.

    These are exactly the subuniverses of the mu-th direct power.  Note a
    nullary operation forces its constant row into every member, so the
    empty relation only appears when no sort family of closed terms exists.
    """
    assert mu >= 1
    h = homogenize(alg)
    n = h.size
    if n ** mu > budget:
        raise BudgetError("power carrier %d^%d exceeds budget %d" % (n, mu, budget))
    ops = [(tab.arity, np.asarray(tab.outputs, dtype=np.int64))
           for tab in h.algebra.tables]
    sets = _join_saturate(lambda seed: _power_close(ops, n, mu, seed, budget),
                          n ** mu, budget)
    out = [Relation(mu, frozenset(decode_mixed(c, (n,) * mu) for c in s)) for s in sets]
    return sorted(out, key=_relation_key)


def _matrix_route(alg: SortedAlgebra, h: HomogenizedAlgebra, mu: int, *, budget: int):
    """Invariant sets computed on the many-sorted side.

    Members are matrices, mu rows of one element per sort, flattened row
    major.  Closure is under tuples of source term operations over a
    shared block of lam variables per sort, the assembled fragment, with
    lam large enough to express every basic operation and the recombining
    operation itself.  Closed-term value rows seed every set, they are the
    zero-variable tuples.  Returns each closed set as a frozenset of flat
    matrices, in a deterministic order.
    """
    n_sorts = alg.n_sorts
    lam = max([n_sorts, 1] + [t.arity for t in alg.tables])
    frag = assembled_fragment(h, lam)
    ops = [(lam, np.asarray(outs, dtype=np.int64)) for outs in sorted(frag)]
    closed0 = subalgebra_generate(alg, [set() for _ in range(n_sorts)])
    base = frozenset()
    if all(closed0.sets):
        repunit = sum(h.size ** j for j in range(mu))
        base = frozenset(h.encode(vals) * repunit
                         for vals in itertools.product(*closed0.sets))

    def close(seed):
        return _power_close(ops, h.size, mu, frozenset(seed) | base, budget)

    sets = _join_saturate(close, h.size ** mu, budget)
    radices = tuple(alg.carriers) * mu
    return [frozenset(tuple(decode_mixed(c, radices)) for c in s) for s in sets]


def _regroup(matrix, carriers, mu):
    """Reshape one flat matrix into a mu-tuple of product codes."""
    n_sorts = len(carriers)
    return tuple(encode_mixed(matrix[j * n_sorts:(j + 1) * n_sorts], carriers)
                 for j in range(mu))


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
        assert self.mu >= 0 and self.nu >= 0
        for k, cmap in self.conjuncts:
            assert k >= 0
            for p in cmap:
                assert 0 <= p < self.mu + self.nu, \
                    "position %d outside %d free plus %d bound" % (p, self.mu, self.nu)


def pp_evaluate(relations, formula: PPFormula, carrier: int, *, verify_with=None) -> Relation:
    """The relation a formula defines over the given relations.

    A free tuple belongs when some assignment of the bound positions makes
    every conjunct hold.  With verify_with set to a single-sorted algebra,
    invariance of all inputs and of the result is asserted.
    """
    rels = list(relations)
    for k, cmap in formula.conjuncts:
        if not 0 <= k < len(rels):
            raise ProfileError("conjunct names relation %d, only %d given" % (k, len(rels)))
        if len(cmap) != rels[k].arity:
            raise ProfileError("conjunct on relation %d has %d positions, arity is %d"
                               % (k, len(cmap), rels[k].arity))
    if verify_with is not None:
        for r in rels:
            assert invariance_witness(verify_with, r) is None
    out = set()
    for assign in itertools.product(range(carrier), repeat=formula.mu + formula.nu):
        if all(tuple(assign[p] for p in cmap) in rels[k].tuples
               for k, cmap in formula.conjuncts):
            out.add(assign[:formula.mu])
    result = Relation(formula.mu, frozenset(out))
    if verify_with is not None:
        assert invariance_witness(verify_with, result) is None
    return result


def _formula_sample(rels, span):
    """Every formula with at most two conjuncts over the sample relations,
    free plus bound positions adding up to 1..span."""
    out = []
    for m in range(1, span + 1):
        slots = [(k, cmap)
                 for k, r in enumerate(rels)
                 for cmap in itertools.product(range(m), repeat=r.arity)]
        for mu in range(m, -1, -1):
            nu = m - mu
            for c in slots:
                out.append(PPFormula(mu, nu, (c,)))
            for c1 in slots:
                for c2 in slots:
                    out.append(PPFormula(mu, nu, (c1, c2)))
    return out


def _pp_members(rel: Relation, radices) -> np.ndarray:
    """Membership of rel, indexed by the row-major code of all the digits
    (with the given radices) of a member's codes."""
    member = np.zeros(math.prod(radices) ** rel.arity, dtype=bool)
    for t in rel.tuples:
        member[encode_digits([d for c in t for d in decode_digits(c, radices)], radices * rel.arity)] = True
    return member


def _pp_solutions(members, radices, grid, f: PPFormula) -> np.ndarray:
    """Sorted flat codes of the free part of every satisfying assignment.
    Each position is a block of digits with the given radices, grid is the
    open grid over them all, and the free positions are the leading axes."""
    width = len(radices)
    blocks = [grid[p * width:(p + 1) * width] for p in range(f.mu + f.nu)]
    mask = np.ones(radices * (f.mu + f.nu), dtype=bool)
    for k, cmap in f.conjuncts:
        mask &= members[k][encode_digits([d for p in cmap for d in blocks[p]], radices * len(cmap))]
    n = math.prod(radices)
    return np.flatnonzero(mask.reshape(n ** f.mu, n ** f.nu).any(axis=1))


def _pp_both_sides(alg, h, rels, formulas, spot_checks):
    """Evaluate each formula over product codes and over matrices, compare
    through the regrouping map.  Returns (#formulas, #disagreements, spot ok)."""
    n = h.size
    span = max(f.mu + f.nu for f in formulas)
    sides = [(n,), tuple(alg.carriers)]
    members = [[_pp_members(r, radices) for r in rels] for radices in sides]
    grids = [[open_grid(radices * m) for m in range(span + 1)] for radices in sides]

    bad = 0
    spot_ok = True
    for count, f in enumerate(formulas):
        m = f.mu + f.nu
        code_side, mat_side = (_pp_solutions(mem, radices, grid[m], f)
                               for mem, radices, grid in zip(members, sides, grids))
        if not np.array_equal(code_side, mat_side):
            bad += 1
        if count < spot_checks:
            direct = pp_evaluate(rels, f, n, verify_with=h.algebra)
            flats = sorted(int(np.int64(0) if not t else
                               int(np.ravel_multi_index(t, (n,) * f.mu)))
                           if f.mu else 0
                           for t in direct.tuples)
            if not np.array_equal(np.asarray(flats, dtype=np.int64), code_side):
                spot_ok = False
    return len(formulas), bad, spot_ok


def verify_inv_iso(alg: SortedAlgebra, mu_max: int, *, budget: int = SUBUNIVERSE_BUDGET) -> Verification:
    """Regrouping matrices into product codes is a bijection between the
    invariant sets found on the many-sorted side and the closed subsets of
    powers of the product carrier, and it commutes with primitive positive
    definitions over a formula sample.

    Needs a pure unary fragment, the hypothesis under which the regrouping
    map is a bijection on members in the first place.
    """
    report = is_pure(alg)
    if not report.pure:
        raise ProfileError("needs a pure unary fragment, no cross maps for sort pairs %r"
                           % (report.missing(),))
    h = homogenize(alg)
    checks = []
    kept = {}
    for mu in range(1, mu_max + 1):
        rels = inv_enumerate(alg, mu, budget=budget)
        mats = _matrix_route(alg, h, mu, budget=budget)
        reshaped = sorted((Relation(mu, frozenset(_regroup(mt, alg.carriers, mu)
                                                  for mt in s))
                           for s in mats),
                          key=_relation_key)
        checks.append(CheckResult(
            "reshape-bijection-mu%d" % mu,
            reshaped == rels and len(mats) == len(rels),
            "%d invariant sets as code tuples, %d as matrices" % (len(rels), len(mats))))
        kept[mu] = rels

    sample = []
    for arity in (1, 2):
        rels = kept.get(arity, [])
        full = max((len(r.tuples) for r in rels), default=0)
        inner = [r for r in rels if 0 < len(r.tuples) < full]
        pool = inner + [r for r in rels if r not in inner]
        sample.extend(pool[:2])
    if sample:
        formulas = _formula_sample(sample, 4)
        total, bad, spot_ok = _pp_both_sides(alg, h, sample, formulas, 25)
        checks.append(CheckResult(
            "pp-commutation", bad == 0 and spot_ok,
            "%d formulas over %d sampled relations, %d disagreements"
            % (total, len(sample), bad)))
    return Verification(tuple(checks))
