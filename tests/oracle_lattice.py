"""Slow reference enumerators for the closed-set lattice engine.

Each function here is an algorithm msalg.lattice used before one lattice
walk over principal closed sets replaced them: Sub by filtering all 2^sum(n)
candidate families, Con by testing every product of set partitions with
is_congruence, Inv and the matrix route by pairwise joins of singleton
closures, each closed from scratch, and subalgebra generation by a Python
fixpoint over whole argument products.  test_lattice_engine.py compares the
engine with them.

pp_outside_inv is the pp-commutation check as it was before the formula
sample was read off one slot table per span: one pp_solutions call per
formula of a given list, its free part looked up among the invariant
relations as a Python set of tuples, and the spot checks reading that
call's row.  test_lattice.py compares the grid with both, row by row and
count by count.
"""

from __future__ import annotations

import itertools

import numpy as np

from msalg.core import decode_mixed, encode_digits, open_grid
from msalg.homog import assembled_fragment, homogenize
from msalg.lattice import (
    Congruence,
    PPFormula,
    Relation,
    SubUniverse,
    _pp_members,
    is_closed_family,
    is_congruence,
    pp_evaluate,
)


def subalgebra_generate(alg, gens) -> SubUniverse:
    members = [set(g) for g in gens]
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


def enumerate_subuniverses(alg) -> list[SubUniverse]:
    """Every candidate family, filtered by is_closed_family."""
    per_sort = [[tuple(i for i in range(n) if mask >> i & 1) for mask in range(1 << n)]
                for n in alg.carriers]
    return sorted(SubUniverse(family) for family in itertools.product(*per_sort)
                  if is_closed_family(alg, family)[0])


def growth_strings(n):
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


def enumerate_congruences(alg) -> list[Congruence]:
    """Every product of partitions, filtered by is_congruence."""
    return sorted(Congruence(classes)
                  for classes in itertools.product(*[list(growth_strings(n)) for n in alg.carriers])
                  if is_congruence(alg, classes)[0])


def power_close(ops, n_codes, mu, seed):
    """Close a set of flat codes (mu base-n_codes digits) under operations
    acting digit by digit, every round over all argument rows.  ops is a
    list of (arity, flat output array)."""
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


def join_saturate(close, n_flat):
    """All closed sets, as closures of singletons completed under pairwise
    joins, each join closed from scratch."""
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
        fresh.sort(key=_set_key)
        pool.extend(fresh)
        frontier = fresh
    return sorted(found, key=_set_key)


def inv_enumerate(alg, mu) -> list[Relation]:
    h = homogenize(alg)
    n = h.size
    ops = [(tab.arity, np.asarray(tab.outputs, dtype=np.int64)) for tab in h.algebra.tables]
    sets = join_saturate(lambda seed: power_close(ops, n, mu, seed), n ** mu)
    out = [Relation(mu, frozenset(decode_mixed(c, (n,) * mu) for c in s)) for s in sets]
    return sorted(out, key=lambda r: (len(r.tuples), sorted(r.tuples)))


def matrix_route(alg, h, mu) -> list[frozenset]:
    """The invariant sets of the many-sorted side, as sets of flat matrices,
    sorted by size, then by their sorted members."""
    lam = max([alg.n_sorts, 1] + [t.arity for t in alg.tables])
    ops = [(lam, np.asarray(outs, dtype=np.int64)) for outs in sorted(assembled_fragment(h, lam))]
    closed0 = subalgebra_generate(alg, [set() for _ in range(alg.n_sorts)])
    base = frozenset()
    if all(closed0.sets):
        repunit = sum(h.size ** j for j in range(mu))
        base = frozenset(h.encode(vals) * repunit for vals in itertools.product(*closed0.sets))
    sets = join_saturate(lambda seed: power_close(ops, h.size, mu, frozenset(seed) | base),
                         h.size ** mu)
    radices = tuple(alg.carriers) * mu
    return [frozenset(decode_mixed(c, radices) for c in s) for s in sets]


def pp_solutions(members, n: int, grid, f: PPFormula) -> np.ndarray:
    """Free parts of the satisfying assignments, one boolean row indexed by
    flat free-position code.  members[k] is relation k's membership over
    base-n codes, grid is the open grid over every position, and the free
    positions are the leading axes."""
    mask = np.ones((n,) * (f.mu + f.nu), dtype=bool)
    for k, cmap in f.conjuncts:
        mask &= members[k][encode_digits([grid[p] for p in cmap], (n,) * len(cmap))]
    return mask.reshape(n ** f.mu, n ** f.nu).any(axis=1)


def pp_outside_inv(h, rels, invs, formulas, spot_checks):
    """Evaluate each formula once over the relations and count those whose
    free part has an arity in invs (arity -> invariant relations) and is
    not one of its relations.  Returns (#formulas, #outside Inv, spot ok)."""
    n = h.size
    span = max(f.mu + f.nu for f in formulas)
    members = [_pp_members(r.tuples, (n,) * r.arity) for r in rels]
    grids = [open_grid((n,) * m) for m in range(span + 1)]
    inv = {mu: {r.tuples for r in rs} for mu, rs in invs.items()}

    bad = 0
    spot_ok = True
    for count, f in enumerate(formulas):
        row = pp_solutions(members, n, grids[f.mu + f.nu], f)
        tuples = frozenset(decode_mixed(int(c), (n,) * f.mu) for c in np.flatnonzero(row))
        if f.mu in inv and tuples not in inv[f.mu]:
            bad += 1
        if count < spot_checks and pp_evaluate(rels, f, n, verify_with=h.algebra).tuples != tuples:
            spot_ok = False
    return len(formulas), bad, spot_ok
