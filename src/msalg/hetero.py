"""Split a single-sorted algebra back into sorts along a diagonal pair.

The pair (d, e_0..e_{S-1}) marks out retract images R_s = e_s(C).  The
split algebra has one sort per slot, carrier R_s relabeled 0..|R_s|-1, and
one symbol per (basic operation g, argument sort assignment v, target slot
t): the table of g on R_v1 x ... x R_vn, pushed through e_t and relabeled,

  het_<g>_t<t>_v<v> = index_t . e_t . g . (R_v1 x ... x R_vn)

Cross-sort families and the canonical pair connect the two directions for a
collapsed algebra: when the source is pure, pick for every ordered sort
pair (s, t) the lexicographically least unary term table A_s -> A_t (the
identity on the diagonal), and define

  d = the diag table,   e_s(x) = code of (e_{s,t}(x_s) for each t).

verify_mu_roundtrip checks that collapsing and then splitting returns the
original many-sorted algebra up to the per-sort codings; verify_nu_roundtrip
checks that splitting and then collapsing returns the original single-sorted
algebra up to one carrier bijection.

Both compare fragments by one argument.  Two algebras on the same sorted
carriers whose basic operations are each a term operation of the other have
the same term operations at every profile: a term of one becomes a term of
the other, with the same table, by replacing each basic symbol with its
term.  Each round trip names an explicit term of the other side for every
basic operation of each side and compares whole tables; the terms are built
from the basic operations, projections and the maps of the cross family or
the pair, which must themselves lie in the source's fragments.  When every
table matches, the fragments match at every profile and none is generated
beyond those the certificate reads.  When one differs, _fragment_mismatch
generates both sides' fragments profile by profile and compares them as
sets.  A certified run can therefore only hit the budget in the source's
unary fragments and in the split's entry count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BudgetError,
    CheckResult,
    MAX_ARITY,
    OpTable,
    Profile,
    ProfileError,
    SortedAlgebra,
    SortedSignature,
    Symbol,
    TABLE_BUDGET,
    Verification,
    check_nonnegative,
    decode_digits,
    distinct_rows,
    encode_digits,
    first_failure,
    gather,
    grid_columns,
    tabulate,
)
from .clone import check_inputs, fragment_contains, generate_fragment
from .diagonal import DiagonalPair, matrix_product, retract_maps, stack_tables, verify_diagonal_pair
from .homog import HomogenizedAlgebra, homogenize


@dataclass(frozen=True)
class CrossSortFamily:
    """maps[s][t] is a unary term table A_s -> A_t; maps[s][s] is the
    identity."""

    algebra: SortedAlgebra
    maps: tuple[tuple[OpTable, ...], ...]


def cross_family_from_purity(alg: SortedAlgebra, *,
                             budget: int = TABLE_BUDGET) -> CrossSortFamily | None:
    """The canonical family: identity on the diagonal, lexicographically
    least table off it.  None when some sort pair has no connecting term."""
    rows = []
    for s in range(alg.n_sorts):
        frag = generate_fragment(alg, [(s,)], budget=budget)
        row = []
        for t in range(alg.n_sorts):
            if t == s:
                row.append(OpTable(Profile((s,), s), alg.carriers,
                                   tuple(range(alg.carriers[s]))))
                continue
            candidates = frag.matrices[Profile((s,), t)].tolist()
            if not candidates:
                return None
            row.append(OpTable(Profile((s,), t), alg.carriers, tuple(min(candidates))))
        rows.append(tuple(row))
    return CrossSortFamily(alg, tuple(rows))


def mu_maps(h: HomogenizedAlgebra, family: CrossSortFamily):
    """Per sort, the coding a -> code of (e_{s,t}(a) for each t)."""
    S = len(h.radices)
    return tuple(
        tuple(encode_digits([gather(family.maps[s][t], [np.arange(h.radices[s])])
                             for t in range(S)], h.radices).tolist())
        for s in range(S))


@lru_cache(maxsize=256)
def canonical_pair(h: HomogenizedAlgebra, family: CrossSortFamily | None = None) -> DiagonalPair:
    """The diag table together with e_s built from the cross family.
    Cached by value, like clone._closure_full."""
    if family is None:
        family = cross_family_from_purity(h.source)
        if family is None:
            raise ProfileError("source is not pure, no canonical pair exists")
    mus = [np.asarray(m, dtype=np.int64) for m in mu_maps(h, family)]
    es = tuple(tabulate(Profile((0,), 0), (h.size,),
                        lambda col: mus[s][decode_digits(col, h.radices)[s]])
               for s in range(len(h.radices)))
    return DiagonalPair(h.algebra.table("diag"), es)


# ---------------------------------------------------------------------------
# the split algebra

@dataclass(frozen=True)
class HeterogenizedAlgebra:
    algebra: SortedAlgebra
    source: SortedAlgebra
    pair: DiagonalPair
    retracts: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=256)
def heterogenize(source: SortedAlgebra, pair: DiagonalPair, *,
                 budget: int = TABLE_BUDGET) -> HeterogenizedAlgebra:
    """The split of source along the pair; BudgetError when its tables
    need more than budget entries.  Cached by value, like
    clone._closure_full."""
    ver = verify_diagonal_pair(source, pair)
    if not ver.ok:
        raise ProfileError("not a diagonal pair: %s" % ver.failures()[0].name)
    S = pair.width
    retracts = pair.retracts()
    sizes = tuple(len(r) for r in retracts)

    # sum over sort assignments v of prod(sizes[v_i]) is sum(sizes) ** arity
    total = sum(S * sum(sizes) ** sym.profile.arity for sym in source.signature.symbols)
    if total > budget:
        raise BudgetError("split signature needs %d table entries, budget is %d"
                          % (total, budget))

    split = retract_maps(pair, retracts)
    symbols = []
    tables = []
    for sym, g in zip(source.signature.symbols, source.tables):
        for v in itertools.product(range(S), repeat=g.arity):
            for t in range(S):
                name = "het_%s_t%d_v%s" % (sym.name, t, "".join(str(s) for s in v))
                symbols.append(Symbol(name, Profile(v, t)))
                tables.append(tabulate(Profile(v, t), sizes, lambda *cols: split[t][
                    gather(g, [np.asarray(retracts[s], dtype=np.int64)[c] for s, c in zip(v, cols)])]))
    sig = SortedSignature(tuple("r%d" % s for s in range(S)), tuple(symbols))
    return HeterogenizedAlgebra(
        algebra=SortedAlgebra(sig, sizes, tuple(tables)),
        source=source, pair=pair, retracts=retracts)


def _conjugated(matrix: np.ndarray, profile: Profile, fwd, inv, carriers) -> np.ndarray:
    """The tables of one profile, one per row, relabeled along per-sort
    bijections (fwd composed with inv) in one gather."""
    sizes = [carriers[s] for s in profile.inputs]
    args = np.ravel(encode_digits([np.asarray(inv[s], dtype=np.int64)[c]
                                   for s, c in zip(profile.inputs, grid_columns(sizes))], sizes))
    return np.asarray(fwd[profile.cod], dtype=np.int64)[matrix[:, args]]


def _conjugate(f: OpTable, fwd, inv, carriers) -> OpTable:
    """Relabel one table along per-sort bijections (fwd composed with inv)."""
    row = _conjugated(stack_tables([f], len(f.outputs)), f.profile, fwd, inv, carriers)[0]
    return OpTable(f.profile, tuple(carriers), tuple(row.tolist()))


def _mu_walk(alg: SortedAlgebra, h: HomogenizedAlgebra, family: CrossSortFamily,
             split: SortedAlgebra, fwd, inv) -> dict:
    """Whether each table of the split, pulled back along the codings,
    equals its explicit term of the source, keyed (i, v, t) for
    het_<g>_t<t>_v<v> with g the i-th symbol of the collapse (diag is 0).
    The walk follows heterogenize's emit order; a padding component of a
    nullary lift is matched against the closed-term values instead."""
    S = alg.n_sorts
    es = [[np.asarray(m.outputs, dtype=np.int64) for m in row] for row in family.maps]
    rows = iter(split.tables)
    matched = {}
    for i, (f, g) in enumerate(zip((None,) + alg.tables, h.algebra.tables)):
        for v in itertools.product(range(S), repeat=g.arity):
            cols = grid_columns(alg.carriers[s] for s in v)
            for t in range(S):
                pulled = _conjugate(next(rows), inv, fwd, alg.carriers)
                if f is None:
                    want = es[v[t]][t][cols[t]]
                elif t == f.profile.cod:
                    want = gather(f, [es[r][s][c] for r, s, c in zip(v, f.profile.inputs, cols)])
                elif v:
                    want = es[v[0]][t][cols[0]]
                else:
                    # homogenize's own call, so a cache hit
                    matched[i, v, t] = fragment_contains(generate_fragment(alg, [()]), pulled)[0]
                    continue
                matched[i, v, t] = np.array_equal(pulled.outputs, np.broadcast_to(want, len(pulled.outputs)))
    return matched


def _fragment_mismatch(source: SortedAlgebra, split: SortedAlgebra, inputs, fwd, inv, budget: int):
    """The comparison a failed certificate falls back to.  Per input profile
    in order, generate the fragments of both sides and compare them as sets
    of tables, the source's moved along the per-sort bijections fwd (with
    inverses inv).  Returns the first (profile, source count, split count)
    that differs, or None."""
    for ins in inputs:
        frag_a = generate_fragment(source, [ins], budget=budget)
        frag_b = generate_fragment(split, [ins], budget=budget)
        for cod in range(split.n_sorts):
            p = Profile(ins, cod)
            want = distinct_rows(_conjugated(frag_a.matrices[p], p, fwd, inv, source.carriers))
            got = distinct_rows(frag_b.matrices[p])
            if not np.array_equal(want, got):
                return p, len(want), len(got)
    return None


def verify_mu_roundtrip(alg: SortedAlgebra, *, lam: int = 2,
                        budget: int = TABLE_BUDGET) -> Verification:
    """Collapse, split along the canonical pair, compare with the original.

    The comparison runs through the per-sort codings mu_s: operation tables
    must transport symbol by symbol, and the generated fragments at every
    input profile of length 1..lam must transport as sets.

    The fragments are compared through explicit terms both ways.  Write A'
    for the source recoded along the mu_s, B for the split and e_{s,t} for
    the cross family.  Pulled back along the codings, each table of B must
    equal a term of A:

      - het_diag_t<t>_v<v> is e_{v_t,t}(x_t);
      - het_lift_<f>_t<t>_v<v> is f(e_{v_1,s_1} x_1, .., e_{v_k,s_k} x_k)
        at t = cod f, for f: s_1 .. s_k -> cod f, and e_{v_1,t}(x_1) at
        every other t;
      - a padding component of a nullary lift is a closed-term value.

    Every e_{s,t} must lie in A's unary fragment, so these are terms of A.
    At v = inputs of f and t = cod f the lift is f itself (e_{s,s} is the
    identity): that case is ops-transport, so every basic operation of A'
    is one of B.  Substituting terms then carries every term of one side
    onto a term of the other with the same table, the clones are equal,
    and the fragments match at every profile without being generated.
    When some table differs, or some e_{s,t} is no term, both fragments
    are generated and compared profile by profile.  A certified run
    generates only A's unary fragments, which the cross family already
    needed, and its closed terms when it has a constant, so its budget
    errors come from the unary fragments and the split's entry count.  A
    lam above the arity bound is rejected once the codings are known to
    be bijections, naming the first profile the comparison could not
    generate.
    """
    check_nonnegative(lam, "lam")
    checks = []
    family = cross_family_from_purity(alg, budget=budget)
    checks.append(CheckResult("pure", family is not None,
                              "" if family else "no canonical pair without purity"))
    if family is None:
        return Verification(tuple(checks))
    h = homogenize(alg)
    pair = canonical_pair(h, family)
    checks.append(CheckResult("canonical-pair", verify_diagonal_pair(h.algebra, pair).ok))
    het = heterogenize(h.algebra, pair, budget=budget)

    S = alg.n_sorts
    sizes_ok = het.algebra.carriers == alg.carriers
    checks.append(CheckResult("sort-sizes", sizes_ok,
                              "split carriers %r vs source %r" % (het.algebra.carriers, alg.carriers)))
    if not sizes_ok:
        return Verification(tuple(checks))

    fwd = [tuple(r.index(c) if c in r else -1 for c in codes)
           for r, codes in zip(het.retracts, mu_maps(h, family))]
    bij = all(sorted(slot) == list(range(n)) for slot, n in zip(fwd, alg.carriers))
    checks.append(CheckResult("mu-bijective", bij))
    if not bij:
        return Verification(tuple(checks))
    inv = [np.argsort(slot) for slot in fwd]
    check_inputs((0,) * min(lam, MAX_ARITY + 1))

    matched = _mu_walk(alg, h, family, het.algebra, fwd, inv)
    # pure with a constant gives every sort a closed term, so every lift of
    # a nullary symbol stays nullary and every f has its own profile here
    bad = next((sym.name for i, (sym, f) in enumerate(zip(alg.signature.symbols, alg.tables), 1)
                if not matched.get((i, f.profile.inputs, f.profile.cod))), None)
    checks.append(CheckResult("ops-transport", bad is None,
                              "" if bad is None else "%s: table differs after recoding" % bad))

    certified = bad is None and all(matched.values()) and all(
        fragment_contains(generate_fragment(alg, [(s,)], budget=budget), e)[0]
        for s, row in enumerate(family.maps) for e in row)
    profiles = [v for width in range(1, lam + 1) for v in itertools.product(range(S), repeat=width)]
    bad = None if certified else _fragment_mismatch(alg, het.algebra, profiles, fwd, inv, budget)
    checks.append(CheckResult("fragments-match", bad is None,
                              "" if bad is None else "profile %r: %d vs %d" % bad))
    return Verification(tuple(checks))


def _nu_certified(source: SortedAlgebra, pair: DiagonalPair, hb: HomogenizedAlgebra,
                  psi, inv, lam: int, budget: int) -> bool:
    """Are the source and the collapsed split, moved along psi, each a term
    reduct of the other, by the explicit terms of verify_nu_roundtrip?
    False where the certificate is void: lam < 1, a nullary source symbol,
    or d neither basic nor found in the S-ary fragment within lam and the
    budget."""
    n, S = source.carriers[0], pair.width
    if lam < 1 or any(g.arity == 0 for g in source.tables):
        return False
    unary = generate_fragment(source, [(0,)], budget=budget)
    if not all(fragment_contains(unary, e)[0] for e in pair.es):
        return False
    if pair.d not in source.tables:
        if S > lam:
            return False
        try:
            frag = generate_fragment(source, [pair.d.profile.inputs], budget=budget)
        except BudgetError:
            return False
        if not fragment_contains(frag, pair.d)[0]:
            return False

    # hb's symbols in heterogenize's order: diag, then per source symbol g,
    # per v in itertools.product order, per t, the lift of het_<g>_t<t>_v<v>
    diag, *lifts = hb.algebra.tables
    if _conjugate(diag, (inv,), (psi,), (n,)).outputs != pair.d.outputs:
        return False
    es = stack_tables(pair.es, n)
    start = 0
    for g in source.tables:
        k = g.arity
        vs = np.asarray(list(itertools.product(range(S), repeat=k)), dtype=np.int64)
        mine = lifts[start:start + len(vs) * S]
        start += len(mine)
        cols = grid_columns((n,) * k)
        # hb in C: each lift pulled back is the term of C with g at slot t
        inner = gather(g, [es[vs[:, i]][:, c] for i, c in enumerate(cols)])
        want = np.stack([gather(pair.d, [inner if s == t else cols[0] for s in range(S)])
                         for t in range(S)], axis=1)
        lifted = stack_tables(mine, n ** k)
        pulled = _conjugated(lifted, g.profile, (inv,), (psi,), (n,))
        if not np.array_equal(pulled, want.reshape(pulled.shape)):
            return False
        # C in hb: digit t of psi g psi^-1 is digit t of some lift at slot t
        pushed = _conjugated(stack_tables([g], n ** k), g.profile, (psi,), (inv,), (n,))[0]
        digits = decode_digits(pushed, hb.radices)
        if not all((decode_digits(lifted[t::S], hb.radices)[t] == digits[t]).all(axis=1).any()
                   for t in range(S)):
            return False
    return True


def verify_nu_roundtrip(source: SortedAlgebra, pair: DiagonalPair, *, lam: int = 2,
                        budget: int = TABLE_BUDGET):
    """Split along the pair, collapse again, compare with the original.

    Returns (Verification, bijection): the bijection sends a source element
    c to the code of (slot index of e_t(c) for each t) and must carry the
    lam-bounded fragments onto each other and the pair onto the diag-based
    one of the collapsed split.

    The fragments are compared through explicit generator terms first.
    Write C for the source, hb for the collapsed split, S for the width and
    R_t for the retract e_t(C).  Both carry their basic operations along
    psi; each check below compares whole tables, and none assumes an
    identity of the pair.

      - hb in C.  Every e_s must lie in C's unary fragment, and d must be a
        basic table of C or lie in its S-ary fragment.  The diag of hb
        pulled back along psi must equal d.  hb's lift of
        het_<g>_t<t>_v<v> keeps digit t of g(e_v1 x1, .., e_vk xk) and
        copies every other digit s from its first argument, so pulled
        back it must equal the C-term d(x1, .., g(e_v1 x1, .., e_vk xk),
        .., x1), with g's value at slot t and x1 elsewhere (absorption
        drops the e_s that psi^-1 = d(R_0 x .. x R_S-1) puts around
        each slot).
      - C in hb.  For each basic g of C and each slot t, some v must give
        a lift of het_<g>_t<t>_v<v> whose digit t equals digit t of
        psi g psi^-1 at every point.  diag keeps digit s of its argument
        s, so psi g psi^-1 is then the hb-term diag(lift at slot 0, ..,
        lift at slot S-1).  A g whose slot t reads two slots of one
        argument has no such v, and the check fails.

    Then every basic operation of each side is a term operation of the
    other, substituting terms carries every term of one side onto a term
    of the other with the same table, and the clones are equal at every
    arity: the fragments match at every width without being generated.
    The certificate is void when C has a nullary symbol, when d is not
    basic and S > lam, or when C's S-ary fragment exceeds the budget.
    Then, or when a check fails, both fragments are generated and
    compared width by width.  A certified run generates only C's unary
    fragment, and its S-ary one when d is not basic, so its budget errors
    come from the unary fragment and the split's entry count.  A lam
    above the arity bound is rejected before anything is generated,
    naming the first width the comparison could not generate.
    """
    check_nonnegative(lam, "lam")
    check_inputs((0,) * min(lam, MAX_ARITY + 1))
    het = heterogenize(source, pair, budget=budget)
    hb = homogenize(het.algebra)
    n = source.carriers[0]
    checks = []

    psi = tuple(encode_digits(retract_maps(pair, het.retracts), hb.radices).tolist())
    bij = len(set(psi)) == n == hb.size
    checks.append(CheckResult("element-bijection", bij,
                              "source %d, collapsed %d, distinct %d" % (n, hb.size, len(set(psi)))))
    if not bij:
        return Verification(tuple(checks)), psi
    inv = tuple(psi.index(x) for x in range(n))

    bad = None if _nu_certified(source, pair, hb, psi, inv, lam, budget) else _fragment_mismatch(
        source, hb.algebra, [(0,) * width for width in range(1, lam + 1)], (psi,), (inv,), budget)
    checks.append(CheckResult("fragments-match", bad is None,
                              "" if bad is None else "arity %d: %d vs %d" % (bad[0].arity, *bad[1:])))

    d_moved = _conjugate(pair.d, (psi,), (inv,), (n,))
    diag_ok = d_moved == hb.algebra.table("diag")
    moved = DiagonalPair(d_moved, tuple(_conjugate(e, (psi,), (inv,), (n,)) for e in pair.es))
    checks.append(CheckResult("pair-transport",
                              diag_ok and verify_diagonal_pair(hb.algebra, moved).ok,
                              "" if diag_ok else "moved d is not the diag table"))
    return Verification(tuple(checks)), psi


def verify_pair_independence(source: SortedAlgebra, pair1: DiagonalPair,
                             pair2: DiagonalPair, *,
                             budget: int = TABLE_BUDGET) -> Verification:
    """Two pairs over the same d give the same product, up to relabeling.

    The relabeling sends a slot-s element r of the first pair's retract to
    e'_s(r); mixed idempotence makes these inverse bijections and every
    transported basic (and d itself) must commute with the relabeling.
    """
    checks = [CheckResult("shared-d", pair1.d == pair2.d)]
    if pair1.d != pair2.d or pair1.width != pair2.width:
        return Verification(tuple(checks))
    n = source.carriers[0]

    es1, es2 = stack_tables(pair1.es, n), stack_tables(pair2.es, n)
    bad = first_failure((np.take_along_axis(es1, es2, axis=1) != es1) |
                        (np.take_along_axis(es2, es1, axis=1) != es2))
    checks.append(CheckResult("mixed-idempotence", bad is None,
                              "" if bad is None else "slot %d at %d" % bad))
    if bad is not None:
        return Verification(tuple(checks))

    mp1 = matrix_product(source, pair1)
    mp2 = matrix_product(source, pair2)
    slots = list(enumerate(zip(mp1.retracts, mp2.retracts)))
    bij = all(sorted(es2[s][list(r1)].tolist()) == list(r2) and sorted(es1[s][list(r2)].tolist()) == list(r1)
              for s, (r1, r2) in slots)
    checks.append(CheckResult("retract-bijections", bij))
    if not bij:
        return Verification(tuple(checks))

    fwd = [np.searchsorted(r2, es2[s][list(r1)]) for s, (r1, r2) in slots]
    digits = decode_digits(np.arange(mp1.algebra.carriers[0]), mp1.sizes)
    psi = encode_digits([f[d] for f, d in zip(fwd, digits)], mp2.sizes)
    shared = ["mp_%s" % s.name for s in source.signature.symbols] + ["mp_d"]
    bad = next((name for name in shared if _conjugate(mp1.algebra.table(name), (psi,), (np.argsort(psi),),
                                                       mp1.algebra.carriers) != mp2.algebra.table(name)), None)
    checks.append(CheckResult("product-transport", bad is None,
                              "" if bad is None else "symbol %s" % bad))
    return Verification(tuple(checks))
