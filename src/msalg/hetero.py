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

The mu round trip compares clones by their generators first.  Two algebras
on the same sorted carriers whose basic operations are each a term
operation of the other have the same term operations at every profile: a
term of one becomes a term of the other, with the same table, by replacing
each basic symbol with its term.  Each recoded basic operation of the
source is a basic operation of the split (the het_lift_ symbols), so once
every split table, recoded back, lies in the source's fragment at its own
profile, the fragments match at every profile and the split's fragments
are never generated.

The nu round trip does the same with explicit terms.  Write C for the
source, hb for the collapsed split and psi for the element bijection.  The
diag of hb pulled back along psi is d, and its lift of het_<g>_t<t>_v<v>
pulled back is the term d(x1, .., g(e_v1 x1, .., e_vk xk) at slot t, .., x1)
of C; conversely psi g psi^-1 is diag applied to one such lift per slot.
When every one of these tables matches, the two clones are equal and hb's
fragments are never generated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
    decode_digits,
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


def canonical_pair(h: HomogenizedAlgebra, family: CrossSortFamily | None = None) -> DiagonalPair:
    """The diag table together with e_s built from the cross family."""
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


def heterogenize(source: SortedAlgebra, pair: DiagonalPair, *,
                 budget: int = TABLE_BUDGET) -> HeterogenizedAlgebra:
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


def _in_source_clone(split: SortedAlgebra, alg: SortedAlgebra, fwd, inv, budget: int) -> bool:
    """Is every basic table of the split, recoded back along the codings, a
    term operation of the source at its own profile?  False also when a
    source fragment at a split profile exceeds the budget."""
    try:
        frag = generate_fragment(alg, [g.profile for g in split.tables], budget=budget)
    except BudgetError:
        return False
    return all(fragment_contains(frag, _conjugate(g, inv, fwd, alg.carriers))[0] for g in split.tables)


def verify_mu_roundtrip(alg: SortedAlgebra, *, lam: int = 2,
                        budget: int = TABLE_BUDGET) -> Verification:
    """Collapse, split along the canonical pair, compare with the original.

    The comparison runs through the per-sort codings mu_s: operation tables
    must transport symbol by symbol, and the generated fragments at every
    input profile of length 1..lam must transport as sets.

    The fragments are compared through the clones' generators first.  Write
    A' for the source recoded along the mu_s and B for the split.  When
    ops-transport holds, every basic operation of A' is one of B, so every
    term operation of A' is one of B.  When also every basic table of B is
    a term operation of A' at its own profile, substituting those terms
    turns every term of B into a term of A' with the same table.  The two
    clones are then equal, so the fragments match at every profile and
    B's fragments are not generated.  Otherwise, or when a source fragment
    at a profile of B that is not compared exceeds the budget, both
    fragments are generated and compared profile by profile.  The source
    fragments at the compared profiles are generated either way, so budget
    errors do not depend on which comparison runs.
    """
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

    bad = None
    for sym, f in zip(alg.signature.symbols, alg.tables):
        name = "het_lift_%s_t%d_v%s" % (sym.name, sym.profile.cod,
                                        "".join(str(s) for s in sym.profile.inputs))
        try:
            g = het.algebra.table(name)
        except ProfileError:
            bad = (sym.name, "missing %s" % name)
            break
        if _conjugate(f, fwd, inv, alg.carriers) != g:
            bad = (sym.name, "table differs after recoding")
            break
    checks.append(CheckResult("ops-transport", bad is None,
                              "" if bad is None else "%s: %s" % bad))
    transported = bad is None

    profiles = [v for width in range(1, lam + 1) for v in itertools.product(range(S), repeat=width)]
    frag_a = generate_fragment(alg, profiles, budget=budget)
    bad = None
    if profiles and not (transported and _in_source_clone(het.algebra, alg, fwd, inv, budget)):
        frag_b = generate_fragment(het.algebra, profiles, budget=budget)
        for inputs, cod in itertools.product(profiles, range(S)):
            p = Profile(inputs, cod)
            want = np.unique(_conjugated(frag_a.matrices[p], p, fwd, inv, alg.carriers), axis=0)
            got = np.unique(frag_b.matrices[p], axis=0)
            if not np.array_equal(want, got):
                bad = (p, len(want), len(got))
                break
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
    arity: the fragments match at every width, and hb's fragments are not
    generated.  The certificate is void, and both fragments are generated
    and compared width by width as before, when C has a nullary symbol,
    when d is not basic and S > lam, or when C's S-ary fragment exceeds
    the budget.  C's fragments at widths 1..lam are generated either way,
    and when the certificate holds hb's have the same sizes, so budget
    errors do not depend on which comparison runs.  A lam above the
    arity bound is rejected before anything is generated, naming the
    first width the comparison could not generate.
    """
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

    certified = _nu_certified(source, pair, hb, psi, inv, lam, budget)
    bad = None
    for width in range(1, lam + 1):
        p = Profile((0,) * width, 0)
        frag_c = generate_fragment(source, [p.inputs], budget=budget)
        if certified:
            continue
        frag_h = generate_fragment(hb.algebra, [p.inputs], budget=budget)
        want = np.unique(_conjugated(frag_c.matrices[p], p, (psi,), (inv,), (n,)), axis=0)
        got = np.unique(frag_h.matrices[p], axis=0)
        if not np.array_equal(want, got):
            bad = (width, len(want), len(got))
            break
    checks.append(CheckResult("fragments-match", bad is None,
                              "" if bad is None else "arity %d: %d vs %d" % bad))

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
