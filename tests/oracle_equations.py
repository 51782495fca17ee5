"""Slow reference equation checks, one point at a time.

Each function here is the per-point loop that an equation or membership
check in msalg used before those checks became whole-table comparisons
with one first-failure witness (msalg.core.first_failure): walk the domain
with itertools.product, apply tables with OpTable.apply, and stop at the
first failing point.  test_equations.py compares every fast check with its
oracle, verdict and witness alike.
"""

from __future__ import annotations

import itertools

import oracle_tabulate
from oracle_clone import fragment_tables
from msalg.core import CheckResult, Profile, Verification
from msalg.clone import generate_fragment
from msalg.diagonal import DiagonalPair, _shape_ok, matrix_product
from msalg.lattice import congruence_join, congruence_meet, enumerate_congruences


# ------------------------------------------------------------ diagonal

def verify_diagonal_pair(alg, pair) -> Verification:
    shape = _shape_ok(alg, pair)
    if shape:
        return Verification((CheckResult("shape", False, shape),))
    n = alg.carriers[0]
    S = pair.width
    checks = [CheckResult("shape", True)]

    bad = None
    for args in itertools.product(range(n), repeat=S):
        y = pair.d.apply(args)
        for s, e in enumerate(pair.es):
            if e.apply((y,)) != e.apply((args[s],)):
                bad = (s, args)
                break
        if bad:
            break
    checks.append(CheckResult("collapse", bad is None,
                              "" if bad is None else "e_%d breaks at %r" % bad))

    bad = None
    for args in itertools.product(range(n), repeat=S):
        folded = tuple(e.apply((a,)) for e, a in zip(pair.es, args))
        if pair.d.apply(folded) != pair.d.apply(args):
            bad = args
            break
    checks.append(CheckResult("absorption", bad is None,
                              "" if bad is None else "breaks at %r" % (bad,)))

    bad = next((a for a in range(n) if pair.d.apply((a,) * S) != a), None)
    checks.append(CheckResult("diagonal", bad is None,
                              "" if bad is None else "d fixes everything but %d" % bad))

    bad = None
    for s, e in enumerate(pair.es):
        for a in range(n):
            if e.apply((e.apply((a,)),)) != e.apply((a,)):
                bad = (s, a)
                break
        if bad:
            break
    checks.append(CheckResult("idempotence", bad is None,
                              "" if bad is None else "e_%d at %d" % bad))
    return Verification(tuple(checks))


def exact_projection_holds(alg, pair):
    if _shape_ok(alg, pair):
        return False, None
    n = alg.carriers[0]
    for args in itertools.product(range(n), repeat=pair.width):
        y = pair.d.apply(args)
        for s, e in enumerate(pair.es):
            if e.apply((y,)) != args[s]:
                return False, (s, args)
    return True, None


def satisfies_diagonal_identity(alg, d):
    S = d.arity
    n = alg.carriers[0]
    for grid in itertools.product(range(n), repeat=S * S):
        rows = [grid[s * S:(s + 1) * S] for s in range(S)]
        outer = d.apply(tuple(d.apply(r) for r in rows))
        if outer != d.apply(tuple(rows[s][s] for s in range(S))):
            return False, grid
    return True, None


def find_diagonal_pairs(alg, width):
    frag = generate_fragment(alg, [(0,) * width, (0,)])
    ds = fragment_tables(frag, Profile((0,) * width, 0))
    es = fragment_tables(frag, Profile((0,), 0))
    n = alg.carriers[0]
    found = []
    for d in ds:
        if any(d.apply((a,) * width) != a for a in range(n)):
            continue
        for combo in itertools.product(es, repeat=width):
            pair = DiagonalPair(d, tuple(combo))
            if verify_diagonal_pair(alg, pair).ok:
                found.append(pair)
    found.sort(key=lambda p: (p.d.outputs, tuple(e.outputs for e in p.es)))
    return tuple(found)


def composition_failure(source, pair, retracts, tables, unary, phi):
    """The composition law verify_decomposition's composition-compatible
    check certifies, phi(f(gs)) = phi(f)(phi(gs)): one transported
    composite per (f, gs) pair."""
    phi_unary = {g.outputs: oracle_tabulate.decompose_table(source, pair, g, retracts) for g in unary}
    for f in tables:
        for gs in itertools.product(unary, repeat=f.arity):
            left = oracle_tabulate.decompose_table(source, pair, oracle_tabulate.compose(f, gs), retracts)
            right = oracle_tabulate.compose(phi[f.outputs], tuple(phi_unary[g.outputs] for g in gs))
            if left != right:
                return f.outputs, tuple(g.outputs for g in gs)
    return None


# -------------------------------------------------------------- hetero

def verify_pair_independence(source, pair1, pair2) -> Verification:
    checks = [CheckResult("shared-d", pair1.d == pair2.d)]
    if pair1.d != pair2.d or pair1.width != pair2.width:
        return Verification(tuple(checks))
    n = source.carriers[0]
    S = pair1.width

    bad = None
    for s in range(S):
        e, e2 = pair1.es[s], pair2.es[s]
        for a in range(n):
            if e.apply((e2.apply((a,)),)) != e.apply((a,)) or \
               e2.apply((e.apply((a,)),)) != e2.apply((a,)):
                bad = (s, a)
                break
        if bad:
            break
    checks.append(CheckResult("mixed-idempotence", bad is None,
                              "" if bad is None else "slot %d at %d" % bad))
    if bad:
        return Verification(tuple(checks))

    mp1 = matrix_product(source, pair1)
    mp2 = matrix_product(source, pair2)
    fwd = []
    bij = True
    for s in range(S):
        r1, r2 = mp1.retracts[s], mp2.retracts[s]
        image = tuple(pair2.es[s].apply((r,)) for r in r1)
        back = tuple(pair1.es[s].apply((r,)) for r in r2)
        bij = bij and sorted(image) == list(r2) and sorted(back) == list(r1)
        fwd.append(tuple(r2.index(x) for x in image))
    checks.append(CheckResult("retract-bijections", bij))
    if not bij:
        return Verification(tuple(checks))

    psi = tuple(mp2.encode(tuple(f[i] for f, i in zip(fwd, mp1.decode(b))))
                for b in range(mp1.algebra.carriers[0]))
    psi_inv = tuple(psi.index(x) for x in range(len(psi)))
    bad = None
    for name in ["mp_%s" % s.name for s in source.signature.symbols] + ["mp_d"]:
        f1 = mp1.algebra.table(name)
        f2 = mp2.algebra.table(name)
        if oracle_tabulate.conjugate(f1, (psi,), (psi_inv,), mp1.algebra.carriers) != f2:
            bad = name
            break
    checks.append(CheckResult("product-transport", bad is None,
                              "" if bad is None else "symbol %s" % bad))
    return Verification(tuple(checks))


# -------------------------------------------------------------- malcev

def is_malcev(table, n) -> bool:
    for x in range(n):
        for y in range(n):
            if table.apply((x, x, y)) != y or table.apply((x, y, y)) != x:
                return False
    return True


def chain_links(cands, n):
    pairs = [(x, y) for x in range(n) for y in range(n)]
    dset = [t for t in cands if all(t.apply((x, y, x)) == x for x, y in pairs)]
    sig_xxy = {t: tuple(t.apply((x, x, y)) for x, y in pairs) for t in dset}
    sig_xyy = {t: tuple(t.apply((x, y, y)) for x, y in pairs) for t in dset}
    return dset, sig_xxy, sig_xyy


def compose_partitions(l1, l2, n) -> set:
    out = set()
    for a in range(n):
        for b in range(n):
            if l1[a] != l1[b]:
                continue
            for c in range(n):
                if l2[b] == l2[c]:
                    out.add((a, c))
    return out


def check_cp_bruteforce(alg):
    """(ok, congruence count, witness) as in PermutabilityReport."""
    cons = enumerate_congruences(alg)
    for i, theta in enumerate(cons):
        for eta in cons[i + 1:]:
            for s in range(alg.n_sorts):
                n = alg.carriers[s]
                left = compose_partitions(theta.classes[s], eta.classes[s], n)
                right = compose_partitions(eta.classes[s], theta.classes[s], n)
                if left != right:
                    return False, len(cons), (theta.classes, eta.classes, s, min(left ^ right))
    return True, len(cons), None


def first_split(left, right, carriers):
    """(s, (a, b)), a < b, for the first pair related by exactly one of
    two congruences."""
    for s in range(len(carriers)):
        for a in range(carriers[s]):
            for b in range(a + 1, carriers[s]):
                if left.related(s, a, b) != right.related(s, a, b):
                    return s, (a, b)
    return None


def check_cd_bruteforce(alg):
    """(ok, congruence count, witness) as in DistributivityReport."""
    cons = enumerate_congruences(alg)
    for theta, eta, delta in itertools.product(cons, repeat=3):
        left = congruence_meet(theta, congruence_join(eta, delta))
        right = congruence_join(congruence_meet(theta, eta), congruence_meet(theta, delta))
        if left != right:
            return False, len(cons), (theta.classes, eta.classes, delta.classes) + \
                first_split(left, right, alg.carriers)
    return True, len(cons), None


# ------------------------------------------------------------- lattice

def is_closed_family(alg, sets):
    members = [set(xs) for xs in sets]
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        for args in itertools.product(*[sorted(members[s]) for s in ins]):
            if tab.apply(args) not in members[cod]:
                return False, (sym.name, args)
    return True, None


def is_congruence(alg, classes):
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


def invariance_witness(halg, rel):
    members = sorted(rel.tuples)
    for sym, tab in zip(halg.signature.symbols, halg.tables):
        for rows in itertools.product(members, repeat=sym.profile.arity):
            image = tuple(tab.apply(tuple(r[j] for r in rows)) for j in range(rel.arity))
            if image not in rel.tuples:
                return sym.name, rows
    return None
