"""Slow references for the fragments-match checks of the two round trips.

fragments_match generates the fragments of both the source and its split
at every input profile of length 1..lam and compares them as sets through
the per-sort codings, with no clone certificate.  nu_fragments_match
generates the fragments of a single-sorted source and of its collapsed
split at every arity 1..lam and compares them as sets through the element
bijection, with no term certificate.  Both reach the split through
hetero.heterogenize, so a test that patches the split sees the same
patched split here.  test_hetero.py and test_properties.py compare
msalg.hetero.verify_mu_roundtrip and verify_nu_roundtrip with them on
verdict and detail.
"""

from __future__ import annotations

import itertools

import numpy as np

from msalg import hetero
from msalg.clone import generate_fragment
from msalg.core import CheckResult, Profile, SortedAlgebra, TABLE_BUDGET
from msalg.homog import homogenize


def fragments_match(alg: SortedAlgebra, *, lam: int = 2, budget: int = TABLE_BUDGET) -> CheckResult | None:
    """The fragments-match check, every profile compared; None where the
    round trip stops before it (no purity, or codings that are not
    bijections)."""
    family = hetero.cross_family_from_purity(alg, budget=budget)
    if family is None:
        return None
    h = homogenize(alg)
    het = hetero.heterogenize(h.algebra, hetero.canonical_pair(h, family), budget=budget)
    fwd = [tuple(r.index(c) if c in r else -1 for c in codes)
           for r, codes in zip(het.retracts, hetero.mu_maps(h, family))]
    if het.algebra.carriers != alg.carriers or any(sorted(slot) != list(range(n))
                                                   for slot, n in zip(fwd, alg.carriers)):
        return None
    inv = [np.argsort(slot) for slot in fwd]

    S = alg.n_sorts
    profiles = [v for width in range(1, lam + 1) for v in itertools.product(range(S), repeat=width)]
    frag_a = generate_fragment(alg, profiles, budget=budget)
    frag_b = generate_fragment(het.algebra, profiles, budget=budget)
    for inputs, cod in itertools.product(profiles, range(S)):
        p = Profile(inputs, cod)
        want = {tuple(fwd[cod][row[a]] for a in _source_points(p, inv, alg.carriers))
                for row in frag_a.matrices[p].tolist()}
        got = set(map(tuple, frag_b.matrices[p].tolist()))
        if want != got:
            return CheckResult("fragments-match", False, "profile %r: %d vs %d" % (p, len(want), len(got)))
    return CheckResult("fragments-match", True, "")


def nu_fragments_match(source: SortedAlgebra, pair, *, lam: int = 2,
                       budget: int = TABLE_BUDGET) -> CheckResult | None:
    """The nu fragments-match check, every arity compared; None where the
    round trip stops before it (no element bijection)."""
    het = hetero.heterogenize(source, pair, budget=budget)
    hb = homogenize(het.algebra).algebra
    n = source.carriers[0]
    # psi(c) codes (position of e_t(c) in retract t for each t), slot 0
    # most significant
    psi = []
    for c in range(n):
        code = 0
        for e, r in zip(pair.es, het.retracts):
            code = code * len(r) + r.index(e.outputs[c])
        psi.append(code)
    if sorted(psi) != list(range(hb.carriers[0])) or hb.carriers[0] != n:
        return None
    inv = [psi.index(x) for x in range(n)]

    for width in range(1, lam + 1):
        p = Profile((0,) * width, 0)
        frag_c = generate_fragment(source, [p.inputs], budget=budget)
        frag_h = generate_fragment(hb, [p.inputs], budget=budget)
        points = _source_points(p, [inv], (n,))
        want = {tuple(psi[row[a]] for a in points) for row in frag_c.matrices[p].tolist()}
        got = set(map(tuple, frag_h.matrices[p].tolist()))
        if want != got:
            return CheckResult("fragments-match", False, "arity %d: %d vs %d" % (width, len(want), len(got)))
    return CheckResult("fragments-match", True, "")


def _source_points(p: Profile, inv, carriers) -> list[int]:
    """For each split point of the profile's domain in row-major order, the
    row-major index of the source point the codings send onto it."""
    sizes = [carriers[s] for s in p.inputs]
    out = []
    for point in itertools.product(*(range(n) for n in sizes)):
        a = 0
        for s, x, n in zip(p.inputs, point, sizes):
            a = a * n + int(inv[s][x])
        out.append(a)
    return out
