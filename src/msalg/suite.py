"""The acceptance battery: one function per criterion, shared by the
command line's verify-all and the test suite.

Each criterion function returns (ok, detail) with a deterministic detail
string, counts and fixed names only, so two runs of the battery render
byte-identical reports once timing is zeroed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .clone import generate_fragment, is_pure
from .core import Profile
from .corpus import corpus_algebra, corpus_names
from .diagonal import find_diagonal_pairs, satisfies_diagonal_identity, verify_decomposition, verify_diagonal_pair
from .hetero import canonical_pair, cross_family_from_purity, verify_mu_roundtrip, verify_nu_roundtrip
from .homog import assembled_fragment, homogenize
from .lattice import family_product, make_subuniverse, verify_inv_iso, verify_sub_con_transfer
from .malcev import check_cd_bruteforce, check_cp_bruteforce, find_jonsson, find_malcev_homog, find_malcev_per_sort


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str
    elapsed: float


def criterion_diagonal_pairs():
    """Canonical pair of every pure corpus algebra verifies, d included."""
    notes = []
    for name in corpus_names():
        alg = corpus_algebra(name)
        started = time.perf_counter()
        family = cross_family_from_purity(alg)
        if family is None:
            if is_pure(alg).pure:
                return False, "%s: pure but no cross family" % name
            notes.append("%s=no-pair" % name)
            continue
        h = homogenize(alg)
        pair = canonical_pair(h, family)
        ver = verify_diagonal_pair(h.algebra, pair)
        ident, grid = satisfies_diagonal_identity(h.algebra, pair.d)
        took = time.perf_counter() - started
        if not ver.ok:
            return False, "%s: %s fails" % (name, ver.failures()[0].name)
        if not ident:
            return False, "%s: diagonal identity breaks at %r" % (name, grid)
        if took >= 1.0:
            return False, "%s: took %.2f s, limit is 1 s" % (name, took)
        notes.append("%s=ok" % name)
    return True, " ".join(notes)


def criterion_adequacy():
    """Generated fragments of the collapse equal the assembled ones, lam <= 2."""
    notes = []
    for name in corpus_names():
        alg = corpus_algebra(name)
        h = homogenize(alg)
        if h.size > 8:
            notes.append("%s=skipped" % name)
            continue
        for lam in (1, 2):
            want = set(assembled_fragment(h, lam))
            prof = Profile((0,) * lam, 0)
            got = set(map(tuple, generate_fragment(h.algebra, [prof.inputs]).matrices[prof].tolist()))
            if want != got:
                return False, "%s lam=%d: assembled %d vs generated %d" % (
                    name, lam, len(want), len(got))
        notes.append("%s=%d" % (name, len(want)))
    return True, " ".join(notes)


def criterion_roundtrips():
    """nu over every found pair of the two collapses, mu on their sources."""
    notes = []
    for name in ("a_tiny", "a_malcev"):
        alg = corpus_algebra(name)
        h = homogenize(alg)
        pairs = find_diagonal_pairs(h.algebra, alg.n_sorts)
        if not pairs:
            return False, "%s: no diagonal pairs found" % name
        for i, pair in enumerate(pairs):
            ver, _psi = verify_nu_roundtrip(h.algebra, pair, lam=2)
            if not ver.ok:
                return False, "%s pair %d: %s fails" % (name, i, ver.failures()[0].name)
        ver = verify_mu_roundtrip(alg, lam=2)
        if not ver.ok:
            return False, "%s: %s fails" % (name, ver.failures()[0].name)
        notes.append("%s=%d-pairs" % (name, len(pairs)))
    return True, " ".join(notes)


def criterion_decomposition():
    """Transport onto the retract product is bijective and composition-true."""
    notes = []
    for name in ("a_tiny", "a_malcev"):
        h = homogenize(corpus_algebra(name))
        pair = canonical_pair(h)
        for lam in (1, 2):
            ver = verify_decomposition(h.algebra, pair, lam)
            if not ver.ok:
                return False, "%s lam=%d: %s fails" % (name, lam, ver.failures()[0].name)
        notes.append("%s=ok" % name)
    return True, " ".join(notes)


def criterion_transfer():
    """Sub and Con transfer on the pure pair, collapse reproduced on nonpure."""
    notes = []
    for name in ("a_tiny", "a_malcev"):
        ver = verify_sub_con_transfer(corpus_algebra(name))
        if not ver.ok:
            return False, "%s: %s fails" % (name, ver.failures()[0].name)
        notes.append("%s=ok" % name)
    alg = corpus_algebra("nonpure")
    ver = verify_sub_con_transfer(alg)
    if not ver.ok:
        return False, "nonpure: %s fails" % ver.failures()[0].name
    h = homogenize(alg)
    left = family_product(h, make_subuniverse(alg, [(), (0, 1)]))
    right = family_product(h, make_subuniverse(alg, [(0, 1), ()]))
    if not (left == right and left.sets == ((),)):
        return False, "nonpure: expected both one-sided families to collapse to empty"
    notes.append("nonpure=collapse-reproduced")
    return True, " ".join(notes)


def criterion_inv_iso():
    """Invariant relations of the collapse match the two-sided route, mu <= 2."""
    ver = verify_inv_iso(corpus_algebra("a_tiny"), 2)
    if not ver.ok:
        return False, "a_tiny: %s fails" % ver.failures()[0].name
    return True, "a_tiny=ok checks=%d" % len(ver.checks)


def criterion_malcev():
    """Mode agreement on the affine and semilattice algebras, permutability."""
    mal = corpus_algebra("a_malcev")
    per, hom = find_malcev_per_sort(mal), find_malcev_homog(mal)
    if per is None or hom is None:
        return False, "a_malcev: expected witnesses in both modes"
    sem = corpus_algebra("a_semilat")
    if find_malcev_per_sort(sem) is not None or find_malcev_homog(sem) is not None:
        return False, "a_semilat: expected absence in both modes"
    cp = check_cp_bruteforce(homogenize(mal).algebra)
    if not cp.ok:
        return False, "collapse of a_malcev: congruences should permute"
    cps = check_cp_bruteforce(homogenize(sem).algebra)
    if cps.ok or cps.witness is None:
        return False, "collapse of a_semilat: expected a non-permuting pair"
    return True, "a_malcev=found-both a_semilat=absent-both cp=%d/%d-congruences" % (
        cp.congruences, cps.congruences)


def criterion_jonsson():
    """Chain on the lattice pair in both modes, distributive collapse."""
    lat = corpus_algebra("a_lattice")
    per = find_jonsson(lat, mode="per_sort")
    hom = find_jonsson(lat, mode="homogenized")
    if per is None or hom is None:
        return False, "a_lattice: expected chains in both modes"
    if per.n > 2 or hom.n > 2:
        return False, "a_lattice: n=%d/%d exceeds 2" % (per.n, hom.n)
    cd = check_cd_bruteforce(homogenize(lat).algebra)
    if not cd.ok:
        return False, "collapse of a_lattice: expected a distributive lattice"
    mal = corpus_algebra("a_malcev")
    mper = find_jonsson(mal, mode="per_sort")
    mhom = find_jonsson(mal, mode="homogenized")
    if (mper is None) != (mhom is None):
        return False, "a_malcev: modes disagree"
    return True, "a_lattice=n%d/n%d cd-congruences=%d a_malcev=%s" % (
        per.n, hom.n, cd.congruences,
        "absent-both" if mper is None else "found-both")


CRITERIA = (
    (1, "diagonal-pair-soundness", criterion_diagonal_pairs),
    (2, "homogenization-adequacy", criterion_adequacy),
    (3, "round-trips", criterion_roundtrips),
    (4, "matrix-decomposition", criterion_decomposition),
    (5, "sub-con-transfer", criterion_transfer),
    (6, "inv-isomorphism", criterion_inv_iso),
    (7, "malcev-equivalence", criterion_malcev),
    (8, "jonsson-distributivity", criterion_jonsson),
)


def run_all() -> list[CriterionResult]:
    out = []
    for index, name, fn in CRITERIA:
        started = time.perf_counter()
        ok, detail = fn()
        out.append(CriterionResult(index, name, ok, detail,
                                   time.perf_counter() - started))
    return out
