"""Diagonal pairs: equations, search, and the rebuilt product algebra.

The search oracle below enumerates candidate (d, e) combinations out of the
term-enumeration oracle from test_clone and checks the pair equations with
its own loops, so an agreement with find_diagonal_pairs crosses two
independent paths.
"""

import itertools

import numpy as np
import pytest

from msalg import diagonal
from msalg.core import OpTable, Profile, ProfileError, build_algebra, compose
from msalg.clone import generate_fragment
from oracle_clone import fragment_tables
from msalg.corpus import corpus_algebra
from msalg.diagonal import (
    DiagonalPair,
    decompose_table,
    exact_projection_holds,
    find_diagonal_pairs,
    matrix_product,
    satisfies_diagonal_identity,
    verify_decomposition,
    verify_diagonal_pair,
)
from msalg.hetero import canonical_pair
from msalg.homog import homogenize

from test_clone import oracle_fragment


def oracle_pairs(alg, width):
    """Brute force over term tables, axioms written out longhand."""
    n = alg.carriers[0]
    wide = oracle_fragment(alg, (0,) * width)
    un = oracle_fragment(alg, (0,))
    ds = [OpTable(Profile((0,) * width, 0), alg.carriers, o) for (c, o) in wide if c == 0]
    es = [OpTable(Profile((0,), 0), alg.carriers, o) for (c, o) in un if c == 0]
    out = set()
    for d in ds:
        if any(d.apply((a,) * width) != a for a in range(n)):
            continue
        for combo in itertools.product(es, repeat=width):
            ok = True
            for args in itertools.product(range(n), repeat=width):
                y = d.apply(args)
                if any(e.apply((y,)) != e.apply((args[s],)) for s, e in enumerate(combo)):
                    ok = False
                    break
                if d.apply(tuple(e.apply((a,)) for e, a in zip(combo, args))) != d.apply(args):
                    ok = False
                    break
            if ok:
                out.add((d.outputs, tuple(e.outputs for e in combo)))
    return out


def diag_style_pair(h):
    """The pair every collapsed algebra carries: d is the diag table and
    e_s keeps component s, rebuilding the rest through cross terms."""
    alg = h.source
    assert alg.carriers == (2, 3)
    cu, cw = alg.table("cu"), alg.table("cw")
    e0 = tuple(h.encode((h.decode(x)[0], cu.apply((h.decode(x)[0],)))) for x in range(6))
    e1 = tuple(h.encode((cw.apply((h.decode(x)[1],)), h.decode(x)[1])) for x in range(6))
    return DiagonalPair(
        h.algebra.table("diag"),
        (OpTable(Profile((0,), 0), (6,), e0), OpTable(Profile((0,), 0), (6,), e1)),
    )


def test_diag_style_pair_verifies():
    h = homogenize(corpus_algebra("a_tiny"))
    pair = diag_style_pair(h)
    ver = verify_diagonal_pair(h.algebra, pair)
    assert ver.ok, ver.failures()
    strict, witness = exact_projection_holds(h.algebra, pair)
    assert not strict and witness is not None


def test_search_matches_oracle_a_tiny():
    h = homogenize(corpus_algebra("a_tiny"))
    found = find_diagonal_pairs(h.algebra, 2)
    got = {(p.d.outputs, tuple(e.outputs for e in p.es)) for p in found}
    assert got == oracle_pairs(h.algebra, 2)
    assert len(found) == len(got)
    diag = h.algebra.table("diag").outputs
    sharing = [p for p in found if p.d.outputs == diag]
    # frozen from the oracle run: ten pairs, four of them over the diag
    # table (two cross-term choices per slot)
    assert len(found) == 10
    assert len(sharing) == 4, "expected several e-families over the diag table"
    assert diag_style_pair(h) in found


def test_search_matches_oracle_a_malcev():
    h = homogenize(corpus_algebra("a_malcev"))
    found = find_diagonal_pairs(h.algebra, 2)
    got = {(p.d.outputs, tuple(e.outputs for e in p.es)) for p in found}
    assert got == oracle_pairs(h.algebra, 2)
    assert len(found) == 4  # frozen from the oracle run
    assert any(p.d.outputs == h.algebra.table("diag").outputs for p in found)


def test_no_pairs_without_cross_terms():
    h = homogenize(corpus_algebra("nonpure"))
    assert find_diagonal_pairs(h.algebra, 2) == ()


def test_width_one_admits_only_the_identity_pair():
    h = homogenize(corpus_algebra("a_group"))
    found = find_diagonal_pairs(h.algebra, 1)
    assert len(found) == 1
    ident = tuple(range(3))
    assert found[0].d.outputs == ident and found[0].es[0].outputs == ident


def test_verify_rejects_shape_problems():
    alg = corpus_algebra("a_tiny")
    h = homogenize(alg)
    pair = diag_style_pair(h)
    ver = verify_diagonal_pair(alg, pair)  # many-sorted target
    assert not ver.ok and ver.checks[0].name == "shape"


def test_diagonal_identity_on_the_diag_table():
    for name in ["a_tiny", "a_malcev", "a_semilat"]:
        h = homogenize(corpus_algebra(name))
        ok, witness = satisfies_diagonal_identity(h.algebra, h.algebra.table("diag"))
        assert ok and witness is None, name


def test_diagonal_identity_fails_for_doubling():
    h = homogenize(corpus_algebra("a_group"))
    f = OpTable(Profile((0, 0), 0), (3,),
                tuple((2 * x + 2 * y) % 3 for x, y in itertools.product(range(3), range(3))))
    frag = generate_fragment(h.algebra, [(0, 0)])
    assert f in fragment_tables(frag, Profile((0, 0), 0)), "2x+2y is a term"
    ok, witness = satisfies_diagonal_identity(h.algebra, f)
    assert not ok and witness is not None
    rows = [witness[0:2], witness[2:4]]
    outer = f.apply((f.apply(rows[0]), f.apply(rows[1])))
    assert outer != f.apply((rows[0][0], rows[1][1]))


def test_matrix_product_carrier_and_symbols():
    h = homogenize(corpus_algebra("a_tiny"))
    mp = matrix_product(h.algebra, diag_style_pair(h))
    assert mp.algebra.carriers == (6,)
    assert mp.sizes == (2, 3)
    names = [s.name for s in mp.algebra.signature.symbols]
    assert names[:4] == ["mp_diag", "mp_lift_cu", "mp_lift_cw", "mp_lift_m"]
    assert names[-3:] == ["mp_d", "mp_e0", "mp_e1"]


def test_transport_is_an_isomorphism_on_elements():
    """a -> (index of e_s(a))_s carries every source operation to its
    transported table, with d-recombination as the inverse."""
    h = homogenize(corpus_algebra("a_tiny"))
    pair = diag_style_pair(h)
    mp = matrix_product(h.algebra, pair)
    pos = [{v: i for i, v in enumerate(r)} for r in mp.retracts]
    mu = [mp.encode(tuple(pos[s][e.apply((a,))] for s, e in enumerate(pair.es)))
          for a in range(6)]
    assert sorted(mu) == list(range(6))
    for a in range(6):
        assert mp.recombine(mu[a]) == a
    for sym in h.algebra.signature.symbols:
        f = h.algebra.table(sym.name)
        g = mp.algebra.table("mp_%s" % sym.name)
        for args in itertools.product(range(6), repeat=f.arity):
            assert mu[f.apply(args)] == g.apply(tuple(mu[a] for a in args)), (sym.name, args)


def test_projections_transport_to_projections():
    h = homogenize(corpus_algebra("a_malcev"))
    pair = diag_style_pair_malcev(h)
    for i in range(2):
        from msalg.core import projection
        pi = projection(h.algebra.carriers, (0, 0), i)
        assert decompose_table(h.algebra, pair, pi) == projection((6,), (0, 0), i)


def diag_style_pair_malcev(h):
    alg = h.source
    qu, qw = alg.table("qu"), alg.table("qw")
    e0 = tuple(h.encode((h.decode(x)[0], qu.apply((h.decode(x)[0],)))) for x in range(6))
    e1 = tuple(h.encode((qw.apply((h.decode(x)[1],)), h.decode(x)[1])) for x in range(6))
    return DiagonalPair(
        h.algebra.table("diag"),
        (OpTable(Profile((0,), 0), (6,), e0), OpTable(Profile((0,), 0), (6,), e1)),
    )


def test_decomposition_checks_a_tiny():
    h = homogenize(corpus_algebra("a_tiny"))
    pair = diag_style_pair(h)
    for lam in (1, 2):
        ver = verify_decomposition(h.algebra, pair, lam)
        assert ver.ok, (lam, ver.failures())


def test_decomposition_checks_a_malcev():
    h = homogenize(corpus_algebra("a_malcev"))
    pair = diag_style_pair_malcev(h)
    for lam in (1, 2):
        ver = verify_decomposition(h.algebra, pair, lam)
        assert ver.ok, (lam, ver.failures())


def test_decomposition_at_lam_0_with_constants():
    alg = build_algebra([("u", 2), ("w", 2)], [("cu", ["u"], "w", [1, 0]), ("cw", ["w"], "u", [0, 1]),
                                               ("k", [], "u", [1])])
    h = homogenize(alg)
    ver = verify_decomposition(h.algebra, canonical_pair(h), 0)
    assert ver.ok, ver.failures()
    assert ver.checks[0].detail == "4 tables, 4 images"


def test_an_uncertified_split_fails_closed(monkeypatch):
    # every pair matrix_product accepts makes recombine . split the
    # identity; a split that breaks it must fail the composition check
    # rather than pass it unproved
    h = homogenize(corpus_algebra("a_tiny"))
    pair = canonical_pair(h)
    mp = matrix_product(h.algebra, pair)
    recombine, split = diagonal._transport_maps(pair, mp.retracts)
    monkeypatch.setattr(diagonal, "_transport_maps", lambda p, r: (recombine, np.roll(split, 1)))
    checks = {c.name: c for c in verify_decomposition(h.algebra, pair, 1).checks}
    assert (checks["composition-compatible"].ok, checks["composition-compatible"].detail) == (False, "not certified")
    assert not checks["element-bijection"].ok


def test_matrix_product_rejects_non_pairs():
    h = homogenize(corpus_algebra("a_tiny"))
    pair = diag_style_pair(h)
    broken = DiagonalPair(pair.d, (pair.es[1], pair.es[0]))
    assert not verify_diagonal_pair(h.algebra, broken).ok
    with pytest.raises(ProfileError):
        matrix_product(h.algebra, broken)


def test_composition_compatibility_spot():
    h = homogenize(corpus_algebra("a_tiny"))
    pair = diag_style_pair(h)
    frag = generate_fragment(h.algebra, [(0,)])
    tabs = fragment_tables(frag, Profile((0,), 0))
    for f in tabs:
        for g in tabs:
            left = decompose_table(h.algebra, pair, compose(f, (g,)))
            right = compose(decompose_table(h.algebra, pair, f),
                            (decompose_table(h.algebra, pair, g),))
            assert left == right
