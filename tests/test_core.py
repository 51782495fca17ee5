"""Tables, composition, terms, and the encoding helpers.

Expected values here are either computed inline by an explicit pointwise
loop (the oracle for compose) or small enough to state directly.
"""

import itertools

import numpy as np
import pytest

from msalg import core, model
from msalg.core import (
    App,
    MAX_ARITY,
    OpTable,
    Profile,
    ProfileError,
    Term,
    Var,
    build_algebra,
    compose,
    constant_table,
    decode_mixed,
    distinct_rows,
    encode_mixed,
    eval_term,
    projection,
    table_of_term,
    table_search_key,
    term_depth,
    term_str,
    validate_term,
)
from msalg.corpus import corpus_algebra, corpus_names


def test_projection_is_argument_lookup():
    carriers = (2, 3)
    for inputs in [(0,), (1,), (0, 1), (1, 0, 1)]:
        for pos in range(len(inputs)):
            p = projection(carriers, inputs, pos)
            assert p.profile == Profile(inputs, inputs[pos])
            for args in p.domain():
                assert p.apply(args) == args[pos], (inputs, pos, args)


def test_constant_table():
    t = constant_table((2, 3), (0, 0), 1, 2)
    assert t.outputs == (2, 2, 2, 2)
    assert t.profile == Profile((0, 0), 1)


def pointwise_compose(f, gs, inputs):
    """Oracle: evaluate f after the gs, one domain point at a time."""
    carriers = f.carriers
    sizes = [carriers[s] for s in inputs]
    out = []
    for args in itertools.product(*(range(n) for n in sizes)):
        inner = tuple(g.apply(args) for g in gs)
        out.append(f.apply(inner))
    return OpTable(Profile(tuple(inputs), f.profile.cod), carriers, tuple(out))


def test_compose_against_pointwise_oracle():
    alg = corpus_algebra("a_malcev")
    pu = alg.table("pu")
    carriers = alg.carriers
    inputs = (0, 0)
    g0 = projection(carriers, inputs, 1)
    g1 = projection(carriers, inputs, 0)
    g2 = projection(carriers, inputs, 1)
    got = compose(pu, (g0, g1, g2))
    assert got == pointwise_compose(pu, (g0, g1, g2), inputs)
    # x - y + x over Z2 collapses to y; spell the expected table out
    expected = tuple((y - x + y) % 2 for x, y in itertools.product(range(2), range(2)))
    assert got.outputs == expected


def test_compose_oracle_on_every_basic_operation():
    for name in corpus_names():
        alg = corpus_algebra(name)
        for sym in alg.signature.symbols:
            f = alg.table(sym.name)
            if f.arity == 0:
                continue
            # feed it projections over a shuffled two-argument profile
            inputs = tuple(sym.profile.inputs[::-1]) + (sym.profile.inputs[0],)
            gs = tuple(projection(alg.carriers, inputs, [inputs.index(s) for s in sym.profile.inputs][j])
                       for j in range(f.arity))
            assert compose(f, gs) == pointwise_compose(f, gs, inputs), (name, sym.name)


def test_compose_outer_identity():
    """Projecting out of a tuple of maps returns the map at that spot."""
    alg = corpus_algebra("a_tiny")
    carriers = alg.carriers
    inputs = (1, 1)
    gs = (alg.table("m"),
          compose(alg.table("cu"), (alg.table("cw"),)))
    gs = tuple(compose(g, (projection(carriers, inputs, i),)) for i, g in enumerate(gs))
    for i in range(2):
        pi = projection(carriers, (1, 1), i)
        assert compose(pi, gs) == gs[i], i


def test_compose_inner_identity():
    """Composing with the matching projections changes nothing."""
    for name in corpus_names():
        alg = corpus_algebra(name)
        for sym in alg.signature.symbols:
            f = alg.table(sym.name)
            if f.arity == 0:
                continue
            pis = tuple(projection(alg.carriers, sym.profile.inputs, j) for j in range(f.arity))
            assert compose(f, pis) == f, (name, sym.name)


def test_build_algebra_needs_a_sort():
    with pytest.raises(ProfileError, match="at least one sort"):
        build_algebra([], [])


def test_compose_nullary_needs_explicit_inputs():
    alg = build_algebra([("s", 2)], [("c", [], "s", [1])])
    c = alg.table("c")
    with pytest.raises(ProfileError):
        compose(c, ())
    t = compose(c, (), inputs=(0, 0))
    assert t.profile == Profile((0, 0), 0)
    assert t.outputs == (1, 1, 1, 1)


def test_compose_rejects_mismatched_inner_profiles():
    alg = corpus_algebra("a_tiny")
    f = alg.table("m")
    g_bad = projection(alg.carriers, (0,), 0)  # lands in sort u, m wants w
    with pytest.raises(ProfileError):
        compose(f, (g_bad,))


def test_eval_term_matches_tabulation():
    alg = corpus_algebra("a_tiny")
    prof = Profile((1, 0), 1)
    x0 = Var(prof, 0)
    x1 = Var(Profile((1, 0), 0), 1)
    t = App(prof, "m", (App(prof, "cu", (x1,)),))
    validate_term(alg, t)
    tab = table_of_term(alg, t)
    for args in itertools.product(range(3), range(2)):
        assert eval_term(alg, t, args) == tab.apply(args), args
    assert term_depth(t) == 2
    assert term_str(t) == "(m (cu x1))"


def test_term_validation_rejects_sort_mismatch():
    with pytest.raises(ProfileError):
        Var(Profile((1, 0), 0), 0)  # position 0 has sort 1, cod says 0
    alg = corpus_algebra("a_tiny")
    prof = Profile((0,), 1)
    bad = App(prof, "m", (Var(Profile((0,), 0), 0),))  # m wants sort w
    with pytest.raises(ProfileError):
        validate_term(alg, bad)


def test_terms_that_are_neither_variable_nor_application_are_rejected():
    alg = corpus_algebra("a_tiny")
    odd = Term(Profile((0,), 0))
    with pytest.raises(ProfileError):
        validate_term(alg, odd)
    with pytest.raises(ProfileError):
        eval_term(alg, odd, (0,))
    with pytest.raises(ProfileError):
        table_of_term(alg, App(Profile((1,), 1), "m", (Term(Profile((1,), 1)),)))


def test_signature_validation():
    with pytest.raises(ProfileError):
        build_algebra([("s", 2), ("s", 3)], [])
    with pytest.raises(ProfileError):
        build_algebra([("s", 2)], [("f", ["s"], "s", [0, 1]), ("f", ["s"], "s", [1, 0])])
    with pytest.raises(ProfileError):
        build_algebra([("s", 2)], [("f", ["s"] * (MAX_ARITY + 1), "s", [0] * 2 ** (MAX_ARITY + 1))])


def test_table_validation():
    with pytest.raises(ProfileError):
        OpTable(Profile((0,), 0), (2,), (0, 1, 0))  # wrong length
    with pytest.raises(ProfileError):
        OpTable(Profile((0,), 0), (2,), (0, 2))  # value outside carrier


def test_empty_carrier_is_allowed():
    alg = build_algebra([("e", 0), ("s", 2)], [("f", ["e"], "e", [])])
    assert alg.table("f").outputs == ()
    assert list(alg.table("f").domain()) == []


def test_mixed_radix_round_trip():
    for radices in [(2, 3), (3, 2, 2), (1,), (4,)]:
        seen = []
        for values in itertools.product(*(range(r) for r in radices)):
            code = encode_mixed(values, radices)
            assert decode_mixed(code, radices) == values
            seen.append(code)
        # first component most significant: codes come out in order
        assert seen == list(range(len(seen)))


def test_table_search_key_distinguishes_tables():
    alg = corpus_algebra("a_tiny")
    k1 = table_search_key(alg.table("m"))
    k2 = table_search_key(alg.table("cw"))
    assert k1 != k2
    assert k1 == table_search_key(alg.table("m"))
    assert len(k1) == 32


def test_distinct_rows_is_unique_along_axis_zero():
    """Values, dtype and shape as np.unique(m, axis=0), on uint8, on
    uint16 rows that differ only in the high byte, on int64, and with no
    rows or no columns."""
    cases = [
        np.array([[2, 1], [0, 3], [2, 1], [0, 0]], dtype=np.uint8),
        np.array([[0x100, 1], [0, 1], [0x100, 1], [0x200, 1]], dtype=np.uint16),
        np.array([[5, -1, 2], [5, -1, 2], [-7, 0, 0]], dtype=np.int64),
        np.zeros((0, 4), dtype=np.uint8),
        np.zeros((3, 0), dtype=np.int64),
    ]
    for m in cases:
        got, want = distinct_rows(m), np.unique(m, axis=0)
        assert got.dtype == want.dtype and got.shape == want.shape, m
        assert np.array_equal(got, want), m


@pytest.mark.parametrize("dtype, high", [(np.uint8, 6), (np.uint16, 1 << 16), (np.int64, 1 << 40)])
def test_distinct_rows_matches_unique_on_seeded_matrices_with_duplicate_rows(dtype, high):
    # uint16 draws reach past 255, so a key read little-endian would misorder
    rng = np.random.default_rng(20)
    for _ in range(40):
        base = rng.integers(0, high, size=(rng.integers(1, 12), rng.integers(1, 7)), dtype=dtype)
        m = base[rng.integers(0, len(base), size=3 * len(base))]
        got, want = distinct_rows(m), np.unique(m, axis=0)
        assert got.dtype == want.dtype and np.array_equal(got, want), m


# the data model that moved from core to model; core imports each of them
MODEL_NAMES = (
    "JONSSON_MAX MAX_ARITY MU_MAX SUBUNIVERSE_BUDGET TABLE_BUDGET App BudgetError CheckResult OpTable"
    " Profile ProfileError SortedAlgebra SortedSignature Symbol Term Var Verification build_algebra"
    " check_arity check_nonnegative constant_table eval_term table_search_key term_depth term_str"
    " validate_term").split()


def test_core_gives_every_name_of_model_as_the_same_object():
    defined = [name for name, value in vars(model).items() if not name.startswith("_")
               and (name.isupper() or getattr(value, "__module__", None) == model.__name__)]
    assert sorted(defined) == sorted(MODEL_NAMES)
    assert [name for name in defined if getattr(core, name, None) is not getattr(model, name)] == []


def test_the_table_kernels_stay_defined_in_core():
    # perfbench wraps msalg.core.compose, and callers reach these through core
    for name in ("compose", "projection", "table_of_term"):
        assert getattr(core, name).__module__ == "msalg.core"
        assert not hasattr(model, name)
