"""Diagonal pairs on a single-sorted algebra and the product they induce.

A diagonal pair of width S on an algebra C is an S-ary term operation d
together with unary term operations e_0, ..., e_{S-1} satisfying, for all
arguments:

  collapse      e_s(d(x_0, ..., x_{S-1})) = e_s(x_s)
  absorption    d(e_0(x_0), ..., e_{S-1}(x_{S-1})) = d(x_0, ..., x_{S-1})
  diagonal      d(a, a, ..., a) = a

Idempotence of each e_s follows but is checked anyway.  The strict variant
of collapse, e_s(d(x)) = x_s outright, forces every e_s to be the identity
on carriers with two or more elements, so it is not part of the verdict;
exact_projection_holds reports it separately.  Each equation is one
whole-table comparison, witnessed by core.first_failure.

The pair splits C into the retract images R_s = e_s(C).  The matrix product
rebuilds an algebra on the product of the retracts, with each basic
operation g transported along the decomposition map

  phi(g) = split . g . (recombine x ... x recombine)

where recombine sends a product code to d of its retract components and
split sends c to the code of (e_s(c) for each s).  Both are lookup arrays
over one carrier, so a transported table is one gather, and so is a
fragment matrix transported a table per row.  The checks
compare three independently computed versions of the lam-ary tables of the
product: the transported image phi(Clo_lam(C)), the fragment generated from
the transported basics, and the assembly of e_s-image classes of the clone
closed over the retract-valued part of the domain.  phi commutes with
composition as soon as recombine . split is the identity on C, which the
pair equations force: recombine(split y) = d(e_0 y, ..., e_{S-1} y) =
d(y, ..., y) = y by absorption and the diagonal law, so phi is conjugation
by a bijection.  The composition check reads that certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod

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
    Var,
    Verification,
    check_arity,
    check_nonnegative,
    decode_digits,
    decode_mixed,
    distinct_rows,
    encode_choices,
    encode_digits,
    encode_mixed,
    first_failure,
    gather,
    grid_columns,
    open_grid,
    tabulate,
)
from .clone import generate_fragment, saturate


@dataclass(frozen=True)
class DiagonalPair:
    d: OpTable
    es: tuple[OpTable, ...]

    @property
    def width(self) -> int:
        return len(self.es)

    def retracts(self) -> tuple[tuple[int, ...], ...]:
        """Per slot, the sorted image of e_s."""
        return tuple(tuple(sorted(set(e.outputs))) for e in self.es)


def retract_maps(pair: DiagonalPair, retracts) -> list[np.ndarray]:
    """Per slot, the array y -> position of e_s(y) in retracts[s]."""
    return [np.searchsorted(r, e.outputs) for e, r in zip(pair.es, retracts)]


def _shape_ok(alg: SortedAlgebra, pair: DiagonalPair) -> str:
    if not alg.is_single_sorted:
        return "algebra must be single sorted"
    S = pair.width
    if pair.d.profile != Profile((0,) * S, 0):
        return "d must be %d-ary on the single sort" % S
    for s, e in enumerate(pair.es):
        if e.profile != Profile((0,), 0):
            return "e_%d must be unary" % s
    if pair.d.carriers != alg.carriers or any(e.carriers != alg.carriers for e in pair.es):
        return "tables built over different carriers"
    return ""


def stack_tables(tables, size: int) -> np.ndarray:
    """The tables as one (len(tables), size) array, row i holding the
    outputs of tables[i]."""
    return np.asarray([t.outputs for t in tables], dtype=np.int64).reshape(len(tables), size)


def _collapse_failure(d: OpTable, es: np.ndarray, want) -> tuple | None:
    """First (s, args), args row-major then the least s, with e_s(d(args))
    != want(s, grid)[args], es stacked."""
    S, n = es.shape
    grid = open_grid((n,) * S)
    y = gather(d, grid)
    mask = np.empty((n,) * S + (S,), dtype=bool)
    for s in range(S):
        mask[..., s] = es[s][y] != want(s, grid)
    bad = first_failure(mask)
    return None if bad is None else (bad[-1], bad[:-1])


def verify_diagonal_pair(alg: SortedAlgebra, pair: DiagonalPair) -> Verification:
    """Check the three pair equations plus idempotence of each e_s; each
    failing check names its row-major-first witness (see first_failure)."""
    shape = _shape_ok(alg, pair)
    if shape:
        return Verification((CheckResult("shape", False, shape),))
    n = alg.carriers[0]
    S = pair.width
    es = stack_tables(pair.es, n)
    grid, points = open_grid((n,) * S), np.arange(n)
    folded = gather(pair.d, [es[s][c] for s, c in enumerate(grid)])
    found = [
        ("collapse", _collapse_failure(pair.d, es, lambda s, grid: es[s][grid[s]]),
         lambda w: "e_%d breaks at %r" % w),
        ("absorption", first_failure(folded != gather(pair.d, grid)),
         lambda w: "breaks at %r" % (w,)),
        ("diagonal", first_failure(gather(pair.d, [points] * S) != points),
         lambda w: "d fixes everything but %d" % w),
        ("idempotence", first_failure(np.take_along_axis(es, es, axis=1) != es),
         lambda w: "e_%d at %d" % w),
    ]
    return Verification((CheckResult("shape", True),) + tuple(
        CheckResult(name, bad is None, "" if bad is None else detail(bad)) for name, bad, detail in found))


def exact_projection_holds(alg: SortedAlgebra, pair: DiagonalPair):
    """The strict collapse e_s(d(x)) = x_s.  Reported separately because it
    only holds for identity retractions on carriers of size 2 or more."""
    if _shape_ok(alg, pair):
        return False, None
    bad = _collapse_failure(pair.d, stack_tables(pair.es, alg.carriers[0]), lambda s, grid: grid[s])
    return bad is None, bad


def satisfies_diagonal_identity(alg: SortedAlgebra, d: OpTable):
    """Collapsing an S x S grid row-wise and then once more agrees with
    collapsing the main diagonal.  Returns (ok, witness grid or None), one
    gather per first grid entry, so memory stays at n^(S*S - 1)."""
    if not alg.is_single_sorted or d.carriers != alg.carriers:
        raise ProfileError("d must be a table on the single-sorted algebra")
    S = d.arity
    n = alg.carriers[0]
    for first in range(n):
        grid = (first,) + open_grid((n,) * (S * S - 1))
        rows = [grid[s * S:(s + 1) * S] for s in range(S)]
        outer = gather(d, [gather(d, r) for r in rows])
        bad = first_failure(outer != gather(d, [rows[s][s] for s in range(S)]))
        if bad is not None:
            return False, (first,) + bad
    return True, None


def find_diagonal_pairs(alg: SortedAlgebra, width: int, *,
                        budget: int = TABLE_BUDGET) -> tuple[DiagonalPair, ...]:
    """All diagonal pairs of the given width among the term operations.

    Deterministic: candidates come out of fragment generation in insertion
    order and the result is sorted by (d outputs, e outputs).

    Separable: the collapse and idempotence equations each read one e_s, so
    per idempotent d every slot's candidates are filtered by them first,
    and only absorption, which couples the slots, is checked on the product
    of the survivors.  These are verify_diagonal_pair's checks, so exactly
    its passing pairs are found.
    """
    if not alg.is_single_sorted:
        raise ProfileError("diagonal pairs live on single-sorted algebras")
    check_nonnegative(width, "pair width")
    check_arity(width, MAX_ARITY, "pair width")
    frag = generate_fragment(alg, [(0,) * width, (0,)], budget=budget)
    n = alg.carriers[0]
    ds = frag.matrices[Profile((0,) * width, 0)]
    stacked = frag.matrices[Profile((0,), 0)].astype(np.int64)
    idempotent = (np.take_along_axis(stacked, stacked, axis=1) == stacked).all(axis=1)
    grid, points, axes = open_grid((n,) * width), np.arange(n), tuple(range(1, width + 1))
    diagonal = np.broadcast_to(encode_digits([points] * width, (n,) * width), n)
    found = []
    for d in ds[(ds[:, diagonal] == points).all(axis=1)]:
        y = d.reshape((n,) * width)
        # slot s keeps the idempotent e with e(d(x)) = e(x_s) everywhere
        slots = [np.flatnonzero(idempotent & (stacked[:, y] == stacked[:, c]).all(axis=axes)) for c in grid]
        for combo in itertools.product(*slots):
            if (d[encode_digits([stacked[i][c] for i, c in zip(combo, grid)], (n,) * width)] == y).all():
                found.append((tuple(d.tolist()), tuple(tuple(stacked[i].tolist()) for i in combo)))
    found.sort()
    return tuple(DiagonalPair(OpTable(Profile((0,) * width, 0), alg.carriers, d),
                              tuple(OpTable(Profile((0,), 0), alg.carriers, e) for e in es))
                 for d, es in found)


# ---------------------------------------------------------------------------
# the product over the retracts

@dataclass(frozen=True)
class MatrixProduct:
    """The algebra rebuilt on the product of the retract images.

    Carrier codes are mixed-radix over the retract sizes; decode gives per
    slot an index into retracts[s], element_of turns a code into the tuple
    of actual retract elements of the source carrier.
    """

    source: SortedAlgebra
    pair: DiagonalPair
    retracts: tuple[tuple[int, ...], ...]
    algebra: SortedAlgebra

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.retracts)

    def encode(self, indices) -> int:
        return encode_mixed(indices, self.sizes)

    def decode(self, code: int) -> tuple[int, ...]:
        return decode_mixed(code, self.sizes)

    def element_of(self, code: int) -> tuple[int, ...]:
        return tuple(r[i] for r, i in zip(self.retracts, self.decode(code)))

    def recombine(self, code: int) -> int:
        """d applied to the decoded retract elements."""
        return self.pair.d.apply(self.element_of(code))


@lru_cache(maxsize=8)
def _transport_maps(pair: DiagonalPair, retracts):
    """The decomposition map's halves as read-only arrays: recombine[b] is d
    of product code b's retract elements, split[y] the code of its slots."""
    sizes = tuple(len(r) for r in retracts)
    digits = decode_digits(np.arange(prod(sizes)), sizes)
    recombine = gather(pair.d, [np.asarray(r, dtype=np.int64)[i] for r, i in zip(retracts, digits)])
    split = encode_digits(retract_maps(pair, retracts), sizes)
    recombine.flags.writeable = split.flags.writeable = False
    return recombine, split


def decompose_table(source: SortedAlgebra, pair: DiagonalPair, f: OpTable,
                    retracts=None) -> OpTable:
    """Transport one term table of the source onto the product carrier."""
    retracts = pair.retracts() if retracts is None else tuple(tuple(r) for r in retracts)
    recombine, split = _transport_maps(pair, retracts)
    return tabulate(Profile((0,) * f.arity, 0), (len(recombine),),
                    lambda *cols: split[gather(f, [recombine[c] for c in cols])])


@lru_cache(maxsize=256)
def matrix_product(source: SortedAlgebra, pair: DiagonalPair) -> MatrixProduct:
    """Build the product algebra: one transported symbol per source symbol,
    plus the transported pair itself as mp_d and mp_e<s>.  Cached by value,
    like clone._closure_full."""
    ver = verify_diagonal_pair(source, pair)
    if not ver.ok:
        raise ProfileError("not a diagonal pair: %s" % (ver.failures()[0].name))
    retracts = pair.retracts()
    sizes = tuple(len(r) for r in retracts)
    N = prod(sizes)
    symbols = []
    tables = []
    for sym, f in zip(source.signature.symbols, source.tables):
        symbols.append(Symbol("mp_%s" % sym.name, Profile((0,) * f.arity, 0)))
        tables.append(decompose_table(source, pair, f, retracts))
    symbols.append(Symbol("mp_d", Profile((0,) * pair.width, 0)))
    tables.append(decompose_table(source, pair, pair.d, retracts))
    for s, e in enumerate(pair.es):
        symbols.append(Symbol("mp_e%d" % s, Profile((0,), 0)))
        tables.append(decompose_table(source, pair, e, retracts))
    alg = SortedAlgebra(SortedSignature(("p",), tuple(symbols)), (N,), tuple(tables))
    return MatrixProduct(source=source, pair=pair, retracts=retracts, algebra=alg)


def _class_assembled_fragment(mp: MatrixProduct, lam: int, *,
                              budget: int = TABLE_BUDGET) -> np.ndarray:
    """Second route to the lam-ary tables of the product, as the sorted
    distinct rows of a matrix.

    Work over the retract-valued argument points: close the position
    projections under the source basics, push each closed vector through
    e_s, and assemble one table per choice of an e_s-image class per slot.
    The restriction to retract-valued points is what identifies two source
    terms that land in the same class.
    """
    S = mp.pair.width
    retracts = mp.retracts
    positions = [retracts[s] for _ in range(lam) for s in range(S)]
    n_points = prod(len(r) for r in positions)
    rho = (0,) * (lam * S)
    cols = grid_columns(len(r) for r in positions)
    seeds = {0: [(np.asarray(r, dtype=np.int64)[c], Var(Profile(rho, 0), j))
                 for j, (r, c) in enumerate(zip(positions, cols))]}
    closed = saturate(mp.source, n_points, seeds, budget, ambient_inputs=rho)
    matrix, _terms = closed[0]
    # The e_s-image classes as slot-index rows; closure point j is domain
    # point j of a lam-ary product table, so one class per slot is a table.
    classes = [np.searchsorted(r, distinct_rows(gather(e, [matrix])))
               for r, e in zip(retracts, mp.pair.es)]
    if prod(len(c) for c in classes) > budget:
        raise BudgetError("class assembly would exceed the table budget")
    return distinct_rows(encode_choices(classes, mp.sizes))


def verify_decomposition(source: SortedAlgebra, pair: DiagonalPair, lam: int, *,
                         budget: int = TABLE_BUDGET) -> Verification:
    """Cross-check the transport at arity lam from three directions.

    phi of the source's lam-ary tables, stacked as rows of a matrix, is one
    gather: split[F[:, codes]], codes reading f at the recombined
    arguments of every product point.  The three routes' table sets are
    compared as sorted distinct rows.  composition-compatible is certified
    by recombine . split being the identity on C (see the module
    docstring)."""
    check_nonnegative(lam, "lam")
    mp = matrix_product(source, pair)
    frag_src = generate_fragment(source, [(0,) * lam], budget=budget)
    recombine, split = _transport_maps(pair, mp.retracts)
    F = frag_src.matrices[Profile((0,) * lam, 0)]
    cols = grid_columns((len(recombine),) * lam)
    P = split[F[:, np.ravel(encode_digits([recombine[c] for c in cols], (len(split),) * lam))]]
    checks = []

    images = distinct_rows(P)
    checks.append(CheckResult(
        "phi-injective", len(images) == len(F),
        "%d tables, %d images" % (len(F), len(images))))

    frag_mp = generate_fragment(mp.algebra, [(0,) * lam], budget=budget)
    mp_tables = distinct_rows(frag_mp.matrices[Profile((0,) * lam, 0)])
    checks.append(CheckResult(
        "phi-image-equals-generated", np.array_equal(images, mp_tables),
        "image %d vs generated %d" % (len(images), len(mp_tables))))

    class_tables = _class_assembled_fragment(mp, lam, budget=budget)
    checks.append(CheckResult(
        "phi-image-equals-classes", np.array_equal(images, class_tables),
        "image %d vs classes %d" % (len(images), len(class_tables))))

    n, distinct = source.carriers[0], len(set(split.tolist()))
    identity = recombine[split].tolist() == list(range(n))
    checks.append(CheckResult("composition-compatible", identity, "" if identity else "not certified"))

    bijective = distinct == n == mp.algebra.carriers[0] and identity
    checks.append(CheckResult(
        "element-bijection", bijective,
        "carrier %d, product %d, distinct %d" % (n, mp.algebra.carriers[0], distinct)))

    tp = DiagonalPair(mp.algebra.table("mp_d"),
                      tuple(mp.algebra.table("mp_e%d" % s) for s in range(pair.width)))
    ver = verify_diagonal_pair(mp.algebra, tp)
    checks.append(CheckResult("product-pair", ver.ok,
                              "" if ver.ok else ver.failures()[0].name))
    return Verification(tuple(checks))
