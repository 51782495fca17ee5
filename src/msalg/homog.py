"""Collapse a many-sorted algebra onto one sort.

The single carrier is the product of the source carriers, coded mixed-radix
with sort 0 most significant.  The signature keeps one n-ary symbol
"lift_<f>" per source symbol f plus one fresh S-ary symbol "diag" (S = sort
count):

  - component s of diag is component s of its argument s;
  - the cod component of lift_f is f of the matching components of its
    arguments, and every other component is copied from argument 0.

A nullary f has no argument 0 to copy junk from.  When every sort has some
closed term, lift_f stays nullary and the junk slots take the least value a
closed term can produce in that sort; otherwise lift_f gains one dummy
argument that supplies the junk components.

For a single-sorted input the result is the same algebra with lift_ renames
and an extra unary "diag" that is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

from .core import (
    BudgetError,
    MAX_ARITY,
    OpTable,
    Profile,
    ProfileError,
    SortedAlgebra,
    SortedSignature,
    Symbol,
    TABLE_BUDGET,
    check_arity,
    decode_digits,
    decode_mixed,
    distinct_rows,
    encode_choices,
    encode_digits,
    encode_mixed,
    gather,
    is_homomorphism,
    tabulate,
)
from .clone import generate_fragment


@dataclass(frozen=True)
class HomogenizedAlgebra:
    algebra: SortedAlgebra
    source: SortedAlgebra
    radices: tuple[int, ...]

    @property
    def size(self) -> int:
        return prod(self.radices)

    def encode(self, values) -> int:
        return encode_mixed(values, self.radices)

    def decode(self, code: int) -> tuple[int, ...]:
        return decode_mixed(code, self.radices)


def _closed_term_values(alg: SortedAlgebra):
    """Per sort, the sorted set of values closed terms can take."""
    frag = generate_fragment(alg, [()])
    return [tuple(distinct_rows(frag.matrices[Profile((), s)]).ravel().tolist()) for s in range(alg.n_sorts)]


def _lift(radices, f: OpTable) -> OpTable:
    """f on the product carrier.  A nullary f gets one dummy argument, which
    supplies the junk components."""

    def lifted(*cols):
        decoded = [decode_digits(c, radices) for c in cols]
        comps = list(decoded[0])
        comps[f.profile.cod] = gather(f, [d[s] for d, s in zip(decoded, f.profile.inputs)])
        return encode_digits(comps, radices)

    return tabulate(Profile((0,) * max(f.arity, 1), 0), (prod(radices),), lifted)


def _diag_table(radices) -> OpTable:
    S = len(radices)
    return tabulate(Profile((0,) * S, 0), (prod(radices),),
                    lambda *cols: encode_digits(
                        [decode_digits(c, radices)[s] for s, c in enumerate(cols)], radices))


@lru_cache(maxsize=256)
def homogenize(alg: SortedAlgebra, *, max_arity: int = MAX_ARITY) -> HomogenizedAlgebra:
    """The collapse of alg onto its product carrier.  Cached by value, like
    clone._closure_full."""
    S = alg.n_sorts
    check_arity(S, max_arity, "diag symbol (one argument per sort)")
    radices = alg.carriers
    n = prod(radices)
    symbols = [Symbol("diag", Profile((0,) * S, 0))]
    tables = [_diag_table(radices)]
    closed = None
    for sym, f in zip(alg.signature.symbols, alg.tables):
        if f.arity == 0 and closed is None:
            closed = _closed_term_values(alg)
        if f.arity == 0 and all(closed):
            comps = [vals[0] for vals in closed]
            comps[f.profile.cod] = f.outputs[0]
            lifted = OpTable(Profile((), 0), (n,), (encode_mixed(comps, radices),))
        else:
            lifted = _lift(radices, f)
        symbols.append(Symbol("lift_%s" % sym.name, lifted.profile))
        tables.append(lifted)

    result = SortedAlgebra(SortedSignature(("h",), tuple(symbols)), (n,), tuple(tables))
    return HomogenizedAlgebra(algebra=result, source=alg, radices=radices)


def lift_table(h: HomogenizedAlgebra, f: OpTable) -> OpTable:
    """Lift one many-sorted table with arity >= 1 to the product carrier."""
    if f.arity < 1:
        raise ProfileError("nullary tables need the junk policy in homogenize")
    return _lift(h.radices, f)


def assemble(h: HomogenizedAlgebra, gs) -> OpTable:
    """Glue one table per sort into a single product-carrier table.

    gs[s] must land in sort s, be over the source's carriers and all share
    the input profile (0, 1, ..., S-1) repeated: argument i of the result
    decodes to argument block i of each g_s.
    """
    S = len(h.radices)
    if len(gs) != S or S < 1:
        raise ProfileError("need one component table per sort, got %d for %d sorts" % (len(gs), S))
    rho = tuple(range(S))
    lam, rem = divmod(gs[0].profile.arity, S)
    if rem or any(g.profile.inputs != rho * lam for g in gs):
        raise ProfileError("component tables must share the input profile %r repeated" % (rho,))
    for s, g in enumerate(gs):
        if g.profile.cod != s:
            raise ProfileError("component %d lands in sort %d" % (s, g.profile.cod))
        if g.carriers != h.source.carriers:
            raise ProfileError("component %d is over carriers %r, not the source's %r"
                               % (s, g.carriers, h.source.carriers))

    outputs = encode_choices([[g.outputs] for g in gs], h.radices)[0]
    return OpTable(Profile((0,) * lam, 0), (h.size,), tuple(outputs.tolist()))


def assembled_fragment(h: HomogenizedAlgebra, lam: int, *,
                       budget: int = TABLE_BUDGET) -> dict[tuple[int, ...], OpTable]:
    """Every lam-ary product-carrier table assembled from source terms.

    One table per choice of a source term into each sort, all over the
    decoded-argument profile; the lam-ary fragment of the product algebra
    must equal this set.  Keyed by outputs, first choice in itertools.product
    order kept.  Requires lam >= 1 and at most budget choices.
    """
    if lam < 1:
        raise ProfileError("assembly needs lam >= 1, got %d" % lam)
    S = len(h.radices)
    rho = tuple(range(S)) * lam
    frag = generate_fragment(h.source, [rho], budget=budget)
    per_sort = [frag.matrices[Profile(rho, s)] for s in range(S)]
    if prod(len(m) for m in per_sort) > budget:
        raise BudgetError("assembly would exceed the table budget")
    codes = encode_choices(per_sort, h.radices)
    profile = Profile((0,) * lam, 0)
    return {outs: OpTable(profile, (h.size,), outs) for outs in dict.fromkeys(map(tuple, codes.tolist()))}


def morphism_lift(hA: HomogenizedAlgebra, hB: HomogenizedAlgebra, maps):
    """Turn per-sort maps A_s -> B_s into one map between product carriers."""
    if len(hA.radices) != len(hB.radices):
        raise ProfileError("sort counts differ")
    comps = decode_digits(np.arange(hA.size), hA.radices)
    images = [np.asarray(m, dtype=np.int64)[c] for m, c in zip(maps, comps, strict=True)]
    return tuple(encode_digits(images, hB.radices).tolist())


def verify_morphism_lift(hA: HomogenizedAlgebra, hB: HomogenizedAlgebra, maps):
    """Check maps is a homomorphism of the sources and that its product-
    carrier lift is one of the lifted algebras.  Returns (ok, detail)."""
    src_ok, src_wit = is_homomorphism(hA.source, hB.source, maps)
    if not src_ok:
        return False, "source maps break at %r" % (src_wit,)
    lifted = morphism_lift(hA, hB, maps)
    ok, wit = is_homomorphism(hA.algebra, hB.algebra, (lifted,))
    if not ok:
        return False, "lifted map breaks at %r" % (wit,)
    return True, ""
