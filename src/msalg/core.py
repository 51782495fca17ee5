"""Array kernels over the tables of model: mixed-radix codes, the open-grid
tabulation kernel and its witness rule, row helpers on table matrices,
projections, composition, the tables of terms, and homomorphism checks.

Every name of model is imported here as well, so `from .core import
Profile` and `msalg.core.OpTable` give the same objects as model's.
"""

from __future__ import annotations

from math import prod

import numpy as np

from .model import (
    JONSSON_MAX,
    MAX_ARITY,
    MU_MAX,
    SUBUNIVERSE_BUDGET,
    TABLE_BUDGET,
    App,
    BudgetError,
    CheckResult,
    OpTable,
    Profile,
    ProfileError,
    SortedAlgebra,
    SortedSignature,
    Symbol,
    Term,
    Var,
    Verification,
    build_algebra,
    check_arity,
    check_nonnegative,
    constant_table,
    eval_term,
    table_search_key,
    term_depth,
    term_str,
    validate_term,
)


def projection(carriers: tuple[int, ...], inputs: tuple[int, ...], pos: int) -> OpTable:
    """The pos-th projection at the given input profile."""
    if not 0 <= pos < len(inputs):
        raise ProfileError("projection position %d outside %d inputs" % (pos, len(inputs)))
    return tabulate(Profile(inputs, inputs[pos]), carriers, lambda *cols: cols[pos])


def compose(f: OpTable, gs: tuple[OpTable, ...], *, inputs: tuple[int, ...] | None = None) -> OpTable:
    """Composite f(g_0(..), ..., g_{m-1}(..)) over one shared input profile.

    When gs is empty the shared input profile cannot be inferred and must be
    supplied; the result is then the constant table at f's value.
    """
    if len(gs) != f.arity:
        raise ProfileError("outer table has arity %d, got %d inner tables" % (f.arity, len(gs)))
    for pos, g in enumerate(gs):
        if g.carriers != f.carriers:
            raise ProfileError("inner table %d lives over different carriers" % pos)
        if g.profile.cod != f.profile.inputs[pos]:
            raise ProfileError(
                "inner table %d has cod sort %d, outer input wants %d"
                % (pos, g.profile.cod, f.profile.inputs[pos])
            )
        if g.profile.inputs != gs[0].profile.inputs:
            raise ProfileError("inner tables disagree on the shared input profile")
    if gs:
        inputs = gs[0].profile.inputs
    elif inputs is None:
        raise ProfileError("composition with no inner tables needs an explicit input profile")
    return tabulate(Profile(inputs, f.profile.cod), f.carriers,
                    lambda *cols: gather(f, [gather(g, cols) for g in gs]))


def table_of_term(alg: SortedAlgebra, t: Term) -> OpTable:
    """Tabulate t over the full input product.

    Built bottom-up by table composition, so the cost is one composition per
    subterm rather than one recursive evaluation per domain point.
    validate_term raises ProfileError first on any ill-shaped subterm.
    """
    validate_term(alg, t)
    inputs = t.profile.inputs

    def rec(u: Term) -> OpTable:
        if isinstance(u, Var):
            return projection(alg.carriers, inputs, u.index)
        return compose(alg.table(u.symbol), tuple(rec(a) for a in u.args), inputs=inputs)

    return rec(t)


# ---------------------------------------------------------------------------
# mixed-radix codes and the tabulation kernel, the one owner of row-major
# domain order and digit order.  A table is built over an open grid, so
# per-argument work stays on length-n columns; only gather and encode are
# domain sized.

def encode_mixed(values, radices) -> int:
    if not all(0 <= v < r for v, r in zip(values, radices, strict=True)):
        raise ValueError("digits %r outside radices %r" % (tuple(values), tuple(radices)))
    return int(encode_digits(values, radices))


def decode_mixed(code: int, radices) -> tuple[int, ...]:
    if not 0 <= code < prod(radices):
        raise ValueError("code %r outside radices %r" % (code, tuple(radices)))
    return tuple(int(d) for d in decode_digits(code, radices))


def encode_digits(digits, radices) -> np.ndarray:
    """encode_mixed on broadcastable arrays of digits known to be in range."""
    code = np.int64(0)
    for d, r in zip(digits, radices, strict=True):
        code = code * r + d
    return code


def encode_choices(stacks, radices) -> np.ndarray:
    """encode_digits at every choice of one row per stack, each stack of
    shape (rows, points): the result has shape (choices, points), choices
    in itertools.product order, stack 0 the most significant digit."""
    k = len(stacks)
    code = encode_digits([np.expand_dims(np.asarray(st, dtype=np.int64), [j for j in range(k) if j != s])
                          for s, st in enumerate(stacks)], radices)
    return code.reshape(prod(code.shape[:-1]), code.shape[-1])


def decode_digits(codes, radices) -> tuple[np.ndarray, ...]:
    """decode_mixed on an array of codes: one digit array per radix."""
    out = []
    for r in reversed(radices):
        codes, digit = np.divmod(codes, r)
        out.append(digit)
    return tuple(reversed(out))


def open_grid(sizes) -> tuple[np.ndarray, ...]:
    """One index column per argument, broadcasting to the row-major domain."""
    sizes = tuple(sizes)
    return tuple(np.arange(n).reshape([n if j == i else 1 for j in range(len(sizes))])
                 for i, n in enumerate(sizes))


def grid_columns(sizes) -> list[np.ndarray]:
    """Each open-grid column spread over the whole domain: the projections."""
    sizes = tuple(sizes)
    return [np.broadcast_to(c, sizes).ravel() for c in open_grid(sizes)]


def gather(t: OpTable, args) -> np.ndarray:
    """t at broadcastable argument arrays, one per input."""
    return np.asarray(t.outputs, dtype=np.int64)[encode_digits(args, t.domain_sizes)]


def first_failure(mask):
    """The row-major-first index tuple where a boolean array of the full
    domain shape is True, as Python ints, or None: every witness rule."""
    mask = np.asarray(mask)
    return tuple(int(i) for i in np.unravel_index(int(mask.argmax()), mask.shape)) if mask.any() else None


def distinct_rows(m: np.ndarray) -> np.ndarray:
    """np.unique(m, axis=0) for an integer matrix: the sorted distinct rows,
    same dtype.

    One np.unique over the rows' byte keys, each entry written big-endian
    with its sign bit flipped when signed, so that byte order is numeric
    order; the first row of each key is kept.  That is several times faster
    than np.unique(axis=0), which argsorts rows as structured records.
    Asking for the first indexes also keeps numpy 2.4 from calling
    np.ma.is_masked on the result, which imports numpy.ma (10-18 ms) on
    first use."""
    if not m.size:
        return m[:1]
    if m.min() >= 0:
        keys = m.astype(">u%d" % np.min_scalar_type(m.max()).itemsize)
    else:
        size = m.dtype.itemsize
        keys = m.astype(">i%d" % size).view(">u%d" % size)
        keys ^= keys.dtype.type(1 << (8 * size - 1))
    return m[np.unique(row_keys(keys), return_index=True)[1]]


def row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row as one opaque np.void value of its bytes (V0 for zero-width
    rows, which .view cannot make)."""
    if not rows.shape[1]:
        return np.zeros(len(rows), dtype="V0")
    return np.ascontiguousarray(rows).view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()


def novel_rows(rows: np.ndarray, seen: set) -> list[int]:
    """Indexes of the rows whose bytes are not in seen, each at its first
    occurrence in order; their bytes join seen."""
    width = rows.shape[1] * rows.itemsize
    data = np.ascontiguousarray(rows).tobytes()
    keys = [data[at:at + width] for at in range(0, len(data), width)] if width else [b""] * len(rows)
    # set.add returns None, so a key passes the filter once, when first met.
    return [i for i, key in enumerate(keys) if key not in seen and not seen.add(key)]


def tabulate(profile: Profile, carriers: tuple[int, ...], fn) -> OpTable:
    """The table of fn(*open_grid(domain)), broadcast to the domain and
    raveled row-major into Python ints, as table_search_key expects."""
    shape = tuple(carriers[s] for s in profile.inputs)
    values = np.asarray(fn(*open_grid(shape)))
    if values.shape != shape:
        values = np.broadcast_to(values, shape)
    return OpTable(profile, tuple(carriers), tuple(values.ravel().tolist()))


# ---------------------------------------------------------------------------
# homomorphisms between algebras over the same signature shape

def is_homomorphism(src: "SortedAlgebra", dst: "SortedAlgebra", maps):
    """Do the per-sort maps commute with every operation?

    maps[s] is a tuple sending src carrier s into dst carrier s.  The two
    signatures must agree in sort count and symbol list.  Returns
    (ok, witness); the witness names the first symbol and argument tuple
    where f(maps(args)) differs from maps(f(args)).
    """
    if len(src.carriers) != len(dst.carriers):
        raise ProfileError("sort counts differ: %d vs %d" % (len(src.carriers), len(dst.carriers)))
    if tuple(s.name for s in src.signature.symbols) != tuple(s.name for s in dst.signature.symbols):
        raise ProfileError("symbol lists differ")
    for s, m in enumerate(maps):
        if len(m) != src.carriers[s]:
            raise ProfileError("map for sort %d has %d entries, carrier has %d"
                               % (s, len(m), src.carriers[s]))
        for v in m:
            if not (0 <= v < dst.carriers[s]):
                raise ProfileError("map for sort %d sends something to %d, outside the target" % (s, v))
    images = [np.asarray(m, dtype=np.int64) for m in maps]
    for sym_s, sym_d, f_s, f_d in zip(src.signature.symbols, dst.signature.symbols,
                                      src.tables, dst.tables):
        if sym_s.profile != sym_d.profile:
            raise ProfileError("symbol %s has different profiles" % sym_s.name)
        grid = open_grid(f_s.domain_sizes)
        f_of_maps = gather(f_d, [images[t][c] for t, c in zip(sym_s.profile.inputs, grid)])
        maps_of_f = images[sym_s.profile.cod][gather(f_s, grid)]
        bad = first_failure(f_of_maps != maps_of_f)
        if bad is not None:
            return False, (sym_s.name, bad)
    return True, None


def is_isomorphism(src: "SortedAlgebra", dst: "SortedAlgebra", maps):
    """is_homomorphism plus per-sort bijectivity.  Returns (ok, reason)."""
    for s, m in enumerate(maps):
        if dst.carriers[s] != src.carriers[s] or len(set(m)) != len(m) or len(m) != dst.carriers[s]:
            return False, ("sort %d map is not a bijection" % s, None)
    ok, witness = is_homomorphism(src, dst, maps)
    if not ok:
        return False, ("not a homomorphism", witness)
    return True, None
