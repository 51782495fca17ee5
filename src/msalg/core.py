"""Finite many-sorted algebras: profiles, operation tables, terms, signatures.

Conventions used across the package:

* Sorts are indexed 0..S-1; carriers are initial segments 0..n-1, so an
  algebra is fully described by per-sort carrier sizes plus operation tables.
* An operation table stores its outputs row-major over the product of its
  input carriers (last argument varies fastest, matching itertools.product).
  Two tables are equal exactly when profile, carriers and outputs coincide.
* Empty carriers are allowed.  A table whose input product is empty has an
  empty output vector; a table into an empty carrier from a nonempty domain
  cannot exist and is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

MAX_ARITY = 6
TABLE_BUDGET = 2_000_000
SUBUNIVERSE_BUDGET = 200_000
JONSSON_MAX = 4
MU_MAX = 2


class ProfileError(ValueError):
    """Sorts, arities, carriers or term shapes do not line up."""


class BudgetError(RuntimeError):
    """A computation would exceed a configured resource budget."""


@dataclass(frozen=True)
class Profile:
    """Input sorts and output sort of an operation, as sort indexes."""

    inputs: tuple[int, ...]
    cod: int

    def __post_init__(self):
        if any(s < 0 for s in self.inputs) or self.cod < 0:
            raise ProfileError("negative sort index in %r" % (self,))

    @property
    def arity(self) -> int:
        return len(self.inputs)


def check_arity(n: int, max_arity: int, what: str) -> None:
    if n > max_arity:
        raise ProfileError("%s has arity %d, above the bound %d" % (what, n, max_arity))


def check_nonnegative(n: int, what: str) -> None:
    if n < 0:
        raise ProfileError("%s must be at least 0, got %d" % (what, n))


@dataclass(frozen=True)
class OpTable:
    """A concrete finitary operation between carriers of one algebra.

    carriers holds the full per-sort carrier size vector of the ambient
    algebra, so a table is self-contained and tables over different ambient
    carriers never compare equal.
    """

    profile: Profile
    carriers: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self):
        p = self.profile
        if p.cod >= len(self.carriers) or any(s >= len(self.carriers) for s in p.inputs):
            raise ProfileError("profile %r names a sort outside %d declared sorts" % (p, len(self.carriers)))
        size = prod(self.carriers[s] for s in p.inputs)
        if len(self.outputs) != size:
            raise ProfileError("table for %r needs %d outputs, got %d" % (p, size, len(self.outputs)))
        cod_size = self.carriers[p.cod]
        if self.outputs and not (0 <= min(self.outputs) and max(self.outputs) < cod_size):
            raise ProfileError("table output outside carrier of size %d" % cod_size)

    @property
    def arity(self) -> int:
        return self.profile.arity

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(self.carriers[s] for s in self.profile.inputs)

    def domain(self):
        """All argument tuples, row-major (last argument fastest)."""
        return itertools.product(*(range(n) for n in self.domain_sizes))

    def apply(self, args) -> int:
        idx = 0
        for a, n in zip(args, self.domain_sizes, strict=True):
            if not 0 <= a < n:
                raise ValueError("argument %r outside carrier of size %d" % (a, n))
            idx = idx * n + a
        return self.outputs[idx]


def projection(carriers: tuple[int, ...], inputs: tuple[int, ...], pos: int) -> OpTable:
    """The pos-th projection at the given input profile."""
    if not 0 <= pos < len(inputs):
        raise ProfileError("projection position %d outside %d inputs" % (pos, len(inputs)))
    return tabulate(Profile(inputs, inputs[pos]), carriers, lambda *cols: cols[pos])


def constant_table(carriers: tuple[int, ...], inputs: tuple[int, ...], cod: int, value: int) -> OpTable:
    size = prod(carriers[s] for s in inputs)
    return OpTable(Profile(inputs, cod), carriers, (value,) * size)


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


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True)
class Term:
    profile: Profile


@dataclass(frozen=True)
class Var(Term):
    index: int

    def __post_init__(self):
        if not (0 <= self.index < self.profile.arity):
            raise ProfileError("variable index %d outside profile %r" % (self.index, self.profile))
        if self.profile.cod != self.profile.inputs[self.index]:
            raise ProfileError("variable %d has sort %d, profile cod is %d"
                               % (self.index, self.profile.inputs[self.index], self.profile.cod))


@dataclass(frozen=True)
class App(Term):
    symbol: str
    args: tuple[Term, ...]

    def __post_init__(self):
        for a in self.args:
            if a.profile.inputs != self.profile.inputs:
                raise ProfileError("argument of %s built over a different input profile" % self.symbol)


def term_depth(t: Term) -> int:
    if isinstance(t, Var):
        return 0
    return 1 + max((term_depth(a) for a in t.args), default=0)


def term_str(t: Term) -> str:
    """Prefix rendering, variables as x<i>."""
    if isinstance(t, Var):
        return "x%d" % t.index
    if not t.args:
        return "(%s)" % t.symbol
    return "(%s %s)" % (t.symbol, " ".join(term_str(a) for a in t.args))


# ---------------------------------------------------------------------------
# signatures and algebras

@dataclass(frozen=True)
class Symbol:
    name: str
    profile: Profile


@dataclass(frozen=True)
class SortedSignature:
    sorts: tuple[str, ...]
    symbols: tuple[Symbol, ...]

    def __post_init__(self):
        if len(set(self.sorts)) != len(self.sorts):
            raise ProfileError("duplicate sort names")
        names = [f.name for f in self.symbols]
        if len(set(names)) != len(names):
            raise ProfileError("duplicate symbol names")
        for f in self.symbols:
            if f.profile.cod >= len(self.sorts) or any(s >= len(self.sorts) for s in f.profile.inputs):
                raise ProfileError("symbol %s uses a sort outside the signature" % f.name)

    def sort_index(self, name: str) -> int:
        try:
            return self.sorts.index(name)
        except ValueError:
            raise ProfileError("unknown sort %r" % name) from None

    def symbol_index(self, name: str) -> int:
        for i, f in enumerate(self.symbols):
            if f.name == name:
                return i
        raise ProfileError("unknown symbol %r" % name)


@dataclass(frozen=True)
class SortedAlgebra:
    signature: SortedSignature
    carriers: tuple[int, ...]
    tables: tuple[OpTable, ...]

    def __post_init__(self):
        if len(self.carriers) != len(self.signature.sorts):
            raise ProfileError("carrier vector length differs from sort count")
        if any(n < 0 for n in self.carriers):
            raise ProfileError("negative carrier size")
        if len(self.tables) != len(self.signature.symbols):
            raise ProfileError("need one table per symbol")
        for f, t in zip(self.signature.symbols, self.tables):
            if t.profile != f.profile:
                raise ProfileError("table for %s has profile %r, declared %r" % (f.name, t.profile, f.profile))
            if t.carriers != self.carriers:
                raise ProfileError("table for %s built over different carriers" % f.name)

    @property
    def n_sorts(self) -> int:
        return len(self.carriers)

    @property
    def is_single_sorted(self) -> bool:
        return self.n_sorts == 1

    def sort_index(self, name: str) -> int:
        return self.signature.sort_index(name)

    def table(self, name: str) -> OpTable:
        return self.tables[self.signature.symbol_index(name)]


def build_algebra(sorts, ops, *, max_arity: int = MAX_ARITY) -> SortedAlgebra:
    """Convenience constructor from names.

    sorts: iterable of (sort name, carrier size), at least one.
    ops: iterable of (symbol name, input sort names, cod sort name, outputs).
    The arity bound is checked here, at the user-facing entry; constructions
    that deliberately exceed it build SortedAlgebra directly.
    """
    sort_names = tuple(n for n, _ in sorts)
    carriers = tuple(int(k) for _, k in sorts)
    if not sort_names:
        raise ProfileError("an algebra needs at least one sort")
    symbols = []
    tables = []
    for name, ins, cod, outputs in ops:
        check_arity(len(ins), max_arity, "symbol %s" % name)
        p = Profile(tuple(sort_names.index(s) for s in ins), sort_names.index(cod))
        symbols.append(Symbol(name, p))
        tables.append(OpTable(p, carriers, tuple(outputs)))
    sig = SortedSignature(sort_names, tuple(symbols))
    return SortedAlgebra(sig, carriers, tuple(tables))


def validate_term(alg: SortedAlgebra, t: Term) -> None:
    """Raise ProfileError unless t is well sorted over alg's signature."""
    for s in t.profile.inputs:
        if s >= alg.n_sorts:
            raise ProfileError("term profile names sort %d outside the algebra" % s)
    if isinstance(t, Var):
        return
    if not isinstance(t, App):
        raise ProfileError("term %r is neither a variable nor an application" % (t,))
    sym = alg.signature.symbols[alg.signature.symbol_index(t.symbol)]
    if sym.profile.cod != t.profile.cod:
        raise ProfileError("term root %s has cod %d, profile says %d" % (t.symbol, sym.profile.cod, t.profile.cod))
    if len(t.args) != sym.profile.arity:
        raise ProfileError("term root %s applied to %d arguments, arity is %d"
                           % (t.symbol, len(t.args), sym.profile.arity))
    for a, want in zip(t.args, sym.profile.inputs):
        if a.profile.cod != want:
            raise ProfileError("argument of %s has sort %d, wanted %d" % (t.symbol, a.profile.cod, want))
        validate_term(alg, a)


def eval_term(alg: SortedAlgebra, t: Term, args: tuple[int, ...]) -> int:
    """Evaluate t at one argument tuple (sorts per t.profile.inputs)."""
    if len(args) != t.profile.arity:
        raise ProfileError("term wants %d arguments, got %d" % (t.profile.arity, len(args)))
    if isinstance(t, Var):
        return args[t.index]
    if not isinstance(t, App):
        raise ProfileError("term %r is neither a variable nor an application" % (t,))
    table = alg.table(t.symbol)
    return table.apply(tuple(eval_term(alg, a, args) for a in t.args))


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
    """np.unique(m, axis=0): the sorted distinct rows, same dtype.  Asking
    for the first indexes too keeps numpy 2.4 from calling np.ma.is_masked
    on the result, which imports numpy.ma (10-18 ms) on first use."""
    return np.unique(m, axis=0, return_index=True)[0]


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


# ---------------------------------------------------------------------------
# verification plumbing

@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Verification:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.ok)


def table_search_key(t: OpTable) -> bytes:
    """Deterministic hash key for search ordering (process independent)."""
    import hashlib  # here, so that only a term search loads it

    h = hashlib.sha256()
    h.update(repr((t.profile.inputs, t.profile.cod, t.carriers)).encode())
    h.update(bytes(b % 256 for b in t.outputs) if t.outputs else b"")
    h.update(repr(t.outputs).encode())
    return h.digest()
