"""The clone saturation kernel against the one it replaced.

oracle_clone.saturate evaluates one numpy gather per tuple of lead
arguments and probes a bytes-key dict once per candidate row.  The kernel
in msalg.clone gathers whole blocks of lead tuples at once, probes a set
of the stored rows' bytes once per candidate row of a block, skips symbols
that repeat an earlier one and, at each argument position, reads only the
first stored table of each pointwise class image (an ignored argument has
one class), extending those first tables each round from the tables
stored since the previous one.
Each case below closes the same seeds with both and requires the same
tables in the same insertion order, the same witness terms, and the same
BudgetError at the same budgets: every corpus algebra, its collapse and
its nu-collapses (split along a pair and collapsed again, where symbols
repeat and ignore arguments) at every input profile of arity at most 2,
the nullary-symbol and empty-carrier algebras of test_tabulate.py, a
hand-built algebra with ignored arguments, a projection, a repeat, a
constant and binary and ternary symbols with coarser argument classes,
and the point-set closures behind diagonal._class_assembled_fragment.

The inputs that need fragments of their own (collapses with constants,
diagonal pairs) are built on the oracle, so a kernel that never reaches
its fixpoint fails the comparison instead of hanging the set-up.
"""

import contextlib
import hashlib
import itertools
from functools import lru_cache
from math import prod

import numpy as np
import pytest

import oracle_clone as oracle
import test_tabulate
from msalg import clone, diagonal
from msalg.core import BudgetError, Profile, TABLE_BUDGET, Var, build_algebra, grid_columns
from msalg.corpus import corpus_algebra
from msalg.diagonal import _class_assembled_fragment, find_diagonal_pairs, matrix_product
from msalg.hetero import heterogenize
from msalg.homog import homogenize
from test_cli import SCALE
from value_caches import clear_msalg_caches


@contextlib.contextmanager
def _on_the_oracle():
    """Fragments generated inside come from oracle.saturate; every msalg
    value cache (a collapse's closed-term values come from
    generate_fragment) and test_tabulate's cached inputs are cleared on
    entry and exit, so nothing built by either kernel leaks into the
    other's runs."""

    def clear():
        clear_msalg_caches()
        test_tabulate.collapses.cache_clear()
        test_tabulate.pairs.cache_clear()

    clear()
    saved, clone.saturate = clone.saturate, oracle.saturate
    try:
        yield
    finally:
        clone.saturate = saved
        clear()


def _idle():
    """Ignored lead and last arguments, a projection and its repeat, and a
    constant; f is declared before a, so its ignored lead sort w is still
    empty in round 1.  b and t read v through classes that are neither one
    class nor the identity, at a lead and at the last position: b's are
    {0, 1} {2} and {0} {1, 2}, t's {0, 2} {1} at both.  At the input
    profile (u, u) each of these four positions meets, in round 3, a class
    whose first table was new in round 2 and whose later tables are
    pruned."""
    return build_algebra([("u", 2), ("w", 3), ("v", 3)], [
        ("f", ("w", "u"), "u", (1, 0) * 3),
        ("a", ("u",), "w", (2, 0)),
        ("p", ("u", "u"), "u", (0, 0, 1, 1)),
        ("q", ("u", "u"), "u", (0, 0, 1, 1)),
        ("k", ("u", "w"), "u", (1,) * 6),
        ("g", ("w", "w"), "w", (1, 2, 0) * 3),
        ("h", ("w", "u"), "w", (0, 0, 2, 2, 1, 1)),
        ("e", ("v",), "v", (1, 0, 1)),
        ("c", ("u",), "v", (1, 2)),
        ("b", ("v", "v"), "v", (0, 0, 0, 0, 0, 0, 0, 2, 2)),
        ("t", ("v", "u", "v"), "u", (0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 0, 1, 0, 1, 0, 1)),
    ])


@lru_cache(maxsize=None)
def _inputs():
    """(algebras by label, test_tabulate.pairs()), built on the oracle: the
    bases, their collapses, the nu-collapse along every pair and _idle."""
    with _on_the_oracle():
        algebras = list(test_tabulate.bases())
        algebras += [("h_" + name, h.algebra) for name, h in test_tabulate.collapses()]
        pairs = test_tabulate.pairs()
        algebras += [("nu_%s#%d" % (name, i), homogenize(heterogenize(alg, pair).algebra).algebra)
                     for i, (name, alg, pair) in enumerate(pairs)]
    return tuple(algebras) + (("idle", _idle()),), pairs


def _projection_seeds(alg, inputs):
    """The seeds of clone._closure_full: one projection per input."""
    seeds = {s: [] for s in range(alg.n_sorts)}
    for i, (s, col) in enumerate(zip(inputs, grid_columns(alg.carriers[s] for s in inputs))):
        seeds[s].append((col, Var(Profile(inputs, s), i)))
    return prod(alg.carriers[s] for s in inputs), seeds


def _profile_closures():
    """(label, algebra, n_points, seeds, ambient inputs) at every input
    profile of arity at most 2."""
    for name, alg in _inputs()[0]:
        for arity in range(3):
            for inputs in itertools.product(range(alg.n_sorts), repeat=arity):
                yield ("%s %r" % (name, inputs), alg) + _projection_seeds(alg, inputs) + (inputs,)


def _point_set_closures(monkeypatch):
    """The saturate calls of _class_assembled_fragment at lam 1 and 2, as
    recorded while it runs on the oracle."""
    calls = []

    def record(alg, n_points, seeds, budget=TABLE_BUDGET, *, ambient_inputs):
        calls.append((alg, n_points, seeds, ambient_inputs))
        return oracle.saturate(alg, n_points, seeds, budget, ambient_inputs=ambient_inputs)

    monkeypatch.setattr(diagonal, "saturate", record)
    for name, alg, pair in _inputs()[1]:
        mp = matrix_product(alg, pair)
        for lam in (1, 2):
            del calls[:]
            _class_assembled_fragment(mp, lam)
            assert len(calls) == 1
            yield ("%s lam=%d" % (name, lam),) + calls[0]


def _outcome(kernel, alg, n_points, seeds, inputs, budget=TABLE_BUDGET):
    """Plain lists of every store's tables and terms, or the budget error."""
    try:
        out = kernel(alg, n_points, seeds, budget, ambient_inputs=inputs)
    except BudgetError as e:
        return "BudgetError: %s" % e
    return {s: (matrix.tolist(), terms) for s, (matrix, terms) in out.items()}


def _store_sizes(outcome):
    return sorted({len(rows) for rows, _ in outcome.values()})


def case_profiles(monkeypatch):
    for label, alg, n_points, seeds, inputs in _profile_closures():
        yield label, alg, n_points, seeds, inputs, TABLE_BUDGET


def case_point_sets(monkeypatch):
    for label, alg, n_points, seeds, inputs in _point_set_closures(monkeypatch):
        yield label, alg, n_points, seeds, inputs, TABLE_BUDGET


def case_budgets(monkeypatch):
    """Every budget up to one past the largest store on the bases and
    _idle; on the collapses, nu-collapses and point sets, 0 and each store
    size and the one below it."""
    closures = itertools.chain(_profile_closures(), _point_set_closures(monkeypatch))
    for label, alg, n_points, seeds, inputs in closures:
        sizes = _store_sizes(_outcome(oracle.saturate, alg, n_points, seeds, inputs))
        if label.startswith(("h_", "nu_")) or "lam=" in label:
            budgets = sorted({0} | {b for n in sizes for b in (n - 1, n) if b >= 0})
        else:
            budgets = range(max(sizes, default=0) + 2)
        for budget in budgets:
            yield "%s budget=%d" % (label, budget), alg, n_points, seeds, inputs, budget


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}

def _compare(case, monkeypatch):
    """The kernel runs first at the largest store the oracle fills, where a
    kernel that stops reaching its fixpoint raises instead of running on,
    then at the case's own budget."""
    count = raised = 0
    for label, alg, n_points, seeds, inputs, budget in CASES[case](monkeypatch):
        slow = _outcome(oracle.saturate, alg, n_points, seeds, inputs, budget)
        if not isinstance(slow, str):
            tight = max(_store_sizes(slow), default=0)
            assert _outcome(clone.saturate, alg, n_points, seeds, inputs, tight) == slow, (case, label, tight)
        fast = _outcome(clone.saturate, alg, n_points, seeds, inputs, budget)
        assert fast == slow, (case, label)
        count += 1
        raised += isinstance(slow, str)
    assert count, "case %s compared nothing" % case
    return count, raised


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernel_matches_oracle(case, monkeypatch):
    count, raised = _compare(case, monkeypatch)
    if case == "budgets":
        assert 0 < raised < count


def _rows_admitted(monkeypatch, alg, inputs, budget):
    """The cod-sort-0 tables of the fragment at inputs, built with the
    kernel, and the rows handed to _Store.admit meanwhile."""
    rows = []
    admit = clone._Store.admit

    def counting(store, batch, term_of):
        rows.append(len(batch))
        return admit(store, batch, term_of)

    monkeypatch.setattr(clone._Store, "admit", counting)
    tables, _ = clone._closure_full.__wrapped__(alg, inputs, budget)[0]
    return len(tables), sum(rows)


def test_rows_admitted_for_the_a_malcev_nu_collapse(monkeypatch):
    """Rows handed to _Store.admit while the (0, 0) fragment of the a_malcev
    nu-collapse, along the first diagonal pair of its collapse, is built:
    1504946 while every symbol read every argument tuple, 102785 while
    ignored arguments were read at stored index 0 only, and 4785 since
    each argument position reads the first stored table of each class
    image.  The count does not depend on clone._CHUNK, so only an
    algorithmic change moves it.  The budget is the fragment's 36 tables,
    so a kernel that stops reaching its fixpoint raises instead of running
    on."""
    with _on_the_oracle():
        h = homogenize(corpus_algebra("a_malcev")).algebra
        nu = homogenize(heterogenize(h, find_diagonal_pairs(h, 2)[0]).algebra).algebra
    assert _rows_admitted(monkeypatch, nu, (0, 0), 36) == (36, 4785)


def test_rows_admitted_for_the_a_malcev_ternary_fragment(monkeypatch):
    """The same count for the (0, 0, 0) fragment of the a_malcev collapse,
    the one the Mal'cev and Jonsson searches read: 20202483 rows while
    ignored arguments were read at stored index 0 only, 171939 with
    argument classes.  The budget is the fragment's 216 tables."""
    h = homogenize(corpus_algebra("a_malcev")).algebra
    assert _rows_admitted(monkeypatch, h, (0, 0, 0), 216) == (216, 171939)


def test_store_admits_each_row_once_at_its_first_occurrence():
    """Duplicates inside a batch keep their first occurrence in batch order,
    a batch already stored adds nothing, also right after an append, a
    zero-width store holds one row, and rows differing only in a high byte
    stay apart."""
    store = clone._Store(3, np.uint8)
    rows = np.array([[0, 1, 2], [2, 1, 0], [0, 1, 2], [1, 1, 1], [2, 1, 0]], dtype=np.uint8)
    assert store.admit(rows, lambda r: "t%d" % r) == 3
    assert store.rows().tolist() == [[0, 1, 2], [2, 1, 0], [1, 1, 1]]
    assert store.terms == ["t0", "t1", "t3"]
    assert store.admit(rows, lambda r: "u%d" % r) == 0
    assert store.admit(rows[::-1].copy(), lambda r: "v%d" % r) == 0
    more = np.array([[2, 2, 2], [0, 1, 2]], dtype=np.uint8)
    assert store.admit(more, lambda r: "w%d" % r) == 1
    assert store.admit(more, lambda r: "x%d" % r) == 0
    assert store.terms == ["t0", "t1", "t3", "w0"]

    empty = clone._Store(0, np.uint8)
    assert empty.admit(np.zeros((4, 0), dtype=np.uint8), lambda r: "t%d" % r) == 1
    assert empty.admit(np.zeros((2, 0), dtype=np.uint8), lambda r: "u%d" % r) == 0
    assert empty.rows().shape == (1, 0) and empty.terms == ["t0"]

    wide = clone._Store(2, np.uint16)
    high = np.array([[1, 2], [0x101, 2], [1, 0x202], [1, 2]], dtype=np.uint16)
    assert wide.admit(high, lambda r: "t%d" % r) == 3
    assert wide.rows().tolist() == [[1, 2], [0x101, 2], [1, 0x202]]
    assert wide.admit(high[1:], lambda r: "u%d" % r) == 0


def _unique_firsts(classes, rows):
    """np.unique's first occurrences of the rows' class images, ascending."""
    _, first = np.unique(classes.take(rows), axis=0, return_index=True)
    return sorted(first.tolist())


def test_first_tables_grow_as_the_unique_first_occurrences():
    """_Firsts, extended round by round, reads the same stored tables as
    np.unique's first occurrences over the whole stored prefix: an image
    repeated in a later round adds nothing, one first seen in round 3 is
    added then, a zero-width store has one first table, and uint16 images
    that differ only in the high byte stay apart."""
    classes = np.array([0, 0, 2], dtype=np.uint8)
    rounds = [[[0, 1], [1, 0], [2, 2]],  # images (0, 0) (0, 0) (2, 2)
              [[1, 1], [0, 2]],          # (0, 0) again, (0, 2) new
              [[2, 0], [1, 2], [2, 1]]]  # (2, 0) new in round 3, then repeats
    wide = np.arange(300, dtype=np.uint16)
    wide[2] = 0
    cases = [(classes, 2, [np.array(r, dtype=np.uint8) for r in rounds], [0, 2, 4, 5]),
             (classes, 0, [np.zeros((3, 0), dtype=np.uint8)] * 3, [0]),
             (wide, 1, [np.array([[1], [2]], dtype=np.uint16),
                        np.array([[0x101], [0]], dtype=np.uint16),
                        np.array([[0x100], [0x102]], dtype=np.uint16)], [0, 1, 2, 4, 5])]
    for classes, n_points, batches, reps in cases:
        store, firsts = clone._Store(n_points, classes.dtype), clone._Firsts(classes)
        for batch in batches:
            before = store.count
            store.admit(batch, lambda r: r)
            # saturate extends to the previous round's count, then to this one's.
            for upto in (before, store.count):
                got = firsts.extend(store, upto).tolist()
                assert got == _unique_firsts(classes, store.rows(upto)), (classes, upto)
        assert got == reps


def test_symbol_prep_is_cached_by_value():
    """Two equal algebras built apart share one _symbols entry; changing
    one table entry makes a new one."""
    def build(outputs):
        return build_algebra([("u", 2), ("w", 3)], [
            ("f", ("u", "w"), "u", outputs), ("g", ("w",), "u", (0, 1, 1)), ("h", ("w",), "u", (0, 1, 1))])

    clone._symbols.cache_clear()
    try:
        first, second = build((0, 1, 0, 1, 1, 0)), build((0, 1, 0, 1, 1, 0))
        assert first is not second
        prep = clone._symbols(first)
        assert [sym.name for sym, _flat, _classes in prep] == ["f", "g"]
        assert clone._symbols(second) is prep
        assert clone._symbols.cache_info().currsize == 1
        assert clone._symbols(build((0, 1, 0, 1, 1, 1))) is not prep
        assert clone._symbols.cache_info().currsize == 2
    finally:
        clone._symbols.cache_clear()


def test_the_scale_fragment_keeps_its_tables_and_witnesses():
    """The (0, 0) fragment of the SCALE collapse in test_cli.py: 86048
    tables over 36 points, too many for the oracle.  Its matrix bytes and
    its witness terms' reprs, one per line, hash to the digests the
    sorted-key kernel gave before set-keyed admission."""
    h = homogenize(SCALE).algebra
    matrix, terms = clone._closure_full.__wrapped__(h, (0, 0), TABLE_BUDGET)[0]
    assert matrix.shape == (86048, 36) and matrix.dtype == np.uint8
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == \
        "ed60755fcac03b37f7abd250b0e5c7f689788f0b0c7ba18b38c2b0ca8c8fb1bd"
    digest = hashlib.sha256()
    for term in terms:
        digest.update(repr(term).encode() + b"\n")
    assert digest.hexdigest() == "57b51a3090165345d1f3eb2d6d106964bbb26ed9b04e18500c8e24c196180ca5"
