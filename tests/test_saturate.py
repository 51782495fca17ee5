"""The clone saturation kernel against the one it replaced.

oracle_clone.saturate evaluates one numpy gather per tuple of lead
arguments and probes a bytes-key dict once per candidate row.  The kernel
in msalg.clone gathers whole blocks of lead tuples at once and tells rows
apart by exact keys, a batch at a time.  Each case below closes the same
seeds with both and requires the same tables in the same insertion order,
the same witness terms, and the same BudgetError at the same budgets: every
corpus algebra and its collapse at every input profile of arity at most 2,
the nullary-symbol and empty-carrier algebras of test_tabulate.py, and the
point-set closures behind diagonal._class_assembled_fragment.
"""

import itertools
from math import prod

import numpy as np
import pytest

import oracle_clone as oracle
from msalg import clone, diagonal
from msalg.core import BudgetError, Profile, TABLE_BUDGET, Var, grid_columns
from msalg.diagonal import _class_assembled_fragment, matrix_product
from test_tabulate import bases, collapses, pairs


def _algebras():
    return list(bases()) + [("h_" + name, h.algebra) for name, h in collapses()]


def _projection_seeds(alg, inputs):
    """The seeds of clone._closure_full: one projection per input."""
    seeds = {s: [] for s in range(alg.n_sorts)}
    for i, (s, col) in enumerate(zip(inputs, grid_columns(alg.carriers[s] for s in inputs))):
        seeds[s].append((col, Var(Profile(inputs, s), i)))
    return prod(alg.carriers[s] for s in inputs), seeds


def _profile_closures():
    """(label, algebra, n_points, seeds, ambient inputs) at every input
    profile of arity at most 2."""
    for name, alg in _algebras():
        for arity in range(3):
            for inputs in itertools.product(range(alg.n_sorts), repeat=arity):
                yield ("%s %r" % (name, inputs), alg) + _projection_seeds(alg, inputs) + (inputs,)


def _point_set_closures(monkeypatch):
    """The saturate calls of _class_assembled_fragment at lam 1 and 2, as
    recorded while it runs on the kernel."""
    calls = []

    def record(alg, n_points, seeds, budget=TABLE_BUDGET, *, ambient_inputs):
        calls.append((alg, n_points, seeds, ambient_inputs))
        return clone.saturate(alg, n_points, seeds, budget, ambient_inputs=ambient_inputs)

    monkeypatch.setattr(diagonal, "saturate", record)
    for name, alg, pair in pairs():
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
    """Every budget up to one past the largest store on the bases; on the
    collapses and point sets, 0 and each store size and the one below it."""
    closures = itertools.chain(_profile_closures(), _point_set_closures(monkeypatch))
    for label, alg, n_points, seeds, inputs in closures:
        sizes = _store_sizes(_outcome(oracle.saturate, alg, n_points, seeds, inputs))
        if label.startswith("h_") or "lam=" in label:
            budgets = sorted({0} | {b for n in sizes for b in (n - 1, n) if b >= 0})
        else:
            budgets = range(max(sizes, default=0) + 2)
        for budget in budgets:
            yield "%s budget=%d" % (label, budget), alg, n_points, seeds, inputs, budget


CASES = {name[len("case_"):]: fn for name, fn in sorted(globals().items())
         if name.startswith("case_")}

def _compare(case, monkeypatch):
    count = raised = 0
    for label, alg, n_points, seeds, inputs, budget in CASES[case](monkeypatch):
        fast = _outcome(clone.saturate, alg, n_points, seeds, inputs, budget)
        slow = _outcome(oracle.saturate, alg, n_points, seeds, inputs, budget)
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
