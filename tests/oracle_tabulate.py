"""Slow reference tabulations, one point at a time.

Each function here is the per-point loop that a vectorized function in
msalg used before the open-grid kernel in msalg.core replaced it: walk the
domain with itertools.product, decode mixed-radix codes one at a time,
apply tables with OpTable.apply, encode the result.  test_tabulate.py
compares every fast function with its oracle.
"""

from __future__ import annotations

import itertools
from math import prod

import numpy as np

from msalg.clone import saturate
from msalg.core import TABLE_BUDGET, OpTable, Profile, Var


def encode_mixed(values, radices) -> int:
    code = 0
    for v, r in zip(values, radices, strict=True):
        assert 0 <= v < r
        code = code * r + v
    return code


def decode_mixed(code: int, radices) -> tuple[int, ...]:
    out = []
    for r in reversed(radices):
        out.append(code % r)
        code //= r
    assert code == 0
    return tuple(reversed(out))


# ---------------------------------------------------------------- core

def encode_choices(stacks, radices) -> list:
    return [[encode_mixed(digits, radices) for digits in zip(*rows)]
            for rows in itertools.product(*(np.asarray(st).tolist() for st in stacks))]


def projection(carriers, inputs, pos) -> OpTable:
    outs = tuple(args[pos] for args in itertools.product(*(range(carriers[s]) for s in inputs)))
    return OpTable(Profile(inputs, inputs[pos]), carriers, outs)


def compose(f: OpTable, gs, *, inputs=None) -> OpTable:
    if gs:
        inputs = gs[0].profile.inputs
    sizes = tuple(f.carriers[s] for s in inputs)
    if not gs:
        return OpTable(Profile(inputs, f.profile.cod), f.carriers,
                       (f.outputs[0],) * prod(sizes) if f.outputs else ())
    outs = []
    for args in itertools.product(*(range(n) for n in sizes)):
        outs.append(f.apply(tuple(g.apply(args) for g in gs)))
    return OpTable(Profile(inputs, f.profile.cod), f.carriers, tuple(outs))


def is_homomorphism(src, dst, maps):
    """(ok, witness) with the first failing symbol and argument tuple,
    walking each domain row-major."""
    for sym_s, f_s, f_d in zip(src.signature.symbols, src.tables, dst.tables):
        for args in f_s.domain():
            mapped = tuple(maps[t][a] for t, a in zip(sym_s.profile.inputs, args))
            if f_d.apply(mapped) != maps[sym_s.profile.cod][f_s.apply(args)]:
                return False, (sym_s.name, args)
    return True, None


# ---------------------------------------------------------------- homog

def lift(radices, f: OpTable) -> OpTable:
    n = prod(radices)
    outputs = []
    for args in itertools.product(range(n), repeat=f.arity):
        decoded = [decode_mixed(a, radices) for a in args]
        comps = list(decoded[0])
        comps[f.profile.cod] = f.apply(tuple(d[s] for d, s in zip(decoded, f.profile.inputs)))
        outputs.append(encode_mixed(comps, radices))
    return OpTable(Profile((0,) * f.arity, 0), (n,), tuple(outputs))


def diag_table(radices) -> OpTable:
    S = len(radices)
    n = prod(radices)
    outputs = []
    for args in itertools.product(range(n), repeat=S):
        comps = tuple(decode_mixed(a, radices)[s] for s, a in enumerate(args))
        outputs.append(encode_mixed(comps, radices))
    return OpTable(Profile((0,) * S, 0), (n,), tuple(outputs))


def dummy_lift(radices, f: OpTable) -> OpTable:
    """The unary lift of a nullary f whose junk comes from a dummy argument."""
    n = prod(radices)
    outputs = []
    for a in range(n):
        comps = list(decode_mixed(a, radices))
        comps[f.profile.cod] = f.outputs[0]
        outputs.append(encode_mixed(comps, radices))
    return OpTable(Profile((0,), 0), (n,), tuple(outputs))


def assemble(h, gs) -> OpTable:
    lam = gs[0].profile.arity // len(h.radices)
    n = h.size
    outputs = []
    for args in itertools.product(range(n), repeat=lam):
        flat = tuple(v for a in args for v in h.decode(a))
        outputs.append(h.encode(tuple(g.apply(flat) for g in gs)))
    return OpTable(Profile((0,) * lam, 0), (n,), tuple(outputs))


def assembled_fragment(h, per_sort) -> dict:
    out = {}
    for gs in itertools.product(*per_sort):
        t = assemble(h, gs)
        out.setdefault(t.outputs, t)
    return out


def morphism_lift(hA, hB, maps):
    out = []
    for code in range(hA.size):
        comps = hA.decode(code)
        out.append(hB.encode(tuple(m[v] for m, v in zip(maps, comps))))
    return tuple(out)


# ------------------------------------------------------------- diagonal

def decompose_table(source, pair, f: OpTable, retracts=None) -> OpTable:
    if retracts is None:
        retracts = pair.retracts()
    sizes = tuple(len(r) for r in retracts)
    N = prod(sizes)
    pos = [{v: i for i, v in enumerate(r)} for r in retracts]
    outputs = []
    for args in itertools.product(range(N), repeat=f.arity):
        inner = tuple(
            pair.d.apply(tuple(r[i] for r, i in zip(retracts, decode_mixed(b, sizes))))
            for b in args)
        y = f.apply(inner)
        comps = tuple(pos[s][e.apply((y,))] for s, e in enumerate(pair.es))
        outputs.append(encode_mixed(comps, sizes))
    return OpTable(Profile((0,) * f.arity, 0), (N,), tuple(outputs))


def class_assembled_fragment(mp, lam, budget=TABLE_BUDGET) -> set:
    S = mp.pair.width
    retracts = mp.retracts
    positions = [retracts[s] for _ in range(lam) for s in range(S)]
    points = list(itertools.product(*positions))
    n_points = len(points)
    cols = np.array(points, dtype=np.int64).reshape(n_points, lam * S)
    rho = (0,) * (lam * S)
    seeds = {0: [(cols[:, j], Var(Profile(rho, 0), j)) for j in range(lam * S)]}
    closed = saturate(mp.source, n_points, seeds, budget, ambient_inputs=rho)
    matrix, _terms = closed[0]
    class_reps = []
    arrays = []
    for s in range(S):
        e_flat = np.asarray(mp.pair.es[s].outputs, dtype=np.int64)
        seen = {}
        for row in matrix:
            pushed = e_flat[row]
            seen.setdefault(pushed.tobytes(), pushed)
        class_reps.append(list(seen))
        arrays.append(seen)
    sizes = mp.sizes
    N = prod(sizes)
    point_index = {p: i for i, p in enumerate(points)}
    pos = [{v: i for i, v in enumerate(r)} for r in retracts]
    out = set()
    for keys in itertools.product(*class_reps):
        reps = [arrays[s][k] for s, k in enumerate(keys)]
        outputs = []
        for args in itertools.product(range(N), repeat=lam):
            flat = tuple(v for b in args for v in mp.element_of(b))
            j = point_index[flat]
            comps = tuple(pos[s][int(reps[s][j])] for s in range(S))
            outputs.append(encode_mixed(comps, sizes))
        out.add(tuple(outputs))
    return out


# --------------------------------------------------------------- hetero

def heterogenize_tables(source, pair) -> tuple[OpTable, ...]:
    S = pair.width
    retracts = pair.retracts()
    pos = [{v: i for i, v in enumerate(r)} for r in retracts]
    sizes = tuple(len(r) for r in retracts)
    tables = []
    for g in source.tables:
        for v in itertools.product(range(S), repeat=g.arity):
            for t in range(S):
                outputs = []
                for args in itertools.product(*(range(sizes[s]) for s in v)):
                    y = g.apply(tuple(retracts[s][a] for s, a in zip(v, args)))
                    outputs.append(pos[t][pair.es[t].apply((y,))])
                tables.append(OpTable(Profile(v, t), sizes, tuple(outputs)))
    return tuple(tables)


def conjugate(f: OpTable, fwd, inv, carriers) -> OpTable:
    sizes = [carriers[s] for s in f.profile.inputs]
    outputs = []
    for args in itertools.product(*(range(n) for n in sizes)):
        back = tuple(inv[s][a] for s, a in zip(f.profile.inputs, args))
        outputs.append(fwd[f.profile.cod][f.apply(back)])
    return OpTable(f.profile, tuple(carriers), tuple(outputs))


def mu_maps(h, family):
    S = len(h.radices)
    return tuple(
        tuple(h.encode(tuple(family.maps[s][t].apply((a,)) for t in range(S)))
              for a in range(h.radices[s]))
        for s in range(S))


def canonical_es(h, family) -> tuple[OpTable, ...]:
    S = len(h.radices)
    es = []
    for s in range(S):
        outputs = tuple(
            h.encode(tuple(family.maps[s][t].apply((h.decode(x)[s],)) for t in range(S)))
            for x in range(h.size))
        es.append(OpTable(Profile((0,), 0), (h.size,), outputs))
    return tuple(es)


# -------------------------------------------------------------- lattice

def _reps(cong, s):
    r = [-1] * cong.block_count(s)
    for x, l in enumerate(cong.classes[s]):
        if r[l] < 0:
            r[l] = x
    return r


def quotient_tables(alg, cong) -> tuple[OpTable, ...]:
    counts = tuple(cong.block_count(s) for s in range(alg.n_sorts))
    reps = [_reps(cong, s) for s in range(alg.n_sorts)]
    tables = []
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        outs = []
        for row in itertools.product(*[range(counts[t]) for t in ins]):
            args = tuple(reps[t][l] for t, l in zip(ins, row))
            outs.append(cong.classes[cod][tab.apply(args)])
        tables.append(OpTable(sym.profile, counts, tuple(outs)))
    return tuple(tables)


def restrict_tables(alg, su) -> tuple[OpTable, ...]:
    index = [{x: i for i, x in enumerate(xs)} for xs in su.sets]
    counts = su.sizes()
    tables = []
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        ins, cod = sym.profile.inputs, sym.profile.cod
        outs = []
        for args in itertools.product(*[su.sets[s] for s in ins]):
            outs.append(index[cod][tab.apply(args)])
        tables.append(OpTable(sym.profile, counts, tuple(outs)))
    return tuple(tables)


def direct_product_tables(algs) -> tuple[OpTable, ...]:
    sig = algs[0].signature
    radices = [tuple(a.carriers[s] for a in algs) for s in range(algs[0].n_sorts)]
    carriers = tuple(prod(r) for r in radices)
    tables = []
    for idx, sym in enumerate(sig.symbols):
        ins, cod = sym.profile.inputs, sym.profile.cod
        outs = []
        for row in itertools.product(*[range(carriers[t]) for t in ins]):
            split = [decode_mixed(code, radices[t]) for code, t in zip(row, ins)]
            value = tuple(a.tables[idx].apply(tuple(col[i] for col in split))
                          for i, a in enumerate(algs))
            outs.append(encode_mixed(value, radices[cod]))
        tables.append(OpTable(sym.profile, carriers, tuple(outs)))
    return tuple(tables)


def congruence_product_classes(h, cong) -> tuple[int, ...]:
    raw = [tuple(cong.classes[s][v] for s, v in enumerate(h.decode(code)))
           for code in range(h.size)]
    seen = {}
    return tuple(seen.setdefault(k, len(seen)) for k in raw)


def quotient_psi(h, hq, theta) -> tuple[int, ...]:
    """Blocks of the collapsed quotient onto blocks of the collapse."""
    reps = [_reps(theta, s) for s in range(len(h.radices))]
    labels = congruence_product_classes(h, theta)
    return tuple(labels[h.encode(tuple(reps[s][b] for s, b in enumerate(hq.decode(code))))]
                 for code in range(hq.size))


def square_psi(alg, h, hsq) -> tuple[int, ...]:
    """The collapsed square onto the square of the collapse."""
    psi = []
    for code in range(hsq.size):
        split = [decode_mixed(c, (alg.carriers[s], alg.carriers[s]))
                 for s, c in enumerate(hsq.decode(code))]
        left = h.encode(tuple(col[0] for col in split))
        right = h.encode(tuple(col[1] for col in split))
        psi.append(left * h.size + right)
    return tuple(psi)


def pp_codes(h, rels, formula):
    """Solutions of one formula over product codes, as sorted free-position
    codes, on a dense np.indices grid."""
    n = h.size
    m = formula.mu + formula.nu
    members = []
    for r in rels:
        member = np.zeros(n ** r.arity, dtype=bool)
        for t in r.tuples:
            flat = 0
            for c in t:
                flat = flat * n + c
            member[flat] = True
        members.append(member)

    g = np.indices((n,) * m).reshape(m, -1)
    mask = np.ones(g.shape[1], dtype=bool)
    for k, cmap in formula.conjuncts:
        idx = np.zeros(g.shape[1], dtype=np.int64)
        for p in cmap:
            idx = idx * n + g[p]
        mask &= members[k][idx]
    free = np.zeros(int(mask.sum()), dtype=np.int64)
    for j in range(formula.mu):
        free = free * n + g[j][mask]
    return np.unique(free)


# ---------------------------------------------------------------- clone

def closure_columns(carriers, inputs) -> list[np.ndarray]:
    """The projection seed vectors, one per input position."""
    n_points = prod(carriers[s] for s in inputs)
    cols = np.array(list(itertools.product(*(range(carriers[s]) for s in inputs))),
                    dtype=np.int64).reshape(n_points, len(inputs))
    return [cols[:, i] for i in range(len(inputs))]

