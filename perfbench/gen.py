"""Seeded inputs for the seeded workloads.

Every generated algebra has the same signature shape: two sorts u and w
whose carriers are 2 and 3 in an order the seed picks, cross maps cu: u->w
and cw: w->u (so every input is pure), and one endomap per sort, mu: u->u
and mw: w->w.

The tables come in two draws.  A fixed catalogue is drawn once, uniformly,
from CATALOGUE_SEED.  The run's seed then draws, for every catalogue entry,
the carrier order and one permutation of each carrier, and the entry is
relabelled by them.  So the seed decides every table, while the work a run
does stays that of the catalogue: costs on uniformly drawn algebras are
bimodal with rare 10-60 s tails, and uniform draws of a size that fits a
run disagree from seed to seed by more than half their median.

Files are written through msalg.emit_algebra, so one seed gives
byte-identical files.
"""

from __future__ import annotations

import os
import random

CATALOGUE_SEED = 7
SYMBOLS = (("cu", "u", "w"), ("cw", "w", "u"), ("mu", "u", "u"), ("mw", "w", "w"))
# Renaming that swaps the two sorts maps each symbol onto its mirror.
MIRROR = {"cu": "cw", "cw": "cu", "mu": "mw", "mw": "mu"}


def uniform_algebra(rng: random.Random):
    """({sort: size}, {symbol: outputs}) with every table drawn uniformly."""
    sizes = {"u": 2, "w": 3} if rng.random() < 0.5 else {"u": 3, "w": 2}
    tables = {name: [rng.randrange(sizes[dst]) for _ in range(sizes[src])]
              for name, src, dst in SYMBOLS}
    return sizes, tables


def catalogue(count: int):
    rng = random.Random(CATALOGUE_SEED)
    return [uniform_algebra(rng) for _ in range(count)]


def relabel(entry, rng: random.Random):
    """An isomorphic copy of entry: carrier order and labels drawn from rng."""
    sizes, tables = entry
    if rng.random() < 0.5:
        sizes = {"u": sizes["w"], "w": sizes["u"]}
        tables = {MIRROR[name]: outs for name, outs in tables.items()}
    perm = {}
    for sort in ("u", "w"):
        labels = list(range(sizes[sort]))
        rng.shuffle(labels)
        perm[sort] = labels
    out = {}
    for name, src, dst in SYMBOLS:
        new = [0] * sizes[src]
        for x, y in enumerate(tables[name]):
            new[perm[src][x]] = perm[dst][y]
        out[name] = new
    return sizes, out


def build(msalg, entry):
    sizes, tables = entry
    return msalg.build_algebra([("u", sizes["u"]), ("w", sizes["w"])],
                               [(name, (src,), dst, tables[name]) for name, src, dst in SYMBOLS])


def write_algebras(msalg, seed: int, count: int, directory: str) -> list[str]:
    """Write relabelled copies of the first count catalogue entries; return basenames."""
    rng = random.Random(seed)
    names = []
    for i, entry in enumerate(catalogue(count)):
        name = "g%02d.alg" % i
        text = msalg.emit_algebra(build(msalg, relabel(entry, rng)))
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        names.append(name)
    return names
