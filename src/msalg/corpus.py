"""Built-in example algebras.

Each builder returns a fresh SortedAlgebra.  Tables are written out as
row-major output lists (last argument varies fastest).  The registry order
is stable and the CLI resolves "@name" against it.
"""

from __future__ import annotations

from itertools import product

from .model import SortedAlgebra, build_algebra


def _table(sizes, fn):
    return [fn(*args) for args in product(*(range(n) for n in sizes))]


def a_tiny() -> SortedAlgebra:
    """Two sorts u (2 elements) and w (3), three unary maps.

    cu: u -> w embeds, cw: w -> u collapses {1, 2}, m: w -> w is a
    non-surjective shift.  Small enough to cross-check every construction by
    hand, and rich enough that the unary fragment on w has four members.
    """
    return build_algebra(
        [("u", 2), ("w", 3)],
        [
            ("cu", ["u"], "w", [0, 1]),
            ("cw", ["w"], "u", [0, 1, 1]),
            ("m", ["w"], "w", [1, 1, 2]),
        ],
    )


def a_malcev() -> SortedAlgebra:
    """Affine pieces: Z2 on sort u and Z3 on sort w via x - y + z, plus
    constant cross maps qu, qw so every sort reaches every other."""
    return build_algebra(
        [("u", 2), ("w", 3)],
        [
            ("pu", ["u", "u", "u"], "u", _table((2, 2, 2), lambda x, y, z: (x - y + z) % 2)),
            ("pw", ["w", "w", "w"], "w", _table((3, 3, 3), lambda x, y, z: (x - y + z) % 3)),
            ("qu", ["u"], "w", [0, 0]),
            ("qw", ["w"], "u", [0, 0, 0]),
        ],
    )


def a_semilat() -> SortedAlgebra:
    """Meet semilattices: a 3-chain on sort u and a 2-chain on sort w,
    with constant cross maps for purity.  The 3-chain is what produces a
    non-permuting congruence pair after homogenization."""
    return build_algebra(
        [("u", 3), ("w", 2)],
        [
            ("meet_u", ["u", "u"], "u", _table((3, 3), min)),
            ("meet_w", ["w", "w"], "w", _table((2, 2), min)),
            ("qu", ["u"], "w", [0, 0, 0]),
            ("qw", ["w"], "u", [0, 0]),
        ],
    )


def nonpure() -> SortedAlgebra:
    """Two 2-element sorts and no operations at all: no cross-sort terms
    exist, so this is the stock example of a non-pure algebra."""
    return build_algebra([("a", 2), ("b", 2)], [])


def a_group() -> SortedAlgebra:
    """One sort, Z3 with the ternary affine operation x - y + z."""
    return build_algebra(
        [("g", 3)],
        [("p", ["g", "g", "g"], "g", _table((3, 3, 3), lambda x, y, z: (x - y + z) % 3))],
    )


def a_lattice() -> SortedAlgebra:
    """Two 2-element lattices (meet and join on each sort) plus constant
    cross maps.  Congruence-distributive, with a majority term per sort."""
    return build_algebra(
        [("u", 2), ("w", 2)],
        [
            ("meet_u", ["u", "u"], "u", _table((2, 2), min)),
            ("join_u", ["u", "u"], "u", _table((2, 2), max)),
            ("meet_w", ["w", "w"], "w", _table((2, 2), min)),
            ("join_w", ["w", "w"], "w", _table((2, 2), max)),
            ("qu", ["u"], "w", [0, 0]),
            ("qw", ["w"], "u", [0, 0]),
        ],
    )


CORPUS = {
    "a_tiny": a_tiny,
    "a_malcev": a_malcev,
    "a_semilat": a_semilat,
    "nonpure": nonpure,
    "a_group": a_group,
    "a_lattice": a_lattice,
}


def corpus_names() -> tuple[str, ...]:
    return tuple(CORPUS)


def corpus_algebra(name: str) -> SortedAlgebra:
    if name not in CORPUS:
        raise KeyError("no corpus algebra named %r (have: %s)" % (name, ", ".join(CORPUS)))
    return CORPUS[name]()
