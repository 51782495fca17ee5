"""What each workload runs and what a correct result looks like."""

from __future__ import annotations

# battery: criteria of msalg.suite in order, with the (ok, detail) each
# returned at the commit that defined this benchmark.  Criteria 7 and 8 are
# left out: each computes the ternary fragment of the a_malcev collapse
# (criterion 8 reuses criterion 7's cached copy), which takes 35-52 s on
# its own, longer than a run may last.
BATTERY = (
    (1, True, "a_tiny=ok a_malcev=ok a_semilat=ok nonpure=no-pair a_group=ok a_lattice=ok"),
    (2, True, "a_tiny=45 a_malcev=36 a_semilat=16 nonpure=4 a_group=3 a_lattice=25"),
    (3, True, "a_tiny=10-pairs a_malcev=4-pairs"),
    (4, True, "a_tiny=ok a_malcev=ok"),
    (5, True, "a_tiny=ok a_malcev=ok nonpure=collapse-reproduced"),
    (6, True, "a_tiny=ok checks=3"),
)

# Seeded workloads: command lines run through msalg.cli.main on every
# generated algebra, in this order.  "{alg}" stands for the algebra file.
RELATIONS = (
    ("sub", "{alg}"),
    ("con", "{alg}"),
    ("inv", "{alg}", "--mu", "2"),
    ("inv-iso", "{alg}"),
    ("cp", "{alg}", "--homogenize"),
    ("cd", "{alg}", "--homogenize"),
)
TRANSPORT = (
    ("homogenize", "{alg}"),
    ("pure", "{alg}"),
    ("heterogenize", "{alg}"),
    ("matrix", "{alg}"),
    ("diag-verify", "{alg}"),
    ("roundtrip-mu", "{alg}"),
    ("roundtrip-nu", "{alg}"),
    ("decompose", "{alg}", "--lam", "1"),
    ("transfer", "{alg}"),
    ("quotient", "{alg}", "--pair", "u", "0", "1"),
    ("product", "{alg}", "{alg}"),
)

# Commands with a known verdict on a pure input: they must exit 0.  Every
# other command may exit 0 or 1, never 2, and must not raise.
MUST_PASS = frozenset({"pure", "roundtrip-mu", "roundtrip-nu", "diag-verify",
                       "decompose", "transfer", "inv-iso"})

SEEDED = {
    # name: (commands, number of catalogue algebras per pass)
    "relations": (RELATIONS, 3),
    "transport": (TRANSPORT, 8),
}

WORKLOADS = ("battery",) + tuple(SEEDED)
