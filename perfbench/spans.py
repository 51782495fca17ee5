"""Spans around the library's layer functions, recorded from outside.

install() replaces each named function with a wrapper at every msalg
module that binds it, so a call through msalg.diagonal.saturate is timed
as well as one through msalg.clone.saturate.  Spans stay in memory as
[name, start, end, parent, op] lists until the pass ends; summarize()
derives totals, self times and counts from them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

LAYERS = {
    "clone": ("saturate", "generate_fragment"),
    "core": ("compose",),
    "diagonal": ("verify_decomposition", "decompose_table", "find_diagonal_pairs"),
    "homog": ("homogenize", "assembled_fragment"),
    "hetero": ("heterogenize", "verify_mu_roundtrip", "verify_nu_roundtrip"),
    "lattice": ("inv_enumerate", "verify_inv_iso", "enumerate_subuniverses",
                "enumerate_congruences", "verify_sub_con_transfer", "direct_product",
                "quotient"),
    "malcev": ("check_cp_bruteforce", "check_cd_bruteforce"),
    "fmt": ("load_algebra", "emit_algebra"),
}


# Spans that every workload runs.  Only these report a time among the
# per-layer metrics, so that no time metric reads 0 on every run of a
# workload that bypasses its layer; every span reports its call count, and
# run.py prints every span's total and self time.
TIMED = ("clone.saturate", "clone.generate_fragment", "homog.homogenize",
         "lattice.enumerate_subuniverses", "lattice.enumerate_congruences")
TIMED_LAYERS = ("clone", "homog", "lattice")


def _saturate_rows(result):
    return sum(len(matrix) for matrix, _terms in result.values())


# Output counts: span name -> (metric name, size of the returned value).
OUTPUTS = {
    "clone.saturate": ("clone.saturate_tables", _saturate_rows),
    "lattice.inv_enumerate": ("lattice.closed_sets", len),
    "lattice.enumerate_subuniverses": ("lattice.subuniverses", len),
    "lattice.enumerate_congruences": ("lattice.congruences", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.outputs: dict[str, int] = {}
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around one op."""
        self.op = name
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self.op = ""

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn):
        count = OUTPUTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                self.outputs[count[0]] = self.outputs.get(count[0], 0) + count[1](result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "msalg" or n.startswith("msalg."))]
        for layer, names in LAYERS.items():
            home = sys.modules["msalg." + layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self.wrap("%s.%s" % (layer, fname), original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)


def summarize(spans) -> dict:
    """Totals, self times and call counts per span name.

    A span's total counts only calls not nested in a call of the same name,
    so recursion is not counted twice.  covered_s is the time spent inside
    any wrapped library function, as opposed to the benchmark's op spans.
    """
    layer_names = {"%s.%s" % (layer, f) for layer, fs in LAYERS.items() for f in fs}
    children_time = [0.0] * len(spans)
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children_time[parent] += end - start
    out: dict[str, dict] = {}
    covered = 0.0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - children_time[i]
        p, nested, in_layer = parent, False, False
        while p >= 0:
            if spans[p][0] == name:
                nested = True
            if spans[p][0] in layer_names:
                in_layer = True
            p = spans[p][3]
        if not nested:
            row["total_s"] += end - start
        if name in layer_names and not in_layer:
            covered += end - start
    return {"spans": out, "covered_s": covered}
