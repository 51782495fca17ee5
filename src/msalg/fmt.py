"""Plain-text algebra files.

The format is line oriented and fully whitespace tolerant inside table
blocks; '#' starts a comment anywhere.  Canonical emission wraps table
values one line per run of the last argument, so a binary table over a
3-element sort prints as three lines of three.

    msalg 1
    sorts 2
    sort u 2
    sort w 3
    symbols 1
    symbol cu 1 u -> w
    table cu 2
    0 1
    end

Nullary symbols write as "symbol c 0 -> s" and their table block holds the
single value.  Parse errors carry the 1-based line and column.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .model import SortedAlgebra, build_algebra

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class FormatError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, msg))
        self.line = line
        self.col = col


class _Tokens:
    """Token stream with positions; comments stripped."""

    def __init__(self, text: str):
        self.items: list[tuple[str, int, int]] = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            for m in re.finditer(r"\S+", body):
                self.items.append((m.group(), ln, m.start() + 1))
        self.pos = 0
        self.last = (1, 1)

    def next(self, what: str) -> tuple[str, int, int]:
        if self.pos >= len(self.items):
            raise FormatError("expected %s, found end of input" % what, *self.last)
        tok = self.items[self.pos]
        self.pos += 1
        self.last = (tok[1], tok[2])
        return tok

    def word(self, what: str) -> str:
        return self.next(what)[0]

    def keyword(self, kw: str) -> None:
        tok, ln, col = self.next("'%s'" % kw)
        if tok != kw:
            raise FormatError("expected '%s', found %r" % (kw, tok), ln, col)

    def integer(self, what: str, low: int = 0) -> int:
        tok, ln, col = self.next(what)
        try:
            n = int(tok)
        except ValueError:
            raise FormatError("expected %s (an integer), found %r" % (what, tok), ln, col)
        if n < low:
            raise FormatError("%s must be at least %d, found %d" % (what, low, n), ln, col)
        return n

    def name(self, what: str) -> str:
        tok, ln, col = self.next(what)
        if not _NAME.match(tok):
            raise FormatError("%s %r is not a valid name" % (what, tok), ln, col)
        return tok

    def done(self) -> bool:
        return self.pos >= len(self.items)


@lru_cache(maxsize=256)
def parse_algebra(text: str) -> SortedAlgebra:
    """The algebra a file's text describes; FormatError names the line
    and column of the first problem.  Cached by value, like
    clone._closure_full."""
    tk = _Tokens(text)
    tk.keyword("msalg")
    ver, ln, col = tk.next("format version")
    if ver != "1":
        raise FormatError("unsupported format version %r" % ver, ln, col)
    tk.keyword("sorts")
    n_sorts = tk.integer("sort count", low=1)
    sorts: list[tuple[str, int]] = []
    seen_sorts = set()
    for _ in range(n_sorts):
        tk.keyword("sort")
        name = tk.name("sort name")
        if name in seen_sorts:
            raise FormatError("sort %r declared twice" % name, *tk.last)
        seen_sorts.add(name)
        sorts.append((name, tk.integer("carrier size of %r" % name)))

    tk.keyword("symbols")
    n_syms = tk.integer("symbol count")
    symbols: list[tuple[str, list[str], str]] = []
    for _ in range(n_syms):
        tk.keyword("symbol")
        name = tk.name("symbol name")
        arity = tk.integer("arity of %r" % name)
        ins = []
        for j in range(arity):
            s, ln, col = tk.next("argument sort %d of %r" % (j, name))
            if s not in seen_sorts:
                raise FormatError("unknown sort %r" % s, ln, col)
            ins.append(s)
        tk.keyword("->")
        cod, ln, col = tk.next("cod sort of %r" % name)
        if cod not in seen_sorts:
            raise FormatError("unknown sort %r" % cod, ln, col)
        symbols.append((name, ins, cod))

    sizes = dict(sorts)
    ops = []
    for name, ins, cod in symbols:
        tk.keyword("table")
        tname, ln, col = tk.next("table name")
        if tname != name:
            raise FormatError("tables must follow symbol order; expected table %r, found %r"
                              % (name, tname), ln, col)
        count = tk.integer("value count of table %r" % name)
        want = 1
        for s in ins:
            want *= sizes[s]
        if count != want:
            raise FormatError("table %r declares %d values, domain has %d"
                              % (name, count, want), ln, col)
        values = []
        for j in range(count):
            v = tk.integer("value %d of table %r" % (j, name))
            if v >= sizes[cod]:
                raise FormatError("value %d of table %r is %d, outside carrier of %r (size %d)"
                                  % (j, name, v, cod, sizes[cod]), *tk.last)
            values.append(v)
        ops.append((name, ins, cod, values))
    tk.keyword("end")
    if not tk.done():
        tok, ln, col = tk.next("nothing")
        raise FormatError("trailing input %r after 'end'" % tok, ln, col)
    return build_algebra(sorts, ops)


def emit_algebra(alg: SortedAlgebra) -> str:
    lines = ["msalg 1"]
    lines.append("sorts %d" % alg.n_sorts)
    for name, size in zip(alg.signature.sorts, alg.carriers):
        lines.append("sort %s %d" % (name, size))
    lines.append("symbols %d" % len(alg.signature.symbols))
    for sym in alg.signature.symbols:
        ins = " ".join(alg.signature.sorts[s] for s in sym.profile.inputs)
        head = "symbol %s %d" % (sym.name, sym.profile.arity)
        if ins:
            head += " " + ins
        lines.append("%s -> %s" % (head, alg.signature.sorts[sym.profile.cod]))
    for sym, tab in zip(alg.signature.symbols, alg.tables):
        total = len(tab.outputs)
        lines.append("table %s %d" % (sym.name, total))
        run = tab.domain_sizes[-1] if tab.arity else 1
        if run == 0:
            run = 1
        for i in range(0, total, run):
            lines.append(" ".join(str(v) for v in tab.outputs[i:i + run]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def load_algebra(path: str) -> SortedAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def save_algebra(path: str, alg: SortedAlgebra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_algebra(alg))
