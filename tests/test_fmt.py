"""Text format round trips and error positions."""

import pytest

from msalg.core import build_algebra
from msalg.corpus import corpus_algebra, corpus_names
from msalg.fmt import FormatError, emit_algebra, parse_algebra


def test_round_trip_every_corpus_algebra():
    for name in corpus_names():
        alg = corpus_algebra(name)
        text = emit_algebra(alg)
        again = parse_algebra(text)
        assert again == alg, name
        assert emit_algebra(again) == text, name


def test_a_tiny_text_shape():
    text = emit_algebra(corpus_algebra("a_tiny"))
    lines = text.splitlines()
    assert lines[0] == "msalg 1"
    assert "sort u 2" in lines and "sort w 3" in lines
    assert "symbol cu 1 u -> w" in lines
    assert lines[-1] == "end"
    alg = parse_algebra(text)
    assert alg.carriers == (2, 3)
    assert len(alg.signature.symbols) == 3


def test_comments_and_loose_whitespace():
    text = """
# binary minimum on a 2-chain
msalg 1
sorts 1
sort s 2   # the only sort
symbols 1
symbol f 2 s s -> s
table f 4
  0 0
  0   1
end
"""
    alg = parse_algebra(text)
    assert alg.table("f").outputs == (0, 0, 0, 1)


def test_error_positions():
    with pytest.raises(FormatError) as e:
        parse_algebra("msalg 2\n")
    assert e.value.line == 1 and "version" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_algebra("msalg 1\nsorts 1\nsort s 2\nsymbols 1\nsymbol f 1 t -> s\n")
    assert e.value.line == 5 and "unknown sort 't'" in str(e.value)

    bad_value = "msalg 1\nsorts 1\nsort s 2\nsymbols 1\nsymbol f 1 s -> s\ntable f 2\n0 7\nend\n"
    with pytest.raises(FormatError) as e:
        parse_algebra(bad_value)
    assert e.value.line == 7 and e.value.col == 3

    wrong_count = "msalg 1\nsorts 1\nsort s 2\nsymbols 1\nsymbol f 1 s -> s\ntable f 3\n0 1 0\nend\n"
    with pytest.raises(FormatError) as e:
        parse_algebra(wrong_count)
    assert "domain has 2" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_algebra("msalg 1\nsorts 1\nsort s 2\nsymbols 0\nend\nextra")
    assert "trailing" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_algebra("msalg 1\nsorts 1\nsort s 2\nsymbols 0\n")
    assert "end of input" in str(e.value)

    with pytest.raises(FormatError) as e:
        parse_algebra("msalg 1\nsorts 0\nsymbols 0\nend\n")
    assert (e.value.line, e.value.col) == (2, 7) and "sort count must be at least 1" in str(e.value)


def test_tables_must_follow_symbol_order():
    text = ("msalg 1\nsorts 1\nsort s 2\nsymbols 2\n"
            "symbol f 1 s -> s\nsymbol g 1 s -> s\n"
            "table g 2\n0 1\ntable f 2\n0 1\nend\n")
    with pytest.raises(FormatError) as e:
        parse_algebra(text)
    assert "symbol order" in str(e.value)


def test_nullary_and_empty_tables():
    text = "msalg 1\nsorts 2\nsort s 2\nsort e 0\nsymbols 2\nsymbol c 0 -> s\nsymbol f 1 e -> e\ntable c 1\n1\ntable f 0\nend\n"
    alg = parse_algebra(text)
    assert alg.table("c").outputs == (1,)
    assert alg.table("f").outputs == ()
    assert parse_algebra(emit_algebra(alg)) == alg


def test_parse_is_cached_by_value():
    """Equal text in two separate strings parses to one object; changing
    one table entry parses to another; a FormatError raises on every call
    and is never stored."""
    def text(outputs):
        return emit_algebra(build_algebra([("u", 2), ("w", 3)], [
            ("cu", ("u",), "w", outputs), ("cw", ("w",), "u", (0, 1, 1))]))

    first, second = text((0, 1)), text((0, 1))
    assert first is not second
    alg = parse_algebra(first)
    assert parse_algebra(second) is alg
    changed = parse_algebra(text((0, 2)))
    assert changed is not alg and changed != alg
    stored = parse_algebra.cache_info().currsize
    for _ in range(2):
        with pytest.raises(FormatError, match="outside carrier"):
            parse_algebra(text((0, 1)).replace("table cu 2\n0 1", "table cu 2\n0 3"))
    assert parse_algebra.cache_info().currsize == stored
