"""Checks on the package as shipped: its source and its data files."""

import ast
import pathlib

import pytest

import msalg
from msalg.corpus import corpus_algebra, corpus_names
from msalg.fmt import emit_algebra

PACKAGE = pathlib.Path(msalg.__file__).parent


def test_no_result_depends_on_assert():
    """python -O drops assert statements and sets __debug__ to False, so
    the library uses neither."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def test_data_files_are_the_corpus():
    assert sorted(p.stem for p in (PACKAGE / "data").glob("*.alg")) == sorted(corpus_names())


@pytest.mark.parametrize("name", corpus_names())
def test_data_file_is_the_emitted_corpus_algebra(name):
    assert (PACKAGE / "data" / (name + ".alg")).read_text() == emit_algebra(corpus_algebra(name))
