"""The package namespace: its exports, and which submodules it loads.

`import msalg` loads no submodule; each is imported the first time one of
its names is read through the package.  `msalg.cli` imports `lattice` before
anything that loads numpy, and `hashlib` loads only when a search key is
taken.  Load order is only visible in a fresh
interpreter, so those checks run in a subprocess."""

import importlib
import subprocess
import sys

import pytest

import msalg
from msalg.corpus import corpus_algebra
from msalg.fmt import emit_algebra


def _fresh(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_loading_algebras_needs_core_corpus_and_fmt(tmp_path):
    path = tmp_path / "tiny.alg"
    path.write_text(emit_algebra(corpus_algebra("a_tiny")))
    code = """if True:
        import sys
        import msalg
        loaded = lambda: sorted(m for m in sys.modules if m.startswith("msalg."))
        print(loaded())
        msalg.corpus_algebra("a_tiny")
        msalg.load_algebra(sys.argv[1])
        print(loaded())
    """
    assert _fresh(code, str(path)) == "[]\n['msalg.core', 'msalg.corpus', 'msalg.fmt']\n"


def test_loading_an_algebra_leaves_hashlib_unloaded_until_a_search_key_is_taken():
    # only the Mal'cev and Jonsson searches rank candidates by
    # core.table_search_key, so only they should pay for hashlib
    code = """if True:
        import sys
        import msalg
        alg = msalg.corpus_algebra("a_tiny")
        print("hashlib" in sys.modules)
        msalg.core.table_search_key(alg.tables[0])
        print("hashlib" in sys.modules)
    """
    assert _fresh(code) == "False\nTrue\n"


def test_a_submodule_is_reachable_through_the_package_in_a_fresh_interpreter():
    code = """if True:
        import msalg
        print(msalg.lattice.enumerate_subuniverses.__module__)
    """
    assert _fresh(code) == "msalg.lattice\n"


def test_the_cli_starts_lattice_before_numpy_is_imported():
    code = """if True:
        import sys
        started = []

        class Watch:
            def find_spec(self, name, path=None, target=None):
                started.append(name)

        sys.meta_path.insert(0, Watch())
        import msalg.cli
        print(started.index("msalg.lattice") < started.index("numpy"))
    """
    assert _fresh(code) == "True\n"


def test_every_export_is_the_object_of_its_home_module():
    assert [name for name in msalg.__all__
            if getattr(msalg, name) is not getattr(importlib.import_module("msalg." + msalg._HOME[name]), name)
            ] == []


def test_star_import_binds_all_72_exports():
    namespace = {}
    exec("from msalg import *", namespace)
    namespace.pop("__builtins__")
    assert len(msalg.__all__) == 72
    assert sorted(namespace) == sorted(msalg.__all__)
    assert all(namespace[name] is getattr(msalg, name) for name in msalg.__all__)


def test_dir_lists_every_export_before_any_is_loaded():
    code = """if True:
        import msalg
        print("__all__" in dir(msalg), sorted(set(msalg.__all__) - set(dir(msalg))))
    """
    assert _fresh(code) == "True []\n"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'msalg' has no attribute 'no_such_name'"):
        msalg.no_such_name
