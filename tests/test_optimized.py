"""The differential equation, saturation and tabulation checks, the core,
clone, collapse, split, diagonal, format, lattice, Mal'cev and Jonsson,
command-line and property tests, rerun in a python -O subprocess, where
assert statements are compiled away: no verdict, witness, table, input
check or exit status may depend on one."""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_equations_and_exit_codes_pass_under_python_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(HERE, os.pardir, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *(os.path.join(HERE, "test_%s.py" % name)
                             for name in ("equations", "saturate", "tabulate", "lattice", "lattice_engine",
                                          "homog", "hetero", "diagonal", "fmt", "core", "clone", "malcev",
                                          "cli", "properties"))],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert "passed" in proc.stdout
