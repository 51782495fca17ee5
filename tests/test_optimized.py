"""Every test_*.py file but this one, test_package (checks on the shipped
source and data) and test_acceptance (the timed criteria battery), rerun
in a python -O subprocess, where assert statements are compiled away: no
verdict, witness, table, input check or exit status may depend on one."""

import glob
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SKIPPED = {"test_optimized.py", "test_package.py", "test_acceptance.py"}


def test_equations_and_exit_codes_pass_under_python_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(HERE, os.pardir, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *sorted(path for path in glob.glob(os.path.join(HERE, "test_*.py"))
                                   if os.path.basename(path) not in SKIPPED)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-2000:]
    assert "passed" in proc.stdout
