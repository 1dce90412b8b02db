"""Start ``python -m qboson`` in a child process for the CLI tests.

The child gets an explicit environment whose PYTHONPATH starts with the
absolute directory holding the ``qboson`` package this test process
imported, followed by the inherited entries made absolute.  A relative entry
such as ``PYTHONPATH=src`` would otherwise resolve against the child's cwd,
so a test run from a temporary directory would start no qboson at all.  With
it, the child runs the same code the in-process comparisons use, whatever
its cwd and whether or not the package is installed.
"""

import os
import subprocess
import sys
from pathlib import Path

import qboson

PACKAGE_ROOT = Path(qboson.__file__).resolve().parent.parent


def run_cli(*args, cwd=None):
    return run_python("-m", "qboson", *args, cwd=cwd)


def run_python(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=_environment())


def start_cli(*args, stderr):
    """``python -m qboson`` left running, its stdout a pipe the caller reads
    and may close early, and its stderr written to the file ``stderr``."""
    return subprocess.Popen([sys.executable, "-m", "qboson", *args], stdout=subprocess.PIPE,
                            stderr=stderr, env=_environment())


def _environment():
    inherited = [os.path.abspath(entry)
                 for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE_ROOT), *inherited])}
