"""Shared launcher for the tests that run Python in a child process."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, cwd, timeout=300):
    """Run `python *args` in `cwd` and capture its output.

    The child runs from `cwd`, where a relative PYTHONPATH no longer resolves;
    this checkout's absolute src goes first, so the child imports the same
    expalign as the tests, never an installed copy.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_cli(args, cwd):
    """Run `python -m expalign.cli *args` in `cwd`."""
    return run_python(["-m", "expalign.cli", *args], cwd)
