import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphquant


@pytest.fixture
def fresh_python():
    """Run a script in a fresh interpreter that imports graphquant from this
    checkout, and return its stdout lines: for checks on which modules a
    process loads, which the test process itself has long since imported."""
    src = str(Path(graphquant.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(script):
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True).stdout.splitlines()
    return run
