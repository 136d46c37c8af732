"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ucscreen

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # The demos import the package this test imports, wherever it lives.
    package_root = str(Path(ucscreen.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    if path:
        package_root += os.pathsep + path
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
