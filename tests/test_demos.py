"""Each demo runs as a script against the package sources: exit 0, nothing on stderr.

The demos call the public API the way a user would, so an API change that
breaks one fails here, not only when the demos are run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
