"""Every demo runs to completion against the package in ``src`` without a
word on stderr, and no run leaves its parameterization's unit region."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.stem)
def test_demo_exits_0(tmp_path, demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    # demo 04's log-ratio runs start inside the region their dual map assumes
    assert "(left u,v > 1 region)" not in run.stdout
