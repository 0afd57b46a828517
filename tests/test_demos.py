"""Every demo runs to completion against the package in ``src`` without a
word on stderr, no run leaves its parameterization's unit region, and each
prints the stdout of the output manifest (``tests/golden.py``)."""

import pytest

import golden


@pytest.mark.parametrize("demo", golden.DEMOS, ids=lambda path: path.stem)
def test_demo_exits_0(tmp_path, demo):
    run = golden.run_demo(demo, tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    # demo 04's log-ratio runs start inside the region their dual map assumes
    assert "(left u,v > 1 region)" not in run.stdout
    manifest = golden.load()
    mismatch = golden.version_mismatch(manifest)
    assert mismatch is None, mismatch
    assert golden.digest(run.stdout) == manifest["demos"][demo.stem], (
        f"{demo.stem}'s stdout moved from tests/golden.json:\n{run.stdout}")
