"""Every command of the output manifest (``tests/golden.py``) writes the
bytes it wrote when the manifest was taken; a refactor keeps them all."""

import golden


def test_commands_write_the_outputs_of_the_manifest(tmp_path):
    manifest = golden.load()
    mismatch = golden.version_mismatch(manifest)
    assert mismatch is None, mismatch
    moved = golden.moved(manifest["commands"], golden.run_commands(tmp_path))
    assert not moved, ("outputs moved from tests/golden.json (regenerate it with "
                       "`python tests/golden.py --write` and say why in CHANGES.md):\n"
                       + "\n".join(moved))
