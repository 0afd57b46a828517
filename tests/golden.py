"""The output manifest: the SHA-256 of every output of a fixed set of commands.

``tests/golden.json`` holds, for each command, its argv, its exit code and
the digest of its stdout, its stderr and every file it writes to its
``--out`` directory; for each demo, the digest of its stdout; and the NumPy
and BLAS versions the digests were taken under.  Before hashing, the text is
scrubbed of what differs from run to run: the value of every summary's
``wall_time_s`` and a timing printed at the end of a line ("12s").  A
refactor that keeps every output byte-identical leaves the manifest as it
is; a change that moves an output regenerates it, and the manifest's diff
names each moved output.

    python tests/golden.py            # compare with the manifest, list what moved
    python tests/golden.py --write    # regenerate the manifest

Run with ``src`` on PYTHONPATH, as the tests are.  The commands run in
process through ``mirrorlab.cli.main``; the demos run as scripts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).with_name("golden.json")
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the benchmark's verify-suite and cli-record commands at seed 0, then the
# commands whose runs stop early or decay their strength.  Each writes into
# its own --out directory
COMMANDS = (
    [["verify", "equivalence", "--family", f, "--seed", "0"]
     for f in ("hadamard", "entropy", "quadratic", "diff-powers")]
    + [["verify", "optimality", "--case", c, "--seed", "0"] for c in ("diagonal", "sensing")]
    + [["verify", "contracting", "--family", f, "--seed", "0"] for f in ("hyperbolic", "entropy")]
    + [["verify", "commuting", "--variant", "hadamard", "--seed", "0"],
       ["verify", "commuting", "--variant", "deep-hadamard", "--depth", "3", "--expect-fail",
        "--seed", "0"],
       ["run", "sensing", "--seeds", "0,1", "--record-every", "1", "--jobs", "1"],
       ["run", "sparse-coding", "--variant", "diff-powers", "--k", "2", "--jobs", "1",
        "--seed", "0"],
       ["run", "sparse-coding", "--variant", "log-ratio", "--jobs", "1", "--seed", "0"],
       ["run", "flow", "--family", "entropy", "--jobs", "1", "--seed", "0"],
       ["run", "flow", "--family", "hyperbolic", "--jobs", "1", "--seed", "0"],
       ["run", "diagonal", "--record-every", "1", "--jobs", "1", "--seed", "0"],
       ["run", "flow", "--family", "hyperbolic", "--method", "euler", "--step", "1",
        "--t-end", "200", "--alpha0", "0"],
       ["run", "sensing", "--schedule", "cosine-decay", "--alpha0", "0.04",
        "--turnoff-time", "625", "--steps", "2000"],
       ["run", "sensing", "--schedule", "linear-decay", "--alpha0", "0.04",
        "--turnoff-time", "300", "--steps", "2000", "--sensing-kind", "commuting-diagonal",
        "--seed", "3"],
       ["run", "flow", "--family", "entropy", "--schedule", "cosine-decay", "--alpha0", "0.3",
        "--turnoff-time", "2", "--method", "bdf"],
       ["run", "sparse-coding", "--variant", "log-ratio", "--lr-scale", "5", "--steps", "50"]]
)

_WALL_TIME = re.compile(r'("wall_time_s": )[^,\n]+')
_TIMING = re.compile(r"\b\d+(?:\.\d+)?s$")


def scrub(text):
    """``text`` with every summary's wall time and every timing printed at
    the end of a line replaced by a fixed token.  Only a line ending in "s"
    is searched for a timing: on a 4 MB CSV the search costs 0.4 s."""
    return "\n".join(_TIMING.sub("<time>s", line) if line.endswith("s") else line
                     for line in _WALL_TIME.sub(r"\g<1>0", text).split("\n"))


def digest(text):
    """The SHA-256 of scrubbed text."""
    return hashlib.sha256(scrub(text).encode()).hexdigest()


def versions():
    """The NumPy and BLAS versions the outputs are computed under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()}


def run_command(argv, outdir):
    """Run one command in process with ``--out outdir``, MIRRORLAB_SEED unset:
    its exit code and the digest of its stdout, stderr and every file written."""
    from mirrorlab import cli

    out, err = io.StringIO(), io.StringIO()
    env_seed = os.environ.pop("MIRRORLAB_SEED", None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", str(outdir)])
    finally:
        if env_seed is not None:
            os.environ["MIRRORLAB_SEED"] = env_seed
    hashes = {"stdout": digest(out.getvalue()), "stderr": digest(err.getvalue())}
    for path in sorted(Path(outdir).glob("*")):
        hashes[path.name] = digest(path.read_text())
    return code, hashes


def run_commands(workdir):
    """Every command's manifest entry, each run into its own directory under ``workdir``."""
    entries = []
    for i, argv in enumerate(COMMANDS):
        code, hashes = run_command(argv, Path(workdir) / f"cmd{i}")
        entries.append({"argv": argv, "exit": code, "hashes": hashes})
    return entries


def run_demo(demo, cwd):
    """A demo run as a script in ``cwd`` against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                          cwd=cwd, timeout=300)


def load():
    return json.loads(MANIFEST.read_text())


def version_mismatch(manifest):
    """None when this process runs the manifest's NumPy and BLAS versions,
    else a message naming both sets."""
    here = versions()
    if manifest["versions"] == here:
        return None
    return (f"the manifest was taken under {manifest['versions']}, this run has {here}: "
            "regenerate it with `python tests/golden.py --write` and compare the outputs "
            "by hand")


def moved(expected, entries):
    """The outputs of ``entries`` whose exit code or digest differs from the
    manifest's ``expected`` commands, one line each."""
    lines = []
    for want, got in zip(expected, entries):
        name = " ".join(got["argv"])
        if want["argv"] != got["argv"]:
            lines.append(f"{name}: the manifest has {' '.join(want['argv'])} here")
            continue
        if want["exit"] != got["exit"]:
            lines.append(f"{name}: exit {got['exit']}, manifest {want['exit']}")
        for output in sorted(want["hashes"].keys() | got["hashes"].keys()):
            if want["hashes"].get(output) != got["hashes"].get(output):
                lines.append(f"{name}: {output}")
    if len(expected) != len(entries):
        lines.append(f"{len(entries)} commands, the manifest has {len(expected)}")
    return lines


def main(argv):
    if argv not in ([], ["--write"]):
        sys.exit("usage: python tests/golden.py [--write]")
    with tempfile.TemporaryDirectory() as work:
        entries = run_commands(work)
        demos = {demo.stem: digest(run_demo(demo, work).stdout) for demo in DEMOS}
    if argv:
        manifest = {"versions": versions(), "commands": entries, "demos": demos}
        MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
        return 0
    manifest = load()
    lines = moved(manifest["commands"], entries)
    lines += [f"demo {stem}: stdout" for stem, value in demos.items()
              if manifest["demos"].get(stem) != value]
    mismatch = version_mismatch(manifest)
    print("\n".join(([mismatch] if mismatch else []) + (lines or ["no output moved"])))
    return 1 if lines or mismatch else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
