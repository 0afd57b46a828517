"""mirrorlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sensing-ablation --seed 0 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report and a JSON ``report`` line with the machine facts,
per-operation times and the reference diagnostic.  ``--trace 0`` reports the
end-to-end metrics (tracing off); ``--trace 1`` runs each operation once
untraced and once with every layer wrapped, and reports per-layer metrics.
``--workload all`` runs every workload, each in a fresh process, and prints
one table.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sensing-ablation", "diagonal-lasting", "verify-suite", "cli-record")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measuring budget; operations rerun while the next run fits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny step counts, one pass, one setup probe (for tests)")
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's summaries as the reference for its seed")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads():
    """One BLAS/OpenMP thread, set before NumPy is first imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    # the CLI lets this override every --seed; the workload seed must win
    os.environ.pop("MIRRORLAB_SEED", None)


def run_all(args):
    """Every workload in its own process; one row per workload."""
    rows = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        out = proc.stdout.strip().splitlines()
        rows[name] = json.loads(out[-1])
        rows[name]["fail_frac"] = rows[name]["failed"] / rows[name]["attempted"]
        print("\n".join(out[:-2]))
    print(json.dumps(rows))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be nonnegative", file=sys.stderr)
        return 2
    pin_threads()
    if not (SRC / "mirrorlab" / "__init__.py").is_file():
        print(f"error: mirrorlab sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import mirrorlab

    if Path(mirrorlab.__file__).resolve().parent != SRC / "mirrorlab":
        print(f"error: imported mirrorlab from {mirrorlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, args.smoke)
        print(repr(time.monotonic()))
        return 0

    import harness

    result, report, lines = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), smoke=args.smoke,
        run_py=Path(__file__).resolve(), update_reference=args.write_reference)
    print("\n".join(lines))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
