"""The benchmark's workloads: fixed sets of mirrorlab operations and their checks.

An operation is one runner call or one ``mirrorlab`` command run in process
through ``mirrorlab.cli.main``.  Its ``run`` does the timed work; its
``check`` turns the result into a summary (kept for the reference
comparison) and a list of problems (empty when the output is correct).
Every seed an operation uses is derived from the workload seed, and seed 0
reproduces the package's shipped defaults.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mirrorlab
from mirrorlab import experiments

# c2/c3 ablation: every schedule applies a total strength of 12.5 by t = 1250
ABLATION = (
    ("const0.01", "constant", 0.01, 0.0),
    ("linear", "linear-decay", 0.04, 625.0),
    ("cosine", "cosine-decay", 0.04, 625.0),
    ("const0.02to", "turnoff", 0.02, 625.0),
    ("const0.2to", "turnoff", 0.2, 62.5),
    ("zero", "constant", 0.0, 0.0),
)
ABLATION_T_END = 1250.0

# The optimality check fails at some seeds because the flow has not reached
# the solution set by its horizon, which kkt_residual cannot see (it never
# checks feasibility).  A command failing with exactly this problem shows a
# known defect of the program: it counts as failed, not as incorrect output.
ORACLE_GAP = "oracle deviation above 1e-3 while kkt_residual is within 1e-4"
KNOWN_DEFECTS = {
    "verify optimality --case diagonal": ORACLE_GAP,
    "verify optimality --case sensing": ORACLE_GAP,
}

EIGEN_FLOOR = -1e-10  # X = U U^T stays positive semidefinite up to roundoff


@dataclass
class Op:
    name: str
    run: Callable[[Path], object]
    check: Callable[[object], tuple]
    known_defect: str | None = None


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _flatten(obj, prefix=""):
    """Numbers, booleans and None of a JSON-like object, keyed by dotted path."""
    out = {}
    if isinstance(obj, dict):
        for key, val in obj.items():
            out.update(_flatten(val, f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, val in enumerate(obj):
            out.update(_flatten(val, f"{prefix}{i}."))
    elif obj is None or isinstance(obj, (bool, int, float)):
        out[prefix[:-1]] = obj
    elif hasattr(obj, "dtype") and obj.ndim == 0:
        out[prefix[:-1]] = obj.item()
    return out


def _nonfinite(summary):
    return [f"{key} is not finite ({val})" for key, val in summary.items()
            if isinstance(val, float) and not math.isfinite(val)]


def _runner_summary(report):
    summary = _flatten(report.summary)
    problems = _nonfinite(summary)
    if report.diverged:
        problems.append("run diverged")
    if report.flags.get("domain_exit"):
        problems.append("run left its domain")
    return summary, problems


def check_sensing(report):
    summary, problems = _runner_summary(report)
    loss = report.metrics["train_loss"]
    if not loss[-1] < loss[0]:
        problems.append(f"final loss {loss[-1]:.3e} not below initial loss {loss[0]:.3e}")
    min_eig = float(report.eigenvalues.min())
    summary["min_eigenvalue"] = min_eig
    if not min_eig >= EIGEN_FLOOR:
        problems.append(f"min recorded eigenvalue {min_eig:.3e} below {EIGEN_FLOOR:g}")
    return summary, problems


def check_diagonal(report):
    summary, problems = _runner_summary(report)
    ratio = report.summary["final_ratio"]
    if not (math.isfinite(ratio) and ratio > 0):
        problems.append(f"final_ratio {ratio} is not finite and positive")
    return summary, problems


def check_cli(result):
    """Exit code plus every summary/report JSON the command wrote."""
    code, outdir = result
    summary, problems = {}, []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    for path in sorted(outdir.glob("*.json")):
        data = json.loads(path.read_text())
        data.pop("wall_time_s", None)  # a timing, not a result
        if data.get("diverged"):
            problems.append(f"{path.name}: diverged")
        if data.get("flags", {}).get("domain_exit"):
            problems.append(f"{path.name}: left its domain")
        summary.update(_flatten(data, f"{path.stem}."))
    problems += _nonfinite(summary)
    return summary, problems


def check_optimality(result):
    """check_cli, naming the known oracle-gap failure when that is the cause."""
    summary, problems = check_cli(result)
    kkt = summary.get("optimality_report.kkt_residual")
    dev = summary.get("optimality_report.oracle_deviation")
    if problems == ["exit code 1, expected 0"] and kkt is not None and kkt <= 1e-4 \
            and dev is not None and dev > 1e-3:
        problems = [ORACLE_GAP]
    return summary, problems


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------

def sensing_ablation(seed, smoke=False):
    steps = 40 if smoke else 5000
    ops = []
    for label, kind, alpha0, turnoff in ABLATION:
        cfg = mirrorlab.SensingConfig(
            n=20, r=5, m=120, beta=0.1, eta=0.25, steps=steps,
            schedule=mirrorlab.Schedule(kind, alpha0, turnoff_time=turnoff, t_end=ABLATION_T_END),
            seed=seed, record_every=10 if smoke else 50)
        ops.append(Op(f"sensing {label} seed{seed}",
                      lambda outdir, cfg=cfg: experiments.matrix_sensing_run(cfg),
                      check_sensing))
    return ops


def diagonal_lasting(seed, smoke=False):
    steps = 200 if smoke else 20000
    eta = 1e-3
    T1 = steps * eta
    sched = mirrorlab.Schedule("turnoff", 1.0, turnoff_time=T1, t_end=2 * T1)
    ops = []
    for variant in ("mw", "m", "mwz"):
        cfg = mirrorlab.RegressionConfig(schedule=sched, seed=seed, variant=variant, eta=eta,
                                         steps=steps, record_every=100 if smoke else 1000)
        ops.append(Op(f"diagonal {variant} seed{seed}",
                      lambda outdir, cfg=cfg: experiments.diagonal_network_run(cfg),
                      check_diagonal))
    return ops


def verify_suite(seed, smoke=False):
    commands = [["equivalence", "--family", f] for f in
                ("hadamard", "entropy", "quadratic", "diff-powers")]
    if not smoke:  # the optimality flows have no size or horizon flags
        commands += [["optimality", "--case", c] for c in ("diagonal", "sensing")]
    commands += [["contracting", "--family", f] for f in ("hyperbolic", "entropy")]
    commands += [["commuting", "--variant", "hadamard"],
                 ["commuting", "--variant", "deep-hadamard", "--depth", "3", "--expect-fail"]]
    ops = []
    for cmd in commands:
        extra = []
        if smoke:
            extra = {"equivalence": ["--t-end", "0.05"], "contracting": ["--grid", "5"],
                     "commuting": ["--samples", "2"]}[cmd[0]]
        op = cli_op(["verify"] + cmd + extra, seed)
        if cmd[0] == "optimality":
            op.check, op.known_defect = check_optimality, KNOWN_DEFECTS[op.name]
        ops.append(op)
    return ops


def cli_record(seed, smoke=False):
    steps = (lambda n: ["--steps", n]) if smoke else (lambda n: [])
    horizon = ["--t-end", "0.05"] if smoke else []
    commands = [
        ["sensing", "--seeds", f"{seed},{seed + 1}", "--record-every", "1"] + steps("40"),
        ["sparse-coding", "--variant", "diff-powers", "--k", "2"] + steps("20"),
        ["sparse-coding", "--variant", "log-ratio"] + steps("20"),
        ["flow", "--family", "entropy"] + horizon,
        ["flow", "--family", "hyperbolic"] + horizon,
        ["diagonal", "--record-every", "1", "--steps", "100" if smoke else "5000"],
    ]
    return [cli_op(["run"] + cmd + ["--jobs", "1"], None if cmd[0] == "sensing" else seed)
            for cmd in commands]


def cli_op(argv, seed):
    """One in-process ``mirrorlab`` command, named without its seed."""
    from mirrorlab import cli

    full = argv + ([] if seed is None else ["--seed", str(seed)])

    def run(outdir):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(full + ["--out", str(outdir)])
        return code, outdir

    return Op(" ".join(argv), run, check_cli)


WORKLOADS = {
    "sensing-ablation": sensing_ablation,
    "diagonal-lasting": diagonal_lasting,
    "verify-suite": verify_suite,
    "cli-record": cli_record,
}


def build(name, seed, smoke=False):
    """The workload's operations for one seed."""
    return WORKLOADS[name](seed, smoke)
