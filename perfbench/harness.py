"""Timing, checking and reporting for one workload in one process.

``run.py`` pins the BLAS threads and puts the checkout's ``src`` on the path
before importing this module.

The machine this runs on is shared: its speed drifts by tens of percent over
fractions of a second to minutes, across all work in the process.  So a
speed probe, a fixed piece of small-array NumPy work that does not touch
mirrorlab, is timed before and every PROBE_INTERVAL_S during each operation,
and ``wall_ref_s`` scales each operation's wall time to the speed at which
the probe takes ``PROBE_REF_S``.  The unscaled wall time is reported next to
it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, metric_units

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
PROBE_REF_S = 0.001  # speed-probe time that defines the reference speed
PROBE_INTERVAL_S = 0.05

# The probe imitates the kind of work mirrorlab's steps do (small einsums
# and matrix products, elementwise updates, Python call overhead) without
# calling mirrorlab, so no change to the package can move it.
_PROBE_RNG = np.random.default_rng(20250417)
_PROBE_A = _PROBE_RNG.standard_normal((120, 20, 20))
_PROBE_Y = _PROBE_RNG.standard_normal(120)
_PROBE_Z = _PROBE_RNG.standard_normal((40, 100))
_PROBE_ZY = _PROBE_RNG.standard_normal(40)
_PROBE_IDX = np.arange(100)


def _probe_once():
    t0 = time.perf_counter()
    U = 0.3 * np.eye(20)
    for _ in range(6):
        r = np.einsum("ijk,jk->i", _PROBE_A, U @ U.T) - _PROBE_Y
        G = np.einsum("i,ijk->jk", r, _PROBE_A) / 120.0
        U = U - 1e-4 * (0.5 * (G + G.T) @ U + 0.01 * U)
    w = np.ones(200)
    for _ in range(15):
        f = w.reshape(2, 100)
        J = np.zeros((100, 200))
        for j in range(2):
            J[_PROBE_IDX, j * 100 + _PROBE_IDX] = np.prod(np.delete(f, j, axis=0), axis=0)
        g = _PROBE_Z.T @ (_PROBE_Z @ np.prod(f, axis=0) - _PROBE_ZY) / 40.0
        w = w - 1e-4 * (J.T @ g + 0.1 * w)
    return time.perf_counter() - t0


class SpeedSampler:
    """Speed-probe times around one operation: five just before it and, with
    `during`, one every PROBE_INTERVAL_S while it runs, taken by a SIGALRM
    handler in the main thread.  `spent` is the time the handler took, which
    the caller removes from the operation's wall time."""

    def __init__(self, during=True):
        self.during = during
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._in_tick = False

    def _tick(self, signum, frame):
        if self._in_tick:  # a tick that outlasts the interval is not nested
            return
        self._in_tick = True
        t0 = time.perf_counter()
        self.samples.append(_probe_once())
        self.spent += time.perf_counter() - t0
        self._in_tick = False

    def __enter__(self):
        self.samples = [_probe_once() for _ in range(5)]
        if self.during:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def probe_s(self):
        return statistics.median(self.samples)


@dataclass
class Outcome:
    name: str
    seconds: float
    probe_s: float
    summary: dict
    problems: list
    known_defect: bool = False

    @property
    def ok(self):
        return not self.problems

    @property
    def ref_seconds(self):
        return self.seconds * PROBE_REF_S / self.probe_s


def _run_one(op, outdir, tracer=None):
    """Run one operation and check its output.  With a tracer the layers are
    wrapped only while the operation runs, and no probe interrupts it."""
    sampler = SpeedSampler(during=tracer is None)
    if tracer is not None:
        tracer.install()
    try:
        with sampler:
            t0 = time.perf_counter()
            try:
                result, error = op.run(outdir), None
            except Exception as exc:  # a crashing operation is a failed operation
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0 - sampler.spent
    finally:
        if tracer is not None:
            tracer.restore()
    if error is None:
        try:
            summary, problems = op.check(result)
        except Exception as exc:
            summary, problems = {}, [f"check raised {type(exc).__name__}: {exc}"]
    else:
        summary, problems = {}, [error]
    known = bool(problems) and problems == [op.known_defect]
    return Outcome(op.name, seconds, sampler.probe_s, summary, problems, known)


def run_pass(ops, workdir, tracer=None):
    """Run every operation once and check its output.

    With a tracer, each operation runs untraced and then traced, back to back,
    so both see the same machine state; returns (untraced, traced) results.
    """
    variants = ("plain",) if tracer is None else ("plain", "traced")
    results = {v: [] for v in variants}
    for i, op in enumerate(ops):
        for v in variants:
            outdir = Path(workdir) / v / f"op{i:02d}"
            outdir.mkdir(parents=True)
            results[v].append(_run_one(op, outdir, tracer if v == "traced" else None))
    return results["plain"] if tracer is None else (results["plain"], results["traced"])


def run_for(ops, workdir, seconds):
    """One full pass, then single operations again while time is left.

    The extra runs cycle through the operations, longest first, and start one
    only if its previous time still fits in `seconds` from the start.
    Returns one list of outcomes per operation, first-pass outcome first.
    """
    start = time.perf_counter()
    samples = [[o] for o in run_pass(ops, Path(workdir) / "pass0")]
    order = sorted(range(len(ops)), key=lambda i: -samples[i][0].seconds)
    extra = 0
    ran = True
    while ran:
        ran = False
        for i in order:
            if time.perf_counter() - start + samples[i][-1].seconds > seconds:
                continue
            extra += 1
            outdir = Path(workdir) / f"extra{extra}"
            outdir.mkdir(parents=True)
            samples[i].append(_run_one(ops[i], outdir))
            ran = True
    return samples


def pass_time(samples, attr):
    """Time of one pass: the sum over operations of the median of `attr`."""
    return sum(statistics.median(getattr(o, attr) for o in s) for s in samples)


def csv_digest(workdir):
    """sha256 over the relative paths and bytes of every CSV under workdir."""
    h = hashlib.sha256()
    for path in sorted(Path(workdir).rglob("*.csv")):
        h.update(str(path.relative_to(workdir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def rel_dev(value, ref):
    if value == ref:
        return 0.0
    if isinstance(value, bool) or isinstance(ref, bool) or value is None or ref is None:
        return float("inf")
    if ref == 0:
        return float("inf")
    return abs(value - ref) / abs(ref)


def reference_deviation(outcomes, reference):
    """Largest relative deviation of any summary value from the reference."""
    worst, where = 0.0, f"max over {len(outcomes)} operations"
    for o in outcomes:
        ref = reference.get(o.name)
        if ref is None or set(ref) != set(o.summary):
            return float("inf"), f"{o.name}: summary keys differ from the reference"
        for key, val in o.summary.items():
            dev = rel_dev(val, ref[key])
            if dev > worst:
                worst, where = dev, f"{o.name}: {key}"
    return worst, where


def load_reference(workload, seed):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(str(seed), {}).get(workload)


def write_reference(workload, seed, outcomes, digest):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data.setdefault(str(seed), {})[workload] = {
        "ops": {o.name: o.summary for o in outcomes}, "csv_sha256": digest}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def machine_facts(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def setup_times(run_py, workload, seed, smoke, probes):
    """Seconds from spawning a fresh interpreter until it has imported mirrorlab
    and built the workload's operations, once per probe."""
    out = []
    for _ in range(probes):
        argv = [sys.executable, str(run_py), "--setup-probe", "--workload", workload,
                "--seed", str(seed)] + (["--smoke"] if smoke else [])
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def measure(workload, seed, seconds, trace, smoke=False, run_py=None, root=None,
            update_reference=False):
    """Run one workload and return (result line, report, human-readable lines)."""
    ops = workloads.build(workload, seed, smoke)
    facts = machine_facts(seed)
    work_root = Path(tempfile.mkdtemp(prefix=".work-", dir=root or HERE))
    try:
        setup = ([] if trace else
                 setup_times(run_py, workload, seed, smoke, 1 if smoke else SETUP_PROBES))
        layer = None
        if trace:
            tracer = Tracer()
            plain, traced = run_pass(ops, work_root / "pass0", tracer)
            samples = [list(pair) for pair in zip(plain, traced)]
            first = plain
            traced_s, plain_s = (sum(o.seconds for o in r) for r in (traced, plain))
            layer = tracer.metrics(traced_s, traced_s / plain_s - 1.0)
        else:
            samples = run_for(ops, work_root, 0 if smoke else seconds)
            first = [s[0] for s in samples]
        digest = csv_digest(work_root / "pass0" / "plain") if workload == "cli-record" else None
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    # an operation is one entry of the workload; it fails if any run of it does
    outcomes = [o for s in samples for o in s]
    attempted = len(samples)
    failed = sum(any(not o.ok for o in s) for s in samples)
    unexpected = [o for o in outcomes if not o.ok and not o.known_defect]
    if update_reference and not smoke:
        write_reference(workload, seed, first, digest)
    ref = None if smoke else load_reference(workload, seed)
    ref_dev, ref_where = (None, "no reference for this seed") if ref is None else \
        reference_deviation(first, ref["ops"])

    untraced = [s[:1] for s in samples] if trace else samples
    wall_s = pass_time(untraced, "seconds")
    if trace:
        units = metric_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    else:
        values = {"wall_ref_s": pass_time(samples, "ref_seconds"),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    ops_report = []
    for s, u in zip(samples, untraced):
        bad = next((o for o in s if not o.ok), None)
        ops_report.append({
            "name": s[0].name, "runs": len(u),
            "median_s": statistics.median(o.seconds for o in u),
            "median_ref_s": statistics.median(o.ref_seconds for o in u),
            "traced_s": s[1].seconds if trace else None,
            "status": "ok" if bad is None else
                      ("KNOWN DEFECT: " if bad.known_defect else "FAIL: ") + "; ".join(bad.problems)})
    probes = [o.probe_s for o in outcomes]
    report = {
        "workload": workload, "seed": seed, "trace": trace,
        "smoke": smoke, "machine": facts, "wall_s": wall_s,
        "speed_probe_s": {"min": min(probes), "median": statistics.median(probes),
                          "max": max(probes), "reference": PROBE_REF_S},
        "setup_s_samples": setup,
        "fail_frac": failed / attempted,
        "ref_rel_dev": ref_dev, "ref_rel_dev_at": ref_where,
        "csv_sha256": digest,
        "csv_sha256_reference": None if ref is None else ref.get("csv_sha256"),
        "ops": ops_report,
    }
    lines = [f"perfbench {workload} seed={seed} trace={int(trace)}" + (" smoke" if smoke else ""),
             "machine: " + " ".join(f"{k}={v}" for k, v in facts.items() if k != "thread_env")
             + " threads=" + ",".join(f"{k}={v}" for k, v in facts["thread_env"].items())]
    for e in ops_report:
        traced = "" if e["traced_s"] is None else f"  traced {e['traced_s']:.4f} s"
        lines.append(f"  op {e['name']:<56} {e['runs']:2d}x median {e['median_s']:8.4f} s"
                     f" (ref {e['median_ref_s']:8.4f} s){traced}  {e['status']}")
    for name, m in metrics.items():
        lines.append(f"{name:<40} {m['value']:.6g} {m['unit']}")
    lines.append(f"{'wall_s':<40} {wall_s:.6g} s (unscaled; speed probe median "
                 f"{report['speed_probe_s']['median'] * 1e3:.3g} ms, reference "
                 f"{PROBE_REF_S * 1e3:.3g} ms)")
    lines.append(f"{'fail_frac':<40} {failed / attempted:.6g} 1 "
                 f"({failed} of {attempted} operations failed in {len(outcomes)} runs, "
                 f"{len(unexpected)} failing runs outside the known defects)")
    lines.append(f"{'ref_rel_dev':<40} {ref_dev} 1 (diagnostic, not gated; {ref_where})")
    if digest is not None:
        match = report["csv_sha256_reference"]
        lines.append(f"{'csv_sha256':<40} {digest} "
                     f"({'no reference' if match is None else 'matches reference' if match == digest else 'differs from reference'})")
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report, lines
