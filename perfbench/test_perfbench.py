"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    text = "\n".join(lines[:-1])
    for m in spec:
        assert f"{m['name']} " in text and f" {m['unit']}" in text
    assert "fail_frac" in text


def test_traced_run_restores_every_patched_callable(tmp_path):
    tracer = Tracer()
    patched = []
    install = tracer.install
    tracer.install = lambda: patched.extend(install()) or patched
    ops = workloads.build("cli-record", 0, smoke=True)
    plain, traced = harness.run_pass(ops, tmp_path, tracer)
    assert len(patched) > len(ops)
    for owner, name, original in patched:
        current = getattr(owner, name) if isinstance(owner, type(sys)) else owner.__dict__[name]
        assert current is original, f"{owner}.{name} still patched"
    assert tracer.calls["cli.main"] == len(ops)
    assert [o.summary for o in plain] == [o.summary for o in traced]


@pytest.mark.parametrize("workload", ["sensing-ablation", "verify-suite"])
def test_self_times_sum_to_at_most_traced_wall(workload, tmp_path):
    tracer = Tracer()
    plain, traced = harness.run_pass(workloads.build(workload, 0, smoke=True), tmp_path, tracer)
    metrics = tracer.metrics(sum(o.seconds for o in traced), 0.0)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0 < self_total <= metrics["trace.wall_s"]


def test_failing_operation_raises_fail_frac(tmp_path, monkeypatch):
    base = harness.measure("diagonal-lasting", 0, 1, False, smoke=True,
                           run_py=HERE / "run.py", root=tmp_path)[0]
    assert base["failed"] == 0 and base["correct"]

    def with_bad_op(seed, smoke=False):
        return workloads.diagonal_lasting(seed, smoke) + [
            workloads.cli_op(["run", "diagonal", "--variant", "no-such-variant"], seed)]

    monkeypatch.setitem(workloads.WORKLOADS, "diagonal-lasting", with_bad_op)
    bad = harness.measure("diagonal-lasting", 0, 1, False, smoke=True,
                          run_py=HERE / "run.py", root=tmp_path)[0]
    assert bad["failed"] == 1 and bad["attempted"] == base["attempted"] + 1
    assert bad["failed"] / bad["attempted"] > base["failed"] / base["attempted"]
    assert bad["correct"] is False


def _optimality_op(code, kkt, dev):
    def run(outdir):
        (outdir / "optimality_report.json").write_text(json.dumps(
            {"case": "sensing", "kkt_residual": kkt, "oracle_deviation": dev,
             "passed": code == 0}))
        return code, outdir

    name = "verify optimality --case sensing"
    return workloads.Op(name, run, workloads.check_optimality, workloads.KNOWN_DEFECTS[name])


def test_known_defect_counts_as_failed_not_incorrect(tmp_path):
    (outcome,) = harness.run_pass([_optimality_op(1, 1.5e-11, 2.1e-2)], tmp_path / "a")
    assert not outcome.ok and outcome.known_defect
    # any other way of failing is unexpected
    for i, (code, kkt, dev) in enumerate([(1, 1e-3, 2.1e-2), (3, 1.5e-11, 2.1e-2)]):
        (outcome,) = harness.run_pass([_optimality_op(code, kkt, dev)], tmp_path / f"b{i}")
        assert not outcome.ok and not outcome.known_defect


def test_reference_deviation(tmp_path):
    outcomes = harness.run_pass(workloads.build("diagonal-lasting", 0, smoke=True), tmp_path)
    ref = {o.name: dict(o.summary) for o in outcomes}
    assert harness.reference_deviation(outcomes, ref)[0] == 0.0
    name = outcomes[0].name
    ref[name]["final_ratio"] *= 1 + 1e-9
    dev, where = harness.reference_deviation(outcomes, ref)
    assert dev == pytest.approx(1e-9, rel=1e-3) and where == f"{name}: final_ratio"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-record",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
