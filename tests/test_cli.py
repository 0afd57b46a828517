import dataclasses
import json
import os
import shlex
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import mirrorlab
from mirrorlab import (IntegratorConfig, RunRecord, Schedule, cli, flow, make_rng,
                       verify_equivalence)
from mirrorlab.legendre import ContractingReport
from mirrorlab.cli import (EXIT_DIVERGED, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                           CSV_COLUMNS, UsageError, load_matrix, main,
                           parse_config, write_trajectory_csv)


def test_parse_config_sections(tmp_path):
    # each value is its text; the options' types are applied later, once
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[schedule]\nkind = turnoff\nalpha0 = 0.02\nturnoff_time = 625\n"
                   "t_end = 1250\n[sensing]\nseed = 3\nsteps = 100  # inline\n# comment\n")
    assert parse_config(str(cfg)) == {
        "schedule.kind": "turnoff", "schedule.alpha0": "0.02", "schedule.turnoff_time": "625",
        "schedule.t_end": "1250", "sensing.seed": "3", "sensing.steps": "100"}


def test_parse_config_missing():
    with pytest.raises(UsageError):
        parse_config("/nonexistent/path.cfg")


def test_missing_config_exits_2(tmp_path):
    code = main(["run", "sensing", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE


def test_load_matrix_identity(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,0\n0,1\n")
    assert load_matrix(str(f)) == pytest.approx(np.eye(2))


def test_load_matrix_ragged(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2,3\n4,5\n")
    with pytest.raises(UsageError) as exc_info:
        load_matrix(str(f))
    assert ":2:" in str(exc_info.value)


def test_load_matrix_non_numeric(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("1,2\nx,4\n")
    with pytest.raises(UsageError) as exc_info:
        load_matrix(str(f))
    assert ":2:" in str(exc_info.value)


def test_matrix_roundtrip_17_digits(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 50)) * 10.0 ** rng.integers(-8, 8, (7, 50))
    path = tmp_path / "dict.csv"
    np.savetxt(path, X, delimiter=",", fmt="%.17g")
    back = load_matrix(str(path))
    assert back.shape == (7, 50)
    assert np.array_equal(back, X)


def test_verify_equivalence_exit_codes():
    assert main(["verify", "equivalence", "--family", "hadamard",
                 "--t-end", "1.0", "--step", "0.002"]) == EXIT_OK


EQUIVALENCE_FAMILIES = ["hadamard", "entropy", "quadratic", "diff-powers"]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("family", EQUIVALENCE_FAMILIES)
def test_verify_equivalence_default_checks_401_points_tightly(tmp_path, family, seed):
    assert main(["verify", "equivalence", "--family", family, "--seed", str(seed),
                 "--out", str(tmp_path)]) == EXIT_OK
    report = json.loads((tmp_path / "equivalence_report.json").read_text())
    assert report["n_points"] == 401
    assert report["max_deviation"] <= 1e-9


@pytest.mark.parametrize("family", EQUIVALENCE_FAMILIES)
def test_verify_equivalence_runs_dop853_on_the_step_grid(tmp_path, family):
    # the command compares both flows by dop853 at the record times k h of
    # --step (default 1e-3), every 10th node up to --t-end (default 4)
    assert main(["verify", "equivalence", "--family", family, "--out", str(tmp_path)]) == EXIT_OK
    kind, alpha0 = ("constant", 0.0) if family == "diff-powers" else ("turnoff", 0.5)
    sched = Schedule(kind, alpha0, turnoff_time=1.0, t_end=4.0)
    direct = verify_equivalence(*cli._equivalence_case(family, 0), sched,
                                IntegratorConfig("dop853", 1e-3, 4.0, record_every=10))
    report = json.loads((tmp_path / "equivalence_report.json").read_text())
    assert report == dataclasses.asdict(direct)


def test_verify_takes_a_bounded_number_of_field_evaluations(monkeypatch):
    # both flows of an equivalence command, 401 record rows each, and the
    # diagonal optimality flow to t = 120
    count = [0]
    integrate = flow._integrate

    def counted(rhs, *args, **kwargs):
        def rhs_counted(t, state):
            count[0] += 1
            return rhs(t, state)

        return integrate(rhs_counted, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate", counted)
    for family in EQUIVALENCE_FAMILIES:
        for seed in range(5):
            count[0] = 0
            assert main(["verify", "equivalence", "--family", family,
                         "--seed", str(seed)]) == EXIT_OK
            assert 0 < count[0] <= 4500, (family, seed)
    count[0] = 0
    assert main(["verify", "optimality", "--case", "diagonal", "--seed", "0"]) == EXIT_OK
    assert 0 < count[0] <= 5000


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 23])
def test_verify_optimality_sensing_runs_bdf_to_the_dop853_verdict(tmp_path, monkeypatch, seed):
    # the sensing case runs bdf: the same verdict as its flow under dop853,
    # the oracle deviation to 4 significant digits (seed 0 fails at 1.002e-2,
    # seed 23 passes at 9.890e-4; below 1e-10 both are roundoff), on at most a
    # quarter of the field evaluations
    count = [0]
    integrate = flow._integrate

    def counted(rhs, *args, **kwargs):
        def rhs_counted(t, state):
            count[0] += 1
            return rhs(t, state)

        return integrate(rhs_counted, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate", counted)
    reports, counts = {}, {}
    for method in ("bdf", "dop853"):
        if method == "dop853":
            monkeypatch.setattr(cli, "IntegratorConfig", lambda _, *args, **kwargs:
                                IntegratorConfig("dop853", *args, **kwargs))
        count[0] = 0
        code = main(["verify", "optimality", "--case", "sensing", "--seed", str(seed),
                     "--out", str(tmp_path / method)])
        reports[method] = json.loads((tmp_path / method / "optimality_report.json").read_text())
        assert code == (EXIT_OK if reports[method]["passed"] else EXIT_FAIL)
        counts[method] = count[0]
    assert reports["bdf"]["passed"] is reports["dop853"]["passed"] is (seed != 0)
    assert reports["bdf"]["oracle_deviation"] == pytest.approx(
        reports["dop853"]["oracle_deviation"], rel=1e-4, abs=1e-10)
    assert reports["bdf"]["kkt_residual"] <= 1e-4
    assert 4 * counts["bdf"] <= counts["dop853"]


def test_verify_commuting_expect_fail():
    base = ["verify", "commuting", "--variant", "deep-hadamard", "--depth", "3",
            "--n", "2", "--samples", "3"]
    assert main(base) == EXIT_FAIL
    assert main(base + ["--expect-fail"]) == EXIT_OK


def test_verify_contracting_cli():
    for family in ("entropy", "hyperbolic", "log-cosh"):
        assert main(["verify", "contracting", "--family", family, "--grid", "10"]) == EXIT_OK
    bad = ["verify", "contracting", "--family", "quadratic-neg", "--grid", "8"]
    assert main(bad) == EXIT_FAIL
    assert main(bad + ["--expect-fail"]) == EXIT_OK


def _run_in_a_subprocess(*argv):
    """``python -m mirrorlab ARGV`` against the package under test, whose
    stderr carries every warning that escapes it."""
    src = str(Path(mirrorlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "mirrorlab", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("family", ["entropy", "hyperbolic"])
def test_contracting_with_no_finite_values_exits_2(tmp_path, family):
    # below a = -372.5 exp(2a) underflows and every value is inf: every sample
    # is skipped, so there is no slope to judge, and no RuntimeWarning escapes
    proc = _run_in_a_subprocess("verify", "contracting", "--family", family, "--a-min", "-400",
                                "--out", str(tmp_path))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.splitlines() == ["error: no usable (a, x) pairs for the contracting check"]
    assert list(tmp_path.iterdir()) == []


def test_verify_reports_are_strict_json(tmp_path):
    # a slope that overflowed is written as null, not as the non-JSON Infinity
    report = ContractingReport(max_slope=np.inf, max_positive_slope=np.inf, passed=False,
                               tol=1e-8, n_pairs=49, n_skipped=0)
    cli._write_report(str(tmp_path), "contracting", report)
    text = (tmp_path / "contracting_report.json").read_text()
    assert json.loads(text, parse_constant=lambda c: pytest.fail(f"non-JSON {c}")) == {
        "max_slope": None, "max_positive_slope": None, "passed": False, "tol": 1e-8,
        "n_pairs": 49, "n_skipped": 0}


def test_flags_only_where_read(tmp_path):
    # optimality reads neither --tol nor --expect-fail, equivalence does not
    # read --expect-fail, flow takes --step, not --steps or --eta, and sparse
    # coding takes --lr-scale, not --eta: passing them is a usage error, not a
    # no-op
    assert main(["verify", "optimality", "--case", "diagonal", "--seed", "2",
                 "--tol", "1e-30"]) == EXIT_USAGE
    assert main(["verify", "optimality", "--case", "diagonal", "--expect-fail"]) == EXIT_USAGE
    assert main(["verify", "equivalence", "--expect-fail"]) == EXIT_USAGE
    out = ["--out", str(tmp_path)]
    assert main(["run", "flow", "--steps", "3"] + out) == EXIT_USAGE
    assert main(["run", "flow", "--eta", "99"] + out) == EXIT_USAGE
    assert main(["run", "sparse-coding", "--eta", "99"] + out) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []
    # every run command keeps --jobs, which only a sensing seed sweep reads
    for name in ("sensing", "diagonal", "sparse-coding", "flow"):
        assert cli._parser().parse_args(["run", name, "--jobs", "1"] + out).jobs == 1


# a tiny run of each run command whose schedule takes effect (a turn-off
# time inside the run's horizon), and the value each string option moves to
TINY_RUNS = {
    "sensing": ({"n": 4, "r": 2, "m": 10, "steps": 20, "record_every": 5, "turnoff_time": 2.0},
                {"sensing_kind": "commuting-diagonal", "seeds": "1"}),
    "diagonal": ({"d": 4, "n": 8, "sparsity": 2, "steps": 20, "record_every": 5,
                  "turnoff_time": 0.01}, {"variant": "mwz"}),
    "sparse-coding": ({"n_obs": 12, "n_features": 6, "steps": 10, "record_every": 2,
                       "kind": "turnoff", "turnoff_time": 1e-3},
                      {"variant": "log-ratio", "dictionary": "dict.csv"}),
    "flow": ({"n": 2, "step": 0.01, "t_end": 0.1, "record_every": 2, "kind": "turnoff",
              "turnoff_time": 0.05}, {"family": "hyperbolic", "method": "euler"}),
}


@pytest.mark.parametrize("name", list(TINY_RUNS))
def test_every_run_option_changes_the_run(tmp_path, capsys, name):
    # each option moved off its value alone (an int by one, a float by half of
    # itself, a string to another value) changes the CSVs or stdout
    base, strings = TINY_RUNS[name]
    np.savetxt(tmp_path / "dict.csv", make_rng(5).standard_normal((12, 6)), delimiter=",",
               fmt="%.17g")
    values = {**cli.COMMANDS["run", name][2], **base}

    def run(moved):
        out = tmp_path / "-".join(["out", *moved])
        argv = ["run", name, "--out", str(out)]
        for opt, val in {**values, **moved}.items():
            flag = "--schedule" if opt == "kind" else "--" + opt.replace("_", "-")
            argv += [flag, str(tmp_path / val) if opt == "dictionary" and val else str(val)]
        assert main(argv) == EXIT_OK
        return capsys.readouterr().out, {p.name: p.read_bytes() for p in out.glob("*.csv")}

    strings = {"kind": "linear-decay", **strings}
    moves = {opt: val + 1 if type(val) is int else 1.5 * val if type(val) is float
             else strings[opt] for opt, val in values.items()}
    reference = run({})
    assert [opt for opt, val in moves.items() if run({opt: val}) == reference] == []


def run_small_sensing(tmp_path, extra=()):
    args = ["run", "sensing", "--out", str(tmp_path), "--n", "6", "--r", "2", "--m", "15",
            "--steps", "120", "--record-every", "10", "--schedule", "turnoff",
            "--alpha0", "0.05", "--turnoff-time", "15", "--seed", "1"]
    return main(args + list(extra))


def _assert_svg(path):
    assert path.read_text().startswith("<svg"), path.name


def test_run_sensing_csv_schema(tmp_path):
    assert run_small_sensing(tmp_path, ["--plot"]) == EXIT_OK
    for plot in ("loss", "norms"):
        _assert_svg(tmp_path / f"sensing_seed1_{plot}.svg")
    csv_path = tmp_path / "sensing_seed1.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    first = lines[1].split(",")
    assert len(first) == len(CSV_COLUMNS)
    assert first[0] == "0"
    # metrics the sensing run lacks stay empty
    assert first[CSV_COLUMNS.index("l1")] == ""
    summary = json.loads((tmp_path / "sensing_seed1_summary.json").read_text())
    assert {"config_hash", "seed", "converged", "wall_time_s"} <= set(summary)


def test_run_sensing_deterministic_csv(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert run_small_sensing(d1) == EXIT_OK
    assert run_small_sensing(d2) == EXIT_OK
    assert (d1 / "sensing_seed1.csv").read_bytes() == (d2 / "sensing_seed1.csv").read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    assert run_small_sensing(d1) == EXIT_OK
    monkeypatch.setenv("MIRRORLAB_SEED", "7")
    assert run_small_sensing(d2) == EXIT_OK
    monkeypatch.delenv("MIRRORLAB_SEED")
    assert (d2 / "sensing_seed7.csv").exists()
    assert not (d2 / "sensing_seed1.csv").exists()


def test_env_seed_overrides_a_seed_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("MIRRORLAB_SEED", "7")
    assert run_small_sensing(tmp_path, ["--seeds", "0,1"]) == EXIT_OK
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "sensing_seed7.csv", "sensing_seed7_summary.json"]


def _summary_without_wall_time(path):
    data = json.loads(path.read_text())
    data.pop("wall_time_s")
    return data


def test_run_sensing_seed_sweep(tmp_path):
    # a sweep writes, inline and from the worker pool, what single-seed runs write
    pooled, inline, single = tmp_path / "pooled", tmp_path / "inline", tmp_path / "single"
    assert run_small_sensing(pooled, ["--seeds", "0,1", "--jobs", "2"]) == EXIT_OK
    assert run_small_sensing(inline, ["--seeds", "0,1", "--jobs", "1"]) == EXIT_OK
    for seed in ("0", "1"):
        assert run_small_sensing(single, ["--seed", seed]) == EXIT_OK
    for sweep in (pooled, inline):
        for seed in (0, 1):
            stem = f"sensing_seed{seed}"
            assert (sweep / f"{stem}.csv").read_bytes() == (single / f"{stem}.csv").read_bytes()
            assert (_summary_without_wall_time(sweep / f"{stem}_summary.json")
                    == _summary_without_wall_time(single / f"{stem}_summary.json"))


def test_run_sensing_sweep_holds_one_report_at_a_time(tmp_path, monkeypatch):
    # each seed's outputs are written, and its report dropped, before the
    # next seed runs
    reports = []

    def job(cfg, _run=cli._sensing_job):
        assert all(ref() is None for ref in reports), "an earlier seed's report is still held"
        rep, wall = _run(cfg)
        reports.append(weakref.ref(rep))
        return rep, wall

    monkeypatch.setattr(cli, "_sensing_job", job)
    assert run_small_sensing(tmp_path, ["--seeds", "0,1,2", "--jobs", "1"]) == EXIT_OK
    assert len(reports) == 3
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "sensing_seed0.csv", "sensing_seed1.csv", "sensing_seed2.csv"]


def test_main_builds_its_parser_once_and_calls_stay_independent(tmp_path, monkeypatch):
    builds = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda _build=cli.build_parser: builds.append(1) or _build())
    cli._parser.cache_clear()
    sweep, single = tmp_path / "sweep", tmp_path / "single"
    assert run_small_sensing(sweep, ["--seeds", "0,1"]) == EXIT_OK
    assert main(["run", "sensing", "--bogus"]) == EXIT_USAGE
    assert run_small_sensing(single) == EXIT_OK
    assert builds == [1]
    # the last call saw none of the first call's flags, only its own --seed 1
    assert sorted(p.name for p in single.glob("*.csv")) == ["sensing_seed1.csv"]
    assert (single / "sensing_seed1.csv").read_bytes() == (sweep / "sensing_seed1.csv").read_bytes()


def test_run_diagonal_smoke(tmp_path):
    args = ["run", "diagonal", "--out", str(tmp_path), "--variant", "mw", "--d", "8",
            "--n", "20", "--sparsity", "2", "--steps", "500", "--record-every", "50",
            "--schedule", "turnoff", "--alpha0", "0.5", "--turnoff-time", "0.5",
            "--seed", "0", "--plot"]
    assert main(args) == EXIT_OK
    csv_path = tmp_path / "diagonal_mw_seed0.csv"
    header = csv_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert (tmp_path / "diagonal_mw_seed0_ratio.svg").exists()
    svg = (tmp_path / "diagonal_mw_seed0_ratio.svg").read_text()
    assert svg.startswith("<svg") and 'viewBox="0 0 800 500"' in svg


def test_run_sparse_coding_with_dictionary_file(tmp_path):
    rng = np.random.default_rng(5)
    D = rng.standard_normal((30, 8))
    dict_path = str(tmp_path / "dict.csv")
    np.savetxt(dict_path, D, delimiter=",", fmt="%.17g")
    args = ["run", "sparse-coding", "--out", str(tmp_path), "--variant", "diff-powers",
            "--k", "2", "--steps", "40", "--dictionary", dict_path, "--seed", "2", "--plot"]
    assert main(args) == EXIT_OK
    assert (tmp_path / "sparse_diff-powers_seed2.csv").exists()
    _assert_svg(tmp_path / "sparse_diff-powers_seed2_l1.svg")


def test_run_sparse_coding_log_ratio_starts_inside_its_unit_region(tmp_path):
    assert main(["run", "sparse-coding", "--variant", "log-ratio", "--seed", "0",
                 "--out", str(tmp_path)]) == EXIT_OK
    summary = json.loads((tmp_path / "sparse_log-ratio_seed0_summary.json").read_text())
    assert summary["flags"] == {"domain_exit": False, "left_unit_region": False}


def test_run_flow_writes_trajectory(tmp_path):
    args = ["run", "flow", "--out", str(tmp_path), "--family", "entropy",
            "--schedule", "constant", "--alpha0", "0.1", "--t-end", "2.0",
            "--step", "0.005", "--seed", "0", "--plot"]
    assert main(args) == EXIT_OK
    lines = (tmp_path / "flow_entropy_seed0.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 10
    _assert_svg(tmp_path / "flow_entropy_seed0_loss.svg")


def test_run_flow_labels_rows_with_their_step(tmp_path):
    # 5 steps recorded every 3rd step: the rows are steps 0, 3 and the last, 5
    args = ["run", "flow", "--out", str(tmp_path), "--family", "hyperbolic",
            "--method", "euler", "--record-every", "3", "--schedule", "turnoff",
            "--t-end", "0.05", "--step", "0.01", "--seed", "0"]
    assert main(args) == EXIT_OK
    rows = (tmp_path / "flow_hyperbolic_seed0.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "3", "5"]


def test_run_flow_that_stops_early_says_so_in_its_summary(tmp_path, capsys):
    # Euler steps of 2 blow the hyperbolic mirror flow up near t = 4
    args = ["run", "flow", "--out", str(tmp_path), "--family", "hyperbolic", "--method", "euler",
            "--step", "2", "--t-end", "200", "--record-every", "1"]
    assert main(args) == EXIT_DIVERGED
    assert "flow stopped early: mirror flow diverged near t=4" in capsys.readouterr().err
    # the truncated CSV is written: the rows up to the last finite step
    rows = (tmp_path / "flow_hyperbolic_seed0.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]
    # strict JSON: the loss that overflowed is null, not the bare token Infinity
    text = (tmp_path / "flow_hyperbolic_seed0_summary.json").read_text()
    summary = json.loads(text, parse_constant=lambda token: pytest.fail(f"bare {token} in JSON"))
    assert summary["diverged"] is True and summary["final_train_loss"] is None


def test_run_flow_that_stops_early_prints_one_line_and_no_warning(tmp_path):
    # the run overflows on its way out of the finite range; the engine's
    # guard reports that, and no RuntimeWarning reaches stderr
    proc = _run_in_a_subprocess("run", "flow", "--family", "hyperbolic", "--method", "euler",
                                "--step", "1", "--t-end", "200", "--alpha0", "0",
                                "--out", str(tmp_path))
    assert proc.returncode == EXIT_DIVERGED
    assert proc.stderr.splitlines() == ["flow stopped early: mirror flow diverged near t=3"]


def test_run_plots_a_loss_that_is_never_positive(tmp_path):
    # no sparsity: the ground truth, the start and every step are x = 0, so
    # the log-axis loss plot has no point to draw and shows its frame alone
    args = ["run", "diagonal", "--out", str(tmp_path), "--sparsity", "0", "--steps", "10",
            "--plot"]
    assert main(args) == EXIT_OK
    _assert_svg(tmp_path / "diagonal_mw_seed0_loss.svg")


def test_run_flow_dop853_records_the_grid_rows(tmp_path):
    args = ["run", "flow", "--out", str(tmp_path), "--family", "hyperbolic", "--method", "dop853",
            "--schedule", "turnoff", "--turnoff-time", "0.37", "--t-end", "1.0",
            "--step", "0.01", "--record-every", "7", "--seed", "0"]
    assert main(args) == EXIT_OK
    lines = (tmp_path / "flow_hyperbolic_seed0.csv").read_text().splitlines()
    n_steps, h = IntegratorConfig("dop853", 0.01, 1.0).grid()
    # the step and t columns of the grid k h, bit for bit
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(k), repr(k * h)] for k in list(range(0, n_steps, 7)) + [n_steps]]


@pytest.mark.parametrize("kind, m, unique", [("commuting-diagonal", 15, True),
                                             ("commuting-diagonal", 4, False),
                                             ("random-symmetric", 15, None)])
def test_sensing_summary_says_when_the_interpolant_is_unique(tmp_path, kind, m, unique):
    # a commuting-diagonal design with more rows than columns has full column
    # rank, so its one interpolant needs no KKT residual
    args = ["run", "sensing", "--out", str(tmp_path), "--n", "6", "--r", "2", "--m", str(m),
            "--steps", "80", "--record-every", "20", "--sensing-kind", kind,
            "--schedule", "constant", "--alpha0", "0.0", "--seed", "0"]
    assert main(args) == EXIT_OK
    summary = json.loads((tmp_path / "sensing_seed0_summary.json").read_text())
    assert summary.get("unique_interpolant") is unique
    assert (summary["kkt_residual"] is None) is (unique is not False)


def test_config_file_drives_run(tmp_path):
    cfg = tmp_path / "sensing.cfg"
    cfg.write_text("[sensing]\nn = 6\nr = 2\nm = 15\nsteps = 80\nrecord_every = 20\n"
                   "seed = 4\n[schedule]\nkind = constant\nalpha0 = 0.0\nt_end = 20\n")
    assert main(["run", "sensing", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "sensing_seed4.csv").exists()


def test_usage_error_on_bad_flags():
    assert main(["run", "sensing"]) == EXIT_USAGE  # --out required
    assert main(["verify", "equivalence", "--family", "unknown"]) == EXIT_USAGE


def test_run_sensing_divergence_exit_3(tmp_path):
    # an absurd step size blows the factored iterates past the guard
    args = ["run", "sensing", "--out", str(tmp_path), "--n", "6", "--r", "2", "--m", "15",
            "--steps", "200", "--eta", "50.0", "--record-every", "5",
            "--schedule", "constant", "--alpha0", "0.0", "--seed", "0"]
    assert main(args) == EXIT_DIVERGED
    # truncated outputs still written
    lines = (tmp_path / "sensing_seed0.csv").read_text().splitlines()
    assert 1 < len(lines) < 202
    summary = json.loads((tmp_path / "sensing_seed0_summary.json").read_text())
    assert summary["diverged"] is True


def test_diagonal_summary_has_kkt_field(tmp_path):
    args = ["run", "diagonal", "--out", str(tmp_path), "--variant", "mw", "--d", "6",
            "--n", "14", "--sparsity", "2", "--steps", "3000", "--record-every", "300",
            "--eta", "0.002", "--schedule", "turnoff", "--alpha0", "1.0",
            "--turnoff-time", "6.0", "--seed", "0"]
    assert main(args) == EXIT_OK
    summary = json.loads((tmp_path / "diagonal_mw_seed0_summary.json").read_text())
    assert "kkt_residual" in summary
    assert summary["kkt_residual"] is None or summary["kkt_residual"] < 0.5


@pytest.mark.parametrize("argv, env_seed, config", [
    (["run", "diagonal", "--record-every", "0"], None, None),
    (["run", "diagonal", "--steps", "0"], None, None),
    (["run", "sparse-coding", "--k", "0"], None, None),
    (["run", "sensing", "--m", "0"], None, None),
    (["run", "sensing", "--n", "0", "--r", "0"], None, None),
    (["run", "flow", "--n", "0"], None, None),
    (["run", "flow", "--method", "rk4"], None, None),
    (["run", "sparse-coding", "--schedule", "turnoff", "--turnoff-time", "0"], None, None),
    (["run", "sparse-coding", "--n-features", "0"], None, None),
    (["run", "sensing"], "abc", None),
    (["run", "sensing", "--seeds", "0,x"], None, None),
    (["run", "flow"], None, "[flow]\nn = abc\n"),
    (["run", "flow"], None, "[flow]\nn = inf\n"),
    (["run", "flow"], None, "[flow]\nstpes = 3\n"),
    # config values are read as the flags are, not guessed as bools or floats
    (["run", "sensing"], None, "[sensing]\nsteps = yes\n"),
    (["run", "diagonal"], None, "[diagonal]\neta = true\n"),
    (["run", "diagonal"], None, "[diagonal]\nsteps = 1e1\n"),
    # a [schedule] key no command reads, a section no command reads, and a
    # "%" that configparser cannot interpolate
    (["run", "diagonal"], None, "[schedule]\nalpa0 = 0.5\n"),
    (["run", "diagonal"], None, "[diagonl]\nsteps = 10\n"),
    (["run", "flow"], None, "[flow]\nseed = 5%\n"),
    (["verify", "commuting", "--n", "0"], None, None),
    (["verify", "commuting", "--n", "-2"], None, None),
    (["run", "sensing", "--t-end", "5"], None, None),
    (["run", "diagonal", "--variant", "x"], None, None),
    (["run", "sparse-coding", "--variant", "x"], None, None),
    # a seed outside [0, 2**64) is a usage error, not an OverflowError
    (["run", "sensing", "--seed", "-1"], None, None),
    (["run", "sensing", "--seeds", "0,-3"], None, None),
    (["verify", "commuting", "--seed", "-1"], None, None),
    (["verify", "optimality", "--seed", "99999999999999999999999"], None, None),
    # a dictionary with a nan or an infinite cell
    (["run", "sparse-coding", "--dictionary", "nan.csv"], None, None),
    (["run", "sparse-coding", "--dictionary", "inf.csv"], None, None),
    (["verify", "contracting", "--grid", "-1"], None, None),
    # fewer than one worker process, on every run command
    (["run", "sensing", "--seeds", "0,1", "--jobs", "0"], None, None),
    (["run", "sensing", "--seeds", "0,1", "--jobs", "-2"], None, None),
    (["run", "diagonal", "--jobs", "0"], None, None),
    (["run", "sparse-coding", "--jobs", "-1"], None, None),
    (["run", "flow", "--jobs", "0"], None, None),
], ids=["diagonal-record-every-0", "diagonal-steps-0", "sparse-coding-k-0", "sensing-m-0",
        "sensing-n-0", "flow-n-0", "flow-method-rk4", "sparse-coding-turnoff-time-0",
        "sparse-coding-n-features-0", "env-seed-abc", "seeds-0-x",
        "config-n-abc", "config-n-inf", "config-typo-stpes", "config-steps-yes",
        "config-eta-true", "config-steps-1e1", "config-schedule-typo-alpa0",
        "config-section-typo", "config-percent", "commuting-n-0",
        "commuting-n-negative", "sensing-t-end", "diagonal-variant-x", "sparse-coding-variant-x",
        "sensing-seed-negative", "seeds-0-negative", "commuting-seed-negative",
        "optimality-seed-2-to-the-76", "dictionary-nan", "dictionary-inf",
        "contracting-grid-negative", "sensing-jobs-0", "sensing-jobs-negative", "diagonal-jobs-0",
        "sparse-coding-jobs-negative", "flow-jobs-0"])
def test_bad_input_exits_2_with_an_error_line(tmp_path, monkeypatch, capsys, argv, env_seed,
                                              config):
    if env_seed is not None:
        monkeypatch.setenv("MIRRORLAB_SEED", env_seed)
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    if "--dictionary" in argv:
        # a 40 x 8 matrix with one bad cell
        bad = argv[-1].removesuffix(".csv")
        D = make_rng(5).standard_normal((40, 8))
        D[3, 2] = float(bad)
        np.savetxt(tmp_path / argv[-1], D, delimiter=",", fmt="%.17g")
        argv = argv[:-1] + [str(tmp_path / argv[-1])]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())
    # the output directory is made only when the first file is written
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["run", "flow", "--step", "nan"], "step"),
    (["verify", "equivalence", "--step", "nan"], "step"),
    (["run", "flow", "--t-end", "inf"], "t_end"),
    (["run", "sensing", "--beta", "nan"], "beta"),
    (["run", "flow", "--alpha0", "nan"], "alpha0"),
    (["run", "sensing", "--eta", "nan"], "eta"),
    (["run", "diagonal", "--eta", "nan"], "eta"),
    (["run", "sparse-coding", "--lr-scale", "nan"], "lr_scale"),
    (["verify", "contracting", "--a-min", "nan", "--grid", "5"], "a_min"),
    (["verify", "equivalence", "--tol", "nan"], "tol"),
    (["verify", "commuting", "--tol", "nan"], "tol"),
    (["verify", "optimality", "--kkt-tol", "nan"], "kkt_tol"),
    (["verify", "optimality", "--oracle-tol", "inf"], "oracle_tol"),
], ids=["flow-step", "equivalence-step", "flow-t-end-inf", "sensing-beta", "flow-alpha0",
        "sensing-eta", "diagonal-eta", "sparse-coding-lr-scale", "contracting-a-min",
        "equivalence-tol", "commuting-tol", "optimality-kkt-tol", "optimality-oracle-tol-inf"])
def test_non_finite_numbers_exit_2_naming_the_option(tmp_path, capsys, argv, option):
    # NaN passes every `<= 0` range check, so each config tests finiteness first
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"error: {option} must be finite" in err and "Traceback" not in err


def test_config_key_outside_the_options_names_its_section(tmp_path, capsys):
    # a key must be an option of a command that reads its section: the
    # command's own section, another command's, or [schedule], which every
    # command reads, so keys this command does not read pass there
    cfg = tmp_path / "typo.cfg"
    for text in ("[flow]\nstpes = 3\n", "[schedule]\nalpa0 = 0.5\n", "[diagonl]\nsteps = 3\n",
                 "[sensing]\nstpes = 3\n"):
        cfg.write_text(text)
        assert main(["run", "flow", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
        section, key = text.split("\n")[0], text.split()[1]
        assert capsys.readouterr().err.startswith(f"error: {section} {key}:")
    cfg.write_text("[schedule]\nkind = constant\nsteps = 3\nt_end = 5\n[sensing]\nseed = 1\n")
    assert main(["run", "flow", "--config", str(cfg), "--out", str(tmp_path),
                 "--t-end", "0.01"]) == EXIT_OK


def test_a_bad_value_reads_the_same_from_every_source(tmp_path, monkeypatch, capsys):
    # flags, config values and MIRRORLAB_SEED all reach the one cast as
    # text, so a seed that is not an int gets one and the same error line
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("[diagonal]\nseed = 1e1\n")
    argv = ["run", "diagonal", "--out", str(tmp_path / "out")]
    assert main(argv + ["--seed", "1e1"]) == EXIT_USAGE
    assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
    monkeypatch.setenv("MIRRORLAB_SEED", "1e1")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == ["error: seed: cannot read '1e1' as int"] * 3
    assert not (tmp_path / "out").exists()
    # argparse hands every option over as text, and only --jobs typed
    args = cli._parser().parse_args(argv + ["--steps", "10", "--eta", "0.5", "--jobs", "2"])
    assert (args.steps, args.eta, args.jobs) == ("10", "0.5", 2)


def test_readme_command_lines_parse():
    # every example of README's "Command line" block names only flags its
    # command declares
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("mirrorlab ")]
    assert len(lines) >= 8
    for line in lines:
        cli._parser().parse_args(shlex.split(line)[1:])


def _rowwise_csv(report):
    """The row-at-a-time trajectory CSV formatter that write_trajectory_csv replaced."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float) and not np.isfinite(v):
            return repr(v)
        return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)

    m = report.metrics
    lines = [",".join(CSV_COLUMNS) + "\n"]
    for i in range(len(report.steps)):
        row = {"step": int(report.steps[i]), "t": float(report.times[i]), "a": float(report.a[i])}
        for col in ("train_loss", "recon_error", "nuclear_norm", "ratio", "l1", "l1_l2_ratio"):
            row[col] = float(m[col][i]) if col in m else None
        lines.append(",".join(cell(row[c]) for c in CSV_COLUMNS) + "\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("n_rows", [0, 1, 511, 512, 513, 1100])
@pytest.mark.parametrize("present", [("train_loss", "recon_error", "nuclear_norm", "ratio"),
                                     ("train_loss", "l1", "l1_l2_ratio"), ()])
def test_trajectory_csv_matches_the_rowwise_formatter(tmp_path, n_rows, present):
    rng = make_rng(n_rows)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                        0.1, 1.0, 3.0, -1e-17])

    def series():
        v = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-20, 20, n_rows)
        hit = rng.random(n_rows) < 0.2
        v[hit] = rng.choice(special, hit.sum())
        return v

    steps = np.arange(n_rows) * 7
    report = RunRecord(kind="test", config={}, steps=steps, times=steps * 0.25, a=series(),
                       metrics={c: series() for c in present}, summary={})
    write_trajectory_csv(str(tmp_path / "t.csv"), report)
    assert (tmp_path / "t.csv").read_bytes() == _rowwise_csv(report)


def test_python_m_mirrorlab_runs_the_cli(tmp_path):
    src = str(Path(mirrorlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    ok = subprocess.run([sys.executable, "-m", "mirrorlab", "verify", "contracting", "--family",
                         "entropy", "--grid", "5", "--out", str(tmp_path)],
                        capture_output=True, text=True, env=env, timeout=120)
    assert ok.returncode == EXIT_OK, ok.stderr
    assert "PASS" in ok.stdout
    bad = subprocess.run([sys.executable, "-m", "mirrorlab", "run", "sensing", "--steps", "x"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == EXIT_USAGE
    assert "error:" in bad.stderr


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # only `run sensing --jobs N` with N > 1 needs the pool and its import chain
    src = str(Path(mirrorlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys, mirrorlab.cli; print('concurrent.futures.process' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
