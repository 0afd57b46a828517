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
from mirrorlab import ExperimentReport, cli, make_rng
from mirrorlab.cli import (EXIT_DIVERGED, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                           CSV_COLUMNS, UsageError, load_matrix, main,
                           parse_config, save_matrix, write_trajectory_csv)


def test_parse_config_sections(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[schedule]\nkind = turnoff\nalpha0 = 0.02\nturnoff_time = 625\n"
                   "t_end = 1250\n[sensing]\nseed = 3\nsteps = 100\n# comment\n")
    parsed = parse_config(str(cfg))
    assert parsed["schedule.kind"] == "turnoff"
    assert parsed["schedule.alpha0"] == 0.02
    assert parsed["sensing.seed"] == 3


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
    path = save_matrix(str(tmp_path / "dict.csv"), X)
    back = load_matrix(path)
    assert back.shape == (7, 50)
    assert np.array_equal(back, X)


def test_verify_equivalence_exit_codes():
    assert main(["verify", "equivalence", "--family", "hadamard",
                 "--t-end", "1.0", "--step", "0.002"]) == EXIT_OK


def test_verify_commuting_expect_fail():
    base = ["verify", "commuting", "--variant", "deep-hadamard", "--depth", "3",
            "--n", "2", "--samples", "3"]
    assert main(base) == EXIT_FAIL
    assert main(base + ["--expect-fail"]) == EXIT_OK


def test_verify_contracting_cli():
    args = ["verify", "contracting", "--family", "entropy", "--grid", "10"]
    assert main(args) == EXIT_OK
    bad = ["verify", "contracting", "--family", "quadratic-neg", "--grid", "8"]
    assert main(bad) == EXIT_FAIL
    assert main(bad + ["--expect-fail"]) == EXIT_OK


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


def run_small_sensing(tmp_path, extra=()):
    args = ["run", "sensing", "--out", str(tmp_path), "--n", "6", "--r", "2", "--m", "15",
            "--steps", "120", "--record-every", "10", "--schedule", "turnoff",
            "--alpha0", "0.05", "--turnoff-time", "15", "--t-end", "30", "--seed", "1"]
    return main(args + list(extra))


def test_run_sensing_csv_schema(tmp_path):
    assert run_small_sensing(tmp_path) == EXIT_OK
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
            "--t-end", "1.0", "--seed", "0", "--plot"]
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
    dict_path = save_matrix(str(tmp_path / "dict.csv"), D)
    args = ["run", "sparse-coding", "--out", str(tmp_path), "--variant", "diff-powers",
            "--k", "2", "--steps", "40", "--dictionary", dict_path, "--seed", "2"]
    assert main(args) == EXIT_OK
    assert (tmp_path / "sparse_diff-powers_seed2.csv").exists()


def test_run_flow_writes_trajectory(tmp_path):
    args = ["run", "flow", "--out", str(tmp_path), "--family", "entropy",
            "--schedule", "constant", "--alpha0", "0.1", "--t-end", "2.0",
            "--step", "0.005", "--seed", "0"]
    assert main(args) == EXIT_OK
    lines = (tmp_path / "flow_entropy_seed0.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) > 10


def test_run_flow_labels_rows_with_their_step(tmp_path):
    # 5 steps recorded every 3rd step: the rows are steps 0, 3 and the last, 5
    args = ["run", "flow", "--out", str(tmp_path), "--family", "hyperbolic",
            "--method", "euler", "--record-every", "3", "--schedule", "turnoff",
            "--t-end", "0.05", "--step", "0.01", "--seed", "0"]
    assert main(args) == EXIT_OK
    rows = (tmp_path / "flow_hyperbolic_seed0.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0", "3", "5"]


def test_run_flow_dopri5_records_the_rk4_rows(tmp_path):
    rows = {}
    for method in ("rk4", "dopri5"):
        out = tmp_path / method
        args = ["run", "flow", "--out", str(out), "--family", "hyperbolic", "--method", method,
                "--schedule", "turnoff", "--turnoff-time", "0.37", "--t-end", "1.0",
                "--step", "0.01", "--record-every", "7", "--seed", "0"]
        assert main(args) == EXIT_OK
        lines = (out / "flow_hyperbolic_seed0.csv").read_text().splitlines()
        rows[method] = [line.split(",")[:2] for line in lines]
    # the same step and t columns, bit for bit
    assert rows["dopri5"] == rows["rk4"]


@pytest.mark.parametrize("kind, m, unique", [("commuting-diagonal", 15, True),
                                             ("commuting-diagonal", 4, False),
                                             ("random-symmetric", 15, None)])
def test_sensing_summary_says_when_the_interpolant_is_unique(tmp_path, kind, m, unique):
    # a commuting-diagonal design with more rows than columns has full column
    # rank, so its one interpolant needs no KKT residual
    args = ["run", "sensing", "--out", str(tmp_path), "--n", "6", "--r", "2", "--m", str(m),
            "--steps", "80", "--record-every", "20", "--sensing-kind", kind,
            "--schedule", "constant", "--alpha0", "0.0", "--t-end", "20", "--seed", "0"]
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
            "--schedule", "constant", "--alpha0", "0.0", "--t-end", "10000", "--seed", "0"]
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
            "--turnoff-time", "6.0", "--t-end", "12.0", "--seed", "0"]
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
    (["run", "sparse-coding", "--n-features", "0"], None, None),
    (["run", "sensing"], "abc", None),
    (["run", "sensing", "--seeds", "0,x"], None, None),
    (["run", "flow"], None, "[flow]\nn = abc\n"),
    (["run", "flow"], None, "[flow]\nn = inf\n"),
    (["run", "flow"], None, "[flow]\nstpes = 3\n"),
    (["verify", "commuting", "--n", "0"], None, None),
    (["verify", "commuting", "--n", "-2"], None, None),
], ids=["diagonal-record-every-0", "diagonal-steps-0", "sparse-coding-k-0", "sensing-m-0",
        "sensing-n-0", "flow-n-0", "sparse-coding-n-features-0", "env-seed-abc", "seeds-0-x",
        "config-n-abc", "config-n-inf", "config-typo-stpes", "commuting-n-0",
        "commuting-n-negative"])
def test_bad_input_exits_2_with_an_error_line(tmp_path, monkeypatch, capsys, argv, env_seed,
                                              config):
    if env_seed is not None:
        monkeypatch.setenv("MIRRORLAB_SEED", env_seed)
    if config is not None:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


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
    # a typo in the command's own section is an error; [schedule] is shared
    # by every command, so keys a command does not read pass there
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[flow]\nstpes = 3\n")
    assert main(["run", "flow", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "error: [flow] stpes" in capsys.readouterr().err
    cfg.write_text("[schedule]\nkind = constant\nsteps = 3\n[sensing]\nseed = 1\n")
    assert main(["run", "flow", "--config", str(cfg), "--out", str(tmp_path),
                 "--t-end", "0.01"]) == EXIT_OK


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
    report = ExperimentReport(kind="test", config={}, steps=steps, times=steps * 0.25, a=series(),
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
