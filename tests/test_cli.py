import json

import numpy as np
import pytest

from mirrorlab.cli import (EXIT_DIVERGED, EXIT_FAIL, EXIT_OK, EXIT_USAGE,
                           CSV_COLUMNS, UsageError, load_matrix, main,
                           parse_config, save_matrix)


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


def test_run_sensing_seed_sweep(tmp_path):
    assert run_small_sensing(tmp_path, ["--seeds", "0,1", "--jobs", "2"]) == EXIT_OK
    assert (tmp_path / "sensing_seed0.csv").exists()
    assert (tmp_path / "sensing_seed1.csv").exists()
    # worker-pool runs are byte-identical to inline runs
    inline = tmp_path / "inline"
    inline.mkdir()
    assert run_small_sensing(inline, ["--seeds", "0,1", "--jobs", "1"]) == EXIT_OK
    for seed in (0, 1):
        assert ((tmp_path / f"sensing_seed{seed}.csv").read_bytes()
                == (inline / f"sensing_seed{seed}.csv").read_bytes())


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
    (["verify", "commuting", "--n", "0"], None, None),
    (["verify", "commuting", "--n", "-2"], None, None),
], ids=["diagonal-record-every-0", "diagonal-steps-0", "sparse-coding-k-0", "sensing-m-0",
        "sensing-n-0", "flow-n-0", "sparse-coding-n-features-0", "env-seed-abc", "seeds-0-x",
        "config-n-abc", "commuting-n-0", "commuting-n-negative"])
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
