import numpy as np
import pytest
from scipy.optimize import minimize

from mirrorlab import (DiffPowers, Entropy, HyperbolicEntropy, InputError,
                       LogRatio, RegressionConfig, Schedule, SensingConfig,
                       SparseCodingConfig, constrained_argmin,
                       diagonal_network_run, kkt_residual, make_dictionary,
                       make_rng, make_sensing_problem, matrix_sensing_run,
                       sensing_eigen_bias, sparse_coding_run,
                       stationarity_step)


def small_sensing(schedule, seed=0, kind="random-symmetric", steps=800):
    return SensingConfig(n=8, r=2, m=30, beta=0.1, eta=0.25, steps=steps,
                         schedule=schedule, sensing_kind=kind, seed=seed, record_every=20)


def test_sensing_config_validation():
    with pytest.raises(InputError):
        SensingConfig(n=4, r=5)
    with pytest.raises(InputError):
        SensingConfig(beta=0.0)
    with pytest.raises(InputError):
        SensingConfig(sensing_kind="dense")


def test_sensing_ground_truth_normalized():
    for kind in ("random-symmetric", "commuting-diagonal"):
        cfg = small_sensing(Schedule("constant", 0.0, t_end=10.0), kind=kind)
        X_star, A, y, U0 = make_sensing_problem(cfg)
        assert np.sum(np.linalg.svd(X_star, compute_uv=False)) == pytest.approx(1.0)
        assert U0 @ U0.T == pytest.approx(cfg.beta * np.eye(cfg.n))
        assert y == pytest.approx(np.einsum("ijk,jk->i", A, X_star))


def test_sensing_turnoff_beats_constant_and_zero():
    t_end = 200.0
    runs = {}
    for name, sch in [("zero", Schedule("constant", 0.0, t_end=t_end)),
                      ("to", Schedule("turnoff", 0.05, turnoff_time=50.0, t_end=t_end))]:
        runs[name] = matrix_sensing_run(small_sensing(sch)).summary
    assert runs["to"]["final_recon_error"] < runs["zero"]["final_recon_error"]
    assert abs(runs["to"]["final_nuclear_norm"] - 1.0) < abs(runs["zero"]["final_nuclear_norm"] - 1.0)


def test_sensing_csv_metrics_present():
    rep = matrix_sensing_run(small_sensing(Schedule("constant", 0.0, t_end=50.0), steps=200))
    for key in ("train_loss", "recon_error", "nuclear_norm", "ratio"):
        assert len(rep.metrics[key]) == len(rep.times)
    assert rep.summary["time_to_threshold"] is None or rep.summary["time_to_threshold"] >= 0


def test_eigen_bias_requires_diagonal_kind():
    rep = matrix_sensing_run(small_sensing(Schedule("constant", 0.0, t_end=20.0), steps=80))
    with pytest.raises(InputError):
        sensing_eigen_bias(rep, rep_config_obj(rep))


def rep_config_obj(rep):
    cfg = dict(rep.config)
    cfg["schedule"] = Schedule(**cfg["schedule"])
    return SensingConfig(**cfg)


def test_eigen_bias_series():
    cfg = small_sensing(Schedule("turnoff", 0.1, turnoff_time=20.0, t_end=400.0),
                        kind="commuting-diagonal", steps=1600)
    rep = matrix_sensing_run(cfg)
    out = sensing_eigen_bias(rep, cfg)
    assert out["eigenvalues"][0] == pytest.approx(np.full(cfg.n, cfg.beta))
    assert not out["negative_flagged"]
    assert np.all(np.isfinite(out["potential"]))
    # recovered run: eigenvalue sum approaches the unit nuclear norm
    assert np.sum(out["eigenvalues"][-1]) == pytest.approx(1.0, abs=0.05)


def test_diagonal_network_validation():
    with pytest.raises(InputError):
        RegressionConfig(d=100, n=100)
    with pytest.raises(InputError):
        RegressionConfig(variant="mwzz")


def test_diagonal_zero_data_stays_at_init():
    cfg = RegressionConfig(d=0, n=4, sparsity=0, steps=50, record_every=10,
                           schedule=Schedule("constant", 0.0, t_end=1.0), variant="mw")
    rep = diagonal_network_run(cfg)
    assert np.all(rep.metrics["l1"] == 0.0)
    assert rep.final_x == pytest.approx(np.zeros(4))


def test_diagonal_network_two_phase_ratio():
    T1 = 4000 * 1e-3
    sch = Schedule("turnoff", 1.0, turnoff_time=T1, t_end=2 * T1)
    cfg = RegressionConfig(d=12, n=30, sparsity=3, steps=4000, record_every=200,
                           schedule=sch, variant="mw", seed=0)
    rep = diagonal_network_run(cfg)
    gt = rep.summary["ground_truth_ratio"]
    assert gt == pytest.approx(np.sqrt(3.0))
    assert abs(rep.summary["final_ratio"] - gt) / gt < 0.35
    # the a-series freezes at the end of phase one
    assert rep.a[-1] == pytest.approx(rep.a[len(rep.a) // 2], abs=1e-12)


def test_lasting_effect_monotone_in_strength():
    # more accumulated strength (more negative a_T) leaves a smaller final l1
    for seed in (0, 1):
        l1s = []
        for alpha in (0.1, 0.4, 1.2):
            T1 = 6000e-3
            sch = Schedule("turnoff", alpha, turnoff_time=T1, t_end=2 * T1)
            cfg = RegressionConfig(d=10, n=24, sparsity=2, steps=6000, record_every=1000,
                                   schedule=sch, variant="mw", seed=seed)
            l1s.append(diagonal_network_run(cfg).summary["final_l1"])
        assert l1s[0] > l1s[1] > l1s[2]


def test_diagonal_linear_l1_overshoots_ratio():
    T1 = 4000 * 1e-3
    sch = Schedule("turnoff", 1.0, turnoff_time=T1, t_end=2 * T1)
    cfg = RegressionConfig(d=12, n=30, sparsity=3, steps=4000, record_every=200,
                           schedule=sch, variant="m", seed=0)
    rep = diagonal_network_run(cfg)
    assert rep.summary["final_ratio"] > rep.summary["ground_truth_ratio"]


def test_sparse_coding_zero_target_stays_zero():
    D = make_dictionary(20, 6, seed=1)
    p = DiffPowers(2, 0.7 * np.ones(6), 0.7 * np.ones(6))
    sched = Schedule("constant", 0.0, t_end=1e9)
    rep = sparse_coding_run(D, np.zeros(20), p, sched, SparseCodingConfig(steps=30))
    assert np.all(rep.metrics["l1"] == 0.0)
    assert rep.summary["stationarity_step"] == 0


def test_sparse_coding_step_from_lipschitz():
    D = make_dictionary(30, 8, seed=2)
    p = DiffPowers(2, np.ones(8), np.ones(8))
    sched = Schedule("constant", 1e-3, t_end=1e9)
    rep = sparse_coding_run(D, np.ones(30), p, sched, SparseCodingConfig(steps=10))
    L = np.linalg.norm(D, 2) ** 2
    assert rep.summary["eta"] == pytest.approx(1e-3 / L)


def test_sparse_coding_log_ratio_domain_exit():
    rng = make_rng(3)
    D = make_dictionary(20, 5, seed=3)
    p = LogRatio(0.4 * np.ones(5), 0.6 * np.ones(5))
    sched = Schedule("constant", 0.0, t_end=1e9)
    # target far out of reach drives u or v to zero
    target = 50.0 * rng.standard_normal(20)
    rep = sparse_coding_run(D, target, p, sched, SparseCodingConfig(steps=4000, lr_scale=0.5))
    assert rep.flags["domain_exit"]
    assert rep.flags["left_unit_region"]
    assert rep.diverged


@pytest.mark.parametrize("lr_scale", [1.0, 5.0, 50.0])
def test_sparse_coding_blow_up_is_divergence_not_domain_exit(lr_scale):
    # a difference-of-powers code has no domain to leave; a step size far past
    # 1/Lip blows it up, which is a divergence
    rng = make_rng(3)
    D = make_dictionary(20, 5, seed=3)
    p = DiffPowers(2, np.ones(5), np.ones(5))
    sched = Schedule("constant", 0.0, t_end=1e9)
    target = 50.0 * rng.standard_normal(20)
    rep = sparse_coding_run(D, target, p, sched, SparseCodingConfig(steps=200, lr_scale=lr_scale))
    assert rep.diverged
    assert not rep.flags["domain_exit"]
    assert len(rep.steps) < 201 and rep.final_x is None


def test_sparse_coding_log_ratio_l1_grows_with_alpha():
    # stronger penalties push the log-ratio code toward larger l1 faster
    rng = make_rng(7)
    D = make_dictionary(100, 20, seed=4)
    target = D @ np.concatenate([rng.standard_normal(4), np.zeros(16)])
    u0 = np.full(20, 1.0 / (1.0 + np.exp(-0.1)))
    v0 = np.full(20, 1.0 / (1.0 + np.exp(0.1)))
    finals = []
    for alpha in (0.0, 0.1, 1.0):
        rep = sparse_coding_run(D, target, LogRatio(u0, v0),
                                Schedule("constant", alpha, t_end=1e9),
                                SparseCodingConfig(steps=200))
        finals.append(rep.summary["final_l1"])
    assert finals[0] < finals[1] < finals[2]


def test_sparse_coding_input_validation():
    D = make_dictionary(10, 4, seed=0)
    p = DiffPowers(2, np.ones(4), np.ones(4))
    sched = Schedule("constant", 0.0, t_end=1.0)
    with pytest.raises(InputError):
        sparse_coding_run(np.zeros((10, 4)), np.zeros(10), p, sched, SparseCodingConfig())
    with pytest.raises(InputError):
        sparse_coding_run(D, np.zeros(7), p, sched, SparseCodingConfig())
    with pytest.raises(InputError):
        sparse_coding_run(D, np.zeros(10), DiffPowers(2, np.ones(3), np.ones(3)),
                          sched, SparseCodingConfig())


def test_stationarity_step_basic():
    steps = np.arange(0, 100, 10)
    series = np.concatenate([np.linspace(1.0, 0.0, 5), np.zeros(5)])
    assert stationarity_step(series, steps, rtol=0.05) == 40
    assert stationarity_step(np.ones(10), steps) == 0


def test_kkt_residual_zero_at_free_minimum():
    rng = make_rng(4)
    ent = Entropy(np.ones(4))
    a_T = -0.8
    x_min = ent.argmin_position(a_T)
    Z = rng.standard_normal((2, 4))
    assert kkt_residual(Z, x_min, ent, a_T) == pytest.approx(0.0, abs=1e-12)


def test_kkt_residual_large_off_optimum():
    rng = make_rng(5)
    ent = Entropy(np.ones(4))
    a_T = -0.8
    Z = rng.standard_normal((2, 4))
    Y = Z @ ent.dual_map(a_T, 0.4 * rng.standard_normal(4))  # attainable target
    oracle = constrained_argmin(ent, a_T, Z, Y)
    # random feasible perturbation off the optimum
    null = np.eye(4) - Z.T @ np.linalg.solve(Z @ Z.T, Z)
    x_bad = oracle + null @ np.array([0.5, -0.3, 0.4, 0.2])
    x_bad = np.where(x_bad > 0, x_bad, oracle)  # stay in the positive domain
    assert kkt_residual(Z, oracle, ent, a_T) < 1e-10
    assert kkt_residual(Z, x_bad, ent, a_T) > 1e-2


def test_kkt_residual_rank_deficient():
    ent = Entropy(np.ones(3))
    Z = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(InputError):
        kkt_residual(Z, np.ones(3), ent, -0.5)


def test_constrained_argmin_matches_scipy():
    rng = make_rng(6)
    n, d = 5, 2
    Z = rng.standard_normal((d, n))
    a_T = -1.0
    for fam in (Entropy(rng.uniform(0.5, 1.5, n)),
                HyperbolicEntropy.from_hadamard(rng.uniform(1.0, 2.0, n),
                                                rng.uniform(-0.4, 0.4, n))):
        x_feas = fam.dual_map(a_T, 0.3 * rng.standard_normal(n))
        Y = Z @ x_feas
        x_star = constrained_argmin(fam, a_T, Z, Y)
        assert Z @ x_star == pytest.approx(Y, abs=1e-9)

        if fam.tag == "entropy":
            x0 = np.abs(x_feas)
            bounds = [(1e-9, None)] * n
        else:
            x0 = x_feas
            bounds = None
        ref = minimize(lambda x: fam.value(a_T, x), x0, jac=lambda x: fam.grad(a_T, x),
                       constraints=[{"type": "eq", "fun": lambda x: Z @ x - Y,
                                     "jac": lambda x: Z}],
                       bounds=bounds, method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-14})
        assert x_star == pytest.approx(ref.x, abs=5e-5)


def test_constrained_argmin_unattainable():
    dp_free = Entropy(np.ones(2))
    Z = np.array([[1.0, 1.0]])
    with pytest.raises(InputError):
        constrained_argmin(dp_free, -0.5, Z, np.array([-3.0]))  # x > 0 forces Zx > 0
