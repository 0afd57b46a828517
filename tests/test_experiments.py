import math

import numpy as np
import pytest
from scipy.optimize import minimize

from mirrorlab.experiments import LOSS_THRESHOLD

from mirrorlab import (DiffPowers, Entropy, Hadamard, HyperbolicEntropy, InputError,
                       IntegratorConfig, LinearRegressionLoss, LogRatio,
                       RegressionConfig, Schedule, SensingConfig,
                       SparseCodingConfig, constrained_argmin,
                       diagonal_network_run, kkt_residual, make_dictionary,
                       make_regression_problem, make_rng, make_sensing_problem,
                       matrix_sensing_run, nuclear_frobenius_ratio, nuclear_norm,
                       run_param_flow, sparse_coding_run, stationarity_step)


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


def test_eigen_bias_series():
    cfg = small_sensing(Schedule("turnoff", 0.1, turnoff_time=20.0, t_end=400.0),
                        kind="commuting-diagonal", steps=1600)
    rep = matrix_sensing_run(cfg)
    assert rep.eigenvalues[0] == pytest.approx(np.full(cfg.n, cfg.beta))
    # the flow preserves positive semidefiniteness up to roundoff
    assert not np.any(rep.eigenvalues < -1e-10)
    # recovered run: eigenvalue sum approaches the unit nuclear norm
    assert np.sum(rep.eigenvalues[-1]) == pytest.approx(1.0, abs=0.05)


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


def test_sparse_coding_flags_a_unit_region_exit_between_snapshots():
    # one Euler step overshoots u below 1 and the next brings it back: only
    # the field evaluation at the unrecorded step 1 sees the exit
    sched = Schedule("constant", 0.0, t_end=1.0)
    rep = sparse_coding_run(np.eye(1), [-1.0], LogRatio([1.2], [1.5]), sched,
                            SparseCodingConfig(steps=2, record_every=2, lr_scale=1.0))
    assert rep.steps.tolist() == [0, 2] and np.all(rep.final_params > 1.0)
    assert rep.flags == {"domain_exit": False, "left_unit_region": True}


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
    # a nan dictionary would end in an SVD that does not converge, an
    # infinite one in a divergence
    for bad in (np.nan, np.inf, -np.inf):
        for where in ("dictionary", "target"):
            bad_D, target = D.copy(), np.zeros(10)
            (bad_D if where == "dictionary" else target)[3] = bad
            with pytest.raises(InputError, match=rf"{where} must be (a )?finite"):
                sparse_coding_run(bad_D, target, p, sched, SparseCodingConfig())


def test_stationarity_step_basic():
    steps = np.arange(0, 100, 10)
    series = np.concatenate([np.linspace(1.0, 0.0, 5), np.zeros(5)])
    assert stationarity_step(series, steps) == 40
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [-4.0, -8.0, -12.0])
def test_constrained_argmin_runs_under_warnings_as_errors(a):
    # on the default diagonal problem, Newton trial points underflow exp(2 mu)
    # in the hyperbolic dual map, which divides by it; the line search
    # rejects them as non-finite without a warning
    Z, y, _ = make_regression_problem(RegressionConfig())
    fam = HyperbolicEntropy.from_hadamard(np.zeros(Z.shape[1]), np.ones(Z.shape[1]))
    x = constrained_argmin(fam, a, Z, y)
    assert np.max(np.abs(Z @ x - y)) < 1e-10


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


# the snapshot's gradient is reused by the next step's rhs: recording every
# step must leave every step bit-identical to recording almost none
@pytest.mark.parametrize("kind,alpha0,turnoff", [("constant", 0.01, 0.0), ("turnoff", 0.2, 62.5)],
                         ids=["const0.01", "const0.2to"])
def test_sensing_recording_changes_no_step(kind, alpha0, turnoff):
    sched = Schedule(kind, alpha0, turnoff_time=turnoff, t_end=1250.0)
    reps = [matrix_sensing_run(SensingConfig(steps=1000, schedule=sched, seed=1, record_every=every))
            for every in (1, 1000)]
    _assert_same_steps(*reps)


@pytest.mark.parametrize("variant", ["mw", "mwz", "m"])
def test_diagonal_recording_changes_no_step(variant):
    sched = Schedule("turnoff", 1.0, turnoff_time=1.0, t_end=2.0)
    reps = [diagonal_network_run(RegressionConfig(steps=1000, schedule=sched, variant=variant,
                                                  record_every=every))
            for every in (1, 1000)]
    _assert_same_steps(*reps)


# dop853 reads the record times from its dense output, so neither method's
# steps depend on the recording interval
@pytest.mark.parametrize("method", ["euler", "dop853"])
def test_param_flow_recording_changes_no_step(method):
    p = Hadamard([1.5, 1.2, 1.8], [0.4, -0.2, 0.1])
    rng = make_rng(4)
    loss = LinearRegressionLoss(rng.standard_normal((2, 3)), rng.standard_normal(2))
    sched = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=1.0)
    recs = [run_param_flow(p, loss, sched, IntegratorConfig(method, 1e-3, 1.0, record_every=every))
            for every in (1, 1000)]
    _assert_same_steps(*recs)


@pytest.mark.parametrize("p", [LogRatio(np.full(4, 1.5), np.full(4, 1.2)),
                               DiffPowers(2, np.ones(4), np.ones(4))],
                         ids=["log-ratio", "diff-powers"])
def test_sparse_coding_recording_changes_no_step(p):
    D = make_dictionary(5, 4, seed=1)
    sched = Schedule("turnoff", 0.5, turnoff_time=0.25, t_end=1.0)
    reps = [sparse_coding_run(D, np.linspace(-1.0, 1.0, 5), p, sched,
                              SparseCodingConfig(steps=1000, record_every=every))
            for every in (1, 1000)]
    _assert_same_steps(*reps)
    # the decay drives the log-ratio factors below 1 without leaving the domain
    assert reps[0].flags == reps[1].flags == {"domain_exit": False,
                                              "left_unit_region": p.tag == "log-ratio"}


# Euler's threshold time is the time of its first step whose loss is at most
# the threshold, whatever the recording interval
@pytest.mark.parametrize("kind, alpha0, turnoff, expected", [
    ("constant", 0.0, 0.0, 140.75), ("turnoff", 0.2, 62.5, 676.25)], ids=["zero", "const0.2to"])
def test_sensing_time_to_threshold_is_the_first_step_below_it(kind, alpha0, turnoff, expected):
    sched = Schedule(kind, alpha0, turnoff_time=turnoff, t_end=1250.0)
    sparse, dense = [matrix_sensing_run(SensingConfig(steps=5000, schedule=sched, seed=0,
                                                      record_every=every))
                     for every in (10, 1)]
    first = dense.times[np.argmax(dense.metrics["train_loss"] <= LOSS_THRESHOLD)]
    assert sparse.summary["time_to_threshold"] == dense.summary["time_to_threshold"] == first
    assert first == expected


def _assert_same_steps(dense, sparse):
    assert dense.final_params.tobytes() == sparse.final_params.tobytes()
    shared = np.isin(dense.steps, sparse.steps)
    assert shared.sum() == len(sparse.steps) >= 2
    assert dense.metrics["train_loss"][shared].tobytes() == sparse.metrics["train_loss"].tobytes()


@pytest.mark.parametrize("kind", ["random-symmetric", "commuting-diagonal"])
def test_sensing_spectrum_metrics_match_the_svd(kind, monkeypatch):
    from mirrorlab import flow

    seen = []
    integrate = flow._integrate

    def spy(rhs, state0, n_steps, h, record_every, record, method="euler", finish=None,
            breaks=()):
        def spied(k, t, w):
            if k is not None:  # the hook also sees the steps between record times
                seen.append(w)
            return record(k, t, w)
        return integrate(rhs, state0, n_steps, h, record_every, spied, method, finish, breaks)

    monkeypatch.setattr(flow, "_integrate", spy)
    cfg = SensingConfig(steps=600, seed=2, sensing_kind=kind, record_every=3,
                        schedule=Schedule("turnoff", 0.2, turnoff_time=62.5, t_end=1250.0))
    rep = matrix_sensing_run(cfg)
    assert len(seen) == len(rep.steps) == 201
    for i, w in enumerate(seen):
        U = w.reshape(cfg.n, cfg.n)
        X = U @ U.T
        assert rep.eigenvalues[i].tobytes() == np.linalg.eigvalsh(X)[::-1].tobytes()
        nuc = nuclear_norm(X)
        assert abs(rep.metrics["nuclear_norm"][i] - nuc) <= 1e-14 * nuc
        ratio = nuclear_frobenius_ratio(X)
        assert abs(rep.metrics["ratio"][i] - ratio) <= 1e-14 * ratio


# ---------------------------------------------------------------------------
# the runners' block statistics have the bits of the per-snapshot formulas
# ---------------------------------------------------------------------------

def _spy_on_states(monkeypatch):
    """Every recorded (k, t, state) of the next runs, in record order."""
    from mirrorlab import flow

    seen = []
    integrate = flow._integrate

    def spy(rhs, state0, n_steps, h, record_every, record, method="euler", finish=None,
            breaks=()):
        def spied(k, t, w):
            seen.append((k, t, w))
            return record(k, t, w)
        return integrate(rhs, state0, n_steps, h, record_every, spied, method, finish, breaks)

    monkeypatch.setattr(flow, "_integrate", spy)
    return seen


def _assert_columns_have_the_rowwise_bits(rep, seen, rowwise):
    """rowwise(k, t, w) -> dict of per-snapshot values; each is compared, as
    float64 bytes, with the row of its column in ``rep``."""
    from mirrorlab.flow import RECORD_BLOCK

    assert len(seen) == len(rep.steps) > RECORD_BLOCK + 1  # crosses a block boundary
    assert [k for k, _, _ in seen] == rep.steps.tolist()
    rows = [rowwise(k, t, w) for k, t, w in seen]
    columns = {"a": rep.a, "eigenvalues": rep.eigenvalues, **rep.metrics}
    assert set(rows[0]) == {name for name, col in columns.items() if col is not None}
    for name in rows[0]:
        expected = np.array([row[name] for row in rows], dtype=float)
        assert columns[name].tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("kind, schedule", [
    ("random-symmetric", Schedule("turnoff", 0.2, turnoff_time=10.0, t_end=1250.0)),
    ("commuting-diagonal", Schedule("cosine-decay", 0.2, turnoff_time=30.0, t_end=1250.0))],
    ids=["random-symmetric", "commuting-diagonal"])
def test_sensing_block_statistics_have_the_per_snapshot_bits(kind, schedule, monkeypatch):
    from mirrorlab.experiments import SensingLoss
    from mirrorlab.reparam import SymFactor

    seen = _spy_on_states(monkeypatch)
    cfg = SensingConfig(n=6, r=2, m=20, steps=150, seed=3, sensing_kind=kind, record_every=1,
                        schedule=schedule)
    rep = matrix_sensing_run(cfg)
    X_star, A, y, U = make_sensing_problem(cfg)
    loss, p = SensingLoss(A, y), SymFactor(U)

    def rowwise(k, t, w):
        x = p.g(w)
        X = x.reshape(cfg.n, cfg.n)
        eigenvalues = np.linalg.eigvalsh(X)[::-1]
        s = np.abs(eigenvalues)
        nuclear = float(s.sum())
        return {"a": cfg.schedule.a(t), "train_loss": loss.value(x),
                "recon_error": float(((X_star - X) ** 2).sum()), "nuclear_norm": nuclear,
                "ratio": float(nuclear / np.sqrt(s.dot(s))), "eigenvalues": eigenvalues}

    _assert_columns_have_the_rowwise_bits(rep, seen, rowwise)


@pytest.mark.parametrize("variant", ["m", "mw", "mwz"])
def test_diagonal_block_statistics_have_the_per_snapshot_bits(variant, monkeypatch):
    from mirrorlab.experiments import make_regression_problem
    from mirrorlab.flow import LinearRegressionLoss
    from mirrorlab.reparam import DeepHadamard, L1Identity

    seen = _spy_on_states(monkeypatch)
    # the two phases meet at step 60, inside the first block; a cosine
    # schedule takes Schedule.a through its sine
    cfg = RegressionConfig(d=6, n=14, sparsity=2, eta=0.01, steps=60, variant=variant,
                           record_every=1,
                           schedule=Schedule("cosine-decay", 1.0, turnoff_time=0.9, t_end=1.2))
    rep = diagonal_network_run(cfg)
    Z, y, x_star = make_regression_problem(cfg)
    loss, phase1_end = LinearRegressionLoss(Z, y), cfg.steps * cfg.eta
    p = (L1Identity(np.zeros(cfg.n)) if variant == "m" else
         DeepHadamard([np.zeros(cfg.n)] + [np.ones(cfg.n)] * (len(variant) - 1)))

    def rowwise(k, t, w):
        x = p.g(w)
        l1 = float(np.abs(x).sum())
        l2 = math.sqrt(x.dot(x))
        return {"a": cfg.schedule.a(min(t, phase1_end)), "train_loss": loss.value(x),
                "recon_error": float(((x - x_star) ** 2).sum()), "l1": l1,
                "l1_l2_ratio": l1 / l2 if l2 > 0 else 0.0}

    # every variant starts at x = 0, where the ratio takes its l2 == 0 branch
    assert rep.metrics["l1_l2_ratio"][0] == 0.0
    _assert_columns_have_the_rowwise_bits(rep, seen, rowwise)


@pytest.mark.parametrize("p", [LogRatio(np.full(4, 1.5), np.full(4, 1.2)),
                               DiffPowers(2, np.ones(4), np.ones(4))],
                         ids=["log-ratio", "diff-powers"])
def test_sparse_coding_block_statistics_have_the_per_snapshot_bits(p, monkeypatch):
    from mirrorlab.experiments import DictionaryLoss

    seen = _spy_on_states(monkeypatch)
    D = make_dictionary(5, 4, seed=1)
    target = np.linspace(-1.0, 1.0, 5)
    sched = Schedule("linear-decay", 0.5, turnoff_time=0.01, t_end=1.0)
    rep = sparse_coding_run(D, target, p, sched, SparseCodingConfig(steps=150, record_every=1))
    loss = DictionaryLoss(D, target)

    def rowwise(k, t, w):
        x = p.g(w)
        f_val = loss.value(x)
        return {"a": sched.a(t), "train_loss": f_val, "recon_error": float(2.0 * f_val / 5),
                "l1": float(np.sum(np.abs(x)))}

    _assert_columns_have_the_rowwise_bits(rep, seen, rowwise)
