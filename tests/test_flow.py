import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorlab import (DeepHadamard, DiffPowers, DiffPowersFlow, DivergedError,
                       DomainError, DomainExitError, Entropy, Hadamard, HyperbolicEntropy,
                       InputError, IntegratorConfig, LogRatio, QuadraticLoss,
                       Schedule, SymFactor, ZeroLoss, family_for, make_rng,
                       riemannian_residual, run_mirror_flow, run_param_flow,
                       verify_equivalence)
from mirrorlab.flow import DIVERGENCE_LIMIT, LinearRegressionLoss, _integrate

RNG = make_rng(0)


def quad_loss(n, seed=0, positive_target=False):
    rng = make_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    M = Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T
    target = rng.uniform(0.5, 2.0, n) if positive_target else rng.standard_normal(n)
    return QuadraticLoss(M, target)


def test_energy_descent_without_regularization():
    p = Hadamard([1.5, 1.2, 1.8], [0.3, -0.2, 0.4])
    loss = quad_loss(3, seed=1)
    sched = Schedule("constant", 0.0, t_end=2.0)
    traj = run_param_flow(p, loss, sched, IntegratorConfig("rk4", 1e-3, 2.0, record_every=10))
    f = traj.metrics["train_loss"]
    assert np.all(np.diff(f) <= 1e-10)


def test_pure_decay_closed_form():
    # zero loss gradient, constant alpha: w_t = w_0 exp(-alpha t) under weight decay
    p = Hadamard([1.0, 2.0], [0.5, -0.4])
    sched = Schedule("constant", 0.3, t_end=1.5)
    traj = run_param_flow(p, ZeroLoss(2), sched, IntegratorConfig("rk4", 1e-3, 1.5, record_every=50))
    expected = p.w_init[None, :] * np.exp(-0.3 * traj.times)[:, None]
    assert np.max(np.abs(traj.params - expected)) < 1e-10


def test_sym_factor_norm_bounded_under_decay():
    rng = make_rng(2)
    U0 = rng.standard_normal((3, 3))
    p = SymFactor(U0)
    sched = Schedule("constant", 0.5, t_end=2.0)
    traj = run_param_flow(p, ZeroLoss(9), sched, IntegratorConfig("rk4", 1e-2, 2.0, record_every=1))
    norms = np.linalg.norm(traj.params, axis=1)
    assert np.all(norms <= norms[0] + 1e-12)
    assert norms[-1] == pytest.approx(norms[0] * np.exp(-0.5 * 2.0), rel=1e-8)


def test_mirror_flow_entropy_stays_positive_and_converges():
    ent = Entropy(np.array([0.5, 1.5]))
    target = np.array([2.0, 0.7])
    loss = QuadraticLoss(np.eye(2), target)
    sched = Schedule("turnoff", 0.4, turnoff_time=0.5, t_end=30.0)
    traj = run_mirror_flow(ent, loss, sched, IntegratorConfig("rk4", 5e-3, 30.0, record_every=100))
    assert np.all(traj.x > 0)
    assert traj.final_x == pytest.approx(target, abs=1e-6)


def test_mirror_flow_pure_drift_matches_scale():
    # no loss: mu stays 0 and x_t = x_0 exp(2 a_t)
    x0 = np.array([1.0, 2.0])
    ent = Entropy(x0)
    sched = Schedule("constant", 0.25, t_end=2.0)
    traj = run_mirror_flow(ent, ZeroLoss(2), sched, IntegratorConfig("rk4", 1e-3, 2.0, record_every=100))
    expected = x0[None, :] * np.exp(2.0 * traj.a)[:, None]
    assert np.max(np.abs(traj.x - expected)) < 1e-12
    hyp = HyperbolicEntropy.from_hadamard(np.array([1.5, 1.2]), np.array([0.5, -0.3]))
    traj = run_mirror_flow(hyp, ZeroLoss(2), sched, IntegratorConfig("rk4", 1e-3, 2.0, record_every=100))
    x0h = hyp.dual_map(0.0, np.zeros(2))
    assert np.max(np.abs(traj.x - x0h[None, :] * np.exp(2.0 * traj.a)[:, None])) < 1e-12


@pytest.mark.parametrize("case", ["hadamard", "entropy", "quadratic"])
def test_equivalence_matched_pairs(case):
    rng = make_rng(3)
    if case == "hadamard":
        p = Hadamard(rng.uniform(1.0, 2.0, 3), rng.uniform(-0.5, 0.5, 3))
        loss = quad_loss(3, seed=4)
    elif case == "entropy":
        m0 = rng.uniform(0.8, 1.2, 3)
        p = Hadamard(m0, m0)
        loss = quad_loss(3, seed=5, positive_target=True)
    else:
        A_list = [np.diag((np.arange(4) == i).astype(float)) for i in range(3)]
        from mirrorlab import QuadraticCommuting
        p = QuadraticCommuting(A_list, np.eye(4), rng.uniform(0.7, 1.5, 4))
        loss = QuadraticLoss(np.diag(rng.uniform(0.5, 2.0, 3)), rng.uniform(0.3, 1.0, 3))
    sched = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=2.0)
    cfg = IntegratorConfig("rk4", 1e-3, 2.0, record_every=20)
    rep = verify_equivalence(p, family_for(p), loss, sched, cfg)
    assert rep.passed and rep.max_deviation < 1e-8


def test_equivalence_diff_powers_classical():
    # the dual map for u^(2k) - v^(2k) matches the factor flow exactly when no
    # strength accumulates (shrinking-domain convention of the family)
    p = DiffPowers(2, np.array([1.1, 1.3]), np.array([0.9, 1.0]))
    loss = QuadraticLoss(0.5 * np.eye(2), np.array([0.6, -0.2]))
    sched = Schedule("constant", 0.0, t_end=2.0)
    cfg = IntegratorConfig("rk4", 1e-3, 2.0, record_every=20)
    rep = verify_equivalence(p, family_for(p), loss, sched, cfg, tol=1e-5)
    assert rep.passed


def test_equivalence_refuses_depth_three():
    p = DeepHadamard([np.ones(2)] * 3)
    fam = Entropy(np.ones(2))
    with pytest.raises(InputError):
        verify_equivalence(p, fam, quad_loss(2), Schedule("constant", 0.0, t_end=1.0),
                           IntegratorConfig("rk4", 1e-2, 1.0))


def test_equivalence_rejects_unmatched_or_inconsistent():
    p = Hadamard([1.0, 1.0], [0.5, 0.5])
    dp = DiffPowersFlow(2, np.ones(2), np.ones(2))
    with pytest.raises(InputError):
        verify_equivalence(p, dp, quad_loss(2), Schedule("constant", 0.0, t_end=1.0),
                           IntegratorConfig("rk4", 1e-2, 1.0))
    wrong = Entropy(np.array([2.0, 2.0]))  # does not reproduce g(w_init) = 0.5
    with pytest.raises(InputError):
        verify_equivalence(p, wrong, quad_loss(2), Schedule("constant", 0.0, t_end=1.0),
                           IntegratorConfig("rk4", 1e-2, 1.0))


def test_step_halving_rk4_order():
    p = Hadamard([1.4, 1.1], [0.3, -0.5])
    loss = quad_loss(2, seed=6)
    sched = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=1.0)
    finals = []
    for step in (4e-2, 2e-2, 1e-2):
        traj = run_param_flow(p, loss, sched, IntegratorConfig("rk4", step, 1.0, record_every=10**6))
        finals.append(traj.final_x)
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    assert e2 <= e1 / 4.0


def test_riemannian_residual_classical_case():
    ent = Entropy(np.array([0.8, 1.3]))
    loss = QuadraticLoss(np.eye(2), np.array([1.5, 0.6]))
    sched = Schedule("constant", 0.0, t_end=1.0)
    residuals = {}
    for step in (2e-3, 1e-3):
        traj = run_mirror_flow(ent, loss, sched, IntegratorConfig("rk4", step, 1.0, record_every=1))
        _, res = riemannian_residual(ent, traj, loss, sched, 0.0)
        residuals[step] = np.max(res)
    assert residuals[1e-3] < 1e-5
    # central differencing is second order: quartering under step halving
    assert residuals[1e-3] <= residuals[2e-3] / 3.0


def test_riemannian_residual_post_turnoff():
    fam = HyperbolicEntropy.from_hadamard(np.array([1.5, 1.2]), np.array([0.4, -0.2]))
    p = Hadamard(np.array([1.5, 1.2]), np.array([0.4, -0.2]))
    loss = quad_loss(2, seed=7)
    sched = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=2.0)
    traj = run_param_flow(p, loss, sched, IntegratorConfig("rk4", 1e-3, 2.0, record_every=1))
    times, res = riemannian_residual(fam, traj, loss, sched, 0.5)
    assert np.all(times >= 0.5)
    assert np.max(res) < 1e-3


def test_riemannian_residual_requires_turnoff():
    ent = Entropy(np.ones(2))
    loss = quad_loss(2)
    sched = Schedule("constant", 0.1, t_end=1.0)
    traj = run_mirror_flow(ent, loss, sched, IntegratorConfig("rk4", 1e-2, 1.0, record_every=1))
    with pytest.raises(InputError):
        riemannian_residual(ent, traj, loss, sched, 0.5)
    sched_to = Schedule("turnoff", 0.1, turnoff_time=0.8, t_end=1.0)
    with pytest.raises(InputError):
        riemannian_residual(ent, traj, loss, sched_to, 0.5)


def test_divergence_guard():
    p = Hadamard([1.0, 1.0], [1.0, 1.0])
    unstable = QuadraticLoss(-np.eye(2), np.zeros(2))  # concave: flow blows up
    sched = Schedule("constant", 0.0, t_end=40.0)
    with pytest.raises(DivergedError) as exc_info:
        run_param_flow(p, unstable, sched, IntegratorConfig("euler", 1e-2, 40.0, record_every=10))
    err = exc_info.value
    assert err.trajectory is not None and err.last_valid_time < 40.0


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 100.0 * DIVERGENCE_LIMIT])
def test_integrate_stops_on_nonfinite_or_huge_state(bad, method):
    def rhs(t, state, left_limit):
        return np.array([0.0, bad if t >= 1.0 else 0.0])

    state, status, records = _integrate(rhs, np.ones(2), 10, 0.5, 1, lambda k, t, s: {}, method)
    # RK4's last stage of the step from t = 0.5 already samples t = 1
    last_ok = 2 if method == "euler" else 1
    assert status == ("diverged", 0.5 * last_ok, None)
    assert records["step"].tolist() == list(range(last_ok + 1))
    assert not np.abs(state[1]) <= DIVERGENCE_LIMIT


def test_integrate_accepts_states_at_the_divergence_limit():
    def rhs(t, state, left_limit):
        return np.zeros(2)

    state, status, _ = _integrate(rhs, [DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT], 3, 0.5, 1,
                                  lambda k, t, s: {})
    assert status is None
    assert state.tolist() == [DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT]


def test_integrate_records_one_column_per_hook_name():
    h = 0.1
    state, status, records = _integrate(lambda t, s, left: np.array([1.0, -2.0]), np.zeros(2),
                                        7, h, 3, lambda k, t, s: {"x": s})
    assert status is None
    assert sorted(records) == ["step", "t", "x"]
    assert records["step"].tolist() == [0, 3, 6, 7]
    assert records["t"].tolist() == (records["step"] * h).tolist()
    assert records["x"].shape == (4, 2)
    assert records["x"][0].tolist() == [0.0, 0.0]
    assert records["x"][-1].tolist() == state.tolist()


def _failing_rhs(t, state, left_limit):
    if t > 0.25:  # from the step leaving t = 3h = 0.3, i.e. step 4
        raise DomainError("rhs left its domain")
    return np.ones(2)


def _failing_hook(k, t, state):
    if k == 3:
        raise DomainError("hook left its domain")
    return {"x": state}


@pytest.mark.parametrize("rhs, record, kind, steps", [
    # the step leaving t = 4h = 0.4 (step 5) blows up
    (lambda t, s, left: np.ones(2) * (np.inf if t > 0.35 else 1.0), lambda k, t, s: {"x": s},
     "diverged", [0, 3]),
    (_failing_rhs, lambda k, t, s: {"x": s}, "domain", [0, 3]),
    (lambda t, s, left: np.ones(2), _failing_hook, "domain", [0]),
], ids=["divergence-at-step-5", "rhs-domain-error-at-step-4", "hook-domain-error-at-step-3"])
def test_integrate_records_end_at_the_last_recorded_healthy_step(rhs, record, kind, steps):
    _, status, records = _integrate(rhs, np.zeros(2), 7, 0.1, 3, record)
    assert status[0] == kind
    assert records["step"].tolist() == steps
    assert {name: len(col) for name, col in records.items()} == {"step": len(steps),
                                                                 "t": len(steps),
                                                                 "x": len(steps)}


def test_log_ratio_domain_exit():
    p = LogRatio([0.5], [0.5])
    sched = Schedule("constant", 5.0, t_end=5.0)
    with pytest.raises(DomainExitError) as exc_info:
        run_param_flow(p, ZeroLoss(1), sched, IntegratorConfig("euler", 1e-2, 5.0, record_every=1))
    traj = exc_info.value.trajectory
    assert traj is not None and len(traj) > 1
    assert traj.metrics["unit_region"][0] == 0.0  # started below the unit region


def test_convergence_after_turnoff():
    p = Hadamard(np.full(3, 1.5), np.full(3, 0.2))
    loss = quad_loss(3, seed=8)
    sched = Schedule("turnoff", 1.0, turnoff_time=0.5, t_end=40.0)
    traj = run_param_flow(p, loss, sched, IntegratorConfig("rk4", 5e-3, 40.0, record_every=200))
    steps = np.linalg.norm(np.diff(traj.x, axis=0), axis=1)
    assert steps[-1] < 1e-8
    assert np.linalg.norm(loss.grad(traj.final_x)) < 1e-6


def test_quadratic_encoding_trajectory_agreement():
    # the commuting-quadratic family built from the paired (+1, -1) blocks and
    # the arcsinh family induce the same mirror trajectories
    rng = make_rng(10)
    n = 3
    m0, w0 = rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n)
    A_list = []
    for i in range(n):
        A = np.zeros((2 * n, 2 * n))
        A[i, n + i] = A[n + i, i] = 1.0
        A_list.append(A)
    from mirrorlab import QuadraticFamily
    qf = QuadraticFamily(A_list, np.eye(2 * n), np.concatenate([m0, w0]))
    hyp = HyperbolicEntropy.from_hadamard(m0, w0)
    loss = quad_loss(n, seed=11)
    sched = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=2.0)
    cfg = IntegratorConfig("rk4", 2e-3, 2.0, record_every=20)
    t_q = run_mirror_flow(qf, loss, sched, cfg)
    t_h = run_mirror_flow(hyp, loss, sched, cfg)
    assert np.max(np.abs(t_q.x - t_h.x)) < 1e-6


def test_mirror_flow_domain_exit_diff_powers():
    dp = DiffPowersFlow(2, np.array([1.0]), np.array([1.0]))
    # strong pull beyond the attainable range forces mu to the boundary
    loss = QuadraticLoss(np.eye(1) * 50.0, np.array([50.0]))
    sched = Schedule("constant", 0.0, t_end=5.0)
    with pytest.raises(DomainExitError) as exc_info:
        run_mirror_flow(dp, loss, sched, IntegratorConfig("euler", 1e-2, 5.0, record_every=1))
    assert exc_info.value.trajectory is not None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 130), cols=st.integers(1, 420),
       scale=st.floats(1e-3, 1e3))
@example(seed=0, rows=0, cols=5, scale=1.0)  # no data: the gradient is all zeros
def test_least_squares_gradient_equals_the_dense_products_exactly(seed, rows, cols, scale):
    # Z.dot(x) and r.dot(Z) run the same gemv as Z @ x and Z.T @ r
    rng = make_rng(seed)
    Z = scale * rng.standard_normal((rows, cols))
    y = rng.standard_normal(rows)
    x = rng.standard_normal(cols)
    loss = LinearRegressionLoss(Z, y)
    r = Z @ x - y
    expected = Z.T @ r / max(1, rows)
    assert np.array_equal(loss.grad(x), expected)
    value, grad = loss.value_and_grad(x)
    assert np.array_equal(grad, expected)
    assert value == loss.value(x) == float(0.5 * r @ r / max(1, rows))
