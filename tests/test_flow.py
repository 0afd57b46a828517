import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mirrorlab import (DeepHadamard, DiffPowers, DiffPowersFlow, DiffSquares,
                       DivergedError, DomainError, DomainExitError, Entropy, Hadamard,
                       HyperbolicEntropy, InputError, IntegratorConfig, LogCosh, LogRatio,
                       QuadraticCommuting, QuadraticFamily, QuadraticLoss, RegressionConfig,
                       Schedule, SensingConfig, SparseCodingConfig, SymFactor,
                       diagonal_network_run, make_dictionary, make_rng,
                       matrix_sensing_run, run_mirror_flow,
                       run_param_flow, sparse_coding_run, verify_equivalence)
from mirrorlab import experiments, flow, legendre, reparam
from mirrorlab.flow import DIVERGENCE_LIMIT, LinearRegressionLoss, _integrate

RNG = make_rng(0)


def zero_loss(n):
    """The identically zero objective, which isolates the regularization drift."""
    return QuadraticLoss(np.zeros((n, n)), np.zeros(n))


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
    cfg = IntegratorConfig("dop853", 1e-3, 2.0, record_every=10)
    rec = run_param_flow(p, loss, sched, cfg)
    f = rec.metrics["train_loss"]
    assert np.all(np.diff(f) <= 1e-10)


def test_pure_decay_closed_form():
    # zero loss gradient, constant alpha: w_t = w_0 exp(-alpha t) under weight decay
    p = Hadamard([1.0, 2.0], [0.5, -0.4])
    sched = Schedule("constant", 0.3, t_end=1.5)
    cfg = IntegratorConfig("dop853", 1e-3, 1.5, record_every=50)
    rec = run_param_flow(p, zero_loss(2), sched, cfg)
    expected = p.w_init[None, :] * np.exp(-0.3 * rec.times)[:, None]
    assert np.max(np.abs(rec.metrics["params"] - expected)) < 1e-10


def test_sym_factor_norm_bounded_under_decay():
    rng = make_rng(2)
    U0 = rng.standard_normal((3, 3))
    p = SymFactor(U0)
    sched = Schedule("constant", 0.5, t_end=2.0)
    cfg = IntegratorConfig("dop853", 1e-2, 2.0, record_every=1)
    rec = run_param_flow(p, zero_loss(9), sched, cfg)
    norms = np.linalg.norm(rec.metrics["params"], axis=1)
    assert np.all(norms <= norms[0] + 1e-12)
    assert norms[-1] == pytest.approx(norms[0] * np.exp(-0.5 * 2.0), rel=1e-8)


def test_mirror_flow_entropy_stays_positive_and_converges():
    ent = Entropy(np.array([0.5, 1.5]))
    target = np.array([2.0, 0.7])
    loss = QuadraticLoss(np.eye(2), target)
    sched = Schedule("turnoff", 0.4, turnoff_time=0.5, t_end=30.0)
    cfg = IntegratorConfig("dop853", 5e-3, 30.0, record_every=100)
    rec = run_mirror_flow(ent, loss, sched, cfg)
    assert np.all(rec.metrics["x"] > 0)
    assert rec.final_x == pytest.approx(target, abs=1e-6)


def test_mirror_flow_pure_drift_matches_scale():
    # no loss: mu stays 0 and x_t = x_0 exp(2 a_t)
    x0 = np.array([1.0, 2.0])
    ent = Entropy(x0)
    sched = Schedule("constant", 0.25, t_end=2.0)
    cfg = IntegratorConfig("dop853", 1e-3, 2.0, record_every=100)
    rec = run_mirror_flow(ent, zero_loss(2), sched, cfg)
    expected = x0[None, :] * np.exp(2.0 * rec.a)[:, None]
    assert np.max(np.abs(rec.metrics["x"] - expected)) < 1e-12
    hyp = HyperbolicEntropy.from_hadamard(np.array([1.5, 1.2]), np.array([0.5, -0.3]))
    rec = run_mirror_flow(hyp, zero_loss(2), sched, cfg)
    x0h = hyp.dual_map(0.0, np.zeros(2))
    assert np.max(np.abs(rec.metrics["x"] - x0h[None, :] * np.exp(2.0 * rec.a)[:, None])) < 1e-12


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
    cfg = IntegratorConfig("dop853", 1e-3, 2.0, record_every=20)
    rep = verify_equivalence(p, loss, sched, cfg)
    assert rep.passed and rep.max_deviation < 1e-8


def test_equivalence_diff_powers_classical():
    # the dual map for u^(2k) - v^(2k) matches the factor flow exactly when no
    # strength accumulates (shrinking-domain convention of the family)
    p = DiffPowers(2, np.array([1.1, 1.3]), np.array([0.9, 1.0]))
    loss = QuadraticLoss(0.5 * np.eye(2), np.array([0.6, -0.2]))
    sched = Schedule("constant", 0.0, t_end=2.0)
    cfg = IntegratorConfig("dop853", 1e-3, 2.0, record_every=20)
    rep = verify_equivalence(p, loss, sched, cfg, tol=1e-5)
    assert rep.passed


def test_equivalence_log_ratio_matches_log_cosh_only_without_strength():
    # like diff-powers, the log-cosh dual map matches the log-ratio factor
    # flow while no strength accumulates, and not under decay
    rng = make_rng(3)
    p = LogRatio(rng.uniform(1.1, 2.0, 3), rng.uniform(1.1, 2.0, 3))
    loss = QuadraticLoss(0.5 * np.eye(3), rng.uniform(-0.5, 0.5, 3))
    cfg = IntegratorConfig("dop853", 1e-3, 2.0, record_every=20)
    zero = verify_equivalence(p, loss, Schedule("constant", 0.0, t_end=2.0), cfg)
    assert zero.pair == "log-ratio/log-cosh" and zero.passed and zero.max_deviation < 1e-12
    decay = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=2.0)
    assert not verify_equivalence(p, loss, decay, cfg).passed


def test_equivalence_refuses_depth_three():
    p = DeepHadamard([np.ones(2)] * 3)
    with pytest.raises(InputError, match="do not commute"):
        verify_equivalence(p, quad_loss(2), Schedule("constant", 0.0, t_end=1.0),
                           IntegratorConfig("dop853", 1e-2, 1.0))


@pytest.mark.parametrize("p", [DiffSquares(np.ones(2), np.ones(2)), SymFactor(np.eye(2))],
                         ids=["diff-squares", "sym-factor"])
def test_equivalence_refuses_a_parameterization_without_a_family(p):
    loss = QuadraticLoss(np.eye(p.dim_model), np.zeros(p.dim_model))
    with pytest.raises(InputError, match="no default family"):
        verify_equivalence(p, loss, Schedule("constant", 0.0, t_end=1.0),
                           IntegratorConfig("dop853", 1e-2, 1.0))


# 0.6137 is not a node of the grids below, so the steps must land on it
@pytest.mark.parametrize("kind, turnoff", [("constant", 0.0), ("turnoff", 0.6137),
                                           ("linear-decay", 0.6137), ("cosine-decay", 0.6137)])
@pytest.mark.parametrize("flow_kind", ["param", "mirror"])
def test_dopri5_matches_the_closed_form_drifts(kind, turnoff, flow_kind):
    # the name is kept from the adaptive method this test was written for;
    # dop853 replaced it and is held to the same 1e-11 bound.  bdf reads its
    # rows from a fifth-order polynomial and is held to 5e-11 (worst measured
    # 1.4e-11, cosine decay)
    # zero loss: weight decay gives w_t = w_0 exp(a_t), and the mirror flow
    # x_t = x_0 exp(2 a_t)
    sched = Schedule(kind, 0.7, turnoff_time=turnoff, t_end=2.0)
    for method, bound in (("dop853", 1e-11), ("bdf", 5e-11)):
        cfg = IntegratorConfig(method, 1e-2, 2.0, record_every=7)
        if flow_kind == "param":
            p = Hadamard([1.0, 2.0], [0.5, -0.4])
            rec = run_param_flow(p, zero_loss(2), sched, cfg)
            got, expected = rec.metrics["params"], p.w_init[None, :] * np.exp(rec.a)[:, None]
        else:
            x0 = np.array([1.0, 2.0])
            rec = run_mirror_flow(Entropy(x0), zero_loss(2), sched, cfg)
            got, expected = rec.metrics["x"], x0[None, :] * np.exp(2.0 * rec.a)[:, None]
        assert rec.steps.tolist() == list(range(0, 200, 7)) + [200]
        assert np.max(np.abs(got - expected)) <= bound, method


def test_dop853_records_the_step_and_time_columns_of_the_grid():
    p = Hadamard([1.4, 1.1], [0.3, -0.5])
    loss = quad_loss(2, seed=6)
    sched = Schedule("turnoff", 0.5, turnoff_time=0.6137, t_end=1.3)
    recs = [run_param_flow(p, loss, sched, IntegratorConfig(method, 1e-2, 1.3, record_every=7))
            for method in ("euler", "dop853", "bdf")]
    n_steps, h = IntegratorConfig("dop853", 1e-2, 1.3).grid()
    grid = list(range(0, n_steps, 7)) + [n_steps]
    for rec in recs[1:]:
        assert rec.steps.tolist() == recs[0].steps.tolist() == grid
        assert rec.times.tobytes() == recs[0].times.tobytes()
        assert rec.times.tolist() == [k * h for k in rec.steps.tolist()]
        # Euler is first-order accurate
        assert np.max(np.abs(rec.metrics["x"] - recs[0].metrics["x"])) < 1e-2
    assert np.max(np.abs(recs[2].metrics["x"] - recs[1].metrics["x"])) < 1e-11


def test_dop853_lands_on_breaks_inside_the_run_and_on_its_end():
    # a break past the end, at 0 or repeated is dropped; one on the end marks it
    assert list(flow._landings(1.0, (0.25, 0.8, 0.8, 5.0, 0.0))) == [
        (0.25, True), (0.8, True), (1.0, False)]
    assert list(flow._landings(1.0, (0.5, 1.0))) == [(0.5, True), (1.0, True)]
    assert list(flow._landings(1.0, ())) == [(1.0, False)]


def test_bdf_lands_on_a_break_and_takes_a_stiff_field_in_few_evaluations():
    # y' = -A y + b before the break at 0.6137 and -A y after it, with rates
    # up to 1000: explicit steps are held to the stability limit, the NDF is not
    rates, b, t_break = np.array([1.0, 30.0, 1000.0]), np.array([1.0, 2.0, 3.0]), 0.6137
    calls = {}

    def rhs(t, y):
        calls[method].append(t)
        return -rates * y + (b if t < t_break else 0.0)

    for method in ("dop853", "bdf"):
        calls[method] = []
        items = list(flow._ADAPTIVE[method](rhs, np.ones(3), 500, 0.01, 7, (t_break,)))
        times = [t for t, _, _ in items]
        assert np.all(np.diff(times) > 0) and t_break in times and times[-1] == 5.0
        # the record rows, each yielded once and in order, are the grid's
        assert [k for _, _, k in items if k is not None] == list(range(7, 500, 7)) + [500]
        assert [t for t, _, k in items if k is not None] == [
            k * 0.01 for k in list(range(7, 500, 7)) + [500]]
        # the step onto the break evaluates its right end at the float just
        # below it, on the left piece, and the next step the field on the
        # break afresh, once
        assert float(np.nextafter(t_break, -np.inf)) in calls[method]
        assert calls[method].count(t_break) == 1
        y_break = b / rates + (1 - b / rates) * np.exp(-rates * t_break)
        for t, y, _ in items:
            exact = (b / rates + (1 - b / rates) * np.exp(-rates * t) if t <= t_break
                     else y_break * np.exp(-rates * (t - t_break)))
            assert np.max(np.abs(y - exact)) <= 1e-10, (method, t)
    assert len(calls["bdf"]) < len(calls["dop853"]) / 4  # 3819 and 18511


def test_dop853_table_has_the_order_conditions_of_its_nodes():
    # every stage, the three dense ones included, is consistent with its time
    assert np.abs(flow._A.sum(axis=1) - flow._C).max() <= 4e-15  # sums of entries up to 43
    # the weights integrate c^(k-1) exactly for k = 1..8: an eighth-order quadrature
    b, c = flow._A[12, :12], flow._C[:12]
    for k in range(1, 9):
        assert abs(b @ c ** (k - 1) - 1.0 / k) <= 1e-15
    # both error estimates vanish on a constant field
    assert np.abs(flow._E.sum(axis=1)).max() <= 1e-15


def test_dop853_dense_output_reproduces_a_polynomial_at_every_record_row():
    # y' = p'(t): the seventh-order interpolant is exact on degree 7, and a
    # 100-step grid recorded every 3rd node interpolates most rows
    coef = make_rng(3).uniform(-1.0, 1.0, 8)
    p = np.polynomial.Polynomial(coef)
    dp = p.deriv()
    _, status, records = _integrate(lambda t, s: np.array([dp(t)]), [p(0.0)], 100, 0.01, 3,
                                    lambda k, t, s: {"y": s[0]}, "dop853")
    assert status is None
    assert records["step"].tolist() == list(range(0, 100, 3)) + [100]
    assert np.max(np.abs(records["y"] - p(records["t"]))) <= 1e-14


def test_dop853_log_cosh_run_that_leaves_its_domain_ends_with_domain_status():
    # a nearly constant pull (M tiny, target huge) carries mu across the upper
    # end of the log-cosh domain at t ~ 0.465; rejected steps close in on it,
    # and Euler leaves it within one step of that
    lc = LogCosh(np.array([1.0, 1.2]), np.array([0.9, 1.1]))
    loss = QuadraticLoss(1e-6 * np.eye(2), np.array([1e6, -1e6]))
    sched = Schedule("turnoff", 0.2, turnoff_time=0.3, t_end=4.0)
    exits = []
    for method in ("euler", "dop853", "bdf"):
        with pytest.raises(DomainExitError) as exc_info:
            run_mirror_flow(lc, loss, sched, IntegratorConfig(method, 1e-2, 4.0, record_every=5))
        exits.append(exc_info.value)
    for exit in exits[1:]:
        assert exit.record.steps.tolist() == exits[0].record.steps.tolist()
        assert abs(exit.time - exits[0].time) < 1e-2


def test_bdf_log_cosh_run_stays_inside_its_domain_and_converges():
    # under Euler this flow leaves its domain at t = 0.08, and dop853 stays
    # inside at its stability limit, on 559249 field evaluations (13 s)
    lc = LogCosh([1.0, 1.2], [0.9, 1.1])
    rec = run_mirror_flow(lc, QuadraticLoss(np.eye(2), [6.0, -6.0]),
                          Schedule("turnoff", 0.2, turnoff_time=0.3, t_end=4.0),
                          IntegratorConfig("bdf", 1e-2, 4.0, record_every=5))
    assert rec.steps[-1] == 400
    assert np.max(np.abs(rec.final_x - [6.0, -6.0])) <= 1e-6


def test_bdf_matches_scipy_bdf_on_the_sensing_tail():
    # the sensing flow of `verify optimality` (seed 0) after its turn-off at
    # t = 0.5, where it is stiff; scipy's BDF at RTOL 1e-12 agrees with it to
    # 1.1e-11 on every row
    integrate = pytest.importorskip("scipy.integrate")
    rng = make_rng(0)
    lam_star = np.zeros(8)
    lam_star[rng.choice(8, 2, replace=False)] = [0.6, 0.4]
    diags = 3.0 * rng.standard_normal((4, 8))
    p = SymFactor(np.sqrt(0.1) * np.eye(8))
    loss = LinearRegressionLoss(np.stack([np.diag(row).ravel() for row in diags]),
                                diags @ lam_star)
    rec = run_param_flow(p, loss, Schedule("turnoff", 2.0, turnoff_time=0.5, t_end=150.0),
                         IntegratorConfig("bdf", 5e-3, 150.0, record_every=100))
    assert rec.times[1] == 0.5
    ref = integrate.solve_ivp(lambda t, w: p.flow_rhs(w, loss.grad(p.g(w)), 0.0), (0.5, 150.0),
                              rec.metrics["params"][1], method="BDF", rtol=1e-12, atol=1e-14,
                              t_eval=rec.times[1:])
    assert ref.success
    assert np.max(np.abs(ref.y.T - rec.metrics["params"][1:])) <= 5e-11


def test_divergence_guard():
    p = Hadamard([1.0, 1.0], [1.0, 1.0])
    unstable = QuadraticLoss(-np.eye(2), np.zeros(2))  # concave: flow blows up
    sched = Schedule("constant", 0.0, t_end=40.0)
    with pytest.raises(DivergedError) as exc_info:
        run_param_flow(p, unstable, sched, IntegratorConfig("euler", 1e-2, 40.0, record_every=10))
    err = exc_info.value
    assert err.record is not None and err.last_valid_time < 40.0


@pytest.mark.parametrize("method", ["euler", "dop853", "bdf"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 100.0 * DIVERGENCE_LIMIT])
def test_integrate_stops_on_nonfinite_or_huge_state(bad, method):
    def rhs(t, state):
        return np.array([0.0, bad if t >= 1.0 else 0.0])

    state, status, records = _integrate(rhs, np.ones(2), 10, 0.5, 1, lambda k, t, s: {}, method)
    assert not np.abs(state[1]) <= DIVERGENCE_LIMIT
    if method != "euler":
        # rejected steps close in on t = 1 down to the step floor (bdf's
        # NDF hands them back to its dop853 steps first), where a
        # non-finite stage stops the run; a huge finite field is stepped
        # across, the record row at t = 1 is read from the step that crosses
        # it, and the run runs away after
        floor = flow.STEP_FLOOR * 0.5
        last_ok = 2 if np.isfinite(bad) else 1
        assert status[0] == "diverged" and status[2] is None
        assert (1.0 < status[1] < 1.1) if np.isfinite(bad) else (1.0 - floor <= status[1] < 1.0)
    else:
        last_ok = 2
        assert status == ("diverged", 1.0, None)
    assert records["step"].tolist() == list(range(last_ok + 1))


def test_integrate_accepts_states_at_the_divergence_limit():
    def rhs(t, state):
        return np.zeros(2)

    state, status, _ = _integrate(rhs, [DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT], 3, 0.5, 1,
                                  lambda k, t, s: {})
    assert status is None
    assert state.tolist() == [DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT]


@pytest.mark.parametrize("method", ["euler", "dop853", "bdf"])
def test_integrate_accepts_many_entries_near_the_limit(method):
    # the squared norm, 10 * 0.81 * LIMIT**2, fails the one-dot bound, so the
    # exact per-entry test decides, and every entry is inside the limit
    state0 = 0.9 * DIVERGENCE_LIMIT * np.array([1.0, -1.0] * 5)
    assert not state0.dot(state0) <= 0.5 * DIVERGENCE_LIMIT ** 2
    state, status, records = _integrate(lambda t, s: np.zeros(10), state0, 3, 0.5, 1,
                                        lambda k, t, s: {}, method)
    assert status is None
    assert records["step"].tolist() == [0, 1, 2, 3]
    assert state.tolist() == state0.tolist()


@pytest.mark.parametrize("method", ["euler", "dop853", "bdf"])
def test_integrate_rejects_one_entry_just_past_the_limit(method):
    state0 = np.zeros(50)
    state0[17] = np.nextafter(DIVERGENCE_LIMIT, np.inf)
    state, status, records = _integrate(lambda t, s: np.zeros(50), state0, 3, 0.5, 1,
                                        lambda k, t, s: {}, method)
    assert status == ("diverged", 0.0, None)
    assert records["step"].tolist() == [0]
    assert state[17] == np.nextafter(DIVERGENCE_LIMIT, np.inf)


def test_integrate_records_one_column_per_hook_name():
    h = 0.1
    state, status, records = _integrate(lambda t, s: np.array([1.0, -2.0]), np.zeros(2),
                                        7, h, 3, lambda k, t, s: {"x": s})
    assert status is None
    assert sorted(records) == ["step", "t", "x"]
    assert records["step"].tolist() == [0, 3, 6, 7]
    assert records["t"].tolist() == (records["step"] * h).tolist()
    assert records["x"].shape == (4, 2)
    assert records["x"][0].tolist() == [0.0, 0.0]
    assert records["x"][-1].tolist() == state.tolist()


def _failing_rhs(t, state):
    if t > 0.25:  # from the step leaving t = 3h = 0.3, i.e. step 4
        raise DomainError("rhs left its domain")
    return np.ones(2)


def _failing_hook(k, t, state):
    if k == 3:
        raise DomainError("hook left its domain")
    return {"x": state}


@pytest.mark.parametrize("rhs, record, kind, steps", [
    # the step leaving t = 4h = 0.4 (step 5) blows up
    (lambda t, s: np.ones(2) * (np.inf if t > 0.35 else 1.0), lambda k, t, s: {"x": s},
     "diverged", [0, 3]),
    (_failing_rhs, lambda k, t, s: {"x": s}, "domain", [0, 3]),
    (lambda t, s: np.ones(2), _failing_hook, "domain", [0]),
], ids=["divergence-at-step-5", "rhs-domain-error-at-step-4", "hook-domain-error-at-step-3"])
def test_integrate_records_end_at_the_last_recorded_healthy_step(rhs, record, kind, steps):
    _, status, records = _integrate(rhs, np.zeros(2), 7, 0.1, 3, record)
    assert status[0] == kind
    assert records["step"].tolist() == steps
    assert {name: len(col) for name, col in records.items()} == {"step": len(steps),
                                                                 "t": len(steps),
                                                                 "x": len(steps)}
    # a compact copy of the filled rows, not a view into the full tables
    assert all(col.base is None for col in records.values())


def test_integrate_tables_are_int64_steps_and_float64_values():
    def record(k, t, s):
        return {"x": s, "norm": float(s.dot(s)), "first": s[0], "flag": 1.0}

    _, status, records = _integrate(lambda t, s: -s, np.ones(3), 7, 0.1, 3, record, "dop853")
    assert status is None
    assert records["step"].dtype == np.int64 and records["step"].tolist() == [0, 3, 6, 7]
    assert {name: (col.dtype, col.shape) for name, col in records.items() if name != "step"} == {
        "t": (np.float64, (4,)), "x": (np.float64, (4, 3)), "norm": (np.float64, (4,)),
        "first": (np.float64, (4,)), "flag": (np.float64, (4,))}
    # a finished run returns its full tables, which own their data
    assert all(col.base is None for col in records.values())


def test_integrate_hook_raising_at_step_0_returns_empty_step_and_time():
    def record(k, t, s):
        raise DomainError("hook left its domain")

    _, status, records = _integrate(lambda t, s: s, np.ones(2), 5, 0.1, 1, record)
    assert status[0] == "domain" and status[1] == 0.0
    assert sorted(records) == ["step", "t"]
    assert records["step"].dtype == np.int64 and records["step"].shape == (0,)
    assert records["t"].dtype == np.float64 and records["t"].shape == (0,)


@pytest.mark.parametrize("later", [{"x": 0.0, "y": 1.0}, {"y": 1.0}, {}],
                         ids=["new-name", "renamed", "missing"])
def test_integrate_rejects_a_row_whose_names_differ_from_the_first(later):
    def record(k, t, s):
        return {"x": 0.0} if k == 0 else later

    with pytest.raises(ValueError, match=r"record at step 1 returned .*expected .*\['x'\]"):
        _integrate(lambda t, s: s, np.ones(2), 3, 0.1, 1, record)


@pytest.mark.parametrize("later", [7.0, np.ones(3), np.ones((2, 1))],
                         ids=["scalar", "longer", "column"])
def test_integrate_rejects_an_array_value_whose_shape_differs_from_the_first(later):
    # a scalar would broadcast into the array row and fill it with 7s
    def record(k, t, s):
        return {"x": s, "norm": 1.0} if k == 0 else {"x": later, "norm": 1.0}

    with pytest.raises(ValueError, match=r"record at step 1 returned 'x' of shape .*expected \(2,\)"):
        _integrate(lambda t, s: s, np.ones(2), 3, 0.1, 1, record)


@pytest.mark.parametrize("snapshots", sorted({1, 63, 64, 65, 129, flow.RECORD_BLOCK - 1,
                                              flow.RECORD_BLOCK, flow.RECORD_BLOCK + 1,
                                              2 * flow.RECORD_BLOCK + 1}))
@pytest.mark.parametrize("with_finish", [False, True], ids=["rows", "finish"])
def test_integrate_writes_every_snapshot_across_blocks(snapshots, with_finish):
    # one snapshot per step: x_k = (k, -k), so every row says which step it holds
    blocks = []

    def finish(steps, times, block):
        blocks.append(len(steps))
        assert steps.dtype == np.int64 and times.dtype == np.float64
        assert block["x"].shape == (len(steps), 2) and block["k"].shape == (len(steps),)
        return {"x": block["x"], "k": block["k"], "x0_plus_k": block["x"][:, 0] + block["k"]}

    state, status, records = _integrate(lambda t, s: np.array([1.0, -1.0]), np.zeros(2),
                                        snapshots - 1, 1.0, 1,
                                        lambda k, t, s: {"x": s, "k": float(k)},
                                        finish=finish if with_finish else None)
    steps = list(range(snapshots))
    assert status is None
    assert records["step"].tolist() == steps and records["t"].tolist() == steps
    assert records["x"].tolist() == [[k, -k] for k in steps]
    assert records["k"].tolist() == steps
    assert all(col.base is None and len(col) == snapshots for col in records.values())
    if with_finish:
        assert records["x0_plus_k"].tolist() == [2 * k for k in steps]
        full, rest = divmod(snapshots, flow.RECORD_BLOCK)
        assert blocks == [flow.RECORD_BLOCK] * full + ([rest] if rest else [])


# both exits fall in the middle of the second block
_MID_BLOCK = flow.RECORD_BLOCK + flow.RECORD_BLOCK // 2


def _blows_up_mid_block(t, state):
    return np.array([np.inf if t >= _MID_BLOCK - 1 else 1.0])


def _hook_fails_mid_block(k, t, state):
    if k == _MID_BLOCK:
        raise DomainError("hook left its domain")
    return {"x": state}


@pytest.mark.parametrize("rhs, record, kind, snapshots", [
    (_blows_up_mid_block, lambda k, t, s: {"x": s}, "diverged", _MID_BLOCK),
    (lambda t, s: np.ones(1), _hook_fails_mid_block, "domain", _MID_BLOCK),
], ids=["divergence-mid-block", "hook-domain-error-mid-block"])
@pytest.mark.parametrize("with_finish", [False, True], ids=["rows", "finish"])
def test_integrate_flushes_a_partial_block_on_an_early_exit(rhs, record, kind, snapshots,
                                                            with_finish):
    def finish(steps, times, block):
        return {"x": block["x"], "twice": 2.0 * block["x"][:, 0]}

    _, status, records = _integrate(rhs, np.zeros(1), 100, 1.0, 1, record,
                                    finish=finish if with_finish else None)
    assert status[0] == kind
    assert records["step"].tolist() == list(range(snapshots))
    assert records["x"][:, 0].tolist() == list(range(snapshots))
    if with_finish:
        assert records["twice"].tolist() == [2.0 * k for k in range(snapshots)]
    # the rows of both blocks, in a compact copy that owns its data
    assert all(col.base is None and len(col) == snapshots for col in records.values())


@pytest.mark.parametrize("n_steps", [10, 100], ids=["last-block", "full-block"])
def test_integrate_rejects_a_finisher_column_of_the_wrong_length(n_steps):
    def finish(steps, times, block):
        return {"x": block["x"], "short": block["x"][1:, 0]}

    with pytest.raises(ValueError, match=r"record column 'short' has \d+ rows for a block of "
                                         r"\d+ snapshots"):
        _integrate(lambda t, s: s, np.ones(2), n_steps, 0.1, 1, lambda k, t, s: {"x": s},
                   finish=finish)


@pytest.mark.parametrize("bad_step", [5, flow.RECORD_BLOCK + 6], ids=["first-block",
                                                                    "second-block"])
@pytest.mark.parametrize("with_finish", [False, True], ids=["rows", "finish"])
def test_integrate_names_the_step_of_a_shape_change_in_a_block(bad_step, with_finish):
    def record(k, t, s):
        return {"x": np.ones(3) if k == bad_step else s, "norm": 1.0}

    with pytest.raises(ValueError, match=rf"record at step {bad_step} returned 'x' of shape "
                                         r"\(3,\), expected \(2,\)"):
        _integrate(lambda t, s: s, np.ones(2), 100, 0.01, 1, record,
                   finish=(lambda steps, times, block: block) if with_finish else None)


def test_a_recorded_run_peaks_near_the_size_of_its_record():
    # 20001 snapshots of 88 B each: one float64 table per name, no per-snapshot
    # Python objects and no stacking copy at the end
    n_steps = 20000
    tracemalloc.start()
    try:
        _, status, records = _integrate(lambda t, s: -s, np.ones(8), n_steps, 1e-4, 1,
                                        lambda k, t, s: {"x": s, "norm": float(s.dot(s))})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status is None and len(records["step"]) == n_steps + 1
    kept = sum(col.nbytes for col in records.values())
    assert peak <= 1.3 * kept, (peak, kept)


@pytest.mark.parametrize("method", ["dop853", "bdf"])
def test_adaptive_threshold_time_is_a_state_the_run_takes(method, monkeypatch):
    # the field is evaluated on stages, rejected steps and Jacobian probes as
    # well; the threshold time must be the first state the run takes (an
    # accepted step or a record row) whose loss is at most the threshold
    seen = []
    integrate = flow._integrate

    def spy(rhs, state0, n_steps, h, record_every, record, *args, **kwargs):
        def spied(k, t, w):
            seen.append((t, w))
            return record(k, t, w)
        return integrate(rhs, state0, n_steps, h, record_every, spied, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate", spy)
    cfg = SensingConfig(n=6, r=2, m=30, seed=0)
    _, A, y, U = experiments.make_sensing_problem(cfg)
    loss = experiments.SensingLoss(A, y)
    sched = Schedule("turnoff", 0.02, turnoff_time=25.0, t_end=50.0)
    p = SymFactor(U)
    _, status, _, events = flow._param_flow(p, loss, sched, 200, 0.25, 1, method,
                                            lambda steps, times, block: block, threshold=1e-4)
    assert status is None
    first = next(t for t, w in seen if loss.value(p.g(w)) <= 1e-4)
    assert events["threshold_time"] == first
    assert len(seen) > 201  # the accepted steps besides the 201 record rows


def test_log_ratio_domain_exit():
    p = LogRatio([0.5], [0.5])
    sched = Schedule("constant", 5.0, t_end=5.0)
    with pytest.raises(DomainExitError) as exc_info:
        run_param_flow(p, zero_loss(1), sched, IntegratorConfig("euler", 1e-2, 5.0, record_every=1))
    rec = exc_info.value.record
    assert rec is not None and len(rec.times) > 1
    assert rec.metrics["unit_region"][0] == 0.0  # started below the unit region


def test_convergence_after_turnoff():
    p = Hadamard(np.full(3, 1.5), np.full(3, 0.2))
    loss = quad_loss(3, seed=8)
    sched = Schedule("turnoff", 1.0, turnoff_time=0.5, t_end=40.0)
    cfg = IntegratorConfig("dop853", 5e-3, 40.0, record_every=200)
    rec = run_param_flow(p, loss, sched, cfg)
    steps = np.linalg.norm(np.diff(rec.metrics["x"], axis=0), axis=1)
    assert steps[-1] < 1e-8
    assert np.linalg.norm(loss.grad(rec.final_x)) < 1e-6


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
    cfg = IntegratorConfig("dop853", 2e-3, 2.0, record_every=20)
    rec_q = run_mirror_flow(qf, loss, sched, cfg)
    rec_h = run_mirror_flow(hyp, loss, sched, cfg)
    assert np.max(np.abs(rec_q.metrics["x"] - rec_h.metrics["x"])) < 1e-6


def test_mirror_flow_domain_exit_diff_powers():
    dp = DiffPowersFlow(2, np.array([1.0]), np.array([1.0]))
    # strong pull beyond the attainable range forces mu to the boundary
    loss = QuadraticLoss(np.eye(1) * 50.0, np.array([50.0]))
    sched = Schedule("constant", 0.0, t_end=5.0)
    with pytest.raises(DomainExitError) as exc_info:
        run_mirror_flow(dp, loss, sched, IntegratorConfig("euler", 1e-2, 5.0, record_every=1))
    assert exc_info.value.record is not None


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
    value, grad = loss._value_and_grad(x)
    assert np.array_equal(grad, expected)
    assert value == loss.value(x) == float(0.5 * r @ r / max(1, rows))


@pytest.mark.parametrize("loss", [
    LinearRegressionLoss(np.ones((4, 3)), np.zeros(4)),
    QuadraticLoss(np.eye(3), np.zeros(3)),
    zero_loss(3),
], ids=["least-squares", "quadratic", "zero"])
@pytest.mark.parametrize("x", [np.ones(2), np.ones(4), np.ones((2, 3)), [1.0]])
def test_losses_reject_a_wrong_length_model_vector(loss, x):
    for method in ["value", "grad"]:
        with pytest.raises(InputError, match="model vector x has length"):
            getattr(loss, method)(x)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 12), cols=st.integers(1, 12))
def test_loss_kernels_return_the_bits_of_the_public_methods(seed, rows, cols):
    # the flows step and record on _value, _grad and _value_and_grad; the
    # public methods convert a loose x (a list here) and return the kernels' bits
    rng = make_rng(seed)
    x = rng.standard_normal(cols)
    M = rng.standard_normal((cols, cols))
    least_squares = LinearRegressionLoss(rng.standard_normal((rows, cols)),
                                         rng.standard_normal(rows))
    for loss in (least_squares, QuadraticLoss(M @ M.T, rng.standard_normal(cols)), zero_loss(cols)):
        expected = loss._grad(x)
        got = loss.grad(list(x))
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert np.float64(loss.value(list(x))).tobytes() == np.float64(loss._value(x)).tobytes()
        # the parameter flow caches its gradient from _value_and_grad, for any loss
        k_value, k_grad = loss._value_and_grad(x)
        assert np.float64(k_value).tobytes() == np.float64(loss._value(x)).tobytes()
        assert k_grad.dtype == expected.dtype and k_grad.tobytes() == expected.tobytes()


@pytest.mark.parametrize("loss_class, args, match", [
    (QuadraticLoss, (np.ones((3, 2)), np.zeros(2)), r"M has shape \(3, 2\), expected .* 2"),
    (QuadraticLoss, (np.eye(3), np.zeros(2)), r"M has shape \(3, 3\), expected .* 2"),
    (QuadraticLoss, (np.ones(2), np.zeros(2)), r"M has shape \(2,\), expected .* 2"),
    (LinearRegressionLoss, (np.ones(3), np.ones(1)), "Z has 1 dimensions, expected a 2-D"),
    (LinearRegressionLoss, (np.ones((3, 2)), np.ones(4)), r"y has length 4, .* row of Z \(3\)"),
], ids=["quadratic-not-square", "quadratic-target", "quadratic-vector",
        "least-squares-vector", "least-squares-rows"])
def test_losses_reject_malformed_matrices_at_construction(loss_class, args, match):
    with pytest.raises(InputError, match=match):
        loss_class(*args)


class _LongGradientLoss:
    """A loss with one gradient entry too many for a two-coordinate model."""

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros(3)

    _value, _grad = value, grad


def _no_stepping(*args, **kwargs):
    raise AssertionError("the flow took a step before rejecting its inputs")


@pytest.mark.parametrize("loss, match", [
    (QuadraticLoss(np.eye(3), np.zeros(3)), "model vector x has length 2, expected 3"),
    (zero_loss(3), "model vector x has length 2, expected 3"),
    # a zero_loss(1) mirror flow used to broadcast against two dual coordinates
    (zero_loss(1), "model vector x has length 2, expected 1"),
    # a loss whose gradient does not have one entry per model coordinate
    (_LongGradientLoss(), "loss gradient has length 3, expected 2"),
], ids=["quadratic", "zero-long", "zero-short", "gradient"])
@pytest.mark.parametrize("flow_kind", ["param", "mirror"])
def test_a_loss_that_does_not_fit_raises_before_the_first_step(monkeypatch, loss, match,
                                                               flow_kind):
    monkeypatch.setattr(flow, "_integrate", _no_stepping)
    sched = Schedule("constant", 0.1, t_end=1.0)
    cfg = IntegratorConfig("dop853", 0.1, 1.0)
    with pytest.raises(InputError, match=match):
        if flow_kind == "param":
            run_param_flow(Hadamard([1.0, 2.0], [0.5, 0.5]), loss, sched, cfg)
        else:
            run_mirror_flow(Entropy(np.ones(2)), loss, sched, cfg)


def _count_flat_vector(monkeypatch):
    """A list that grows by one at every flat_vector call the package makes."""
    calls = []
    for module in (reparam, flow, legendre, experiments):
        original = vars(module).get("flat_vector")
        if original is not None:
            monkeypatch.setattr(module, "flat_vector",
                                lambda *args, _f=original: calls.append(1) or _f(*args))
    return calls


def _param_flow(p, loss):
    def run(steps, every):
        sched = Schedule("turnoff", 0.5, turnoff_time=0.5, t_end=1.0)
        cfg = IntegratorConfig("dop853", 1.0 / steps, 1.0, record_every=every)
        return run_param_flow(p, loss, sched, cfg)
    return run


def _mirror_flow(family, loss):
    def run(steps, every):
        sched = Schedule("turnoff", 0.1, turnoff_time=0.5, t_end=1.0)
        cfg = IntegratorConfig("dop853", 1.0 / steps, 1.0, record_every=every)
        return run_mirror_flow(family, loss, sched, cfg)
    return run


def _sensing(steps, every):
    sched = Schedule("turnoff", 0.05, turnoff_time=steps * 0.25 / 2, t_end=steps * 0.25)
    return matrix_sensing_run(SensingConfig(n=4, r=1, m=12, steps=steps, schedule=sched,
                                            record_every=every))


def _diagonal(variant):
    def run(steps, every):
        # two phases of steps / 2 each
        sched = Schedule("turnoff", 1.0, turnoff_time=steps * 1e-3 / 2, t_end=steps * 1e-3)
        return diagonal_network_run(RegressionConfig(d=4, n=8, sparsity=2, steps=steps // 2,
                                                     schedule=sched, variant=variant,
                                                     record_every=every))
    return run


def _sparse_coding(p):
    def run(steps, every):
        D = make_dictionary(5, 4, seed=1)
        sched = Schedule("turnoff", 0.5, turnoff_time=0.01, t_end=1.0)
        return sparse_coding_run(D, np.ones(5), p, sched,
                                 SparseCodingConfig(steps=steps, record_every=every))
    return run


def _runs():
    rng = make_rng(21)
    n = 3
    A_list = [np.diag((np.arange(n + 1) == i).astype(float)) for i in range(n)]
    quadratic = QuadraticCommuting(A_list, np.eye(n + 1), rng.uniform(0.5, 1.5, n + 1))
    params = [Hadamard(rng.uniform(1, 2, n), rng.uniform(-0.5, 0.5, n)),
              DeepHadamard([rng.uniform(0.5, 1.5, n) for _ in range(3)]),
              DiffSquares(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)),
              DiffPowers(2, rng.uniform(0.8, 1.2, n), rng.uniform(0.8, 1.2, n)),
              LogRatio(rng.uniform(1.0, 2.0, n), rng.uniform(1.0, 2.0, n)),
              quadratic, SymFactor(0.5 * np.eye(2))]
    runs = {f"param {p.tag}": _param_flow(p, quad_loss(p.dim_model, seed=3, positive_target=True))
            for p in params}
    families = [HyperbolicEntropy.from_hadamard(rng.uniform(1, 2, n), rng.uniform(-0.5, 0.5, n)),
                Entropy(rng.uniform(0.5, 1.5, n)),
                LogCosh(rng.uniform(0.8, 1.5, n), rng.uniform(0.8, 1.5, n)),
                DiffPowersFlow(2, rng.uniform(0.9, 1.4, n), rng.uniform(0.9, 1.4, n)),
                QuadraticFamily(quadratic.A, quadratic.B, quadratic.w_init)]
    runs.update({f"mirror {f.tag}": _mirror_flow(f, zero_loss(f.n)) for f in families})
    runs["sensing"] = _sensing
    runs.update({f"diagonal {v}": _diagonal(v) for v in ("m", "mw", "mwz")})
    runs["sparse-coding log-ratio"] = _sparse_coding(LogRatio(np.full(4, 1.5), np.full(4, 1.2)))
    runs["sparse-coding diff-powers"] = _sparse_coding(DiffPowers(2, np.ones(4), np.ones(4)))
    return runs


@pytest.mark.parametrize("name", list(_runs()))
def test_runs_check_shapes_once_not_per_step(monkeypatch, name):
    # shapes are checked at the run boundary; every stage and record runs on
    # the unchecked kernels, so 500 steps with 11 records check as often as
    # 250 steps with 2
    run = _runs()[name]
    calls = _count_flat_vector(monkeypatch)
    counts = []
    for steps, every, records in ((250, 250, 2), (500, 50, 11)):
        calls.clear()
        result = run(steps, every)
        assert len(result.steps) == records and not result.diverged
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


@pytest.mark.parametrize("name", list(_runs()))
def test_every_runner_records_int64_steps_and_float64_series(name):
    # all five hooks and both flows: scalars give float64 series, arrays
    # float64 tables of one row per snapshot
    result = _runs()[name](250, 50)
    assert result.steps.dtype == np.int64 and result.steps.tolist() == list(range(0, 251, 50))
    tables = {"times": result.times, "a": result.a, **result.metrics}
    if result.eigenvalues is not None:
        tables["eigenvalues"] = result.eigenvalues
    for key, col in tables.items():
        ndim = 2 if key in ("x", "params", "mu", "eigenvalues") else 1
        assert col.dtype == np.float64 and col.ndim == ndim and len(col) == 6, key
