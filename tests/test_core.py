import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mirrorlab import (DomainError, DomainExitError, Entropy, Hadamard, InputError,
                       IntegratorConfig, LogRatio, QuadraticLoss, RegressionConfig, Schedule,
                       SensingConfig, SparseCodingConfig, diagonal_network_run,
                       make_dictionary, make_rng, matrix_sensing_run,
                       run_mirror_flow, run_param_flow, sparse_coding_run)
from references import nuclear_frobenius_ratio

KINDS = ["constant", "turnoff", "linear-decay", "cosine-decay"]


def make_schedule(kind, alpha0=0.02, T=5.0, t_end=20.0):
    return Schedule(kind, alpha0, turnoff_time=T, t_end=t_end)


def test_alpha_constant():
    s = make_schedule("constant", alpha0=0.02)
    assert s.alpha(3.0) == 0.02


def test_alpha_turnoff_zero_after_T():
    s = Schedule("turnoff", 0.02, turnoff_time=2500 * 0.25, t_end=1250.0)
    assert s.alpha(2500 * 0.25) == 0.0
    assert s.alpha(700.0) == 0.0
    assert s.alpha(624.9) == 0.02


def test_alpha_linear_midpoint():
    s = Schedule("linear-decay", 1.0, turnoff_time=2.0, t_end=4.0)
    assert s.alpha(1.0) == pytest.approx(0.5)


def test_alpha_negative_time_rejected():
    s = make_schedule("constant")
    with pytest.raises(InputError):
        s.alpha(-1.0)
    with pytest.raises(InputError):
        s.a(-0.5)


SCHEDULE_METHODS = ["alpha", "a"]


def _bits(x):
    return np.float64(x).tobytes()


def _assert_scalar_path_matches_array_path(s, method, t):
    fn = getattr(s, method)
    scalar = fn(float(t))
    assert not isinstance(scalar, np.ndarray)
    expected = _bits(fn(np.array([t]))[0])
    assert _bits(scalar) == expected
    assert _bits(fn(np.float64(t))) == expected
    assert _bits(fn(np.array(t))) == expected
    assert _bits(fn(np.array([0.0, t, 2.0 * t]))[1]) == expected


@pytest.mark.parametrize("method", SCHEDULE_METHODS)
@pytest.mark.parametrize("kind", KINDS)
def test_scalar_path_is_bit_identical_at_edges(kind, method):
    T, t_end = 3.7, 9.1
    s = make_schedule(kind, alpha0=0.37, T=T, t_end=t_end)
    for t in (0.0, -0.0, 1.3, T, np.nextafter(T, -np.inf), np.nextafter(T, np.inf),
              t_end, np.nextafter(t_end, np.inf), 2.5 * t_end, 1e300):
        _assert_scalar_path_matches_array_path(s, method, t)


@pytest.mark.parametrize("method", SCHEDULE_METHODS)
@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, deadline=None)
@given(alpha0=st.floats(0.0, 10.0), T=st.floats(1e-3, 1e3), frac=st.floats(0.0, 3.0))
def test_scalar_path_is_bit_identical_at_random_times(kind, method, alpha0, T, frac):
    s = Schedule(kind, alpha0, turnoff_time=T, t_end=2.0 * T)
    _assert_scalar_path_matches_array_path(s, method, frac * T)


@pytest.mark.parametrize("method", SCHEDULE_METHODS)
@pytest.mark.parametrize("kind", KINDS)
def test_scalar_path_rejects_negative_time(kind, method):
    fn = getattr(make_schedule(kind), method)
    for t in (-1.0, -5e-324, np.float64(-2.0)):
        with pytest.raises(InputError):
            fn(t)


def test_a_constant():
    s = make_schedule("constant", alpha0=0.02)
    assert s.a(10.0) == pytest.approx(-0.2)


def test_a_turnoff_clamps():
    s = Schedule("turnoff", 0.02, turnoff_time=5.0, t_end=200.0)
    assert s.a(100.0) == pytest.approx(-0.1)


def test_a_cosine_total():
    # numeric quadrature oracle for the half-cosine profile
    s = Schedule("cosine-decay", 0.02, turnoff_time=5.0, t_end=20.0)
    val, _ = quad(s.alpha, 0.0, 5.0)
    assert s.a(5.0) == pytest.approx(-val, rel=1e-10)
    assert s.a(5.0) == pytest.approx(-0.05)
    assert s.a(17.0) == pytest.approx(-0.05)


@pytest.mark.parametrize("kind", KINDS)
def test_a_matches_quadrature(kind):
    rng = make_rng(3)
    for _ in range(5):
        alpha0 = rng.uniform(0.01, 2.0)
        T = rng.uniform(0.5, 6.0)
        s = Schedule(kind, alpha0, turnoff_time=T, t_end=10.0)
        t = rng.uniform(0.0, 9.0)
        # split at the kink so quad sees smooth pieces
        ref = 0.0
        for lo, hi in ((0.0, min(t, T)), (min(t, T), t)):
            if hi > lo:
                ref += quad(s.alpha, lo, hi, limit=200)[0]
        assert s.a(t) == pytest.approx(-ref, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_a_trapezoid_property(kind):
    rng = make_rng(11)
    for _ in range(3):
        alpha0 = rng.uniform(0.01, 1.0)
        T = rng.uniform(1.0, 5.0)
        s = Schedule(kind, alpha0, turnoff_time=T, t_end=8.0)
        t = rng.uniform(0.5, 8.0)
        # trapezoid per smooth piece; alpha is right-continuous, so the left
        # piece ends at the float just below min(t, T)
        ref = 0.0
        for lo, hi, end in ((0.0, min(t, T), np.nextafter(min(t, T), -np.inf)), (min(t, T), t, t)):
            if hi > lo:
                grid = np.linspace(lo, hi, 20001)
                ref -= np.trapezoid(s.alpha(np.r_[grid[:-1], end]), grid)
        assert s.a(t) == pytest.approx(ref, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("kind", KINDS)
def test_a_nonincreasing_and_alpha_nonnegative(kind):
    s = Schedule(kind, 0.7, turnoff_time=2.0, t_end=10.0)
    t = np.linspace(0.0, 10.0, 500)
    a = s.a(t)
    assert np.all(np.diff(a) <= 1e-14)
    assert a[0] == 0.0
    assert np.all(s.alpha(t) >= 0.0)
    if kind != "constant":
        assert np.all(s.alpha(t[t >= 2.0]) == 0.0)


def test_schedule_validation():
    with pytest.raises(InputError):
        Schedule("warmup", 0.1)
    with pytest.raises(InputError):
        Schedule("constant", -0.1)
    with pytest.raises(InputError):
        Schedule("turnoff", 0.1, turnoff_time=0.0, t_end=1.0)
    with pytest.raises(InputError):
        Schedule("constant", 0.1, t_end=0.0)


def test_integrator_config_validation():
    with pytest.raises(InputError):
        IntegratorConfig(method="heun")
    with pytest.raises(InputError):
        IntegratorConfig(step=0.0)
    with pytest.raises(InputError):
        IntegratorConfig(step=2.0, t_end=1.0)
    with pytest.raises(InputError):
        IntegratorConfig(record_every=0)
    n, h = IntegratorConfig(step=0.3, t_end=1.0).grid()
    assert n * h == pytest.approx(1.0)


def test_integrator_config_takes_euler_or_dop853():
    # the name predates "bdf", the third method
    with pytest.raises(InputError, match=r"method must be 'euler', 'dop853' or 'bdf', got 'rk4'"):
        IntegratorConfig("rk4", 1e-2, 1.0)
    assert IntegratorConfig().method == "dop853"
    assert IntegratorConfig("bdf", 1e-2, 1.0).method == "bdf"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, name", [
    (lambda v: Schedule("constant", v), "alpha0"),
    (lambda v: Schedule("turnoff", 0.1, turnoff_time=v, t_end=1.0), "turnoff_time"),
    (lambda v: Schedule("constant", 0.1, t_end=v), "t_end"),
    (lambda v: IntegratorConfig(step=v), "step"),
    (lambda v: IntegratorConfig(t_end=v), "t_end"),
], ids=["schedule-alpha0", "schedule-turnoff-time", "schedule-t-end", "integrator-step",
        "integrator-t-end"])
def test_configs_reject_non_finite_numbers(build, name, bad):
    with pytest.raises(InputError, match=f"{name} must be finite"):
        build(bad)


def zero_loss(n):
    """The identically zero objective, which isolates the regularization drift."""
    return QuadraticLoss(np.zeros((n, n)), np.zeros(n))


def _log_ratio_domain_exit():
    # weight decay pulls LogRatio's factors to zero, out of their domain
    with pytest.raises(DomainExitError) as exc_info:
        run_param_flow(LogRatio([0.5], [0.5]), zero_loss(1), Schedule("constant", 5.0, t_end=5.0),
                       IntegratorConfig("euler", 1e-2, 5.0, record_every=1))
    return exc_info.value.record


# the five producers of a run record, and an early exit's record
RECORDS = {
    "param-flow": lambda: run_param_flow(
        Hadamard([1.5, 1.2], [0.4, -0.2]), QuadraticLoss(np.eye(2), [1.0, -0.5]),
        Schedule("turnoff", 0.5, turnoff_time=0.3, t_end=1.0),
        IntegratorConfig("dop853", 1e-2, 1.0, record_every=7)),
    "mirror-flow": lambda: run_mirror_flow(
        Entropy(np.array([1.0, 2.0])), QuadraticLoss(np.eye(2), [0.5, 1.5]),
        Schedule("linear-decay", 0.5, turnoff_time=0.6, t_end=1.0),
        IntegratorConfig("euler", 1e-2, 1.0, record_every=3)),
    "sensing": lambda: matrix_sensing_run(SensingConfig(
        n=4, r=1, m=12, steps=200, record_every=9,
        schedule=Schedule("cosine-decay", 0.05, turnoff_time=25.0, t_end=50.0))),
    "diagonal": lambda: diagonal_network_run(RegressionConfig(
        d=4, n=8, sparsity=2, steps=200, record_every=30,
        schedule=Schedule("turnoff", 1.0, turnoff_time=0.1, t_end=0.4))),
    "sparse-coding": lambda: sparse_coding_run(
        make_dictionary(5, 4, seed=1), np.ones(5), LogRatio(np.full(4, 1.5), np.full(4, 1.2)),
        Schedule("constant", 0.5, t_end=1.0), SparseCodingConfig(steps=100, record_every=6)),
    "param-flow-domain-exit": _log_ratio_domain_exit,
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_every_record_keeps_the_invariants_of_a_run(name):
    rec = RECORDS[name]()
    assert rec.diverged == (name == "param-flow-domain-exit")
    n = len(rec.times)
    assert n > 1
    assert np.all(np.diff(rec.times) > 0), "times must be strictly increasing"
    assert np.all(np.diff(rec.a) <= 1e-12), "the accumulated strength must be nonincreasing"
    columns = {"steps": rec.steps, "a": rec.a, **rec.metrics}
    if rec.eigenvalues is not None:
        columns["eigenvalues"] = rec.eigenvalues
    for column, table in columns.items():
        assert len(table) == n, column


def test_ratio_rank_one():
    rng = make_rng(0)
    u, v = rng.standard_normal(6), rng.standard_normal(4)
    assert nuclear_frobenius_ratio(np.outer(u, v)) == pytest.approx(1.0)


def test_ratio_identity():
    for n in (2, 5, 9):
        assert nuclear_frobenius_ratio(np.eye(n)) == pytest.approx(np.sqrt(n))


def test_ratio_diag34():
    assert nuclear_frobenius_ratio(np.diag([3.0, 4.0])) == pytest.approx(7.0 / 5.0)


def test_ratio_orthogonal_invariance():
    rng = make_rng(5)
    X = rng.standard_normal((7, 4))
    r0 = nuclear_frobenius_ratio(X)
    for _ in range(5):
        U = np.linalg.qr(rng.standard_normal((7, 7)))[0]
        V = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        assert nuclear_frobenius_ratio(U @ X @ V.T) == pytest.approx(r0, abs=1e-10)
    assert nuclear_frobenius_ratio(X) >= 1.0


def test_ratio_zero_matrix():
    with pytest.raises(DomainError):
        nuclear_frobenius_ratio(np.zeros((3, 3)))


def test_rng_reproducible():
    assert make_rng(42).standard_normal(4) == pytest.approx(make_rng(42).standard_normal(4))


def test_rng_takes_every_64_bit_seed_and_rejects_the_rest():
    for seed in (0, 1, 7, 2**32 + 3, 2**63 + 5, 2**64 - 1):
        assert make_rng(seed).random(3).tobytes() == np.random.default_rng(seed).random(3).tobytes()
    # a float seed is rejected, not truncated to its integer part
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(InputError, match="seed must be an integer in"):
            make_rng(seed)
