import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab import (DiffPowers, DiffPowersFlow, DomainError, Entropy,
                       Hadamard, HyperbolicEntropy, InputError, LogCosh,
                       LogRatio, QuadraticCommuting, QuadraticFamily,
                       UnsupportedOperation, contracting_check, family_for,
                       make_rng)


def hyperbolic(rng, n=3):
    return HyperbolicEntropy.from_hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n))


def quadratic_family(rng, d=2, sign=1.0):
    D = d + 1
    A_list = [np.diag((np.arange(D) == i).astype(float)) for i in range(d)]
    return QuadraticFamily(A_list, sign * np.eye(D), rng.uniform(0.7, 1.5, D))


def family_cases(rng):
    """(family, a-values, interior x sampler, interior mu sampler)."""
    hyp = hyperbolic(rng)
    ent = Entropy(rng.uniform(0.5, 1.5, 3))
    lc = LogCosh(rng.uniform(0.8, 1.5, 3), rng.uniform(0.8, 1.5, 3))
    dp = DiffPowersFlow(2, rng.uniform(0.9, 1.4, 2), rng.uniform(0.9, 1.4, 2))
    qf = quadratic_family(rng)
    return [
        (hyp, [-1.5, -0.5, 0.0],
         lambda: rng.uniform(-3.0, 3.0, 3), lambda a: rng.uniform(-1.0, 1.0, 3)),
        (ent, [-1.5, -0.5, 0.0],
         lambda: rng.uniform(0.05, 3.0, 3), lambda a: rng.uniform(-1.0, 1.0, 3)),
        (lc, [-1.5, -0.5, 0.0],
         lambda: rng.uniform(-2.0, 2.0, 3), lambda a: 0.3 * rng.uniform(-1.0, 1.0, 3)),
        (dp, [-0.003, -0.001, 0.0],
         None, lambda a: _dp_interior(dp, a, rng)),
        (qf, [-1.5, -0.5, 0.0],
         lambda: rng.uniform(0.1, 2.0, 2), lambda a: rng.uniform(-0.8, 0.8, 2)),
    ]


def _dp_interior(dp, a, rng):
    spec = dp.domain(a)
    frac = rng.uniform(0.1, 0.9, dp.n)
    return spec.dual_lower + frac * spec.lengths


def test_roundtrip_dual_of_grad():
    # 200+ interior points per family across the a-grid
    rng = make_rng(0)
    for fam, a_vals, x_sampler, mu_sampler in family_cases(rng):
        for a in a_vals:
            for _ in range(70):
                mu = mu_sampler(a)
                x = fam.dual_map(a, mu)
                mu_back = fam.grad(a, x)
                assert np.max(np.abs(mu_back - mu)) < 1e-8, fam.tag
                x_back = fam.dual_map(a, mu_back)
                assert np.max(np.abs(x_back - x)) < 1e-8 * max(1.0, np.max(np.abs(x))), fam.tag


def test_grad_matches_value_finite_differences():
    rng = make_rng(1)
    for fam, a_vals, x_sampler, _ in family_cases(rng):
        if x_sampler is None:
            continue  # no closed-form potential
        for a in a_vals:
            for _ in range(6):
                x = x_sampler()
                g = fam.grad(a, x)
                for k in range(fam.n):
                    e = np.zeros(fam.n)
                    e[k] = 1e-6 * (1.0 + abs(x[k]))
                    fd = (fam.value(a, x + e) - fam.value(a, x - e)) / (2.0 * e[k])
                    assert abs(g[k] - fd) / max(1.0, abs(g[k])) < 1e-6, fam.tag


def test_monotone_gradient():
    rng = make_rng(2)
    for fam, a_vals, x_sampler, _ in family_cases(rng):
        if x_sampler is None:
            continue
        for a in a_vals:
            for _ in range(10):
                x, y = x_sampler(), x_sampler()
                if np.allclose(x, y):
                    continue
                gap = (fam.grad(a, x) - fam.grad(a, y)) @ (x - y)
                assert gap > 0.0, fam.tag


def test_initialization_consistency():
    # dual_map(0, 0) reproduces the initialization; grad vanishes there
    rng = make_rng(3)
    m0, w0 = rng.uniform(1.0, 2.0, 3), rng.uniform(-0.5, 0.5, 3)
    fam = HyperbolicEntropy.from_hadamard(m0, w0)
    assert fam.dual_map(0.0, np.zeros(3)) == pytest.approx(m0 * w0)
    assert fam.grad(0.0, m0 * w0) == pytest.approx(np.zeros(3), abs=1e-12)

    x0 = rng.uniform(0.5, 1.5, 3)
    ent = Entropy(x0)
    assert ent.dual_map(0.0, np.zeros(3)) == pytest.approx(x0)

    u0, v0 = rng.uniform(0.8, 1.5, 3), rng.uniform(0.8, 1.5, 3)
    lc = LogCosh(u0, v0)
    assert lc.dual_map(0.0, np.zeros(3)) == pytest.approx(np.log(u0) - np.log(v0))

    dp = DiffPowersFlow(3, u0, v0)
    assert dp.dual_map(0.0, np.zeros(3)) == pytest.approx(u0**6 - v0**6)


def test_hyperbolic_value_at_zero():
    rng = make_rng(4)
    fam = hyperbolic(rng)
    for a in (-1.0, -0.2, 0.0):
        expected = -0.25 * np.sum(fam.prefactor(a))
        assert fam.value(a, np.zeros(3)) == pytest.approx(expected)


def test_hyperbolic_argmin_scales():
    rng = make_rng(5)
    fam = hyperbolic(rng)
    base = fam.argmin_position(0.0)
    for a in (-2.0, -1.0, -0.3):
        assert fam.argmin_position(a) == pytest.approx(np.exp(2 * a) * base)
        assert fam.grad(a, fam.argmin_position(a)) == pytest.approx(np.zeros(3), abs=1e-12)


def test_entropy_value_and_grad():
    ent = Entropy(np.ones(1))
    # conjugate normalization: half of the plain x log x form
    assert ent.value(0.0, np.ones(1)) == pytest.approx(-0.5)
    assert ent.grad(0.0, np.full(1, 2.0)) == pytest.approx([0.5 * np.log(2.0)])
    assert ent.grad(-0.25, ent.scale(-0.25)) == pytest.approx([0.0], abs=1e-14)
    with pytest.raises(DomainError):
        ent.value(0.0, np.zeros(1))
    with pytest.raises(DomainError):
        ent.grad(0.0, np.array([-1.0]))
    with pytest.raises(DomainError):
        ent.value(0.5, np.ones(1))  # a outside validity


def test_entropy_argmin_positional_bias():
    x0 = np.array([1.0])
    ent = Entropy(x0)
    assert ent.argmin_position(-0.5 * np.log(2.0)) == pytest.approx([0.5])
    grid = np.linspace(-3.0, 0.0, 40)
    norms = [np.linalg.norm(ent.argmin_position(a)) for a in grid]
    assert np.all(np.diff(norms) > 0)  # shrinks toward zero as a decreases


def test_hyperbolic_argmin_positional_bias_monotone():
    fam = HyperbolicEntropy.from_hadamard(np.array([1.5, 1.2]), np.array([0.4, -0.3]))
    grid = np.linspace(-3.0, 0.0, 50)
    norms = [np.linalg.norm(fam.argmin_position(a)) for a in grid]
    assert np.all(np.diff(norms) > 0)


def test_bregman_divergence_properties():
    rng = make_rng(6)
    for fam, a_vals, x_sampler, _ in family_cases(rng):
        if x_sampler is None:
            continue
        a = a_vals[0]
        x = x_sampler()
        assert fam.bregman_divergence(a, x, x) == pytest.approx(0.0, abs=1e-10)
        for _ in range(20):
            x, y = x_sampler(), x_sampler()
            if np.allclose(x, y):
                continue
            assert fam.bregman_divergence(a, x, y) > 0.0, fam.tag


def test_bregman_entropy_value():
    ent = Entropy(np.ones(1))
    # half of the unscaled KL-type value 2 log 2 - 1
    expected = np.log(2.0) - 0.5
    assert ent.bregman_divergence(0.0, np.array([2.0]), np.array([1.0])) == pytest.approx(expected)


def test_logcosh_balanced_value_and_argmin():
    beta = 1.2
    lc = LogCosh(np.full(3, beta), np.full(3, beta))
    x = np.array([0.3, -0.7, 1.4])
    for a in (-1.0, -0.2, 0.0):
        expected = 0.5 * (beta**2 - 2.0 * a) * np.sum(np.log(2.0 * np.cosh(x)))
        assert lc.value(a, x) == pytest.approx(expected)
        assert lc.argmin_position(a) == pytest.approx(np.zeros(3), abs=1e-14)
        assert lc.grad(a, np.zeros(3)) == pytest.approx(np.zeros(3), abs=1e-14)


def test_logcosh_argmin_closed_form():
    rng = make_rng(7)
    u0, v0 = rng.uniform(0.8, 1.6, 4), rng.uniform(0.8, 1.6, 4)
    lc = LogCosh(u0, v0)
    for a in (-2.0, -0.7, 0.0):
        expected = np.log(np.sqrt(u0**2 - 2 * a)) - np.log(np.sqrt(v0**2 - 2 * a))
        assert lc.argmin_position(a) == pytest.approx(expected, abs=1e-10)


def test_logcosh_validity_interval():
    lc = LogCosh(np.array([1.0]), np.array([2.0]))
    assert lc.a_upper() == pytest.approx(0.5)
    with pytest.raises(DomainError):
        lc.value(0.5, np.zeros(1))
    assert np.isfinite(lc.value(0.49, np.zeros(1)))


def test_diff_powers_flow_value_unsupported():
    dp = DiffPowersFlow(2, np.ones(1), np.ones(1))
    with pytest.raises(UnsupportedOperation):
        dp.value(0.0, np.zeros(1))


def test_diff_powers_domain_shrinks_two_delta():
    rng = make_rng(8)
    dp = DiffPowersFlow(2, rng.uniform(0.9, 1.3, 3), rng.uniform(0.9, 1.3, 3))
    lengths0 = dp.domain(0.0).lengths
    for delta in (0.001, 0.002):
        lengths = dp.domain(-delta).lengths
        assert lengths == pytest.approx(lengths0 - 2.0 * delta, abs=1e-14)
    # a = 0 attains the widest interval
    assert np.all(dp.domain(-0.001).lengths < lengths0)


def test_diff_powers_boundary_divergence():
    dp = DiffPowersFlow(2, np.array([1.0]), np.array([1.0]))
    spec = dp.domain(0.0)
    near = spec.dual_upper - 1e-9 * spec.lengths
    assert np.abs(dp.dual_map(0.0, near))[0] > 1e6
    with pytest.raises(DomainError):
        dp.dual_map(0.0, spec.dual_upper + 1e-12)
    with pytest.raises(DomainError):
        dp.dual_map(-2.0 * float(np.min(np.minimum(dp.c_u, dp.c_v))), np.zeros(1))


def test_entropy_primal_domain_independent_of_a():
    ent = Entropy(np.ones(2))
    for a in (-2.0, 0.0):
        spec = ent.domain(a)
        assert "x > 0" in spec.primal
        assert np.all(np.isinf(spec.lengths))


def test_quadratic_family_matches_hyperbolic():
    # A_i with paired (+1, -1) eigenvalues and B = I encode the elementwise
    # product; the induced dual map must agree with the arcsinh family exactly
    rng = make_rng(9)
    n = 3
    m0, w0 = rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n)
    A_list = []
    for i in range(n):
        A = np.zeros((2 * n, 2 * n))
        A[i, n + i] = A[n + i, i] = 1.0
        A_list.append(A)
    qf = QuadraticFamily(A_list, np.eye(2 * n), np.concatenate([m0, w0]))
    hyp = HyperbolicEntropy.from_hadamard(m0, w0)
    assert qf.dual_map(-0.7, np.zeros(n)) == pytest.approx(np.exp(-1.4) * m0 * w0)
    for a in (-1.0, -0.3, 0.0):
        for _ in range(10):
            mu = rng.uniform(-1.0, 1.0, n)
            assert qf.dual_map(a, mu) == pytest.approx(hyp.dual_map(a, mu), abs=1e-10)


def test_quadratic_family_rejects_non_commuting():
    rng = make_rng(10)
    A = rng.standard_normal((3, 3))
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((3, 3))
    B = 0.5 * (B + B.T)
    with pytest.raises(InputError):
        QuadraticFamily([A], B, np.ones(3))


def test_contracting_families():
    rng = make_rng(11)
    a_grid = np.linspace(-1.0, 0.0, 20)
    hyp = hyperbolic(rng)
    rep = contracting_check(hyp, a_grid, [rng.uniform(-2, 2, 3) for _ in range(20)])
    assert rep.passed and rep.max_positive_slope == 0.0
    ent = Entropy(rng.uniform(0.5, 1.5, 3))
    rep = contracting_check(ent, a_grid, [rng.uniform(0.05, 2, 3) for _ in range(20)])
    assert rep.passed
    bad = quadratic_family(rng, sign=-1.0)
    rep = contracting_check(bad, a_grid, [rng.uniform(0.1, 2, 2) for _ in range(20)])
    assert not rep.passed and rep.max_positive_slope > 1e-3


def test_contracting_check_input_validation():
    rng = make_rng(12)
    fam = Entropy(np.ones(2))
    with pytest.raises(InputError):
        contracting_check(fam, np.array([0.0]), [np.ones(2)])
    with pytest.raises(InputError):
        contracting_check(fam, np.array([0.0, -1.0]), [np.ones(2)])


def test_family_for_dispatch():
    rng = make_rng(13)
    m0 = rng.uniform(0.8, 1.2, 2)
    assert family_for(Hadamard(m0, m0)).tag == "entropy"
    assert family_for(Hadamard(m0, 0.5 * m0)).tag == "hyperbolic-entropy"
    assert family_for(DiffPowers(2, m0, m0)).tag == "diff-powers-flow"
    assert family_for(LogRatio(m0, m0)).tag == "log-cosh"
    p = QuadraticCommuting([np.eye(2)], np.eye(2), np.ones(2))
    assert family_for(p).tag == "quadratic"


def test_hessians_positive_definite():
    rng = make_rng(15)
    for fam, a_vals, x_sampler, mu_sampler in family_cases(rng):
        for a in a_vals:
            x = fam.dual_map(a, mu_sampler(a)) if x_sampler is None else x_sampler()
            H = fam.hess(a, x)
            eigs = np.linalg.eigvalsh(0.5 * (H + H.T))
            assert np.all(eigs > 0), fam.tag
            # consistency: hess is the inverse of the dual Jacobian at grad(x)
            J = fam.dual_jacobian(a, fam.grad(a, x))
            assert H @ J == pytest.approx(np.eye(fam.n), abs=1e-7)


def test_a_validity_enforced():
    rng = make_rng(14)
    fam = hyperbolic(rng)
    with pytest.raises(DomainError):
        fam.grad(0.5, np.zeros(3))
    ent = Entropy(np.ones(3))
    with pytest.raises(DomainError):
        ent.dual_map(1.0, np.zeros(3))


# -- the Legendre contract on random inputs ----------------------------------

CONTRACT_FAMILIES = ("hyperbolic-entropy", "entropy", "log-cosh", "diff-powers-flow", "quadratic")


def contract_case(tag, rng):
    """(family, closed range of valid a, sampler of primal points x)."""
    if tag == "hyperbolic-entropy":
        return hyperbolic(rng), (-3.0, 0.0), lambda: rng.uniform(-5.0, 5.0, 3)
    if tag == "entropy":
        return Entropy(rng.uniform(0.5, 1.5, 3)), (-3.0, 0.0), lambda: rng.uniform(1e-3, 10.0, 3)
    if tag == "log-cosh":
        lc = LogCosh(rng.uniform(0.8, 1.5, 3), rng.uniform(0.8, 1.5, 3))
        # valid for a < a_upper; the map's range is all of R^n
        return lc, (-3.0, lc.a_upper() - 1e-3), lambda: rng.uniform(-4.0, 4.0, 3)
    if tag == "diff-powers-flow":
        dp = DiffPowersFlow(int(rng.integers(2, 4)), rng.uniform(0.9, 1.4, 2),
                            rng.uniform(0.9, 1.4, 2))
        # valid while c_u + a and c_v + a stay positive; keep a tenth of the
        # narrowest dual interval so the numeric inverse stays well posed
        a_min = -0.9 * float(np.min(np.minimum(dp.c_u, dp.c_v)))
        return dp, (a_min, 0.0), lambda: rng.uniform(-3.0, 3.0, 2)
    # commuting quadratics in a random joint eigenbasis; x lives in the open
    # positive orthant, the range of the dual map
    D = 3
    Q = np.linalg.qr(rng.standard_normal((D, D)))[0]
    A_list = [Q @ np.diag((np.arange(D) == i).astype(float)) @ Q.T for i in range(2)]
    B = Q @ np.diag(rng.uniform(0.5, 1.5, D)) @ Q.T
    qf = QuadraticFamily(A_list, B, rng.uniform(0.7, 1.5, D))
    return qf, (-2.0, 2.0), lambda: rng.uniform(0.1, 3.0, 2)


def _contract_point(tag, seed, a_frac):
    rng = make_rng(seed)
    fam, (a_lo, a_hi), sample = contract_case(tag, rng)
    return fam, a_lo + a_frac * (a_hi - a_lo), sample


@pytest.mark.parametrize("tag", CONTRACT_FAMILIES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a_frac=st.floats(0.0, 1.0))
def test_dual_map_inverts_grad(tag, seed, a_frac):
    # tolerance relative to max(1, |x|): 1e-12 for the closed forms (worst
    # seen 6e-14); 1e-10 for the bisected Newton inverse of the diff-powers
    # flow (worst seen 1e-12); 1e-6 for the quadratic family, the residual its
    # damped Newton grad accepts (worst seen 3.8e-8)
    tol = {"diff-powers-flow": 1e-10, "quadratic": 1e-6}.get(tag, 1e-12)
    fam, a, sample = _contract_point(tag, seed, a_frac)
    for _ in range(5):
        x = sample()
        x_back = fam.dual_map(a, fam.grad(a, x))
        assert np.max(np.abs(x_back - x)) <= tol * max(1.0, np.max(np.abs(x))), (fam.tag, a, x)


@pytest.mark.parametrize("tag", CONTRACT_FAMILIES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a_frac=st.floats(0.0, 1.0))
def test_grad_is_strictly_monotone(tag, seed, a_frac):
    fam, a, sample = _contract_point(tag, seed, a_frac)
    for _ in range(5):
        x, y = sample(), sample()
        assert (fam.grad(a, x) - fam.grad(a, y)) @ (x - y) > 0.0, (fam.tag, a, x, y)


@pytest.mark.parametrize("tag", [t for t in CONTRACT_FAMILIES if t != "diff-powers-flow"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a_frac=st.floats(0.0, 1.0))
def test_bregman_divergence_is_nonnegative(tag, seed, a_frac):
    # the diff-powers flow has no closed-form value, so no divergence; the
    # tolerance is roundoff on the three terms of the divergence
    fam, a, sample = _contract_point(tag, seed, a_frac)
    for _ in range(5):
        x, y = sample(), sample()
        terms = (fam.value(a, x), fam.value(a, y), fam.grad(a, y) @ (x - y))
        tol = 1e-10 * (1.0 + sum(abs(t) for t in terms))
        assert fam.bregman_divergence(a, x, y) >= -tol, (fam.tag, a, x, y)


@pytest.mark.parametrize("family", [
    DiffPowersFlow(2, np.array([1.0, 1.3, 0.9]), np.array([1.2, 0.95, 1.1])),
    DiffPowersFlow(3, np.array([1.0, 1.3, 0.9]), np.array([1.2, 0.95, 1.1])),
    LogCosh(np.array([1.0, 1.3, 0.9]), np.array([1.2, 0.95, 1.1])),
], ids=["diff-powers-flow-k2", "diff-powers-flow-k3", "log-cosh"])
def test_dual_map_domain_is_open(family):
    # the dual domain is an open interval per coordinate: its end points and
    # NaN raise, the nearest interior floats do not
    for a in (0.0, -0.01):
        spec = family.domain(a)
        mid = 0.5 * (spec.dual_lower + spec.dual_upper)
        for i in range(family.n):
            for bad in (spec.dual_lower[i], spec.dual_upper[i], np.nan):
                mu = mid.copy()
                mu[i] = bad
                with pytest.raises(DomainError, match="outside"):
                    family.dual_map(a, mu)
            for edge, inward in ((spec.dual_lower[i], np.inf), (spec.dual_upper[i], -np.inf)):
                mu = mid.copy()
                mu[i] = np.nextafter(edge, inward)
                assert not np.any(np.isnan(family.dual_map(a, mu)))
