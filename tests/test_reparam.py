import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab import (DeepHadamard, DiffPowers, DiffSquares, DomainError,
                       Hadamard, InputError, LogRatio, QuadraticCommuting,
                       SymFactor, make_rng)


def all_variants(rng, n=3):
    D = n + 1
    A_list = [np.diag((np.arange(D) == i).astype(float)) for i in range(n)]
    return [
        Hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n)),
        DeepHadamard([rng.uniform(0.5, 1.5, n) for _ in range(3)]),
        DiffSquares(rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, n)),
        DiffPowers(2, rng.uniform(0.6, 1.4, n), rng.uniform(0.6, 1.4, n)),
        LogRatio(rng.uniform(0.8, 2.0, n), rng.uniform(0.8, 2.0, n)),
        QuadraticCommuting(A_list, np.eye(D), rng.uniform(0.5, 1.5, D)),
        SymFactor(rng.standard_normal((n, n))),
    ]


def sample_params(p, rng):
    lo, hi = p.sample_box
    return rng.uniform(lo, hi, p.dim_params)


def test_hadamard_eval():
    p = Hadamard([2.0, 3.0], [1.0, -1.0])
    assert p.g(p.w_init) == pytest.approx([2.0, -3.0])


def test_diff_powers_symmetry():
    p = DiffPowers(2, [1.0], [1.0])
    assert p.g(p.w_init) == pytest.approx([0.0])


def test_log_ratio_eval():
    p = LogRatio([np.e**2], [np.e])
    assert p.g(p.w_init) == pytest.approx([1.0])
    assert p.h(p.w_init) == pytest.approx(3.0)


def test_log_ratio_balanced_h():
    p = LogRatio([np.e], [np.e])
    assert p.h(p.w_init) == pytest.approx(2.0)


def test_hadamard_h_is_weight_decay():
    p = Hadamard([1.0, 1.0], [1.0, 1.0])
    assert p.h(p.w_init) == pytest.approx(2.0)


def test_diff_squares_signed_h():
    p = DiffSquares([1.0], [2.0], c_u=1.0, c_v=-1.0)
    assert p.h(p.w_init) == pytest.approx(5.0)


def test_log_ratio_domain_error():
    p = LogRatio([1.0], [1.0])
    with pytest.raises(DomainError):
        p.g(np.array([-1.0, 1.0]))
    with pytest.raises(DomainError):
        LogRatio([0.0], [1.0])


def test_hadamard_flow_rhs_chain_rule():
    p = Hadamard([1.0], [2.0])
    rhs = p.flow_rhs(p.w_init, np.array([1.0]), 0.0)
    assert rhs == pytest.approx([-2.0, -1.0])


def test_flow_rhs_stationary_at_zero_gradient():
    rng = make_rng(2)
    for p in all_variants(rng):
        w = sample_params(p, rng)
        rhs = p.flow_rhs(w, np.zeros(p.dim_model), 0.0)
        assert np.allclose(rhs, 0.0)


def test_sym_factor_rhs_convention():
    # the factored-sensing flow: -(sym(S) U + alpha U), not the full chain rule
    rng = make_rng(4)
    U = rng.standard_normal((3, 3))
    p = SymFactor(U)
    S = rng.standard_normal((3, 3))
    S = 0.5 * (S + S.T)
    alpha = 0.3
    rhs = p.flow_rhs(U.ravel(), S.ravel(), alpha).reshape(3, 3)
    assert rhs == pytest.approx(-(S @ U + alpha * U))


def test_sym_factor_rhs_symmetrizes():
    rng = make_rng(5)
    U = rng.standard_normal((3, 3))
    p = SymFactor(U)
    S = rng.standard_normal((3, 3))
    r1 = p.flow_rhs(U.ravel(), S.ravel(), 0.0)
    r2 = p.flow_rhs(U.ravel(), (0.5 * (S + S.T)).ravel(), 0.0)
    assert r1 == pytest.approx(r2)


def central_diff_jac(fn, w, eps=1e-6):
    w = np.asarray(w, dtype=float)
    cols = []
    for k in range(w.size):
        e = np.zeros_like(w)
        e[k] = eps * (1.0 + abs(w[k]))
        cols.append((np.asarray(fn(w + e)) - np.asarray(fn(w - e))) / (2.0 * e[k]))
    return np.stack(cols, axis=-1)


def test_jacobians_match_finite_differences():
    rng = make_rng(7)
    count = 0
    while count < 100:
        for p in all_variants(rng):
            w = sample_params(p, rng)
            J = p.jac_g(w)
            J_fd = central_diff_jac(p.g, w)
            scale = max(1.0, np.max(np.abs(J)))
            assert np.max(np.abs(J - J_fd)) / scale < 1e-6, p.tag
            gh = p.grad_h(w)
            gh_fd = central_diff_jac(p.h, w).ravel()
            hscale = max(1.0, np.max(np.abs(gh)))
            assert np.max(np.abs(gh - gh_fd)) / hscale < 1e-6, p.tag
            count += 1


def test_hadamard_diffsquares_rotation_factor_two():
    # u = (m+w)/sqrt2, v = (m-w)/sqrt2 turns u^2 - v^2 into exactly 2 m*w
    rng = make_rng(9)
    m, w = rng.standard_normal(4), rng.standard_normal(4)
    had = Hadamard(m, w)
    ds = DiffSquares((m + w) / np.sqrt(2.0), (m - w) / np.sqrt(2.0))
    assert ds.g(ds.w_init) == pytest.approx(2.0 * had.g(had.w_init))


def test_deep_hadamard_h_scale():
    f = [np.ones(2), 2.0 * np.ones(2), np.ones(2)]
    assert DeepHadamard(f).h(np.concatenate(f)) == pytest.approx(6.0)
    assert DeepHadamard(f, h_scale=1.0).h(np.concatenate(f)) == pytest.approx(12.0)


def test_dimension_mismatch_errors():
    p = Hadamard([1.0, 2.0], [1.0, 1.0])
    with pytest.raises(InputError):
        p.g(np.ones(3))
    with pytest.raises(InputError):
        p.flow_rhs(p.w_init, np.ones(3), 0.0)
    with pytest.raises(InputError):
        QuadraticCommuting([np.eye(2)], np.array([[0.0, 1.0], [0.0, 0.0]]), np.ones(2))
    sf = SymFactor(np.eye(3))
    with pytest.raises(InputError, match="loss gradient has length 5"):
        sf.flow_rhs(sf.w_init, np.ones(5), 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), v_scale=st.floats(1e-3, 1e3))
def test_vjp_g_equals_dense_product_exactly(seed, n, v_scale):
    # the elementwise VJPs multiply in the dense gemv's order and skip only
    # its exact-zero terms, so the two agree bit for bit
    rng = make_rng(seed)
    for p in all_variants(rng, n):
        w = sample_params(p, rng)
        v = v_scale * rng.standard_normal(p.dim_model)
        assert np.array_equal(p.vjp_g(w, v), p.jac_g(w).T @ v), p.tag


def test_flow_rhs_never_builds_the_dense_jacobian(monkeypatch):
    rng = make_rng(11)
    # Hadamard is the depth-2 product; all_variants also has a depth-3 one
    elementwise = [p for p in all_variants(rng, 4)
                   if not isinstance(p, (QuadraticCommuting, SymFactor))]
    cases = []
    for p in elementwise:
        w = sample_params(p, rng)
        grad = rng.standard_normal(p.dim_model)
        cases.append((p, w, grad, -(p.jac_g(w).T @ grad + 0.3 * p.grad_h(w))))

    def no_dense_jacobian(self, w):
        raise AssertionError("flow_rhs built the dense Jacobian")

    for p in elementwise:
        monkeypatch.setattr(type(p), "jac_g", no_dense_jacobian)
    for p, w, grad, expected in cases:
        assert np.array_equal(p.flow_rhs(w, grad, 0.3), expected), p.tag


def test_deep_hadamard_jacobian_holds_the_other_factors():
    f = [np.array([2.0, 3.0]), np.array([5.0, 7.0]), np.array([11.0, 13.0])]
    J = DeepHadamard(f).jac_g(np.concatenate(f))
    assert np.array_equal(J, [[55.0, 0.0, 22.0, 0.0, 10.0, 0.0],
                              [0.0, 91.0, 0.0, 39.0, 0.0, 21.0]])


def _in_order_product(rows):
    out = rows[0]
    for row in rows[1:]:
        out = out * row
    return out


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 5), n=st.integers(1, 8))
def test_deep_hadamard_products_keep_the_factor_order_exactly(seed, depth, n):
    # g and the rows behind jac_g/vjp_g multiply left to right in factor
    # order; any other association changes the last bits
    rng = make_rng(seed)
    factors = [rng.uniform(-3.0, 3.0, n) * 10.0 ** rng.uniform(-3, 3, n) for _ in range(depth)]
    p = DeepHadamard(factors)
    w = np.concatenate(factors)
    f = p.split(w)
    assert np.array_equal(p.g(w), np.prod(f, axis=0))
    others = p._other_factors(f)
    assert others.shape == (depth, n)
    for j in range(depth):
        expected = _in_order_product([f[i] for i in range(depth) if i != j])
        assert np.array_equal(others[j], expected), j
    v = rng.standard_normal(n)
    assert np.array_equal(p.vjp_g(w, v), np.concatenate([others[j] * v for j in range(depth)]))
    assert np.array_equal(f, np.reshape(factors, (depth, n)))  # w is left untouched


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_check_params_converts_or_rejects(seed, n):
    rng = make_rng(seed)
    for p in all_variants(rng, n):
        w = sample_params(p, rng)
        assert p._check_params(w) is w  # an exact float64 vector passes as it is
        for same in (list(w), w.reshape(1, -1), w.reshape(-1, 1), np.repeat(w, 2)[::2],
                     w.astype(">f8")):
            out = p._check_params(same)
            assert out.dtype == np.float64 and out.shape == (p.dim_params,), p.tag
            assert out.flags.c_contiguous, p.tag
            assert np.array_equal(out, w), p.tag
        assert np.array_equal(p._check_params(w.astype(int)), w.astype(int).astype(float))
        for wrong in (w[:-1], np.append(w, 1.0), np.tile(w, 2).reshape(2, -1), []):
            with pytest.raises(InputError, match="parameter vector has length"):
                p._check_params(wrong)
            with pytest.raises(InputError):
                p.flow_rhs(wrong, np.zeros(p.dim_model), 0.1)
