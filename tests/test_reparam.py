import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorlab import (DeepHadamard, DiffPowers, DiffSquares, DomainError,
                       Hadamard, InputError, L1Identity, LogRatio,
                       Parameterization, QuadraticCommuting, SymFactor,
                       experiments, flow, make_rng, reparam)
from mirrorlab.reparam import DifferencePair


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
        L1Identity(rng.uniform(-2.0, 2.0, n)),
    ]


def sample_params(p, rng):
    lo, hi = p.sample_box
    w = rng.uniform(lo, hi, p.dim_params)
    if isinstance(p, L1Identity):
        w += np.where(w < 0, -0.5, 0.5)  # keep |w| away from its kink at 0
    return w


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
    p = DiffSquares([1.0], [2.0])
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


def test_flow_rhs_without_decay_is_the_negated_vjp():
    # alpha = 0 forms no alpha * grad_h; the result equals the full formula
    # (up to the sign of an exact zero, which array_equal ignores)
    rng = make_rng(12)
    for p in all_variants(rng, 4):
        w = sample_params(p, rng)
        grad = rng.standard_normal(p.dim_model)
        expected = -(p.vjp_g(w, grad) + 0.0 * p.grad_h(w))
        assert np.array_equal(p.flow_rhs(w, grad, 0.0), expected), p.tag


@pytest.mark.parametrize("h_scale", [0.5, 1.0, 0.3])
def test_deep_hadamard_decay_is_two_h_scale_w(h_scale):
    # at h_scale = 0.5 the decay is 1.0 * w, which has the bits of w
    rng = make_rng(13)
    for depth in (2, 3):
        p = DeepHadamard([rng.uniform(0.5, 1.5, 5) for _ in range(depth)], h_scale=h_scale)
        w = rng.uniform(-2.0, 2.0, p.dim_params)
        grad = rng.standard_normal(p.dim_model)
        expected = -(p.jac_g(w).T @ grad + 0.3 * (2.0 * h_scale * w))
        assert np.array_equal(p.flow_rhs(w, grad, 0.3), expected)
        decay = p.grad_h(w)
        assert decay is not w and not np.shares_memory(decay, w)
        assert np.array_equal(decay, 2.0 * h_scale * w)


def test_sym_factor_rhs_convention():
    # the full chain rule of f(U U^T) + alpha h: -((S + S^T) U + alpha U),
    # so a symmetric loss gradient enters twice
    rng = make_rng(4)
    U = rng.standard_normal((3, 3))
    p = SymFactor(U)
    S = rng.standard_normal((3, 3))
    alpha = 0.3
    rhs = p.flow_rhs(U.ravel(), S.ravel(), alpha).reshape(3, 3)
    assert rhs == pytest.approx(-((S + S.T) @ U + alpha * U))


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
    with pytest.raises(InputError, match="at least one matrix"):
        QuadraticCommuting([], np.eye(2), np.ones(2))
    sf = SymFactor(np.eye(3))
    with pytest.raises(InputError, match="loss gradient has length 5"):
        sf.flow_rhs(sf.w_init, np.ones(5), 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), v_scale=st.floats(1e-3, 1e3))
def test_vjp_g_matches_central_differences_of_g(seed, n, v_scale):
    # an independent check of every VJP kernel: jac_g is derived from
    # vjp_g, so the reference is a central difference of g itself
    rng = make_rng(seed)
    for p in all_variants(rng, n):
        w = sample_params(p, rng)
        v = v_scale * rng.standard_normal(p.dim_model)
        J_fd = central_diff_jac(p.g, w)
        scale = max(1.0, np.max(np.abs(J_fd))) * np.sum(np.abs(v))
        assert np.max(np.abs(p.vjp_g(w, v) - J_fd.T @ v)) <= 1e-6 * scale, p.tag


def test_jac_g_rows_are_the_vjps_of_the_unit_vectors():
    rng = make_rng(10)
    for p in all_variants(rng, 4):
        w = sample_params(p, rng)
        J = p.jac_g(w)
        assert J.shape == (p.dim_model, p.dim_params), p.tag
        for i, e in enumerate(np.eye(p.dim_model)):
            assert np.array_equal(J[i], p.vjp_g(w, e)), (p.tag, i)
    assert Hadamard([], []).jac_g([]).shape == (0, 0)


def test_a_parameterization_is_its_four_kernels():
    # jac_g is derived from _vjp_g, and the field is the base chain rule
    classes = [c for c in vars(reparam).values()
               if isinstance(c, type) and issubclass(c, Parameterization) and c is not Parameterization]
    assert SymFactor in classes and L1Identity in classes and DifferencePair in classes
    assert [cls.__name__ for cls in classes if "jac_g" in vars(cls)] == []
    assert [cls.__name__ for cls in classes if "_flow_rhs" in vars(cls)] == []
    # a loss is likewise _grad for the field and _value_and_grad for its value
    losses = [c for module in (flow, experiments) for c in vars(module).values()
              if isinstance(c, type) and "_value_and_grad" in dir(c)]
    assert {c.__name__ for c in losses} == {"QuadraticLoss", "LinearRegressionLoss",
                                            "SensingLoss", "DictionaryLoss"}
    assert [c.__name__ for c in losses if "_value" in dir(c)] == []


def test_flow_rhs_never_builds_the_dense_jacobian(monkeypatch):
    rng = make_rng(11)
    # Hadamard is the depth-2 product; all_variants also has a depth-3 one,
    # and the difference pairs are joined by DiffPowers at k = 1, 3 and 4.
    # QuadraticCommuting forms the rows A_i w for its VJP but never calls jac_g
    variants = all_variants(rng, 4) + [
        DiffPowers(k, rng.uniform(0.6, 1.4, 4), rng.uniform(0.6, 1.4, 4)) for k in (1, 3, 4)]
    cases = []
    for p in variants:
        w = sample_params(p, rng)
        grad = rng.standard_normal(p.dim_model)
        expected = -(p.vjp_g(w, grad) + 0.3 * p.grad_h(w))
        assert np.allclose(expected, -(p.jac_g(w).T @ grad + 0.3 * p.grad_h(w))), p.tag
        cases.append((p, w, grad, expected))

    def no_dense_jacobian(self, w):
        raise AssertionError("flow_rhs built the dense Jacobian")

    monkeypatch.setattr(Parameterization, "jac_g", no_dense_jacobian)
    for p, w, grad, expected in cases:
        assert np.array_equal(p.flow_rhs(w, grad, 0.3), expected), p.tag


def random_commuting_quadratic(rng, D, d):
    """QuadraticCommuting whose A_i and B are symmetric and share eigenvectors."""
    Q = np.linalg.qr(rng.standard_normal((D, D)))[0]
    A_list = [Q @ np.diag(rng.standard_normal(D)) @ Q.T for _ in range(d)]
    B = Q @ np.diag(rng.uniform(0.1, 2.0, D)) @ Q.T
    return QuadraticCommuting([0.5 * (A + A.T) for A in A_list], 0.5 * (B + B.T),
                              rng.uniform(0.5, 1.5, D))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 8), d=st.integers(1, 8),
       w_scale=st.floats(1e-3, 1e3))
def test_quadratic_stacked_forms_equal_the_per_matrix_forms_exactly(seed, D, d, w_scale):
    # jac_g and vjp_g take every A_i w from one stacked product; each row is
    # the gemv A_i @ w
    rng = make_rng(seed)
    p = random_commuting_quadratic(rng, D, d)
    mats = [A.copy() for A in p.A]
    w = w_scale * rng.standard_normal(D)
    v = rng.standard_normal(d)
    J = np.stack([A @ w for A in mats])
    assert np.array_equal(p.jac_g(w), J)
    assert np.array_equal(p.vjp_g(w, v), J.T @ v)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), D=st.integers(1, 8), d=st.integers(1, 8),
       w_scale=st.floats(1e-3, 1e3))
def test_quadratic_g_is_one_contraction_of_the_per_row_forms(seed, D, d, w_scale):
    # g contracts the stacked rows A_i w with w / 2 in one product, which sums
    # in another order than one dot per row: each entry agrees to roundoff of
    # its terms, and jac_g and vjp_g stay the derivatives of this g
    rng = make_rng(seed)
    p = random_commuting_quadratic(rng, D, d)
    w = w_scale * rng.standard_normal(D)
    per_row = np.array([0.5 * w @ (A @ w) for A in p.A])
    terms = np.abs(p.A @ w) @ np.abs(0.5 * w)
    assert np.all(np.abs(p.g(w) - per_row) <= 1e-15 * terms)
    J_fd = central_diff_jac(p.g, w)
    scale = max(1.0, np.max(np.abs(J_fd)))
    assert np.max(np.abs(p.jac_g(w) - J_fd)) <= 1e-6 * scale
    v = rng.standard_normal(d)
    assert np.max(np.abs(p.vjp_g(w, v) - J_fd.T @ v)) <= 1e-6 * scale * np.sum(np.abs(v))


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
    f = w.reshape(depth, n)
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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), alpha=st.floats(1e-3, 10.0))
def test_kernels_return_the_bits_of_the_public_methods(seed, n, alpha):
    # the flows step on the unchecked kernels; the public methods convert a
    # loose w (a list here) and must return the kernels' bits, sign of zero
    # included, at alpha = 0 and alpha > 0
    rng = make_rng(seed)
    for p in all_variants(rng, n):
        w = sample_params(p, rng)
        v = rng.standard_normal(p.dim_model)
        loose = list(w)
        assert _same_bits(p._g(w), p.g(loose)), p.tag
        assert _same_bits(p._h(w), p.h(loose)), p.tag
        assert _same_bits(p._vjp_g(w, v), p.vjp_g(loose, v)), p.tag
        assert _same_bits(p._grad_h(w), p.grad_h(loose)), p.tag
        for a in (0.0, alpha):
            assert _same_bits(p._flow_rhs(w, v, a), p.flow_rhs(loose, list(v), a)), (p.tag, a)


def test_log_ratio_kernels_keep_the_positivity_check():
    # the kernels skip the shape check only; a nonpositive factor still raises
    p = LogRatio([1.0, 2.0], [1.0, 2.0])
    w = np.array([1.0, -1.0, 1.0, 2.0])
    v = np.ones(2)
    for kernel in (lambda: p._g(w), lambda: p._h(w), lambda: p._vjp_g(w, v),
                   lambda: p._grad_h(w), lambda: p._flow_rhs(w, v, 0.0),
                   lambda: p._flow_rhs(w, v, 0.5)):
        with pytest.raises(DomainError, match="needs u, v > 0"):
            kernel()
