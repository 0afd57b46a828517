import dataclasses
import json

import numpy as np
import pytest

from mirrorlab import (DeepHadamard, DiffPowers, DiffSquares, Hadamard,
                       InputError, LogRatio, QuadraticCommuting,
                       check_commuting, lie_bracket, make_rng)
from mirrorlab.cli import _build_variant
from mirrorlab.commute import BracketReport, hessian_fd
from references import max_commutator_fro


def deep3_expected_bracket(factors, coord):
    """(4 - 2k) * prod of the other factors, on the coordinate's slots."""
    k = len(factors)
    n = factors[0].size
    out = np.zeros(k * n)
    trip = np.stack(factors)[:, coord]
    for slot in range(k):
        out[slot * n + coord] = (4 - 2 * k) * np.prod(np.delete(trip, slot))
    return out


def test_depth3_bracket_at_ones():
    p = DeepHadamard([np.ones(1)] * 3, h_scale=1.0)
    br = lie_bracket(p, 0, "h", p.w_init)
    assert br == pytest.approx([-2.0, -2.0, -2.0], abs=1e-6)


def test_depth2_bracket_zero():
    p = DeepHadamard([np.ones(2), np.ones(2)], h_scale=1.0)
    br = lie_bracket(p, 0, "h", p.w_init)
    assert np.max(np.abs(br)) < 1e-8


def test_bracket_self_is_zero():
    rng = make_rng(1)
    p = Hadamard(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 2))
    w = rng.uniform(-1.0, 1.0, p.dim_params)
    assert np.max(np.abs(lie_bracket(p, 1, 1, w))) < 1e-10


def test_bracket_antisymmetry():
    rng = make_rng(2)
    p = DiffPowers(2, rng.uniform(0.6, 1.4, 3), rng.uniform(0.6, 1.4, 3))
    for _ in range(5):
        w = rng.uniform(0.5, 2.5, p.dim_params)
        b_ij = lie_bracket(p, 0, "h", w)
        b_ji = lie_bracket(p, "h", 0, w)
        assert np.max(np.abs(b_ij + b_ji)) < 1e-6


def test_depth3_bracket_matches_closed_form():
    rng = make_rng(3)
    for _ in range(10):
        factors = [rng.uniform(0.5, 2.0, 2) for _ in range(3)]
        p = DeepHadamard(factors, h_scale=1.0)
        w = np.concatenate(factors)
        for coord in range(2):
            br = lie_bracket(p, coord, "h", w)
            expected = deep3_expected_bracket(factors, coord)
            rel = np.max(np.abs(br - expected)) / max(1.0, np.max(np.abs(expected)))
            assert rel < 1e-3


def test_depth3_bracket_halves_under_weight_decay_scale():
    # brackets are linear in h: the 1/2-scaled decay gives (2 - k) * prod
    factors = [np.full(1, 1.3), np.full(1, 0.8), np.full(1, 1.1)]
    full = lie_bracket(DeepHadamard(factors, h_scale=1.0), 0, "h", np.concatenate(factors))
    half = lie_bracket(DeepHadamard(factors), 0, "h", np.concatenate(factors))
    assert half == pytest.approx(0.5 * full, abs=1e-8)


@pytest.mark.parametrize("builder", [
    lambda rng: Hadamard(rng.uniform(1.0, 2.0, 2), rng.uniform(-0.5, 0.5, 2)),
    lambda rng: DiffSquares(rng.uniform(0.5, 1.5, 2), rng.uniform(0.5, 1.5, 2)),
    lambda rng: DiffPowers(2, rng.uniform(0.6, 1.4, 2), rng.uniform(0.6, 1.4, 2)),
    lambda rng: LogRatio(rng.uniform(0.8, 2.0, 2), rng.uniform(0.8, 2.0, 2)),
    lambda rng: QuadraticCommuting(
        [np.diag((np.arange(3) == i).astype(float)) for i in range(2)],
        np.eye(3), rng.uniform(0.5, 1.5, 3)),
])
def test_commuting_families_pass(builder):
    p = builder(make_rng(4))
    report = check_commuting(p, n_samples=50, tol=1e-4, seed=0)
    assert report.passed, (p.tag, report.max_bracket_norm)


def test_deep_hadamard_depth3_fails_commuting():
    p = DeepHadamard([np.ones(2)] * 3)
    report = check_commuting(p, n_samples=10, tol=1e-4, seed=0)
    assert not report.passed
    assert report.max_bracket_norm > 0.1
    parsed = json.loads(json.dumps(dataclasses.asdict(report)))
    assert parsed["variant"] == "deep-hadamard"
    assert parsed["passed"] is False


def test_quadratic_commuting_diagonal():
    A = [np.diag([1.0, 2.0, 0.0]), np.diag([0.0, 1.0, 3.0])]
    assert max_commutator_fro(A, np.eye(3)) == 0.0


def test_quadratic_identity_commutes_with_anything():
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    assert max_commutator_fro([e1], np.eye(3)) == 0.0


def test_quadratic_random_pair_fails():
    rng = make_rng(6)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((4, 4))
    B = 0.5 * (B + B.T)
    assert max_commutator_fro([A], B) > 1e-10


def test_quadratic_asymmetric_rejected():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError):
        max_commutator_fro([M], np.eye(2))


def test_bracket_index_out_of_range():
    p = Hadamard([1.0], [1.0])
    with pytest.raises(InputError):
        lie_bracket(p, 0, 5, p.w_init)


def per_pair_check(p, n_samples, tol, seed):
    """check_commuting as one lie_bracket call per pair and sample."""
    rng = make_rng(seed)
    lo, hi = p.sample_box
    indices = list(range(p.dim_model)) + ["h"]
    worst, worst_w, worst_pair = 0.0, None, ("", "")
    for _ in range(n_samples):
        w = rng.uniform(lo, hi, size=p.dim_params)
        for ai in range(len(indices)):
            for aj in range(ai + 1, len(indices)):
                norm = float(np.linalg.norm(lie_bracket(p, indices[ai], indices[aj], w)))
                if norm > worst:
                    worst, worst_w, worst_pair = norm, w.copy(), (str(indices[ai]), str(indices[aj]))
    return BracketReport(variant=p.tag, tol=tol, max_bracket_norm=worst, passed=worst <= tol,
                         n_samples=n_samples, worst_sample=[] if worst_w is None else worst_w.tolist(),
                         worst_pair=worst_pair)


@pytest.mark.parametrize("variant", ["hadamard", "deep-hadamard", "diff-squares", "diff-powers",
                                     "log-ratio", "quadratic"])
@pytest.mark.parametrize("seed", [0, 1])
def test_check_commuting_matches_the_per_pair_brackets_exactly(variant, seed):
    p = _build_variant(variant, 3, 3, seed)
    report = check_commuting(p, n_samples=3, tol=1e-4, seed=seed)
    expected = per_pair_check(p, 3, 1e-4, seed)
    assert dataclasses.asdict(report) == dataclasses.asdict(expected)
    assert type(report.max_bracket_norm) is float


@pytest.mark.parametrize("variant", ["hadamard", "deep-hadamard", "diff-powers", "quadratic"])
def test_stacked_hessian_equals_each_coordinate_hessian_exactly(variant):
    # a field with the parameter axis last gives every coordinate's Hessian,
    # each with the bits of that coordinate's own central difference
    p = _build_variant(variant, 3, 3, 4)
    w = make_rng(4).uniform(*p.sample_box, size=p.dim_params)
    H = hessian_fd(p.jac_g, w)
    assert H.shape == (p.dim_model, p.dim_params, p.dim_params)
    for i in range(p.dim_model):
        assert np.array_equal(H[i], hessian_fd(lambda v, i=i: p.jac_g(v)[i], w)), i


def test_check_commuting_differences_jac_g_once_per_parameter(monkeypatch):
    p = _build_variant("deep-hadamard", 3, 3, 0)
    calls = []
    jac_g = type(p).jac_g
    monkeypatch.setattr(type(p), "jac_g", lambda self, w: calls.append(1) or jac_g(self, w))
    check_commuting(p, n_samples=2)
    # per sample: two evaluations per parameter and one at w
    assert len(calls) == 2 * (2 * p.dim_params + 1)


def rotated_quadratic(rng, D, rotate_second=0.0):
    """A_i = Q diag(e_i) Q^T for i < D - 1 and B = Q Q^T, none of them diagonal.

    ``rotate_second`` turns A_1's axis towards A_0's by that angle, which
    breaks the commutation of that one pair.
    """
    Q = np.linalg.qr(rng.standard_normal((D, D)))[0]
    axes = np.eye(D)
    c, s = np.cos(rotate_second), np.sin(rotate_second)
    axes[:, 1] = c * axes[:, 1] + s * axes[:, 0]
    A_list = [np.outer(Q @ axes[:, i], Q @ axes[:, i]) for i in range(D - 1)]
    return A_list, Q @ Q.T


def test_rotated_quadratic_family_commutes():
    # Li, Wang, Lee & Arora (2022): the quadratic pair commutes exactly when
    # all of A_1..A_d, B commute, whatever their common eigenbasis
    rng = make_rng(12)
    A_list, B = rotated_quadratic(rng, 4)
    assert min(np.max(np.abs(A - np.diag(np.diag(A)))) for A in A_list) > 0.05
    assert max_commutator_fro(A_list, B) <= 1e-10
    p = QuadraticCommuting(A_list, B, rng.uniform(0.5, 1.5, 4))
    report = check_commuting(p, n_samples=20, tol=1e-4, seed=0)
    assert report.passed, report.max_bracket_norm


def test_quadratic_family_with_one_noncommuting_pair_fails():
    rng = make_rng(13)
    A_list, B = rotated_quadratic(rng, 4, rotate_second=0.5)
    assert max_commutator_fro(A_list, B) > 0.1
    p = QuadraticCommuting(A_list, B, rng.uniform(0.5, 1.5, 4))
    report = check_commuting(p, n_samples=20, tol=1e-4, seed=0)
    assert not report.passed
    assert report.worst_pair == ("0", "1")
    # the bracket of the gradient fields A_i w is the commutator [A_j, A_i] w
    w = np.array(report.worst_sample)
    A0, A1 = p.A[:2]
    closed_form = np.linalg.norm((A1 @ A0 - A0 @ A1) @ w)
    assert report.max_bracket_norm == pytest.approx(closed_form, rel=1e-6)
