import dataclasses
import json

import numpy as np
import pytest

from mirrorlab import (DeepHadamard, DiffPowers, DiffSquares, Hadamard,
                       InputError, LogRatio, QuadraticCommuting,
                       check_commuting, check_quadratic_commuting,
                       check_regular, check_separable_pair, lie_bracket,
                       make_rng)


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


def test_check_regular_examples():
    p = Hadamard([1.0, 1.0], [0.0, 0.0])
    assert check_regular(p, p.w_init)
    assert not check_regular(p, np.zeros(4))
    q = LogRatio([1.0], [1.0])
    assert check_regular(q, q.w_init)


def test_separable_exact_multiple():
    rng = make_rng(5)
    samples = rng.uniform(-2.0, 2.0, 30)
    rep = check_separable_pair(lambda u: u**2, lambda u: 3.0 * u**2, samples)
    assert rep.passed and rep.c_estimate == pytest.approx(3.0)


def test_separable_identity_vs_square_fails():
    samples = np.linspace(-2.0, 2.0, 25)
    rep = check_separable_pair(lambda u: u, lambda u: u**2, samples)
    assert not rep.passed


def test_separable_power_pair():
    samples = np.linspace(0.2, 2.0, 25)
    rep = check_separable_pair(lambda u: u**4, lambda u: u**4, samples)
    assert rep.passed and rep.c_estimate == pytest.approx(1.0)


def test_separable_degenerate_inconclusive():
    rep = check_separable_pair(lambda u: 0.0, lambda u: u, np.linspace(-1, 1, 5))
    assert not rep.passed and "inconclusive" in rep.status


def test_quadratic_commuting_diagonal():
    A = [np.diag([1.0, 2.0, 0.0]), np.diag([0.0, 1.0, 3.0])]
    rep = check_quadratic_commuting(A, np.eye(3))
    assert rep.passed and rep.max_commutator_fro == 0.0


def test_quadratic_identity_commutes_with_anything():
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    rep = check_quadratic_commuting([e1], np.eye(3))
    assert rep.passed


def test_quadratic_random_pair_fails():
    rng = make_rng(6)
    A = rng.standard_normal((4, 4))
    A = 0.5 * (A + A.T)
    B = rng.standard_normal((4, 4))
    B = 0.5 * (B + B.T)
    rep = check_quadratic_commuting([A], B)
    assert not rep.passed


def test_quadratic_asymmetric_rejected():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError):
        check_quadratic_commuting([M], np.eye(2))


def test_bracket_index_out_of_range():
    p = Hadamard([1.0], [1.0])
    with pytest.raises(InputError):
        lie_bracket(p, 0, 5, p.w_init)
