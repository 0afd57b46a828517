"""Bit-for-bit pins of the flow runners against loops on the dense Jacobian.

Each reference loop writes the flow's vector field as the textbook
``-(Jg(w)^T grad_f(g(w)) + alpha grad_h(w))`` with its own closed-form
schedule.  The dense Jacobian of the products is built here, block j being
the diagonal of the other factors' product in factor order, not taken from
``jac_g`` (which is derived from the VJPs under test).  A change to the VJPs,
the schedules or the stepping engine that moves any bit of a trajectory
fails here.
"""

import numpy as np
import pytest

from mirrorlab import (DeepHadamard, Hadamard, IntegratorConfig, QuadraticLoss,
                       RegressionConfig, Schedule, diagonal_network_run,
                       make_rng, run_param_flow)
from mirrorlab.experiments import make_regression_problem
from mirrorlab.flow import LinearRegressionLoss


def dense_jacobian(p, w):
    """DeepHadamard's textbook Jacobian [diag(prod_{i != j} f_i)]_j, products in factor order."""
    f = w.reshape(p.depth, p.dim_model)
    blocks = []
    for j in range(p.depth):
        others = [f[i] for i in range(p.depth) if i != j]
        prod = others[0]
        for row in others[1:]:
            prod = prod * row
        blocks.append(np.diag(prod))
    return np.hstack(blocks)


def dense_rhs(p, loss, w, alpha):
    return -(dense_jacobian(p, w).T @ loss.grad(p.g(w)) + alpha * p.grad_h(w))


@pytest.mark.parametrize("variant", ["m", "mw", "mwz"])
def test_diagonal_run_matches_dense_euler_loop(variant):
    alpha0, T, eta, steps = 0.05, 1.0, 1e-2, 200
    cfg = RegressionConfig(eta=eta, steps=steps, variant=variant, record_every=50,
                           schedule=Schedule("turnoff", alpha0, turnoff_time=T, t_end=4.0))
    report = diagonal_network_run(cfg)

    Z, y, _ = make_regression_problem(cfg)
    loss = LinearRegressionLoss(Z, y)
    if variant == "m":
        # L1Identity, the L1-penalized model itself: x = w, h = ||w||_1
        w = np.zeros(cfg.n)
        for k in range(2 * steps):
            t = k * eta
            w = w + eta * -(loss.grad(w) + (alpha0 if t < T else 0.0) * np.sign(w))
        assert report.final_params.tobytes() == w.tobytes()
        assert report.final_x.tobytes() == w.tobytes()
        return
    p = DeepHadamard([np.zeros(cfg.n)] + [np.ones(cfg.n)] * (len(variant) - 1))
    w = p.w_init
    for k in range(2 * steps):
        t = k * eta
        w = w + eta * dense_rhs(p, loss, w, alpha0 if t < T else 0.0)

    assert report.final_params.tobytes() == w.tobytes()
    assert report.final_x.tobytes() == p.g(w).tobytes()


def test_hadamard_flow_matches_dense_euler_loop():
    rng = make_rng(21)
    n, alpha0, T = 5, 0.4, 1.0
    p = Hadamard(rng.uniform(1.0, 2.0, n), rng.uniform(-0.5, 0.5, n))
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    loss = QuadraticLoss(Q @ np.diag(rng.uniform(0.5, 2.0, n)) @ Q.T, rng.standard_normal(n))
    cfg = IntegratorConfig("euler", 1e-2, 2.0, record_every=10)
    rec = run_param_flow(p, loss, Schedule("turnoff", alpha0, turnoff_time=T, t_end=2.0), cfg)

    n_steps, h = cfg.grid()
    w, states = p.w_init, [p.w_init]
    for k in range(n_steps):
        t = k * h
        w = w + h * dense_rhs(p, loss, w, alpha0 if t < T else 0.0)
        if (k + 1) % cfg.record_every == 0:
            states.append(w)

    assert rec.metrics["params"].tobytes() == np.asarray(states).tobytes()
    assert rec.metrics["x"].tobytes() == np.asarray([p.g(s) for s in states]).tobytes()
