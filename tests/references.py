"""Textbook references the tests check the package's results against.

No program reaches them, so they live with the tests: the SVD nuclear norm
and nuclear/Frobenius ratio behind the sensing finisher's ``eigvalsh``
statistics, the pairwise commutators behind the quadratic family, and the
sensing runner's Euler loop over the full design behind its least-squares
loss, which keeps each distinct column once.
"""

import numpy as np

from mirrorlab.core import DomainError, InputError, quadratic_matrices
from mirrorlab.experiments import LOSS_THRESHOLD, make_sensing_problem


def nuclear_norm(X):
    return float(np.sum(np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)))


def nuclear_frobenius_ratio(X):
    """||X||_nuclear / ||X||_frobenius; >= 1 always, == 1 exactly for rank one."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError("expected a matrix")
    s = np.linalg.svd(X, compute_uv=False)
    fro = np.sqrt(np.sum(s * s))
    if fro == 0.0:
        raise DomainError("norm ratio is undefined for the zero matrix")
    return float(np.sum(s) / fro)


def max_commutator_fro(A_list, B):
    """Max Frobenius norm of the pairwise commutators over {A_1..A_d, B}, whose
    matrices are checked as the quadratic family checks them."""
    A_list, B = quadratic_matrices(A_list, B)
    mats = A_list + [B]
    return max((float(np.linalg.norm(X @ Y - Y @ X))
                for i, X in enumerate(mats) for Y in mats[i + 1:]), default=0.0)


def dense_sensing_summary(cfg):
    """The summary of ``matrix_sensing_run(cfg)`` from a plain Euler loop.

    Every step forms the residual ``Z @ x - y`` and the gradient
    ``Z.T @ r / m`` over all n^2 columns of ``Z = A.reshape(m, n * n)``,
    repeated columns included, and takes the step
    ``U <- U - eta ((G + G^T) U + alpha U)`` at ``alpha(t)`` of the step's
    start; the loss is read on every state, and the spectrum statistics come
    from the SVD.
    """
    X_star, A, y, U = make_sensing_problem(cfg)
    Z = A.reshape(cfg.m, -1)
    threshold_time = None
    for k in range(cfg.steps + 1):
        X = U @ U.T
        r = Z @ X.ravel() - y
        loss = float(0.5 * r @ r / cfg.m)
        if threshold_time is None and loss <= LOSS_THRESHOLD:
            threshold_time = k * cfg.eta
        if k == cfg.steps:
            break
        G = (Z.T @ r / cfg.m).reshape(cfg.n, cfg.n)
        U = U - cfg.eta * ((G + G.T) @ U + cfg.schedule.alpha(k * cfg.eta) * U)
    t_end = cfg.steps * cfg.eta
    return {"final_train_loss": loss,
            "final_recon_error": float(np.sum((X_star - X) ** 2)),
            "final_nuclear_norm": nuclear_norm(X),
            "final_ratio": nuclear_frobenius_ratio(X),
            "time_to_threshold": threshold_time,
            "converged": loss <= LOSS_THRESHOLD,
            "a_final": float(cfg.schedule.a(t_end))}
