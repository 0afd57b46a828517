"""Numeric verification of the structural hypotheses behind the flow equivalence.

The key object is the Lie bracket of the coordinate gradient fields of the
joint map (g, h).  Brackets are formed from finite-difference Hessians of the
analytic gradients (never double finite differences), which keeps the noise
floor at O(step^2) where the structure predicts exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import InputError, make_rng


def _grad_field(p, idx):
    """Gradient field of g_idx, or of h when idx == 'h'."""
    if idx == "h":
        return p.grad_h
    idx = int(idx)
    if not 0 <= idx < p.dim_model:
        raise InputError(f"coordinate index {idx} out of range [0, {p.dim_model})")
    e = np.eye(p.dim_model)[idx]
    return lambda w: p.vjp_g(w, e)  # row idx of jac_g


def hessian_fd(grad_fn, w):
    """Central-difference Jacobian of an analytic gradient field, symmetrized.

    ``grad_fn(w)`` may also stack several gradients with the parameter axis
    last, shape (..., D); the result then stacks their Hessians, (..., D, D),
    each with the bits it would have on its own.
    """
    w = np.asarray(w, dtype=float).ravel()
    step = 1e-5 * (1.0 + np.max(np.abs(w)))
    D = w.size
    columns = []
    for k in range(D):
        e = np.zeros(D)
        e[k] = step
        columns.append((grad_fn(w + e) - grad_fn(w - e)) / (2.0 * step))
    H = np.stack(columns, axis=-1)
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def lie_bracket(p, i, j, w):
    """[grad g_i, grad g_j](w) = Hess(g_j) grad(g_i) - Hess(g_i) grad(g_j).

    Either index may be the string "h", treating the regularizer as an extra
    coordinate of the joint map.
    """
    w = np.asarray(w, dtype=float).ravel()
    gi = _grad_field(p, i)
    gj = _grad_field(p, j)
    Hi = hessian_fd(gi, w)
    Hj = hessian_fd(gj, w)
    return Hj @ gi(w) - Hi @ gj(w)


@dataclass
class BracketReport:
    variant: str
    tol: float
    max_bracket_norm: float
    passed: bool
    n_samples: int
    worst_sample: list = field(default_factory=list)
    worst_pair: tuple = ("", "")


def check_commuting(p, n_samples=50, tol=1e-4, seed=0):
    """Sample ``p.sample_box`` and evaluate all pairwise brackets, h included."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rng = make_rng(seed)
    lo, hi = p.sample_box
    indices = list(range(p.dim_model)) + ["h"]
    worst = 0.0
    worst_w = None
    worst_pair = ("", "")
    for _ in range(n_samples):
        w = rng.uniform(lo, hi, size=p.dim_params)
        # each field's Hessian and value once per sample (row i of jac_g is
        # grad g_i, so one difference of jac_g per parameter serves every
        # coordinate); the pairs below form lie_bracket's products in its order
        H = list(hessian_fd(p.jac_g, w)) + [hessian_fd(p.grad_h, w)]
        G = list(p.jac_g(w)) + [p.grad_h(w)]
        for ai in range(len(indices)):
            for aj in range(ai + 1, len(indices)):
                norm = float(np.linalg.norm(H[aj] @ G[ai] - H[ai] @ G[aj]))
                if norm > worst:
                    worst, worst_w, worst_pair = norm, w.copy(), (str(indices[ai]), str(indices[aj]))
    return BracketReport(
        variant=p.tag,
        tol=tol,
        max_bracket_norm=worst,
        passed=worst <= tol,
        n_samples=n_samples,
        worst_sample=[] if worst_w is None else worst_w.tolist(),
        worst_pair=worst_pair,
    )
