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
    return lambda w: p.jac_g(w)[idx]


def hessian_fd(grad_fn, w, step=None):
    """Central-difference Jacobian of an analytic gradient field."""
    w = np.asarray(w, dtype=float).ravel()
    if step is None:
        step = 1e-5 * (1.0 + np.max(np.abs(w)))
    D = w.size
    H = np.empty((D, D))
    for k in range(D):
        e = np.zeros(D)
        e[k] = step
        H[:, k] = (grad_fn(w + e) - grad_fn(w - e)) / (2.0 * step)
    return 0.5 * (H + H.T)


def lie_bracket(p, i, j, w, step=None):
    """[grad g_i, grad g_j](w) = Hess(g_j) grad(g_i) - Hess(g_i) grad(g_j).

    Either index may be the string "h", treating the regularizer as an extra
    coordinate of the joint map.
    """
    w = np.asarray(w, dtype=float).ravel()
    gi = _grad_field(p, i)
    gj = _grad_field(p, j)
    Hi = hessian_fd(gi, w, step)
    Hj = hessian_fd(gj, w, step)
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


def check_commuting(p, n_samples=50, tol=1e-4, seed=0, box=None):
    """Sample the box and evaluate all pairwise brackets, h included."""
    if n_samples < 1:
        raise InputError("n_samples must be >= 1")
    rng = make_rng(seed)
    lo, hi = box if box is not None else p.sample_box
    indices = list(range(p.dim_model)) + ["h"]
    worst = 0.0
    worst_w = None
    worst_pair = ("", "")
    for _ in range(n_samples):
        w = rng.uniform(lo, hi, size=p.dim_params)
        for ai in range(len(indices)):
            for aj in range(ai + 1, len(indices)):
                norm = float(np.linalg.norm(lie_bracket(p, indices[ai], indices[aj], w)))
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


def check_regular(p, w, tol=1e-8):
    """True iff the n-th largest singular value of the Jacobian exceeds tol."""
    s = np.linalg.svd(p.jac_g(w), compute_uv=False)
    return bool(len(s) >= p.dim_model and s[p.dim_model - 1] > tol)


@dataclass
class SeparableReport:
    c_estimate: float
    max_residual: float
    passed: bool
    status: str = "ok"


def check_separable_pair(g_scalar, h_scalar, samples, tol=1e-8):
    """Least-squares fit of h = c * g over scalar samples.

    Linear dependence of the two analytic coordinate functions is exactly the
    condition under which the pair commutes (vanishing Wronskian), so this is
    the practical separable-compatibility test.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    gv = np.array([g_scalar(s) for s in samples], dtype=float)
    hv = np.array([h_scalar(s) for s in samples], dtype=float)
    gg = float(gv @ gv)
    if gg == 0.0:
        return SeparableReport(c_estimate=np.nan, max_residual=np.nan, passed=False,
                               status="inconclusive: g vanishes on all samples")
    c = float(gv @ hv) / gg
    resid = float(np.max(np.abs(hv - c * gv)))
    scale = max(float(np.max(np.abs(hv))), 1e-300)
    return SeparableReport(c_estimate=c, max_residual=resid, passed=resid <= tol * scale)


@dataclass
class QuadCommuteReport:
    max_commutator_fro: float
    passed: bool
    tol: float


def check_quadratic_commuting(A_list, B, tol=1e-10):
    """Max Frobenius norm of pairwise commutators over {A_1..A_d, B}."""
    mats = [np.asarray(A, dtype=float) for A in A_list] + [np.asarray(B, dtype=float)]
    for M in mats:
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != mats[0].shape:
            raise InputError("all matrices must be square and of equal size")
        if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, float(np.max(np.abs(M)))):
            raise InputError("matrices must be symmetric")
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            worst = max(worst, float(np.linalg.norm(comm)))
    return QuadCommuteReport(max_commutator_fro=worst, passed=worst <= tol, tol=tol)
