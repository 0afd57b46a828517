"""Desk-scale experiments: matrix sensing, diagonal networks, sparse coding, optimality.

All runners are deterministic given their seed and take plain Euler steps on
the engine of ``flow`` (``_integrate``), the step size playing the role of a
learning rate; each supplies the vector field and a per-record hook that
computes its metrics.  They produce a uniform ``ExperimentReport`` that the
command-line layer serializes to CSV/JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import reparam
from .core import DomainError, InputError, Schedule, make_rng
from .flow import LinearRegressionLoss, _integrate
from .legendre import LegendreFamily


@dataclass
class ExperimentReport:
    kind: str
    config: dict
    steps: np.ndarray
    times: np.ndarray
    a: np.ndarray
    metrics: dict
    summary: dict
    diverged: bool = False
    flags: dict = field(default_factory=dict)
    eigenvalues: np.ndarray | None = None
    final_x: np.ndarray | None = None
    final_params: np.ndarray | None = None


class SensingLoss(LinearRegressionLoss):
    """f(X) = sum_i (<A_i, X> - y_i)^2 / (2m) on raveled n x n matrices."""

    def __init__(self, A, y):
        A = np.asarray(A, dtype=float)
        super().__init__(A.reshape(A.shape[0], -1), y)


class DictionaryLoss(LinearRegressionLoss):
    """f(code) = ||D code - target||^2 / 2; gradient Lipschitz constant sigma_max(D)^2."""

    def __init__(self, D, target):
        super().__init__(D, target)
        self.d = 1

    def lipschitz(self):
        return float(np.linalg.norm(self.Z, 2) ** 2)


# ---------------------------------------------------------------------------
# matrix sensing
# ---------------------------------------------------------------------------

SENSING_KINDS = ("random-symmetric", "commuting-diagonal")
LOSS_THRESHOLD = 1e-7


@dataclass
class SensingConfig:
    """Factored matrix-sensing run X = U U^T against a rank-r ground truth.

    The ground truth is normalized to nuclear norm 1.  Runs start from
    U0 = sqrt(beta) * I, i.e. X0 = beta * I: beta is the eigenvalue scale of
    the initial model matrix, the convention under which the eigenvalue
    optimality statement applies verbatim.
    """

    n: int = 20
    r: int = 5
    m: int = 120
    beta: float = 0.1
    eta: float = 0.25
    steps: int = 5000
    schedule: Schedule = None
    sensing_kind: str = "random-symmetric"
    seed: int = 0
    record_every: int = 10

    def __post_init__(self):
        if self.schedule is None:
            self.schedule = Schedule("constant", 0.0, t_end=max(self.steps * self.eta, 1e-12))
        if self.r > self.n:
            raise InputError("rank r must not exceed n")
        if self.beta <= 0:
            raise InputError("beta must be positive")
        if self.sensing_kind not in SENSING_KINDS:
            raise InputError(f"sensing_kind must be one of {SENSING_KINDS}")
        if self.eta <= 0 or self.steps < 1 or self.record_every < 1:
            raise InputError("eta, steps and record_every must be positive")


def make_sensing_problem(cfg: SensingConfig):
    """Ground truth, sensing matrices and measurements for a config."""
    rng = make_rng(cfg.seed)
    if cfg.sensing_kind == "commuting-diagonal":
        lam = np.zeros(cfg.n)
        support = rng.choice(cfg.n, size=cfg.r, replace=False)
        vals = np.abs(rng.standard_normal(cfg.r)) + 0.1
        lam[support] = vals / vals.sum()
        X_star = np.diag(lam)
        diags = rng.standard_normal((cfg.m, cfg.n))
        A = np.zeros((cfg.m, cfg.n, cfg.n))
        idx = np.arange(cfg.n)
        A[:, idx, idx] = diags
    else:
        U_star = rng.standard_normal((cfg.n, cfg.r))
        X_star = U_star @ U_star.T
        X_star /= np.trace(X_star)  # PSD, so trace == nuclear norm
        B = rng.standard_normal((cfg.m, cfg.n, cfg.n))
        A = 0.5 * (B + np.transpose(B, (0, 2, 1)))
    U0 = np.sqrt(cfg.beta) * np.eye(cfg.n)
    y = np.einsum("ijk,jk->i", A, X_star)
    return X_star, A, y, U0


def matrix_sensing_run(cfg: SensingConfig) -> ExperimentReport:
    """Discrete flow U <- U - eta (grad_X f(UU^T) U + alpha_t U) with schedule."""
    X_star, A, y, U = make_sensing_problem(cfg)
    loss = SensingLoss(A, y)
    p = reparam.SymFactor(U)

    rec_steps, rec_t, rec_a = [], [], []
    series = {k: [] for k in ("train_loss", "recon_error", "nuclear_norm", "ratio")}
    eigs = []
    below = []  # time of the first step whose loss is at most LOSS_THRESHOLD

    def watch(t, f_val):
        if not below and f_val <= LOSS_THRESHOLD:
            below.append(t)

    def rhs(t, w, left_limit):
        x = p.g(w)
        watch(t, loss.value(x))
        return p.flow_rhs(w, loss.grad(x), cfg.schedule.alpha(t))

    def record(k, t, w):
        X = p.g(w).reshape(cfg.n, cfg.n)
        f_val = loss.value(X.ravel())
        watch(t, f_val)
        rec_steps.append(k)
        rec_t.append(t)
        rec_a.append(cfg.schedule.a(t))
        series["train_loss"].append(f_val)
        series["recon_error"].append(float(np.sum((X_star - X) ** 2)))
        s = np.linalg.svd(X, compute_uv=False)
        series["nuclear_norm"].append(float(np.sum(s)))
        series["ratio"].append(float(np.sum(s) / np.sqrt(np.sum(s * s))))
        eigs.append(np.sort(np.linalg.eigvalsh(X))[::-1])

    w, status = _integrate(rhs, p.w_init, cfg.steps, cfg.eta, cfg.record_every, record)
    metrics = {k: np.asarray(v) for k, v in series.items()}
    summary = {
        "final_train_loss": metrics["train_loss"][-1],
        "final_recon_error": metrics["recon_error"][-1],
        "final_nuclear_norm": metrics["nuclear_norm"][-1],
        "final_ratio": metrics["ratio"][-1],
        "time_to_threshold": below[0] if below else None,
        "converged": bool(metrics["train_loss"][-1] <= LOSS_THRESHOLD),
        "a_final": float(cfg.schedule.a(rec_t[-1])),
    }
    return ExperimentReport(
        kind="sensing",
        config=_cfg_dict(cfg),
        steps=np.asarray(rec_steps),
        times=np.asarray(rec_t),
        a=np.asarray(rec_a),
        metrics=metrics,
        summary=summary,
        diverged=status is not None,
        eigenvalues=np.asarray(eigs),
        final_x=p.g(w),
        final_params=w,
    )


def sensing_eigen_bias(report: ExperimentReport, cfg: SensingConfig):
    """Eigenvalue trajectories and the entropy-type potential they minimize.

    Only meaningful for commuting-diagonal sensing started from
    U0 U0^T = beta I; the potential evaluated is

        sum_i (log(1/A(a)) - 1) lam_i + lam_i log lam_i,   A(a) = beta e^(2a),

    whose constrained minimizer the flow's limit should match.  Eigenvalues
    below -1e-10 are flagged (the flow preserves positive semidefiniteness up
    to roundoff).
    """
    if cfg.sensing_kind != "commuting-diagonal":
        raise InputError("eigenvalue bias analysis requires commuting-diagonal sensing")
    eigs = report.eigenvalues
    scale = cfg.beta * np.exp(2.0 * report.a)
    clipped = np.clip(eigs, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        xlogx = np.where(clipped > 0, clipped * np.log(np.where(clipped > 0, clipped, 1.0)), 0.0)
    value = np.sum((np.log(1.0 / scale)[:, None] - 1.0) * clipped + xlogx, axis=1)
    return {
        "times": report.times,
        "eigenvalues": eigs,
        "potential": value,
        "negative_flagged": bool(np.any(eigs < -1e-10)),
    }


# ---------------------------------------------------------------------------
# diagonal linear networks
# ---------------------------------------------------------------------------

DIAGONAL_VARIANTS = ("m", "mw", "mwz")


@dataclass
class RegressionConfig:
    """Underdetermined regression with a sparse, unit-magnitude ground truth.

    The run has two phases of equal length: `steps` updates with the schedule
    active, then `steps` more with the strength forced to zero, exposing the
    lasting effect of the accumulated regularization.
    """

    d: int = 40
    n: int = 100
    sparsity: int = 5
    eta: float = 1e-3
    steps: int = 20000
    schedule: Schedule = None
    variant: str = "mw"
    seed: int = 0
    record_every: int = 100

    def __post_init__(self):
        if self.schedule is None:
            self.schedule = Schedule("constant", 0.0, t_end=max(2 * self.steps * self.eta, 1e-12))
        if not self.d < self.n:
            raise InputError("need d < n (underdetermined regression)")
        if not 0 <= self.sparsity <= self.n:
            raise InputError("sparsity must lie in [0, n]")
        if self.variant not in DIAGONAL_VARIANTS:
            raise InputError(f"variant must be one of {DIAGONAL_VARIANTS}")


def make_regression_problem(cfg: RegressionConfig):
    rng = make_rng(cfg.seed)
    Z = rng.standard_normal((cfg.d, cfg.n))
    x_star = np.zeros(cfg.n)
    if cfg.sparsity:
        support = rng.choice(cfg.n, size=cfg.sparsity, replace=False)
        x_star[support] = rng.choice([-1.0, 1.0], size=cfg.sparsity)
    y = Z @ x_star
    return Z, y, x_star


def diagonal_network_run(cfg: RegressionConfig) -> ExperimentReport:
    """Two-phase diagonal-network training; variant "m" uses an L1 penalty."""
    Z, y, x_star = make_regression_problem(cfg)
    loss = LinearRegressionLoss(Z, y)
    phase1_end = cfg.steps * cfg.eta

    def alpha(t):
        return cfg.schedule.alpha(t) if t < phase1_end else 0.0

    if cfg.variant == "m":
        p = None
        params = np.zeros(cfg.n)

        def rhs(t, w, left_limit):
            return -(loss.grad(w) + alpha(t) * np.sign(w))
    else:
        # one factor per letter of the variant name: "mw" is m * w, "mwz" is m * w * z
        p = reparam.DeepHadamard([np.zeros(cfg.n)] + [np.ones(cfg.n)] * (len(cfg.variant) - 1))
        params = p.w_init

        def rhs(t, w, left_limit):
            return p.flow_rhs(w, loss.grad(p.g(w)), alpha(t))

    def model(params):
        return params if p is None else p.g(params)

    rec_steps, rec_t, rec_a = [], [], []
    series = {k: [] for k in ("train_loss", "recon_error", "l1", "l1_l2_ratio")}

    def record(k, t, w):
        x = model(w)
        rec_steps.append(k)
        rec_t.append(t)
        rec_a.append(cfg.schedule.a(min(t, phase1_end)))
        l1 = float(np.sum(np.abs(x)))
        l2 = float(np.linalg.norm(x))
        series["train_loss"].append(loss.value(x))
        series["recon_error"].append(float(np.sum((x - x_star) ** 2)))
        series["l1"].append(l1)
        series["l1_l2_ratio"].append(l1 / l2 if l2 > 0 else 0.0)

    params, status = _integrate(rhs, params, 2 * cfg.steps, cfg.eta, cfg.record_every, record)
    metrics = {k: np.asarray(v) for k, v in series.items()}
    gt_l1 = float(np.sum(np.abs(x_star)))
    gt_l2 = float(np.linalg.norm(x_star))
    summary = {
        "final_train_loss": metrics["train_loss"][-1],
        "final_recon_error": metrics["recon_error"][-1],
        "final_l1": metrics["l1"][-1],
        "final_ratio": metrics["l1_l2_ratio"][-1],
        "ground_truth_ratio": gt_l1 / gt_l2 if gt_l2 > 0 else 0.0,
        "a_final": float(cfg.schedule.a(phase1_end)),
        "converged": bool(metrics["train_loss"][-1] <= 1e-10),
    }
    return ExperimentReport(
        kind="diagonal",
        config=_cfg_dict(cfg),
        steps=np.asarray(rec_steps),
        times=np.asarray(rec_t),
        a=np.asarray(rec_a),
        metrics=metrics,
        summary=summary,
        diverged=status is not None,
        final_x=model(params),
        final_params=params,
    )


# ---------------------------------------------------------------------------
# sparse coding
# ---------------------------------------------------------------------------

@dataclass
class SparseCodingConfig:
    steps: int = 100
    record_every: int = 1
    lr_scale: float = 1e-3

    def __post_init__(self):
        if self.steps < 1 or self.record_every < 1 or self.lr_scale <= 0:
            raise InputError("steps, record_every and lr_scale must be positive")


def make_dictionary(n_obs, n_features, seed=0):
    """Synthetic Gaussian dictionary with unit-norm columns."""
    rng = make_rng(seed)
    D = rng.standard_normal((n_obs, n_features))
    return D / np.linalg.norm(D, axis=0, keepdims=True)


def sparse_coding_run(dictionary, target, variant_p, schedule: Schedule,
                      cfg: SparseCodingConfig) -> ExperimentReport:
    """Regression flow on a reparameterized code; step = lr_scale / Lip(D).

    The L1 norm of the code is the headline series; runs whose factors leave
    their domain are truncated and flagged rather than rejected.
    """
    D = np.asarray(dictionary, dtype=float)
    if D.ndim != 2 or not np.any(D):
        raise InputError("dictionary must be a nonzero matrix")
    target = np.asarray(target, dtype=float).ravel()
    if target.size != D.shape[0]:
        raise InputError(f"target has length {target.size}, expected {D.shape[0]}")
    if variant_p.dim_model != D.shape[1]:
        raise InputError("code length must match the dictionary's feature count")
    loss = DictionaryLoss(D, target)
    eta = cfg.lr_scale / loss.lipschitz()

    rec_steps, rec_t, rec_a = [], [], []
    series = {k: [] for k in ("train_loss", "recon_error", "l1")}
    flags = {"domain_exit": False, "left_unit_region": False}
    n_obs = D.shape[0]

    def code(w):
        x = variant_p.g(w)
        if hasattr(variant_p, "inside_unit_region") and not variant_p.inside_unit_region(w):
            flags["left_unit_region"] = True
        return x

    def rhs(t, w, left_limit):
        return variant_p.flow_rhs(w, loss.grad(code(w)), schedule.alpha(t))

    def record(k, t, w):
        x = code(w)
        f_val = loss.value(x)
        rec_steps.append(k)
        rec_t.append(t)
        rec_a.append(schedule.a(t))
        series["train_loss"].append(f_val)
        series["recon_error"].append(float(2.0 * f_val / n_obs))
        series["l1"].append(float(np.sum(np.abs(x))))

    params, status = _integrate(rhs, variant_p.w_init, cfg.steps, eta, cfg.record_every, record)
    flags["domain_exit"] = status is not None and status[0] == "domain"
    metrics = {k: np.asarray(v) for k, v in series.items()}
    summary = {
        "eta": eta,
        "final_l1": metrics["l1"][-1] if len(metrics["l1"]) else np.nan,
        "final_recon_error": metrics["recon_error"][-1] if len(metrics["recon_error"]) else np.nan,
        "stationarity_step": stationarity_step(metrics["l1"], np.asarray(rec_steps))
        if len(metrics["l1"]) > 1 else None,
    }
    return ExperimentReport(
        kind="sparse-coding",
        config={"steps": cfg.steps, "lr_scale": cfg.lr_scale, "variant": variant_p.tag,
                "schedule": _schedule_dict(schedule)},
        steps=np.asarray(rec_steps),
        times=np.asarray(rec_t),
        a=np.asarray(rec_a),
        metrics=metrics,
        summary=summary,
        diverged=status is not None,
        flags=flags,
        final_x=None if status is not None else variant_p.g(params),
        final_params=params,
    )


def stationarity_step(series, steps, rtol=0.05):
    """First recorded step after which the series stays within rtol of its end.

    The tolerance is relative to the series' total range, so flat series are
    stationary immediately.
    """
    s = np.asarray(series, dtype=float)
    steps = np.asarray(steps)
    span = float(np.max(s) - np.min(s))
    if span == 0.0:
        return int(steps[0])
    dev = np.abs(s - s[-1])
    tail_max = np.flip(np.maximum.accumulate(np.flip(dev)))
    idx = int(np.argmax(tail_max <= rtol * span))
    return int(steps[idx])


# ---------------------------------------------------------------------------
# optimality
# ---------------------------------------------------------------------------

def kkt_residual(Z, x_inf, family: LegendreFamily, a_T):
    """Relative norm of grad R_{a_T}(x_inf) outside the row space of Z.

    Zero certifies that x_inf minimizes R_{a_T} over the solution set
    {x : Z x = Z x_inf}.
    """
    Z = np.asarray(Z, dtype=float)
    G = Z @ Z.T
    d = Z.shape[0]
    if np.linalg.matrix_rank(G) < d:
        raise InputError(f"Z Z^T is rank deficient (rank {np.linalg.matrix_rank(G)} of {d})")
    g = family.grad(a_T, x_inf)
    proj = Z.T @ np.linalg.solve(G, Z @ g)
    return float(np.linalg.norm(g - proj) / max(1.0, np.linalg.norm(g)))


def constrained_argmin(family: LegendreFamily, a, Z, Y, tol=1e-12, max_iter=200):
    """argmin { R_a(x) : Z x = Y } by Newton on the dual variables.

    Stationarity forces grad R_a(x) = Z^T nu, i.e. x = Q_a(Z^T nu); Newton
    solves Z Q_a(Z^T nu) = Y for nu.  Independent of any flow trajectory, so
    it serves as the optimality oracle.
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    d = Z.shape[0]
    nu = np.zeros(d)
    scale = max(1.0, float(np.max(np.abs(Y))))

    def residual(nu):
        return Z @ family.dual_map(a, Z.T @ nu) - Y

    r = residual(nu)
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol * scale:
            break
        J = Z @ family.dual_jacobian(a, Z.T @ nu) @ Z.T
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise InputError("constrained minimization hit a singular system; is Y attainable?")
        if not np.all(np.isfinite(step)):
            raise InputError("constrained minimization hit a singular system; is Y attainable?")
        t = 1.0
        while t > 1e-14:
            cand = nu - t * step
            try:
                r_cand = residual(cand)
            except DomainError:
                t *= 0.5
                continue
            if np.all(np.isfinite(r_cand)) and np.linalg.norm(r_cand) <= (1 - 1e-4 * t) * np.linalg.norm(r):
                nu, r = cand, r_cand
                break
            t *= 0.5
        else:
            break
    if np.max(np.abs(r)) > 1e-8 * scale:
        raise InputError("constrained minimization did not converge; is Y attainable?")
    return family.dual_map(a, Z.T @ nu)


def _schedule_dict(s: Schedule):
    return {"kind": s.kind, "alpha0": s.alpha0, "turnoff_time": s.turnoff_time, "t_end": s.t_end}


def _cfg_dict(cfg):
    out = {}
    for key, val in cfg.__dict__.items():
        out[key] = _schedule_dict(val) if isinstance(val, Schedule) else val
    return out
