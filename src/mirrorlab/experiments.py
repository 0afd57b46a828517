"""Desk-scale experiments: matrix sensing, diagonal networks, sparse coding, optimality.

All runners are deterministic given their seed and take plain Euler steps of
the parameter flow of ``flow`` (``_param_flow``), the step size playing the
role of a learning rate.  Each runner builds its problem (parameterization,
loss and schedule) and a per-block finisher; the loop owns the field, the
gradient cache, the loss-threshold watch (sensing's time to threshold) and
the unit-region flag (sparse coding), both read on every state the run
takes, the switch-off of the strength (the diagonal runner's second phase)
and the strength column ``a``.  The
finisher computes the other series from the block's stacked ``x`` and train
losses in one call each (errors, norms and sensing's stacked ``eigvalsh``)
with the bits of the per-state formulas.  Each runner returns the
``core.RunRecord`` of the engine's tables and status, the record the flows
return too, which the command-line layer serializes to CSV/JSON; a run that
stops early is marked ``diverged``, not raised.  The sensing and diagonal
runners build their parameterization and loss from a validated config, and
the sparse-coding runner checks the dictionary, target and code length it is
given, so every stage calls the unchecked kernels of ``reparam`` and
``flow`` directly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import reparam
from .core import InputError, RunRecord, Schedule, check_finite, make_rng
from .flow import LinearRegressionLoss, _param_flow
from .legendre import LegendreFamily, _solve_dual


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
        check_finite(beta=self.beta, eta=self.eta)
        make_rng(self.seed)  # a seed out of range fails before a sweep runs any seed
        if self.schedule is None:
            self.schedule = Schedule("constant", 0.0, t_end=max(self.steps * self.eta, 1e-12))
        if self.n < 1 or self.m < 1:
            raise InputError("n and m must be positive")
        if not 1 <= self.r <= self.n:
            raise InputError("rank r must lie in [1, n]")
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


def matrix_sensing_run(cfg: SensingConfig) -> RunRecord:
    """Discrete chain-rule flow U <- U - eta ((G + G^T) U + alpha_t U), G = grad_X f(UU^T)."""
    X_star, A, y, U = make_sensing_problem(cfg)
    x_star = X_star.ravel()
    loss = SensingLoss(A, y)
    p = reparam.SymFactor(U)

    def finish(steps, times, block):
        x = block["x"]
        # each X is symmetric, so one stacked eigvalsh (ascending) gives every
        # spectrum and, in absolute value, every set of singular values
        eigenvalues = np.linalg.eigvalsh(x.reshape(-1, cfg.n, cfg.n))[:, ::-1]
        s = np.abs(eigenvalues)
        nuclear = s.sum(1)
        return {"train_loss": block["train_loss"],
                "recon_error": ((x_star - x) ** 2).sum(1),
                "nuclear_norm": nuclear,
                "ratio": nuclear / np.sqrt(_row_dots(s)),
                "eigenvalues": eigenvalues}

    w, status, rec, events = _param_flow(p, loss, cfg.schedule, cfg.steps, cfg.eta,
                                         cfg.record_every, "euler", finish,
                                         threshold=LOSS_THRESHOLD)
    eigenvalues = rec.pop("eigenvalues")
    summary = {
        "final_train_loss": rec["train_loss"][-1],
        "final_recon_error": rec["recon_error"][-1],
        "final_nuclear_norm": rec["nuclear_norm"][-1],
        "final_ratio": rec["ratio"][-1],
        "time_to_threshold": events["threshold_time"],
        "converged": bool(rec["train_loss"][-1] <= LOSS_THRESHOLD),
        "a_final": float(rec["a"][-1]),
    }
    return RunRecord.from_tables("sensing", asdict(cfg), rec, summary, status,
                                 eigenvalues=eigenvalues, final_x=p._g(w), final_params=w)


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
        check_finite(eta=self.eta)
        if self.schedule is None:
            self.schedule = Schedule("constant", 0.0, t_end=max(2 * self.steps * self.eta, 1e-12))
        if not 0 <= self.d < self.n:
            raise InputError("need 0 <= d < n (underdetermined regression)")
        if not 0 <= self.sparsity <= self.n:
            raise InputError("sparsity must lie in [0, n]")
        if self.variant not in DIAGONAL_VARIANTS:
            raise InputError(f"variant must be one of {DIAGONAL_VARIANTS}")
        if self.eta <= 0 or self.steps < 1 or self.record_every < 1:
            raise InputError("eta, steps and record_every must be positive")


def make_regression_problem(cfg: RegressionConfig):
    rng = make_rng(cfg.seed)
    Z = rng.standard_normal((cfg.d, cfg.n))
    x_star = np.zeros(cfg.n)
    if cfg.sparsity:
        support = rng.choice(cfg.n, size=cfg.sparsity, replace=False)
        x_star[support] = rng.choice([-1.0, 1.0], size=cfg.sparsity)
    y = Z @ x_star
    return Z, y, x_star


def diagonal_network_run(cfg: RegressionConfig) -> RunRecord:
    """Two-phase diagonal-network training; variant "m" is the L1-penalized identity."""
    Z, y, x_star = make_regression_problem(cfg)
    loss = LinearRegressionLoss(Z, y)
    phase1_end = cfg.steps * cfg.eta

    if cfg.variant == "m":
        p = reparam.L1Identity(np.zeros(cfg.n))
    else:
        # one factor per letter of the variant name: "mw" is m * w, "mwz" is m * w * z
        p = reparam.DeepHadamard([np.zeros(cfg.n)] + [np.ones(cfg.n)] * (len(cfg.variant) - 1))

    def finish(steps, times, block):
        x = block["x"]
        l1 = np.abs(x).sum(1)
        l2 = np.sqrt(_row_dots(x))
        return {"train_loss": block["train_loss"], "recon_error": ((x - x_star) ** 2).sum(1),
                "l1": l1, "l1_l2_ratio": np.divide(l1, l2, out=np.zeros_like(l1), where=l2 > 0)}

    # the strength is the schedule's in phase 1 and switched off in phase 2
    params, status, rec, _ = _param_flow(p, loss, cfg.schedule, 2 * cfg.steps, cfg.eta,
                                         cfg.record_every, "euler", finish, off_after=phase1_end)
    gt_l1 = float(np.sum(np.abs(x_star)))
    gt_l2 = float(np.linalg.norm(x_star))
    summary = {
        "final_train_loss": rec["train_loss"][-1],
        "final_recon_error": rec["recon_error"][-1],
        "final_l1": rec["l1"][-1],
        "final_ratio": rec["l1_l2_ratio"][-1],
        "ground_truth_ratio": gt_l1 / gt_l2 if gt_l2 > 0 else 0.0,
        "a_final": float(cfg.schedule.a(phase1_end)),
        "converged": bool(rec["train_loss"][-1] <= 1e-10),
    }
    return RunRecord.from_tables("diagonal", asdict(cfg), rec, summary, status,
                                 final_x=p._g(params), final_params=params)


# ---------------------------------------------------------------------------
# sparse coding
# ---------------------------------------------------------------------------

@dataclass
class SparseCodingConfig:
    """A sparse-coding run's Euler steps, record interval and step scale; the
    fields and defaults of ``run sparse-coding``'s options of those names."""

    steps: int = 300
    record_every: int = 1
    lr_scale: float = 1e-3

    def __post_init__(self):
        check_finite(lr_scale=self.lr_scale)
        if self.steps < 1 or self.record_every < 1 or self.lr_scale <= 0:
            raise InputError("steps, record_every and lr_scale must be positive")


def make_dictionary(n_obs, n_features, seed=0):
    """Synthetic Gaussian dictionary with unit-norm columns."""
    if n_obs < 1 or n_features < 1:
        raise InputError("a dictionary needs at least one observation and one feature")
    rng = make_rng(seed)
    D = rng.standard_normal((n_obs, n_features))
    return D / np.linalg.norm(D, axis=0, keepdims=True)


def sparse_coding_run(dictionary, target, variant_p, schedule: Schedule,
                      cfg: SparseCodingConfig) -> RunRecord:
    """Regression flow on a reparameterized code; step = lr_scale / Lip(D).

    The L1 norm of the code is the headline series; runs whose factors leave
    their domain are truncated and flagged rather than rejected.
    """
    D = np.asarray(dictionary, dtype=float)
    if D.ndim != 2 or not np.any(D) or not np.isfinite(D).all():
        raise InputError("dictionary must be a finite nonzero matrix")
    target = np.asarray(target, dtype=float).ravel()
    if target.size != D.shape[0]:
        raise InputError(f"target has length {target.size}, expected {D.shape[0]}")
    if not np.isfinite(target).all():
        raise InputError("target must be finite")
    if variant_p.dim_model != D.shape[1]:
        raise InputError("code length must match the dictionary's feature count")
    loss = DictionaryLoss(D, target)
    eta = cfg.lr_scale / loss.lipschitz()

    n_obs = D.shape[0]

    def finish(steps, times, block):
        f_val = block["train_loss"]
        return {"train_loss": f_val, "recon_error": 2.0 * f_val / n_obs,
                "l1": np.abs(block["x"]).sum(1)}

    params, status, rec, events = _param_flow(variant_p, loss, schedule, cfg.steps, eta,
                                              cfg.record_every, "euler", finish)
    flags = {"domain_exit": status is not None and status[0] == "domain",
             "left_unit_region": events["left_unit_region"]}
    summary = {
        "eta": eta,
        "final_l1": rec["l1"][-1],
        "final_recon_error": rec["recon_error"][-1],
        "stationarity_step": stationarity_step(rec["l1"], rec["step"]) if len(rec["l1"]) > 1 else None,
    }
    config = {"steps": cfg.steps, "lr_scale": cfg.lr_scale, "variant": variant_p.tag,
              "schedule": asdict(schedule)}
    return RunRecord.from_tables("sparse-coding", config, rec, summary, status, flags=flags,
                                 final_x=None if status is not None else variant_p.g(params),
                                 final_params=params)


def stationarity_step(series, steps):
    """First recorded step from which the series stays within 5 % of its total
    range of its last value, so flat series are stationary immediately."""
    s = np.asarray(series, dtype=float)
    steps = np.asarray(steps)
    span = float(np.max(s) - np.min(s))
    if span == 0.0:
        return int(steps[0])
    dev = np.abs(s - s[-1])
    tail_max = np.flip(np.maximum.accumulate(np.flip(dev)))
    idx = int(np.argmax(tail_max <= 0.05 * span))
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


def constrained_argmin(family: LegendreFamily, a, Z, Y):
    """argmin { R_a(x) : Z x = Y } by Newton on the dual variables.

    Stationarity forces grad R_a(x) = Z^T nu, i.e. x = Q_a(Z^T nu); the Newton
    of ``legendre`` (the one behind every numeric ``grad``) solves
    Z Q_a(Z^T nu) = Y for nu, until max |r| <= 1e-12 max(1, max |Y|) or for
    at most 200 iterations.  Independent of any flow trajectory, so it
    serves as the optimality oracle.
    """
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=float).ravel()
    try:
        nu, r_max = _solve_dual(family, a, Z, Y, 1e-12, 200)
    except np.linalg.LinAlgError:
        raise InputError("constrained minimization hit a singular system; is Y attainable?")
    if r_max > 1e-8 * max(1.0, float(np.max(np.abs(Y)))):
        raise InputError("constrained minimization did not converge; is Y attainable?")
    return family.dual_map(a, Z.T @ nu)


def _row_dots(x):
    """x[i] . x[i] for every row, with the bits of each row's own ``x[i].dot(x[i])``
    (a stacked matmul; einsum sums in another order)."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]
