"""Time integration of regularized parameter flows and their dual mirror flows.

Two flows are implemented over one fixed-step Euler/RK4 engine, ``_integrate``,
which the experiment runners share.  The engine also keeps every run's
record: a per-snapshot hook returns named values, and ``_integrate`` stacks
them with the step index and time into one array per name.


* parameter space:  dw = -(Jg(w)^T grad_f(g(w)) + alpha_t grad_h(w)) dt
* dual space:       dmu = -grad_f(Q_{a_t}(mu)) dt,  x_t = Q_{a_t}(mu_t), mu_0 = 0

``verify_equivalence`` drives both on the same grid and reports the sup
deviation of the model-space iterates; it is the executable form of the
equivalence between the two descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reparam
from .core import (DivergedError, DomainError, DomainExitError, InputError,
                   IntegratorConfig, Schedule, Trajectory)

DIVERGENCE_LIMIT = 1e12


class QuadraticLoss:
    """f(x) = (x - target)^T M (x - target) / 2 with M positive semidefinite."""

    def __init__(self, M, target):
        self.M = np.asarray(M, dtype=float)
        self.target = np.asarray(target, dtype=float).ravel()

    def value(self, x):
        r = np.asarray(x, dtype=float).ravel() - self.target
        return float(0.5 * r @ (self.M @ r))

    def grad(self, x):
        r = np.asarray(x, dtype=float).ravel() - self.target
        return self.M @ r


class LinearRegressionLoss:
    """Least squares f(x) = ||Z x - y||^2 / (2 d), d the number of rows of Z.

    The package's one least-squares loss: the sensing and dictionary losses
    in ``experiments`` only choose Z and the divisor d.
    """

    def __init__(self, Z, y):
        self.Z = np.asarray(Z, dtype=float)
        self.y = np.asarray(y, dtype=float).ravel()
        self.d = max(1, self.Z.shape[0])

    def value(self, x):
        r = self.Z @ np.asarray(x, dtype=float).ravel() - self.y
        return float(0.5 * r @ r / self.d)

    # Z.dot(x) and r.dot(Z) run the same gemv as Z @ x and Z.T @ r with fewer
    # calls around it, so they return the same bits
    def grad(self, x):
        r = self.Z.dot(np.asarray(x, dtype=float).ravel()) - self.y
        return r.dot(self.Z) / self.d

    def value_and_grad(self, x):
        """(value(x), grad(x)) from one residual; the same bits as the two calls."""
        r = self.Z.dot(np.asarray(x, dtype=float).ravel()) - self.y
        return float(0.5 * r @ r / self.d), r.dot(self.Z) / self.d


class ZeroLoss:
    """Identically zero objective; isolates the pure regularization drift."""

    def __init__(self, n):
        self.n = n

    def value(self, x):
        return 0.0

    def grad(self, x):
        return np.zeros(self.n)


def _integrate(rhs, state0, n_steps, h, record_every, record, method="euler"):
    """Fixed-step Euler/RK4 on the grid t_k = k h with a divergence guard.

    ``rhs(t, state, left_limit)`` is the vector field.  ``record(k, t, state)``
    sees the initial state, every ``record_every``-th step and the last step,
    and returns a dict of named values for that snapshot; the engine keeps
    them.  States are never modified in place.  Integration stops early when
    a step leaves the finite range or exceeds DIVERGENCE_LIMIT, or when
    ``rhs`` or ``record`` raises DomainError; the last healthy step is then
    recorded only if it fell on the record grid.

    Returns (state, status, records): the last state computed (the offending
    one after a divergence); None on success or ("diverged"|"domain", t, exc)
    on early exit, t being the time of the last state accepted; and a dict
    mapping "step", "t" and every name the hook returns to an array with one
    entry per snapshot.
    """
    state = np.array(state0, dtype=float)
    t = 0.0
    columns = {"step": [], "t": []}

    def snapshot(k, t, state):
        row = record(k, t, state)
        columns["step"].append(k)
        columns["t"].append(t)
        for name, value in row.items():
            columns.setdefault(name, []).append(value)

    status = None
    try:
        snapshot(0, t, state)
        for k in range(1, n_steps + 1):
            if method == "euler":
                new = state + h * rhs(t, state, False)
            else:
                # the final stage sits on the next grid node, where a schedule
                # may jump; evaluate its left limit there to integrate each
                # smooth segment at full order
                k1 = rhs(t, state, False)
                k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1, False)
                k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2, False)
                k4 = rhs(t + h, state + h * k3, True)
                new = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.abs(new).max() <= DIVERGENCE_LIMIT:  # NaN fails the comparison too
                state, status = new, ("diverged", t, None)
                break
            state, t = new, k * h
            if k % record_every == 0 or k == n_steps:
                snapshot(k, t, state)
    except DomainError as exc:
        status = ("domain", t, exc)
    return state, status, {name: np.asarray(col) for name, col in columns.items()}


def run_param_flow(p, loss, schedule: Schedule, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the regularized gradient flow in parameter space.

    Records w, x = g(w), y = h(w), the accumulated strength a and the loss.
    Raises DivergedError (with the partial trajectory attached) if the state
    leaves the finite range, DomainExitError if a variant's domain is left.
    """

    def rhs(t, w, left_limit):
        alpha = schedule.alpha_left(t) if left_limit else schedule.alpha(t)
        return p.flow_rhs(w, loss.grad(p.g(w)), alpha)

    def record(k, t, w):
        x = p.g(w)
        row = {"params": w, "x": x, "y": p.h(w), "train_loss": loss.value(x)}
        if hasattr(p, "inside_unit_region"):
            row["unit_region"] = 1.0 if p.inside_unit_region(w) else 0.0
        return row

    _, status, rec = _integrate(rhs, p.w_init, *cfg.grid(), cfg.record_every, record, cfg.method)
    traj = Trajectory(
        times=rec["t"],
        a=schedule.a(rec["t"]),
        x=rec["x"],
        params=rec["params"],
        y=rec["y"],
        metrics={name: rec[name] for name in ("train_loss", "unit_region") if name in rec},
        steps=rec["step"],
    )
    if status is not None:
        kind, t_bad, exc = status
        if kind == "diverged":
            raise DivergedError(f"parameter flow diverged near t={t_bad:.6g}", t_bad, traj)
        raise DomainExitError(f"parameter flow left its domain near t={t_bad:.6g}: {exc}", t_bad,
                              trajectory=traj)
    return traj


def run_mirror_flow(family, loss, schedule: Schedule, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the dual flow dmu = -grad_f(Q_{a_t}(mu)) dt from mu_0 = 0."""

    def rhs(t, mu, left_limit):
        return -loss.grad(family.dual_map(schedule.a(t), mu))

    def record(k, t, mu):
        x = family.dual_map(schedule.a(t), mu)
        return {"mu": mu, "x": x, "train_loss": loss.value(x)}

    _, status, rec = _integrate(rhs, np.zeros(family.n), *cfg.grid(), cfg.record_every, record,
                                cfg.method)
    traj = Trajectory(
        times=rec["t"],
        a=schedule.a(rec["t"]),
        x=rec["x"],
        mu=rec["mu"],
        metrics={"train_loss": rec["train_loss"]},
        steps=rec["step"],
    )
    if status is not None:
        kind, t_bad, exc = status
        if kind == "diverged":
            raise DivergedError(f"mirror flow diverged near t={t_bad:.6g}", t_bad, traj)
        try:
            bounds = family.domain(schedule.a(t_bad))
        except DomainError:
            bounds = None
        raise DomainExitError(f"dual iterate left the domain near t={t_bad:.6g}: {exc}", t_bad,
                              bounds=bounds, trajectory=traj)
    return traj


@dataclass
class EquivalenceReport:
    pair: str
    max_deviation: float
    tol: float
    passed: bool
    n_points: int


_MATCHED_PAIRS = {
    ("hadamard", "hyperbolic-entropy"),
    ("hadamard", "entropy"),
    ("deep-hadamard", "hyperbolic-entropy"),
    ("deep-hadamard", "entropy"),
    ("quadratic", "quadratic"),
    ("diff-powers", "diff-powers-flow"),
}


def verify_equivalence(p, family, loss, schedule: Schedule, cfg: IntegratorConfig,
                       tol=1e-4) -> EquivalenceReport:
    """Run the parameter flow and the mirror flow and compare model iterates.

    Only matched (parameterization, family) pairs are accepted; product
    parameterizations of depth three or more are refused outright since their
    coordinate fields do not commute with weight decay.
    """
    if isinstance(p, reparam.DeepHadamard) and p.depth >= 3:
        raise InputError("depth >= 3 products do not commute with weight decay; no matched family")
    if (p.tag, family.tag) not in _MATCHED_PAIRS:
        raise InputError(f"unmatched pair: parameterization {p.tag!r} with family {family.tag!r}")
    x0_param = p.g(p.w_init)
    x0_family = family.dual_map(0.0, np.zeros(family.n))
    scale = max(1.0, float(np.max(np.abs(x0_param))))
    if np.max(np.abs(x0_param - x0_family)) > 1e-8 * scale:
        raise InputError("family payload does not reproduce the parameterization's initialization")

    traj_p = run_param_flow(p, loss, schedule, cfg)
    traj_m = run_mirror_flow(family, loss, schedule, cfg)
    n = min(len(traj_p), len(traj_m))
    dev = float(np.max(np.abs(traj_p.x[:n] - traj_m.x[:n])))
    return EquivalenceReport(
        pair=f"{p.tag}/{family.tag}",
        max_deviation=dev,
        tol=tol,
        passed=dev <= tol,
        n_points=n,
    )


def riemannian_residual(family, traj: Trajectory, loss, schedule: Schedule, t_from):
    """Residual of dx/dt = -hess(R_{a_T})^(-1) grad_f(x) after the turn-off time.

    Velocities come from central differences on the recorded grid, the metric
    Hessian is analytic per family.  Only the frozen-geometry segment is
    checked, so t_from must not precede the schedule's turn-off.
    """
    if schedule.kind == "constant" and schedule.alpha0 > 0:
        raise InputError("constant nonzero schedules never turn off; no frozen-geometry segment")
    turnoff = 0.0 if schedule.alpha0 == 0 else schedule.turnoff_time
    if t_from < turnoff - 1e-12:
        raise InputError(f"t_from={t_from} precedes the turn-off time {turnoff}")
    a_T = float(schedule.a(traj.times[-1]))
    # the centered stencil must lie wholly in the frozen segment: the velocity
    # is kinked at the switch, so both neighbors must sit at or after t_from
    idx = [i for i in range(1, len(traj) - 1) if traj.times[i - 1] >= t_from - 1e-12]
    if not idx:
        raise InputError("no interior recorded points at or after t_from")
    times = traj.times[idx]
    residuals = np.empty(len(idx))
    for out, i in enumerate(idx):
        dt = traj.times[i + 1] - traj.times[i - 1]
        xdot = (traj.x[i + 1] - traj.x[i - 1]) / dt
        H = family.hess(a_T, traj.x[i])
        drift = np.linalg.solve(H, loss.grad(traj.x[i]))
        residuals[out] = np.linalg.norm(xdot + drift)
    return times, residuals
