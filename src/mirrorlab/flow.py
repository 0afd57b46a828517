"""Time integration of regularized parameter flows and their dual mirror flows.

Two flows are implemented over one engine, ``_integrate``, which the
experiment runners share.  It steps by fixed-step Euler or RK4, or by
"dopri5", Dormand & Prince's error-controlled 5(4) pair (tolerances
``RTOL`` and ``ATOL``), whose steps land on every record time of the fixed
grid and on the schedule's turn-off time; the runners take Euler steps of
their learning rate, and ``verify optimality`` runs dopri5.  The engine also
keeps every run's record: a per-snapshot hook returns named values, which
the engine holds by reference in a block of up to ``RECORD_BLOCK``
snapshots.  A full block, and the last one, is stacked name by name, passed
through the run's optional finisher, which computes statistics of the
stacked states in one call per block, and written with the step index and
time into one preallocated table per column.  A hook must therefore not
modify a value after returning it.


* parameter space:  dw = -(Jg(w)^T grad_f(g(w)) + alpha_t grad_h(w)) dt
* dual space:       dmu = -grad_f(Q_{a_t}(mu)) dt,  x_t = Q_{a_t}(mu_t), mu_0 = 0

``verify_equivalence`` drives both on the same grid and reports the sup
deviation of the model-space iterates; it is the executable form of the
equivalence between the two descriptions.

Both flows check shapes once, at the run boundary: one public, checked
evaluation of the field at the initial state raises ``InputError`` for a
parameterization, family and loss that do not fit together.  Every stage
and record then calls the unchecked kernels: the parameterization's ``_g``,
``_h`` and ``_flow_rhs``, the loss's ``_value`` and ``_grad`` and the
family's ``_dual_map``, which still make their value checks (domain,
positivity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import reparam
from .core import (DivergedError, DomainError, DomainExitError, InputError,
                   IntegratorConfig, Schedule, Trajectory, flat_vector)

DIVERGENCE_LIMIT = 1e12
# a state whose squared norm is at most this has every entry inside the limit
# (with a factor-of-two margin for the dot's roundoff), so one dot clears it
_FAST_SQUARED_BOUND = 0.5 * DIVERGENCE_LIMIT ** 2
# snapshots per record block: the engine holds at most this many hook rows
# before it stacks them and writes its tables.  At 32 the per-call cost of
# the stacked statistics is already amortized, and a sensing run (n = 20,
# record_every=50) peaks at the traced memory of one write per snapshot;
# 64 is no faster and adds 0.2 MB to that peak
RECORD_BLOCK = 32

# error control of the "dopri5" method: tolerances per entry, and the
# smallest step as a fraction of the nominal step h.  No step is shorter than
# the floor, so a run takes at most 1000 times the steps of its fixed grid;
# the smallest step of the optimality flows, seeds 0-4, is 0.047 h
RTOL = 1e-12
ATOL = 1e-14
STEP_FLOOR = 1e-3
# Dormand & Prince's 5(4) pair (J. Comput. Appl. Math. 6, 1980): the stage
# matrix, whose last row is the fifth-order weights, so that the seventh stage
# is the field at the new state; the stage times; and the error weights,
# fifth- minus fourth-order
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


class QuadraticLoss:
    """f(x) = (x - target)^T M (x - target) / 2 with M positive semidefinite."""

    def __init__(self, M, target):
        self.M = np.asarray(M, dtype=float)
        self.target = np.asarray(target, dtype=float).ravel()
        if self.M.shape != (self.target.size,) * 2:
            raise InputError(f"M has shape {self.M.shape}, expected a square matrix of the "
                             f"target's length {self.target.size}")

    def value(self, x):
        return self._value(flat_vector(x, self.target.size, "model vector x"))

    def grad(self, x):
        return self._grad(flat_vector(x, self.target.size, "model vector x"))

    # the kernels take a flat float64 x of the target's length as given
    def _value(self, x):
        r = x - self.target
        return float(0.5 * r @ (self.M @ r))

    def _grad(self, x):
        return self.M @ (x - self.target)


class LinearRegressionLoss:
    """Least squares f(x) = ||Z x - y||^2 / (2 d), d the number of rows of Z.

    The package's one least-squares loss: the sensing and dictionary losses
    in ``experiments`` only choose Z and the divisor d.
    """

    def __init__(self, Z, y):
        self.Z = np.asarray(Z, dtype=float)
        self.y = np.asarray(y, dtype=float).ravel()
        if self.Z.ndim != 2:
            raise InputError(f"Z has {self.Z.ndim} dimensions, expected a 2-D matrix")
        if self.y.size != self.Z.shape[0]:
            raise InputError(f"y has length {self.y.size}, expected one entry per row of Z "
                             f"({self.Z.shape[0]})")
        self.d = max(1, self.Z.shape[0])

    def value(self, x):
        return self._value(flat_vector(x, self.Z.shape[1], "model vector x"))

    def grad(self, x):
        return self._grad(flat_vector(x, self.Z.shape[1], "model vector x"))

    def value_and_grad(self, x):
        """(value(x), grad(x)) from one residual; the same bits as the two calls."""
        return self._value_and_grad(flat_vector(x, self.Z.shape[1], "model vector x"))

    # the kernels take a flat float64 x with one entry per column of Z as
    # given.  Z.dot(x) and r.dot(Z) run the same gemv as Z @ x and Z.T @ r
    # with fewer calls around it, so they return the same bits
    def _value(self, x):
        r = self.Z @ x - self.y
        return float(0.5 * r @ r / self.d)

    def _grad(self, x):
        return (self.Z.dot(x) - self.y).dot(self.Z) / self.d

    def _value_and_grad(self, x):
        r = self.Z.dot(x) - self.y
        return float(0.5 * r @ r / self.d), r.dot(self.Z) / self.d


class ZeroLoss:
    """Identically zero objective; isolates the pure regularization drift."""

    def __init__(self, n):
        self.n = n

    def value(self, x):
        return self._value(flat_vector(x, self.n, "model vector x"))

    def grad(self, x):
        return self._grad(flat_vector(x, self.n, "model vector x"))

    def _value(self, x):
        return 0.0

    def _grad(self, x):
        return np.zeros(self.n)


def _integrate(rhs, state0, n_steps, h, record_every, record, method="euler", finish=None,
               breaks=()):
    """Euler, RK4 or Dormand-Prince 5(4) over the grid t_k = k h with a divergence guard.

    ``rhs(t, state, left_limit)`` is the vector field.  ``record(k, t, state)``
    sees the initial state, every ``record_every``-th step and the last step,
    and returns a dict of named values for that snapshot; every snapshot must
    return the names of the first, or ValueError is raised.  States are never
    modified in place.  Integration stops early when a step leaves the finite
    range or exceeds DIVERGENCE_LIMIT, or when ``rhs`` or ``record`` raises
    DomainError; the last healthy step is then recorded only if it fell on
    the record grid.  The guard first tries one dot product,
    ``new . new <= DIVERGENCE_LIMIT**2 / 2``, and only a state that fails it
    pays for the exact ``max |new_i| <= DIVERGENCE_LIMIT``.

    Euler and RK4 take the ``n_steps`` steps of size ``h``.  "dopri5" takes
    error-controlled steps (``_dopri5``) that land exactly on every record
    time k h of that grid and on every time in ``breaks``, where the field
    may jump or kink; the fixed methods ignore ``breaks``.  Its records have
    the same "step" and "t" columns as RK4's, and the guard and the status
    of an early exit are the same.

    The record is written a block of up to ``RECORD_BLOCK`` snapshots at a
    time.  The block holds each hook row by reference, so a hook must not
    modify a value after returning it (states never are, and the kernels
    return fresh arrays).  A full block is flushed, and so is the last one
    when the run ends or stops early: each name is stacked over the block,
    and a value whose shape differs from the name's first raises ValueError
    naming its step rather than broadcasting.  ``finish(steps, times,
    block)``, if given, turns the stacked block (a dict of arrays with one
    row per snapshot) into the columns to keep, one row per snapshot each,
    so statistics of the states cost one vectorized call per block;
    without it the stacked hook values are the columns.

    The columns are kept in one table per name, sized to the
    ``1 + ceil(n_steps / record_every)`` snapshots of a finished run:
    "step" (int64) and "t" (float64) exist from the start, and each column
    gets a float64 table of shape ``(rows,) + column.shape[1:]`` at the
    first flush and is written with one slice assignment per block.

    Returns (state, status, records): the last state computed (the offending
    one after a divergence); None on success or ("diverged"|"domain", t, exc)
    on early exit, t being the time of the last state accepted; and a dict
    mapping "step", "t" and every column name to its table.  A finished run
    returns the full tables; an early exit returns a compact copy of the
    filled rows, which owns its data.
    """
    state = np.array(state0, dtype=float)
    t = 0.0
    rows = 1 + n_steps // record_every + (n_steps % record_every != 0)
    tables = {"step": np.empty(rows, dtype=np.int64), "t": np.empty(rows)}
    shapes = None  # the shape of each hook name's value at the first snapshot
    block_steps, block_times, block_rows = [], [], []
    filled = 0

    def snapshot(k, t, state):
        nonlocal shapes
        row = record(k, t, state)
        if shapes is None:
            shapes = {name: np.shape(value) for name, value in row.items()}
        elif row.keys() != shapes.keys():
            raise ValueError(f"record at step {k} returned {sorted(row)}, "
                             f"expected the first snapshot's {sorted(shapes)}")
        block_rows.append(row)
        block_steps.append(k)
        block_times.append(t)
        if len(block_rows) == RECORD_BLOCK:
            flush()

    def flush():
        nonlocal filled
        if not block_rows:
            return
        steps, times = np.array(block_steps, dtype=np.int64), np.array(block_times)
        block = {name: _stack(name, [row[name] for row in block_rows], block_steps, shape)
                 for name, shape in shapes.items()}
        block_steps.clear()
        block_times.clear()
        block_rows.clear()
        columns = block if finish is None else finish(steps, times, block)
        end = filled + len(steps)
        for name, col in columns.items():
            if len(col) != len(steps):
                raise ValueError(f"record column {name!r} has {len(col)} rows for a block "
                                 f"of {len(steps)} snapshots")
            if name not in tables:
                tables[name] = np.empty((rows,) + col.shape[1:])
            tables[name][filled:end] = col
        tables["step"][filled:end] = steps
        tables["t"][filled:end] = times
        filled = end

    status = None
    try:
        snapshot(0, t, state)
        if method == "dopri5":
            for t_new, new, k in _dopri5(rhs, state, n_steps, h, record_every, breaks):
                if _runaway(new):
                    state, status = new, ("diverged", t, None)
                    break
                state, t = new, t_new
                if k is not None:
                    snapshot(k, t, state)
        else:
            for k in range(1, n_steps + 1):
                if method == "euler":
                    new = state + h * rhs(t, state, False)
                else:
                    # the final stage sits on the next grid node, where a
                    # schedule may jump; evaluate its left limit there to
                    # integrate each smooth segment at full order
                    k1 = rhs(t, state, False)
                    k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1, False)
                    k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2, False)
                    k4 = rhs(t + h, state + h * k3, True)
                    new = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                if _runaway(new):
                    state, status = new, ("diverged", t, None)
                    break
                state, t = new, k * h
                if k % record_every == 0 or k == n_steps:
                    snapshot(k, t, state)
    except DomainError as exc:
        status = ("domain", t, exc)
    flush()
    if filled < rows:
        tables = {name: col[:filled].copy() for name, col in tables.items()}
    return state, status, tables


def _runaway(new):
    """Whether a step's state left the finite range or exceeds DIVERGENCE_LIMIT.

    The dot clears almost every state; NaN, inf and large entries fall
    through to the exact test, which NaN fails too."""
    return not new.dot(new) <= _FAST_SQUARED_BOUND and not np.abs(new).max() <= DIVERGENCE_LIMIT


def _landings(n_steps, h, record_every, breaks):
    """The times an adaptive run must land on, in order, as (t, k, is_break):
    every record time t = k h of the fixed grid, with its step index k, and
    every break in (0, n_steps h], with k None unless it is a record time."""
    nodes = list(range(record_every, n_steps, record_every)) + [n_steps]
    cuts = sorted({float(b) for b in breaks if 0.0 < b <= n_steps * h}, reverse=True)
    for k in nodes:
        t = k * h
        while cuts and cuts[-1] < t:
            yield cuts.pop(), None, True
        on_break = bool(cuts) and cuts[-1] == t
        if on_break:
            cuts.pop()
        yield t, k, on_break


def _dopri5(rhs, y, n_steps, h, record_every, breaks):
    """The accepted steps of Dormand-Prince 5(4), as (t, state, k).

    k is the step index of a record time of the fixed grid and None between
    them.  A step is accepted when the RMS norm of its error estimate,
    relative to ``ATOL + RTOL * max(|y|, |y_new|)`` per entry, is at most 1;
    the next step is ``0.9 err^(-1/5)`` times this one, within [0.2, 5].  A
    stage that raises DomainError, or is not finite, rejects the step, which
    is retried at 0.2 of its size.  Steps never shrink below ``STEP_FLOOR *
    h``, and a step of the floor's size is taken whatever its error: there
    the caller's guard stops a runaway state, and a DomainError propagates,
    as on a fixed step.

    A step that ends on a break evaluates its two stages at the right end,
    where a schedule may jump, with ``left_limit`` set, and the next step
    evaluates the field afresh there; every other step reuses its last stage
    as the next one's first (first same as last).
    """
    floor = STEP_FLOOR * h
    K = np.empty((7, y.size))
    t, dt, fresh = 0.0, h, True
    for t_next, k, is_break in _landings(n_steps, h, record_every, breaks):
        while t < t_next:
            lands = t + dt >= t_next
            step = t_next - t if lands else dt
            t_new = t_next if lands else t + dt
            left = lands and is_break
            if fresh:
                K[0] = rhs(t, y, False)
            try:
                # a trial step may overflow or divide by an underflowed value;
                # its non-finite error rejects it
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    new, err = _dopri5_step(rhs, t, y, K, step, t_new, left)
            except DomainError:
                if step <= floor:
                    raise
                err = np.inf
            fresh = False
            if not err <= 1.0 and step > floor:
                dt = max(floor, step * _step_factor(err))
                continue
            yield t_new, new, k if lands else None
            # a step cut short to land keeps the size it was proposed at
            dt = max(floor, step * _step_factor(err), dt if lands else 0.0)
            t, y = t_new, new
            fresh = left
            if not fresh:
                K[0] = K[6]


def _dopri5_step(rhs, t, y, K, dt, t_new, left):
    """One Dormand-Prince step of size dt from (t, y), K[0] holding the field
    at (t, y): fills K[1:] and returns the new state and the squared RMS norm
    of the scaled error estimate."""
    dtA = dt * _DP_A
    for i in range(1, 7):
        stage = y + dtA[i, :i] @ K[:i]
        # the last two stages sit at the right end, t_new exactly
        K[i] = rhs(t_new, stage, left) if i >= 5 else rhs(t + _DP_C[i] * dt, stage, False)
    new = stage  # the seventh stage is evaluated at the fifth-order solution
    scaled = (dt * _DP_E) @ K / (ATOL + RTOL * np.maximum(np.abs(y), np.abs(new)))
    return new, float(scaled.dot(scaled)) / scaled.size


def _step_factor(err):
    """The next step over this one, ``0.9 err^(-1/5)`` within [0.2, 5], for
    the squared RMS error norm ``err``; 0.2 when ``err`` is not finite."""
    if err == 0.0:
        return 5.0
    if not err < np.inf:
        return 0.2
    return min(5.0, max(0.2, 0.9 * err ** -0.1))


def _stack(name, values, steps, shape):
    """The values of one hook name over a block, as a float64 array with one
    row per snapshot; ValueError naming the first step whose value does not
    have ``shape``, the name's shape at the first snapshot."""
    try:
        stacked = np.array(values, dtype=float)
        if stacked.shape[1:] == shape:
            return stacked
    except ValueError:  # values of different shapes do not stack
        pass
    for k, value in zip(steps, values):
        if np.shape(value) != shape:
            raise ValueError(f"record at step {k} returned {name!r} of shape "
                             f"{np.shape(value)}, expected {shape}")
    return np.array(values, dtype=float)  # every shape fits: raise the conversion's error


def _breaks(schedule):
    """Where a schedule's strength jumps or kinks: its turn-off time, for
    every kind but constant."""
    return () if schedule.kind == "constant" else (schedule.turnoff_time,)


def run_param_flow(p, loss, schedule: Schedule, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the regularized gradient flow in parameter space.

    Records w, x = g(w), y = h(w), the accumulated strength a and the loss.
    Raises DivergedError (with the partial trajectory attached) if the state
    leaves the finite range, DomainExitError if a variant's domain is left.
    """
    # the one shape check: a loss that does not fit p raises InputError here
    p.flow_rhs(p.w_init, loss.grad(p.g(p.w_init)), 0.0)

    def rhs(t, w, left_limit):
        alpha = schedule.alpha_left(t) if left_limit else schedule.alpha(t)
        return p._flow_rhs(w, loss._grad(p._g(w)), alpha)

    def record(k, t, w):
        x = p._g(w)
        row = {"params": w, "x": x, "y": p._h(w), "train_loss": loss._value(x)}
        if hasattr(p, "inside_unit_region"):
            row["unit_region"] = 1.0 if p._inside_unit_region(w) else 0.0
        return row

    _, status, rec = _integrate(rhs, p.w_init, *cfg.grid(), cfg.record_every, record, cfg.method,
                                breaks=_breaks(schedule))
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
    mu0 = np.zeros(family.n)
    # the one shape check: a loss that does not fit the family raises
    # InputError here, and its gradient must have one entry per dual coordinate
    flat_vector(loss.grad(family.dual_map(schedule.a(0.0), mu0)), family.n, "loss gradient")

    def rhs(t, mu, left_limit):
        return -loss._grad(family._dual_map(schedule.a(t), mu))

    def record(k, t, mu):
        x = family._dual_map(schedule.a(t), mu)
        return {"mu": mu, "x": x, "train_loss": loss._value(x)}

    _, status, rec = _integrate(rhs, mu0, *cfg.grid(), cfg.record_every, record, cfg.method,
                                breaks=_breaks(schedule))
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
