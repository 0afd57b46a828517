"""Shared numeric substrate: regularization schedules, run records, small helpers.

Time-varying regularization is described by a `Schedule`, which exposes both the
instantaneous strength ``alpha(t)`` and the accumulated (negated) integral
``a(t) = -int_0^t alpha(s) ds`` in closed form.  ``a`` is the single scalar that
parameterizes every time-dependent mirror geometry in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MirrorlabError(Exception):
    """Base class for errors raised by this package."""


class InputError(MirrorlabError, ValueError):
    """Invalid argument or configuration."""


class DomainError(MirrorlabError, ValueError):
    """A point lies outside the domain of the function being evaluated."""


class UnsupportedOperation(MirrorlabError, NotImplementedError):
    """The requested closed form does not exist for this family."""


class DivergedError(MirrorlabError, RuntimeError):
    """A flow left the finite range; carries the last valid time and the
    ``RunRecord`` up to it."""

    def __init__(self, message, last_valid_time, record=None):
        super().__init__(message)
        self.last_valid_time = last_valid_time
        self.record = record


class DomainExitError(MirrorlabError, RuntimeError):
    """A dual iterate left the (possibly shrinking) domain of the dual map;
    carries the exit time, the domain's bounds there and the ``RunRecord``."""

    def __init__(self, message, time, bounds=None, record=None):
        super().__init__(message)
        self.time = time
        self.bounds = bounds
        self.record = record


SCHEDULE_KINDS = ("constant", "turnoff", "linear-decay", "cosine-decay")


@dataclass(frozen=True)
class Schedule:
    """Regularization strength alpha(t) >= 0 with closed-form accumulated integral.

    kind:
        "constant"       alpha(t) = alpha0
        "turnoff"        alpha(t) = alpha0 for t < T, 0 afterwards
        "linear-decay"   alpha(t) = alpha0 * (1 - t/T) on [0, T], 0 afterwards
        "cosine-decay"   alpha(t) = alpha0 * (1 + cos(pi t/T)) / 2 on [0, T], 0 afterwards

    The decaying kinds all satisfy alpha(t) = 0 for t >= T.  Linear and cosine
    decay both integrate to alpha0*T/2, so matching a total amount of applied
    regularization across kinds is a matter of choosing T.  ``alpha`` is
    right-continuous: its left piece at T is its value at the float just
    below T, where the adaptive integrators evaluate a step that lands on T.

    ``alpha`` and ``a`` accept a scalar or an array.  A scalar ``t``, such
    as the float time the integrators pass at every stage, takes a scalar
    path that builds no arrays; it performs the same floating-point
    operations as the array path and so returns the same bits.
    """

    kind: str
    alpha0: float
    turnoff_time: float = 0.0
    t_end: float = 1.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise InputError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        check_finite(alpha0=self.alpha0, turnoff_time=self.turnoff_time, t_end=self.t_end)
        if self.alpha0 < 0:
            raise InputError(f"alpha0 must be nonnegative, got {self.alpha0}")
        if self.t_end <= 0:
            raise InputError(f"t_end must be positive, got {self.t_end}")
        if self.kind != "constant" and self.turnoff_time <= 0:
            raise InputError(f"{self.kind} schedule needs turnoff_time > 0, got {self.turnoff_time}")

    def alpha(self, t):
        """Instantaneous strength at time t (scalar or array)."""
        t = _check_time(t)
        T = self.turnoff_time
        if isinstance(t, float):
            if self.kind == "constant":
                return float(self.alpha0)
            if not t < T:
                return 0.0
            if self.kind == "turnoff":
                return float(self.alpha0)
            if self.kind == "linear-decay":
                return self.alpha0 * (1.0 - t / T)
            return self.alpha0 * (1.0 + np.cos(np.pi * t / T)) / 2.0
        if self.kind == "constant":
            return np.full(t.shape, self.alpha0)
        if self.kind == "turnoff":
            return np.where(t < T, self.alpha0, 0.0)
        if self.kind == "linear-decay":
            return np.where(t < T, self.alpha0 * (1.0 - t / T), 0.0)
        return np.where(t < T, self.alpha0 * (1.0 + np.cos(np.pi * np.minimum(t, T) / T)) / 2.0, 0.0)

    def a(self, t):
        """Accumulated integral a(t) = -int_0^t alpha(s) ds, in closed form."""
        t = _check_time(t)
        T = self.turnoff_time
        if self.kind == "constant":
            return -self.alpha0 * t
        # on floats min(t, T) equals np.minimum(t, T), NaN t included
        tc = min(t, T) if isinstance(t, float) else np.minimum(t, T)
        if self.kind == "turnoff":
            return -self.alpha0 * tc
        if self.kind == "linear-decay":
            return -self.alpha0 * (tc - tc * tc / (2.0 * T))
        return -self.alpha0 * (tc / 2.0 + (T / (2.0 * np.pi)) * np.sin(np.pi * tc / T))

    def total_strength(self):
        """-a(inf): the total amount of regularization the schedule can apply."""
        if self.kind == "constant":
            return self.alpha0 * self.t_end
        if self.kind == "turnoff":
            return self.alpha0 * self.turnoff_time
        return self.alpha0 * self.turnoff_time / 2.0


def _check_time(t):
    """t as a float if it is a scalar, else as a float array; t must be nonnegative.

    A float t is passed through without building an array.
    """
    if not isinstance(t, float):
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            t = float(t)
    if (t < 0) if isinstance(t, float) else np.any(t < 0):
        raise InputError("time must be nonnegative")
    return t


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator settings shared by the parameter and mirror flows.

    "euler" takes fixed steps of ``step`` (adjusted to land on ``t_end``);
    "dop853" takes error-controlled steps and reads the same record times
    from its dense output, with ``step`` as its first trial step and the
    scale of its step floor; "bdf" does the same with implicit steps, for
    stiff flows, which explicit steps cross at their stability limit.
    """

    method: str = "dop853"
    step: float = 1e-3
    t_end: float = 1.0
    record_every: int = 1

    def __post_init__(self):
        if self.method not in ("euler", "dop853", "bdf"):
            raise InputError(f"method must be 'euler', 'dop853' or 'bdf', got {self.method!r}")
        check_finite(step=self.step, t_end=self.t_end)
        if self.step <= 0:
            raise InputError("step must be positive")
        if self.t_end <= 0:
            raise InputError("t_end must be positive")
        if self.step > self.t_end:
            raise InputError("step must not exceed t_end")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")

    def grid(self):
        """Number of steps and the adjusted step landing exactly on t_end."""
        n = max(1, int(round(self.t_end / self.step)))
        return n, self.t_end / n


@dataclass
class RunRecord:
    """The record of one run of a flow or a runner: the engine's tables, one
    row per snapshot.

    ``steps``, ``times`` and ``a`` are the step index, time and accumulated
    strength of each snapshot, and ``metrics`` maps every other column name
    to its table (a scalar series, or a stacked state such as "x").
    ``diverged`` says the run stopped early, on a divergence or a domain
    exit; ``summary`` holds its scalar results and ``config`` what produced it.
    """

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

    @classmethod
    def from_tables(cls, kind, config, tables, summary, status, **fields):
        """The record of the engine's ``tables`` and ``status`` (None unless the
        run stopped early): every table but "step", "t" and "a" is a metric."""
        metrics = dict(tables)
        steps, times, a = metrics.pop("step"), metrics.pop("t"), metrics.pop("a")
        return cls(kind=kind, config=config, steps=steps, times=times, a=a, metrics=metrics,
                   summary=summary, diverged=status is not None, **fields)


def check_finite(**values):
    """InputError naming the first of ``values`` that is not a finite number.

    The configs' range checks compare with ``<=`` and ``<``, which NaN passes,
    so each config calls this first.
    """
    for name, value in values.items():
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")


def make_rng(seed):
    """Single 64-bit-seeded counter-based generator used everywhere; the seed
    is None or an integer in [0, 2**64)."""
    if seed is not None and not (isinstance(seed, (int, np.integer)) and 0 <= seed < 2 ** 64):
        raise InputError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.default_rng(np.uint64(seed) if seed is not None else None)


def flat_vector(x, n, what):
    """x as a flat float array of length n; InputError naming `what` otherwise.

    The shape check of the public methods, which the flows run once per run
    and at records, not at every stage: a contiguous float64 ndarray of shape
    (n,), which is what ``np.asarray(x, dtype=float).ravel()`` would return a
    view of, is returned as it is; anything else is converted and raveled
    first.
    """
    if (type(x) is np.ndarray and x.shape == (n,) and x.dtype == np.float64
            and x.flags.c_contiguous):
        return x
    x = np.asarray(x, dtype=float).ravel()
    if x.size != n:
        raise InputError(f"{what} has length {x.size}, expected {n}")
    return x


def factor_pair(u0, v0):
    """u0 and v0 as flat float arrays of one length: the two-factor initializations."""
    u0 = np.asarray(u0, dtype=float).ravel()
    v0 = np.asarray(v0, dtype=float).ravel()
    if u0.size != v0.size:
        raise InputError("u0 and v0 must have the same length")
    return u0, v0


def quadratic_matrices(A_list, B):
    """A_list and B as float arrays: at least one A_i, and every matrix square,
    nonempty, of B's size and symmetric; InputError otherwise."""
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    if not A_list:
        raise InputError("need at least one matrix A_i")
    B = np.asarray(B, dtype=float)
    for M in A_list + [B]:
        if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape != B.shape:
            raise InputError("all matrices must be square and of equal size")
        if M.size == 0:
            raise InputError("matrices must be at least 1 x 1")
        if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, float(np.max(np.abs(M)))):
            raise InputError("matrices must be symmetric")
    return A_list, B


def sym(X):
    return 0.5 * (X + X.T)
