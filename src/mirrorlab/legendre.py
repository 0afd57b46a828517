"""Parameterized Legendre/Bregman families R_a and their dual maps Q_a.

Every family is indexed by the accumulated regularization a <= 0 and obeys the
same contract:

* ``grad(a, x)``     is strictly monotone in x (strict convexity of R_a),
* ``dual_map(a, mu)`` inverts it: dual_map(a, grad(a, x)) == x,
* ``dual_map(a, 0) == x_init`` at a == 0, so a flow started with mu = 0
  reproduces the initialization (grad R_0(x_init) == 0).

A family is its dual map.  The base class's public ``value``, ``grad``,
``dual_map``, ``dual_jacobian`` and ``domain`` are the one place that checks
a and then the shape of x or mu, so an invalid a is the error every family
reports first; each then calls its kernel (``_value``, ``_grad``,
``_dual_map``, ``_dual_jacobian``, ``_domain``), and families override
kernels only.  A kernel takes a valid a and a flat float64 vector of length n
as given but still checks values: where x must be positive or the dual domain
is an interval, and where a has exhausted the dual domain.  ``_value`` also
takes a column (G, 1) of valid strengths and returns G values, so ``value``
evaluates a curve over a grid of strengths in one call.  The mirror flow
steps on ``_dual_map`` directly.  ``argmin_position`` is ``dual_map(a, 0)``.
Where R_a has no closed-form gradient (the diff-powers flow and the
commuting-quadratic family) ``_grad`` inverts the dual map with the Newton of
``_solve_dual``, the same solver that ``experiments.constrained_argmin`` runs
as the optimality oracle.

Values are normalized as the convex conjugate of the dual potential, which
pins every additive constant; this matters for the contracting check, where
the slope of a -> R_a(x) is the quantity of interest.

Where a printed closed form in the literature disagrees with these
normalization requirements by a constant factor, the self-consistent form is
used; the discrepancies are noted next to the affected family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DomainError, InputError, UnsupportedOperation, factor_pair, flat_vector,
                   make_rng, quadratic_matrices)


@dataclass
class DomainSpec:
    """Per-coordinate open interval for the dual variable."""

    dual_lower: np.ndarray
    dual_upper: np.ndarray

    @property
    def lengths(self):
        return self.dual_upper - self.dual_lower


class LegendreFamily:
    tag = "base"

    def __init__(self, n):
        self.n = int(n)

    # -- validity -----------------------------------------------------------
    def a_upper(self):
        """Supremum of the validity interval A = (-inf, a_upper]."""
        return 0.0

    def check_a(self, a):
        a = float(a)
        if not a <= self.a_upper() + 1e-12:  # NaN fails too
            raise DomainError(f"{self.tag}: a={a} outside validity interval (-inf, {self.a_upper()}]")
        return a

    def _vec(self, x, name="x"):
        return flat_vector(x, self.n, name)

    # -- family surface: check a, then the vector's shape, then run the kernel
    def value(self, a, x):
        """R_a(x) as a float; for a 1-D array of strengths, one R_a(x) per
        strength from one kernel call, after every strength is checked."""
        if np.ndim(a) == 0:
            return float(self._value(self.check_a(a), self._vec(x)))
        if np.ndim(a) != 1:
            raise InputError(f"a must be a scalar or a 1-D grid, got shape {np.shape(a)}")
        a = np.array([self.check_a(ai) for ai in a])
        return self._value(a[:, None], self._vec(x))

    def grad(self, a, x):
        """grad R_a(x), the inverse of ``dual_map``."""
        return self._grad(self.check_a(a), self._vec(x))

    def dual_map(self, a, mu):
        """Q_a(mu), the gradient of the dual potential; inverts ``grad``."""
        return self._dual_map(self.check_a(a), self._vec(mu, "mu"))

    def dual_jacobian(self, a, mu):
        """Jacobian of the dual map (Hessian of the dual potential), (n, n)."""
        return self._dual_jacobian(self.check_a(a), self._vec(mu, "mu"))

    def domain(self, a):
        return self._domain(self.check_a(a))

    def argmin_position(self, a):
        """The unique x with grad R_a(x) = 0."""
        return self.dual_map(a, np.zeros(self.n))

    def bregman_divergence(self, a, x, y):
        a, x, y = self.check_a(a), self._vec(x), self._vec(y, "y")
        return float(self._value(a, x) - self._value(a, y) - self._grad(a, y) @ (x - y))

    # -- kernels -------------------------------------------------------------
    def _value(self, a, x):
        raise NotImplementedError

    def _grad(self, a, x):
        """The oracle's Newton with Z = I; families with a closed form override it."""
        try:
            mu, r_max = _solve_dual(self, a, np.eye(self.n), x, 1e-12, 100)
        except np.linalg.LinAlgError:
            r_max = np.inf
        if r_max > 1e-6 * max(1.0, float(np.max(np.abs(x)))):
            raise DomainError("dual inversion did not converge; x may lie outside the attainable range")
        return mu

    def _dual_map(self, a, mu):
        raise NotImplementedError

    def _dual_jacobian(self, a, mu):
        raise NotImplementedError

    def _domain(self, a):
        inf = np.full(self.n, np.inf)
        return DomainSpec(-inf, inf)


def _solve_dual(family, a, Z, Y, tol, max_iter):
    """(nu, max |r|): Newton from nu = 0 on r(nu) = Z Q_a(Z^T nu) - Y.

    Each step backtracks on the residual norm, halving past candidates that
    leave the dual domain or overflow, and stops once max |r| <= tol *
    max(1, max |Y|) or no halving down to 1e-14 decreases the norm; the caller
    judges the residual it reached.  A singular or non-finite Newton system
    raises ``np.linalg.LinAlgError``.
    """
    nu = np.zeros(Z.shape[0])
    scale = max(1.0, float(np.max(np.abs(Y))))
    r = Z @ family.dual_map(a, Z.T @ nu) - Y
    for _ in range(max_iter):
        if np.max(np.abs(r)) <= tol * scale:
            break
        step = np.linalg.solve(Z @ family.dual_jacobian(a, Z.T @ nu) @ Z.T, r)
        if not np.all(np.isfinite(step)):
            raise np.linalg.LinAlgError("non-finite Newton step")
        t = 1.0
        # an overflowing candidate, or one whose dual map divides by an
        # underflowed exp, is rejected by the finiteness test
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while t > 1e-14:
                cand = nu - t * step
                try:
                    r_cand = Z @ family.dual_map(a, Z.T @ cand) - Y
                except DomainError:
                    t *= 0.5
                    continue
                if np.all(np.isfinite(r_cand)) and np.linalg.norm(r_cand) <= (1 - 1e-4 * t) * np.linalg.norm(r):
                    nu, r = cand, r_cand
                    break
                t *= 0.5
            else:
                break
    return nu, float(np.max(np.abs(r)))


class HyperbolicEntropy(LegendreFamily):
    """Hyperbolic-entropy family for the elementwise product m * w.

    In rotated factor coordinates u0 = (m0+w0)/sqrt2, v0 = (m0-w0)/sqrt2 the
    regularized factor flow gives the dual map

        Q_a(mu) = exp(2a) * (u0^2 exp(2 mu) - v0^2 exp(-2 mu)) / 2,

    whose inverse is arcsinh-shaped with scale A(a) = 2 exp(2a) |u0 v0|:

        grad R_a(x) = (arcsinh(2x / A(a)) - log(u0^2 / |u0 v0|)) / 2.

    The 1/2 prefactor (rather than 1/4) and the |u0 v0| scale are forced by
    grad R_0(x_init) = 0 together with the conjugate normalization.
    """

    tag = "hyperbolic-entropy"

    def __init__(self, u0, v0):
        u0, v0 = factor_pair(u0, v0)
        if np.any(u0 * v0 == 0.0):
            raise DomainError("hyperbolic entropy needs u0_i * v0_i != 0 for every coordinate")
        super().__init__(u0.size)
        self.u0sq = u0 * u0
        self.v0sq = v0 * v0
        self.c = np.sqrt(self.u0sq * self.v0sq)
        self.offset = 0.5 * np.log(self.u0sq / self.v0sq)  # log |u0/v0|

    @classmethod
    def from_hadamard(cls, m0, w0):
        m0 = np.asarray(m0, dtype=float).ravel()
        w0 = np.asarray(w0, dtype=float).ravel()
        root2 = np.sqrt(2.0)
        return cls((m0 + w0) / root2, (m0 - w0) / root2)

    def _grad(self, a, x):
        xt = x * np.exp(-2.0 * a)
        return 0.5 * (np.arcsinh(xt / self.c) - self.offset)

    def _value(self, a, x):
        s = np.sqrt(x * x + (self.c * np.exp(2.0 * a)) ** 2)
        return np.sum(x * self._grad(a, x) - 0.5 * s, axis=-1)

    def _dual_map(self, a, mu):
        e = np.exp(2.0 * mu)
        return 0.5 * np.exp(2.0 * a) * (self.u0sq * e - self.v0sq / e)

    def _dual_jacobian(self, a, mu):
        e = np.exp(2.0 * mu)
        return np.diag(np.exp(2.0 * a) * (self.u0sq * e + self.v0sq / e))


class Entropy(LegendreFamily):
    """Entropy family for m * w with balanced positive initialization m0 = w0.

    The dual map is Q_a(mu) = B(a) exp(2 mu) with B(a) = x0 exp(2a), so

        grad R_a(x) = log(x / B(a)) / 2,
        R_a(x) = ((log(1/B(a)) - 1) x + x log x) / 2.

    The 1/2 prefactor keeps dual_map(grad(x)) = x consistent with the factor
    flow (the unscaled x-log-x form would double the dual exponent).
    """

    tag = "entropy"

    def __init__(self, x0):
        x0 = np.asarray(x0, dtype=float).ravel()
        if np.any(x0 <= 0):
            raise DomainError("entropy family needs x0 > 0")
        super().__init__(x0.size)
        self.x0 = x0

    def _scale(self, a):
        """B(a) = x0 exp(2a); also the position of the minimum."""
        return self.x0 * np.exp(2.0 * a)

    @staticmethod
    def _positive(x):
        if np.any(x <= 0):
            raise DomainError("entropy family is defined for x > 0")
        return x

    def _value(self, a, x):
        x = self._positive(x)
        return 0.5 * np.sum(x * np.log(x / self._scale(a)) - x, axis=-1)

    def _grad(self, a, x):
        return 0.5 * np.log(self._positive(x) / self._scale(a))

    def _dual_map(self, a, mu):
        return self._scale(a) * np.exp(2.0 * mu)

    def _dual_jacobian(self, a, mu):
        return np.diag(2.0 * self._dual_map(a, mu))


class LogCosh(LegendreFamily):
    """Log-ratio family: R_a resembles a rescaled log-cosh.

    R_a(x) = sum_i [ (u0_i^2 - 2a) log(1 + e^(-2x_i))
                   + (v0_i^2 - 2a) log(1 + e^(2x_i)) ] / 4,

    valid for a < min(u0_i^2, v0_i^2)/2.  The minimum sits at
    log sqrt(u0^2 - 2a) - log sqrt(v0^2 - 2a) and drifts toward 0 as a
    decreases.  The coefficients grow as a decreases (u0^2 - 2a); under the
    raw factor flow the factors instead shrink as u0^2 + 2a and can exit
    their domain in finite accumulated strength, so trajectories of the
    log-ratio parameterization are flagged separately by the flow module.
    At a = 0 the two conventions agree exactly.
    """

    tag = "log-cosh"

    def __init__(self, u0, v0):
        u0, v0 = factor_pair(u0, v0)
        if np.any(u0 <= 0) or np.any(v0 <= 0):
            raise DomainError("log-cosh family needs u0, v0 > 0")
        super().__init__(u0.size)
        self.u0sq = u0 * u0
        self.v0sq = v0 * v0
        self._a_sup = 0.5 * float(min(np.min(self.u0sq), np.min(self.v0sq)))

    def a_upper(self):
        return self._a_sup

    def check_a(self, a):
        a = float(a)
        if not a < self.a_upper():  # NaN fails too
            raise DomainError(f"log-cosh: a={a} must be < {self.a_upper()}")
        return a

    def _value(self, a, x):
        cu = self.u0sq - 2.0 * a
        cv = self.v0sq - 2.0 * a
        return 0.25 * np.sum(cu * np.logaddexp(0.0, -2.0 * x) + cv * np.logaddexp(0.0, 2.0 * x),
                             axis=-1)

    def _grad(self, a, x):
        sig_pos = 0.5 * (1.0 + np.tanh(x))   # logistic(2x)
        sig_neg = 1.0 - sig_pos
        return 0.5 * ((self.v0sq - 2.0 * a) * sig_pos - (self.u0sq - 2.0 * a) * sig_neg)

    def _dual_map(self, a, mu):
        cu = self.u0sq - 2.0 * a
        cv = self.v0sq - 2.0 * a
        lo, hi = -cu / 2.0, cv / 2.0  # the bounds of domain(a)
        if not ((mu > lo).all() and (mu < hi).all()):
            raise DomainError(f"log-cosh dual point outside ({lo}, {hi})")
        return 0.5 * np.log((cu + 2.0 * mu) / (cv - 2.0 * mu))

    def _dual_jacobian(self, a, mu):
        num = self.u0sq - 2.0 * a + 2.0 * mu
        den = self.v0sq - 2.0 * a - 2.0 * mu
        return np.diag(1.0 / num + 1.0 / den)

    def _domain(self, a):
        return DomainSpec(-(self.u0sq - 2.0 * a) / 2.0, (self.v0sq - 2.0 * a) / 2.0)


class DiffPowersFlow(LegendreFamily):
    """Dual-map-only family for g(u, v) = u^(2k) - v^(2k), k >= 2.

    There is no closed form for R_a itself; the dual map is

        Q_a(mu) = [K (c_u + a - mu)]^(-gamma) - [K (c_v + a + mu)]^(-gamma),

    with K = 2k(2k-2), gamma = k/(k-1) and per-coordinate constants
    c_u = u0^(2-2k)/K, c_v = v0^(2-2k)/K fixed by Q_0(0) = u0^(2k) - v0^(2k).
    The dual domain mu in (-c_v - a, c_u + a) loses |da| from each endpoint as
    a decreases, the range-shrinking effect; the map diverges at either
    boundary.  grad is the base class's numeric inverse, the oracle's Newton.
    """

    tag = "diff-powers-flow"

    def __init__(self, k, u0, v0):
        k = int(k)
        if k < 2:
            raise InputError("diff-powers flow needs k >= 2 (k = 1 is the hyperbolic case)")
        u0, v0 = factor_pair(u0, v0)
        if np.any(u0 <= 0) or np.any(v0 <= 0):
            raise DomainError("diff-powers flow needs u0, v0 > 0")
        super().__init__(u0.size)
        self.k = k
        self.K = 2.0 * k * (2.0 * k - 2.0)
        self.gamma = k / (k - 1.0)
        self.c_u = u0 ** (2 - 2 * k) / self.K
        self.c_v = v0 ** (2 - 2 * k) / self.K

    def _shifted(self, a):
        """(a, c_u + a, c_v + a) for a valid a; the dual domain is (-(c_v + a), c_u + a)."""
        a = super().check_a(a)
        cu, cv = self.c_u + a, self.c_v + a
        if (cu <= 0).any() or (cv <= 0).any():
            raise DomainError(f"diff-powers flow: a={a} has exhausted the dual domain")
        return a, cu, cv

    def check_a(self, a):
        return self._shifted(a)[0]

    def _domain(self, a):
        _, cu, cv = self._shifted(a)
        return DomainSpec(-cv, cu)

    def _dual_map(self, a, mu):
        a, cu, cv = self._shifted(a)
        if not ((mu > -cv).all() and (mu < cu).all()):
            raise DomainError(f"dual point outside the interval ({-cv}, {cu}) at a={a}")
        up = (self.K * (cu - mu)) ** (-self.gamma)
        vp = (self.K * (cv + mu)) ** (-self.gamma)
        return up - vp

    def _dual_jacobian(self, a, mu):
        gK = self.gamma * self.K
        up = gK * (self.K * (self.c_u + a - mu)) ** (-self.gamma - 1.0)
        vp = gK * (self.K * (self.c_v + a + mu)) ** (-self.gamma - 1.0)
        return np.diag(up + vp)

    def _value(self, a, x):
        raise UnsupportedOperation("diff-powers flow has no closed-form potential")


class QuadraticFamily(LegendreFamily):
    """Family induced by commuting quadratic maps G_i = w^T A_i w / 2, H = w^T B w / 2.

    The dual potential is Q_a(mu) = ||exp(a B + sum_i mu_i A_i) w_init||^2 / 4,
    evaluated in a joint eigenbasis of the commuting matrices, where it is
    sum_j z_j^2 exp(2 phi_j) / 4 with phases phi = a b + lam^T mu.  The family
    is contracting exactly when B is positive semidefinite.
    """

    tag = "quadratic"

    def __init__(self, A_list, B, w_init):
        A_list, B = quadratic_matrices(A_list, B)
        w_init = flat_vector(w_init, B.shape[0], "w_init")
        super().__init__(len(A_list))
        V = _joint_eigenbasis(A_list + [B], 1e-8)
        self.lam = np.stack([np.diag(V.T @ A @ V) for A in A_list])  # (n, dim)
        self.b = np.diag(V.T @ B @ V)
        self.z2 = (V.T @ w_init) ** 2

    def a_upper(self):
        return np.inf

    def _terms(self, a, mu):
        """z_j^2 exp(2 phi_j), four times the terms of the dual potential, (dim,)."""
        return self.z2 * np.exp(2.0 * (a * self.b + self.lam.T @ mu))

    def _dual_map(self, a, mu):
        return 0.5 * self.lam @ self._terms(a, mu)

    def _dual_jacobian(self, a, mu):
        return (self.lam * self._terms(a, mu)) @ self.lam.T

    def _value(self, a, x):
        if np.ndim(a):  # a column of strengths: one Newton solve each
            return np.array([self._value(ai, x) for ai in a[:, 0].tolist()])
        mu = self._grad(a, x)
        return mu @ x - 0.25 * np.sum(self._terms(a, mu))


def _joint_eigenbasis(mats, tol):
    """Orthogonal basis diagonalizing a list of commuting symmetric matrices.

    Diagonalizes a random linear combination and validates the off-diagonal
    residuals; draws fresh coefficients, eight draws at most, while the
    combination drawn is degenerate.
    """
    rng = make_rng(1234)
    for _ in range(8):
        coeffs = rng.standard_normal(len(mats))
        M = sum(c * A for c, A in zip(coeffs, mats))
        _, V = np.linalg.eigh(M)
        ok = True
        for A in mats:
            D = V.T @ A @ V
            off = D - np.diag(np.diag(D))
            if np.max(np.abs(off)) > tol * max(1.0, np.max(np.abs(A))):
                ok = False
                break
        if ok:
            return V
    raise InputError("no joint eigenbasis found: matrices do not commute to tolerance")


@dataclass
class ContractingReport:
    max_slope: float
    max_positive_slope: float
    passed: bool
    tol: float
    n_pairs: int
    n_skipped: int


def contracting_check(family, a_grid, x_samples, tol=1e-8):
    """Finite-difference slopes of a -> R_a(x) over an increasing a-grid.

    Passes when every slope is <= tol.  Samples whose value is undefined or
    not finite at some grid point (domain exit, or an underflowed exp(2a), for
    the most negative a) are skipped and counted.  Each sample takes one
    ``value`` call over the whole grid, so one bad sample aborts no other.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or len(a_grid) < 2 or np.any(np.diff(a_grid) <= 0):
        raise InputError("a_grid must be increasing with at least two points")
    max_slope = -np.inf
    n_pairs = 0
    n_skipped = 0
    for x in x_samples:
        try:
            with np.errstate(all="ignore"):
                vals = family.value(a_grid, x)
        except (DomainError, UnsupportedOperation):
            vals = None
        if vals is None or not np.all(np.isfinite(vals)):
            n_skipped += 1
            continue
        slopes = np.diff(vals) / np.diff(a_grid)
        max_slope = max(max_slope, float(np.max(slopes)))
        n_pairs += len(slopes)
    if n_pairs == 0:
        raise InputError("no usable (a, x) pairs for the contracting check")
    return ContractingReport(
        max_slope=max_slope,
        max_positive_slope=max(0.0, max_slope),
        passed=max_slope <= tol,
        tol=tol,
        n_pairs=n_pairs,
        n_skipped=n_skipped,
    )


def family_for(p):
    """Default matched family for a parameterization (used by equivalence
    checks).  InputError for a product of three or more factors, whose
    coordinate fields do not commute with weight decay, and for a
    parameterization with no family."""
    from . import reparam

    if isinstance(p, reparam.DeepHadamard):  # Hadamard is its depth 2
        if p.depth >= 3:
            raise InputError("depth >= 3 products do not commute with weight decay; "
                             "no matched family")
        m0, w0 = p.w_init.reshape(2, -1)
        if np.all(m0 == w0) and np.all(m0 > 0):
            return Entropy(m0 * w0)
        return HyperbolicEntropy.from_hadamard(m0, w0)
    if isinstance(p, reparam.QuadraticCommuting):
        return QuadraticFamily(p.A, p.B, p.w_init)
    if isinstance(p, reparam.DiffPowers) and p.k > 1:  # k = 1 is DiffSquares
        return DiffPowersFlow(p.k, *p.w_init.reshape(2, -1))
    if isinstance(p, reparam.LogRatio):
        return LogCosh(*p.w_init.reshape(2, -1))
    raise InputError(f"no default family for parameterization {p.tag!r}")
