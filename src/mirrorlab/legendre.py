"""Parameterized Legendre/Bregman families R_a and their dual maps Q_a.

Every family is indexed by the accumulated regularization a <= 0 and obeys the
same contract:

* ``grad(a, x)``     is strictly monotone in x (strict convexity of R_a),
* ``dual_map(a, mu)`` inverts it: dual_map(a, grad(a, x)) == x,
* ``dual_map(a, 0) == x_init`` at a == 0, so a flow started with mu = 0
  reproduces the initialization (grad R_0(x_init) == 0).

A family is its dual map: it defines the kernel ``_dual_map`` and
``dual_jacobian``, and the base class derives the rest.  ``dual_map`` checks a
and then mu's shape, so an invalid a is the error every family reports first,
and calls the kernel, which takes a flat float64 mu of length n as given but
still checks a and, where the dual domain is an interval, mu's values.
``argmin_position`` is ``dual_map(a, 0)`` and ``hess`` inverts the dual
Jacobian.  Where R_a has no closed-form gradient (the diff-powers flow and the
commuting-quadratic family) ``grad`` inverts the dual map with the Newton of
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
    """Per-coordinate open interval for the dual variable plus a primal note."""

    dual_lower: np.ndarray
    dual_upper: np.ndarray
    primal: str = "all of R^n"

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
        if a > self.a_upper() + 1e-12:
            raise DomainError(f"{self.tag}: a={a} outside validity interval (-inf, {self.a_upper()}]")
        return a

    def _vec(self, x, name="x"):
        return flat_vector(x, self.n, name)

    # -- family surface ------------------------------------------------------
    def value(self, a, x):
        raise NotImplementedError

    def grad(self, a, x):
        """grad R_a(x), the inverse of the dual map: the oracle's Newton with Z = I.

        Families with a closed form override it.
        """
        a = self.check_a(a)
        x = self._vec(x)
        try:
            mu, r_max = _solve_dual(self, a, np.eye(self.n), x, 1e-12, 100)
        except np.linalg.LinAlgError:
            r_max = np.inf
        if r_max > 1e-6 * max(1.0, float(np.max(np.abs(x)))):
            raise DomainError("dual inversion did not converge; x may lie outside the attainable range")
        return mu

    def dual_map(self, a, mu):
        """Q_a(mu), the gradient of the dual potential; inverts ``grad``.

        An invalid a is reported before a wrong-length mu.
        """
        return self._dual_map(self.check_a(a), self._vec(mu, "mu"))

    def _dual_map(self, a, mu):
        raise NotImplementedError

    def dual_jacobian(self, a, mu):
        """Jacobian of the dual map (Hessian of the dual potential), (n, n)."""
        raise NotImplementedError

    def hess(self, a, x):
        """Hessian of R_a at x; inverse of the dual Jacobian at grad(a, x)."""
        mu = self.grad(a, x)
        return np.linalg.inv(self.dual_jacobian(a, mu))

    def argmin_position(self, a):
        """The unique x with grad R_a(x) = 0."""
        return self.dual_map(a, np.zeros(self.n))

    def domain(self, a):
        self.check_a(a)
        inf = np.full(self.n, np.inf)
        return DomainSpec(-inf, inf)

    def bregman_divergence(self, a, x, y):
        x = self._vec(x)
        y = self._vec(y, "y")
        gy = self.grad(a, y)
        return float(self.value(a, x) - self.value(a, y) - gy @ (x - y))


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

    def prefactor(self, a):
        """A(a) = 2 exp(2a) |u0 v0|; the arcsinh scale."""
        self.check_a(a)
        return 2.0 * np.exp(2.0 * a) * self.c

    def grad(self, a, x):
        a = self.check_a(a)
        x = self._vec(x)
        xt = x * np.exp(-2.0 * a)
        return 0.5 * (np.arcsinh(xt / self.c) - self.offset)

    def value(self, a, x):
        a = self.check_a(a)
        x = self._vec(x)
        s = np.sqrt(x * x + (self.c * np.exp(2.0 * a)) ** 2)
        return float(np.sum(x * self.grad(a, x) - 0.5 * s))

    def _dual_map(self, a, mu):
        a = self.check_a(a)
        e = np.exp(2.0 * mu)
        return 0.5 * np.exp(2.0 * a) * (self.u0sq * e - self.v0sq / e)

    def dual_jacobian(self, a, mu):
        a = self.check_a(a)
        mu = self._vec(mu, "mu")
        e = np.exp(2.0 * mu)
        return np.diag(np.exp(2.0 * a) * (self.u0sq * e + self.v0sq / e))

    def hess(self, a, x):
        x = self._vec(x)
        s = np.sqrt(x * x + (self.c * np.exp(2.0 * self.check_a(a))) ** 2)
        return np.diag(0.5 / s)


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

    @classmethod
    def from_hadamard(cls, m0, w0):
        m0 = np.asarray(m0, dtype=float).ravel()
        w0 = np.asarray(w0, dtype=float).ravel()
        if np.any(m0 != w0) or np.any(m0 <= 0):
            raise InputError("entropy family requires m0 = w0 > 0")
        return cls(m0 * w0)

    def scale(self, a):
        """B(a) = x0 exp(2a); also the position of the minimum."""
        return self.x0 * np.exp(2.0 * self.check_a(a))

    def _check_x(self, x):
        x = self._vec(x)
        if np.any(x <= 0):
            raise DomainError("entropy family is defined for x > 0")
        return x

    def value(self, a, x):
        x = self._check_x(x)
        B = self.scale(a)
        return float(0.5 * np.sum(x * np.log(x / B) - x))

    def grad(self, a, x):
        x = self._check_x(x)
        return 0.5 * np.log(x / self.scale(a))

    def _dual_map(self, a, mu):
        return self.scale(a) * np.exp(2.0 * mu)

    def dual_jacobian(self, a, mu):
        return np.diag(2.0 * self.dual_map(a, mu))

    def hess(self, a, x):
        x = self._check_x(x)
        self.check_a(a)
        return np.diag(0.5 / x)

    def domain(self, a):
        spec = super().domain(a)
        spec.primal = "x > 0 per coordinate"
        return spec


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
        if a >= self.a_upper():
            raise DomainError(f"log-cosh: a={a} must be < {self.a_upper()}")
        return a

    def value(self, a, x):
        a = self.check_a(a)
        x = self._vec(x)
        cu = self.u0sq - 2.0 * a
        cv = self.v0sq - 2.0 * a
        return float(0.25 * np.sum(cu * np.logaddexp(0.0, -2.0 * x) + cv * np.logaddexp(0.0, 2.0 * x)))

    def grad(self, a, x):
        a = self.check_a(a)
        x = self._vec(x)
        sig_pos = 0.5 * (1.0 + np.tanh(x))   # logistic(2x)
        sig_neg = 1.0 - sig_pos
        return 0.5 * ((self.v0sq - 2.0 * a) * sig_pos - (self.u0sq - 2.0 * a) * sig_neg)

    def _dual_map(self, a, mu):
        a = self.check_a(a)
        cu = self.u0sq - 2.0 * a
        cv = self.v0sq - 2.0 * a
        lo, hi = -cu / 2.0, cv / 2.0  # the bounds of domain(a)
        if not ((mu > lo).all() and (mu < hi).all()):
            raise DomainError(f"log-cosh dual point outside ({lo}, {hi})")
        return 0.5 * np.log((cu + 2.0 * mu) / (cv - 2.0 * mu))

    def dual_jacobian(self, a, mu):
        a = self.check_a(a)
        mu = self._vec(mu, "mu")
        num = self.u0sq - 2.0 * a + 2.0 * mu
        den = self.v0sq - 2.0 * a - 2.0 * mu
        return np.diag(1.0 / num + 1.0 / den)

    def hess(self, a, x):
        a = self.check_a(a)
        x = self._vec(x)
        sig = 0.5 * (1.0 + np.tanh(x))
        return np.diag((self.u0sq + self.v0sq - 4.0 * a) * sig * (1.0 - sig))

    def domain(self, a):
        a = self.check_a(a)
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

    def domain(self, a):
        _, cu, cv = self._shifted(a)
        return DomainSpec(-cv, cu, primal="open, shrinking with a")

    def _dual_map(self, a, mu):
        a, cu, cv = self._shifted(a)
        if not ((mu > -cv).all() and (mu < cu).all()):
            raise DomainError(f"dual point outside the interval ({-cv}, {cu}) at a={a}")
        up = (self.K * (cu - mu)) ** (-self.gamma)
        vp = (self.K * (cv + mu)) ** (-self.gamma)
        return up - vp

    def dual_jacobian(self, a, mu):
        a = self.check_a(a)
        mu = self._vec(mu, "mu")
        gK = self.gamma * self.K
        up = gK * (self.K * (self.c_u + a - mu)) ** (-self.gamma - 1.0)
        vp = gK * (self.K * (self.c_v + a + mu)) ** (-self.gamma - 1.0)
        return np.diag(up + vp)

    def value(self, a, x):
        raise UnsupportedOperation("diff-powers flow has no closed-form potential")


class QuadraticFamily(LegendreFamily):
    """Family induced by commuting quadratic maps G_i = w^T A_i w / 2, H = w^T B w / 2.

    The dual potential is Q_a(mu) = ||exp(a B + sum_i mu_i A_i) w_init||^2 / 4,
    evaluated in a joint eigenbasis of the commuting matrices.  The family is
    contracting exactly when B is positive semidefinite.
    """

    tag = "quadratic"

    def __init__(self, A_list, B, w_init, diag_tol=1e-8):
        A_list, B = quadratic_matrices(A_list, B)
        w_init = flat_vector(w_init, B.shape[0], "w_init")
        super().__init__(len(A_list))
        self.dim = B.shape[0]
        V = _joint_eigenbasis(A_list + [B], diag_tol)
        self.lam = np.stack([np.diag(V.T @ A @ V) for A in A_list])  # (n, dim)
        self.b = np.diag(V.T @ B @ V)
        self.z2 = (V.T @ w_init) ** 2
        self.basis = V

    @classmethod
    def from_parameterization(cls, p):
        return cls(p.A, p.B, p.w_init)

    def a_upper(self):
        return np.inf

    def _phase(self, a, mu):
        return a * self.b + self.lam.T @ mu  # (dim,)

    def dual_potential(self, a, mu):
        """Q_a(mu) = sum_j z_j^2 exp(2 phi_j) / 4."""
        mu = self._vec(mu, "mu")
        return float(0.25 * np.sum(self.z2 * np.exp(2.0 * self._phase(float(a), mu))))

    def _dual_map(self, a, mu):
        e = self.z2 * np.exp(2.0 * self._phase(float(a), mu))
        return 0.5 * self.lam @ e

    def dual_jacobian(self, a, mu):
        mu = self._vec(mu, "mu")
        e = self.z2 * np.exp(2.0 * self._phase(float(a), mu))
        return (self.lam * e) @ self.lam.T

    def value(self, a, x):
        mu = self.grad(a, x)
        return float(mu @ self._vec(x) - self.dual_potential(a, mu))

    def domain(self, a):
        inf = np.full(self.n, np.inf)
        return DomainSpec(-inf, inf, primal="closure of the dual-map range")


def _joint_eigenbasis(mats, tol, attempts=8):
    """Orthogonal basis diagonalizing a list of commuting symmetric matrices.

    Diagonalizes a random linear combination and validates the off-diagonal
    residuals; retries with fresh coefficients if a degenerate combination is
    drawn.
    """
    rng = make_rng(1234)
    dim = mats[0].shape[0]
    for _ in range(attempts):
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

    Passes when every slope is <= tol.  Samples whose value is undefined at
    some grid point (domain exit for the most negative a) are skipped and
    counted.
    """
    a_grid = np.asarray(a_grid, dtype=float)
    if a_grid.ndim != 1 or len(a_grid) < 2 or np.any(np.diff(a_grid) <= 0):
        raise InputError("a_grid must be increasing with at least two points")
    max_slope = -np.inf
    n_pairs = 0
    n_skipped = 0
    for x in x_samples:
        try:
            vals = np.array([family.value(a, x) for a in a_grid])
        except (DomainError, UnsupportedOperation):
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
    """Default matched family for a parameterization (used by equivalence checks)."""
    from . import reparam

    if isinstance(p, reparam.Hadamard) or (isinstance(p, reparam.DeepHadamard) and p.depth == 2):
        m0, w0 = p.split(p.w_init)
        if np.all(m0 == w0) and np.all(m0 > 0):
            return Entropy(m0 * w0)
        return HyperbolicEntropy.from_hadamard(m0, w0)
    if isinstance(p, reparam.QuadraticCommuting):
        return QuadraticFamily.from_parameterization(p)
    if isinstance(p, reparam.DiffPowers):
        return DiffPowersFlow(p.k, p.u0, p.v0)
    if isinstance(p, reparam.LogRatio):
        return LogCosh(p.u0, p.v0)
    raise InputError(f"no default family for parameterization {p.tag!r}")
