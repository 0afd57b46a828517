"""Reparameterization/regularizer pairs (g, h) with exact Jacobians and gradients.

Each variant maps a packed parameter vector of length ``dim_params`` to a model
vector of length ``dim_model`` and carries the matching explicit regularizer h.
The right-hand side of the regularized gradient flow,

    dw/dt = -(Jg(w)^T grad_f(g(w)) + alpha * grad_h(w)),

is exposed as ``flow_rhs`` so integrators never have to know the variant.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, InputError, sym


class Parameterization:
    """Base class; subclasses fill in g, h and their derivatives."""

    tag = "base"
    sample_box = (-2.0, 2.0)  # box used by numeric structure checks

    def __init__(self, dim_params, dim_model, w_init):
        self.dim_params = int(dim_params)
        self.dim_model = int(dim_model)
        self.w_init = np.asarray(w_init, dtype=float).ravel()
        if self.w_init.size != self.dim_params:
            raise InputError(f"w_init has length {self.w_init.size}, expected {self.dim_params}")

    def _check_params(self, w):
        w = np.asarray(w, dtype=float).ravel()
        if w.size != self.dim_params:
            raise InputError(f"parameter vector has length {w.size}, expected {self.dim_params}")
        return w

    def g(self, w):
        raise NotImplementedError

    def h(self, w):
        raise NotImplementedError

    def jac_g(self, w):
        """Jacobian of g, shape (dim_model, dim_params)."""
        raise NotImplementedError

    def grad_h(self, w):
        raise NotImplementedError

    def flow_rhs(self, w, grad_f_x, alpha):
        w = self._check_params(w)
        grad_f_x = np.asarray(grad_f_x, dtype=float).ravel()
        if grad_f_x.size != self.dim_model:
            raise InputError(f"loss gradient has length {grad_f_x.size}, expected {self.dim_model}")
        return -(self.jac_g(w).T @ grad_f_x + alpha * self.grad_h(w))


class DeepHadamard(Parameterization):
    """Elementwise product of `depth` factor vectors with weight decay.

    g(f_1, .., f_k) = f_1 * f_2 * .. * f_k  (elementwise),
    h = h_scale * sum_j ||f_j||^2.

    h_scale = 0.5 (the default) gives the plain weight-decay flow -alpha * w;
    h_scale = 1.0 is the sum-of-squares normalization under which the depth-k
    bracket of g with h has the closed form (4 - 2k) * prod of the other
    factors.  Brackets are linear in h, so the two differ by that factor only.
    Depth 2 commutes with h; depth >= 3 does not.
    """

    tag = "deep-hadamard"

    def __init__(self, factor_inits, h_scale=0.5):
        factors = [np.asarray(f, dtype=float).ravel() for f in factor_inits]
        if len(factors) < 2:
            raise InputError("need at least two factors")
        n = factors[0].size
        if any(f.size != n for f in factors):
            raise InputError("all factors must have the same length")
        self.depth = len(factors)
        self.h_scale = float(h_scale)
        super().__init__(self.depth * n, n, np.concatenate(factors))

    def split(self, w):
        return self._check_params(w).reshape(self.depth, self.dim_model)

    def g(self, w):
        return np.prod(self.split(w), axis=0)

    def h(self, w):
        return self.h_scale * float(np.sum(self._check_params(w) ** 2))

    def jac_g(self, w):
        f = self.split(w)
        n = self.dim_model
        J = np.zeros((n, self.dim_params))
        for j in range(self.depth):
            others = np.prod(np.delete(f, j, axis=0), axis=0)
            J[np.arange(n), j * n + np.arange(n)] = others
        return J

    def grad_h(self, w):
        return 2.0 * self.h_scale * self._check_params(w)


class Hadamard(DeepHadamard):
    """g(m, w) = m * w with h = (||m||^2 + ||w||^2) / 2 (plain weight decay)."""

    tag = "hadamard"

    def __init__(self, m0, w0):
        super().__init__([m0, w0])


class DiffSquares(Parameterization):
    """g(u, v) = u^2 - v^2 with h = sum c_u u_i^2 - c_v v_i^2.

    c_u = 1, c_v = -1 gives weight decay on both factor vectors.  Rotating the
    Hadamard coordinates by u = (m+w)/sqrt(2), v = (m-w)/sqrt(2) gives
    u^2 - v^2 = 2 m*w, i.e. this variant equals twice the Hadamard map under
    that change of variables.
    """

    tag = "diff-squares"

    def __init__(self, u0, v0, c_u=1.0, c_v=-1.0):
        u0 = np.asarray(u0, dtype=float).ravel()
        v0 = np.asarray(v0, dtype=float).ravel()
        if u0.size != v0.size:
            raise InputError("u0 and v0 must have the same length")
        super().__init__(2 * u0.size, u0.size, np.concatenate([u0, v0]))
        self.c_u = float(c_u)
        self.c_v = float(c_v)
        self.u0, self.v0 = u0, v0

    def split(self, w):
        w = self._check_params(w)
        n = self.dim_model
        return w[:n], w[n:]

    def g(self, w):
        u, v = self.split(w)
        return u * u - v * v

    def h(self, w):
        u, v = self.split(w)
        return float(self.c_u * np.sum(u * u) - self.c_v * np.sum(v * v))

    def jac_g(self, w):
        u, v = self.split(w)
        n = self.dim_model
        J = np.zeros((n, 2 * n))
        J[np.arange(n), np.arange(n)] = 2.0 * u
        J[np.arange(n), n + np.arange(n)] = -2.0 * v
        return J

    def grad_h(self, w):
        u, v = self.split(w)
        return np.concatenate([2.0 * self.c_u * u, -2.0 * self.c_v * v])


class DiffPowers(Parameterization):
    """g(u, v) = u^(2k) - v^(2k) with h = sum u_i^(2k) + v_i^(2k)."""

    tag = "diff-powers"
    sample_box = (0.5, 2.5)

    def __init__(self, k, u0, v0):
        if int(k) < 1:
            raise InputError("k must be a positive integer")
        u0 = np.asarray(u0, dtype=float).ravel()
        v0 = np.asarray(v0, dtype=float).ravel()
        if u0.size != v0.size:
            raise InputError("u0 and v0 must have the same length")
        super().__init__(2 * u0.size, u0.size, np.concatenate([u0, v0]))
        self.k = int(k)
        self.u0, self.v0 = u0, v0

    def split(self, w):
        w = self._check_params(w)
        n = self.dim_model
        return w[:n], w[n:]

    def g(self, w):
        u, v = self.split(w)
        p = 2 * self.k
        return u**p - v**p

    def h(self, w):
        u, v = self.split(w)
        p = 2 * self.k
        return float(np.sum(u**p) + np.sum(v**p))

    def jac_g(self, w):
        u, v = self.split(w)
        n = self.dim_model
        p = 2 * self.k
        J = np.zeros((n, 2 * n))
        J[np.arange(n), np.arange(n)] = p * u ** (p - 1)
        J[np.arange(n), n + np.arange(n)] = -p * v ** (p - 1)
        return J

    def grad_h(self, w):
        u, v = self.split(w)
        p = 2 * self.k
        return np.concatenate([p * u ** (p - 1), p * v ** (p - 1)])


class LogRatio(Parameterization):
    """g(u, v) = log u - log v with h = sum log u_i + log v_i, for u, v > 0.

    Evaluation only requires positivity; ``inside_unit_region`` reports whether
    all factors exceed 1, the regime where the structural guarantees hold.
    Flows crossing below 1 are flagged rather than rejected.
    """

    tag = "log-ratio"
    sample_box = (0.5, 2.5)

    def __init__(self, u0, v0):
        u0 = np.asarray(u0, dtype=float).ravel()
        v0 = np.asarray(v0, dtype=float).ravel()
        if u0.size != v0.size:
            raise InputError("u0 and v0 must have the same length")
        if np.any(u0 <= 0) or np.any(v0 <= 0):
            raise DomainError("log-ratio factors must be positive")
        super().__init__(2 * u0.size, u0.size, np.concatenate([u0, v0]))
        self.u0, self.v0 = u0, v0

    def split(self, w):
        w = self._check_params(w)
        n = self.dim_model
        u, v = w[:n], w[n:]
        if np.any(u <= 0) or np.any(v <= 0):
            raise DomainError("log-ratio evaluation needs u, v > 0")
        return u, v

    def inside_unit_region(self, w):
        w = self._check_params(w)
        return bool(np.all(w > 1.0))

    def g(self, w):
        u, v = self.split(w)
        return np.log(u) - np.log(v)

    def h(self, w):
        u, v = self.split(w)
        return float(np.sum(np.log(u)) + np.sum(np.log(v)))

    def jac_g(self, w):
        u, v = self.split(w)
        n = self.dim_model
        J = np.zeros((n, 2 * n))
        J[np.arange(n), np.arange(n)] = 1.0 / u
        J[np.arange(n), n + np.arange(n)] = -1.0 / v
        return J

    def grad_h(self, w):
        u, v = self.split(w)
        return np.concatenate([1.0 / u, 1.0 / v])


class QuadraticCommuting(Parameterization):
    """G_i(w) = w^T A_i w / 2 and H(w) = w^T B w / 2 for symmetric matrices.

    The matrices are expected to commute pairwise (including B); this is what
    the numeric structure checks verify.
    """

    tag = "quadratic"

    def __init__(self, A_list, B, w_init):
        A_list = [np.asarray(A, dtype=float) for A in A_list]
        B = np.asarray(B, dtype=float)
        D = B.shape[0]
        for M in A_list + [B]:
            if M.shape != (D, D):
                raise InputError("all matrices must be square and of equal size")
            if np.max(np.abs(M - M.T)) > 1e-12 * max(1.0, np.max(np.abs(M))):
                raise InputError("matrices must be symmetric")
        super().__init__(D, len(A_list), w_init)
        self.A_list = [sym(A) for A in A_list]
        self.B = sym(B)

    def g(self, w):
        w = self._check_params(w)
        return np.array([0.5 * w @ (A @ w) for A in self.A_list])

    def h(self, w):
        w = self._check_params(w)
        return float(0.5 * w @ (self.B @ w))

    def jac_g(self, w):
        w = self._check_params(w)
        return np.stack([A @ w for A in self.A_list])

    def grad_h(self, w):
        return self.B @ self._check_params(w)


class SymFactor(Parameterization):
    """Symmetric factorization X = U U^T with weight decay h = ||U||_F^2 / 2.

    Parameters are U raveled; the model vector is X raveled (n*n entries).
    ``flow_rhs`` follows the factored-sensing convention

        dU/dt = -(sym(grad_f_X) U + alpha U),

    i.e. the loss gradient enters once, not through the full chain rule
    (which would double it); grad_f_X is symmetrized to absorb numeric
    asymmetry.  Equivalently this is the gradient flow of f/2 + alpha h.
    """

    tag = "sym-factor"

    def __init__(self, U0):
        U0 = np.asarray(U0, dtype=float)
        if U0.ndim != 2 or U0.shape[0] != U0.shape[1]:
            raise InputError("U0 must be a square matrix")
        self.n = U0.shape[0]
        super().__init__(self.n * self.n, self.n * self.n, U0.ravel())

    def as_matrix(self, w):
        return self._check_params(w).reshape(self.n, self.n)

    def g(self, w):
        U = self.as_matrix(w)
        return (U @ U.T).ravel()

    def h(self, w):
        return 0.5 * float(np.sum(self._check_params(w) ** 2))

    def jac_g(self, w):
        # d(U U^T)_{ij} / dU_{kl} = delta_{ik} U_{jl} + delta_{jk} U_{il}
        U = self.as_matrix(w)
        n = self.n
        eye = np.eye(n)
        J = np.einsum("ik,jl->ijkl", eye, U) + np.einsum("jk,il->ijkl", eye, U)
        return J.reshape(n * n, n * n)

    def grad_h(self, w):
        return self._check_params(w).copy()

    def flow_rhs(self, w, grad_f_x, alpha):
        U = self.as_matrix(w)
        S = np.asarray(grad_f_x, dtype=float).reshape(self.n, self.n)
        return -(sym(S) @ U + alpha * U).ravel()
