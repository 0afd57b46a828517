"""Reparameterization/regularizer pairs (g, h) with exact Jacobians and gradients.

Each variant maps a packed parameter vector of length ``dim_params`` to a model
vector of length ``dim_model`` and carries the matching explicit regularizer h.
The right-hand side of the regularized gradient flow,

    dw/dt = -(Jg(w)^T grad_f(g(w)) + alpha * grad_h(w)),

is exposed as ``flow_rhs`` so integrators never have to know the variant.  It
takes the vector-Jacobian product ``vjp_g(w, v) = Jg(w)^T v``, which the
elementwise variants compute without forming Jg; the dense ``jac_g`` serves the
structure checks in ``commute``.  Each ``vjp_g`` multiplies in the order of the
dense product (coefficient, then ``v``), so both give the same bits.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, InputError, factor_pair, flat_vector, sym


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
        return flat_vector(w, self.dim_params, "parameter vector")

    def g(self, w):
        raise NotImplementedError

    def h(self, w):
        raise NotImplementedError

    def jac_g(self, w):
        """Jacobian of g, shape (dim_model, dim_params)."""
        raise NotImplementedError

    def vjp_g(self, w, v):
        """Jg(w)^T v, shape (dim_params,); variants with a sparse Jg override it."""
        return self.jac_g(w).T @ v

    def grad_h(self, w):
        raise NotImplementedError

    def flow_rhs(self, w, grad_f_x, alpha):
        w = self._check_params(w)
        grad_f_x = flat_vector(grad_f_x, self.dim_model, "loss gradient")
        return -(self.vjp_g(w, grad_f_x) + alpha * self.grad_h(w))


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
        self._others_table = list(np.array([[i for i in range(self.depth) if i != j]
                                            for j in range(self.depth)]).T)
        super().__init__(self.depth * n, n, np.concatenate(factors))

    def split(self, w):
        return self._check_params(w).reshape(self.depth, self.dim_model)

    def g(self, w):
        # the reduction np.prod(axis=0) runs, without its wrapper
        return np.multiply.reduce(self.split(w))

    def h(self, w):
        return self.h_scale * float(np.sum(self._check_params(w) ** 2))

    def _other_factors(self, f):
        """Row j: the elementwise product of every factor but f_j, in factor order."""
        if self.depth == 2:
            return f[::-1]
        # column c of the table holds, for every row j, the c-th factor other
        # than f_j; multiplying the gathered columns left to right keeps the
        # factor order in every row
        first, second, *rest = self._others_table
        out = f[first] * f[second]
        for column in rest:
            out *= f[column]
        return out

    def jac_g(self, w):
        n = self.dim_model
        J = np.zeros((n, self.dim_params))
        for j, others in enumerate(self._other_factors(self.split(w))):
            J[np.arange(n), j * n + np.arange(n)] = others
        return J

    def vjp_g(self, w, v):
        return (self._other_factors(self.split(w)) * v).ravel()

    def grad_h(self, w):
        return 2.0 * self.h_scale * self._check_params(w)


class Hadamard(DeepHadamard):
    """g(m, w) = m * w with h = (||m||^2 + ||w||^2) / 2 (plain weight decay)."""

    tag = "hadamard"

    def __init__(self, m0, w0):
        super().__init__([m0, w0])


class TwoFactor(Parameterization):
    """Base of the variants g(u, v) on two factor vectors packed as w = [u, v]."""

    def __init__(self, u0, v0):
        u0, v0 = factor_pair(u0, v0)
        super().__init__(2 * u0.size, u0.size, np.concatenate([u0, v0]))
        self.u0, self.v0 = u0, v0

    def split(self, w):
        w = self._check_params(w)
        n = self.dim_model
        return w[:n], w[n:]


class DiffSquares(TwoFactor):
    """g(u, v) = u^2 - v^2 with h = sum c_u u_i^2 - c_v v_i^2.

    c_u = 1, c_v = -1 gives weight decay on both factor vectors.  Rotating the
    Hadamard coordinates by u = (m+w)/sqrt(2), v = (m-w)/sqrt(2) gives
    u^2 - v^2 = 2 m*w, i.e. this variant equals twice the Hadamard map under
    that change of variables.
    """

    tag = "diff-squares"

    def __init__(self, u0, v0, c_u=1.0, c_v=-1.0):
        super().__init__(u0, v0)
        self.c_u = float(c_u)
        self.c_v = float(c_v)

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

    def vjp_g(self, w, v):
        pos, neg = self.split(w)
        return np.concatenate([2.0 * pos * v, -2.0 * neg * v])

    def grad_h(self, w):
        u, v = self.split(w)
        return np.concatenate([2.0 * self.c_u * u, -2.0 * self.c_v * v])


class DiffPowers(TwoFactor):
    """g(u, v) = u^(2k) - v^(2k) with h = sum u_i^(2k) + v_i^(2k)."""

    tag = "diff-powers"
    sample_box = (0.5, 2.5)

    def __init__(self, k, u0, v0):
        if int(k) < 1:
            raise InputError("k must be a positive integer")
        super().__init__(u0, v0)
        self.k = int(k)

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

    def vjp_g(self, w, v):
        pos, neg = self.split(w)
        p = 2 * self.k
        return np.concatenate([p * pos ** (p - 1) * v, -p * neg ** (p - 1) * v])

    def grad_h(self, w):
        u, v = self.split(w)
        p = 2 * self.k
        return np.concatenate([p * u ** (p - 1), p * v ** (p - 1)])


class LogRatio(TwoFactor):
    """g(u, v) = log u - log v with h = sum log u_i + log v_i, for u, v > 0.

    Evaluation only requires positivity; ``inside_unit_region`` reports whether
    all factors exceed 1, the regime where the structural guarantees hold.
    Flows crossing below 1 are flagged rather than rejected.
    """

    tag = "log-ratio"
    sample_box = (0.5, 2.5)

    def __init__(self, u0, v0):
        super().__init__(u0, v0)
        if np.any(self.u0 <= 0) or np.any(self.v0 <= 0):
            raise DomainError("log-ratio factors must be positive")

    def split(self, w):
        u, v = super().split(w)
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

    def vjp_g(self, w, v):
        pos, neg = self.split(w)
        return np.concatenate([1.0 / pos * v, -1.0 / neg * v])

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
        S = flat_vector(grad_f_x, self.dim_model, "loss gradient").reshape(self.n, self.n)
        return -(sym(S) @ U + alpha * U).ravel()
