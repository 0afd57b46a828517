"""Reparameterization/regularizer pairs (g, h) with exact Jacobians and gradients.

Each variant maps a packed parameter vector of length ``dim_params`` to a model
vector of length ``dim_model``, carries the matching explicit regularizer h,
and is defined by four kernels: ``_g``, ``_h``, the vector-Jacobian product
``_vjp_g(w, v) = Jg(w)^T v`` and ``_grad_h``.  The right-hand side of the
gradient flow on f(g(w)) + alpha h(w),

    dw/dt = -(Jg(w)^T grad_f(g(w)) + alpha * grad_h(w)),

is their chain rule, exposed as ``flow_rhs`` so integrators never have to
know the variant.  The VJPs never form Jg: elementwise for the products,
differences and log-ratios, ``v @ (A @ w)`` for the quadratics and
``(V + V^T) U`` for the symmetric factorization.  The dense ``jac_g``, which
serves the structure checks in ``commute``, stacks ``_vjp_g(w, e_i)`` over
the unit vectors, so no variant writes its Jacobian twice.

Shapes are checked at the boundary, values in the kernels.  The public
``g``, ``h``, ``jac_g``, ``vjp_g``, ``grad_h`` and ``flow_rhs`` check the
shape of ``w`` (and of the loss gradient) and call the kernels, which take a
flat float64 ``w`` of length ``dim_params`` as given; subclasses override the
kernels only, and the flows check once per run and then step on them.
Value checks, such as the log-ratio positivity, stay in the kernels.  No
variant overrides the composition ``_flow_rhs``.  At ``alpha == 0`` (decay
switched off) every ``flow_rhs`` returns ``-vjp_g(w, v)`` without forming
``alpha * grad_h(w)``; wherever grad h is finite that gives the same bits up
to the sign of an exact zero.
"""

from __future__ import annotations

import numpy as np

from .core import DomainError, InputError, factor_pair, flat_vector, quadratic_matrices, sym


class Parameterization:
    """Base class; subclasses fill in the kernels _g, _h, _vjp_g and _grad_h.

    The public g, h, jac_g, vjp_g, grad_h and flow_rhs check shapes and call
    the kernels, which take a flat float64 w of length dim_params (and a loss
    gradient of length dim_model) as given; jac_g and _flow_rhs compose them.
    """

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
        """The model vector g(w), shape (dim_model,)."""
        return self._g(self._check_params(w))

    def h(self, w):
        """The regularizer h(w), a float."""
        return self._h(self._check_params(w))

    def jac_g(self, w):
        """Jacobian of g, shape (dim_model, dim_params); row i is Jg(w)^T e_i."""
        w = self._check_params(w)
        rows = [self._vjp_g(w, e) for e in np.eye(self.dim_model)]
        return np.array(rows).reshape(self.dim_model, self.dim_params)

    def vjp_g(self, w, v):
        """Jg(w)^T v, shape (dim_params,)."""
        return self._vjp_g(self._check_params(w), v)

    def grad_h(self, w):
        """grad h(w), shape (dim_params,)."""
        return self._grad_h(self._check_params(w))

    def flow_rhs(self, w, grad_f_x, alpha):
        """-(Jg(w)^T grad_f_x + alpha grad_h(w)), the field of the regularized flow."""
        return self._flow_rhs(self._check_params(w),
                              flat_vector(grad_f_x, self.dim_model, "loss gradient"), alpha)

    # -- kernels: w is a flat float64 vector of length dim_params -----------
    def _g(self, w):
        raise NotImplementedError

    def _h(self, w):
        raise NotImplementedError

    def _vjp_g(self, w, v):
        raise NotImplementedError

    def _grad_h(self, w):
        raise NotImplementedError

    def _flow_rhs(self, w, v, alpha):
        vjp = self._vjp_g(w, v)
        return -(vjp if alpha == 0 else vjp + alpha * self._grad_h(w))


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

    def _g(self, w):
        # the factor rows multiplied left to right, the order np.prod(axis=0) uses
        f = w.reshape(self.depth, self.dim_model)
        out = f[0] * f[1]
        for j in range(2, self.depth):
            out *= f[j]
        return out

    def _h(self, w):
        return self.h_scale * float(np.sum(w ** 2))

    def _other_factors(self, f):
        """Row j: the elementwise product of every factor but f_j, in factor order."""
        if self.depth == 2:
            return f[::-1]
        # column c of the table holds, for every row j, the c-th factor other
        # than f_j; multiplying the gathered columns left to right keeps the
        # factor order in every row
        first, second, *rest = self._others_table
        out = f.take(first, 0) * f.take(second, 0)
        for column in rest:
            out *= f.take(column, 0)
        return out

    def _vjp_g(self, w, v):
        return (self._other_factors(w.reshape(self.depth, self.dim_model)) * v).ravel()

    def _grad_h(self, w):
        return 2.0 * self.h_scale * w


class Hadamard(DeepHadamard):
    """g(m, w) = m * w with h = (||m||^2 + ||w||^2) / 2 (plain weight decay)."""

    tag = "hadamard"

    def __init__(self, m0, w0):
        super().__init__([m0, w0])


class DifferencePair(Parameterization):
    """g(u, v) = phi(u) - phi(v) with h = sum phi(u_i) + phi(v_i), w = [u, v].

    grad h is phi' on both factor vectors, and Jg is diagonal with phi'(u) on
    the u half and -phi'(v) on the v half.  Subclasses give ``_phi`` and
    ``_slopes``, phi and phi' on the (2, n) factor rows ``_rows`` of a checked
    w; each method below evaluates one of them once, and negating a product is
    exact, so -(c * x) gives the bits of (-c) * x.
    """

    sample_box = (0.5, 2.5)

    def __init__(self, u0, v0):
        u0, v0 = factor_pair(u0, v0)
        super().__init__(2 * u0.size, u0.size, np.concatenate([u0, v0]))

    def _rows(self, w):
        """The (2, n) factor rows [u, v] of a checked w."""
        return w.reshape(2, self.dim_model)

    def _phi(self, f):
        raise NotImplementedError

    def _slopes(self, f):
        raise NotImplementedError

    def _g(self, w):
        f = self._phi(self._rows(w))
        return f[0] - f[1]

    def _h(self, w):
        f = self._phi(self._rows(w))
        return float(np.sum(f[0]) + np.sum(f[1]))

    def _vjp_g(self, w, v):
        s = self._slopes(self._rows(w))
        return np.concatenate([s[0] * v, -s[1] * v])

    def _grad_h(self, w):
        return self._slopes(self._rows(w)).ravel()


class DiffPowers(DifferencePair):
    """g(u, v) = u^(2k) - v^(2k) with h = sum u_i^(2k) + v_i^(2k)."""

    tag = "diff-powers"

    def __init__(self, k, u0, v0):
        if int(k) < 1:
            raise InputError("k must be a positive integer")
        super().__init__(u0, v0)
        self.k = int(k)

    def _phi(self, f):
        return f ** (2 * self.k)

    def _slopes(self, f):
        p = 2 * self.k
        return p * f ** (p - 1)


class DiffSquares(DiffPowers):
    """g(u, v) = u^2 - v^2 with weight decay h = sum u_i^2 + v_i^2, DiffPowers at k = 1.

    Rotating the Hadamard coordinates by u = (m+w)/sqrt(2), v = (m-w)/sqrt(2)
    gives u^2 - v^2 = 2 m*w, i.e. this variant equals twice the Hadamard map
    under that change of variables.
    """

    tag = "diff-squares"
    sample_box = (-2.0, 2.0)

    def __init__(self, u0, v0):
        super().__init__(1, u0, v0)


class LogRatio(DifferencePair):
    """g(u, v) = log u - log v with h = sum log u_i + log v_i, for u, v > 0.

    Evaluation only requires positivity; ``_inside_unit_region`` reports
    whether all factors exceed 1, the regime where the structural guarantees
    hold.  Flows crossing below 1 are flagged rather than rejected.
    """

    tag = "log-ratio"

    def __init__(self, u0, v0):
        super().__init__(u0, v0)
        if np.any(self.w_init <= 0):
            raise DomainError("log-ratio factors must be positive")

    def _rows(self, w):
        f = super()._rows(w)
        if np.any(f <= 0):
            raise DomainError("log-ratio evaluation needs u, v > 0")
        return f

    def _inside_unit_region(self, w):
        return bool((w > 1.0).all())

    def _phi(self, f):
        return np.log(f)

    def _slopes(self, f):
        return 1.0 / f


class QuadraticCommuting(Parameterization):
    """G_i(w) = w^T A_i w / 2 and H(w) = w^T B w / 2 for symmetric matrices.

    The matrices are expected to commute pairwise (including B); this is what
    the numeric structure checks verify.  ``A`` stacks the A_i, shape (d, D, D),
    so ``A @ w`` gives every A_i w in one product, the rows of Jg.
    """

    tag = "quadratic"

    def __init__(self, A_list, B, w_init):
        A_list, B = quadratic_matrices(A_list, B)
        super().__init__(B.shape[0], len(A_list), w_init)
        self.A = np.stack([sym(A) for A in A_list])
        self.B = sym(B)

    def _g(self, w):
        return (self.A @ w) @ (0.5 * w)

    def _h(self, w):
        return float(0.5 * w @ (self.B @ w))

    def _vjp_g(self, w, v):
        return v @ (self.A @ w)

    def _grad_h(self, w):
        return self.B @ w


class SymFactor(Parameterization):
    """Symmetric factorization X = U U^T with weight decay h = ||U||_F^2 / 2.

    Parameters are U raveled; the model vector is X raveled (n*n entries).
    The field is the base class's chain rule, the gradient flow of
    f(U U^T) + alpha h:

        dU/dt = -((G + G^T) U + alpha U),   G = grad_f_X,

    since Jg(U)^T G = (G + G^T) U for g(U) = U U^T.  A symmetric G enters
    twice, and its antisymmetric part drops out.
    """

    tag = "sym-factor"

    def __init__(self, U0):
        U0 = np.asarray(U0, dtype=float)
        if U0.ndim != 2 or U0.shape[0] != U0.shape[1]:
            raise InputError("U0 must be a square matrix")
        self.n = U0.shape[0]
        super().__init__(self.n * self.n, self.n * self.n, U0.ravel())

    def _g(self, w):
        U = w.reshape(self.n, self.n)
        return (U @ U.T).ravel()

    def _h(self, w):
        return 0.5 * float(np.sum(w ** 2))

    def _vjp_g(self, w, v):
        V = v.reshape(self.n, self.n)
        return ((V + V.T) @ w.reshape(self.n, self.n)).ravel()

    def _grad_h(self, w):
        return w.copy()


class L1Identity(Parameterization):
    """The model itself, g(w) = w, with the L1 penalty h = ||w||_1.

    The diagonal runner's variant "m": its field is -(grad_f(w) + alpha
    sign(w)), with sign(0) = 0 as the subgradient at the kink.
    """

    tag = "l1-identity"

    def __init__(self, w0):
        w0 = np.asarray(w0, dtype=float).ravel()
        super().__init__(w0.size, w0.size, w0)

    def _g(self, w):
        return w

    def _h(self, w):
        return float(np.abs(w).sum())

    def _vjp_g(self, w, v):
        return v

    def _grad_h(self, w):
        return np.sign(w)
