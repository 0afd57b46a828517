"""Textbook references the tests check the package's results against.

No program reaches them, so they live with the tests: the SVD nuclear norm
and nuclear/Frobenius ratio behind the sensing finisher's ``eigvalsh``
statistics, and the pairwise commutators behind the quadratic family.
"""

import numpy as np

from mirrorlab.core import DomainError, InputError, quadratic_matrices


def nuclear_norm(X):
    return float(np.sum(np.linalg.svd(np.asarray(X, dtype=float), compute_uv=False)))


def nuclear_frobenius_ratio(X):
    """||X||_nuclear / ||X||_frobenius; >= 1 always, == 1 exactly for rank one."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise InputError("expected a matrix")
    s = np.linalg.svd(X, compute_uv=False)
    fro = np.sqrt(np.sum(s * s))
    if fro == 0.0:
        raise DomainError("norm ratio is undefined for the zero matrix")
    return float(np.sum(s) / fro)


def max_commutator_fro(A_list, B):
    """Max Frobenius norm of the pairwise commutators over {A_1..A_d, B}, whose
    matrices are checked as the quadratic family checks them."""
    A_list, B = quadratic_matrices(A_list, B)
    mats = A_list + [B]
    return max((float(np.linalg.norm(X @ Y - Y @ X))
                for i, X in enumerate(mats) for Y in mats[i + 1:]), default=0.0)
