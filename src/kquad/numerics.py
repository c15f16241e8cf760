"""Dense symmetric linear algebra: eigendecomposition and a rank-revealing
pseudo-inverse solve.

``eig_sym`` gives the full spectrum, which the exact leverage scores and the
spectral module need.  ``pinv_apply`` needs only a solve, so it factors with
LAPACK's pivoted Cholesky (``dpstrf``, about m^3/3 flops; several times
faster than a full eigendecomposition at m in the thousands).  The
factorization picks pivots greedily by largest residual diagonal and stops
when that residual falls to the level of float64 rounding, which reveals the
numerical rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.linalg.lapack import dpstrf

from .errors import InputError, NumericalError


@dataclass(frozen=True)
class SymmetricEigen:
    """Full spectrum of a symmetric matrix, eigenvalues descending."""

    values: np.ndarray
    vectors: np.ndarray  # orthonormal columns, aligned with values


def eig_sym(A) -> SymmetricEigen:
    """Eigendecomposition of a (defensively symmetrized) real matrix."""
    M = np.asarray(A, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("eig_sym expects a square matrix")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix contains non-finite entries")
    S = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(S)
    return SymmetricEigen(values=w[::-1].copy(), vectors=V[:, ::-1].copy())


def _pivoted_cholesky(S: np.ndarray):
    """Pivoted Cholesky P^T S P = F F^T of a fresh symmetric array S, which
    ``dpstrf`` overwrites through its Fortran-ordered transpose (no copy).

    It stops once the largest residual diagonal is at most
    ``size * eps * max diag(S)``, LAPACK's own cutoff: the rounding left by
    the elimination steps before it.  Returns the lower-trapezoidal size x r
    factor F, r the numerical rank, and the pivots.
    """
    tol = S.shape[0] * float(np.finfo(np.float64).eps) * float(np.max(np.diag(S), initial=0.0))
    c, piv, rank, info = dpstrf(S.T, tol=tol, lower=1, overwrite_a=1)
    if info < 0:
        raise NumericalError(f"dpstrf rejected argument {-info}")
    return np.tril(c[:, :rank]), piv - 1


def pinv_apply(A, b) -> np.ndarray:
    """Minimum-norm solution A^+ b for symmetric PSD A.

    A (symmetrized) is factored as P^T A P = F F^T by pivoted Cholesky, which
    stops once the largest residual diagonal is at most
    ``size * eps * max diag(A)``; the number of steps taken is the numerical
    rank r.  At full rank the solve is two triangular solves.  Below full
    rank the m x r factor F goes through a thin QR, F = Q R, and the result
    is Q (R R^T)^-1 Q^T b: the minimum-norm solution of the truncated
    system, so weight on duplicate rows is split evenly.  An all-zero A
    yields the zero vector (minimum-norm convention), not an error.
    """
    M = np.asarray(A, dtype=np.float64)
    rhs = np.asarray(b, dtype=np.float64).ravel()
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("pinv_apply expects a square matrix")
    if M.shape[0] != rhs.shape[0]:
        raise InputError(f"shape mismatch: {M.shape} vs {rhs.shape}")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        raise InputError("matrix or right-hand side contains non-finite entries")
    F, perm = _pivoted_cholesky(0.5 * (M + M.T))
    rank = F.shape[1]
    if rank == 0:
        return np.zeros_like(rhs)
    y = rhs[perm]
    out = np.empty_like(rhs)
    if rank == M.shape[0]:
        z = solve_triangular(F, y, lower=True, check_finite=False)
        out[perm] = solve_triangular(F, z, lower=True, trans="T", check_finite=False)
        return out
    Q, R = qr(F, mode="economic", check_finite=False)
    t = solve_triangular(R, Q.T @ y, lower=False, check_finite=False)
    out[perm] = Q @ solve_triangular(R, t, lower=False, trans="T", check_finite=False)
    return out
