"""Dense linear algebra: the BLAS products of the rule-building path, an
eigendecomposition and a rank-revealing pseudo-inverse solve.

``eig_sym`` gives the full spectrum, which the exact leverage scores and the
spectral module need.  ``pinv_apply`` needs only a solve, so it factors with
LAPACK's pivoted Cholesky (``dpstrf``, about m^3/3 flops; several times
faster than a full eigendecomposition at m in the thousands).  The
factorization picks pivots greedily by largest residual diagonal and stops
when that residual falls to the level of float64 rounding, which reveals the
numerical rank.

One BLAS builds every rule.  numpy and scipy each ship their own OpenBLAS
(scipy-openblas64 0.3.31 and scipy-openblas32 0.3.30 under numpy 2.4.6 and
scipy 1.17.1), and each keeps a worker thread spinning for a while after a
threaded call.  On a 2-core machine a scipy LAPACK call made just after a
threaded numpy product waits for numpy's spinning worker: a 256 x 256
``dpstrf`` took 3.3-3.6 ms after a numpy ``K @ b`` against 0.37 ms after
scipy's ``dgemv`` or with no product before it.  So the products on the
path that builds rules (the kernel mean, the arls pilot, the weight solve
and the error) call scipy's BLAS through ``matvec`` and ``syrk``, which give
the same bits as numpy's ``A @ x`` and ``B @ B.T``, and numpy's pool never
wakes between two scipy LAPACK calls.  Vector dot products stay with numpy:
OpenBLAS runs them on one thread below 10000 entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dpstrf

from .errors import InputError, NumericalError


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for a 2-d float64 A, by scipy's ``dgemv``, bit for bit.

    A C-ordered A goes in as its Fortran-ordered transpose with trans=1, the
    call numpy makes for ``A @ x``; a Fortran-ordered A goes in as it is.
    Neither is copied.
    """
    if A.flags.c_contiguous:
        return dgemv(1.0, A.T, x, trans=1)
    return dgemv(1.0, A, x)


def syrk(B: np.ndarray) -> np.ndarray:
    """The lower triangle of B @ B.T for a 2-d float64 B, by scipy's
    ``dsyrk``, bit for bit; its strict upper triangle is not the product.
    A Fortran-ordered B, as ``solve_triangular`` returns it, is not copied."""
    return dsyrk(1.0, B, lower=1)


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
    the elimination steps before it.  Returns the size x r factor F, r the
    numerical rank, in the lower trapezoid of a C-ordered array (entries of S
    lie above it), and the pivots.
    """
    tol = S.shape[0] * float(np.finfo(np.float64).eps) * float(np.max(np.diag(S), initial=0.0))
    c, piv, rank, info = dpstrf(S.T, tol=tol, lower=1, overwrite_a=1)
    if info < 0:
        raise NumericalError(f"dpstrf rejected argument {-info}")
    # to C order in 64-column slabs, which stay in cache: twice as fast as one copy
    F = np.empty((c.shape[0], rank))
    for j in range(0, rank, 64):
        F[:, j : j + 64] = c[:, j : min(j + 64, rank)]
    return F, piv - 1


def pinv_apply(A, b) -> np.ndarray:
    """Minimum-norm solution A^+ b for symmetric PSD A.

    A is factored as P^T A P = F F^T by pivoted Cholesky, which reads only
    the upper triangle of A (diagonal included) and stops once the largest
    residual diagonal is at most ``size * eps * max diag(A)``; the number of
    steps taken is the numerical rank r.  At full rank the solve is two
    triangular solves.  Below full rank the m x r factor F goes through a
    thin QR, F = Q R, and the result is Q (R R^T)^-1 Q^T b: the minimum-norm
    solution of the truncated system, so weight on duplicate rows is split
    evenly.  An all-zero A yields the zero vector (minimum-norm convention),
    not an error.
    """
    M = np.asarray(A, dtype=np.float64)
    rhs = np.asarray(b, dtype=np.float64).ravel()
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("pinv_apply expects a square matrix")
    if M.shape[0] != rhs.shape[0]:
        raise InputError(f"shape mismatch: {M.shape} vs {rhs.shape}")
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(rhs))):
        raise InputError("matrix or right-hand side contains non-finite entries")
    F, perm = _pivoted_cholesky(M.copy())  # dpstrf overwrites its input
    rank = F.shape[1]
    if rank == 0:
        return np.zeros_like(rhs)
    y = rhs[perm]
    out = np.empty_like(rhs)
    if rank == M.shape[0]:
        z = solve_triangular(F, y, lower=True, check_finite=False)
        out[perm] = solve_triangular(F, z, lower=True, trans="T", check_finite=False)
        return out
    Q, R = qr(np.tril(F), mode="economic", check_finite=False)
    t = solve_triangular(R, matvec(Q.T, y), lower=False, check_finite=False)
    out[perm] = matvec(Q, solve_triangular(R, t, lower=False, trans="T", check_finite=False))
    return out
