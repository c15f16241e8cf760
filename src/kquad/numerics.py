"""Dense linear algebra: the BLAS products of the rule-building path and a
rank-revealing pseudo-inverse solve.

``pinv_apply`` needs only a solve, not a spectrum, so it factors with
LAPACK's pivoted Cholesky (``dpstrf``, about m^3/3 flops; several times
faster than a full eigendecomposition at m in the thousands), whose cutoff
at float64 rounding reveals the numerical rank.  The spectra that the
exact leverage scores and the covariance spectrum need come from scipy's
``eigh`` and ``eigvalsh``, called where they are used.

The products of the arls pilot and the weight solve use scipy's BLAS.  numpy
and scipy each ship their own OpenBLAS (scipy-openblas64 0.3.31 and
scipy-openblas32 0.3.30 under numpy 2.4.6 and scipy 1.17.1), and each keeps
a worker thread spinning for a while after a threaded call.  On a 2-core
machine a scipy LAPACK call made just after a threaded numpy product waits
for numpy's spinning worker: a 256 x 256 ``dpstrf`` took 3.3-3.6 ms after a
numpy ``K @ b`` against 0.37 ms after scipy's ``dgemv`` or with no product
before it.  So those products go through ``matvec`` and ``syrk`` (numpy's
bits for ``A @ x`` and ``B @ B.T``), and numpy's pool never wakes between
two scipy LAPACK calls.  Greedy's step ``coeffs[:, :k] @ coeffs[j, :k]`` is
numpy's BLAS (``dgemv`` would copy the strided slice); it runs before a
rule's solves.  Vector dot products stay with numpy: OpenBLAS runs them on
one thread below 10000 entries.  The kernel mean and the error's w^T K_m w
take no matrix product at all: both are walks of ``kernels._kernel_matvec``.
"""

from __future__ import annotations

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


def _pivoted_cholesky(S: np.ndarray):
    """Pivoted Cholesky P^T S P = F F^T of a C-contiguous symmetric float64
    array S, in place: ``dpstrf`` overwrites S through its Fortran-ordered
    transpose.  It stops once the largest residual diagonal is at most
    ``size * eps * max diag(S)``, LAPACK's own cutoff: the rounding left by
    the elimination steps before it.  Returns the size x r factor F (r the
    numerical rank) where dpstrf wrote it, as the Fortran-contiguous view
    ``S.T[:, :r]`` whose lower trapezoid holds F, and the pivots.
    """
    tol = S.shape[0] * float(np.finfo(np.float64).eps) * float(np.max(np.diag(S), initial=0.0))
    c, piv, rank, info = dpstrf(S.T, tol=tol, lower=1, overwrite_a=1)
    if info < 0:
        raise NumericalError(f"dpstrf rejected argument {-info}")
    return S.T[:, :rank], piv - 1


def pinv_apply(A, b, overwrite_a: bool = False) -> np.ndarray:
    """Minimum-norm solution A^+ b for symmetric PSD A.

    A is factored as P^T A P = F F^T by ``_pivoted_cholesky``, which reads
    only the upper triangle of A (diagonal included); r is its numerical
    rank.  At full rank the solve is two triangular solves on F where LAPACK
    wrote it.  Below full rank the m x r factor F goes through a thin QR,
    F = Q R, run in place on the factor, and the result is
    Q (R R^T)^-1 Q^T b: the minimum-norm solution of the truncated system,
    so weight on duplicate rows is split evenly.  An all-zero A yields the
    zero vector (minimum-norm convention), not an error.

    As in scipy, ``overwrite_a=True`` lets the factorization overwrite A: a
    C-contiguous, writeable float64 A is then factored in place, with no
    copy.  Any other A is copied first, and A is left as it was.
    """
    M = np.asarray(A, dtype=np.float64)
    rhs = np.asarray(b, dtype=np.float64).ravel()
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("pinv_apply expects a square matrix")
    if M.shape[0] != rhs.shape[0]:
        raise InputError(f"shape mismatch: {M.shape} vs {rhs.shape}")
    # min and max are NaN or +-inf if any entry is, so no m x m mask is made
    if not (np.isfinite([M.min(initial=0.0), M.max(initial=0.0)]).all() and np.isfinite(rhs).all()):
        raise InputError("matrix or right-hand side contains non-finite entries")
    in_place = overwrite_a and M.flags.c_contiguous and M.flags.writeable
    F, perm = _pivoted_cholesky(M if in_place else M.copy())
    rank = F.shape[1]
    if rank == 0:
        return np.zeros_like(rhs)
    y = rhs[perm]
    out = np.empty_like(rhs)
    if rank == M.shape[0]:
        z = solve_triangular(F, y, lower=True, check_finite=False)
        out[perm] = solve_triangular(F, z, lower=True, trans="T", check_finite=False)
        return out
    for j in range(1, rank):  # above F's diagonal sit entries of A; the QR must see tril(F)
        F[:j, j] = 0.0
    Q, R = qr(F, mode="economic", overwrite_a=True, check_finite=False)
    t = solve_triangular(R, matvec(Q.T, y), lower=False, check_finite=False)
    out[perm] = matvec(Q, solve_triangular(R, t, lower=False, trans="T", check_finite=False))
    return out
