"""Node selection: uniform subsampling and ridge-leverage-score sampling.

Exact ridge leverage scores are the diagonal of K (K + lambda n I)^(-1).
The approximate variant draws a uniform pilot subset of size p and factors
its Gram with the weight solve's pivoted Cholesky, cut at the numerical rank
r.  The data are whitened through the first r pivots (the landmarks) and
scored in that r-dimensional feature space: the Nystrom approximation
through the pilot Gram's pseudo-inverse.  With p = n it gives the exact scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular

from .errors import InputError, NumericalError
from .kernels import KernelSpec, _as_points, gram
from .numerics import _pivoted_cholesky, matvec, syrk


@dataclass(frozen=True)
class LeverageScores:
    """Per-point scores at regularization lam."""

    lam: float
    values: np.ndarray


def uniform_subsample(n: int, m: int, with_replacement: bool = False, rng=0) -> np.ndarray:
    """m indices drawn uniformly from [0, n) by ``np.random.default_rng(rng)``;
    without replacement uses a partial Fisher-Yates shuffle."""
    if m < 1 or n < 1:
        raise InputError("need n >= 1 and m >= 1")
    rng = np.random.default_rng(rng)
    if with_replacement:
        return rng.integers(0, n, size=m)
    if m > n:
        raise InputError(f"cannot draw {m} of {n} indices without replacement")
    pool = np.arange(n)
    # j uniform in [i, n), drawn in one call: the same stream as rng.integers(n - i) per i
    steps = np.arange(m)
    for i, j in enumerate((rng.integers(n - steps) + steps).tolist()):
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m].copy()


def exact_rls(K, lam: float) -> LeverageScores:
    """Exact ridge leverage scores of a PSD Gram matrix at regularization lam.

    The spectrum comes from scipy's ``eigh``, which reads the lower triangle
    of K.
    """
    if not 0 < lam < math.inf:
        raise InputError(f"lambda must be positive and finite, got {lam}")
    M = np.asarray(K, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise InputError("exact_rls expects a nonempty square matrix")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix contains non-finite entries")
    n = M.shape[0]
    sig, V = eigh(M, check_finite=False)  # ascending
    if float(sig[0]) < -1e-8 * max(1.0, float(sig[-1])):
        raise NumericalError(
            f"Gram matrix is not PSD within tolerance: eigenvalue {float(sig[0]):.6g}"
        )
    sig = np.clip(sig, 0.0, None)
    return LeverageScores(lam=lam, values=matvec(V * V, sig / (sig + lam * n)))


def approx_rls_pilot(
    X,
    kernel: KernelSpec,
    lam: float | None = None,
    pilot_size: int | None = None,
    rng=0,
    pilot_indices=None,
) -> LeverageScores:
    """Pilot-based approximate ridge leverage scores.

    Draws ``pilot_size`` indices uniformly without replacement (or uses
    ``pilot_indices`` when given) and factors their Gram by pivoted Cholesky;
    its first r pivots, r the numerical rank, are the landmarks S, with
    K_S = L L^T from the factor's leading r x r block.  Every point maps to
    b_i = L^(-1) k_S(x_i) and scores b_i^T (B B^T + lambda n I)^(-1) b_i.
    Cost O(n r^2 + p^3).  ``lam=None`` selects lambda = 19 k(x, x) log(32 n /
    delta) / n with delta = 0.1, and ``pilot_size=None`` p = ceil(4 sqrt(n)).
    """
    P = _as_points(X)
    n = P.shape[0]
    if lam is None:
        lam = 19.0 * kernel.diag * math.log(32.0 * n / 0.1) / n
        if not math.isfinite(lam * n):  # only a sobolev diagonal is this large
            raise InputError(
                f"lambda=auto overflows under the sobolev kernel s={kernel.order}, "
                f"d={kernel.dim}, whose k(x, x) is {kernel.diag:.6g}; give an explicit lambda"
            )
    if pilot_size is None:
        pilot_size = min(n, int(math.ceil(4.0 * math.sqrt(n))))
    if not 0 < lam < math.inf:
        raise InputError(f"lambda must be positive and finite, got {lam}")
    if not math.isfinite(lam * n):  # the ridge lambda * n on the diagonal of G
        raise InputError(f"lambda * n overflows: lambda = {lam}, n = {n}")
    if not 1 <= pilot_size <= n:
        raise InputError(f"pilot size must lie in [1, {n}]")
    if pilot_indices is None:
        pilot_indices = uniform_subsample(n, pilot_size, with_replacement=False, rng=rng)
    pilot_indices = np.asarray(pilot_indices, dtype=np.intp)
    F, perm = _pivoted_cholesky(gram(kernel, P[pilot_indices]))
    r = F.shape[1]
    landmarks = pilot_indices[perm[:r]]
    # K(P, S)^T is K(S, P) bit for bit, by the kernel's exact symmetry, and
    # Fortran-ordered, so both solves work on their right-hand sides in place.
    B = solve_triangular(
        F[:r], gram(kernel, P, P[landmarks]).T, lower=True, check_finite=False, overwrite_b=True
    )  # columns are b_i
    G = syrk(B)  # B B^T in the lower triangle, which is all the Cholesky reads
    G[np.diag_indices_from(G)] += lam * n
    # b^T G^-1 b = |C^-1 b|^2 with G = C C^T: one triangular solve per column.
    C = cholesky(G, lower=True, overwrite_a=True, check_finite=False)
    Z = solve_triangular(C, B, lower=True, check_finite=False, overwrite_b=True)
    values = np.einsum("ij,ij->j", Z, Z)
    return LeverageScores(lam=lam, values=values)


def sample_proportional(scores: LeverageScores, m: int, rng=0) -> np.ndarray:
    """m i.i.d. draws (with replacement) proportional to the scores, by
    ``np.random.default_rng(rng)``."""
    if m < 1:
        raise InputError("m must be >= 1")
    v = np.clip(np.asarray(scores.values, dtype=np.float64), 0.0, None)
    total = float(v.sum())
    if total <= 0.0:
        raise InputError("all leverage scores are zero")
    return np.random.default_rng(rng).choice(v.size, size=m, replace=True, p=v / total)
