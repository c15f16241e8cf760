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
from scipy.linalg import solve_triangular

from .errors import InputError, NumericalError
from .kernels import KernelSpec, _as_points, gram, sup_norm_bound
from .numerics import _pivoted_cholesky, eig_sym
from .spectral import lambda_rule


@dataclass(frozen=True)
class LeverageScores:
    """Per-point scores at regularization lam, with provenance."""

    lam: float
    values: np.ndarray
    mode: str  # "exact" | "pilot"
    pilot_size: int | None = None


def uniform_subsample(
    n: int, m: int, with_replacement: bool = False, rng: np.random.Generator | None = None
) -> np.ndarray:
    """m indices drawn uniformly from [0, n); without replacement uses a
    partial Fisher-Yates shuffle."""
    if m < 1 or n < 1:
        raise InputError("need n >= 1 and m >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    if with_replacement:
        return rng.integers(0, n, size=m)
    if m > n:
        raise InputError(f"cannot draw {m} of {n} indices without replacement")
    pool = np.arange(n)
    for i in range(m):
        j = i + int(rng.integers(n - i))
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m].copy()


def exact_rls(K, lam: float) -> LeverageScores:
    """Exact ridge leverage scores of a PSD Gram matrix at regularization lam."""
    if not 0 < lam < math.inf:
        raise InputError(f"lambda must be positive and finite, got {lam}")
    M = np.asarray(K, dtype=np.float64)
    n = M.shape[0]
    eig = eig_sym(M)
    floor = -1e-8 * max(1.0, float(eig.values[0]))
    if float(eig.values[-1]) < floor:
        raise NumericalError(
            f"Gram matrix is not PSD within tolerance: eigenvalue {float(eig.values[-1]):.6g}"
        )
    sig = np.clip(eig.values, 0.0, None)
    weights = sig / (sig + lam * n)
    values = (eig.vectors**2) @ weights
    return LeverageScores(lam=lam, values=values, mode="exact")


def approx_rls_pilot(
    X,
    kernel: KernelSpec,
    lam: float | None = None,
    pilot_size: int | None = None,
    rng: np.random.Generator | None = None,
    pilot_indices=None,
) -> LeverageScores:
    """Pilot-based approximate ridge leverage scores.

    Draws ``pilot_size`` indices uniformly without replacement (or uses
    ``pilot_indices`` when given) and factors their Gram by pivoted Cholesky;
    its first r pivots, r the numerical rank, are the landmarks S, with
    K_S = L L^T from the factor's leading r x r block.  Every point maps to
    b_i = L^(-1) k_S(x_i) and scores b_i^T (B B^T + lambda n I)^(-1) b_i.
    Cost O(n r^2 + p^3).  ``lam=None`` selects lambda = 19 K^2 log(32 n /
    delta) / n with delta = 0.1, and ``pilot_size=None`` p = ceil(4 sqrt(n)).
    """
    P = _as_points(X)
    n = P.shape[0]
    if lam is None:
        lam = lambda_rule("arls", n, K=sup_norm_bound(kernel), delta=0.1)
    if pilot_size is None:
        pilot_size = min(n, int(math.ceil(4.0 * math.sqrt(n))))
    if not 0 < lam < math.inf:
        raise InputError(f"lambda must be positive and finite, got {lam}")
    if not 1 <= pilot_size <= n:
        raise InputError(f"pilot size must lie in [1, {n}]")
    if pilot_indices is None:
        pilot_indices = uniform_subsample(n, pilot_size, with_replacement=False, rng=rng)
    pilot_indices = np.asarray(pilot_indices, dtype=np.intp)
    F, perm = _pivoted_cholesky(gram(kernel, P[pilot_indices]))
    r = F.shape[1]
    landmarks = pilot_indices[perm[:r]]
    B = solve_triangular(F[:r], gram(kernel, P[landmarks], P), lower=True)  # columns are b_i
    G = B @ B.T
    G[np.diag_indices_from(G)] += lam * n
    # b^T G^-1 b = |C^-1 b|^2 with G = C C^T: one triangular solve per column.
    Z = solve_triangular(np.linalg.cholesky(G), B, lower=True)
    values = np.einsum("ij,ij->j", Z, Z)
    return LeverageScores(lam=lam, values=values, mode="pilot", pilot_size=len(pilot_indices))


def sample_proportional(
    scores: LeverageScores, m: int, rng: np.random.Generator | None = None
) -> np.ndarray:
    """m i.i.d. draws (with replacement) proportional to the scores."""
    if m < 1:
        raise InputError("m must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    v = np.clip(np.asarray(scores.values, dtype=np.float64), 0.0, None)
    total = float(v.sum())
    if total <= 0.0:
        raise InputError("all leverage scores are zero")
    return rng.choice(v.size, size=m, replace=True, p=v / total)
