"""Node selection: uniform subsampling and ridge-leverage-score sampling.

Exact ridge leverage scores are the diagonal of K (K + lambda n I)^(-1).
The approximate variant draws a uniform pilot subset of size p, whitens the
data through the pilot's Cholesky factor, and evaluates the scores in that
p-dimensional feature space; with p = n it reproduces the exact scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InputError, NumericalError
from .kernels import KernelSpec, _as_points, gram, sup_norm_bound
from .numerics import eig_sym
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


def _cholesky_with_jitter(Kp: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating a trace-scaled diagonal jitter on
    failure: 1e-12 tr(Kp)/p, x10 per retry, at most 6 retries."""
    try:
        return np.linalg.cholesky(Kp)
    except np.linalg.LinAlgError:
        pass
    p = Kp.shape[0]
    base = 1e-12 * float(np.trace(Kp)) / p
    if base <= 0:
        base = 1e-12
    for k in range(6):
        try:
            return np.linalg.cholesky(Kp + (base * 10.0**k) * np.eye(p))
        except np.linalg.LinAlgError:
            continue
    raise NumericalError(
        "pilot Gram matrix is numerically singular even with jitter; "
        "use a larger pilot or a larger lambda"
    )


def approx_rls_pilot(
    X,
    kernel: KernelSpec,
    lam: float,
    pilot_size: int,
    rng: np.random.Generator | None = None,
    pilot_indices=None,
) -> LeverageScores:
    """Pilot-based approximate ridge leverage scores.

    Draws ``pilot_size`` indices uniformly without replacement (or uses
    ``pilot_indices`` when given), maps every point to the whitened pilot
    feature b_i = L^(-1) k_p(x_i) with K_p = L L^T, and scores
    b_i^T (B B^T + lambda n I)^(-1) b_i.  Cost O(n p^2 + p^3).
    """
    P = _as_points(X)
    n = P.shape[0]
    if not 0 < lam < math.inf:
        raise InputError(f"lambda must be positive and finite, got {lam}")
    if not 1 <= pilot_size <= n:
        raise InputError(f"pilot size must lie in [1, {n}]")
    if pilot_indices is None:
        pilot_indices = uniform_subsample(n, pilot_size, with_replacement=False, rng=rng)
    pilot_indices = np.asarray(pilot_indices, dtype=np.intp)
    L = _cholesky_with_jitter(gram(kernel, P[pilot_indices]))
    Kpn = gram(kernel, P[pilot_indices], P)
    B = solve_triangular(L, Kpn, lower=True)  # columns are the b_i
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


def default_pilot_size(n: int) -> int:
    return min(n, int(math.ceil(4.0 * math.sqrt(n))))


def arls_scores(
    X,
    kernel: KernelSpec,
    lam: float | None,
    pilot_size: int | None,
    rng: np.random.Generator,
) -> LeverageScores:
    """Pilot leverage scores of the arls method: the part of its node draw
    that does not depend on m.

    ``lam=None`` and ``pilot_size=None`` select the defaults
    lam = 19 K^2 log(32 n / delta) / n with delta = 0.1 and p = ceil(4 sqrt(n)).
    """
    P = np.asarray(X, dtype=np.float64)
    n = P.shape[0]
    if lam is None:
        lam = lambda_rule("arls", n, K=sup_norm_bound(kernel), delta=0.1)
    if pilot_size is None:
        pilot_size = default_pilot_size(n)
    return approx_rls_pilot(P, kernel, lam, pilot_size, rng=rng)
