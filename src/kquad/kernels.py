"""Kernel families, Gram-matrix assembly, and bandwidth selection.

Three positive-definite families are supported:

* ``gaussian``:  k(x, y) = exp(-||x - y||^2 / (2 sigma^2))
* ``laplacian``: k(x, y) = exp(-||x - y|| / sigma)
* ``sobolev``:   periodic Sobolev kernel of order s on the unit torus,

      k_s(x, y) = 1 + 2 sum_{j >= 1} cos(2 pi j (x - y)) / j^(2s)
                = 1 + (-1)^(s-1) (2 pi)^(2s) / (2s)! * B_{2s}({x - y})

  where B_{2s} is the even Bernoulli polynomial and {.} the fractional
  part.  In d > 1 the kernel is the coordinate-wise tensor product of the
  1-d kernels, which keeps the uniform-measure moments equal to one.

All evaluations go through a single pairwise code path based on raw
coordinate differences, so k(x, y) == k(y, x) holds bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .specs import optional, parse_spec

SUPPORTED_ORDERS = (1, 2, 3)

# zeta(2s) for the supported orders; k_s(x, x) = 1 + 2 zeta(2s) per coordinate.
_ZETA_EVEN = {1: math.pi**2 / 6.0, 2: math.pi**4 / 90.0, 3: math.pi**6 / 945.0}

# Target element count for one pairwise block; keeps temporaries ~tens of MB.
_BLOCK_ELEMS = 4_000_000


@dataclass(frozen=True)
class KernelSpec:
    """Immutable kernel selector.

    ``bandwidth`` is the length scale of the gaussian/laplacian families;
    ``order``/``dim`` parameterize the periodic Sobolev family.
    """

    family: str
    bandwidth: float = 1.0
    order: int = 1
    dim: int = 1

    def __post_init__(self):
        if self.family not in ("gaussian", "laplacian", "sobolev"):
            raise InputError(f"unknown kernel family {self.family!r}")
        if self.family in ("gaussian", "laplacian"):
            if not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
                raise InputError("kernel bandwidth must be a positive real")
        else:
            if self.order not in SUPPORTED_ORDERS:
                raise InputError(f"sobolev order must be one of {SUPPORTED_ORDERS}")
            if self.dim < 1:
                raise InputError("sobolev dimension must be >= 1")


def gaussian(bandwidth: float) -> KernelSpec:
    return KernelSpec(family="gaussian", bandwidth=float(bandwidth))


def laplacian(scale: float) -> KernelSpec:
    return KernelSpec(family="laplacian", bandwidth=float(scale))


def periodic_sobolev(order: int, dim: int = 1) -> KernelSpec:
    return KernelSpec(family="sobolev", order=int(order), dim=int(dim))


def _sobolev_coef(order: int) -> float:
    # (-1)^(s-1) (2 pi)^(2s) / (2s)!
    return (-1.0) ** (order - 1) * (2.0 * math.pi) ** (2 * order) / math.factorial(2 * order)


def _bernoulli_even(order: int, t: np.ndarray) -> np.ndarray:
    """B_{2s}(t) for s in {1, 2, 3}, written in terms of u = t(t - 1)."""
    u = t * (t - 1.0)
    if order == 1:
        return u + 1.0 / 6.0
    if order == 2:
        return u * u - 1.0 / 30.0
    return u * u * u - 0.5 * u * u + 1.0 / 42.0


def _as_points(X, kernel: KernelSpec | None = None) -> np.ndarray:
    P = np.asarray(X, dtype=np.float64)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[0] == 0:
        raise InputError("expected a nonempty (n, d) array of points")
    if not np.all(np.isfinite(P)):
        raise InputError("points contain non-finite coordinates")
    if kernel is not None and kernel.family == "sobolev" and P.shape[1] != kernel.dim:
        raise InputError(
            f"point dimension {P.shape[1]} does not match sobolev kernel dimension {kernel.dim}"
        )
    return P


def _pairwise_block(kernel: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense (len(A), len(B)) block of kernel values.

    Built from coordinate differences only, so swapping A and B transposes
    the block bit-exactly.
    """
    diff = A[:, None, :] - B[None, :, :]
    if kernel.family == "sobolev":
        t = np.abs(diff)
        t -= np.floor(t)
        vals = 1.0 + _sobolev_coef(kernel.order) * _bernoulli_even(kernel.order, t)
        return np.prod(vals, axis=-1)
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if kernel.family == "gaussian":
        return np.exp(-0.5 * d2 / kernel.bandwidth**2)
    return np.exp(-np.sqrt(d2) / kernel.bandwidth)


def evaluate(kernel: KernelSpec, x, y) -> float:
    """Single kernel evaluation k(x, y)."""
    a = _as_points(np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :], kernel)
    b = _as_points(np.atleast_1d(np.asarray(y, dtype=np.float64))[None, :], kernel)
    if a.shape[1] != b.shape[1]:
        raise InputError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return float(_pairwise_block(kernel, a, b)[0, 0])


def gram(kernel: KernelSpec, X, Y=None) -> np.ndarray:
    """Kernel matrix of X against Y (or the symmetric Gram of X if Y is None).

    The symmetric case fills each unordered pair once and mirrors it, so the
    result is symmetric to zero absolute error.  Assembly is row-chunked to
    bound temporaries.
    """
    A = _as_points(X, kernel)
    if Y is not None:
        B = _as_points(Y, kernel)
        if A.shape[1] != B.shape[1]:
            raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
        out = np.empty((A.shape[0], B.shape[0]))
        step = max(1, _BLOCK_ELEMS // max(1, B.shape[0] * B.shape[1]))
        for i0 in range(0, A.shape[0], step):
            i1 = min(i0 + step, A.shape[0])
            out[i0:i1] = _pairwise_block(kernel, A[i0:i1], B)
        return out
    n = A.shape[0]
    out = np.empty((n, n))
    step = max(1, _BLOCK_ELEMS // max(1, n * A.shape[1]))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        block = _pairwise_block(kernel, A[i0:i1], A[i0:])
        out[i0:i1, i0:] = block
        out[i0:, i0:i1] = block.T
    return out


def diagonal(kernel: KernelSpec, X) -> np.ndarray:
    """Vector of k(x, x) for each row of X."""
    A = _as_points(X, kernel)
    if kernel.family == "sobolev":
        per_coord = 1.0 + _sobolev_coef(kernel.order) * float(
            _bernoulli_even(kernel.order, np.zeros(1))[0]
        )
        # same reduction order as the pairwise path
        value = float(np.prod(np.full(kernel.dim, per_coord)))
        return np.full(A.shape[0], value)
    return np.ones(A.shape[0])


def sup_norm_bound(kernel: KernelSpec) -> float:
    """Uniform bound K on the feature norm, sup_x sqrt(k(x, x))."""
    if kernel.family in ("gaussian", "laplacian"):
        return 1.0
    return math.sqrt((1.0 + 2.0 * _ZETA_EVEN[kernel.order]) ** kernel.dim)


def median_heuristic(X, subset_size: int = 1000, rng: np.random.Generator | None = None) -> float:
    """Median pairwise Euclidean distance over a random subset of X.

    Deterministic given the generator state; raises if the median comes out
    zero (a bandwidth must be positive).
    """
    P = _as_points(X)
    n = P.shape[0]
    if n < 2:
        raise InputError("median heuristic needs at least two points")
    if subset_size < 2:
        raise InputError("subset_size must be >= 2")
    if rng is None:
        rng = np.random.default_rng(0)
    k = min(int(subset_size), n)
    idx = rng.permutation(n)[:k]
    S = P[idx]
    dists = []
    step = max(1, _BLOCK_ELEMS // max(1, k * S.shape[1]))
    for i0 in range(0, k - 1, step):
        i1 = min(i0 + step, k - 1)
        diff = S[i0:i1, None, :] - S[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        for r in range(i0, i1):
            dists.append(d[r - i0, r + 1 :])
    med = float(np.median(np.concatenate(dists)))
    if med <= 0.0:
        raise InputError("median inter-point distance is zero; bandwidth must be positive")
    return med


_SIGMA = optional(float, "median")

# Kernel spec schema: family -> accepted keys and their value parsers.
KERNELS = {
    "gaussian": {"sigma": _SIGMA, "σ": _SIGMA},
    "laplacian": {"sigma": _SIGMA, "σ": _SIGMA},
    "sobolev": {"s": int, "d": int},
}


def parse_kernel(
    text: str,
    points=None,
    rng: np.random.Generator | None = None,
    median_subset: int = 1000,
) -> KernelSpec:
    """Build a KernelSpec from a selector string.

    Grammar: ``gaussian:sigma=<float|median>``, ``laplacian:sigma=<float|median>``,
    ``sobolev:s=<int>,d=<int>``.  ``sigma=median`` requires ``points``.
    """
    family, params = parse_spec(text, "kernel", KERNELS)
    if family == "sobolev":
        return KernelSpec(family="sobolev", order=params.get("s", 1), dim=params.get("d", 1))
    sigma = params.get("sigma", params.get("σ"))
    if sigma is None:
        if points is None:
            raise InputError("sigma=median requires data points")
        sigma = median_heuristic(points, subset_size=median_subset, rng=rng)
    return KernelSpec(family=family, bandwidth=sigma)
