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

All evaluations go through a single pairwise code path that builds a block
coordinate by coordinate: the squared distance accumulates (a_k - b_k)^2 in
order k = 0, ..., d-1, and the Sobolev product multiplies its per-coordinate
factors in the same order.  (a - b)^2 == (b - a)^2 and |a - b| == |b - a|, so
k(x, y) == k(y, x) holds bit-exactly, and no (a, b, d) difference tensor is
ever formed: a block's temporaries are (a, b) arrays.

Every pass over kernel blocks takes its blocks from one walk, ``_tiles``:
_TILE-square tiles, column blocks outer, and for a symmetric pass only the
tiles on and above the diagonal.  ``gram`` assembles from it, the kernel
matvec ``_kernel_matvec`` (the Theta(n^2) kernel mean of a discrete target)
streams over it, and ``median_heuristic`` takes its distances from it.
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

# Side of the square tiles every kernel pass is cut into; a full tile's two
# temporaries take 8 MB each.
_TILE = 1024


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


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(len(A), len(B)) squared Euclidean distances, accumulated coordinate by
    coordinate in order k = 0, ..., d-1."""
    d2 = np.subtract.outer(A[:, 0], B[:, 0])
    d2 *= d2
    if A.shape[1] > 1:
        diff = np.empty_like(d2)
        for k in range(1, A.shape[1]):
            np.subtract.outer(A[:, k], B[:, k], out=diff)
            diff *= diff
            d2 += diff
    return d2


def _pairwise_block(kernel: KernelSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dense (len(A), len(B)) block of kernel values.

    Built coordinate by coordinate from differences only, so swapping A and
    B transposes the block bit-exactly.
    """
    if kernel.family == "sobolev":
        coef = _sobolev_coef(kernel.order)
        out = None
        for k in range(A.shape[1]):
            t = np.abs(np.subtract.outer(A[:, k], B[:, k]))
            t -= np.floor(t)
            factor = 1.0 + coef * _bernoulli_even(kernel.order, t)
            if out is None:
                out = factor
            else:
                out *= factor
        return out
    d2 = _sq_dists(A, B)
    if kernel.family == "gaussian":  # -0.5 * d2 / sigma^2, in that order
        d2 *= -0.5
        d2 /= kernel.bandwidth**2
    else:  # -sqrt(d2) / sigma
        np.sqrt(d2, out=d2)
        np.negative(d2, out=d2)
        d2 /= kernel.bandwidth
    return np.exp(d2, out=d2)


def evaluate(kernel: KernelSpec, x, y) -> float:
    """Single kernel evaluation k(x, y)."""
    a = _as_points(np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :], kernel)
    b = _as_points(np.atleast_1d(np.asarray(y, dtype=np.float64))[None, :], kernel)
    if a.shape[1] != b.shape[1]:
        raise InputError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return float(_pairwise_block(kernel, a, b)[0, 0])


def _tiles(n: int, m: int | None = None):
    """(I, J) slice pairs that cut an n x m matrix into _TILE-square tiles,
    column block J outer, row block I inner.  With m None the matrix is the
    symmetric n x n one and only the tiles on and above the diagonal come,
    I.start <= J.start; the caller mirrors the others."""
    for j0 in range(0, n if m is None else m, _TILE):
        for i0 in range(0, j0 + 1 if m is None else n, _TILE):
            yield slice(i0, i0 + _TILE), slice(j0, j0 + _TILE)


def gram(kernel: KernelSpec, X, Y=None) -> np.ndarray:
    """Kernel matrix of X against Y (or the symmetric Gram of X if Y is None).

    Assembled tile by tile over ``_tiles``, each tile coordinate by
    coordinate (``_pairwise_block``).  The symmetric case evaluates the tiles
    on and above the diagonal and mirrors them, so the result is symmetric to
    zero absolute error and equal to ``gram(kernel, X, X)`` bit for bit.
    """
    A = _as_points(X, kernel)
    B = A if Y is None else _as_points(Y, kernel)
    if A.shape[1] != B.shape[1]:
        raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    out = np.empty((A.shape[0], B.shape[0]))
    for I, J in _tiles(A.shape[0], None if Y is None else B.shape[0]):
        K = out[I, J] = _pairwise_block(kernel, A[I], B[J])
        if Y is None and I != J:
            out[J, I] = K.T  # from the contiguous tile, not its strided copy in out
    return out


def _kernel_matvec(kernel: KernelSpec, X, Y, b) -> np.ndarray:
    """K(X, Y) b over the tiles of ``_tiles``, never holding more than one.

    With Y None it is K(X, X) b, the kernel's own Theta(n^2) pass, from the
    tiles on and above the diagonal only: about half of the n^2 kernel
    values.  An off-diagonal tile K_IJ feeds its rows with K_IJ b_J and the
    mirrored rows with a C-contiguous copy of its transpose times b_I.  So
    every row gets the same per-tile dot products, added in the same
    column-block order, as in the full pass ``_kernel_matvec(kernel, X, X,
    b)``; the two agree bit for bit as long as the BLAS matvec gives a row
    the same dot product in every tile.
    """
    v = np.zeros(X.shape[0])
    for I, J in _tiles(X.shape[0], None if Y is None else Y.shape[0]):
        K = gram(kernel, X[I], (X if Y is None else Y)[J])
        v[I] += K @ b[J]
        if Y is None and I != J:
            v[J] += np.ascontiguousarray(K.T) @ b[I]
    return v


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
    for I, J in _tiles(k):  # the pairs (i, j > i), from the kernels' own distance path
        d2 = _sq_dists(S[I], S[J])
        dists.append(d2[np.triu_indices(d2.shape[0], 1)] if I == J else d2.ravel())
    med = float(np.median(np.sqrt(np.concatenate(dists))))
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
