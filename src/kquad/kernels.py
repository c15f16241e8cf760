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

All evaluations go through one in-place pairwise code path, ``_pairwise_block``.
The Gaussian block takes its squared distances from scipy's
``cdist(A, B, "sqeuclidean")``, which adds (a_k - b_k)^2 in order
k = 0, ..., d-1 (a test pins this against the sequential sum); the Laplacian
block takes ``cdist(A, B, "euclidean")``, the same sum followed by a square
root; and the Sobolev product multiplies its per-coordinate factors in the
same order.  (a - b)^2 == (b - a)^2 and |a - b| == |b - a|, so
k(x, y) == k(y, x) holds bit-exactly, and no (a, b, d) difference tensor is
ever formed: a block's temporaries are (a, b) arrays.  ``median_heuristic``
takes its distances from scipy's ``pdist``, the same sum and square root,
and selects their median in place.  Both reject coordinates above 2^500 in
absolute value: each (a_k - b_k)^2 is then at most 2^1002, so squared
distances are finite for d < 2^22.

``_fill`` evaluates an (a, b) array in row strips of about _STRIP values that
stay in cache; ``gram`` is one fill of its output.  The kernel matvec
``_kernel_matvec`` (the Theta(n^2) kernel mean of a discrete target, and each
rule's w^T K_m w over its nodes) fills _TILE-square tiles in one buffer, only
those on and above the diagonal when it runs on the same points on both
sides, and sums each tile's products with numpy's single-threaded ``einsum``,
so the tile shape alone fixes its bits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .specs import optional, parse_spec

SUPPORTED_ORDERS = (1, 2, 3)

# Side of the square tiles of the kernel matvec: a row's sum over a tile is one
# einsum row or column product, so the tile shape fixes the bits of K b.
_TILE = 256

# Kernel values per row strip of a fill (512 KiB): a strip and its Sobolev
# temporaries stay in a core's L2 cache.
_STRIP = 1 << 16

# Points in the random subset whose pairwise distances give sigma=median.
_MEDIAN_SUBSET = 1000


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
            # the block divides by sigma^2 (gaussian) or sigma (laplacian): that
            # scale and its reciprocal must be finite normal floats
            s, tiny = float(self.bandwidth), sys.float_info.min
            scale, name = (s * s, "sigma^2") if self.family == "gaussian" else (s, "sigma")
            if not (s > 0 and tiny <= scale <= 1.0 / tiny):
                raise InputError(
                    f"kernel bandwidth must be a positive real with {name} and 1/{name} "
                    f"finite normal floats, got {s!r}"
                )
        else:
            if self.order not in SUPPORTED_ORDERS:
                raise InputError(f"sobolev order must be one of {SUPPORTED_ORDERS}")
            if self.dim < 1:
                raise InputError("sobolev dimension must be >= 1")
            if not math.isfinite(self.diag):  # k(x, x) bounds every |k(x, y)|
                raise InputError(
                    f"sobolev kernel s={self.order}, d={self.dim}: its diagonal overflows a float"
                )

    @property
    def diag(self) -> float:
        """k(x, x), the same at every x: 1 for gaussian and laplacian, and for
        sobolev the product of its d per-coordinate factors at t = 0, taken in
        ``_pairwise_block``'s order, so every diagonal entry of ``gram`` equals it
        bit for bit.  It is (1 + 2 zeta(2s))^d up to rounding."""
        if self.family != "sobolev":
            return 1.0
        t, w, z = np.zeros((3, 1))
        _sobolev_factor(self.order, t, w, z)
        factor = value = float(t[0])
        for _ in range(self.dim - 1):
            value *= factor
            if value == math.inf:  # every factor exceeds 1, so the product stays inf
                break
        return value


def gaussian(bandwidth: float) -> KernelSpec:
    return KernelSpec(family="gaussian", bandwidth=float(bandwidth))


def laplacian(scale: float) -> KernelSpec:
    return KernelSpec(family="laplacian", bandwidth=float(scale))


def periodic_sobolev(order: int, dim: int = 1) -> KernelSpec:
    return KernelSpec(family="sobolev", order=int(order), dim=int(dim))


def _sobolev_factor(order: int, t: np.ndarray, w: np.ndarray, z: np.ndarray) -> None:
    """1 + (-1)^(s-1) (2 pi)^(2s) / (2s)! * B_{2s}(t), s in {1, 2, 3}, in place of t,
    B_{2s} in terms of u = t(t - 1); w and z are scratch arrays of t's shape,
    z read only for s = 3."""
    np.subtract(t, 1.0, out=w)
    t *= w
    if order == 1:
        t += 1.0 / 6.0
    elif order == 2:
        t *= t
        t -= 1.0 / 30.0
    else:  # u * u * u - 0.5 * u * u + 1 / 42, in that order
        np.multiply(t, t, out=w)
        w *= t
        np.multiply(t, 0.5, out=z)
        z *= t
        np.subtract(w, z, out=t)
        t += 1.0 / 42.0
    t *= (-1.0) ** (order - 1) * (2.0 * math.pi) ** (2 * order) / math.factorial(2 * order)
    t += 1.0


def _as_points(X, kernel: KernelSpec | None = None) -> np.ndarray:
    P = np.asarray(X, dtype=np.float64)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[0] == 0:
        raise InputError("expected a nonempty (n, d) array of points")
    if not np.all(np.abs(P) <= sys.float_info.max / 2):  # then every a_k - b_k is finite
        raise InputError("points need finite coordinates of at most half the largest float")
    if kernel is not None and kernel.family != "sobolev" and not np.all(np.abs(P) <= 2.0**500):
        raise InputError("points need |coordinates| <= 2^500 for gaussian and laplacian kernels")
    if kernel is not None and kernel.family == "sobolev" and P.shape[1] != kernel.dim:
        raise InputError(
            f"point dimension {P.shape[1]} does not match sobolev kernel dimension {kernel.dim}"
        )
    return P


def _point_pair(kernel: KernelSpec, X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Validated point arrays of X and Y (X again if Y is None)."""
    A = _as_points(X, kernel)
    B = A if Y is None else _as_points(Y, kernel)
    if A.shape[1] != B.shape[1]:
        raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    return A, B


def _pairwise_block(kernel: KernelSpec, A: np.ndarray, B: np.ndarray, out: np.ndarray, work):
    """Write the (len(A), len(B)) block of kernel values into the C-contiguous
    out, in place; Sobolev also uses the rows of the array work that ``_fill``
    sizes.  Built from coordinate differences only, so swapping A and B
    transposes the block bit-exactly."""
    if kernel.family == "sobolev":
        w, *more = (row.reshape(out.shape) for row in work[:, : out.size])
        z = more.pop() if kernel.order == 3 else None
        for k in range(A.shape[1]):
            t = out if k == 0 else more[0]
            np.subtract.outer(A[:, k], B[:, k], out=t)
            np.abs(t, out=t)
            t -= np.floor(t, out=w)
            _sobolev_factor(kernel.order, t, w, z)
            if k:
                out *= t
        return
    # imported here: scipy.spatial takes ~130 ms to load, which Sobolev-only runs skip
    from scipy.spatial.distance import cdist

    cdist(A, B, "sqeuclidean" if kernel.family == "gaussian" else "euclidean", out=out)
    # distances far above sigma overflow to -inf, and exp(-inf) = 0 is their value
    with np.errstate(over="ignore"):
        if kernel.family == "gaussian":  # -0.5 * d2 / sigma^2, in that order
            out *= -0.5
            out /= kernel.bandwidth**2
        else:  # -d / sigma
            out /= -kernel.bandwidth
    np.exp(out, out=out)


def _fill(kernel: KernelSpec, A: np.ndarray, B: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous (len(A), len(B)) array out with k(A_i, B_j), row
    strip by row strip, each strip about _STRIP values; returns out."""
    rows = min(A.shape[0], max(1, _STRIP // B.shape[0]))
    work = None
    if kernel.family == "sobolev":  # rows: w; the factor of coordinates k > 0; z for s = 3
        work = np.empty((1 + (A.shape[1] > 1) + (kernel.order == 3), rows * B.shape[0]))
    for i0 in range(0, A.shape[0], rows):
        _pairwise_block(kernel, A[i0 : i0 + rows], B, out[i0 : i0 + rows], work)
    return out


def evaluate(kernel: KernelSpec, x, y) -> float:
    """Single kernel evaluation k(x, y)."""
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    return float(gram(kernel, a, np.atleast_1d(np.asarray(y, dtype=np.float64))[None, :])[0, 0])


def gram(kernel: KernelSpec, X, Y=None) -> np.ndarray:
    """Kernel matrix of X against Y (or the symmetric Gram of X if Y is None).

    One ``_fill`` of the output, whose full-width row strips are contiguous in
    it.  k(x, y) == k(y, x) bit for bit, so ``gram(X)`` is symmetric to zero
    absolute error and equal to ``gram(kernel, X, X)``.
    """
    A, B = _point_pair(kernel, X, Y)
    return _fill(kernel, A, B, np.empty((A.shape[0], B.shape[0])))


def _kernel_matvec(kernel: KernelSpec, X, Y, b) -> np.ndarray:
    """K(X, Y) b, never holding more than one tile.

    The walk fills _TILE-square tiles K_IJ, row block I outer and column
    block J inner, into one reused buffer; each adds the row product K_IJ b_J
    to v_I.  When Y equals X by value, K is symmetric bit for bit, so only the
    tiles with J >= I are filled, and each off-diagonal one also adds its
    column product K_IJ^T b_I to v_J: every pair's kernel value is computed
    once.  Either way each row block sums its tile products in increasing
    order of the other block.  The products are numpy ``einsum`` loops, not
    BLAS, so the bits depend on no thread count.
    """
    A, B = _point_pair(kernel, X, Y)
    symmetric = np.array_equal(A, B)
    v = np.zeros(A.shape[0])
    buf = np.empty(min(_TILE, A.shape[0]) * min(_TILE, B.shape[0]))
    for i0 in range(0, A.shape[0], _TILE):
        I = slice(i0, i0 + _TILE)
        Ai = A[I]
        for j0 in range(i0 if symmetric else 0, B.shape[0], _TILE):
            J = slice(j0, j0 + _TILE)
            Bj = B[J]
            K = _fill(kernel, Ai, Bj, buf[: len(Ai) * len(Bj)].reshape(len(Ai), len(Bj)))
            v[I] += np.einsum("ij,j->i", K, b[J])
            if symmetric and j0 > i0:
                v[J] += np.einsum("ij,i->j", K, b[I])
    return v


def median_heuristic(X, rng=0) -> float:
    """Median pairwise Euclidean distance over a random subset of
    _MEDIAN_SUBSET points of X (all of X if it has fewer).

    The distances of the subset's pairs come from scipy's ``pdist``, and one
    in-place partition of that array selects their median: the middle value,
    or (lo + hi) / 2 of the middle two, as ``np.median`` takes it, bit for bit.
    The subset is drawn by ``np.random.default_rng(rng)``; raises if the
    median comes out zero (a bandwidth must be positive).
    """
    # imported here: scipy.spatial takes ~130 ms to load, which Sobolev-only runs skip
    from scipy.spatial.distance import pdist

    P = _as_points(X, gaussian(1.0))  # the coordinate bound of gaussian and laplacian points
    n = P.shape[0]
    if n < 2:
        raise InputError("median heuristic needs at least two points")
    idx = np.random.default_rng(rng).permutation(n)[:_MEDIAN_SUBSET]
    d = pdist(P[idx])  # finite under the coordinate bound, so no NaN to look for
    k = d.size // 2
    d.partition(k)
    med = float(d[k] if d.size % 2 else (d[:k].max() + d[k]) / 2.0)
    if med <= 0.0:
        raise InputError("median inter-point distance is zero; bandwidth must be positive")
    return med


_SIGMA = optional(float, "median")

# Kernel spec schema: family -> accepted keys and their value parsers.
KERNELS = {
    "gaussian": {"sigma": _SIGMA},
    "laplacian": {"sigma": _SIGMA},
    "sobolev": {"s": int, "d": int},
}


def parse_kernel(text: str, points=None, rng=0) -> KernelSpec:
    """Build a KernelSpec from a selector string.

    Grammar: ``gaussian:sigma=<float|median>``, ``laplacian:sigma=<float|median>``,
    ``sobolev:s=<int>,d=<int>``.  ``sigma=median`` requires ``points`` and
    takes the median heuristic over a random subset of 1000 of them, drawn by
    ``np.random.default_rng(rng)``.
    """
    family, params = parse_spec(text, "kernel", KERNELS)
    if family == "sobolev":
        return KernelSpec(family="sobolev", order=params.get("s", 1), dim=params.get("d", 1))
    sigma = params.get("sigma")
    if sigma is None:
        if points is None:
            raise InputError("sigma=median requires data points")
        sigma = median_heuristic(points, rng=rng)
    return KernelSpec(family=family, bandwidth=sigma)
