"""Independent reference computations used as test oracles.

Everything here is deliberately brute force and kept separate from the
library code paths it checks.
"""

import math

import numpy as np

from kquad.errors import InputError, NumericalError
from kquad.kernels import gram


def sobolev_series_1d(order, offsets, terms=1_000_000, chunk=50_000):
    """Truncated cosine series 1 + 2 sum_{k<=terms} cos(2 pi k t) / k^(2s)."""
    t = np.atleast_1d(np.asarray(offsets, dtype=np.float64))
    total = np.ones_like(t)
    for k0 in range(1, terms + 1, chunk):
        k = np.arange(k0, min(k0 + chunk, terms + 1), dtype=np.float64)
        total = total + 2.0 * (np.cos(2.0 * np.pi * np.outer(t, k)) @ k ** (-2.0 * order))
    return total


def pairwise_block_einsum(kernel, A, B):
    """Kernel block from the full (a, b, d) difference tensor: squared
    distances by einsum, the Sobolev factors 1 + c B_2s({|x - y|}) multiplied
    by np.prod, with the same floating-point steps per value as kquad."""
    diff = A[:, None, :] - B[None, :, :]
    if kernel.family == "sobolev":
        s = kernel.order
        t = np.abs(diff)
        t -= np.floor(t)
        u = t * (t - 1.0)
        bern = {1: lambda: u + 1.0 / 6.0, 2: lambda: u * u - 1.0 / 30.0,
                3: lambda: u * u * u - 0.5 * u * u + 1.0 / 42.0}[s]()
        coef = (-1.0) ** (s - 1) * (2.0 * math.pi) ** (2 * s) / math.factorial(2 * s)
        return np.prod(1.0 + coef * bern, axis=-1)
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    if kernel.family == "gaussian":
        return np.exp(-0.5 * d2 / kernel.bandwidth**2)
    return np.exp(-np.sqrt(d2) / kernel.bandwidth)


def pairwise_distances_einsum(S):
    """Distances of every pair i < j of rows of S, row by row, by einsum."""
    diff = S[:, None, :] - S[None, :, :]
    d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    return np.concatenate([d[r, r + 1 :] for r in range(S.shape[0] - 1)])


def zeta_series(exponent, terms=1_000_000):
    k = np.arange(1, terms + 1, dtype=np.float64)
    return float(np.sum(k ** (-float(exponent))))


def effective_dimension_direct(spectrum, lam):
    sig = np.asarray(spectrum, dtype=np.float64)
    return float(np.sum(sig / (sig + lam)))


def dense_interpolation_residual(K, selected, f):
    """f - interpolant values at all points, by a dense solve on K_selected."""
    sel = list(selected)
    Ks = K[np.ix_(sel, sel)]
    coef = np.linalg.solve(Ks, f[sel])
    return f - K[:, sel] @ coef


def projected_gram(K, selected):
    """Gram of the data features projected onto the selected span."""
    sel = list(selected)
    Ks = K[np.ix_(sel, sel)]
    Kxs = K[:, sel]
    return Kxs @ np.linalg.solve(Ks, Kxs.T)


def nystrom_leverage_scores(kernel, X, pilot_indices, lam):
    """Ridge leverage scores of the Nystrom approximation through a pilot.

    diag(K~ (K~ + lam n I)^-1) with K~ = K_XJ K_J^+ K_JX, the pseudo-inverse
    of the pilot Gram K_J built from its eigendecomposition with eigenvalues
    at or below p * eps * lambda_max dropped, and the n x n resolvent formed
    densely.
    """
    P = np.asarray(X, dtype=np.float64)
    J = np.asarray(pilot_indices, dtype=np.intp)
    w, V = np.linalg.eigh(gram(kernel, P[J]))
    keep = w > J.size * np.finfo(np.float64).eps * w[-1]
    KXJ = gram(kernel, P, P[J])
    left = KXJ @ V[:, keep]
    Kt = (left / w[keep]) @ left.T
    n = P.shape[0]
    return np.diag(np.linalg.solve(Kt + lam * n * np.eye(n), Kt))


def gaussian_wce_sq_longdouble(sigma, nodes, weights, points, masses, chunk=256):
    """Squared worst-case error of a Gaussian-kernel rule, all in np.longdouble.

    Evaluates E^2 = c^T K c over the union of target points and rule nodes,
    with c = (masses, -weights), recomputing every kernel value from the
    formula exp(-|x - y|^2 / (2 sigma^2)) in extended precision.  Only the
    inputs (points, masses, the rule's float64 nodes and weights) are shared
    with the library.
    """
    ld = np.longdouble
    Z = np.vstack([np.atleast_2d(points.T).T, np.atleast_2d(nodes.T).T]).astype(ld)
    c = np.concatenate([np.ravel(masses), -np.ravel(weights)]).astype(ld)
    scale = ld(2) * ld(sigma) ** 2
    total = ld(0)
    for i0 in range(0, Z.shape[0], chunk):
        d2 = ((Z[i0 : i0 + chunk, None, :] - Z[None, :, :]) ** 2).sum(axis=2)
        total += c[i0 : i0 + chunk] @ (np.exp(-d2 / scale) @ c)
    return total


def power_function_bruteforce(kernel, X, selected, x):
    """Reference squared power function via a dense solve.

    k(x, x) - k_t(x)^T K_t^(-1) k_t(x), the Schur complement of the selected
    block (equivalently the determinant ratio when x is appended).  Checks the
    incremental updates of greedy_select.
    """
    P = np.asarray(X, dtype=np.float64)
    if P.ndim == 1:
        P = P[:, None]
    sel = np.asarray(selected, dtype=np.intp)
    point = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    self_val = float(gram(kernel, point)[0, 0])
    if sel.size == 0:
        return self_val
    Kt = gram(kernel, P[sel])
    kt = gram(kernel, P[sel], point)[:, 0]
    try:
        solved = np.linalg.solve(Kt, kt)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("selected Gram block is singular") from exc
    return self_val - float(kt @ solved)


def worst_case_witness(rule, target, kernel):
    """Unit-norm witness function achieving the worst-case error.

    The witness is the normalized difference of the target and rule
    embeddings, expanded over the union of the target support and the nodes.
    Returns its expansion coefficients and the achieved integration gap,
    which must equal ``worst_case_error``.  A zero embedding gap yields zero
    coefficients and gap 0.
    """
    if not target.is_discrete:
        raise InputError("the witness construction needs a discrete target")
    pts, masses = target.points, target.masses
    if pts.shape[1] != rule.nodes.shape[1]:
        raise InputError("target and rule dimensions differ")
    union = np.vstack([pts, rule.nodes])
    coeffs = np.concatenate([masses, -rule.weights])
    G = gram(kernel, union)
    norm2 = float(coeffs @ (G @ coeffs))
    scale = float(np.abs(coeffs) @ (np.abs(G) @ np.abs(coeffs)))
    if norm2 <= 1e-13 * scale:
        return np.zeros_like(coeffs), 0.0
    unit = coeffs / math.sqrt(norm2)
    n_t = pts.shape[0]
    target_integral = float(masses @ (G[:n_t] @ unit))
    rule_integral = float(rule.weights @ (G[n_t:] @ unit))
    return unit, abs(target_integral - rule_integral)
