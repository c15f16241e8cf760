"""Greedy node selection over the data with incremental Newton-basis updates.

Three selection criteria are supported, all searching exhaustively over the
data at each step:

* ``P``:        maximize the squared power function ||P_t-perp phi(x)||^2
                (equivalently the determinant gain of the selected Gram);
* ``f``:        maximize the absolute residual |f(x) - interpolant(x)|;
* ``f_over_P``: maximize residual^2 / power^2, which greedily minimizes the
                RKHS norm of the interpolation residual.

Each iteration orthonormalizes the newly selected feature against the
previous ones (a Newton basis), which updates the residual and the power
function for all n candidates.  Step k fills one kernel row, O(n), and
projects it on the k earlier basis vectors with one product over all
candidates, O(nk); the coefficients are stored candidate-major, so that
product reads the leading k columns in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .kernels import KernelSpec, _as_points, _fill

VARIANTS = ("f", "P", "f_over_P")

# Candidates whose remaining power mass is below this are treated as already
# inside the selected span; updating or selecting them is unstable.
_STABILITY_FLOOR = 1e-10


@dataclass
class GreedyState:
    """State after t greedy steps.

    ``coeffs[k, i]`` holds <u_k, phi(x_i)> for the orthonormal Newton basis
    u_0..u_{t-1}; ``residual`` is f - (interpolant at the data); ``powfun2``
    the squared power function, clamped at zero; ``f_coeffs`` the expansion
    of f in the Newton basis.
    """

    selected: np.ndarray
    coeffs: np.ndarray
    residual: np.ndarray
    powfun2: np.ndarray
    f_coeffs: np.ndarray


def greedy_select(X, kernel: KernelSpec, f_at_X, m: int, variant: str) -> GreedyState:
    """Select up to m distinct data indices by the given greedy criterion.

    Ties between bit-equal criterion values break toward the lowest index.
    Identical data rows need not give bit-equal power values after the BLAS
    products, so a higher-index twin can be picked before its lower-index
    one.  If every candidate falls inside the selected span (power mass
    <= 1e-10) before m picks, the state holds the shorter selection, and
    ``len(state.selected) < m``.
    """
    if variant not in VARIANTS:
        raise InputError(f"unknown greedy variant {variant!r}; expected one of {VARIANTS}")
    P = _as_points(X, kernel)
    n = P.shape[0]
    if not 1 <= m <= n:
        raise InputError(f"m must lie in [1, {n}]")
    if variant == "P":
        f = np.zeros(n)
    else:
        f = np.asarray(f_at_X, dtype=np.float64).ravel()
        if f.shape[0] != n:
            raise InputError(f"expected {n} function values, got {f.shape[0]}")

    # f is carried in units of 2^e, e the binary exponent of max|f|: both
    # scalings are exact, and f/P squares residuals of order one, not of f's
    e = math.frexp(float(np.max(np.abs(f))))[1]
    coeffs = np.zeros((n, m))  # coeffs[i, k] = <u_k, phi(x_i)>
    powfun2 = np.full(n, kernel.diag)
    residual = np.ldexp(f, -e)
    f_coeffs = np.zeros(m)
    selected: list[int] = []
    in_span = np.zeros(n, dtype=bool)
    row = np.empty(n)

    for k in range(m):
        feasible = (~in_span) & (powfun2 > _STABILITY_FLOOR)
        if not feasible.any():
            break
        if variant == "P":
            crit = powfun2.copy()
        elif variant == "f":
            crit = np.abs(residual)
        else:
            crit = residual**2 / np.maximum(powfun2, _STABILITY_FLOOR)
        crit[~feasible] = -np.inf
        j = int(np.argmax(crit))  # first max -> lowest index on bit-equal ties
        selected.append(j)
        in_span[j] = True

        root = np.sqrt(powfun2[j])
        _fill(kernel, P[j : j + 1], P, row[None, :])
        c = row - coeffs[:, :k] @ coeffs[j, :k]
        c[powfun2 <= _STABILITY_FLOOR] = 0.0  # already in the span: no update
        c /= root
        coeffs[:, k] = c
        f_coeffs[k] = residual[j] / root
        residual -= f_coeffs[k] * c
        powfun2 = np.maximum(powfun2 - c**2, 0.0)

    t = len(selected)
    return GreedyState(
        selected=np.asarray(selected, dtype=np.intp),
        coeffs=coeffs[:, :t].T,
        residual=np.ldexp(residual, e),
        powfun2=powfun2,
        f_coeffs=np.ldexp(f_coeffs[:t], e),
    )

