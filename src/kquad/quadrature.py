"""Quadrature rules: optimal weights, exact worst-case error, MMD, compression.

A rule (nodes X~, weights w) approximates integration against a target
measure.  The optimal weights solve the least-squares problem of projecting
the target's kernel mean embedding onto span{k(X~_j, .)}, i.e. w = K_m^+ v
with v_j the target moment of k(X~_j, .).  The worst-case error over the
unit ball of the RKHS is the embedding distance

    E^2 = int int k d(rho x rho) - 2 sum_j w_j int k(., X~_j) drho + w^T K_m w

which is computable exactly for discrete targets (in Theta(n^2) kernel
evaluations) and in closed form for the uniform unit cube under the periodic
Sobolev kernel, whose moments are identically one.

This module computes only; rule files are written and read in ``bench``,
beside the other file formats.
"""

from __future__ import annotations

import logging
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .greedy import greedy_select
from .kernels import KernelSpec, _as_points, _kernel_matvec, gram
from .numerics import matvec, pinv_apply
from .sampling import approx_rls_pilot, sample_proportional, uniform_subsample
from .specs import optional, parse_spec

# Method spec schema: every way to build a rule, in stream-id order.
METHODS = {
    "monte-carlo": {},
    "uniform": {},
    "uniform-wr": {},
    "arls": {"lambda": optional(float), "pilot": optional(int)},
    "f-greedy": {},
    "p-greedy": {},
    "fp-greedy": {},
}

# Greedy methods and their greedy_select criterion.
GREEDY = {"f-greedy": "f", "p-greedy": "P", "fp-greedy": "f_over_P"}

_LOG = logging.getLogger("kquad")


@dataclass
class QuadratureRule:
    """m weighted nodes; weights are unconstrained in sign and sum."""

    nodes: np.ndarray
    weights: np.ndarray
    indices: np.ndarray | None = None  # source indices when subsampled
    sample_time_s: float | None = None
    weight_time_s: float | None = None
    error: float | None = None  # worst-case error against the target it was built for

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        if self.nodes.ndim == 1:
            self.nodes = self.nodes[:, None]
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if self.nodes.shape[0] != self.weights.shape[0]:
            raise InputError("node and weight counts differ")
        if not np.all(np.isfinite(self.weights)):
            raise InputError("weights must be finite")

    def __len__(self):
        return self.weights.shape[0]


@dataclass(frozen=True)
class TargetMeasure:
    """Integration target: discrete (points + masses) or uniform unit cube.

    The unit-cube variant is usable only with periodic Sobolev kernels, whose
    uniform-measure moments are available analytically.
    """

    points: np.ndarray | None = None
    masses: np.ndarray | None = None
    cube_dim: int | None = None

    @staticmethod
    def discrete(points, masses=None) -> "TargetMeasure":
        P = _as_points(points)
        if masses is None:
            w = np.full(P.shape[0], 1.0 / P.shape[0])
        else:
            w = np.asarray(masses, dtype=np.float64).ravel()
            if w.shape[0] != P.shape[0]:
                raise InputError("points and masses counts differ")
            if not np.all(np.isfinite(w) & (w >= 0)):
                raise InputError("masses must be finite and nonnegative")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise InputError("masses must sum to 1 within 1e-12")
        return TargetMeasure(points=P, masses=w)

    @staticmethod
    def unit_cube(dim: int) -> "TargetMeasure":
        if dim < 1:
            raise InputError("cube dimension must be >= 1")
        return TargetMeasure(cube_dim=int(dim))

    @property
    def is_discrete(self) -> bool:
        return self.points is not None


def _check_analytic(kernel: KernelSpec, target: TargetMeasure, dim: int | None = None):
    if kernel.family != "sobolev":
        raise InputError("the unit-cube target has analytic moments only for sobolev kernels")
    if dim is not None and dim != target.cube_dim:
        raise InputError(
            f"node dimension {dim} does not match cube dimension {target.cube_dim}"
        )
    if kernel.dim != target.cube_dim:
        raise InputError("kernel and cube dimensions differ")


def target_moments(kernel: KernelSpec, nodes, target: TargetMeasure) -> np.ndarray:
    """v_j = E_{x ~ target} k(nodes_j, x).

    Discrete targets are streamed tile by tile through the kernel matvec
    (``kernels._kernel_matvec``), so the m x n cross matrix is never
    materialized; the target's own points take the same pass.  The unit-cube
    target gives the constant vector 1.
    """
    N = _as_points(nodes)
    if not target.is_discrete:
        _check_analytic(kernel, target, dim=N.shape[1])
        return np.ones(N.shape[0])
    return _kernel_matvec(kernel, N, target.points, target.masses)


def target_self_product(kernel: KernelSpec, target: TargetMeasure) -> float:
    """Double integral of the kernel against the target: int int k d(rho x rho),
    for a discrete target fsum(masses * moments of its points), as in compress_grid."""
    if not target.is_discrete:
        _check_analytic(kernel, target)
        return 1.0
    return math.fsum(target.masses * target_moments(kernel, target.points, target))


def optimal_weights(kernel: KernelSpec, nodes, target: TargetMeasure) -> QuadratureRule:
    """Least-squares optimal rule on the given nodes: w = K_m^+ v.

    The solve is ``numerics.pinv_apply``, a pivoted Cholesky of K_m that
    stops at the numerical rank.  The weights are the minimum-norm solution,
    so they live in the row space of K_m and duplicate nodes share their
    weight evenly rather than being deduplicated.
    """
    N = _as_points(nodes)
    v = target_moments(kernel, N, target)
    return QuadratureRule(nodes=N, weights=pinv_apply(gram(kernel, N), v))


def integrate(rule: QuadratureRule, f_at_nodes) -> float:
    """Apply the rule to function values at its nodes: sum_j w_j f(X~_j)."""
    f = np.asarray(f_at_nodes, dtype=np.float64).ravel()
    if f.shape[0] != len(rule):
        raise InputError(f"expected {len(rule)} values, got {f.shape[0]}")
    return float(rule.weights @ f)


def worst_case_error(rule: QuadratureRule, target: TargetMeasure, kernel: KernelSpec) -> float:
    """Exact worst-case integration error over the RKHS unit ball.

    A fresh evaluation of the target's self-product (Theta(n^2) kernel
    evaluations for a discrete target), the moments of the rule's nodes and
    their Gram.  Rules built by ``compress`` carry this error as
    ``rule.error`` already.
    """
    N = rule.nodes
    T = target_self_product(kernel, target)
    return _error(T, rule.weights, target_moments(kernel, N, target), gram(kernel, N))


def _error(T: float, w: np.ndarray, v: np.ndarray, Km: np.ndarray) -> float:
    """E = sqrt(T - 2 w.v + w.K_m w), the three terms summed by fsum.

    Small negative squared errors (above -1e-8) from cancellation are
    clamped to zero; anything lower raises.
    """
    e2 = math.fsum([T, -2.0 * float(w @ v), float(w @ matvec(Km, w))])
    if e2 < -1e-8:
        raise NumericalError(f"squared worst-case error {e2:.3e} is negative beyond tolerance")
    return math.sqrt(max(e2, 0.0))


def mmd(kernel: KernelSpec, points_a, weights_a, points_b, weights_b) -> float:
    """Embedding distance between two weighted point sets."""
    A, B = _as_points(points_a), _as_points(points_b)
    a = np.asarray(weights_a, dtype=np.float64).ravel()
    b = np.asarray(weights_b, dtype=np.float64).ravel()
    m2 = math.fsum(
        [
            math.fsum(a * _kernel_matvec(kernel, A, None, a)),
            -2.0 * math.fsum(a * _kernel_matvec(kernel, A, B, b)),
            math.fsum(b * _kernel_matvec(kernel, B, None, b)),
        ]
    )
    return math.sqrt(max(m2, 0.0))


def compress(
    X,
    kernel: KernelSpec,
    method: str,
    m: int,
    rng=0,
    target: TargetMeasure | None = None,
    kme=None,
) -> QuadratureRule:
    """Compress the empirical measure on X into an m-node rule by ``method``.

    ``method`` is a spec of METHODS.  ``monte-carlo`` draws m data points
    uniformly with replacement and weights them 1/m.  Every other method
    picks m data points and solves for the optimal weights against
    ``target`` (default: the uniform discrete measure on X): ``uniform`` and
    ``uniform-wr`` draw them uniformly without or with replacement,
    ``arls:lambda=<float|auto>,pilot=<int|auto>`` in proportion to
    approximate ridge leverage scores, and the greedy methods select them by
    their ``greedy_select`` criterion.  ``kme`` holds the target's moments at
    every point of X (computed here unless given); every rule takes its
    moments from it, and the f and f/P criteria interpolate it.
    ``rng`` is a Generator or a seed.  The rule carries its worst-case
    ``error`` against the target and the wall times of the two phases.  This
    is ``compress_grid`` at the single m.
    """
    return next(compress_grid(X, kernel, method, (m,), rng, target, kme))


def compress_grid(
    X,
    kernel: KernelSpec,
    method: str,
    ms,
    rng=0,
    target: TargetMeasure | None = None,
    kme=None,
    draw_rng=None,
) -> Iterator[QuadratureRule]:
    """Yield the rule ``compress`` builds at each m of ``ms``, in order.

    Each rule carries its worst-case ``error``.  ``kme`` is the target's
    kernel mean at every point of X, ``target_moments(kernel, X, target)``,
    computed here once unless given: a rule's moments are ``kme[indices]``,
    and the f and f/P greedy criteria interpolate it.  For the default
    target, the discrete measure on X with masses a = 1/n, the self-product
    is ``a . kme``; an explicit target takes it from ``target_self_product``.
    A rule's node Gram is dropped once its error is computed.

    The work that does not depend on m is done once: the arls pilot scores
    are drawn from ``rng``, and a greedy method runs once at max(ms), the
    rule for m taking the first m of its nodes.  Then each m draws its nodes
    from ``draw_rng(m)`` (default: ``rng``) and solves for its weights.  The
    first rule's ``sample_time_s`` carries the shared phase.  A greedy
    selection that stops before max(ms), with every candidate inside the
    selected span, is logged as a warning on the ``kquad`` logger, and its
    rules for the larger m have fewer than m nodes.
    """
    head, params = parse_spec(method, "method", METHODS)
    ms = list(ms)
    for m in ms:
        if m < 1:
            raise InputError(f"m must be >= 1, got {m}")
    if not ms:
        return
    P = _as_points(X)
    rng = np.random.default_rng(rng)
    if kme is None:
        kme = target_moments(kernel, P, target or TargetMeasure.discrete(P))
    kme = np.asarray(kme, dtype=np.float64).ravel()
    if kme.shape[0] != P.shape[0]:
        raise InputError(f"expected {P.shape[0]} kernel-mean values, got {kme.shape[0]}")
    if target is None:
        T = math.fsum(TargetMeasure.discrete(P).masses * kme)
    else:
        T = target_self_product(kernel, target)

    t0 = time.perf_counter()
    if head in GREEDY:
        selected = greedy_select(P, kernel, kme, max(ms), GREEDY[head]).selected
        short = [m for m in ms if m > len(selected)]
        if short:
            _LOG.warning(
                "%s stopped at %d nodes, every remaining candidate lying in the span of "
                "the selected ones; its rules for m = %s have %d nodes",
                method, len(selected), ", ".join(map(str, short)), len(selected),
            )
    elif head == "arls":
        scores = approx_rls_pilot(P, kernel, params.get("lambda"), params.get("pilot"), rng)
    shared_s = time.perf_counter() - t0
    for m in ms:
        t0 = time.perf_counter()
        draw = rng if draw_rng is None else draw_rng(m)
        if head in GREEDY:
            indices = selected[:m]
        elif head == "arls":
            indices = sample_proportional(scores, m, draw)
        else:
            indices = uniform_subsample(P.shape[0], m, head != "uniform", draw)
        t1 = time.perf_counter()
        nodes, v = P[indices], kme[indices]
        Km = gram(kernel, nodes)
        weights = np.full(m, 1.0 / m) if head == "monte-carlo" else pinv_apply(Km, v)
        t2 = time.perf_counter()
        error = _error(T, weights, v, Km)
        del Km  # free this K_m before the next, larger rule builds its own
        yield QuadratureRule(
            nodes=nodes,
            weights=weights,
            indices=indices,
            sample_time_s=shared_s + t1 - t0,
            weight_time_s=t2 - t1,
            error=error,
        )
        shared_s = 0.0

