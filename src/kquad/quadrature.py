"""Quadrature rules: optimal weights, exact worst-case error, compression.

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
from .numerics import pinv_apply
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
    uniform-measure moments are available analytically: it is the uniform
    measure on the torus [0, 1)^d of the kernel it is used with.
    """

    points: np.ndarray | None = None
    masses: np.ndarray | None = None

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
    def unit_cube() -> "TargetMeasure":
        return TargetMeasure()

    @property
    def is_discrete(self) -> bool:
        return self.points is not None


def _check_analytic(kernel: KernelSpec):
    if kernel.family != "sobolev":
        raise InputError("the unit-cube target has analytic moments only for sobolev kernels")


def target_moments(kernel: KernelSpec, nodes, target: TargetMeasure) -> np.ndarray:
    """v_j = E_{x ~ target} k(nodes_j, x).

    Discrete targets are streamed tile by tile through the kernel matvec
    (``kernels._kernel_matvec``), so the m x n cross matrix is never
    materialized; on the target's own points the pass evaluates each pair of
    points once.  The unit-cube target gives the constant vector 1.
    """
    N = _as_points(nodes, kernel)
    if not target.is_discrete:
        _check_analytic(kernel)
        return np.ones(N.shape[0])
    return _kernel_matvec(kernel, N, target.points, target.masses)


def target_self_product(kernel: KernelSpec, target: TargetMeasure) -> float:
    """Double integral of the kernel against the target: int int k d(rho x rho),
    for a discrete target the self-product of ``target_embedding`` on its points."""
    if not target.is_discrete:
        _check_analytic(kernel)
        return 1.0
    return target_embedding(kernel, target.points, target)[1]


def target_embedding(kernel: KernelSpec, X, target=None) -> tuple[np.ndarray, float]:
    """(kme, T): the target's kernel mean at every row of X and its self-product.

    ``target=None`` is the uniform discrete measure on X.  A discrete target
    whose points are X takes T = fsum(masses * kme) from the same Theta(n^2)
    pass; any other target takes T from ``target_self_product``.
    """
    P = _as_points(X)
    if target is None:
        target = TargetMeasure.discrete(P)
    kme = target_moments(kernel, P, target)
    if target.is_discrete and np.array_equal(target.points, P):
        return kme, math.fsum(target.masses * kme)
    return kme, target_self_product(kernel, target)


def optimal_weights(kernel: KernelSpec, nodes, target: TargetMeasure) -> QuadratureRule:
    """Least-squares optimal rule on the given nodes: w = K_m^+ v.

    The solve is ``numerics.pinv_apply``, a pivoted Cholesky of K_m that
    stops at the numerical rank.  The weights are the minimum-norm solution,
    so they live in the row space of K_m and duplicate nodes share their
    weight evenly rather than being deduplicated.  K_m is factored in place.
    """
    N = _as_points(nodes)
    v = target_moments(kernel, N, target)
    return QuadratureRule(nodes=N, weights=pinv_apply(gram(kernel, N), v, overwrite_a=True))


def integrate(rule: QuadratureRule, f_at_nodes) -> float:
    """Apply the rule to function values at its nodes: sum_j w_j f(X~_j)."""
    f = np.asarray(f_at_nodes, dtype=np.float64).ravel()
    if f.shape[0] != len(rule):
        raise InputError(f"expected {len(rule)} values, got {f.shape[0]}")
    return float(rule.weights @ f)


def worst_case_error(rule: QuadratureRule, target: TargetMeasure, kernel: KernelSpec) -> float:
    """Exact worst-case integration error over the RKHS unit ball.

    A fresh evaluation of the target's embedding at the rule's nodes
    (Theta(n^2) kernel evaluations for a discrete target), and of w^T K_m w
    by the kernel matvec's walk over the node pairs (no Gram is held).
    Rules built by ``compress`` carry this error as ``rule.error`` already.
    """
    v, T = target_embedding(kernel, rule.nodes, target)
    w = rule.weights
    return _error(T, w, v, float(w @ _kernel_matvec(kernel, rule.nodes, rule.nodes, w)))


def _error(T: float, w: np.ndarray, v: np.ndarray, wKw: float) -> float:
    """E = sqrt(T - 2 w.v + w.K_m w), the three terms summed by fsum.

    ``wKw`` is w . K_m w with K_m w from ``kernels._kernel_matvec`` on the
    nodes: a walk that evaluates each node pair once and sums with numpy
    ``einsum``, so no m x m array is held and no BLAS is called.
    Cancellation rounds in proportion to the terms, and |w.v| <=
    sqrt(T w.K_m w) by Cauchy-Schwarz, so S = max(1, T, w.K_m w) bounds all
    three: a squared error above -1e-8 S is clamped to zero, anything lower
    raises.
    """
    e2 = math.fsum([T, -2.0 * float(w @ v), wKw])
    if e2 < -1e-8 * max(1.0, T, wKw):
        raise NumericalError(f"squared worst-case error {e2:.3e} is negative beyond tolerance")
    return math.sqrt(max(e2, 0.0))


def compress(X, kernel: KernelSpec, method: str, m: int, rng=0) -> QuadratureRule:
    """``compress_grid`` at one m, against the empirical measure on X."""
    return next(compress_grid(X, kernel, method, (m,), rng))


def compress_grid(
    X,
    kernel: KernelSpec,
    method: str,
    ms,
    rng=0,
    embedding: tuple[np.ndarray, float] | None = None,
    draw_rng=None,
) -> Iterator[QuadratureRule]:
    """Compress the measure on X into a rule at each m of ``ms``, in order.

    ``method`` is a spec of METHODS.  ``monte-carlo`` draws m data points
    uniformly with replacement and weights them 1/m.  Every other method
    picks m data points and solves for the optimal weights against the
    target: ``uniform`` and ``uniform-wr`` draw them uniformly without or
    with replacement, ``arls:lambda=<float|auto>,pilot=<int|auto>`` in
    proportion to approximate ridge leverage scores, and the greedy methods
    select them by their ``greedy_select`` criterion.  ``rng`` is a Generator
    or a seed.  Each rule carries its worst-case ``error`` against the target
    and the wall times of the two phases.

    ``embedding`` is the target's ``target_embedding(kernel, X, target)``, by
    default that of the uniform discrete measure on X.  A rule holds at most
    one m x m array: the node Gram, which ``pinv_apply`` factors in place and
    which is dropped before the error is computed.  ``monte-carlo`` builds no
    Gram.  The error's w^T K_m w comes from the kernel matvec's walk over the
    node pairs.

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
    kme, T = target_embedding(kernel, P) if embedding is None else embedding
    kme = np.asarray(kme, dtype=np.float64).ravel()
    if kme.shape[0] != P.shape[0]:
        raise InputError(f"expected {P.shape[0]} kernel-mean values, got {kme.shape[0]}")

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
        pick = lambda m, draw: selected[:m]
    elif head == "arls":
        scores = approx_rls_pilot(P, kernel, params.get("lambda"), params.get("pilot"), rng)
        pick = lambda m, draw: sample_proportional(scores, m, draw)
    else:
        pick = lambda m, draw: uniform_subsample(P.shape[0], m, head != "uniform", draw)
    shared_s = time.perf_counter() - t0
    for m in ms:
        t0 = time.perf_counter()
        indices = pick(m, rng if draw_rng is None else draw_rng(m))
        t1 = time.perf_counter()
        nodes, v = P[indices], kme[indices]
        if head == "monte-carlo":
            weights = np.full(m, 1.0 / m)
        else:
            weights = pinv_apply(gram(kernel, nodes), v, overwrite_a=True)
        t2 = time.perf_counter()
        wKw = float(weights @ _kernel_matvec(kernel, nodes, nodes, weights))
        error = _error(T, weights, v, wKw)
        yield QuadratureRule(
            nodes=nodes,
            weights=weights,
            indices=indices,
            sample_time_s=shared_s + t1 - t0,
            weight_time_s=t2 - t1,
            error=error,
        )
        shared_s = 0.0

