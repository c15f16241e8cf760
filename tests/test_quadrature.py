import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kquad import InputError, NumericalError, kernels, quadrature
from kquad.greedy import greedy_select
from kquad.kernels import evaluate, gaussian, gram, laplacian, parse_kernel, periodic_sobolev
from kquad.quadrature import (
    METHODS,
    QuadratureRule,
    TargetMeasure,
    compress,
    compress_grid,
    integrate,
    optimal_weights,
    target_embedding,
    target_moments,
    target_self_product,
    worst_case_error,
)
from kquad.bench import load_rule, save_rule
from kquad.sampling import uniform_subsample

from oracles import gaussian_wce_sq_longdouble, worst_case_witness

EPS = np.finfo(np.float64).eps


def uniform_target(X):
    return TargetMeasure.discrete(X)


def test_target_measure_validation():
    with pytest.raises(InputError):
        TargetMeasure.discrete(np.zeros((0, 2)))
    with pytest.raises(InputError):
        TargetMeasure.discrete(np.zeros((2, 1)), masses=[0.7, 0.7])
    with pytest.raises(InputError):
        TargetMeasure.discrete(np.zeros((2, 1)), masses=[1.5, -0.5])
    with pytest.raises(InputError):
        TargetMeasure.discrete(np.zeros((3, 1)), masses=[np.nan, 0.5, 0.5])
    with pytest.raises(InputError):
        TargetMeasure.discrete([[0.0], [np.nan]])
    cube = TargetMeasure.unit_cube()
    with pytest.raises(InputError):
        target_self_product(gaussian(1.0), cube)  # analytic moments need sobolev
    with pytest.raises(InputError):
        target_moments(periodic_sobolev(1, 1), np.zeros((3, 2)), cube)


def test_unit_cube_moments_are_one():
    cube = TargetMeasure.unit_cube()
    kern = periodic_sobolev(1, 2)
    nodes = np.random.default_rng(0).random((5, 2))
    assert np.array_equal(target_moments(kern, nodes, cube), np.ones(5))
    assert target_self_product(kern, cube) == 1.0


def test_optimal_weights_full_support_uniform():
    rng = np.random.default_rng(1)
    X = rng.random(48)
    kern = periodic_sobolev(1, 1)
    target = uniform_target(X)
    rule = optimal_weights(kern, X, target)
    # dense-solve oracle: K w = v has the unique solution w for full-rank K
    K = gram(kern, X)
    v = K @ target.masses
    oracle = np.linalg.solve(K, v)
    assert np.max(np.abs(rule.weights - oracle)) < 1e-8
    assert np.max(np.abs(rule.weights - 1.0 / 48)) < 1e-8


def test_optimal_weights_single_node_formula():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 2))
    kern = gaussian(0.8)
    node = X[3]
    rule = optimal_weights(kern, node[None, :], uniform_target(X))
    expected = np.mean([evaluate(kern, node, x) for x in X]) / evaluate(kern, node, node)
    assert abs(rule.weights[0] - expected) < 1e-12


def test_optimal_weights_trivial_case():
    X = np.array([[0.3, 0.4]])
    rule = optimal_weights(gaussian(1.0), X, uniform_target(X))
    assert np.allclose(rule.weights, [1.0], atol=1e-12)


def test_weights_live_in_row_space():
    # duplicate nodes make K_m rank deficient; the weights must carry nothing
    # along the null space (minimum-norm solution)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 2))
    nodes = X[[0, 1, 1, 4]]
    kern = gaussian(0.7)
    rule = optimal_weights(kern, nodes, uniform_target(X))
    Km = gram(kern, nodes)
    values, vectors = np.linalg.eigh(Km)
    null = vectors[:, values < 1e-10 * values[-1]]
    assert np.linalg.norm(null.T @ rule.weights) < 1e-8


def test_integrate():
    rule = QuadratureRule(nodes=np.zeros((2, 1)), weights=[0.5, 0.5])
    assert integrate(rule, [3.0, 5.0]) == 4.0
    assert integrate(rule, [0.0, 0.0]) == 0.0
    with pytest.raises(InputError):
        integrate(rule, [1.0])


def test_integrate_full_rule_equals_sample_mean():
    rng = np.random.default_rng(4)
    X = rng.random(32)
    kern = periodic_sobolev(1, 1)
    rule = optimal_weights(kern, X, uniform_target(X))
    f = rng.standard_normal(32)
    assert abs(integrate(rule, f) - f.mean()) < 1e-10


def test_worst_case_error_of_target_itself():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((30, 2))
    target = uniform_target(X)
    rule = QuadratureRule(nodes=X, weights=target.masses)
    assert worst_case_error(rule, target, gaussian(0.8)) <= 1e-7


def test_worst_case_error_zero_weights_unit_cube():
    cube = TargetMeasure.unit_cube()
    kern = periodic_sobolev(1, 1)
    rule = QuadratureRule(nodes=np.array([[0.2], [0.8]]), weights=[0.0, 0.0])
    assert abs(worst_case_error(rule, cube, kern) - 1.0) < 1e-12


def test_worst_case_error_negative_beyond_tolerance_raises(monkeypatch):
    rng = np.random.default_rng(6)
    X = rng.standard_normal((8, 1))
    target = uniform_target(X)
    rule = optimal_weights(gaussian(1.0), X[:3], target)
    # a self-product far below the true one drives E^2 negative
    monkeypatch.setattr(quadrature, "target_self_product", lambda kernel, target: -1.0)
    with pytest.raises(NumericalError):
        worst_case_error(rule, target, gaussian(1.0))


@pytest.mark.parametrize("seed", [0, 3, 5, 6])
def test_exact_rule_with_large_kernel_values_is_not_a_numerical_failure(seed):
    # k(x, x) = (1 + pi^2 / 3)^20 ~ 4e12: an m = n rule's E^2 rounds to about
    # -2e-6, far inside float64 noise at T ~ 1.5e10
    X = np.random.default_rng(0).random((300, 20))
    kern = periodic_sobolev(1, 20)
    T = target_self_product(kern, uniform_target(X))
    assert compress(X, kern, "uniform", 300, seed).error <= 1e-6 * math.sqrt(T)


def floor_case():
    """Gaussian sigma=2 on 2048 standard-normal 1-d points, 64 uniform nodes.

    The optimal-weight error here is about 3e-6; a pseudo-inverse cutoff
    far above float64 rounding reports about 1.2e-4 instead.
    """
    X = np.random.default_rng(0).standard_normal((2048, 1))
    idx = uniform_subsample(2048, 64, rng=np.random.default_rng(1))
    return X, idx, gaussian(2.0)


def test_error_not_floored_by_the_weight_solve():
    X, idx, kern = floor_case()
    target = uniform_target(X)
    assert worst_case_error(optimal_weights(kern, X[idx], target), target, kern) < 1e-5


@pytest.mark.parametrize("optimal", [True, False])
def test_worst_case_error_matches_longdouble_oracle(optimal):
    X, idx, kern = floor_case()
    target = uniform_target(X)
    if optimal:
        rule = optimal_weights(kern, X[idx], target)
    else:
        rule = QuadratureRule(nodes=X[idx], weights=np.full(len(idx), 1.0 / len(idx)))
    e2 = worst_case_error(rule, target, kern) ** 2
    exact = gaussian_wce_sq_longdouble(2.0, rule.nodes, rule.weights, X, target.masses)
    assert abs(e2 - float(exact)) <= rounding_unit(kern, rule, target)


def rounding_unit(kern, rule, target):
    """float64 noise of E^2: one rounding unit of the magnitudes that cancel in it."""
    w = np.abs(rule.weights)
    scale = (
        target_self_product(kern, target)
        + 2.0 * w @ np.abs(target_moments(kern, rule.nodes, target))
        + w @ np.abs(gram(kern, rule.nodes)) @ w
    )
    return EPS * scale


def assert_same_squared_error(e_a, e_b, allowed):
    """|e_a^2 - e_b^2| <= allowed, plus the half ulp each square root rounds E by."""
    assert abs(e_a - e_b) * (e_a + e_b) <= allowed + EPS * (e_a**2 + e_b**2)


# Random data and a positive kernel (Gaussian or Laplacian, sigma 1/4 to 4,
# so k(x, x) = 1).  A kernel mean is a sum of n positive terms, each of whose
# summation orders is within n eps of the exact sum, relatively; so the
# gathered and the per-rule moments differ by up to 2 n eps, and the errors
# computed from them by up to 4 n rounding units.
CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 48),
    d=st.integers(1, 3),
    log2_sigma=st.integers(-2, 2),
    laplace=st.booleans(),
)


def random_case(seed, n, d, log2_sigma, laplace):
    rng = np.random.default_rng(seed)
    kern = (laplacian if laplace else gaussian)(2.0**log2_sigma)
    return rng, rng.standard_normal((n, d)), kern


@settings(max_examples=60, deadline=None)
@given(**CASES, method=st.sampled_from(tuple(METHODS)), m_frac=st.floats(0.0, 1.0))
def test_compress_error_equals_a_fresh_evaluation(seed, n, d, log2_sigma, laplace, method, m_frac):
    _, X, kern = random_case(seed, n, d, log2_sigma, laplace)
    rule = compress(X, kern, method, max(1, round(m_frac * n)), rng=seed)
    target = uniform_target(X)
    fresh = worst_case_error(rule, target, kern)
    assert rule.error >= 0.0
    assert_same_squared_error(rule.error, fresh, 4 * n * rounding_unit(kern, rule, target))


@settings(max_examples=60, deadline=None)
@given(**CASES, m=st.integers(1, 64), optimal=st.booleans())
def test_error_is_nonnegative_and_invariant_under_permutation(
    seed, n, d, log2_sigma, laplace, m, optimal
):
    rng, X, kern = random_case(seed, n, d, log2_sigma, laplace)
    target = uniform_target(X)
    nodes = X[rng.integers(0, n, size=m)]  # duplicates included
    if optimal:
        rule = optimal_weights(kern, nodes, target)
    else:
        rule = QuadratureRule(nodes=nodes, weights=rng.standard_normal(m))
    perm = rng.permutation(m)
    shuffled = QuadratureRule(nodes=rule.nodes[perm], weights=rule.weights[perm])
    e, e_shuffled = worst_case_error(rule, target, kern), worst_case_error(shuffled, target, kern)
    assert e >= 0.0 and e_shuffled >= 0.0
    # the moments and the m-term sums differ only in their rounding order
    allowed = 2 * (n + m) * rounding_unit(kern, rule, target)
    assert_same_squared_error(e, e_shuffled, allowed)


def squared_error(kern, rule, target):
    """E^2 as ``quadrature._error`` sums it, before the clamp and the root."""
    w = rule.weights
    v = target_moments(kern, rule.nodes, target)
    T = target_self_product(kern, target)
    return math.fsum([T, -2.0 * float(w @ v), float(w @ gram(kern, rule.nodes) @ w)])


@pytest.mark.parametrize("pair", ["repeated rows", "split weight", "radial shift", "sobolev shift"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=CASES["seed"], n=st.integers(20, 400), d=CASES["d"], m=st.integers(1, 32),
       optimal=st.booleans())
def test_metamorphic_pairs_give_one_error(pair, seed, n, d, m, optimal):
    """Two descriptions of one rule against one measure give the same E^2
    within (n + m) rounding units, n and m the larger point and node counts:
    integer masses c_i / sum(c) against row i repeated c_i times; a node's
    weight split over a repeat of it; points and nodes shifted together by a
    vector in [-4, 4]^d (Gaussian, Laplacian) or by 1/4, 1/2 or 1 per
    coordinate (periodic Sobolev)."""
    rng = np.random.default_rng(seed)
    if pair == "sobolev shift":
        n, d = min(n, 300), min(d, 2)
        kern, X = periodic_sobolev(int(rng.integers(1, 4)), d), rng.random((n, d))
    else:
        kern = (laplacian if rng.random() < 0.5 else gaussian)(2.0 ** int(rng.integers(-2, 3)))
        X = rng.standard_normal((n, d))
    m = min(m, n)
    nodes, target = X[rng.integers(0, n, size=m)], uniform_target(X)
    if pair == "repeated rows":
        counts = rng.integers(1, 5, size=n)
        target = TargetMeasure.discrete(X, counts / counts.sum())
    if optimal:
        rule = optimal_weights(kern, nodes, target)
    else:
        rule = QuadratureRule(nodes=nodes, weights=rng.standard_normal(m))
    if pair == "repeated rows":
        other, other_target = rule, uniform_target(np.repeat(X, counts, axis=0))
        size = int(counts.sum()) + m
    elif pair == "split weight":
        j, t = int(rng.integers(m)), rng.random()
        weights = np.append(rule.weights, rule.weights[j] * (1.0 - t))
        weights[j] *= t
        other = QuadratureRule(nodes=np.vstack([nodes, nodes[j : j + 1]]), weights=weights)
        other_target, size = target, n + m + 1
    else:
        if pair == "radial shift":
            shift = rng.uniform(-4.0, 4.0, size=d)
        else:
            shift = rng.choice([0.25, 0.5, 1.0], size=d)
        other = QuadratureRule(nodes=nodes + shift, weights=rule.weights)
        other_target, size = uniform_target(X + shift), n + m
    unit = max(rounding_unit(kern, rule, target), rounding_unit(kern, other, other_target))
    gap = squared_error(kern, rule, target) - squared_error(kern, other, other_target)
    assert abs(gap) <= size * unit


@settings(max_examples=30, deadline=None)
@given(
    seed=CASES["seed"], n=CASES["n"], d=CASES["d"], laplace=st.booleans(),
    sigma=st.one_of(st.floats(0.25, 4.0), st.just("median")),
    k=st.integers(-40, 40), m_frac=st.floats(0.0, 1.0),
)
def test_power_of_two_scaling_leaves_the_rule_unchanged(seed, n, d, laplace, sigma, k, m_frac):
    """Points and sigma both scaled by 2^k give every kernel value, and so the
    same rule, bit for bit.  The median sigma scales with the points exactly:
    its distances are square roots of sums of squared differences."""
    assume(sigma != "median" or n >= 2)
    X = np.random.default_rng(seed).standard_normal((n, d))
    family = laplacian if laplace else gaussian

    def kernel(scale):
        if sigma == "median":
            text = "laplacian:sigma=median" if laplace else "gaussian:sigma=median"
            return parse_kernel(text, points=X * scale, rng=np.random.default_rng(seed))
        return family(sigma * scale)

    kern, scaled_kern = kernel(1.0), kernel(2.0**k)
    assert scaled_kern.bandwidth == kern.bandwidth * 2.0**k
    m = max(1, round(m_frac * n))
    for method in ("uniform", "arls", "p-greedy", "f-greedy", "fp-greedy", "monte-carlo"):
        rule = compress(X, kern, method, m, rng=seed)
        scaled = compress(X * 2.0**k, scaled_kern, method, m, rng=seed)
        assert scaled.error == rule.error
        assert np.array_equal(scaled.weights, rule.weights)
        assert np.array_equal(scaled.indices, rule.indices)


@settings(max_examples=60, deadline=None)
@given(**CASES)
def test_full_support_rule_has_zero_error(seed, n, d, log2_sigma, laplace):
    _, X, kern = random_case(seed, n, d, log2_sigma, laplace)
    rule = compress(X, kern, "uniform", n, rng=seed)
    # the pivot cutoff n eps max k(x, x) bounds what the truncated solve leaves
    assert rule.error**2 <= n * EPS + n * rounding_unit(kern, rule, uniform_target(X))


@settings(max_examples=30, deadline=None)
@given(
    **{**CASES, "n": st.integers(1, 1500)},
    k=st.integers(1, 64),
    kind=st.sampled_from(("data", "weighted", "cube")),
)
def test_gathered_moments_equal_target_moments(seed, n, d, log2_sigma, laplace, k, kind):
    rng, X, kern = random_case(seed, n, d, log2_sigma, laplace)
    if kind == "data":
        target = uniform_target(X)
    elif kind == "weighted":  # other points, random masses
        masses = rng.random(n) + 0.1
        target = TargetMeasure.discrete(rng.standard_normal((n, d)), masses / masses.sum())
    else:
        kern, target = periodic_sobolev(1, d), TargetMeasure.unit_cube()
    kme = target_moments(kern, X, target)
    idx = rng.integers(0, n, size=k)  # duplicates included
    v = target_moments(kern, X[idx], target)
    assert np.all(np.abs(kme[idx] - v) <= 2 * n * EPS * v)


def tiled_and_dense_matvec(kern, X, b):
    """K(X, X) b from the tiled kernel matvec and from one dense product with
    the whole Gram, and the bound 2 n eps (|K| |b|) on their difference: the
    same products summed in another order once n exceeds one tile."""
    K = gram(kern, X)
    tiled = kernels._kernel_matvec(kern, X, X, b)
    return tiled, K @ b, 2 * X.shape[0] * EPS * (np.abs(K) @ np.abs(b))


SYMMETRIC_KERNELS = {
    "gaussian": (gaussian(0.7), 2),
    "laplacian": (laplacian(1.3), 3),
    "sobolev": (periodic_sobolev(2, 2), 2),
}


@pytest.mark.parametrize("masses", ["uniform", "dirichlet"])
@pytest.mark.parametrize("family", sorted(SYMMETRIC_KERNELS))
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
def test_symmetric_kernel_matvec_matches_cross_pass(n, family, masses):
    """The tiled K(X, X) b against one dense product, across the tile edges."""
    kern, d = SYMMETRIC_KERNELS[family]
    rng = np.random.default_rng(n)
    X = rng.random((n, d)) if family == "sobolev" else rng.standard_normal((n, d))
    b = np.full(n, 1.0 / n) if masses == "uniform" else rng.dirichlet(np.ones(n))
    tiled, dense, bound = tiled_and_dense_matvec(kern, X, b)
    assert np.all(np.abs(tiled - dense) <= bound)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2200), d=st.integers(1, 4),
       laplace=st.booleans(), dirichlet=st.booleans())
def test_symmetric_kernel_matvec_property(seed, n, d, laplace, dirichlet):
    """The tiled K(X, X) b against one dense product, at random sizes."""
    rng = np.random.default_rng(seed)
    kern = (laplacian if laplace else gaussian)(float(rng.uniform(0.25, 4.0)))
    X = rng.standard_normal((n, d))
    b = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    tiled, dense, bound = tiled_and_dense_matvec(kern, X, b)
    assert np.all(np.abs(tiled - dense) <= bound)


@pytest.mark.parametrize(
    "kern", [gaussian(1.0), periodic_sobolev(3, 2)], ids=["gaussian", "sobolev"]
)
def test_kernel_matvec_sums_its_tiles_in_walk_order(monkeypatch, kern):
    n, c = 10, 4
    X = np.random.default_rng(0).random((n, 2))
    b = np.random.default_rng(1).dirichlet(np.ones(n))
    monkeypatch.setattr(kernels, "_TILE", c)  # tiles of 4, 4 and 2 rows and columns
    expected = np.zeros(n)
    for j0 in range(0, n, c):  # column blocks outer
        J = slice(j0, j0 + c)
        for i0 in range(0, n, c):
            I = slice(i0, i0 + c)
            expected[I] += gram(kern, X[I], X[J]) @ b[J]
    assert np.array_equal(kernels._kernel_matvec(kern, X, X, b), expected)
    monkeypatch.setattr(kernels, "_STRIP", 5)  # the reused buffer filled in 1- or 2-row strips
    assert np.array_equal(kernels._kernel_matvec(kern, X, X, b), expected)


def test_discrete_target_moments_and_self_product_are_the_kernel_matvec():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1500, 2))
    kern, masses = laplacian(0.9), rng.dirichlet(np.ones(1500))
    kme = kernels._kernel_matvec(kern, X, X, masses)
    target = TargetMeasure.discrete(X, masses)
    assert np.array_equal(target_moments(kern, X, target), kme)
    assert np.array_equal(target_moments(kern, X.copy(), target), kme)
    assert target_self_product(kern, target) == math.fsum(masses * kme)


def test_discrete_target_on_the_data_takes_one_kernel_mean_pass(monkeypatch):
    n, m = 300, 12
    X = np.random.default_rng(5).standard_normal((n, 2))
    kern = laplacian(0.8)
    passes = []

    def counted(*args):
        passes.append(args)
        return kernels._kernel_matvec(*args)

    monkeypatch.setattr(quadrature, "_kernel_matvec", counted)
    embedding = target_embedding(kern, X, TargetMeasure.discrete(X, np.full(n, 1.0 / n)))
    rule = next(compress_grid(X, kern, "uniform", (m,), 0, embedding))
    assert len(passes) == 1
    assert rule.error == next(compress_grid(X, kern, "uniform", (m,), 0)).error
    assert len(passes) == 2


def test_target_embedding_on_other_points_is_moments_and_self_product():
    rng = np.random.default_rng(6)
    X, Y = rng.standard_normal((40, 2)), rng.standard_normal((70, 2))
    kern, target = gaussian(0.7), TargetMeasure.discrete(Y, rng.dirichlet(np.ones(70)))
    kme, T = target_embedding(kern, X, target)
    assert np.array_equal(kme, target_moments(kern, X, target))
    assert T == target_self_product(kern, target)


def test_unit_cube_greedy_interpolates_the_target_embedding():
    n, m = 512, 24
    X = np.random.default_rng(3).random((n, 1))
    kern = periodic_sobolev(1, 1)
    embedding = target_embedding(kern, X, TargetMeasure.unit_cube())
    rule = next(compress_grid(X, kern, "fp-greedy", (m,), embedding=embedding))
    # the unit cube's kernel mean is 1 at every point, not the data's K a
    expected = greedy_select(X, kern, np.ones(n), m, "f_over_P").selected
    assert np.array_equal(rule.indices, expected)


def test_witness_matches_error_formula():
    rng = np.random.default_rng(7)
    kernel_pool = [gaussian(0.6), periodic_sobolev(1, 2)]
    for trial in range(12):
        n = int(rng.integers(6, 64))
        m = int(rng.integers(1, 8))
        kern = kernel_pool[trial % 2]
        X = rng.random((n, 2))
        target = uniform_target(X)
        nodes = X[uniform_subsample(n, min(m, n), rng=rng)]
        if trial % 3 == 0:
            rule = optimal_weights(kern, nodes, target)
        else:
            rule = QuadratureRule(nodes=nodes, weights=rng.standard_normal(len(nodes)))
        wce = worst_case_error(rule, target, kern)
        coeffs, gap = worst_case_witness(rule, target, kern)
        assert abs(wce - gap) < 1e-8
        G = gram(kern, np.vstack([X, nodes]))
        assert abs(coeffs @ G @ coeffs - 1.0) < 1e-8


def test_witness_zero_gap():
    X = np.random.default_rng(8).standard_normal((10, 2))
    target = uniform_target(X)
    rule = QuadratureRule(nodes=X, weights=target.masses)
    coeffs, gap = worst_case_witness(rule, target, gaussian(0.9))
    assert gap == 0.0
    assert np.array_equal(coeffs, np.zeros(20))


def test_witness_needs_discrete_target():
    rule = QuadratureRule(nodes=np.array([[0.5]]), weights=[1.0])
    with pytest.raises(InputError):
        worst_case_witness(rule, TargetMeasure.unit_cube(), periodic_sobolev(1, 1))


def test_weight_optimality_under_perturbations():
    rng = np.random.default_rng(11)
    X = rng.random((24, 2))
    kern = gaussian(0.5)
    target = uniform_target(X)
    nodes = X[uniform_subsample(24, 5, rng=rng)]
    best = optimal_weights(kern, nodes, target)
    base = worst_case_error(best, target, kern)
    for _ in range(10):
        perturbed = QuadratureRule(
            nodes=nodes, weights=best.weights + 1e-3 * rng.standard_normal(5)
        )
        assert worst_case_error(perturbed, target, kern) >= base - 1e-10


def test_interpolation_property_at_nodes():
    # the optimally weighted embedding agrees with the empirical one at nodes
    rng = np.random.default_rng(12)
    X = rng.random((40, 2))
    kern = gaussian(0.5)
    target = uniform_target(X)
    idx = uniform_subsample(40, 6, rng=rng)
    rule = optimal_weights(kern, X[idx], target)
    Km = gram(kern, rule.nodes)
    v = target_moments(kern, rule.nodes, target)
    assert np.max(np.abs(Km @ rule.weights - v)) < 1e-7


def test_error_monotone_under_node_nesting():
    rng = np.random.default_rng(13)
    X = rng.random((30, 1))
    kern = periodic_sobolev(1, 1)
    target = uniform_target(X)
    order = uniform_subsample(30, 12, rng=rng)
    prev = math.inf
    for m in (2, 4, 8, 12):
        rule = optimal_weights(kern, X[order[:m]], target)
        err = worst_case_error(rule, target, kern)
        assert err <= prev + 1e-10
        prev = err


def test_compress_full_support():
    rng = np.random.default_rng(14)
    X = rng.random((40, 2))
    kern = gaussian(0.9)
    rule = compress(X, kern, "uniform", 40, rng=5)
    assert worst_case_error(rule, uniform_target(X), kern) <= 1e-6
    assert rule.sample_time_s is not None and rule.weight_time_s is not None


def test_compress_single_node_matches_formula():
    rng = np.random.default_rng(15)
    X = rng.standard_normal((25, 2))
    kern = gaussian(0.8)
    rule = compress(X, kern, "uniform", 1, rng=9)
    node = rule.nodes[0]
    expected = np.mean([evaluate(kern, node, x) for x in X]) / evaluate(kern, node, node)
    assert abs(rule.weights[0] - expected) < 1e-12


def test_compress_deterministic():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((50, 2))
    kern = gaussian(1.1)
    r1, r2 = compress(X, kern, "arls", 8, rng=77), compress(X, kern, "arls", 8, rng=77)
    assert np.array_equal(r1.nodes, r2.nodes)
    assert np.array_equal(r1.weights, r2.weights)
    assert np.array_equal(r1.indices, r2.indices)


def test_compress_node_draws():
    X = np.random.default_rng(9).standard_normal((50, 2))
    kern = gaussian(1.0)
    assert len(set(compress(X, kern, "uniform", 10, rng=1).indices.tolist())) == 10
    for method in ("uniform-wr", "monte-carlo"):  # with replacement, so m may exceed n
        assert len(compress(X, kern, method, 60, rng=1).indices) == 60
    arls = compress(X, kern, "arls", 10, rng=1).indices
    assert len(arls) == 10 and np.all((0 <= arls) & (arls < 50))


def test_rule_csv_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    rule = QuadratureRule(
        nodes=rng.standard_normal((6, 3)),
        weights=rng.standard_normal(6),
        indices=np.arange(6) * 2,
    )
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "index,x_1,x_2,x_3,weight"
    back = load_rule(path)
    assert np.array_equal(back.nodes, rule.nodes)
    assert np.array_equal(back.weights, rule.weights)
    assert np.array_equal(back.indices, rule.indices)


def test_rule_csv_without_indices(tmp_path):
    rule = QuadratureRule(nodes=np.array([[0.1], [0.2]]), weights=[0.5, 0.5])
    path = tmp_path / "rule.csv"
    save_rule(rule, path)
    back = load_rule(path)
    assert back.indices is None
    assert np.array_equal(back.nodes, rule.nodes)


def test_load_rule_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "rule.csv"
    path.write_text("index,x_1,weight\n0,abc,0.5\n", encoding="utf-8")
    with pytest.raises(InputError, match=f"{path}:2: non-numeric"):
        load_rule(path)


def test_rule_validation():
    with pytest.raises(InputError):
        QuadratureRule(nodes=np.zeros((2, 1)), weights=[1.0])
    with pytest.raises(InputError):
        QuadratureRule(nodes=np.zeros((1, 1)), weights=[np.inf])
