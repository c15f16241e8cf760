import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kquad import InputError, NumericalError, kernels, quadrature
from kquad.greedy import greedy_select
from kquad.kernels import evaluate, gaussian, gram, laplacian, periodic_sobolev
from kquad.numerics import eig_sym
from kquad.quadrature import (
    METHODS,
    QuadratureRule,
    TargetMeasure,
    compress,
    integrate,
    load_rule,
    mmd,
    optimal_weights,
    save_rule,
    target_moments,
    target_self_product,
    worst_case_error,
)
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
    with pytest.raises(InputError):
        TargetMeasure.unit_cube(0)
    cube = TargetMeasure.unit_cube(2)
    with pytest.raises(InputError):
        target_self_product(gaussian(1.0), cube)  # analytic moments need sobolev
    with pytest.raises(InputError):
        target_moments(periodic_sobolev(1, 1), np.zeros((3, 2)), cube)


def test_unit_cube_moments_are_one():
    cube = TargetMeasure.unit_cube(2)
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
    e = eig_sym(Km)
    null = e.vectors[:, e.values < 1e-10 * e.values[0]]
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
    cube = TargetMeasure.unit_cube(1)
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
        kern, target = periodic_sobolev(1, d), TargetMeasure.unit_cube(d)
    kme = target_moments(kern, X, target)
    idx = rng.integers(0, n, size=k)  # duplicates included
    v = target_moments(kern, X[idx], target)
    assert np.all(np.abs(kme[idx] - v) <= 2 * n * EPS * v)


def symmetric_and_cross_pass(kern, X, b):
    """K(X, X) b by the half-size symmetric pass and by the full cross pass,
    and the bound 2 n eps (|K| |b|) on their difference: the same products
    summed in another order."""
    sym = kernels._kernel_matvec(kern, X, None, b)
    cross = kernels._kernel_matvec(kern, X, X, b)
    bound = 2 * X.shape[0] * EPS * (np.abs(gram(kern, X)) @ np.abs(b))
    return sym, cross, bound


SYMMETRIC_KERNELS = {
    "gaussian": (gaussian(0.7), 2),
    "laplacian": (laplacian(1.3), 3),
    "sobolev": (periodic_sobolev(2, 2), 2),
}


@pytest.mark.parametrize("masses", ["uniform", "dirichlet"])
@pytest.mark.parametrize("family", sorted(SYMMETRIC_KERNELS))
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2500])
def test_symmetric_kernel_matvec_matches_cross_pass(n, family, masses):
    kern, d = SYMMETRIC_KERNELS[family]
    rng = np.random.default_rng(n)
    X = rng.random((n, d)) if family == "sobolev" else rng.standard_normal((n, d))
    b = np.full(n, 1.0 / n) if masses == "uniform" else rng.dirichlet(np.ones(n))
    sym, cross, bound = symmetric_and_cross_pass(kern, X, b)
    assert np.all(np.abs(sym - cross) <= bound)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 2200), d=st.integers(1, 4),
       laplace=st.booleans(), dirichlet=st.booleans())
def test_symmetric_kernel_matvec_property(seed, n, d, laplace, dirichlet):
    rng = np.random.default_rng(seed)
    kern = (laplacian if laplace else gaussian)(float(rng.uniform(0.25, 4.0)))
    X = rng.standard_normal((n, d))
    b = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    sym, cross, bound = symmetric_and_cross_pass(kern, X, b)
    assert np.all(np.abs(sym - cross) <= bound)


def test_symmetric_kernel_matvec_evaluates_the_upper_blocks(monkeypatch):
    n, c = 10, 4
    X = np.random.default_rng(0).standard_normal((n, 2))
    b = np.full(n, 1.0 / n)
    whole = kernels._kernel_matvec(gaussian(1.0), X, None, b)
    shapes = []

    def counted_gram(kernel, A, B=None):
        shapes.append((A.shape[0], B.shape[0]))
        return gram(kernel, A, B)

    monkeypatch.setattr(kernels, "gram", counted_gram)
    monkeypatch.setattr(kernels, "_TILE", c)
    tiled = kernels._kernel_matvec(gaussian(1.0), X, None, b)
    sizes = [min(c, n - j) for j in range(0, n, c)]  # 4, 4, 2
    assert shapes == [(sizes[i], sizes[j]) for j in range(3) for i in range(j + 1)]
    assert sum(a * b for a, b in shapes) <= (n * n + n * c) / 2
    assert np.all(np.abs(tiled - whole) <= 2 * n * EPS * whole)


def test_own_points_take_the_symmetric_pass():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((1500, 2))
    kern, masses = laplacian(0.9), rng.dirichlet(np.ones(1500))
    sym = kernels._kernel_matvec(kern, X, None, masses)
    target = TargetMeasure.discrete(X, masses)
    assert np.array_equal(target_moments(kern, X, target), sym)
    assert np.array_equal(target_moments(kern, X.copy(), target), sym)
    assert target_self_product(kern, target) == math.fsum(masses * sym)


def test_unit_cube_greedy_interpolates_the_target_embedding():
    n, m = 512, 24
    X = np.random.default_rng(3).random((n, 1))
    kern = periodic_sobolev(1, 1)
    rule = compress(X, kern, "fp-greedy", m, target=TargetMeasure.unit_cube(1))
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
        worst_case_witness(rule, TargetMeasure.unit_cube(1), periodic_sobolev(1, 1))


def test_mmd_identities():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((12, 2))
    wa = np.full(12, 1.0 / 12)
    B = rng.standard_normal((7, 2))
    wb = rng.random(7)
    kern = gaussian(0.8)
    assert mmd(kern, A, wa, A, wa) == 0.0
    assert abs(mmd(kern, A, wa, B, wb) - mmd(kern, B, wb, A, wa)) < 1e-12


def test_mmd_equals_worst_case_error():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((32, 2))
    target = uniform_target(X)
    kern = gaussian(0.8)
    nodes = X[uniform_subsample(32, 4, rng=rng)]
    rule = optimal_weights(kern, nodes, target)
    wce = worst_case_error(rule, target, kern)
    d = mmd(kern, X, target.masses, rule.nodes, rule.weights)
    assert abs(wce - d) < 1e-10


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
