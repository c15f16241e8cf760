import math

import numpy as np
import pytest

from kquad import InputError, kernels
from kquad.kernels import (
    KernelSpec,
    evaluate,
    gaussian,
    gram,
    laplacian,
    median_heuristic,
    parse_kernel,
    periodic_sobolev,
    sup_norm_bound,
)

from oracles import (
    pairwise_block_einsum,
    pairwise_distances_einsum,
    sobolev_series_1d,
    zeta_series,
)

EPS = np.finfo(np.float64).eps


def test_gaussian_laplacian_self_value():
    for kern in (gaussian(0.7), laplacian(1.3)):
        assert evaluate(kern, [0.3, -1.0], [0.3, -1.0]) == 1.0


def test_sobolev_closed_form_matches_constants():
    k1 = periodic_sobolev(1, 1)
    assert abs(evaluate(k1, 0.2, 0.2) - (1 + math.pi**2 / 3)) < 1e-12
    assert abs(evaluate(k1, 0.0, 0.5) - (1 - math.pi**2 / 6)) < 1e-12


@pytest.mark.parametrize("order", [1, 2, 3])
def test_sobolev_closed_form_matches_series(order):
    # midpoint grid keeps the oscillatory series tail below 1e-8 at 1e6 terms
    offsets = (np.arange(16) + 0.5) / 16.0
    series = sobolev_series_1d(order, offsets)
    kern = periodic_sobolev(order, 1)
    closed = np.array([evaluate(kern, 0.0, t) for t in offsets])
    assert np.max(np.abs(closed - series)) < 1e-8


def test_sobolev_tensor_product():
    k2 = periodic_sobolev(2, 3)
    k1 = periodic_sobolev(2, 1)
    x = np.array([0.1, 0.7, 0.4])
    y = np.array([0.9, 0.2, 0.4])
    expected = np.prod([evaluate(k1, xi, yi) for xi, yi in zip(x, y)])
    assert abs(evaluate(k2, x, y) - expected) < 1e-12


def test_eval_symmetric_bitwise():
    rng = np.random.default_rng(1)
    for kern in (gaussian(0.5), laplacian(0.9), periodic_sobolev(1, 3)):
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert evaluate(kern, x, y) == evaluate(kern, y, x)


def test_eval_input_errors():
    with pytest.raises(InputError):
        evaluate(gaussian(1.0), [0.0, 1.0], [0.0])
    with pytest.raises(InputError):
        evaluate(gaussian(1.0), [np.nan], [0.0])
    with pytest.raises(InputError):
        evaluate(periodic_sobolev(1, 2), [0.1], [0.2])


def test_kernel_spec_validation():
    with pytest.raises(InputError):
        gaussian(0.0)
    with pytest.raises(InputError):
        laplacian(-1.0)
    with pytest.raises(InputError):
        periodic_sobolev(4, 1)
    with pytest.raises(InputError):
        periodic_sobolev(1, 0)
    with pytest.raises(InputError):
        KernelSpec(family="cubic")


def test_gram_single_point():
    G = gram(gaussian(1.0), np.array([[0.3, 0.4]]))
    assert G.shape == (1, 1) and G[0, 0] == 1.0


def test_gram_sobolev_two_points():
    G = gram(periodic_sobolev(1, 1), np.array([0.0, 0.5]))
    a, b = 1 + math.pi**2 / 3, 1 - math.pi**2 / 6
    assert np.max(np.abs(G - np.array([[a, b], [b, a]]))) < 1e-12


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((37, 4))
    for kern in (gaussian(0.8), laplacian(1.1)):
        G = gram(kern, X)
        assert np.array_equal(G, G.T)
    Xs = rng.random((37, 2))
    G = gram(periodic_sobolev(2, 2), Xs)
    assert np.array_equal(G, G.T)


def test_gram_cross_matches_eval():
    rng = np.random.default_rng(3)
    X, Y = rng.standard_normal((5, 2)), rng.standard_normal((7, 2))
    kern = laplacian(0.6)
    G = gram(kern, X, Y)
    for i in range(5):
        for j in range(7):
            assert G[i, j] == evaluate(kern, X[i], Y[j])


def test_gram_chunking_consistent(monkeypatch):
    # force several tiles, at non-aligned n the last one partial, through the assembly loop
    rng = np.random.default_rng(4)
    kern = gaussian(0.9)
    for n in (1, 9, 23):
        X = rng.standard_normal((n, 3))
        G, C = gram(kern, X), gram(kern, X[:9], X)
        for tile in (4, 2):
            monkeypatch.setattr(kernels, "_TILE", tile)
            G_small = gram(kern, X)
            assert np.array_equal(G_small, G)
            assert np.array_equal(G_small, G_small.T)
            assert np.array_equal(G_small, gram(kern, X, X))
            assert np.array_equal(gram(kern, X[:9], X), C)
            monkeypatch.undo()


@pytest.mark.parametrize("d", range(1, 11))
@pytest.mark.parametrize("family", [gaussian, laplacian])
def test_pairwise_block_matches_einsum_oracle(family, d):
    rng = np.random.default_rng(d)
    A, B = rng.standard_normal((31, d)), rng.standard_normal((17, d))
    kern = family(0.5 * math.sqrt(d))
    got, old = kernels._pairwise_block(kern, A, B), pairwise_block_einsum(kern, A, B)
    if d <= 2:  # the same additions in the same order
        assert np.array_equal(got, old)
    else:
        # both squared distances lie within (d - 1) rounding units of the
        # exact sum; exp turns that into an absolute error in its exponent
        assert np.all(np.abs(got - old) <= d * EPS * (1.0 - np.log(old)) * old)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_sobolev_product_matches_einsum_oracle(order, d):
    rng = np.random.default_rng(10 * order + d)
    A, B = rng.random((29, d)), rng.random((13, d))
    kern = periodic_sobolev(order, d)
    assert np.array_equal(kernels._pairwise_block(kern, A, B), pairwise_block_einsum(kern, A, B))


@pytest.mark.parametrize(
    "kern",
    [gaussian(0.5), laplacian(0.8), periodic_sobolev(1, 2), periodic_sobolev(3, 2)],
)
def test_gram_numerically_psd(kern):
    rng = np.random.default_rng(5)
    d = kern.dim if kern.family == "sobolev" else 2
    X = rng.random((40, d))
    G = gram(kern, X)
    lo = np.linalg.eigvalsh(G).min()
    assert lo >= -1e-8 * G.diagonal().max()


def test_translation_invariance():
    rng = np.random.default_rng(6)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    for kern in (gaussian(0.7), laplacian(1.2)):
        for shift in (0.37, -4.2, 113.0):
            assert abs(evaluate(kern, x + shift, y + shift) - evaluate(kern, x, y)) < 1e-12
    ks = periodic_sobolev(1, 3)
    xs, ys = rng.random(3), rng.random(3)
    for shift in (0.0, 0.31, 0.99):
        shifted = abs(evaluate(ks, (xs + shift) % 1.0, (ys + shift) % 1.0) - evaluate(ks, xs, ys))
        assert shifted < 1e-12


def test_diagonal_matches_eval():
    rng = np.random.default_rng(7)
    X = rng.random((10, 2))
    for kern in (gaussian(1.0), periodic_sobolev(3, 2)):
        d = kernels.diagonal(kern, X)
        assert all(d[i] == evaluate(kern, X[i], X[i]) for i in range(10))


def test_sup_norm_bound_values():
    assert sup_norm_bound(gaussian(2.0)) == 1.0
    assert sup_norm_bound(laplacian(2.0)) == 1.0
    # zeta(2) by direct series summation
    z2 = zeta_series(2, terms=10**6)
    assert abs(sup_norm_bound(periodic_sobolev(1, 1)) - math.sqrt(1 + 2 * z2)) < 1e-6
    assert abs(sup_norm_bound(periodic_sobolev(1, 1)) - math.sqrt(1 + math.pi**2 / 3)) < 1e-12
    assert abs(sup_norm_bound(periodic_sobolev(1, 2)) - (1 + math.pi**2 / 3)) < 1e-12


def test_median_heuristic_small_cases():
    assert median_heuristic(np.array([0.0, 1.0])) == 1.0
    # pairwise distances of {0, 1, 3} are {1, 2, 3}
    assert median_heuristic(np.array([0.0, 1.0, 3.0])) == 2.0


def test_median_heuristic_deterministic():
    rng_points = np.random.default_rng(8)
    X = rng_points.standard_normal((100, 2))
    a = median_heuristic(X, subset_size=40, rng=np.random.default_rng(11))
    b = median_heuristic(X, subset_size=40, rng=np.random.default_rng(11))
    assert a == b
    c = median_heuristic(X, subset_size=40, rng=np.random.default_rng(12))
    assert c != a  # different subset, generically different median


@pytest.mark.parametrize("d", [1, 2])
def test_median_heuristic_matches_einsum_oracle(d):
    X = np.random.default_rng(d).standard_normal((300, d))
    got = median_heuristic(X, subset_size=120, rng=np.random.default_rng(9))
    S = X[np.random.default_rng(9).permutation(300)[:120]]
    assert got == float(np.median(pairwise_distances_einsum(S)))


def test_median_heuristic_chunking_consistent(monkeypatch):
    for n in (2, 3, 50):
        X = np.random.default_rng(13).standard_normal((n, 3))
        whole = median_heuristic(X, rng=np.random.default_rng(1))
        for tile in (7, 4, 2):
            monkeypatch.setattr(kernels, "_TILE", tile)
            assert median_heuristic(X, rng=np.random.default_rng(1)) == whole
            monkeypatch.undo()


def test_median_heuristic_errors():
    with pytest.raises(InputError):
        median_heuristic(np.zeros((5, 2)))
    with pytest.raises(InputError):
        median_heuristic(np.array([1.0]))
    with pytest.raises(InputError):
        median_heuristic(np.array([0.0, 1.0]), subset_size=1)


def test_parse_kernel():
    k = parse_kernel("gaussian:sigma=0.5")
    assert k.family == "gaussian" and k.bandwidth == 0.5
    k = parse_kernel("laplacian:sigma=2")
    assert k.family == "laplacian" and k.bandwidth == 2.0
    k = parse_kernel("sobolev:s=2,d=3")
    assert (k.order, k.dim) == (2, 3)
    X = np.array([[0.0], [1.0], [3.0]])
    k = parse_kernel("gaussian:sigma=median", points=X)
    assert k.bandwidth == 2.0
    with pytest.raises(InputError):
        parse_kernel("gaussian:sigma=median")  # no points
    with pytest.raises(InputError):
        parse_kernel("rbf:sigma=1")
    with pytest.raises(InputError):
        parse_kernel("sobolev:s=two")
    with pytest.raises(InputError):
        parse_kernel("gaussian:sigma=1,extra=2")
