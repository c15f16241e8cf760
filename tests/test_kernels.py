import math
import os
import re
import subprocess
import sys

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
)

from oracles import (
    pairwise_block_einsum,
    pairwise_distances_einsum,
    radial_block,
    sobolev_series_1d,
    sq_dists_sequential,
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
    # force several row strips, at non-aligned n the last one partial, through the fill loop
    rng = np.random.default_rng(4)
    kern = gaussian(0.9)
    for n in (1, 9, 23):
        X = rng.standard_normal((n, 3))
        G, C = gram(kern, X), gram(kern, X[:9], X)
        for strip in (1, 3 * n, 7):  # strips of 1 row, 3 rows, 7 values
            monkeypatch.setattr(kernels, "_STRIP", strip)
            G_small = gram(kern, X)
            assert np.array_equal(G_small, G)
            assert np.array_equal(G_small, G_small.T)
            assert np.array_equal(G_small, gram(kern, X, X))
            assert np.array_equal(gram(kern, X[:9], X), C)
            monkeypatch.undo()


@pytest.mark.parametrize("d", [*range(1, 11), 13, 33])
@pytest.mark.parametrize("family", [gaussian, laplacian])
def test_pairwise_block_matches_einsum_oracle(family, d):
    rng = np.random.default_rng(d)
    A, B = rng.standard_normal((31, d)), rng.standard_normal((17, d))
    kern = family(0.5 * math.sqrt(d))
    got, old = gram(kern, A, B), pairwise_block_einsum(kern, A, B)
    if d <= 2:  # the same additions in the same order
        assert np.array_equal(got, old)
    else:
        # both squared distances lie within (d - 1) rounding units of the
        # exact sum; exp turns that into an absolute error in its exponent
        assert np.all(np.abs(got - old) <= d * EPS * (1.0 - np.log(old)) * old)
        # scipy's cdist adds (a_k - b_k)^2 in coordinate order, as the sequential sum does
        assert np.array_equal(got, radial_block(kern, sq_dists_sequential(A, B)))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_sobolev_product_matches_einsum_oracle(monkeypatch, order, d):
    rng = np.random.default_rng(10 * order + d)
    A, B = rng.random((29, d)), rng.random((13, d))
    kern = periodic_sobolev(order, d)
    whole = gram(kern, A, B)
    assert np.array_equal(whole, pairwise_block_einsum(kern, A, B))
    # strips of 3 rows, the last one of 2, reuse the fill's scratch
    monkeypatch.setattr(kernels, "_STRIP", 3 * 13)
    assert np.array_equal(gram(kern, A, B), whole)


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
        assert all(kern.diag == evaluate(kern, X[i], X[i]) for i in range(10))


@pytest.mark.parametrize(
    "spec",
    ["gaussian:sigma=0.8", "laplacian:sigma=1.3"]
    + [
        f"sobolev:s={s},d={d}"
        for s, largest in ((1, 487), (2, 616), (3, 639))
        for d in (1, 2, 7, largest)
    ],
)
def test_diag_is_the_gram_diagonal(spec):
    kern = parse_kernel(spec)
    X = np.random.default_rng(5).random((6, kern.dim if kern.family == "sobolev" else 3))
    assert np.array_equal(gram(kern, X).diagonal(), np.full(6, kern.diag))


def test_diag_values():
    assert gaussian(2.0).diag == 1.0
    assert laplacian(2.0).diag == 1.0
    # zeta(2) by direct series summation; sqrt(k(x, x)) bounds the feature norm
    z2 = zeta_series(2, terms=10**6)
    kappa_1, kappa_2 = (math.sqrt(periodic_sobolev(1, d).diag) for d in (1, 2))
    assert abs(kappa_1 - math.sqrt(1 + 2 * z2)) < 1e-6
    assert abs(kappa_1 - math.sqrt(1 + math.pi**2 / 3)) < 1e-12
    assert abs(kappa_2 - (1 + math.pi**2 / 3)) < 1e-12


@pytest.mark.parametrize("order, largest", [(1, 487), (2, 616), (3, 639)])
def test_sobolev_diagonal_must_be_a_finite_float(order, largest):
    assert math.isfinite(periodic_sobolev(order, largest).diag)
    with pytest.raises(InputError, match=f"s={order}, d={largest + 1}: its diagonal"):
        periodic_sobolev(order, largest + 1)


def test_median_heuristic_small_cases():
    assert median_heuristic(np.array([0.0, 1.0])) == 1.0
    # pairwise distances of {0, 1, 3} are {1, 2, 3}
    assert median_heuristic(np.array([0.0, 1.0, 3.0])) == 2.0


def test_median_heuristic_deterministic():
    rng_points = np.random.default_rng(8)
    X = rng_points.standard_normal((1500, 2))  # above the 1000-point subset
    a = median_heuristic(X, rng=np.random.default_rng(11))
    b = median_heuristic(X, rng=np.random.default_rng(11))
    assert a == b
    c = median_heuristic(X, rng=np.random.default_rng(12))
    assert c != a  # different subset, generically different median


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_median_heuristic_matches_einsum_oracle(d):
    X = np.random.default_rng(d).standard_normal((1500, d))
    got = median_heuristic(X, rng=np.random.default_rng(9))
    S = X[np.random.default_rng(9).permutation(1500)[:1000]]
    if d <= 2:  # einsum adds the same terms in the same order
        assert got == float(np.median(pairwise_distances_einsum(S)))
    pairs = np.sqrt(sq_dists_sequential(S, S)[np.triu_indices(1000, 1)])
    assert got == float(np.median(pairs))


def test_median_heuristic_errors():
    with pytest.raises(InputError):
        median_heuristic(np.zeros((5, 2)))
    with pytest.raises(InputError):
        median_heuristic(np.array([1.0]))


def test_radial_coordinate_bound():
    # at |x| = 2^500 squared distances are finite: k = exp(-2^501 / 2^501)
    X = np.array([[2.0**500, 0.0], [-(2.0**500), 0.0]])
    assert gram(laplacian(2.0**501), X)[0, 1] == math.exp(-1.0)
    assert median_heuristic(X) == 2.0**501
    # one ulp above the bound: an input error in both, whatever the kernel's bandwidth
    X[0, 0] = np.nextafter(2.0**500, np.inf)
    for call in (lambda: gram(laplacian(1e200), X), lambda: median_heuristic(X)):
        with pytest.raises(InputError, match=re.escape("|coordinates| <= 2^500")):
            call()
    assert np.all(np.isfinite(gram(periodic_sobolev(1, 2), X)))


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
    for spec in ("gaussian:sigma=1,σ=2", "laplacian:σ=2"):  # sigma has no alias
        with pytest.raises(InputError, match="unknown kernel parameter 'σ'"):
            parse_kernel(spec)


def test_import_leaves_scipy_spatial_unloaded():
    # kernels imports scipy.spatial inside the two functions that need it
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    code = "import sys, kquad; sys.exit(any(m.startswith('scipy.spatial') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
