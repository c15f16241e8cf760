import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from kquad import InputError, NumericalError
from kquad.bench import gen_synthetic
from kquad.kernels import gaussian, gram, parse_kernel, periodic_sobolev
from kquad.numerics import _pivoted_cholesky
from kquad.sampling import (
    LeverageScores,
    approx_rls_pilot,
    exact_rls,
    sample_proportional,
    uniform_subsample,
)

from oracles import fisher_yates_per_index, nystrom_leverage_scores


_POINTS = np.random.default_rng(4).standard_normal((40, 2))

# each library draw with the rng keyword left to its default or given
_DRAWS = {
    "uniform_subsample": lambda **kw: uniform_subsample(50, 7, **kw),
    "uniform_subsample_wr": lambda **kw: uniform_subsample(50, 7, True, **kw),
    "sample_proportional": lambda **kw: sample_proportional(
        LeverageScores(lam=0.1, values=np.arange(1.0, 21.0)), 9, **kw
    ),
    "approx_rls_pilot": lambda **kw: approx_rls_pilot(
        _POINTS, gaussian(0.7), 0.05, 6, **kw
    ).values,
}


@pytest.mark.parametrize("draw", _DRAWS.values(), ids=_DRAWS)
def test_rng_is_a_default_rng_seed(draw):
    assert np.array_equal(draw(), draw(rng=0))
    for seed in (0, 5, 2**40):
        assert np.array_equal(draw(rng=seed), draw(rng=np.random.default_rng(seed)))
    assert not np.array_equal(draw(rng=5), draw(rng=6))


def test_uniform_without_replacement_is_permutation():
    idx = uniform_subsample(5, 5, rng=np.random.default_rng(0))
    assert sorted(idx.tolist()) == [0, 1, 2, 3, 4]


def test_uniform_with_replacement_single_point():
    idx = uniform_subsample(1, 3, with_replacement=True, rng=np.random.default_rng(0))
    assert idx.tolist() == [0, 0, 0]


def test_uniform_deterministic():
    a = uniform_subsample(10_000, 100, rng=np.random.default_rng(123))
    b = uniform_subsample(10_000, 100, rng=np.random.default_rng(123))
    assert np.array_equal(a, b)
    assert len(set(a.tolist())) == 100


@pytest.mark.parametrize(
    "n, m", [(16384, 2048), (4096, 256), (10, 10), (5, 1), (3, 2), (1, 1)]
)
def test_uniform_matches_per_index_draws(n, m):
    """The one-call offset draw gives the per-index loop's indices and leaves
    the generator in the same state."""
    for seed in (0, 1, 20260809):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(
            uniform_subsample(n, m, rng=ours), fisher_yates_per_index(n, m, theirs)
        )
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_uniform_errors():
    with pytest.raises(InputError):
        uniform_subsample(3, 4, with_replacement=False)
    with pytest.raises(InputError):
        uniform_subsample(3, 0)


def test_exact_rls_identity_gram():
    lam = 0.3
    scores = exact_rls(np.eye(6), lam)
    assert np.max(np.abs(scores.values - 1.0 / (1.0 + lam * 6))) < 1e-12


def test_exact_rls_duplicate_points():
    lam = 0.25
    scores = exact_rls(np.ones((2, 2)), lam)
    assert np.allclose(scores.values, 1.0 / (2.0 + 2.0 * lam), atol=1e-12)


def test_exact_rls_trace_identity():
    rng = np.random.default_rng(0)
    for n in (8, 33, 64):
        X = rng.standard_normal((n, 2))
        K = gram(gaussian(0.8), X)
        lam = 10 ** rng.uniform(-4, 0)
        scores = exact_rls(K, lam)
        sig = np.linalg.eigvalsh(K)
        expected = np.sum(sig / (sig + lam * n))
        assert abs(scores.values.sum() - expected) < 1e-8
        assert np.all(scores.values > 0) and np.all(scores.values < 1)


def test_exact_rls_monotone_in_lambda():
    rng = np.random.default_rng(1)
    K = gram(gaussian(0.8), rng.standard_normal((12, 2)))
    lo = exact_rls(K, 0.01).values
    hi = exact_rls(K, 0.1).values
    assert np.all(hi < lo)


def test_exact_rls_whitened_feature_oracle():
    # leverage scores equal (1/n) f_i^T (C_hat + lam I)^-1 f_i for any feature
    # factorization K = F F^T; here F comes from a Cholesky factor, a code
    # path independent of the eigendecomposition used by exact_rls
    rng = np.random.default_rng(2)
    for n in (4, 9, 16):
        X = rng.standard_normal((n, 2))
        K = gram(gaussian(1.0), X)
        lam = 0.05
        F = np.linalg.cholesky(K + 1e-12 * np.eye(n))
        C_hat = F.T @ F / n
        M = np.linalg.inv(C_hat + lam * np.eye(n))
        oracle = np.einsum("ij,jk,ik->i", F, M, F) / n
        scores = exact_rls(K, lam)
        assert np.max(np.abs(scores.values - oracle)) < 1e-8
        # n * score is the squared whitened feature norm
        assert np.max(np.abs(n * scores.values - np.einsum("ij,jk,ik->i", F, M, F))) < 1e-7


def test_exact_rls_rejects_indefinite():
    with pytest.raises(NumericalError):
        exact_rls(np.diag([1.0, -1.0]), 0.1)
    for lam in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            exact_rls(np.eye(2), lam)


def test_pilot_full_matches_exact():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((16, 2))
    kern = gaussian(0.9)
    lam = 0.05
    exact = exact_rls(gram(kern, X), lam)
    pilot = approx_rls_pilot(X, kern, lam, pilot_size=16, rng=np.random.default_rng(0))
    assert np.max(np.abs(pilot.values - exact.values)) < 1e-6


def test_pilot_single_point_formula():
    X = np.array([[0.4]])
    kern = gaussian(0.5)
    lam = 0.3
    scores = approx_rls_pilot(X, kern, lam, pilot_size=1)
    kxx = 1.0
    assert abs(scores.values[0] - kxx / (kxx + lam)) < 1e-12


def test_pilot_duplicates_score_equally():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((8, 2))
    X = np.vstack([base, base])  # each point twice
    kern = gaussian(0.8)
    scores = approx_rls_pilot(X, kern, 0.1, pilot_size=8, pilot_indices=np.arange(8))
    assert np.max(np.abs(scores.values[:8] - scores.values[8:])) < 1e-6


def test_pilot_jitter_handles_rank_deficiency():
    # a pilot containing duplicates makes the pilot Gram singular; the
    # escalating jitter must still produce finite scores
    base = np.random.default_rng(5).standard_normal((4, 2))
    X = np.vstack([base, base])
    scores = approx_rls_pilot(X, gaussian(0.8), 0.1, pilot_size=8, pilot_indices=np.arange(8))
    assert np.all(np.isfinite(scores.values))


def _rank_deficient_pilot():
    # 2-d mixture at median sigma: the pivoted factorization of this
    # 200-point pilot Gram stops at rank 66, far below p
    X = gen_synthetic("gaussian_mixture:d=2,k=3,sep=5", 1024, 1).points
    kern = parse_kernel("gaussian:sigma=median", points=X, rng=np.random.default_rng(0))
    return X, kern, uniform_subsample(1024, 200, rng=np.random.default_rng(11))


def _truncation_tolerance(pilot_size, lam, n):
    # Both factorizations keep the pilot's feature span up to components of
    # squared norm at most p * eps * max k (= 1 for the Gaussian): dropped
    # residual pivots in the one, dropped eigenvalues in the other.  So K~
    # differs entrywise by about sqrt(p * eps), and the scores, a resolvent
    # at shift lambda n, by that over lambda n to first order.  Measured:
    # 0.04-0.36 of this on four mixtures for lambda from 1e-5 to the default.
    return np.sqrt(pilot_size * np.finfo(np.float64).eps) / (lam * n)


@pytest.mark.parametrize("lam", [None, 1e-3, 1e-5])
def test_pilot_matches_nystrom_oracle_below_full_rank(lam):
    X, kern, J = _rank_deficient_pilot()
    scores = approx_rls_pilot(X, kern, lam, pilot_indices=J)
    expected = nystrom_leverage_scores(kern, X, J, scores.lam)
    tol = _truncation_tolerance(J.size, scores.lam, X.shape[0])
    assert np.max(np.abs(scores.values - expected)) <= tol


def _numpy_pilot_scores(X, kern, lam, J):
    """The pilot's scores with numpy's ``B @ B.T`` and ``np.linalg.cholesky``
    in place of scipy's ``dsyrk`` and ``cholesky``; the rest as in
    ``approx_rls_pilot``."""
    F, perm = _pivoted_cholesky(gram(kern, X[J]))
    r = F.shape[1]
    B = solve_triangular(F[:r], gram(kern, X[J[perm[:r]]], X), lower=True)
    G = B @ B.T
    G[np.diag_indices_from(G)] += lam * X.shape[0]
    Z = solve_triangular(np.linalg.cholesky(G), B, lower=True)
    return np.einsum("ij,ij->j", Z, Z)


# dsyrk gives numpy's bits of B B^T, but scipy's Cholesky of G may round
# differently from numpy's (each library ships its own LAPACK), and the
# scores inherit that gap times the conditioning of G.  Measured on 48
# mixture and cube pilots: 0 ulp at the default lambda, at most 8.3 ulp at
# lambda = 1e-3, and up to 57 ulp at 1e-5 and 1e-7, where G is near singular.
@pytest.mark.parametrize("lam", [None, 1e-3])
@pytest.mark.parametrize("full_rank", [True, False])
def test_pilot_scores_match_the_numpy_formula(lam, full_rank):
    if full_rank:
        X = np.random.default_rng(7).standard_normal((500, 3))
        kern, J = gaussian(2.0), uniform_subsample(500, 40, rng=np.random.default_rng(8))
    else:
        X, kern, J = _rank_deficient_pilot()
    scores = approx_rls_pilot(X, kern, lam, pilot_indices=J)
    expected = _numpy_pilot_scores(X, kern, scores.lam, J)
    assert np.max(np.abs(scores.values - expected) / expected) <= 16 * np.finfo(np.float64).eps


def test_pilot_ignores_duplicate_pilot_rows():
    X, kern, J = _rank_deficient_pilot()
    scores = approx_rls_pilot(X, kern, 1e-3, pilot_indices=J)
    padded = np.concatenate([J, J[::3], J[:5]])
    again = approx_rls_pilot(X, kern, 1e-3, pilot_indices=padded)
    # a duplicate has zero residual once its twin is a pivot, so it is never
    # a landmark; only the rank cutoff moves with p (200 -> 272 rows, rank
    # 66 -> 65), within the truncation tolerance of the oracle test
    tol = _truncation_tolerance(padded.size, 1e-3, X.shape[0])
    assert np.max(np.abs(again.values - scores.values)) <= tol


def test_pilot_multiplicative_sanity():
    # diagnostic: half-size pilots stay within a factor 100 of exact scores
    rng = np.random.default_rng(6)
    worst = 0.0
    for n in (32, 64, 128):
        X = rng.standard_normal((n, 3))
        kern = gaussian(1.2)
        lam = 0.05
        exact = exact_rls(gram(kern, X), lam).values
        approx = approx_rls_pilot(X, kern, lam, pilot_size=n // 2, rng=rng).values
        ratio = max(np.max(approx / exact), np.max(exact / approx))
        worst = max(worst, ratio)
    print(f"pilot multiplicative distortion across instances: {worst:.3f}")
    assert np.isfinite(worst) and worst <= 100.0


def test_pilot_auto_lambda():
    # lambda = 19 K^2 log(32 n / delta) / n with delta = 0.1, K = sup_x sqrt(k(x, x))
    X = np.random.default_rng(6).random((10_000, 1))
    lam = approx_rls_pilot(X, gaussian(1.0), rng=np.random.default_rng(0)).lam
    assert abs(lam - 19 * math.log(3.2e6) / 1e4) < 1e-12
    assert abs(lam - 0.02845) < 1e-4
    sob = approx_rls_pilot(X, periodic_sobolev(1, 1), rng=np.random.default_rng(0)).lam
    assert abs(sob - (1 + math.pi**2 / 3) * lam) < 1e-12


def test_pilot_validation():
    X = np.zeros((4, 1))
    with pytest.raises(InputError):
        approx_rls_pilot(X, gaussian(1.0), 0.1, pilot_size=5)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            approx_rls_pilot(X, gaussian(1.0), lam, pilot_size=2)


def test_sample_proportional_point_mass():
    scores = exact_rls(np.eye(3), 0.1)
    masked = type(scores)(lam=scores.lam, values=np.array([1.0, 0.0, 0.0]))
    idx = sample_proportional(masked, 4, rng=np.random.default_rng(0))
    assert idx.tolist() == [0, 0, 0, 0]


def test_sample_proportional_frequencies():
    from kquad.sampling import LeverageScores

    flat = LeverageScores(lam=0.1, values=np.ones(4))
    idx = sample_proportional(flat, 100_000, rng=np.random.default_rng(7))
    freqs = np.bincount(idx, minlength=4) / idx.size
    assert np.max(np.abs(freqs - 0.25)) < 0.01

    skew = LeverageScores(lam=0.1, values=np.array([3.0, 1.0]))
    idx = sample_proportional(skew, 100_000, rng=np.random.default_rng(8))
    f0 = np.mean(idx == 0)
    assert 0.74 <= f0 <= 0.76


def test_sample_proportional_all_zero():
    from kquad.sampling import LeverageScores

    zero = LeverageScores(lam=0.1, values=np.zeros(3))
    with pytest.raises(InputError):
        sample_proportional(zero, 2)

