import numpy as np
import pytest

from kquad import InputError, NumericalError
from kquad.bench import gen_synthetic
from kquad.kernels import gaussian, gram, parse_kernel
from kquad.numerics import eig_sym
from kquad.sampling import (
    approx_rls_pilot,
    exact_rls,
    sample_proportional,
    uniform_subsample,
)

from oracles import nystrom_leverage_scores


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
        sig = eig_sym(K).values
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
    assert pilot.mode == "pilot" and pilot.pilot_size == 16
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


def test_pilot_validation():
    X = np.zeros((4, 1))
    with pytest.raises(InputError):
        approx_rls_pilot(X, gaussian(1.0), 0.1, pilot_size=5)
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InputError):
            approx_rls_pilot(X, gaussian(1.0), lam, pilot_size=2)


def test_sample_proportional_point_mass():
    scores = exact_rls(np.eye(3), 0.1)
    masked = type(scores)(lam=scores.lam, values=np.array([1.0, 0.0, 0.0]), mode="exact")
    idx = sample_proportional(masked, 4, rng=np.random.default_rng(0))
    assert idx.tolist() == [0, 0, 0, 0]


def test_sample_proportional_frequencies():
    from kquad.sampling import LeverageScores

    flat = LeverageScores(lam=0.1, values=np.ones(4), mode="exact")
    idx = sample_proportional(flat, 100_000, rng=np.random.default_rng(7))
    freqs = np.bincount(idx, minlength=4) / idx.size
    assert np.max(np.abs(freqs - 0.25)) < 0.01

    skew = LeverageScores(lam=0.1, values=np.array([3.0, 1.0]), mode="exact")
    idx = sample_proportional(skew, 100_000, rng=np.random.default_rng(8))
    f0 = np.mean(idx == 0)
    assert 0.74 <= f0 <= 0.76


def test_sample_proportional_all_zero():
    from kquad.sampling import LeverageScores

    zero = LeverageScores(lam=0.1, values=np.zeros(3), mode="exact")
    with pytest.raises(InputError):
        sample_proportional(zero, 2)

