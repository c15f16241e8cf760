import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kquad import InputError
from kquad.bench import gen_synthetic
from kquad.greedy import VARIANTS, greedy_select
from kquad.kernels import gaussian, gram, laplacian, periodic_sobolev
from kquad.quadrature import (
    TargetMeasure,
    compress,
    optimal_weights,
    target_self_product,
    worst_case_error,
)
from kquad.sampling import uniform_subsample

from oracles import dense_interpolation_residual, power_function_bruteforce, projected_gram


def test_p_greedy_first_pick_is_lowest_index():
    # translation-invariant kernel: all self-values tie, lowest index wins
    X = np.random.default_rng(0).standard_normal((10, 2))
    state = greedy_select(X, gaussian(0.8), None, 1, "P")
    assert state.selected.tolist() == [0]


def test_p_greedy_matches_determinant_maximization():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.random((10, 2))
        kern = gaussian(0.4)
        K = gram(kern, X)
        state = greedy_select(X, kern, None, 5, "P")
        chosen: list[int] = []
        for j in state.selected:
            dets = np.array(
                [
                    -np.inf
                    if c in chosen
                    else np.linalg.det(K[np.ix_(chosen + [c], chosen + [c])])
                    for c in range(10)
                ]
            )
            assert int(np.argmax(dets)) == int(j)
            chosen.append(int(j))


def test_powfun_matches_bruteforce_everywhere():
    rng = np.random.default_rng(3)
    X = rng.random((8, 2))
    kern = gaussian(0.4)
    for t in (1, 2, 3):
        state = greedy_select(X, kern, None, t, "P")
        for i in range(8):
            bf = power_function_bruteforce(kern, X, state.selected, X[i])
            assert abs(bf - state.powfun2[i]) < 1e-8


def test_power_function_bruteforce_edges():
    X = np.random.default_rng(4).random((6, 2))
    kern = gaussian(0.5)
    assert power_function_bruteforce(kern, X, [], X[2]) == 1.0
    assert power_function_bruteforce(kern, X, [1, 3], X[3]) <= 1e-10


def test_full_selection_interpolates():
    rng = np.random.default_rng(5)
    X = rng.random((12, 2)) * 2.0
    kern = gaussian(0.6)
    f = rng.standard_normal(12)
    for variant in ("f", "P", "f_over_P"):
        state = greedy_select(X, kern, f, 12, variant)
        assert len(state.selected) == 12
        assert np.max(state.powfun2) <= 1e-6
        if variant != "P":
            assert np.max(np.abs(state.residual)) <= 1e-6


def test_state_invariants():
    rng = np.random.default_rng(6)
    X = rng.random((15, 2))
    kern = gaussian(0.5)
    f = rng.standard_normal(15)
    diag0 = gram(kern, X).diagonal()
    prev = diag0.copy()
    for t in range(1, 7):
        state = greedy_select(X, kern, f, t, "f")
        assert np.all(state.powfun2 >= 0.0)
        assert np.all(state.powfun2 <= diag0 + 1e-8)
        assert np.all(state.powfun2 <= prev + 1e-12)  # pointwise nonincreasing
        assert np.max(state.powfun2[state.selected]) <= 1e-8
        prev = state.powfun2


def test_residual_matches_dense_solve():
    rng = np.random.default_rng(7)
    X = rng.random((10, 2))
    kern = gaussian(0.5)
    f = rng.standard_normal(10)
    K = gram(kern, X)
    for variant in ("f", "f_over_P"):
        state = greedy_select(X, kern, f, 4, variant)
        oracle = dense_interpolation_residual(K, state.selected, f)
        assert np.max(np.abs(state.residual - oracle)) < 1e-8


def test_coeff_matrix_reconstructs_projected_gram():
    rng = np.random.default_rng(8)
    X = rng.random((20, 2))
    kern = gaussian(0.5)
    K = gram(kern, X)
    state = greedy_select(X, kern, None, 6, "P")
    oracle = projected_gram(K, state.selected)
    assert np.max(np.abs(state.coeffs.T @ state.coeffs - oracle)) < 1e-6


def test_f_over_p_criterion_identity():
    # adding x to the selected set lowers the squared residual norm by
    # exactly residual(x)^2 / powfun2(x)
    rng = np.random.default_rng(9)
    X = rng.random((12, 1))
    kern = gaussian(0.5)
    alpha = rng.standard_normal(12)
    K = gram(kern, X)
    f = K @ alpha  # ensures f lies in the data-feature span with known norm
    state = greedy_select(X, kern, f, 3, "f_over_P")
    sel = state.selected.tolist()

    def residual_norm2(indices):
        P = projected_gram(K, indices)
        return float(alpha @ K @ alpha - alpha @ P @ alpha)

    base = residual_norm2(sel)
    for q in range(12):
        if q in sel or state.powfun2[q] <= 1e-10:
            continue
        drop = state.residual[q] ** 2 / state.powfun2[q]
        assert abs(residual_norm2(sel + [q]) - (base - drop)) < 1e-7


def test_truncation_on_duplicates():
    base = np.random.default_rng(10).random((3, 2))
    X = np.vstack([base, base])  # only 3 distinct directions
    state = greedy_select(X, gaussian(0.8), None, 5, "P")
    assert len(state.selected) == 3


def test_in_span_candidates_get_exact_zero_coefficients():
    base = np.random.default_rng(15).random((6, 2))
    X = np.vstack([base, base[::-1], base[:3]])  # 15 rows, 6 distinct
    f = np.sin(X.sum(axis=1))
    kern = gaussian(0.8)
    checked = 0
    for variant in VARIANTS:
        state = greedy_select(X, kern, f, 6, variant)
        t = len(state.selected)
        assert len(set(state.selected.tolist())) == t
        assert state.coeffs.shape == (t, 15)
        for k in range(1, t):
            in_span = greedy_select(X, kern, f, k, variant).powfun2 <= 1e-10
            assert np.all(state.coeffs[k, in_span] == 0.0)
            checked += int(in_span.sum())
    assert checked > 0


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    k=st.integers(-40, 40),
    kern=st.sampled_from([gaussian(0.5), laplacian(0.7), periodic_sobolev(1, 2)]),
)
def test_power_of_two_scaling_of_f_is_exact(variant, seed, n, k, kern):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    f = rng.standard_normal(n)
    m = int(rng.integers(1, n + 1))
    base = greedy_select(X, kern, f, m, variant)
    scaled = greedy_select(X, kern, f * 2.0**k, m, variant)
    assert np.array_equal(scaled.selected, base.selected)
    assert np.array_equal(scaled.residual, base.residual * 2.0**k)
    assert np.array_equal(scaled.f_coeffs, base.f_coeffs * 2.0**k)


def test_points_are_checked_against_the_kernel():
    X = np.random.default_rng(16).random((5, 2))
    far = X.copy()
    far[3, 0] = 2.0**501
    with pytest.raises(InputError, match="2\\^500"):
        greedy_select(far, gaussian(1.0), None, 2, "P")
    with pytest.raises(InputError, match="sobolev kernel dimension"):
        greedy_select(X, periodic_sobolev(1, 3), None, 2, "P")


def test_selection_memory_is_one_coefficient_array():
    # the coefficients are the one (m, n) array a selection needs; no step
    # may copy a block of them
    X = gen_synthetic("gaussian_mixture:d=8,k=3,sep=5", 2048, 1).points
    kern, m = laplacian(3.0), 128
    greedy_select(X, kern, None, m, "P")  # warm-up: first-call allocations of numpy and scipy
    tracemalloc.start()
    try:
        state = greedy_select(X, kern, None, m, "P")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.selected) == m
    assert peak <= 1.25 * m * X.shape[0] * 8


def test_variant_and_shape_validation():
    X = np.random.default_rng(11).random((5, 1))
    with pytest.raises(InputError):
        greedy_select(X, gaussian(1.0), None, 2, "q")
    with pytest.raises(InputError):
        greedy_select(X, gaussian(1.0), np.zeros(3), 2, "f")
    with pytest.raises(InputError):
        greedy_select(X, gaussian(1.0), np.zeros(5), 6, "f")


def test_greedy_quadrature_full_support():
    rng = np.random.default_rng(12)
    X = rng.random((14, 1))
    kern = periodic_sobolev(1, 1)
    target = TargetMeasure.discrete(X)
    for method in ("f-greedy", "p-greedy", "fp-greedy"):
        rule = compress(X, kern, method, 14)
        assert worst_case_error(rule, target, kern) <= 1e-6


def test_fp_residual_norm_nonincreasing():
    rng = np.random.default_rng(13)
    X = rng.random((40, 2))
    kern = gaussian(0.5)
    target = TargetMeasure.discrete(X)
    from kquad.quadrature import target_moments

    f = target_moments(kern, X, target)
    state = greedy_select(X, kern, f, 12, "f_over_P")
    norm2 = target_self_product(kern, target) - np.cumsum(state.f_coeffs**2)
    assert np.all(np.diff(norm2) <= 1e-12)
    assert norm2[-1] >= -1e-10


def test_fp_greedy_error_nonincreasing_in_m():
    # greedy rules are nested in m, so with optimal weights the squared error
    # cannot grow; 1e-12 is float64 noise on a squared Gaussian error <= 1
    X = gen_synthetic("gaussian_mixture:d=2,k=3,sep=5", 300, 1).points
    kern = gaussian(6.7)
    e2 = [compress(X, kern, "fp-greedy", m).error ** 2 for m in range(8, 56, 8)]
    assert np.all(np.diff(e2) <= 1e-12), e2


def test_f_greedy_beats_worst_random_sets():
    rng = np.random.default_rng(14)
    X = rng.random((16, 2))
    kern = gaussian(0.5)
    target = TargetMeasure.discrete(X)
    rule = compress(X, kern, "f-greedy", 4)
    greedy_err = worst_case_error(rule, target, kern)
    worst = 0.0
    for _ in range(50):
        idx = uniform_subsample(16, 4, rng=rng)
        rand_rule = optimal_weights(kern, X[idx], target)
        worst = max(worst, worst_case_error(rand_rule, target, kern))
    assert greedy_err <= worst
