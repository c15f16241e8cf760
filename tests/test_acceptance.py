"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured quantities."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kquad.bench import ExperimentConfig, run_experiment, run_to_files, summarize
from kquad.greedy import greedy_select
from kquad.kernels import evaluate, gaussian, gram, periodic_sobolev
from kquad.quadrature import (
    QuadratureRule,
    TargetMeasure,
    optimal_weights,
    target_moments,
    target_self_product,
    worst_case_error,
)
from kquad.sampling import approx_rls_pilot, exact_rls, uniform_subsample
from kquad.spectral import (
    DecayModel,
    check_decay_bounds,
    effective_dimension,
    empirical_covariance_spectrum,
    rate_slope,
)

from oracles import sobolev_series_1d, worst_case_witness


def report(num, ok, detail):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sobolev_experiment():
    config = ExperimentConfig(
        dataset="uniform_cube:d=1",
        kernel="sobolev:s=1,d=1",
        n=4096,
        methods=("uniform", "monte-carlo"),
        m_grid=(16, 32, 64, 128, 256),
        trials=20,
        master_seed=20260809,
        target="unit-cube",
        workers=1,
        output="unused.csv",
    )
    t0 = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - t0
    return summarize(result), elapsed


def fitted_slope(summary, method):
    rows = sorted((s for s in summary if s.method == method), key=lambda s: s.m)
    slope, _, _ = rate_slope([s.m for s in rows], [s.error_median for s in rows])
    return slope


def test_criterion_1_sobolev_rate(sobolev_experiment):
    summary, elapsed = sobolev_experiment
    slope = fitted_slope(summary, "uniform")
    ok = -1.3 <= slope <= -0.7 and elapsed < 60.0
    report(1, ok, f"uniform-sampling slope {slope:+.3f} in [-1.3, -0.7], runtime {elapsed:.1f}s < 60s")


def test_criterion_2_monte_carlo_rate(sobolev_experiment):
    summary, _ = sobolev_experiment
    slope = fitted_slope(summary, "monte-carlo")
    ok = -0.65 <= slope <= -0.35
    report(2, ok, f"monte-carlo slope {slope:+.3f} in [-0.65, -0.35]")


def test_criterion_3_kernel_closed_form():
    offsets = (np.arange(100) + 0.5) / 100.0
    worst = 0.0
    for order in (1, 2, 3):
        series = sobolev_series_1d(order, offsets, terms=10**6)
        kern = periodic_sobolev(order, 1)
        closed = np.array([evaluate(kern, 0.0, t) for t in offsets])
        worst = max(worst, float(np.max(np.abs(closed - series))))
    self_dev = abs(evaluate(periodic_sobolev(1, 1), 0.3, 0.3) - (1 + math.pi**2 / 3))
    ok = worst <= 1e-8 and self_dev <= 1e-8
    report(3, ok, f"series agreement {worst:.2e} <= 1e-8 on 100 offsets; |k1(x,x)-(1+pi^2/3)| = {self_dev:.2e}")


def test_criterion_4_error_formula_vs_witness():
    rng = np.random.default_rng(4)
    worst_gap = worst_norm = 0.0
    for trial in range(50):
        n = int(rng.integers(4, 65))
        m = int(rng.integers(1, 9))
        kern = gaussian(float(rng.uniform(0.3, 1.2))) if trial % 2 else periodic_sobolev(1, 2)
        X = rng.random((n, 2))
        target = TargetMeasure.discrete(X)
        nodes = X[uniform_subsample(n, min(m, n), rng=rng)]
        if trial % 3:
            rule = QuadratureRule(nodes=nodes, weights=rng.standard_normal(len(nodes)))
        else:
            rule = optimal_weights(kern, nodes, target)
        wce = worst_case_error(rule, target, kern)
        coeffs, gap = worst_case_witness(rule, target, kern)
        worst_gap = max(worst_gap, abs(wce - gap))
        G = gram(kern, np.vstack([X, nodes]))
        worst_norm = max(worst_norm, abs(float(coeffs @ G @ coeffs) - 1.0))
    ok = worst_gap <= 1e-8 and worst_norm <= 1e-8
    report(4, ok, f"max |error - witness gap| = {worst_gap:.2e} <= 1e-8 over 50 instances (unit-norm dev {worst_norm:.2e})")


def test_criterion_5_leverage_score_identities():
    rng = np.random.default_rng(5)
    # trace identity against the effective dimension of the scaled spectrum
    trace_dev = 0.0
    for n in (16, 48, 64):
        K = gram(gaussian(0.8), rng.standard_normal((n, 2)))
        lam = 10 ** rng.uniform(-3, -0.5)
        scores = exact_rls(K, lam)
        deff = effective_dimension(empirical_covariance_spectrum(K), lam)
        trace_dev = max(trace_dev, abs(scores.values.sum() - deff))
    # identity Gram closed form
    lam = 0.07
    eye_dev = float(np.max(np.abs(exact_rls(np.eye(32), lam).values - 1 / (1 + lam * 32))))
    # full pilot reduces to the exact scores
    X = rng.standard_normal((24, 2))
    kern = gaussian(0.9)
    exact = exact_rls(gram(kern, X), 0.05).values
    pilot = approx_rls_pilot(X, kern, 0.05, pilot_size=24, rng=rng).values
    pilot_dev = float(np.max(np.abs(pilot - exact)))
    ok = trace_dev <= 1e-8 and eye_dev <= 1e-12 and pilot_dev <= 1e-6
    report(5, ok, f"trace identity dev {trace_dev:.2e} <= 1e-8; identity-Gram dev {eye_dev:.2e} <= 1e-12; full-pilot dev {pilot_dev:.2e} <= 1e-6")


def test_criterion_6_full_support_optimality():
    rng = np.random.default_rng(6)
    worst_w = worst_e = 0.0
    cases = [
        (periodic_sobolev(1, 1), rng.random(64)),
        (gaussian(0.5), 3.0 * rng.standard_normal((64, 2))),
    ]
    for kern, X in cases:
        target = TargetMeasure.discrete(X)
        rule = optimal_weights(kern, X, target)
        worst_w = max(worst_w, float(np.max(np.abs(rule.weights - 1.0 / 64))))
        worst_e = max(worst_e, worst_case_error(rule, target, kern))
    ok = worst_w <= 1e-8 and worst_e <= 1e-6
    report(6, ok, f"m=n weights dev {worst_w:.2e} <= 1e-8; worst-case error {worst_e:.2e} <= 1e-6")


def test_criterion_7_greedy_vs_bruteforce():
    matches = True
    worst_ratio_dev = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        X = rng.random((10, 2))
        kern = gaussian(0.4)
        K = gram(kern, X)
        state = greedy_select(X, kern, None, 5, "P")
        chosen: list[int] = []
        pow_prev = K.diagonal().copy()  # power values before any selection
        for step, j in enumerate(state.selected):
            dets = np.array(
                [
                    -np.inf
                    if c in chosen
                    else np.linalg.det(K[np.ix_(chosen + [c], chosen + [c])])
                    for c in range(10)
                ]
            )
            matches = matches and int(np.argmax(dets)) == int(j)
            # determinant-ratio identity against the incremental power values
            prev_det = np.linalg.det(K[np.ix_(chosen, chosen)]) if chosen else 1.0
            ratio = dets[int(j)] / prev_det
            worst_ratio_dev = max(worst_ratio_dev, abs(ratio - pow_prev[int(j)]))
            chosen.append(int(j))
            pow_prev = greedy_select(X, kern, None, step + 1, "P").powfun2

    # f/P residual norms nonincreasing on every run
    fp_ok = True
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        X = rng.random((30, 2))
        kern = gaussian(0.5)
        target = TargetMeasure.discrete(X)
        f = target_moments(kern, X, target)
        state = greedy_select(X, kern, f, 10, "f_over_P")
        norms = target_self_product(kern, target) - np.cumsum(state.f_coeffs**2)
        fp_ok = fp_ok and bool(np.all(np.diff(norms) <= 1e-12))
    ok = matches and worst_ratio_dev <= 1e-8 and fp_ok
    report(7, ok, f"P-greedy = exhaustive det argmax on 20 instances (m<=5); det-ratio dev {worst_ratio_dev:.2e} <= 1e-8; f/P residual norms nonincreasing: {fp_ok}")


def test_criterion_8_effective_dimension_bounds():
    i = np.arange(1, 10**6 + 1, dtype=np.float64)
    lambdas = [1e-4, 1e-3, 1e-2, 1e-1]
    poly = check_decay_bounds(DecayModel("polynomial", 0.5, 1.0), i**-2.0, lambdas)
    poly_ok = bool(
        np.all(poly.effective_dims <= 2.0 * poly.lambdas**-0.5) and poly.all_within
    )
    expo = check_decay_bounds(DecayModel("exponential", 1.0, 1.0), np.exp(-i[:700]), lambdas)
    expo_ok = bool(
        np.all(expo.effective_dims <= np.log1p(1.0 / expo.lambdas)) and expo.all_within
    )
    ok = poly_ok and expo_ok
    report(8, ok, f"d_eff bounds hold over {lambdas}: polynomial margin {poly.margins.min():.3f}, exponential margin {expo.margins.min():.3f}")


def test_criterion_9_arls_benefit():
    config = ExperimentConfig(
        dataset="gaussian_mixture:d=2,k=3,sep=5",
        kernel="gaussian:sigma=median",
        n=4096,
        methods=("monte-carlo", "uniform", "arls"),
        m_grid=(256,),
        trials=20,
        master_seed=20260809,
        target="data",
        workers=1,
        output="unused.csv",
    )
    summary = summarize(run_experiment(config))
    med = {s.method: s.error_median for s in summary}
    ratio = med["arls"] / med["uniform"]
    ok = ratio <= 1.2 and med["arls"] <= med["monte-carlo"] and med["uniform"] <= med["monte-carlo"]
    report(9, ok, f"arls/uniform median ratio {ratio:.3f} <= 1.2; arls {med['arls']:.2e} and uniform {med['uniform']:.2e} <= monte-carlo {med['monte-carlo']:.2e}")


def test_criterion_10_determinism_across_workers(tmp_path):
    base = ExperimentConfig(
        dataset="gaussian_mixture:d=2,k=3,sep=5",
        kernel="gaussian:sigma=median",
        n=512,
        methods=("uniform", "uniform-wr", "arls", "monte-carlo", "p-greedy", "fp-greedy"),
        m_grid=(16, 32),
        trials=4,
        master_seed=7,
        target="data",
        timings=False,
        output=str(tmp_path / "w1.csv"),
        workers=1,
    )
    run_to_files(base)
    blob1 = (tmp_path / "w1.csv").read_bytes()
    run_to_files(replace(base, output=str(tmp_path / "w1b.csv")))
    blob1b = (tmp_path / "w1b.csv").read_bytes()
    run_to_files(replace(base, output=str(tmp_path / "w8.csv"), workers=8))
    blob8 = (tmp_path / "w8.csv").read_bytes()

    # with timings on, every non-time column stays bit-identical across workers
    res1 = run_experiment(replace(base, timings=True, workers=1))
    res8 = run_experiment(replace(base, timings=True, workers=8))
    content = lambda res: [(r.method, r.m, r.trial, repr(r.error)) for r in res.rows]
    ok = blob1 == blob1b == blob8 and content(res1) == content(res8)
    report(10, ok, f"raw CSV byte-identical across reruns and 1 vs 8 workers ({len(blob1)} bytes); error columns identical with timings on")
