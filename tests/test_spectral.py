import math

import numpy as np
import pytest

from kquad import InputError
from kquad.kernels import gaussian, gram
from kquad.numerics import eig_sym
from kquad.sampling import exact_rls
from kquad.spectral import (
    DecayModel,
    check_decay_bounds,
    d_infinity_empirical,
    effective_dimension,
    empirical_covariance_spectrum,
    fit_decay_model,
    lambda_rule,
    rate_slope,
    subsample_size_rule,
    theoretical_rate_curve,
)

from oracles import effective_dimension_direct


def test_effective_dimension_scalar():
    assert effective_dimension([1.0], 1.0) == 0.5


def test_effective_dimension_matches_leverage_sum():
    rng = np.random.default_rng(0)
    for n in (10, 40, 64):
        K = gram(gaussian(0.8), rng.standard_normal((n, 2)))
        lam = 10 ** rng.uniform(-3, -0.5)
        scores = exact_rls(K, lam)
        spectrum = empirical_covariance_spectrum(K)
        assert abs(effective_dimension(spectrum, lam) - scores.values.sum()) < 1e-8


def test_effective_dimension_monotone_to_zero():
    spectrum = np.array([2.0, 1.0, 0.3])
    values = [effective_dimension(spectrum, lam) for lam in (0.01, 0.1, 1.0, 10.0, 1e6)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_effective_dimension_rejects_negative_spectrum():
    with pytest.raises(InputError):
        effective_dimension([1.0, -1e-6], 0.1)
    with pytest.raises(InputError):
        effective_dimension([1.0], 0.0)


def test_d_infinity_identity_gram():
    lam = 0.2
    scores = exact_rls(np.eye(8), lam)
    assert abs(d_infinity_empirical(scores) - 8.0 / (1.0 + lam * 8)) < 1e-12


def test_d_infinity_dominates_effective_dimension():
    rng = np.random.default_rng(1)
    K = gram(gaussian(0.7), rng.standard_normal((32, 2)))
    for lam in (1e-3, 1e-2, 1e-1):
        scores = exact_rls(K, lam)
        deff = effective_dimension(empirical_covariance_spectrum(K), lam)
        dinf = d_infinity_empirical(scores)
        assert deff <= dinf + 1e-10
        assert dinf <= 1.0 / lam + 1e-10  # K = 1 for the gaussian kernel


def test_d_infinity_needs_exact_scores():
    from kquad.sampling import LeverageScores

    pilot = LeverageScores(lam=0.1, values=np.ones(3), mode="pilot", pilot_size=2)
    with pytest.raises(InputError):
        d_infinity_empirical(pilot)


def test_polynomial_decay_bound_direct_sum():
    # sigma_i = i^-2 is polynomial decay with gamma = 1/2 and amplitude 1
    i = np.arange(1, 10**4 + 1, dtype=np.float64)
    spectrum = i**-2.0
    model = DecayModel(kind="polynomial", rate=0.5, amplitude=1.0)
    report = check_decay_bounds(model, spectrum, [1e-4, 1e-3, 1e-2, 1e-1])
    assert report.all_within
    for lam, deff in zip(report.lambdas, report.effective_dims):
        assert abs(deff - effective_dimension_direct(spectrum, lam)) < 1e-10
        assert deff <= 2.0 * lam**-0.5


def test_exponential_decay_bound_direct_sum():
    i = np.arange(1, 10**4 + 1, dtype=np.float64)
    spectrum = np.exp(-i)
    model = DecayModel(kind="exponential", rate=1.0, amplitude=1.0)
    report = check_decay_bounds(model, spectrum, [1e-4, 1e-3, 1e-2, 1e-1])
    assert report.all_within
    for lam, deff in zip(report.lambdas, report.effective_dims):
        assert deff <= math.log(1.0 + 1.0 / lam)


def test_single_eigenvalue_bound():
    model = DecayModel(kind="exponential", rate=1.0, amplitude=1.0)
    report = check_decay_bounds(model, [math.exp(-1.0)], [0.05])
    assert report.all_within


def test_decay_bound_reports_violating_index():
    model = DecayModel(kind="polynomial", rate=0.5, amplitude=1.0)
    bad = np.array([1.0, 0.3, 0.1])  # index 2 exceeds 2^-2
    with pytest.raises(InputError, match="index 2"):
        check_decay_bounds(model, bad, [0.1])


def test_gamma_one_uses_trace_bound():
    spectrum = np.array([0.5, 0.25, 0.125])
    model = DecayModel(kind="polynomial", rate=1.0, amplitude=0.5)
    report = check_decay_bounds(model, spectrum, [0.01, 0.1])
    assert report.all_within
    assert np.allclose(report.bounds, spectrum.sum() / report.lambdas)


def test_decay_model_validation():
    with pytest.raises(InputError):
        DecayModel(kind="polynomial", rate=1.5, amplitude=1.0)
    with pytest.raises(InputError):
        DecayModel(kind="exponential", rate=-1.0, amplitude=1.0)
    with pytest.raises(InputError):
        DecayModel(kind="geometric", rate=0.5, amplitude=1.0)


def test_lambda_rule_values():
    assert abs(lambda_rule("uniform", 100, K=1.0, delta=0.1) - 12 * math.log(1000) / 100) < 1e-12
    assert abs(lambda_rule("uniform", 100, K=1.0, delta=0.1) - 0.8289) < 1e-3
    arls = lambda_rule("arls", 10_000, K=1.0, delta=0.1)
    assert abs(arls - 19 * math.log(3.2e6) / 1e4) < 1e-12
    assert abs(arls - 0.02845) < 1e-4
    ms = [lambda_rule("uniform", m) for m in (50, 100, 400, 1600)]
    assert all(b < a for a, b in zip(ms, ms[1:]))
    with pytest.raises(InputError):
        lambda_rule("dpp", 100)


def test_subsample_size_polynomial_scaling():
    model = DecayModel(kind="polynomial", rate=0.5, amplitude=1.0)
    n = 10_000
    m1 = subsample_size_rule(n, model)
    m4 = subsample_size_rule(4 * n, model)
    predicted = 2.0 * math.sqrt(math.log(4 * n) / math.log(n))
    assert abs(m4 / m1 - predicted) / predicted < 0.05


def test_subsample_size_exponential_scaling():
    model = DecayModel(kind="exponential", rate=1.0, amplitude=1.0)
    inner = max(2.0 / 19.0, 480.0)
    ratios = [
        subsample_size_rule(n, model) / math.log(inner * n) ** 2 for n in (10**4, 10**5, 10**6)
    ]
    assert max(ratios) - min(ratios) < 1e-2 * max(ratios)


def test_subsample_size_gamma_one_linear():
    model = DecayModel(kind="polynomial", rate=1.0, amplitude=1.0)
    m1 = subsample_size_rule(10_000, model)
    m2 = subsample_size_rule(20_000, model)
    assert abs(m2 / m1 - 2.0) < 1e-3


def test_rate_curve_sobolev_ratio():
    pred = theoretical_rate_curve("sobolev", [10, 100], s=1, d=1)
    assert abs(pred.predicted_error[1] / pred.predicted_error[0] - 0.2) < 1e-12


def test_rate_curve_monte_carlo_decade():
    pred = theoretical_rate_curve("monte-carlo", [10, 100])
    assert abs(pred.predicted_error[1] / pred.predicted_error[0] - 10**-0.5) < 1e-12


def test_rate_curve_uniform_poly_gamma_one():
    pred = theoretical_rate_curve("uniform-poly", [16, 64], gamma=1.0)
    expected = (math.log(64) / math.log(16)) ** 0.5 * (16 / 64) ** 0.5
    assert abs(pred.predicted_error[1] / pred.predicted_error[0] - expected) < 1e-12


def test_rate_curve_eventually_decreasing():
    m = np.arange(8, 4096, 16)
    for kwargs in (
        dict(curve="sobolev", s=1, d=1),
        dict(curve="uniform-exp"),
        dict(curve="arls-poly", gamma=0.5),
        dict(curve="arls-exp", c=4.0),
        dict(curve="monte-carlo"),
    ):
        pred = theoretical_rate_curve(m_values=m, **kwargs)
        assert np.all(pred.predicted_error > 0)
        assert np.all(np.diff(pred.predicted_error[m > 20]) < 0)


def test_rate_curve_validation():
    with pytest.raises(InputError):
        theoretical_rate_curve("sobolev", [10, 100])
    with pytest.raises(InputError):
        theoretical_rate_curve("arls-exp", [10, 100])
    with pytest.raises(InputError):
        theoretical_rate_curve("warp", [10, 100])
    with pytest.raises(InputError):
        theoretical_rate_curve("monte-carlo", [1, 10])
    for curve, kwargs in (
        ("arls-poly", dict(gamma=0.0)),
        ("arls-poly", dict(gamma=-1.0)),
        ("uniform-poly", dict(gamma=1.5)),
        ("uniform-poly", dict(gamma=math.nan)),
        ("arls-exp", dict(c=math.inf)),
        ("arls-exp", dict(c=math.nan)),
        ("sobolev", dict(s=1, d=-1)),
        ("sobolev", dict(s=0, d=1)),
    ):
        with pytest.raises(InputError):
            theoretical_rate_curve(curve, [10, 100], **kwargs)


def test_rate_slope_exact_power_laws():
    m = np.array([8, 16, 32, 64, 128], dtype=float)
    slope, _, r2 = rate_slope(m, 3.7 / m)
    assert abs(slope + 1.0) < 1e-10 and abs(r2 - 1.0) < 1e-10
    slope, _, _ = rate_slope(m, 0.2 * m**-0.5)
    assert abs(slope + 0.5) < 1e-10


def test_rate_slope_constant_convention():
    slope, intercept, r2 = rate_slope([8, 16, 32], [2.0, 2.0, 2.0])
    assert slope == 0.0 and r2 == 0.0 and abs(intercept - math.log(2.0)) < 1e-12


def test_rate_slope_validation():
    with pytest.raises(InputError):
        rate_slope([8, 16, 32], [1.0, 0.0, 1.0])
    with pytest.raises(InputError):
        rate_slope([8, 16], [1.0, 1.0])
    with pytest.raises(InputError):
        rate_slope([16, 16, 16], [0.1, 0.2, 0.3])  # one m: no slope


def test_fit_decay_model_recovers_planted():
    i = np.arange(1, 201, dtype=np.float64)
    poly = fit_decay_model(2.0 * i**-4.0, "polynomial")
    assert abs(poly.rate - 0.25) < 0.02
    expo = fit_decay_model(3.0 * np.exp(-0.7 * i), "exponential")
    assert abs(expo.rate - 0.7) < 0.02
    # fitted envelopes dominate the spectra they were fit on
    assert check_decay_bounds(poly, 2.0 * i**-4.0, [1e-3]).all_within
    with pytest.raises(InputError):
        fit_decay_model(i**-2.0, "harmonic")


def test_empirical_spectrum_convention():
    rng = np.random.default_rng(2)
    K = gram(gaussian(0.9), rng.standard_normal((20, 2)))
    spectrum = empirical_covariance_spectrum(K)
    assert np.all(spectrum >= 0)
    assert abs(spectrum.sum() - np.trace(K) / 20) < 1e-10
    assert np.allclose(spectrum * 20, np.clip(eig_sym(K).values, 0, None))
