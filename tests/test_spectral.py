import math

import numpy as np
import pytest

from kquad import InputError
from kquad.kernels import gaussian, gram
from kquad.sampling import exact_rls
from kquad.spectral import (
    DecayModel,
    check_decay_bounds,
    effective_dimension,
    empirical_covariance_spectrum,
    rate_slope,
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


def test_empirical_spectrum_convention():
    rng = np.random.default_rng(2)
    K = gram(gaussian(0.9), rng.standard_normal((20, 2)))
    spectrum = empirical_covariance_spectrum(K)
    assert np.all(spectrum >= 0)
    assert abs(spectrum.sum() - np.trace(K) / 20) < 1e-10
    assert np.allclose(spectrum * 20, np.clip(np.linalg.eigvalsh(K)[::-1], 0, None))


def test_spectrum_input_errors():
    for bad in (np.ones((2, 3)), np.array([[1.0, np.inf], [np.inf, 1.0]])):
        with pytest.raises(InputError):
            exact_rls(bad, 0.1)
        with pytest.raises(InputError):
            empirical_covariance_spectrum(bad)
    with pytest.raises(InputError):
        exact_rls(np.zeros((0, 0)), 0.1)
