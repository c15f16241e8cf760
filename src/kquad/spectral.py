"""Effective dimension, spectral-decay bounds, and theoretical rate curves.

The empirical convention throughout the package: eigenvalues of a kernel
Gram matrix divided by n approximate the spectrum of the data covariance
operator, so effective dimensions, leverage scores and the regularization
rules all share one lambda scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigvalsh

from .errors import InputError


@dataclass(frozen=True)
class DecayModel:
    """Spectral decay envelope: sigma_i <= amplitude * i^(-1/rate) (polynomial,
    rate = gamma in (0, 1]) or sigma_i <= amplitude * exp(-rate * i)
    (exponential, rate = beta > 0)."""

    kind: str  # "polynomial" | "exponential"
    rate: float
    amplitude: float

    def __post_init__(self):
        if self.kind not in ("polynomial", "exponential"):
            raise InputError(f"unknown decay kind {self.kind!r}")
        if not (self.rate > 0 and self.amplitude > 0):
            raise InputError("decay parameters must be positive")
        if self.kind == "polynomial" and self.rate > 1.0:
            raise InputError("polynomial decay exponent gamma must lie in (0, 1]")

    def envelope(self, indices: np.ndarray) -> np.ndarray:
        """Pointwise upper bound on sigma_i at the given 1-based indices."""
        if self.kind == "polynomial":
            return self.amplitude * indices ** (-1.0 / self.rate)
        return self.amplitude * np.exp(-self.rate * indices)


@dataclass(frozen=True)
class RatePrediction:
    predicted_error: np.ndarray
    label: str


@dataclass(frozen=True)
class DecayBoundReport:
    """Per-lambda comparison of the effective dimension to its decay bound."""

    lambdas: np.ndarray
    effective_dims: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "margins", self.bounds - self.effective_dims)

    @property
    def all_within(self) -> bool:
        return bool(np.all(self.margins >= 0.0))


def effective_dimension(spectrum, lam: float) -> float:
    """sum_j sigma_j / (sigma_j + lambda) for a nonnegative spectrum."""
    sig = np.asarray(spectrum, dtype=np.float64).ravel()
    if lam <= 0:
        raise InputError("lambda must be positive")
    if sig.size and float(sig.min()) < -1e-12:
        raise InputError(f"negative spectrum entry {float(sig.min())}")
    sig = np.clip(sig, 0.0, None)
    return float(np.sum(sig / (sig + lam)))


def empirical_covariance_spectrum(gram_matrix) -> np.ndarray:
    """Eigenvalues of a Gram matrix divided by n (covariance-operator scale),
    descending.  They come from scipy's ``eigvalsh``, which reads the lower
    triangle."""
    M = np.asarray(gram_matrix, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InputError("empirical_covariance_spectrum expects a square matrix")
    if not np.all(np.isfinite(M)):
        raise InputError("matrix contains non-finite entries")
    return np.clip(eigvalsh(M, check_finite=False)[::-1], 0.0, None) / M.shape[0]


def decay_bound(model: DecayModel, lam: float, trace: float) -> float:
    """Effective-dimension bound implied by the decay model at lambda.

    Polynomial with gamma < 1: (a / (1 - gamma)) * lambda^(-gamma).
    Polynomial with gamma = 1 degenerates; the trace/lambda bound is used
    instead (the trace is bounded by the squared feature-norm bound).
    Exponential: log(1 + a / lambda) / beta.
    """
    if lam <= 0:
        raise InputError("lambda must be positive")
    if model.kind == "polynomial":
        if model.rate < 1.0:
            return (model.amplitude / (1.0 - model.rate)) * lam ** (-model.rate)
        return trace / lam
    return math.log1p(model.amplitude / lam) / model.rate


def check_decay_bounds(model: DecayModel, spectrum, lambdas) -> DecayBoundReport:
    """Verify the model envelope on the spectrum, then the effective-dimension
    bound at each lambda.  Raises if the spectrum violates the envelope."""
    sig = np.asarray(spectrum, dtype=np.float64).ravel()
    lams = np.asarray(lambdas, dtype=np.float64).ravel()
    idx = np.arange(1, sig.size + 1, dtype=np.float64)
    env = model.envelope(idx)
    bad = np.nonzero(sig > env * (1.0 + 1e-12) + 1e-300)[0]
    if bad.size:
        i = int(bad[0])
        raise InputError(
            f"spectrum violates the {model.kind} decay model at index {i + 1}: "
            f"sigma={sig[i]:.6g} > bound={env[i]:.6g}"
        )
    trace = float(sig.sum())
    deff = np.array([effective_dimension(sig, lam) for lam in lams])
    bounds = np.array([decay_bound(model, lam, trace=trace) for lam in lams])
    return DecayBoundReport(lambdas=lams, effective_dims=deff, bounds=bounds)


# Rate-curve spec schema: curve -> accepted keys and their value parsers.
CURVES = {
    "sobolev": {"s": int, "d": int},
    "uniform-poly": {"gamma": float},
    "uniform-exp": {},
    "arls-poly": {"gamma": float},
    "arls-exp": {"c": float},
    "monte-carlo": {},
}


def _abbrev(value) -> str:
    """str(value), cut to its first 8 characters and its length if over 20 long."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:8]}...({len(text)} chars)"


def theoretical_rate_curve(
    curve: str,
    m_values,
    *,
    s: int | None = None,
    d: int | None = None,
    gamma: float | None = None,
    c: float | None = None,
) -> RatePrediction:
    """Predicted worst-case-error curve, up to a multiplicative constant
    (intended for figure overlays, not acceptance thresholds).

    sobolev:      log(m)^(s/d) / m^(s/d)
    uniform-poly: log(m)^(1-gamma/2) / m^(1-gamma/2)
    uniform-exp:  log(m) / m
    arls-poly:    log(m)^(1/(2 gamma)) / m^(1/(2 gamma))
    arls-exp:     m^(1/4) / exp(sqrt(m) / c)
    monte-carlo:  m^(-1/2)

    with gamma in (0, 1] (as in ``DecayModel``), c > 0 finite, s, d >= 1; a
    curve that overflows or underflows at some m is an input error.
    """
    m = np.asarray(m_values, dtype=np.float64).ravel()
    if np.any(m < 2):
        raise InputError("m values must be >= 2")
    if curve in ("uniform-poly", "arls-poly") and not (gamma is not None and 0 < gamma <= 1):
        raise InputError(f"{curve} curve needs gamma in (0, 1], got {gamma}")
    expo = None  # the exponent e of a log-power curve log(m)^e / m^e
    with np.errstate(all="ignore"):  # extreme exponents; the result is checked below
        if curve == "sobolev":
            if s is None or d is None or not (s >= 1 and d >= 1):
                raise InputError(
                    f"sobolev curve needs s >= 1 and d >= 1, got s={_abbrev(s)}, d={_abbrev(d)}"
                )
            label = f"sobolev(s={_abbrev(s)},d={_abbrev(d)})"
            # int s / d beyond the float range raises; such a curve is out of range anyway
            expo = s / d if s < 2.0**1023 else math.inf
        elif curve == "uniform-poly":
            expo, label = 1.0 - gamma / 2.0, f"uniform-poly(gamma={gamma})"
        elif curve == "uniform-exp":
            expo, label = 1.0, "uniform-exp"
        elif curve == "arls-poly":
            expo, label = 1.0 / (2.0 * gamma), f"arls-poly(gamma={gamma})"
        elif curve == "arls-exp":
            if c is None or not 0 < c < math.inf:
                raise InputError(f"arls-exp curve needs a positive finite constant c, got {c}")
            pred = m**0.25 / np.exp(np.sqrt(m) / c)
            label = f"arls-exp(c={c})"
        elif curve == "monte-carlo":
            pred = m**-0.5
            label = "monte-carlo"
        else:
            raise InputError(f"unknown curve {curve!r}; expected one of {tuple(CURVES)}")
        if expo is not None:
            pred = np.log(m) ** expo / m**expo
    if not np.all(np.isfinite(pred) & (pred > 0.0)):
        raise InputError(f"{label} curve is not a finite positive float at every m")
    return RatePrediction(predicted_error=pred, label=label)


def rate_slope(m_values, errors) -> tuple[float, float, float]:
    """Ordinary least squares of log(error) on log(m): (slope, intercept, r^2).

    Constant errors give slope 0 with r^2 reported as 0 by convention.
    """
    m = np.asarray(m_values, dtype=np.float64).ravel()
    e = np.asarray(errors, dtype=np.float64).ravel()
    if m.size != e.size or m.size < 3:
        raise InputError("need at least 3 (m, error) pairs")
    if np.any(m < 2):
        raise InputError("m values must be >= 2")
    if np.any(e <= 0.0):
        raise InputError("errors must be positive for a log-log fit")
    x = np.log(m)
    y = np.log(e)
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise InputError("need at least two distinct m values for a log-log fit")
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    sst = float(np.sum((y - ym) ** 2))
    if sst == 0.0:
        return 0.0, float(ym), 0.0
    ssr = float(np.sum((y - (intercept + slope * x)) ** 2))
    return float(slope), float(intercept), float(1.0 - ssr / sst)
