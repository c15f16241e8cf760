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

from .errors import InputError
from .numerics import eig_sym


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
    m_values: np.ndarray
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
    """Eigenvalues of a Gram matrix divided by n (covariance-operator scale)."""
    eig = eig_sym(gram_matrix)
    return np.clip(eig.values, 0.0, None) / gram_matrix.shape[0]


def d_infinity_empirical(scores) -> float:
    """n * max leverage score: the empirical essential-sup counterpart of the
    whitened feature norm."""
    if scores.mode != "exact":
        raise InputError("d_infinity requires exact-mode leverage scores")
    return float(len(scores.values) * np.max(scores.values))


def decay_bound(model: DecayModel, lam: float, trace: float | None = None) -> float:
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
        if trace is None:
            raise InputError("gamma = 1 bound needs the spectrum trace")
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


def lambda_rule(strategy: str, size: int, K: float = 1.0, delta: float = 0.1) -> float:
    """Regularization level used by the sampling analysis.

    uniform: 12 K^2 log(m / delta) / m with size = m.
    arls:    19 K^2 log(32 n / delta) / n with size = n.
    """
    if size <= 0 or K <= 0 or not 0.0 < delta < 1.0:
        raise InputError("need size > 0, K > 0 and delta in (0, 1)")
    if strategy == "uniform":
        return 12.0 * K * K * math.log(size / delta) / size
    if strategy == "arls":
        return 19.0 * K * K * math.log(32.0 * size / delta) / size
    raise InputError(f"unknown strategy {strategy!r}")


def subsample_size_rule(
    n: int, model: DecayModel, z: float = 1.0, delta: float = 0.1, K: float = 1.0
) -> int:
    """Node-count rule guaranteeing the fast quantization rate, rounded up.

    Polynomial decay: n^gamma (log 32n/delta)^(1-gamma) * 78 c z^2 / (19 K^2)^gamma
    with c = a/(1-gamma) for gamma < 1 and c = K^2 at gamma = 1.
    Exponential decay: max(334, 78 z^2 / beta) * log(max(2a/(19K^2), 48/delta) n)^2.
    """
    if n <= 0 or z < 1.0 or not 0.0 < delta < 1.0 or K <= 0:
        raise InputError("need n > 0, z >= 1, delta in (0, 1), K > 0")
    if model.kind == "polynomial":
        gamma = model.rate
        c = K * K if gamma >= 1.0 else model.amplitude / (1.0 - gamma)
        value = (
            n**gamma
            * math.log(32.0 * n / delta) ** (1.0 - gamma)
            * 78.0
            * c
            * z
            * z
            / (19.0 * K * K) ** gamma
        )
    else:
        prefac = max(334.0, 78.0 * z * z / model.rate)
        inner = max(2.0 * model.amplitude / (19.0 * K * K), 48.0 / delta)
        value = prefac * math.log(inner * n) ** 2
    return int(math.ceil(value))


# Rate-curve spec schema: curve -> accepted keys and their value parsers.
CURVES = {
    "sobolev": {"s": int, "d": int},
    "uniform-poly": {"gamma": float},
    "uniform-exp": {},
    "arls-poly": {"gamma": float},
    "arls-exp": {"c": float},
    "monte-carlo": {},
}


def theoretical_rate_curve(
    curve: str,
    m_values,
    *,
    s: int | None = None,
    d: int | None = None,
    gamma: float | None = None,
    c: float | None = None,
    constant: float = 1.0,
) -> RatePrediction:
    """Predicted worst-case-error curve, up to the caller's multiplicative
    constant (intended for figure overlays, not acceptance thresholds).

    sobolev:      log(m)^(s/d) / m^(s/d)
    uniform-poly: log(m)^(1-gamma/2) / m^(1-gamma/2)
    uniform-exp:  log(m) / m
    arls-poly:    log(m)^(1/(2 gamma)) / m^(1/(2 gamma))
    arls-exp:     m^(1/4) / exp(sqrt(m) / c)
    monte-carlo:  m^(-1/2)

    with gamma in (0, 1] (as in ``DecayModel``), c > 0 finite, s, d >= 1.
    """
    m = np.asarray(m_values, dtype=np.float64).ravel()
    if np.any(m < 2):
        raise InputError("m values must be >= 2")
    if curve in ("uniform-poly", "arls-poly") and not (gamma is not None and 0 < gamma <= 1):
        raise InputError(f"{curve} curve needs gamma in (0, 1], got {gamma}")
    if curve == "sobolev":
        if s is None or d is None or not (s >= 1 and d >= 1):
            raise InputError(f"sobolev curve needs s >= 1 and d >= 1, got s={s}, d={d}")
        expo = s / d
        pred = np.log(m) ** expo / m**expo
        label = f"sobolev(s={s},d={d})"
    elif curve == "uniform-poly":
        expo = 1.0 - gamma / 2.0
        pred = np.log(m) ** expo / m**expo
        label = f"uniform-poly(gamma={gamma})"
    elif curve == "uniform-exp":
        pred = np.log(m) / m
        label = "uniform-exp"
    elif curve == "arls-poly":
        expo = 1.0 / (2.0 * gamma)
        pred = np.log(m) ** expo / m**expo
        label = f"arls-poly(gamma={gamma})"
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
    return RatePrediction(m_values=m, predicted_error=constant * pred, label=label)


def rate_slope(m_values, errors) -> tuple[float, float, float]:
    """Ordinary least squares of log(error) on log(m): (slope, intercept, r^2).

    Constant errors give slope 0 with r^2 reported as 0 by convention.
    """
    m = np.asarray(m_values, dtype=np.float64).ravel()
    e = np.asarray(errors, dtype=np.float64).ravel()
    if m.size != e.size or m.size < 3:
        raise InputError("need at least 3 (m, error) pairs")
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


def fit_decay_model(spectrum, kind: str) -> DecayModel:
    """Diagnostic decay fit from an empirical spectrum.

    Least squares on (log i, log sigma_i) for the polynomial kind, or
    (i, log sigma_i) for the exponential kind, over the top half of the
    eigenvalues above 1e-12 * sigma_1.  The amplitude is then inflated so the
    fitted envelope dominates the used range.
    """
    sig = np.sort(np.asarray(spectrum, dtype=np.float64).ravel())[::-1]
    if sig.size == 0 or sig[0] <= 0:
        raise InputError("spectrum must contain a positive leading eigenvalue")
    kept = sig[sig > 1e-12 * sig[0]]
    top = kept[: max(2, kept.size // 2)]
    idx = np.arange(1, top.size + 1, dtype=np.float64)
    logs = np.log(top)
    if kind == "polynomial":
        x = np.log(idx)
        slope = float(np.polyfit(x, logs, 1)[0])
        gamma = min(1.0, max(1e-6, -1.0 / min(slope, -1e-6)))
        amplitude = float(np.max(top * idx ** (1.0 / gamma)))
        return DecayModel(kind="polynomial", rate=gamma, amplitude=amplitude)
    if kind == "exponential":
        slope = float(np.polyfit(idx, logs, 1)[0])
        beta = max(1e-6, -slope)
        amplitude = float(np.max(top * np.exp(beta * idx)))
        return DecayModel(kind="exponential", rate=beta, amplitude=amplitude)
    raise InputError(f"unknown decay kind {kind!r}")
