"""Hypothesis distributions and context weights.

Each model family carries a fixed reference measure: Lebesgue on R^d for
Gaussian, Lebesgue on [0, inf) for Exponential, Lebesgue on R for Cauchy,
counting measure for Poisson and Categorical.  Each family writes its
log-density once, as the unchecked `logpdf(x)` for a float or an array,
and `log_density` is that after a support check; each weight writes ln phi
once, as `log_value(x)`.  The weighted normaliser ln E_phi and the tilted
density phi*p / E_phi(p) live in `affinity`: ln E_phi is F(1) of a
model's affinity curve against itself.

The constructor declares the JSON form: a model is {"family": its class
name in lower case} and a weight {"kind": its `kind`}, plus each
constructor argument by name (Poisson's `lam` as "lambda"); other keys are
ignored.  Every parameter must be finite, and an Exponential rate and each squared
Cholesky pivot of a Gaussian covariance at least sys.float_info.min (PreconditionError).

All model and weight objects are immutable after construction and all
operations are pure given an explicit rng stream, so they are safe to share
across threads.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConvergenceError,
    NonIntegrableWeightError,
    OutsideSupportError,
    PreconditionError,
    UnsupportedCombinationError,
)

__all__ = [
    "Gaussian",
    "Poisson",
    "Exponential",
    "Cauchy",
    "Categorical",
    "ConstWeight",
    "ExpTiltWeight",
    "TableWeight",
    "log_density",
    "weight_value",
    "sample",
    "rng_stream",
    "poisson_truncation",
    "log_factorial",
    "check_models",
    "model_from_json",
    "weight_from_json",
    "model_to_json",
    "weight_to_json",
    "validate_combination",
]

_MAX_GAUSSIAN_DIM = 64
# largest Poisson tilted mean summed term by term (bounds the grid's memory)
MAX_SUM_TERMS = 1_000_000


def rng_stream(seed, *key):
    """Deterministic generator keyed by (seed, *key).

    Splittable streams: distinct keys give statistically independent
    streams, so parallel simulation chunks are reproducible regardless of
    execution order.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key)))


def poisson_truncation(max_mean):
    """Summation cutoff K for Poisson-type tails.

    sum_{k>K} Poi(m, k) < 1e-16 for every mean m <= max_mean with this
    choice, so truncated sums are exact at double precision.  A mean above
    MAX_SUM_TERMS raises ConvergenceError.
    """
    if max_mean > MAX_SUM_TERMS:
        raise ConvergenceError(f"Poisson sum over a tilted mean of {max_mean:.3e} is too long")
    m = max(float(max_mean), 1.0)
    return int(math.ceil(m + 12.0 * math.sqrt(m) + 30.0))


def _stirling(x):
    """ln Gamma(x) by Stirling's series to its x^-7 term; the next is < 1e-19 from x = 65 on."""
    r = 1.0 / (x * x)
    series = (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r / 1680.0))) / x
    return (x - 0.5) * np.log(x) - x + 0.5 * math.log(2.0 * math.pi) + series


# ln k! for k < 1024: math.lgamma below 64, Stirling's series from 64 on
_LOG_FACTORIALS = np.concatenate([[math.lgamma(k + 1.0) for k in range(64)],
                                  _stirling(np.arange(65.0, 1025.0))])


def log_factorial(k):
    """ln k! at a non-negative integer-valued float or array: the table below 1024, then
    Stirling's series for ln Gamma(k + 1)."""
    k = np.asarray(k, dtype=float)
    out = _LOG_FACTORIALS.take(k.astype(np.intp), mode="clip")
    if k.max(initial=0.0) < _LOG_FACTORIALS.size:
        return out
    return np.where(k < _LOG_FACTORIALS.size, out, _stirling(k + 1.0))


def log_sum_exp(logs):
    """ln sum exp(logs), shifted by the largest term."""
    top = float(np.max(logs))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(logs - top))))


def _finite(x, what):
    """x, or PreconditionError naming `what` where an entry of it is not finite."""
    if not np.isfinite(x).all():
        raise PreconditionError(f"{what} must be finite")
    return x


class _ByValue:
    """Equality and hash over the compare fields, an array field by its shape and entries."""

    def _key(self):
        return tuple((v.shape, *v.flat) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self) if f.compare))

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self), self._key()))


def exp_or_raise(log_x, name):
    """e^log_x, or ConvergenceError naming `name` where that overflows a double."""
    try:
        return math.exp(log_x)
    except OverflowError as exc:
        raise ConvergenceError(f"{name} = e^{log_x:.6g} overflows a double") from exc


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Gaussian(_ByValue):
    """Multivariate normal N(mean, cov) on R^d (Lebesgue reference)."""

    mean: np.ndarray
    cov: np.ndarray
    # cached Cholesky factor and log-determinant, set in __post_init__, and
    # (mean, -1/(2 variance), -ln(2 pi variance)/2) as floats in dimension 1
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _log_det: float = field(init=False, repr=False, compare=False)
    _scalar: tuple = field(init=False, repr=False, compare=False)

    support = "real"

    def __post_init__(self):
        mean = np.atleast_1d(_finite(np.asarray(self.mean, dtype=float), "gaussian mean"))
        cov = np.atleast_2d(_finite(np.asarray(self.cov, dtype=float), "gaussian covariance"))
        if mean.ndim != 1:
            raise PreconditionError("gaussian mean must be a vector")
        d = mean.shape[0]
        if d > _MAX_GAUSSIAN_DIM:
            raise PreconditionError(f"gaussian dimension {d} exceeds limit {_MAX_GAUSSIAN_DIM}")
        if cov.shape != (d, d):
            raise PreconditionError("gaussian covariance shape does not match mean")
        if not np.allclose(cov, cov.T, rtol=1e-10, atol=1e-12):
            raise PreconditionError("gaussian covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise PreconditionError("gaussian covariance must be positive definite") from exc
        if float(np.diag(chol).min()) ** 2 < sys.float_info.min:
            raise PreconditionError(
                f"gaussian covariance has a squared Cholesky pivot below {sys.float_info.min}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_log_det", 2.0 * float(np.sum(np.log(np.diag(chol)))))
        object.__setattr__(self, "_scalar", None if d > 1 else (
            float(mean[0]), -0.5 / float(cov[0, 0]), -0.5 * math.log(2.0 * math.pi * cov[0, 0])))

    @property
    def dim(self):
        return self.mean.shape[0]

    def logpdf(self, x):
        """Unchecked ln density at float or array points (dim 1) or at one point."""
        s = self._scalar  # one attribute read: this runs at every quadrature pass
        if s is None:
            z = np.linalg.solve(self._chol, x - self.mean)
            return -0.5 * (self.dim * math.log(2.0 * math.pi) + self._log_det + z @ z)
        m, h, c = s
        return c + h * (x - m) * (x - m)

    def log_density(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != self.mean.shape:
            raise OutsideSupportError("gaussian sample point has wrong dimension")
        return float(self.logpdf(x[0] if self._scalar is not None else x))

    def sample(self, rng, count):
        z = rng.standard_normal((count, self.dim))
        out = self.mean + z @ self._chol.T
        return out[:, 0] if self.dim == 1 else out


@dataclass(frozen=True)
class Poisson:
    """Poisson(lam) on the non-negative integers (counting reference)."""

    lam: float = field(metadata={"json": "lambda"})

    support = "nonneg_int"

    def __post_init__(self):
        if not (float(self.lam) > 0.0):
            raise PreconditionError("poisson rate must be strictly positive")
        object.__setattr__(self, "lam", _finite(float(self.lam), "poisson rate"))

    def logpdf(self, k):
        """Unchecked ln mass at non-negative integer-valued float or array points."""
        return -self.lam + k * math.log(self.lam) - log_factorial(k)

    def log_density(self, k):
        kk = np.asarray(k)
        if np.any(kk < 0) or np.any(kk != np.floor(kk)):
            raise OutsideSupportError("poisson support is the non-negative integers")
        out = self.logpdf(kk.astype(float))
        return float(out) if np.ndim(k) == 0 else out

    def sample(self, rng, count):
        return rng.poisson(self.lam, size=count)


@dataclass(frozen=True)
class Exponential:
    """Exponential(rate) on [0, inf) (Lebesgue reference)."""

    rate: float
    _log_rate: float = field(init=False, repr=False, compare=False)

    support = "halfline"

    def __post_init__(self):
        if not (float(self.rate) >= sys.float_info.min):
            raise PreconditionError(f"exponential rate must be at least {sys.float_info.min}")
        object.__setattr__(self, "rate", _finite(float(self.rate), "exponential rate"))
        object.__setattr__(self, "_log_rate", math.log(self.rate))

    def logpdf(self, x):
        """Unchecked ln density at float or array points, valid for x >= 0 only."""
        return self._log_rate - self.rate * x

    def log_density(self, x):
        xf = float(x)
        return self.logpdf(xf) if xf >= 0.0 else -math.inf

    def sample(self, rng, count):
        return rng.exponential(1.0 / self.rate, size=count)


@dataclass(frozen=True)
class Cauchy:
    """Cauchy(location, scale) on R (Lebesgue reference)."""

    location: float
    scale: float
    _log_norm: float = field(init=False, repr=False, compare=False)

    support = "real"
    dim = 1

    def __post_init__(self):
        object.__setattr__(self, "location", _finite(float(self.location), "cauchy location"))
        if not (float(self.scale) > 0.0):
            raise PreconditionError("cauchy scale must be strictly positive")
        object.__setattr__(self, "scale", _finite(float(self.scale), "cauchy scale"))
        object.__setattr__(self, "_log_norm", math.log(self.scale) - math.log(math.pi))

    def logpdf(self, x):
        """Unchecked ln density at float or array points: ln s/(pi (s^2 + (x - l)^2)), with
        s^2 + (x - l)^2 taken as hypot(s, x - l)^2, which no square overflows."""
        return self._log_norm - 2.0 * np.log(np.hypot(self.scale, x - self.location))

    def log_density(self, x):
        return float(self.logpdf(float(x)))

    def sample(self, rng, count):
        return self.location + self.scale * rng.standard_cauchy(size=count)


@dataclass(frozen=True, eq=False)
class Categorical(_ByValue):
    """Finite distribution over indices 0..K-1 (counting reference)."""

    probs: np.ndarray

    support = "finite"

    def __post_init__(self):
        probs = _finite(np.asarray(self.probs, dtype=float), "categorical probabilities")
        if probs.ndim != 1 or probs.size < 1:
            raise PreconditionError("categorical probs must be a non-empty vector")
        if np.any(probs < 0.0):
            raise PreconditionError("categorical probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise PreconditionError("categorical probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "probs", probs)

    @property
    def size(self):
        return self.probs.shape[0]

    def logpdf(self, k):
        """Unchecked ln mass at integer-valued float or array points."""
        with np.errstate(divide="ignore"):
            return np.log(self.probs)[np.asarray(k).astype(int)]

    def log_density(self, k):
        kk = int(k)
        if kk != k or kk < 0 or kk >= self.size:
            raise OutsideSupportError("categorical index out of range")
        return float(self.logpdf(kk))

    def sample(self, rng, count):
        return rng.choice(self.size, size=count, p=self.probs)


# ---------------------------------------------------------------------------
# Context weights
# ---------------------------------------------------------------------------


class _Weight(_ByValue):
    """Each weight writes ln phi once, as `log_value(x)`; phi is its exponential."""

    def value(self, x):
        return np.exp(self.log_value(x))


@dataclass(frozen=True)
class ConstWeight(_Weight):
    """phi == 1: the unweighted baseline."""

    kind = "const"

    def log_value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0


@dataclass(frozen=True, eq=False)
class ExpTiltWeight(_Weight):
    """Exponential tilt phi(x) = exp(gamma^T x)."""

    gamma: np.ndarray

    kind = "exp_tilt"

    def __post_init__(self):
        g = np.atleast_1d(_finite(np.asarray(self.gamma, dtype=float), "exp_tilt gamma"))
        if g.ndim != 1:
            raise PreconditionError("exp_tilt gamma must be a scalar or vector")
        object.__setattr__(self, "gamma", g)

    @property
    def scalar(self):
        if self.gamma.shape[0] != 1:
            raise PreconditionError("exp_tilt gamma is not scalar")
        return float(self.gamma[0])

    def is_null(self):
        return bool(np.all(self.gamma == 0.0))

    def log_value(self, x):
        if self.gamma.shape[0] == 1:
            return float(self.gamma[0]) * np.asarray(x, dtype=float)
        x = np.asarray(x, dtype=float)
        return x @ self.gamma


@dataclass(frozen=True, eq=False)
class TableWeight(_Weight):
    """Tabulated weight on a categorical support."""

    values: np.ndarray

    kind = "table"

    def __post_init__(self):
        v = _finite(np.asarray(self.values, dtype=float), "table weight values")
        if v.ndim != 1 or v.size < 1:
            raise PreconditionError("table weight values must be a non-empty vector")
        if np.any(v < 0.0):
            raise PreconditionError("table weight values must be non-negative")
        if not np.any(v > 0.0):
            raise PreconditionError("table weight must have at least one positive entry")
        object.__setattr__(self, "values", v)

    def log_value(self, k):
        kk = np.asarray(k)
        if (kk < 0).any() or (kk >= self.values.size).any():
            raise PreconditionError("table weight index out of range")
        with np.errstate(divide="ignore"):
            out = np.log(self.values[kk.astype(int)])
        return float(out) if np.ndim(k) == 0 else out


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------


def log_density(model, x):
    """ln of the density/mass of `model` at `x` (-inf off support interior)."""
    return model.log_density(x)


def weight_value(weight, x):
    """phi(x) >= 0."""
    return weight.value(x)


def sample(model, rng, count):
    """`count` i.i.d. draws, deterministic given the generator state."""
    if count < 1:
        raise PreconditionError("sample count must be >= 1")
    return model.sample(rng, int(count))


def validate_combination(model, weight):
    """Why `weight` is inadmissible for `model`, as a list of diagnostics.

    Empty means every weighted normaliser of the model is finite and the
    weight can be read at its sample points.  `check_models` applies it to
    every model of a problem; nothing else decides admissibility.
    """
    if isinstance(weight, TableWeight):
        if not isinstance(model, Categorical):
            return ["table weights are only supported on categorical models"]
        if weight.values.size != model.size:
            return ["table weight length does not match categorical support size"]
    elif isinstance(weight, ExpTiltWeight):
        if weight.gamma.shape[0] != getattr(model, "dim", 1):
            if isinstance(model, Gaussian):
                return ["exp_tilt gamma dimension does not match gaussian dimension"]
            if isinstance(model, (Poisson, Categorical)):
                return ["exp_tilt gamma must be scalar for discrete models"]
            return [f"exp_tilt gamma must be scalar for {type(model).__name__.lower()} models"]
        if isinstance(model, Cauchy) and not weight.is_null():
            return ["exponential tilt is not integrable against Cauchy tails;"
                    " only gamma=0 is admissible"]
        if isinstance(model, Exponential) and weight.scalar >= model.rate:
            return [f"weight not integrable under rate {model.rate}: requires gamma < rate"]
    return []


def check_models(models, weight):
    """Raise unless (models, weight) is an admissible problem.

    The weight rules come first (NonIntegrableWeightError): the union of
    each model's `validate_combination`, except for an exponential pair,
    whose affinity integral needs alpha*rate_p + (1-alpha)*rate_q > gamma
    at the evaluated alpha only.  So gamma below the larger rate is
    admitted there (one endpoint of the curve diverges to +inf, which a
    minimiser over alpha tolerates) even though the single-model
    normaliser E_phi of the other model diverges.  Then the models must
    share one sample space, one dimension and one categorical size
    (UnsupportedCombinationError).
    """
    if (len(models) == 2 and all(isinstance(m, Exponential) for m in models)
            and isinstance(weight, ExpTiltWeight) and weight.gamma.shape[0] == 1):
        diags = [] if weight.scalar < max(m.rate for m in models) else [
            "weight not integrable under both hypotheses: requires gamma < max(rate)"]
    else:
        diags = list(dict.fromkeys(d for m in models for d in validate_combination(m, weight)))
    if diags:
        raise NonIntegrableWeightError("; ".join(diags))
    first = models[0]
    for m in models[1:]:
        if m.support != first.support:
            raise UnsupportedCombinationError(
                f"models live on different sample spaces ({first.support} vs {m.support})"
            )
        if getattr(m, "dim", 1) != getattr(first, "dim", 1):
            raise UnsupportedCombinationError("gaussian models have different dimensions")
        if getattr(m, "size", None) != getattr(first, "size", None):
            raise UnsupportedCombinationError("categorical supports differ in size")


def _is_const(weight):
    return isinstance(weight, ConstWeight) or (
        isinstance(weight, ExpTiltWeight) and weight.is_null()
    )


# ---------------------------------------------------------------------------
# One-parameter exponential families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpFamily1D:
    """Natural 1-D exponential family under the tilt phi(x) = e^(gamma x).

    The fields are the unweighted family: `F`, `dF` and `root_d2F` (the
    square root of F'', so that a product with it stays a double where F''
    alone does not) are scalar callables of the natural parameter theta,
    finite on the open interval `natural`; `Fstar` and `dFstar` (the inverse
    of `dF`) are its Legendre dual, functions of y = F'(theta).  Every weighted member reads F at
    theta + gamma: the tilted log-normaliser is Fhat(theta) = F(theta +
    gamma), ln E_phi = Fhat - F, and the weighted `domain` is where both
    theta and theta + gamma are natural.  `model_at(theta)` is the family's
    model of natural parameter theta.  S = x_1 + ... + x_n has log-normaliser
    n F: `draw_sum(model, n, rng, count)` draws it; where it lives on a lattice,
    `lattice(mean)` is S = 0..K, past which no law of mean <= `mean` keeps 1e-16
    of its mass, and `sum_logpmf(model, n, s)` is ln P(S = s); else both are None.
    """

    name: str
    gamma: float
    natural: tuple
    F: callable = field(repr=False)
    dF: callable = field(repr=False)
    root_d2F: callable = field(repr=False)
    Fstar: callable = field(repr=False)
    dFstar: callable = field(repr=False)
    theta_of_model: callable = field(repr=False)
    model_at: callable = field(repr=False)
    draw_sum: callable = field(repr=False)
    lattice: callable = field(default=None, repr=False)
    sum_logpmf: callable = field(default=None, repr=False)

    @functools.cached_property
    def domain(self):
        lo, hi = self.natural
        return max(lo, lo - self.gamma), min(hi, hi - self.gamma)

    def contains(self, theta):
        lo, hi = self.domain
        return lo < theta < hi

    def check_theta(self, theta):
        if not self.contains(theta):
            raise PreconditionError(
                f"theta {theta} outside the open domain {self.domain} of {self.name}"
            )
        return float(theta)

    def Fhat(self, theta):
        return self.F(theta + self.gamma)

    def dFhat(self, theta):
        return self.dF(theta + self.gamma)

    def Ghat(self, y):
        """The inverse of dFhat."""
        return self.dFstar(y) - self.gamma

    def lnE(self, theta):
        return self.F(theta + self.gamma) - self.F(theta)

    def dlnE(self, theta):
        return self.dF(theta + self.gamma) - self.dF(theta)

    def E_phi(self, theta):
        return exp_or_raise(self.lnE(theta), "E_phi")

    def alpha_tilde(self, theta1, theta2):
        """Critical point of the affinity curve of the members theta1 != theta2.

        Its slope is 0 where Fhat'(theta_alpha), theta_alpha = alpha theta1 +
        (1 - alpha) theta2, equals the chord slope y of F.
        """
        y = (self.F(theta1) - self.F(theta2)) / (theta1 - theta2)
        return (self.Ghat(y) - theta2) / (theta1 - theta2)


def _poisson_mean(theta):
    return exp_or_raise(theta, "the Poisson mean e^theta")


def _draw_poisson_sum(model, n, rng, count):
    try:
        return rng.poisson(n * model.lam, count)
    except ValueError as exc:  # numpy draws means up to about 9.2e18 only
        raise ConvergenceError(f"cannot draw S ~ Poi({n * model.lam:.6g}): {exc}") from exc


@functools.lru_cache(maxsize=256)
def poisson_family(gamma=0.0):
    """Poisson in natural form: theta = ln lambda, F(theta) = e^theta."""
    return ExpFamily1D(
        name="poisson",
        gamma=float(gamma),
        natural=(-math.inf, math.inf),
        F=_poisson_mean,
        dF=_poisson_mean,
        root_d2F=lambda t: math.exp(0.5 * t),  # overflows past t = 1419, where F has raised
        Fstar=lambda y: y * math.log(y) - y,
        dFstar=math.log,
        theta_of_model=lambda m: math.log(m.lam),
        # a mean e^theta below the least normal double is raised to it: either draws S = 0
        # but with a chance of about n e^-708
        model_at=lambda t: Poisson(max(_poisson_mean(t), sys.float_info.min)),
        draw_sum=_draw_poisson_sum,
        lattice=lambda mean: np.arange(poisson_truncation(mean) + 1.0),
        sum_logpmf=lambda m, n, s: s * math.log(n * m.lam) - n * m.lam - log_factorial(s),
    )


@functools.lru_cache(maxsize=256)
def exponential_family(gamma=0.0):
    """Exponential in natural form: theta = -rate, F(theta) = -ln(-theta).

    The weighted domain is theta < min(0, -gamma): the rate must exceed
    gamma for E_phi = rate/(rate - gamma) to be finite.
    """
    return ExpFamily1D(
        name="exponential",
        gamma=float(gamma),
        natural=(-math.inf, 0.0),
        F=lambda t: -math.log(-t),
        dF=lambda t: -1.0 / t,
        root_d2F=lambda t: -1.0 / t,
        Fstar=lambda y: -1.0 - math.log(y),
        dFstar=lambda y: -1.0 / y,
        theta_of_model=lambda m: -m.rate,
        model_at=lambda t: Exponential(-t),
        draw_sum=lambda m, n, rng, count: rng.gamma(n, 1.0 / m.rate, count),
    )


@functools.lru_cache(maxsize=256)
def gaussian_mean_family(sigma2, gamma=0.0):
    """Gaussian mean family with fixed variance: theta = mu/sigma^2."""
    s2 = float(sigma2)
    if not (s2 > 0.0):
        raise PreconditionError("gaussian mean family needs a positive variance")
    return ExpFamily1D(
        name="gaussian_mean",
        gamma=float(gamma),
        natural=(-math.inf, math.inf),
        F=lambda t: 0.5 * s2 * t * t,
        dF=lambda t: s2 * t,
        root_d2F=lambda t: math.sqrt(s2),
        Fstar=lambda y: y * y / (2.0 * s2),
        dFstar=lambda y: y / s2,
        theta_of_model=lambda m: float(m.mean[0]) / s2,
        model_at=lambda t: Gaussian([s2 * t], [[s2]]),
        draw_sum=lambda m, n, rng, k: rng.normal(n * m.mean[0], math.sqrt(n * m.cov[0, 0]), k),
    )


def tilt_gamma(weight, dim=1):
    """gamma of the weight phi(x) = exp(gamma.x) as a dim-vector.

    The constant weight is the tilt gamma = 0; any other weight, or a tilt
    of another dimension, has no such reading.
    """
    if isinstance(weight, ConstWeight):
        return np.zeros(dim)
    if isinstance(weight, ExpTiltWeight):
        if weight.gamma.shape[0] != dim:
            raise UnsupportedCombinationError(f"exp_tilt gamma must have dimension {dim} here")
        return weight.gamma
    raise UnsupportedCombinationError(
        f"{type(weight).__name__} is not a constant or exponential-tilt weight"
    )


def embed_pair(model_p, model_q, weight):
    """(family, theta1, theta2) for two members of one built-in family, else None.

    The families are Poisson, Exponential and the 1-D Gaussian with a
    shared variance; the weight must be a constant or a scalar exponential
    tilt (anything else raises).  The thetas are not checked against the
    weighted domain: an affinity curve only needs theta_alpha inside it,
    and a weighted KL D(p || q) only theta1.
    """
    if isinstance(model_p, Poisson) and isinstance(model_q, Poisson):
        fam = poisson_family(tilt_gamma(weight)[0])
    elif isinstance(model_p, Exponential) and isinstance(model_q, Exponential):
        fam = exponential_family(tilt_gamma(weight)[0])
    elif (isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian)
          and model_p.dim == model_q.dim == 1
          and math.isclose(model_p.cov[0, 0], model_q.cov[0, 0], rel_tol=1e-12)):
        fam = gaussian_mean_family(model_p.cov[0, 0], tilt_gamma(weight)[0])
    else:
        return None
    return fam, fam.theta_of_model(model_p), fam.theta_of_model(model_q)


def family_of_pair(model_p, model_q, weight):
    """Checked `embed_pair`: raises for any other pair and for a theta outside the domain."""
    embedded = embed_pair(model_p, model_q, weight)
    if embedded is None:
        raise UnsupportedCombinationError(
            "model pair is not two members of one built-in family (Poisson,"
            " Exponential, or 1-D Gaussian with a shared variance)"
        )
    fam, t1, t2 = embedded
    return fam, fam.check_theta(t1), fam.check_theta(t2)


# ---------------------------------------------------------------------------
# JSON schema (consumed by the CLI)
# ---------------------------------------------------------------------------


_MODELS = {c.__name__.lower(): c for c in (Gaussian, Poisson, Exponential, Cauchy, Categorical)}
_WEIGHTS = {c.kind: c for c in (ConstWeight, ExpTiltWeight, TableWeight)}


def _json_fields(cls):
    """(JSON key, field name) of each constructor argument of `cls`."""
    return [(f.metadata.get("json", f.name), f.name) for f in fields(cls) if f.init]


def _from_json(obj, what, tag, classes):
    """The object of `classes` named by obj[tag], built from the constructor's keys in obj."""
    if not isinstance(obj, dict) or tag not in obj:
        raise PreconditionError(f"{what} JSON must be an object with a '{tag}' field")
    name = obj[tag]
    cls = classes.get(name) if isinstance(name, str) else None
    if cls is None:
        raise PreconditionError(f"unknown {what} {tag} '{name}'")
    try:
        return cls(**{attr: obj[key] for key, attr in _json_fields(cls)})
    except KeyError as exc:
        raise PreconditionError(f"{what} JSON for {tag} '{name}' is missing field {exc}") from exc
    except PreconditionError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"{what} JSON for {tag} '{name}': {exc}") from exc


def _to_json(obj, tag, classes):
    """{tag: name, key: value, ...}: the inverse of `_from_json`."""
    name = next((n for n, c in classes.items() if type(obj) is c), None)
    if name is None:
        raise PreconditionError(f"cannot serialise {type(obj).__name__}")
    out = {tag: name}
    for key, attr in _json_fields(type(obj)):
        value = getattr(obj, attr)
        out[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def model_from_json(obj):
    """Parse {"family": ...} per the external model schema."""
    return _from_json(obj, "model", "family", _MODELS)


def weight_from_json(obj):
    """Parse {"kind": ...} per the external weight schema; None is the constant weight."""
    return ConstWeight() if obj is None else _from_json(obj, "weight", "kind", _WEIGHTS)


def model_to_json(model):
    return _to_json(model, "family", _MODELS)


def weight_to_json(weight):
    return _to_json(weight, "kind", _WEIGHTS)
