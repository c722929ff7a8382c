"""Hypothesis distributions and context weights.

Each model family carries a fixed reference measure: Lebesgue on R^d for
Gaussian, Lebesgue on [0, inf) for Exponential, Lebesgue on R for Cauchy,
counting measure for Poisson and Categorical.  Each family writes its
log-density once, as the unchecked `logpdf(x)` for a float or an array,
and `log_density` is that after a support check; each weight writes ln phi
once, as `log_value(x)`.  ln E_phi is read off the exponential-family
embedding where the model has one; the tilted density phi*p / E_phi(p) is
again a probability density whenever E_phi is finite.

All model and weight objects are immutable after construction and all
operations are pure given an explicit rng stream, so they are safe to share
across threads.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, field

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
    "TiltedDensity",
    "log_density",
    "weight_value",
    "weighted_normaliser",
    "log_weighted_normaliser",
    "sample",
    "rng_stream",
    "poisson_truncation",
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


class lazy_module:
    """Stands in for the module `name`; imports it at the first attribute read.

    Module top levels bind scipy submodules through this, so that importing
    wchernoff loads none that the caller never uses.
    `importlib.import_module` holds the module's import lock, so threads
    that reach the first use together all wait for one complete import;
    the module is kept only once that import has returned.
    """

    def __init__(self, name):
        self._name, self._module = name, None

    def __getattr__(self, attr):
        if self._module is None:
            self._module = importlib.import_module(self._name)
        return getattr(self._module, attr)


special = lazy_module("scipy.special")


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


def log_sum_exp(logs):
    """ln sum exp(logs), shifted by the largest term (scipy's takes ~100 us per call)."""
    top = float(np.max(logs))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(logs - top))))


def exp_or_raise(log_x, name):
    """e^log_x, or ConvergenceError naming `name` where that overflows a double."""
    try:
        return math.exp(log_x)
    except OverflowError as exc:
        raise ConvergenceError(f"{name} = e^{log_x:.6g} overflows a double") from exc


# ---------------------------------------------------------------------------
# Model families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gaussian:
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
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
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
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_log_det", 2.0 * float(np.sum(np.log(np.diag(chol)))))
        object.__setattr__(self, "_scalar", None if d > 1 else (
            float(mean[0]), -0.5 / float(cov[0, 0]), -0.5 * math.log(2.0 * math.pi * cov[0, 0])))

    def __eq__(self, other):
        return (isinstance(other, Gaussian)
                and np.array_equal(self.mean, other.mean)
                and np.array_equal(self.cov, other.cov))

    def __hash__(self):
        return hash((tuple(self.mean), self.cov.tobytes()))

    @property
    def dim(self):
        return self.mean.shape[0]

    def cov_inv(self):
        return np.linalg.inv(self.cov)

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

    lam: float

    support = "nonneg_int"

    def __post_init__(self):
        if not (float(self.lam) > 0.0):
            raise PreconditionError("poisson rate must be strictly positive")
        object.__setattr__(self, "lam", float(self.lam))

    def logpdf(self, k):
        """Unchecked ln mass at float or array points."""
        return -self.lam + k * math.log(self.lam) - special.gammaln(k + 1.0)

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
        if not (float(self.rate) > 0.0):
            raise PreconditionError("exponential rate must be strictly positive")
        object.__setattr__(self, "rate", float(self.rate))
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
        if not (float(self.scale) > 0.0):
            raise PreconditionError("cauchy scale must be strictly positive")
        object.__setattr__(self, "location", float(self.location))
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "_log_norm", -math.log(math.pi * self.scale))

    def logpdf(self, x):
        """Unchecked ln density at float or array points."""
        return self._log_norm - np.log1p(np.square((x - self.location) / self.scale))

    def log_density(self, x):
        return float(self.logpdf(float(x)))

    def sample(self, rng, count):
        return self.location + self.scale * rng.standard_cauchy(size=count)


@dataclass(frozen=True)
class Categorical:
    """Finite distribution over indices 0..K-1 (counting reference)."""

    probs: np.ndarray

    support = "finite"

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size < 1:
            raise PreconditionError("categorical probs must be a non-empty vector")
        if np.any(probs < 0.0):
            raise PreconditionError("categorical probabilities must be non-negative")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise PreconditionError("categorical probabilities must sum to 1 within 1e-12")
        object.__setattr__(self, "probs", probs)

    def __eq__(self, other):
        return isinstance(other, Categorical) and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash(self.probs.tobytes())

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


class _Weight:
    """Each weight writes ln phi once, as `log_value(x)`; phi is its exponential."""

    def value(self, x):
        return np.exp(self.log_value(x))


@dataclass(frozen=True)
class ConstWeight(_Weight):
    """phi == 1: the unweighted baseline."""

    kind = "const"

    def log_value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0


@dataclass(frozen=True)
class ExpTiltWeight(_Weight):
    """Exponential tilt phi(x) = exp(gamma^T x)."""

    gamma: np.ndarray

    kind = "exp_tilt"

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if g.ndim != 1:
            raise PreconditionError("exp_tilt gamma must be a scalar or vector")
        object.__setattr__(self, "gamma", g)

    def __eq__(self, other):
        return isinstance(other, ExpTiltWeight) and np.array_equal(self.gamma, other.gamma)

    def __hash__(self):
        return hash(self.gamma.tobytes())

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


@dataclass(frozen=True)
class TableWeight(_Weight):
    """Tabulated weight on a categorical support."""

    values: np.ndarray

    kind = "table"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise PreconditionError("table weight values must be a non-empty vector")
        if np.any(v < 0.0):
            raise PreconditionError("table weight values must be non-negative")
        if not np.any(v > 0.0):
            raise PreconditionError("table weight must have at least one positive entry")
        object.__setattr__(self, "values", v)

    def __eq__(self, other):
        return isinstance(other, TableWeight) and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())

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
            if isinstance(model, Exponential):
                return ["exp_tilt gamma must be scalar for exponential models"]
            if isinstance(model, (Poisson, Categorical)):
                return ["exp_tilt gamma must be scalar for discrete models"]
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


def log_weighted_normaliser(model, weight):
    """ln E_phi(model): the family's lnE at the model's natural parameter for
    Poisson, Exponential and 1-D Gaussian models, g'mu + g'Sigma g / 2 for
    other Gaussians, a log-domain sum over the categories.
    """
    check_models((model,), weight)
    if _is_const(weight):
        return 0.0
    if isinstance(model, Categorical):
        k = np.arange(model.size)
        return log_sum_exp(model.logpdf(k) + weight.log_value(k))
    embedded = embed_pair(model, model, weight)
    if embedded is not None:
        fam, theta, _ = embedded
        return fam.lnE(theta)
    g = weight.gamma  # a multivariate Gaussian: Cauchy admits only gamma = 0
    return float(g @ model.mean + 0.5 * g @ model.cov @ g)


def weighted_normaliser(model, weight):
    """E_phi(model) = exp(ln E_phi); ConvergenceError where it overflows a double."""
    return exp_or_raise(log_weighted_normaliser(model, weight), "E_phi")


@dataclass(frozen=True)
class TiltedDensity:
    """Normalised reweighted density phi * p / E_phi(p)."""

    base: object
    weight: object
    normaliser: float = None

    def __post_init__(self):
        if self.normaliser is None:
            object.__setattr__(self, "normaliser", weighted_normaliser(self.base, self.weight))
        if not (self.normaliser > 0.0 and math.isfinite(self.normaliser)):
            raise NonIntegrableWeightError("tilted density requires a finite positive normaliser")

    def log_density(self, x):
        lphi = self.weight.log_value(x)
        return float(lphi) + self.base.log_density(x) - math.log(self.normaliser)


# ---------------------------------------------------------------------------
# One-parameter exponential families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpFamily1D:
    """Natural 1-D exponential family with analytic weighted structure.

    All members are scalar callables of the natural parameter theta except
    `Ghat` (inverse of Fhat'), `Fstar`/`dFstar` (Legendre dual, functions
    of the dual coordinate y = F'(theta)) and `dlnEstar` (derivative of
    ln E_phi read in the dual coordinate).  `domain` is the open natural-
    parameter interval on which everything is finite; `F` and `dF` are
    finite on the whole unweighted natural domain.
    """

    name: str
    gamma: float
    domain: tuple
    F: callable = field(repr=False)
    dF: callable = field(repr=False)
    d2F: callable = field(repr=False)
    lnE: callable = field(repr=False)
    dlnE: callable = field(repr=False)
    dFhat: callable = field(repr=False)
    Ghat: callable = field(repr=False)
    Fstar: callable = field(repr=False)
    dFstar: callable = field(repr=False)
    theta_of_model: callable = field(repr=False)

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
        return self.F(theta) + self.lnE(theta)

    def E_phi(self, theta):
        return exp_or_raise(self.lnE(theta), "E_phi")

    def dlnEstar(self, theta_star):
        """d/dtheta* of ln E_phi(grad F*(theta*)) = (ln E_phi)'(theta) / F''(theta)."""
        theta = self.dFstar(theta_star)
        return self.dlnE(theta) / self.d2F(theta)


@functools.lru_cache(maxsize=256)
def poisson_family(gamma=0.0):
    """Poisson in natural form: theta = ln lambda, F(theta) = e^theta."""
    g = float(gamma)
    c = math.expm1(g)
    return ExpFamily1D(
        name="poisson",
        gamma=g,
        domain=(-math.inf, math.inf),
        F=lambda t: math.exp(t),
        dF=lambda t: math.exp(t),
        d2F=lambda t: math.exp(t),
        lnE=lambda t: c * math.exp(t),
        dlnE=lambda t: c * math.exp(t),
        dFhat=lambda t: math.exp(t + g),
        Ghat=lambda y: math.log(y) - g,
        Fstar=lambda y: y * math.log(y) - y,
        dFstar=lambda y: math.log(y),
        theta_of_model=lambda m: math.log(m.lam),
    )


@functools.lru_cache(maxsize=256)
def exponential_family(gamma=0.0):
    """Exponential in natural form: theta = -rate, F(theta) = -ln(-theta).

    The weighted domain is theta < min(0, -gamma): the rate must exceed
    gamma for E_phi = rate/(rate - gamma) to be finite.
    """
    g = float(gamma)
    hi = min(0.0, -g)
    return ExpFamily1D(
        name="exponential",
        gamma=g,
        domain=(-math.inf, hi),
        F=lambda t: -math.log(-t),
        dF=lambda t: -1.0 / t,
        d2F=lambda t: 1.0 / (t * t),
        lnE=lambda t: math.log(-t) - math.log(-t - g),
        dlnE=lambda t: 1.0 / t - 1.0 / (t + g),
        dFhat=lambda t: 1.0 / (-t - g),
        Ghat=lambda y: -g - 1.0 / y,
        Fstar=lambda y: -1.0 - math.log(y),
        dFstar=lambda y: -1.0 / y,
        theta_of_model=lambda m: -m.rate,
    )


@functools.lru_cache(maxsize=256)
def gaussian_mean_family(sigma2, gamma=0.0):
    """Gaussian mean family with fixed variance: theta = mu/sigma^2."""
    s2 = float(sigma2)
    if not (s2 > 0.0):
        raise PreconditionError("gaussian mean family needs a positive variance")
    g = float(gamma)
    return ExpFamily1D(
        name="gaussian_mean",
        gamma=g,
        domain=(-math.inf, math.inf),
        F=lambda t: 0.5 * s2 * t * t,
        dF=lambda t: s2 * t,
        d2F=lambda t: s2,
        lnE=lambda t: g * s2 * t + 0.5 * g * g * s2,
        dlnE=lambda t: g * s2,
        dFhat=lambda t: s2 * (t + g),
        Ghat=lambda y: y / s2 - g,
        Fstar=lambda y: y * y / (2.0 * s2),
        dFstar=lambda y: y / s2,
        theta_of_model=lambda m: float(m.mean[0]) / s2,
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


def model_from_json(obj):
    """Parse {"family": ...} per the external model schema."""
    if not isinstance(obj, dict) or "family" not in obj:
        raise PreconditionError("model JSON must be an object with a 'family' field")
    fam = obj["family"]
    try:
        if fam == "gaussian":
            return Gaussian(mean=np.asarray(obj["mean"], dtype=float),
                            cov=np.asarray(obj["cov"], dtype=float))
        if fam == "poisson":
            return Poisson(lam=float(obj["lambda"]))
        if fam == "exponential":
            return Exponential(rate=float(obj["rate"]))
        if fam == "cauchy":
            return Cauchy(location=float(obj["location"]), scale=float(obj["scale"]))
        if fam == "categorical":
            return Categorical(probs=np.asarray(obj["probs"], dtype=float))
    except KeyError as exc:
        raise PreconditionError(f"model JSON for family '{fam}' is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, PreconditionError):
            raise
        raise PreconditionError(f"model JSON for family '{fam}': {exc}") from exc
    raise PreconditionError(f"unknown model family '{fam}'")


def weight_from_json(obj):
    """Parse {"kind": ...} per the external weight schema."""
    if obj is None:
        return ConstWeight()
    if not isinstance(obj, dict) or "kind" not in obj:
        raise PreconditionError("weight JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    try:
        if kind == "const":
            return ConstWeight()
        if kind == "exp_tilt":
            return ExpTiltWeight(gamma=np.asarray(obj["gamma"], dtype=float))
        if kind == "table":
            return TableWeight(values=np.asarray(obj["values"], dtype=float))
    except KeyError as exc:
        raise PreconditionError(f"weight JSON for kind '{kind}' is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        if isinstance(exc, PreconditionError):
            raise
        raise PreconditionError(f"weight JSON for kind '{kind}': {exc}") from exc
    raise PreconditionError(f"unknown weight kind '{kind}'")


def model_to_json(model):
    if isinstance(model, Gaussian):
        return {"family": "gaussian", "mean": model.mean.tolist(), "cov": model.cov.tolist()}
    if isinstance(model, Poisson):
        return {"family": "poisson", "lambda": model.lam}
    if isinstance(model, Exponential):
        return {"family": "exponential", "rate": model.rate}
    if isinstance(model, Cauchy):
        return {"family": "cauchy", "location": model.location, "scale": model.scale}
    if isinstance(model, Categorical):
        return {"family": "categorical", "probs": model.probs.tolist()}
    raise PreconditionError(f"cannot serialise {type(model).__name__}")


def weight_to_json(weight):
    if isinstance(weight, ConstWeight):
        return {"kind": "const"}
    if isinstance(weight, ExpTiltWeight):
        return {"kind": "exp_tilt", "gamma": weight.gamma.tolist()}
    if isinstance(weight, TableWeight):
        return {"kind": "table", "values": weight.values.tolist()}
    raise PreconditionError(f"cannot serialise {type(weight).__name__}")
