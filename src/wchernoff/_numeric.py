"""Shared quadrature/summation backend.

All weighted integrals are of the form

    integral of  phi(x) * p(x)^a * q(x)^b * factor(ln p(x), ln q(x))  d(reference)

with the exponents combined in the log domain before exponentiation, which
avoids spurious overflow when phi grows while the densities decay.
Continuous 1-D families go through adaptive quadrature on the (possibly
infinite) support, split at the density location parameters; discrete
families are summed exactly (Poisson tails truncated below 1e-16).

`factor(lp, lq)` is an optional callable of the two log-densities, not of
x: floats at quadrature nodes, arrays on summation grids.  Every factor in
the package has this form: ln p/q is `lp - lq`, a centred square
`(lq - lp - kl) ** 2`, the log-ratio of two points of the Chernoff arc
`(alpha - beta) * (lp - lq) + shift`.  Where the weighted density vanishes
or the factor is not finite, the integrand is 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.special import gammaln, logsumexp

from .errors import ConvergenceError, UnsupportedCombinationError
from .models import (
    Categorical,
    Cauchy,
    ConstWeight,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    Poisson,
    TableWeight,
    poisson_truncation,
)

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10
# largest Poisson tilted mean summed term by term (bounds the grid's memory)
MAX_SUM_TERMS = 1_000_000


def common_support(model_p, model_q):
    sp, sq = model_p.support, model_q.support
    if sp != sq:
        raise UnsupportedCombinationError(
            f"models live on different sample spaces ({sp} vs {sq})"
        )
    if isinstance(model_p, Gaussian) and model_p.dim != getattr(model_q, "dim", 1):
        raise UnsupportedCombinationError("gaussian models have different dimensions")
    return sp


def _log_density_fn(model):
    """x -> ln density of `model` for a float or an array x, family resolved once.

    On the half-line the formula is only valid for x >= 0; the quadrature
    never leaves the support, and logpdf_vec masks the rest.
    """
    if isinstance(model, Gaussian):
        if model.dim != 1:
            raise UnsupportedCombinationError("vectorised log-density needs dim 1")
        m, v = float(model.mean[0]), float(model.cov[0, 0])
        c = math.log(2.0 * math.pi * v)
        return lambda x: -0.5 * (c + (x - m) * (x - m) / v)
    if isinstance(model, Exponential):
        rate = model.rate
        c = math.log(rate)
        return lambda x: c - rate * x
    if isinstance(model, Cauchy):
        loc, scale = model.location, model.scale
        c = -math.log(math.pi * scale)
        return lambda x: c - np.log1p(np.square((x - loc) / scale))
    if isinstance(model, Poisson):
        lam = model.lam
        c = math.log(lam)
        return lambda x: -lam + x * c - gammaln(x + 1.0)
    if isinstance(model, Categorical):
        with np.errstate(divide="ignore"):
            log_probs = np.log(model.probs)
        return lambda x: log_probs[x.astype(int)]
    raise UnsupportedCombinationError(f"no vectorised log-density for {type(model).__name__}")


def logpdf_vec(model, x):
    """Vectorised log-density for 1-D continuous / discrete families."""
    x = np.asarray(x, dtype=float)
    out = _log_density_fn(model)(x)
    if model.support == "halfline":
        out = np.where(x >= 0.0, out, -np.inf)
    return out


def log_weight_vec(weight, x):
    x = np.asarray(x, dtype=float)
    if isinstance(weight, ConstWeight):
        return np.zeros_like(x)
    if isinstance(weight, ExpTiltWeight):
        return weight.scalar * x
    if isinstance(weight, TableWeight):
        with np.errstate(divide="ignore"):
            return np.log(weight.values[x.astype(int)])
    raise UnsupportedCombinationError(f"unknown weight {type(weight).__name__}")


def discrete_grid(model_p, model_q, weight=None, a=1.0, b=0.0):
    """Support points for exact summation of phi p^a q^b over a discrete pair.

    A Poisson summand with a + b = 1 follows the Poisson law of the tilted
    mean e^g lam_p^a lam_q^b, at most e^max(g,0) max(lam) for a, b in [0, 1].
    """
    if isinstance(model_p, Categorical):
        if model_p.size != model_q.size:
            raise UnsupportedCombinationError("categorical supports differ in size")
        return np.arange(model_p.size)
    gamma = weight.scalar if isinstance(weight, ExpTiltWeight) else 0.0
    size = max(math.exp(max(gamma, 0.0)) * max(model_p.lam, model_q.lam),
               math.exp(gamma) * model_p.lam ** a * model_q.lam ** b)
    if size > MAX_SUM_TERMS:
        raise ConvergenceError(f"Poisson sum over a tilted mean of {size:.3e} is too long")
    return np.arange(poisson_truncation(size) + 1)


def _quad_points(model_p, model_q):
    pts = []
    for m in (model_p, model_q):
        if isinstance(m, Gaussian):
            pts.append(m.mean[0])
        elif isinstance(m, Cauchy):
            pts.append(m.location)
        elif isinstance(m, Exponential):
            pts.append(1.0 / m.rate)
    return sorted(set(pts))


def _log_summands(model_p, model_q, weight, a, b):
    """(ln p, ln q, ln phi p^a q^b) on the summation grid of a discrete pair."""
    k = discrete_grid(model_p, model_q, weight, a, b)
    lp, lq = logpdf_vec(model_p, k), logpdf_vec(model_q, k)
    with np.errstate(invalid="ignore"):
        logs = log_weight_vec(weight, k) + a * lp + b * lq
    return lp, lq, np.where(np.isnan(logs), -np.inf, logs)  # 0 * ln 0 style corners


def log_power_integral(model_p, model_q, weight, a, b):
    """ln of the integral of phi * p^a * q^b over the common support.

    Sums are taken in the log domain, which stays finite where the sum
    overflows: int q^11 p^-10 for Poisson(2) against Poisson(1) is e^2036.
    """
    if common_support(model_p, model_q) in ("nonneg_int", "finite"):
        return float(logsumexp(_log_summands(model_p, model_q, weight, a, b)[2]))
    val = weighted_power_integral(model_p, model_q, weight, a, b)
    return math.log(val) if val > 0.0 else -math.inf


def weighted_power_integral(model_p, model_q, weight, a, b, factor=None):
    """integral phi * p^a * q^b * factor(ln p, ln q) over the common support.

    `factor` defaults to 1 (see the module docstring for its contract).
    Discrete supports are summed exactly; continuous supports use adaptive
    quadrature with absolute tolerance 1e-12 and relative tolerance 1e-10,
    and raise ConvergenceError when QUADPACK reports a failure (a divergent
    integral can come back finite with a small error estimate).
    """
    support = common_support(model_p, model_q)

    if support in ("nonneg_int", "finite"):
        lp, lq, logs = _log_summands(model_p, model_q, weight, a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(logs)
            if factor is not None:
                f = factor(lp, lq)
                terms = np.where(terms == 0.0, 0.0, terms * np.where(np.isfinite(f), f, 0.0))
        total = float(np.sum(terms))
        if not math.isfinite(total):
            raise ConvergenceError("discrete weighted sum diverged")
        return total

    if not isinstance(weight, (ConstWeight, ExpTiltWeight)):
        raise UnsupportedCombinationError("continuous supports take const or exp_tilt weights")
    g = 0.0 if isinstance(weight, ConstWeight) else weight.scalar
    log_p, log_q = _log_density_fn(model_p), _log_density_fn(model_q)
    exp, inf = math.exp, math.inf

    def integrand(x):
        lp, lq = log_p(x), log_q(x)
        v = exp(g * x + a * lp + b * lq)
        if not v > 0.0:  # underflow, or nan from 0 * inf at an extreme node
            return 0.0
        if factor is None:
            return v
        f = factor(lp, lq)
        return v * f if -inf < f < inf else 0.0

    lo = 0.0 if support == "halfline" else -np.inf
    cuts = [p for p in _quad_points(model_p, model_q) if p > lo]
    edges = [lo] + cuts + [np.inf]
    total, err = 0.0, 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for left, right in zip(edges[:-1], edges[1:]):
                out = integrate.quad(integrand, left, right, full_output=1,
                                     epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)
                if len(out) > 3:
                    # QUADPACK's message (divergence, subdivision limit,
                    # roundoff) comes with an error estimate that can look small
                    reason = out[3].strip().splitlines()[0]
                    raise ConvergenceError(f"quadrature did not converge: {reason}")
                total += out[0]
                err += out[1]
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ConvergenceError("weighted quadrature diverged")
    if err > 1e-6 * max(1.0, abs(total)):
        raise ConvergenceError(
            f"quadrature did not converge (estimated error {err:.3e})", achieved=err
        )
    return total
