"""Shared quadrature/summation backend.

All weighted integrals are of the form

    integral of  phi(x) * p(x)^a * q(x)^b * factor(ln p(x), ln q(x))  d(reference)

with the exponents combined in the log domain before exponentiation, which
avoids spurious overflow when phi grows while the densities decay.
Continuous 1-D families go through adaptive quadrature on the (possibly
infinite) support, split at the density location parameters; discrete
families are summed exactly (Poisson tails truncated below 1e-16).  The
log-densities are the models' own `logpdf` and the log-weights the
weights' `log_value`; nothing here dispatches on the family to evaluate
them.

`factor(lp, lq)` is an optional callable of the two log-densities, not of
x: floats at quadrature nodes, arrays on summation grids.  Every factor in
the package has this form: ln p/q is `lp - lq`, a centred square
`(lq - lp - kl) ** 2`, the log-ratio of two points of the Chernoff arc
`(alpha - beta) * (lp - lq) + shift`.  Where the weighted density vanishes
or the factor is not finite, the integrand is 0.

`shift` is a constant subtracted from ln(phi p^a q^b) before it is
exponentiated, so the integral comes back divided by e^shift.  With
shift = ln rho(alpha) the integrand is the normalised tilted density
(pq)_alpha, and a mean under it stays O(1) where rho itself leaves the
range of a double; the default 0 is the plain integral.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .errors import ConvergenceError, UnsupportedCombinationError
from .models import (
    Categorical,
    Cauchy,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    poisson_truncation,
    tilt_gamma,
)

QUAD_EPSABS = 1e-12
QUAD_EPSREL = 1e-10


def check_scalar(*models):
    if any(isinstance(m, Gaussian) and m.dim != 1 for m in models):
        raise UnsupportedCombinationError("vectorised log-density needs dim 1")


def logpdf_vec(model, x):
    """Log-density of a 1-D family at the points x, -inf off the half-line."""
    check_scalar(model)
    x = np.asarray(x, dtype=float)
    out = model.logpdf(x)
    return np.where(x >= 0.0, out, -np.inf) if model.support == "halfline" else out


def discrete_grid(model_p, model_q, weight=None, a=1.0, b=0.0):
    """Support points for exact summation of phi p^a q^b over a discrete pair.

    A Poisson summand with a + b = 1 follows the Poisson law of the tilted
    mean e^g lam_p^a lam_q^b, at most e^max(g,0) max(lam) for a, b in [0, 1].
    """
    if isinstance(model_p, Categorical):
        return np.arange(model_p.size)
    gamma = weight.scalar if isinstance(weight, ExpTiltWeight) else 0.0
    size = max(math.exp(max(gamma, 0.0)) * max(model_p.lam, model_q.lam),
               math.exp(gamma) * model_p.lam ** a * model_q.lam ** b)
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


def log_summands(model_p, model_q, weight, a, b):
    """(ln p, ln q, ln phi p^a q^b) on the summation grid of a discrete pair."""
    k = discrete_grid(model_p, model_q, weight, a, b)
    lp, lq = logpdf_vec(model_p, k), logpdf_vec(model_q, k)
    with np.errstate(invalid="ignore"):
        logs = weight.log_value(k) + a * lp + b * lq
    return lp, lq, np.where(np.isnan(logs), -np.inf, logs)  # 0 * ln 0 style corners


def weighted_power_integral(model_p, model_q, weight, a, b, factor=None, shift=0.0):
    """integral phi * p^a * q^b * factor(ln p, ln q) / e^shift over the common support.

    `factor` defaults to 1 and `shift` to 0 (see the module docstring for
    their contracts).
    Discrete supports are summed exactly; continuous supports use adaptive
    quadrature with absolute tolerance 1e-12 and relative tolerance 1e-10,
    and raise ConvergenceError when QUADPACK reports a failure (a divergent
    integral can come back finite with a small error estimate).  The pair
    must have passed `models.check_models`.
    """
    support = model_p.support

    if support in ("nonneg_int", "finite"):
        lp, lq, logs = log_summands(model_p, model_q, weight, a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            terms = np.exp(logs - shift)
            if factor is not None:
                f = factor(lp, lq)
                terms = np.where(terms == 0.0, 0.0, terms * np.where(np.isfinite(f), f, 0.0))
        total = float(np.sum(terms))
        if not math.isfinite(total):
            raise ConvergenceError("discrete weighted sum diverged")
        return total

    check_scalar(model_p, model_q)
    g = float(tilt_gamma(weight)[0])
    log_p, log_q = model_p.logpdf, model_q.logpdf
    exp, inf = math.exp, math.inf

    def integrand(x):
        lp, lq = log_p(x), log_q(x)
        v = exp(g * x + a * lp + b * lq - shift)
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
