"""Shared quadrature/summation backend.

All weighted integrals are of the form

    integral of  phi(x) * p(x)^a * q(x)^b * factor(ln p(x), ln q(x))  d(reference)

with the exponents combined in the log domain, where phi may grow while
the densities decay.  Discrete families are summed exactly (Poisson tails
truncated below 1e-16).  Continuous 1-D families are integrated by the
package's own adaptive 21-point Gauss-Kronrod rule (`_quadrature.quad`) on
the (possibly infinite) support, split into pieces where the integrand may
peak (`_edges`).  The log-densities are the models' own `logpdf` and the
log-weights the weights' `log_value`; nothing here dispatches on the
family to evaluate them.

`weighted_power_integral` returns the log-domain pair (ln I, mean): ln I
of I = integral phi p^a q^b, which is F(alpha) at a = alpha, b = 1 - alpha,
and the mean of `factor` under the normalised density phi p^a q^b / I,
which stays O(1) where I leaves the range of a double.  `factor(lp, lq)`
is an optional callable of the two log-densities, not of x, evaluated on
arrays: the quadrature nodes or the summation grid.  Every factor in the
package has this form: ln p/q is `lp - lq`, a centred square
`(lq - lp - kl) ** 2`, the log-ratio of two points of the Chernoff arc
`(alpha - beta) * (lp - lq) + shift`.  Where the weighted density vanishes
or the factor is not finite, the integrand is 0.

A sum gives ln I by `log_sum_exp`, and the mean over its terms scaled by
the largest.  Quadrature (layout in `_quadrature`) scales the integrand by
e^-m, m the largest log-integrand over the first pass's starting nodes, so
that the tolerance max(QUAD_EPSABS, QUAD_EPSREL * |total|) applies to a
peak-1 integrand; ln I = m + ln total.  The mean is a second integral, of
the integrand over that total, with absolute tolerance QUAD_EPSREL, which
is relative to the unit mass: a signed mean is 0 at the root of F', where
no tolerance relative to the mean itself can be met.  More than 200
intervals on one piece raises ConvergenceError, as does a non-finite
total or an error estimate above 1e-6 * max(1, |total|).

The integrator is bound to the module attribute `integrate` and read off
it at every call, `integrate.quad(...)`: `bench/tracer.py` counts those
calls (its `numeric.quad_calls`, one per mass integral and one per mean)
by swapping that attribute, so keep it one.
"""

from __future__ import annotations

import math

import numpy as np

from . import _quadrature as integrate
from .errors import ConvergenceError, UnsupportedCombinationError
from .models import (
    Categorical,
    Cauchy,
    ExpTiltWeight,
    Gaussian,
    log_sum_exp,
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


def _edges(model_p, model_q, g, a, b):
    """A continuous 1-D support cut at the locations, or at the mode of a Gaussian pair's
    bump phi p^a q^b, which a tilt or two narrow densities can put far from both means."""
    lo = 0.0 if model_p.support == "halfline" else -math.inf
    cuts = {m.mean[0] if isinstance(m, Gaussian) else m.location if isinstance(m, Cauchy)
            else 1.0 / m.rate for m in (model_p, model_q)}
    if isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian):
        hp, hq = a / model_p.cov[0, 0], b / model_q.cov[0, 0]
        if hp + hq > 0.0:
            cuts = {(hp * model_p.mean[0] + hq * model_q.mean[0] + g) / (hp + hq)}
    return [lo] + sorted(c for c in cuts if c > lo) + [math.inf]


def weighted_power_integral(model_p, model_q, weight, a, b, factor=None):
    """(ln I, mean) for I = integral phi p^a q^b over the common support.

    `mean` is integral phi p^a q^b factor(ln p, ln q) / I, or None without a
    factor (contracts in the module docstring).  ConvergenceError where the
    sum or quadrature diverges or does not converge, or a mean is asked of
    an I of 0 or inf.  The pair must have passed `models.check_models`.
    """
    if model_p.support in ("nonneg_int", "finite"):
        k = discrete_grid(model_p, model_q, weight, a, b)
        lp, lq = logpdf_vec(model_p, k), logpdf_vec(model_q, k)
        with np.errstate(invalid="ignore"):
            logs = weight.log_value(k) + a * lp + b * lq
        logs = np.where(np.isnan(logs), -np.inf, logs)  # 0 * ln 0 style corners
        log_i = log_sum_exp(logs)
        if factor is None:
            return log_i, None
        _check_mass(log_i)
        w = np.exp(logs - np.max(logs))
        return log_i, float(w @ _finite(factor(lp, lq)) / np.sum(w))

    check_scalar(model_p, model_q)
    g = float(tilt_gamma(weight)[0])
    log_p, log_q = model_p.logpdf, model_q.logpdf
    peak, fac = None, None

    def integrand(x, log_jac):
        nonlocal peak
        lp, lq = log_p(x), log_q(x)
        logs = g * x + a * lp + b * lq + log_jac
        if peak is None:  # the first pass's starting nodes; 0 where none is finite
            peak = float(np.nan_to_num(np.fmax.reduce(logs), posinf=0.0, neginf=0.0))
        v = np.exp(logs - peak)
        v = np.where(v > 0.0, v, 0.0)  # a nan from 0 * inf at an extreme node is 0
        return v if fac is None else v * _finite(fac(lp, lq))

    edges = _edges(model_p, model_q, g, a, b)
    total = _quad(integrand, edges, QUAD_EPSABS)
    log_i = peak + math.log(total) if total > 0.0 else -math.inf
    if factor is None:
        return log_i, None
    _check_mass(log_i)
    fac = factor
    return log_i, _quad(lambda x, log_jac: integrand(x, log_jac) / total, edges, QUAD_EPSREL)


def _finite(f):
    return np.where(np.isfinite(f), f, 0.0)


def _check_mass(log_i):
    if not math.isfinite(log_i):
        raise ConvergenceError(f"weighted integral is e^{log_i}; a mean under it is undefined")


def _quad(integrand, edges, epsabs):
    total, err = integrate.quad(integrand, edges, epsabs=epsabs, epsrel=QUAD_EPSREL, limit=200)
    if not math.isfinite(total):
        raise ConvergenceError("weighted quadrature diverged")
    if err > 1e-6 * max(1.0, abs(total)):
        raise ConvergenceError(
            f"quadrature did not converge (estimated error {err:.3e})", achieved=err
        )
    return total
