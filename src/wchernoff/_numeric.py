"""Shared quadrature/summation backend.

All weighted integrals are of the form

    integral of  phi(x) * p(x)^alpha * q(x)^(1 - alpha)  d(reference)

at any real alpha, with the exponents combined in the log domain, where
phi may grow while the densities decay.  Discrete families are summed
exactly (Poisson tails truncated below 1e-16).  Continuous 1-D families are integrated by the
package's own adaptive 21-point Gauss-Kronrod rule (`_quadrature.quad`) on
the (possibly infinite) support, split into pieces where the integrand may
peak (`_edges`).  The log-densities are the models' own `logpdf` and the
log-weights the weights' `log_value`; nothing here dispatches on the
family to evaluate them.

`weighted_power_integral` returns ln I = F(alpha).  With `moments=True` it
also returns the mean and the variance of d = ln p - ln q under the
normalised density, F'(alpha) and F''(alpha), which stay O(1) where I
leaves the range of a double.  Every other integral the package needs is
read off them (the arc KL, the weighted KL at alpha = 1, KL(Q||P) among
them, and the variance of ln q/p at alpha = 0).  Where the weighted
density vanishes or d is not finite, the integrand is 0: `log_bump` reads
0 ln 0 as -inf, the limit a -> 0+ of p^a at p = 0.
The moments come from the same pass as the mass: the stacked integrand
[v, v (d - d0), v (d - d0)^2], d0 the value of d at the peak node, so the
centred sums do not cancel.

The sum and the quadrature share that one integrand.  It scales v by
e^-m, m the largest log-integrand over its first call, so that ln I =
m + ln I_0.  A sum makes that one call, on the whole support grid, and
adds up the terms.  Quadrature (layout and tolerances in `_quadrature`)
makes the first call on its starting nodes, so its tolerance applies to
a peak-1 integrand; the tolerance of moment k is relative to the mass,
because the mean is 0 at the root of F', where no tolerance relative to
the mean itself can be met.  Both read a mass that overflows a double as
ln I = +inf, the integral diverging.  Any other non-finite total or error
estimate raises ConvergenceError, as do more than `_quadrature.LIMIT`
intervals on one piece: `quad` returns only when every error is within
its tolerance or some error is not finite.

The integrator is bound to the module attribute `integrate` and read off
it at every call, `integrate.quad(...)`: `bench/tracer.py` counts those
calls (its `numeric.quad_calls`, one per integral, moments included) by
swapping that attribute, so keep it one.
"""

from __future__ import annotations

import math

import numpy as np

from . import _quadrature as integrate
from .errors import ConvergenceError, UnsupportedCombinationError
from .models import (
    Categorical,
    Cauchy,
    Exponential,
    Gaussian,
    embed_pair,
    tilt_gamma,
)


def check_scalar(*models):
    if any(isinstance(m, Gaussian) and m.dim != 1 for m in models):
        raise UnsupportedCombinationError("vectorised log-density needs dim 1")


def logpdf_vec(model, x):
    """Log-density of a 1-D family at the points x: -inf below 0 on a half-line, and off
    the non-negative integers of a count support or off 0..K-1 of a finite one."""
    check_scalar(model)
    x = np.asarray(x, dtype=float)
    if model.support == "real":
        return model.logpdf(x)
    on = x >= 0.0
    if model.support != "halfline":
        on &= (x == np.floor(x)) & (x < getattr(model, "size", math.inf))
        x = np.where(on, x, 0.0)  # a categorical logpdf indexes its table by x
    return np.where(on, model.logpdf(x), -np.inf)


def log_bump(log_phi, alpha, log_p, log_q):
    """ln phi p^alpha q^(1 - alpha) from ln phi, ln p and ln q, reading 0 ln 0 as -inf:
    p^a -> 0 as a -> 0+ where p = 0, so a model with exponent 0 keeps its support."""
    return log_phi + _power(alpha, log_p) + _power(1.0 - alpha, log_q)


def _power(a, log_p):
    return a * log_p if a else np.where(log_p > -np.inf, 0.0, -np.inf)


def discrete_grid(model_p, model_q, weight, alpha=1.0):
    """Support points for exact summation of phi p^alpha q^(1 - alpha) over a discrete pair.

    A categorical pair sums over all its symbols, whatever the weight.  A Poisson pair is cut
    on its family's lattice at the largest member mean and at the bump's member
    alpha theta_p + (1 - alpha) theta_q + gamma, gamma the weight's tilt.
    """
    if isinstance(model_p, Categorical):
        return np.arange(model_p.size)
    fam, t_p, t_q = embed_pair(model_p, model_q, weight)
    return fam.lattice(max(fam.dF(max(t_p, t_q) + max(fam.gamma, 0.0)),
                           fam.dF(alpha * t_p + (1.0 - alpha) * t_q + fam.gamma)))


def _edges(model_p, model_q, g, alpha):
    """(edges, tail scale) of a continuous 1-D support: cut at the locations, or at a Gaussian
    pair's mode with tails at its sd 1/sqrt(hp + hq); an Exponential pair's is one tail from 0
    at scale 1/c, c = alpha rate_p + (1-alpha) rate_q - gamma > 0, far from 1/rate in a tilt."""
    lo = 0.0 if model_p.support == "halfline" else -math.inf
    cuts = {m.mean[0] if isinstance(m, Gaussian) else m.location if isinstance(m, Cauchy)
            else 1.0 / m.rate for m in (model_p, model_q)}
    if isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian):
        hp, hq = alpha / model_p.cov[0, 0], (1.0 - alpha) / model_q.cov[0, 0]
        if hp + hq > 0.0:
            mode = (hp * model_p.mean[0] + hq * model_q.mean[0] + g) / (hp + hq)
            return [-math.inf, mode, math.inf], 1.0 / math.sqrt(hp + hq)
    elif isinstance(model_p, Exponential):
        decay = alpha * model_p.rate + (1.0 - alpha) * model_q.rate - g
        if decay > 0.0:
            return [0.0, math.inf], 1.0 / decay
    return [lo] + sorted(c for c in cuts if c > lo) + [math.inf], 1.0


def weighted_power_integral(model_p, model_q, weight, alpha, moments=False):
    """(ln I,), or with `moments` (ln I, mean d, var d), of I = integral phi p^alpha q^(1-alpha).

    d = ln p - ln q, its moments under the normalised bump (contracts in the
    module docstring).  ln I = +inf where I overflows a double; ConvergenceError
    where the integral does not converge, or moments are asked of an I of 0
    or inf.  The pair must have passed `models.check_models`.
    """
    check_scalar(model_p, model_q)
    log_p, log_q, log_phi = model_p.logpdf, model_q.logpdf, weight.log_value
    peak = d0 = None

    def integrand(x, log_jac):
        nonlocal peak, d0
        lp, lq = log_p(x), log_q(x)
        logs = log_bump(log_phi(x), alpha, lp, lq) + log_jac
        if peak is None:  # the first pass's starting nodes; 0 where none is finite
            top = int(np.argmax(np.fmax(logs, -np.inf)))  # fmax reads a nan as -inf
            peak = float(logs[top]) if np.isfinite(logs[top]) else 0.0
            d0 = float(_finite(lp[top] - lq[top]))
        v = np.exp(logs - peak)
        v = np.where(v > 0.0, v, 0.0)  # a nan from 0 * inf at an extreme node is 0
        if not moments:
            return v
        dc = _finite(lp - lq) - d0
        vd = v * dc
        return np.array([v, vd, vd * dc])

    if model_p.support in ("nonneg_int", "finite"):
        k = discrete_grid(model_p, model_q, weight, alpha)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            total, err = np.reshape(integrand(k, 0.0), (-1, k.size)).sum(axis=1), 0.0
    else:
        g = float(tilt_gamma(weight)[0])
        total, err = integrate.quad(integrand, *_edges(model_p, model_q, g, alpha))
    if total[0] == math.inf:
        log_i = math.inf
    elif np.isfinite(total).all() and np.isfinite(err).all():
        log_i = peak + math.log(total[0]) if total[0] > 0.0 else -math.inf
    else:
        raise ConvergenceError("weighted integral or its error estimate is not finite")
    if not moments:
        return (log_i,)
    if not math.isfinite(log_i):
        raise ConvergenceError(f"weighted integral is e^{log_i}; moments under it are undefined")
    m = float(total[1] / total[0])
    return log_i, d0 + m, max(float(total[2] / total[0]) - m * m, 0.0)


def _finite(f):
    return np.where(np.isfinite(f), f, 0.0)
