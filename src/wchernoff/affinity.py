"""Weighted Bhattacharyya affinities and weighted Chernoff information.

The central object is the log-affinity curve F(alpha) = ln of

    rho_w(alpha) = integral phi * p^alpha * q^(1-alpha) d(reference),

which is convex on [0, 1] with F(1) = ln E_phi(p) and F(0) = ln E_phi(q).
The weighted Chernoff information is -min F over [0, 1]; the minimiser is
the optimal skewing parameter alpha*.  Closed forms are used for
Gaussian/Poisson/Exponential pairs under constant or exponential-tilt
weights, read off the exponential-family embedding where the pair has one
(see `AffinityCurve`).  Everything else goes to the generic solver: Brent's
bracketed root-finder (scipy.optimize.brentq) on F', with the bracket and
the boundary cases taken just inside the endpoints of [0, 1], where F' is
finite even when the tilted mean of ln p/q at an endpoint is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import _numeric
from .errors import (
    ConvergenceError,
    PreconditionError,
    UnsupportedCombinationError,
)
from .models import (
    Cauchy,
    Gaussian,
    _is_const,
    check_models,
    embed_pair,
    exp_or_raise,
    log_sum_exp,
    tilt_gamma,
)

__all__ = [
    "AffinityCurve",
    "ChernoffResult",
    "rho_w",
    "weighted_bhattacharyya",
    "chernoff",
    "log_mean",
    "elliptic_k",
    "cauchy_kl",
    "cauchy_bhattacharyya_half",
    "INTERIOR",
    "AT_ZERO",
    "AT_ONE",
    "FLAT",
]

INTERIOR = "interior"
AT_ZERO = "at_zero"
AT_ONE = "at_one"
FLAT = "flat"

FLAT_TOL = 1e-12
# the generic solver works on [EDGE, 1 - EDGE]: a minimiser closer to an
# endpoint is reported at the endpoint or at the edge point, whichever has
# the lower F, so alpha* is exact to EDGE and D to about F'' EDGE^2
EDGE = 1e-6


def log_mean(a, b):
    """Logarithmic mean L(a, b) = (a - b)/(ln a - ln b), L(a, a) = a."""
    a, b = float(a), float(b)
    if a <= 0.0 or b <= 0.0:
        raise PreconditionError("log_mean requires strictly positive arguments")
    if a == b:
        return a
    d = math.log(a) - math.log(b)
    if abs(d) < 0.5:  # a - b is exact here, and ln a - ln b may round to 0
        d = math.log1p((a - b) / b)
    return (a - b) / d


def elliptic_k(m):
    """Complete elliptic integral K(m), parameterised by m = modulus^2.

    K(m) = integral_0^{pi/2} (1 - m sin^2 u)^{-1/2} du, computed as
    pi / (2 AGM(1, sqrt(1-m))).  Note the argument is m, not the modulus k
    of the K(k) convention.
    """
    m = float(m)
    if not (0.0 <= m < 1.0):
        raise PreconditionError("elliptic_k requires 0 <= m < 1")
    a, g = 1.0, math.sqrt(1.0 - m)
    # quadratic convergence: far fewer than 60 rounds reach 1 ulp, where
    # the iteration stalls, so stop on non-improvement as well
    for _ in range(60):
        if abs(a - g) <= 2.0 * np.finfo(float).eps * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return math.pi / (2.0 * a)


def cauchy_kl(p, q):
    """KL divergence between Cauchy laws (symmetric closed form)."""
    if not (isinstance(p, Cauchy) and isinstance(q, Cauchy)):
        raise PreconditionError("cauchy_kl requires two Cauchy models")
    dl = p.location - q.location
    return math.log(((p.scale + q.scale) ** 2 + dl * dl) / (4.0 * p.scale * q.scale))


def cauchy_bhattacharyya_half(p, q, weight=None):
    """rho_{1/2} for two Cauchy laws at phi == 1.

    Closed form 4 sqrt(s1 s2) / (pi sqrt((s1+s2)^2 + delta^2)) * K(m) with
    m = ((s1-s2)^2 + delta^2) / ((s1+s2)^2 + delta^2).  The Cauchy Chernoff
    information is -ln of this value (the maximiser sits at alpha = 1/2 by
    symmetry).  Non-constant weights break that symmetry and are rejected.
    """
    if not (isinstance(p, Cauchy) and isinstance(q, Cauchy)):
        raise PreconditionError("cauchy_bhattacharyya_half requires two Cauchy models")
    if weight is not None and not _is_const(weight):
        raise UnsupportedCombinationError(
            "cauchy closed form is only available for the constant weight"
        )
    delta2 = (p.location - q.location) ** 2
    s1, s2 = p.scale, q.scale
    denom2 = (s1 + s2) ** 2 + delta2
    m = ((s1 - s2) ** 2 + delta2) / denom2
    return 4.0 * math.sqrt(s1 * s2) / (math.pi * math.sqrt(denom2)) * elliptic_k(m)


# ---------------------------------------------------------------------------
# The affinity curve
# ---------------------------------------------------------------------------

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
SUMMATION = "summation"


class AffinityCurve:
    """alpha -> ln rho_w(alpha) with derivative access.

    The evaluation mode is chosen automatically: closed form for
    Gaussian/Poisson/Exponential pairs under const/exp-tilt weights, exact
    summation for discrete pairs, adaptive quadrature otherwise.  Pass
    `mode` to force the generic path (used for cross-validation).  The
    constructor rejects an inadmissible pair and weight (`check_models`).

    A pair inside one 1-D exponential family keeps its `embedding`
    (family, theta1, theta2) and reads F(a) = Fhat(theta_a) - a F(theta1) -
    (1-a) F(theta2) off it, +inf where theta_a = a theta1 + (1-a) theta2
    leaves the weighted domain.  Other Gaussian pairs use the tilted Gaussian.

    `rho` is the one place that exponentiates ln rho; `_log_rho` continues
    the curve past [0, 1] for the cumulants, +inf where the integral diverges.
    """

    def __init__(self, model_p, model_q, weight, mode=None):
        check_models((model_p, model_q), weight)
        self.model_p = model_p
        self.model_q = model_q
        self.weight = weight
        self.embedding = embed_pair(model_p, model_q, weight)
        self.mode = mode if mode is not None else self._auto_mode()

    def _auto_mode(self):
        p, q = self.model_p, self.model_q
        if self.embedding is not None or (isinstance(p, Gaussian) and isinstance(q, Gaussian)):
            return CLOSED_FORM
        if p.support in ("finite", "nonneg_int"):
            return SUMMATION
        return QUADRATURE

    # -- evaluation ---------------------------------------------------------

    def log_rho(self, alpha):
        val = self._log_rho(_check_alpha(alpha))
        if val == -math.inf:
            raise ConvergenceError("affinity evaluated to a non-positive value")
        return val

    def _log_rho(self, alpha):
        """ln rho at any real alpha: a log-domain sum on discrete supports."""
        if self.mode == CLOSED_FORM:
            return self._closed_log_rho(alpha)
        args = (self.model_p, self.model_q, self.weight, alpha, 1.0 - alpha)
        if self.model_p.support in ("finite", "nonneg_int"):
            return log_sum_exp(_numeric.log_summands(*args)[2])
        val = _numeric.weighted_power_integral(*args)
        return math.log(val) if val > 0.0 else -math.inf

    def rho(self, alpha):
        return exp_or_raise(self.log_rho(alpha), "rho")

    def bhattacharyya(self, alpha):
        return -self.log_rho(alpha)

    def derivative(self, alpha):
        """F'(alpha): the mean of ln(p/q) under the tilted density (pq)_alpha.

        The generic modes integrate against phi p^alpha q^(1-alpha) / rho(alpha)
        directly, so F' stays finite where rho(alpha) leaves the range of a double.
        """
        alpha = _check_alpha(alpha)
        if self.mode == CLOSED_FORM:
            return self._closed_derivative(alpha)
        return _numeric.weighted_power_integral(
            self.model_p, self.model_q, self.weight, alpha, 1.0 - alpha,
            factor=lambda lp, lq: lp - lq, shift=self.log_rho(alpha),
        )

    # -- closed forms -------------------------------------------------------

    def _closed_log_rho(self, alpha):
        if self.embedding is not None:
            fam, t1, t2 = self.embedding
            t = alpha * t1 + (1.0 - alpha) * t2
            if not fam.contains(t):
                return math.inf
            return fam.Fhat(t) - alpha * fam.F(t1) - (1.0 - alpha) * fam.F(t2)
        p, q = self.model_p, self.model_q
        if not 0.0 <= alpha <= 1.0 and np.linalg.eigvalsh(
                alpha * p.cov_inv() + (1.0 - alpha) * q.cov_inv())[0] <= 0.0:
            return math.inf  # past [0, 1] the tilted precision can be indefinite
        s1inv, s2inv, prec, sigma_a, mu_t = self._tilted_gaussian(alpha)
        _, logdet_a = np.linalg.slogdet(sigma_a)
        quad = (alpha * p.mean @ s1inv @ p.mean
                + (1.0 - alpha) * q.mean @ s2inv @ q.mean
                - mu_t @ prec @ mu_t)
        return float(0.5 * logdet_a - 0.5 * alpha * p._log_det
                     - 0.5 * (1.0 - alpha) * q._log_det - 0.5 * quad)

    def _closed_derivative(self, alpha):
        if self.embedding is not None:
            fam, t1, t2 = self.embedding
            t = alpha * t1 + (1.0 - alpha) * t2
            if not fam.contains(t):
                # F has a +inf pole past the upper end of the domain (no family
                # has a lower end): the slope takes the sign of d theta_alpha
                return math.copysign(math.inf, t1 - t2)
            return (t1 - t2) * fam.dFhat(t) - fam.F(t1) + fam.F(t2)
        # E[ln(p/q)] under the tilted gaussian N(mu_t, Sigma_a)
        p, q = self.model_p, self.model_q
        s1inv, s2inv, _, sigma_a, mu_t = self._tilted_gaussian(alpha)
        d1 = mu_t - p.mean
        d2 = mu_t - q.mean
        return float(0.5 * (q._log_det - p._log_det)
                     - 0.5 * (np.trace(s1inv @ sigma_a) + d1 @ s1inv @ d1)
                     + 0.5 * (np.trace(s2inv @ sigma_a) + d2 @ s2inv @ d2))

    def _tilted_gaussian(self, alpha):
        """Inverse covariances of p and q; precision, covariance and mean of (pq)_alpha."""
        p, q = self.model_p, self.model_q
        s1inv, s2inv = p.cov_inv(), q.cov_inv()
        prec = alpha * s1inv + (1.0 - alpha) * s2inv
        sigma_a = np.linalg.inv(prec)
        g = tilt_gamma(self.weight, p.dim)
        mu_t = sigma_a @ (alpha * s1inv @ p.mean + (1.0 - alpha) * s2inv @ q.mean + g)
        return s1inv, s2inv, prec, sigma_a, mu_t


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise PreconditionError("alpha must lie in [0, 1]")
    return alpha


def rho_w(model_p, model_q, weight, alpha, mode=None):
    """Weighted alpha-skewed Bhattacharyya affinity coefficient."""
    return AffinityCurve(model_p, model_q, weight, mode=mode).rho(alpha)


def weighted_bhattacharyya(model_p, model_q, weight, alpha, mode=None):
    """-ln rho_w; may be negative for non-constant weights."""
    return AffinityCurve(model_p, model_q, weight, mode=mode).bhattacharyya(alpha)


# ---------------------------------------------------------------------------
# Chernoff optimisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernoffResult:
    alpha_star: float
    d_c_w: float
    boundary: str
    iterations: int
    residual: float

    def to_dict(self):
        return {
            "alpha_star": self.alpha_star,
            "d_c_w": self.d_c_w,
            "boundary": self.boundary,
            "iterations": self.iterations,
            "residual": self.residual,
        }


def _closed_alpha_tilde(curve):
    """Unconstrained critical point of F, when a closed form exists.

    In a 1-D family F' = 0 where Fhat'(theta_alpha) is the chord slope y of F.
    """
    if curve.embedding is not None:
        fam, t1, t2 = curve.embedding
        if t1 == t2:
            return None
        y = (fam.F(t1) - fam.F(t2)) / (t1 - t2)
        return (fam.Ghat(y) - t2) / (t1 - t2)
    p, q, w = curve.model_p, curve.model_q, curve.weight
    if isinstance(p, Gaussian) and isinstance(q, Gaussian):
        if not np.allclose(p.cov, q.cov, rtol=1e-12, atol=1e-14):
            return None
        delta = p.mean - q.mean
        norm2 = float(delta @ p.cov_inv() @ delta)
        if norm2 == 0.0:
            return None
        return 0.5 - float(tilt_gamma(w, p.dim) @ delta) / norm2
    if isinstance(p, Cauchy) and isinstance(q, Cauchy) and _is_const(w):
        if p == q:
            return None
        return 0.5
    return None


def chernoff(model_p, model_q, weight, solver="auto", mode=None):
    """Maximise the weighted Bhattacharyya distance over alpha in [0, 1].

    `solver="auto"` uses the closed-form critical point when available
    (projected onto [0, 1]); `solver="generic"` forces the bracketed
    root-finder on the derivative of the log-affinity, which decides the
    boundary cases from values and slopes just inside [0, 1] rather than
    from the sign of an endpoint derivative.  The curve evaluation `mode`
    is independent of the solver choice.
    """
    curve = AffinityCurve(model_p, model_q, weight, mode=mode)
    f0 = curve.log_rho(0.0)
    f1 = curve.log_rho(1.0)
    # +inf endpoints (weight integrable against only one hypothesis) are
    # harmless for a minimiser of F; -inf or nan endpoints are not.
    for f in (f0, f1):
        if math.isnan(f) or f == -math.inf:
            raise PreconditionError("log-affinity is not finite at the endpoints")
    fh = curve.log_rho(0.5)
    if (math.isfinite(f0) and math.isfinite(f1)
            and abs(f0 - fh) < FLAT_TOL and abs(f1 - fh) < FLAT_TOL):
        return ChernoffResult(0.5, -fh, FLAT, 0, 0.0)

    if solver == "auto":
        tilde = _closed_alpha_tilde(curve)
        if tilde is not None:
            alpha = min(1.0, max(0.0, tilde))
            boundary = INTERIOR if 0.0 < alpha < 1.0 else (AT_ZERO if alpha == 0.0 else AT_ONE)
            residual = abs(curve.derivative(alpha)) if boundary == INTERIOR else 0.0
            return ChernoffResult(alpha, -curve.log_rho(alpha), boundary, 0, residual)
    elif solver != "generic":
        raise PreconditionError(f"unknown solver '{solver}'")
    return _root_find(curve, f0, f1)


def _root_find(curve, f0, f1):
    """Minimise the convex F by Brent's method on its increasing derivative.

    F' is only evaluated inside [EDGE, 1 - EDGE].  At an endpoint the
    tilted mean of ln p/q can be infinite (N(0,1) against Cauchy at
    alpha = 0), and quadrature then returns a finite value of either sign.
    """
    slopes = {}

    def slope(alpha):  # brentq re-evaluates the bracket ends and the root
        if alpha not in slopes:
            slopes[alpha] = curve.derivative(alpha)
        return slopes[alpha]

    lo, hi = EDGE, 1.0 - EDGE
    if slope(lo) >= 0.0:
        return _near_end(curve, 0.0, f0, lo, slope(lo))
    if slope(hi) <= 0.0:
        return _near_end(curve, 1.0, f1, hi, slope(hi))
    alpha, info = optimize.brentq(slope, lo, hi, full_output=True, disp=False)
    if not info.converged:
        raise ConvergenceError(f"root-finder on F' did not converge: {info.flag}")
    return ChernoffResult(alpha, -curve.log_rho(alpha), INTERIOR, info.iterations,
                          abs(slope(alpha)))


def _near_end(curve, end, f_end, inner, d_inner):
    """The minimum lies between `end` and `inner`: report the lower of the two."""
    f_inner = curve.log_rho(inner)
    if f_end <= f_inner:
        return ChernoffResult(end, -f_end, AT_ZERO if end == 0.0 else AT_ONE, 0, 0.0)
    return ChernoffResult(inner, -f_inner, INTERIOR, 0, abs(d_inner))
