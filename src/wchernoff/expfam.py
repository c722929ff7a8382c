"""Exponential-family view of the Chernoff arc.

One-parameter natural exponential families p_theta = exp{theta t(x) -
F(theta) + k(x)} with a context weight phi.  The tilted log-normaliser is
Fhat = F + ln E_phi(theta), and the weighted Bregman divergence

    B^w(theta1, theta2) = E_phi(theta2) [F(theta1) - F(theta2)
                                         - (theta1 - theta2) Fhat'(theta2)]

represents the weighted KL divergence inside the family.  The module also
hosts the numeric identity suite tying the affinity curve, the weighted
Bregman geometry and the Legendre dual together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _numeric
from .affinity import (
    INTERIOR,
    AffinityCurve,
    cauchy_kl,
    chernoff,
)
from .errors import PreconditionError, UnsupportedCombinationError
from .models import (
    Categorical,
    Cauchy,
    ConstWeight,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    Poisson,
    TableWeight,
    weighted_normaliser,
)

__all__ = [
    "ExpFamily1D",
    "ChernoffArc",
    "poisson_family",
    "exponential_family",
    "gaussian_mean_family",
    "family_of_pair",
    "weighted_kl",
    "weighted_bregman",
    "chernoff_arc_derivative",
    "verify_identities",
    "chernoff_efficiency",
]


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
    parameter interval on which everything is finite.
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
    model_of_theta: callable = field(repr=False)

    def check_theta(self, theta):
        lo, hi = self.domain
        if not (lo < theta < hi):
            raise PreconditionError(
                f"theta {theta} outside the open domain ({lo}, {hi}) of {self.name}"
            )
        return float(theta)

    def Fhat(self, theta):
        return self.F(theta) + self.lnE(theta)

    def E_phi(self, theta):
        return math.exp(self.lnE(theta))

    def dlnEstar(self, theta_star):
        """d/dtheta* of ln E_phi(grad F*(theta*)) = (ln E_phi)'(theta) / F''(theta)."""
        theta = self.dFstar(theta_star)
        return self.dlnE(theta) / self.d2F(theta)


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
        model_of_theta=lambda t: Poisson(lam=math.exp(t)),
    )


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
        model_of_theta=lambda t: Exponential(rate=-t),
    )


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
        model_of_theta=lambda t: Gaussian(mean=[s2 * t], cov=[[s2]]),
    )


def _weight_gamma(weight):
    if isinstance(weight, ConstWeight):
        return 0.0
    if isinstance(weight, ExpTiltWeight):
        if weight.gamma.shape[0] != 1:
            raise UnsupportedCombinationError("exp-tilt gamma must be scalar here")
        return weight.scalar
    raise UnsupportedCombinationError(
        f"{type(weight).__name__} has no exponential-family representation"
    )


def family_of_pair(model_p, model_q, weight):
    """Embed a model pair in a built-in family: (family, theta1, theta2).

    Raises when the pair is not two members of the same built-in
    one-parameter family (Poisson, Exponential, or 1-D Gaussian with a
    shared variance).
    """
    g = _weight_gamma(weight)
    if isinstance(model_p, Poisson) and isinstance(model_q, Poisson):
        fam = poisson_family(g)
    elif isinstance(model_p, Exponential) and isinstance(model_q, Exponential):
        fam = exponential_family(g)
    elif isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian):
        if model_p.dim != 1 or model_q.dim != 1:
            raise UnsupportedCombinationError("only 1-D gaussians embed in the mean family")
        v1, v2 = model_p.cov[0, 0], model_q.cov[0, 0]
        if not math.isclose(v1, v2, rel_tol=1e-12):
            raise UnsupportedCombinationError("gaussian mean family needs a shared variance")
        fam = gaussian_mean_family(v1, g)
    else:
        raise UnsupportedCombinationError(
            "model pair is not covered by a built-in one-parameter family"
        )
    t1 = fam.check_theta(fam.theta_of_model(model_p))
    t2 = fam.check_theta(fam.theta_of_model(model_q))
    return fam, t1, t2


# ---------------------------------------------------------------------------
# Weighted KL and weighted Bregman
# ---------------------------------------------------------------------------


def weighted_kl(model_p, model_q, weight):
    """D^w_KL(p || q) = integral phi p ln(p/q).

    Closed forms for the built-in families; exact summation for
    categorical models; quadrature otherwise.
    """
    _numeric.common_support(model_p, model_q)
    if isinstance(model_p, Poisson) and isinstance(model_q, Poisson):
        g = _weight_gamma(weight)
        e_p = weighted_normaliser(model_p, weight)
        l1, l2 = model_p.lam, model_q.lam
        return e_p * (math.exp(g) * l1 * math.log(l1 / l2) - (l1 - l2))
    if isinstance(model_p, Exponential) and isinstance(model_q, Exponential):
        g = _weight_gamma(weight)
        l1, l2 = model_p.rate, model_q.rate
        if g >= l1:
            raise PreconditionError("weighted KL diverges: gamma must stay below rate of p")
        return l1 / (l1 - g) * (math.log(l1 / l2) + (l2 - l1) / (l1 - g))
    if isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian):
        if isinstance(weight, TableWeight):
            raise UnsupportedCombinationError("table weights need a categorical support")
        g = np.zeros(model_p.dim) if isinstance(weight, ConstWeight) else np.atleast_1d(
            np.asarray(weight.gamma, dtype=float))
        e_p = weighted_normaliser(model_p, weight)
        # tilted p is N(mu1 + Sigma1 gamma, Sigma1); take E[ln(p/q)] under it
        m = model_p.mean + model_p.cov @ g
        s = model_p.cov
        s1inv, s2inv = model_p.cov_inv(), model_q.cov_inv()
        d1 = m - model_p.mean
        d2 = m - model_q.mean
        val = (0.5 * (model_q._log_det - model_p._log_det)
               - 0.5 * (np.trace(s1inv @ s) + d1 @ s1inv @ d1)
               + 0.5 * (np.trace(s2inv @ s) + d2 @ s2inv @ d2))
        return float(e_p * val)
    if isinstance(model_p, Cauchy) and isinstance(model_q, Cauchy):
        if isinstance(weight, ConstWeight) or (
                isinstance(weight, ExpTiltWeight) and weight.is_null()):
            return cauchy_kl(model_p, model_q)
        raise UnsupportedCombinationError("weighted KL for Cauchy requires the constant weight")
    if isinstance(model_p, Categorical):
        k = np.arange(model_p.size)
        phi = np.exp(_numeric.log_weight_vec(weight, k))
        p, q = model_p.probs, model_q.probs
        out = 0.0
        for pk, qk, wk in zip(p, q, phi):
            if pk == 0.0 or wk == 0.0:
                continue
            if qk == 0.0:
                return math.inf
            out += wk * pk * math.log(pk / qk)
        return out
    return _numeric.weighted_power_integral(model_p, model_q, weight, 1.0, 0.0,
                                            factor=lambda lp, lq: lp - lq)


def weighted_bregman(family, theta1, theta2):
    """B^w(theta1, theta2) = E_phi(theta2) [F(t1) - F(t2) - (t1-t2) Fhat'(t2)]."""
    t1 = family.check_theta(theta1)
    t2 = family.check_theta(theta2)
    gap = family.F(t1) - family.F(t2) - (t1 - t2) * family.dFhat(t2)
    return family.E_phi(t2) * gap


def chernoff_arc_derivative(curve, alpha):
    """F'(alpha) = E_{(pq)_alpha}[ln(p/q)], the tilted mean of the log-ratio."""
    return curve.derivative(alpha)


# ---------------------------------------------------------------------------
# The normalised Chernoff arc
# ---------------------------------------------------------------------------


class ChernoffArc:
    """Normalised geometric interpolation (pq)_alpha between tilted endpoints.

    (pq)_alpha = phi p^alpha q^(1-alpha) / Z(alpha) with Z the affinity;
    (pq)_1 is the tilted p and (pq)_0 the tilted q.
    """

    def __init__(self, curve):
        if not isinstance(curve, AffinityCurve):
            raise PreconditionError("ChernoffArc needs an AffinityCurve")
        self.curve = curve

    def log_density(self, alpha, x):
        """Vectorised ln (pq)_alpha over 1-D sample points."""
        c = self.curve
        return (_numeric.log_weight_vec(c.weight, x)
                + alpha * _numeric.logpdf_vec(c.model_p, x)
                + (1.0 - alpha) * _numeric.logpdf_vec(c.model_q, x)
                - c.log_rho(alpha))

    def total_mass(self, alpha):
        """Integral of (pq)_alpha; equals 1 by construction, recomputed numerically."""
        c = self.curve
        z = _numeric.weighted_power_integral(c.model_p, c.model_q, c.weight,
                                             alpha, 1.0 - alpha)
        return z / math.exp(c.log_rho(alpha))

    def kl(self, alpha, beta):
        """Unweighted D_KL((pq)_alpha || (pq)_beta) by direct integration.

        ln (pq)_alpha - ln (pq)_beta = (alpha - beta) ln(p/q) + F(beta) - F(alpha),
        integrated against phi p^alpha q^(1-alpha) and divided by rho(alpha).
        """
        c = self.curve
        f_alpha = c.log_rho(alpha)
        shift = c.log_rho(beta) - f_alpha
        step = alpha - beta
        num = _numeric.weighted_power_integral(
            c.model_p, c.model_q, c.weight, alpha, 1.0 - alpha,
            factor=lambda lp, lq: step * (lp - lq) + shift)
        return num / math.exp(f_alpha)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

NOT_APPLICABLE = "not_applicable"

IDENTITY_NAMES = (
    "kl_as_bregman",
    "bisector",
    "chernoff_kl",
    "bregman_arc",
    "one_parameter_alpha",
    "primal_dual",
    "jensen_decomposition",
)


def _entry(residual):
    return {"applicable": True, "residual": float(residual)}


def _na():
    return {"applicable": False, "residual": None, "status": NOT_APPLICABLE}


def verify_identities(model_p, model_q, weight):
    """Numerically check the divergence identities for an embeddable pair.

    Returns {"alpha_star", "boundary", "identities": {name: entry},
    "max_applicable_residual"}.  Identities that presuppose an interior
    optimal alpha are reported as not applicable when the optimum sits on
    the boundary or the curve is flat.
    """
    fam, t1, t2 = family_of_pair(model_p, model_q, weight)
    curve = AffinityCurve(model_p, model_q, weight)
    result = chernoff(model_p, model_q, weight)
    alpha_star = result.alpha_star
    interior = result.boundary == INTERIOR

    report = {}

    # (i) weighted KL as weighted Bregman: D^w_KL(p||q) = B^w(theta2, theta1)
    kl = weighted_kl(model_p, model_q, weight)
    report["kl_as_bregman"] = _entry(abs(kl - weighted_bregman(fam, t2, t1)))

    if t1 == t2:
        # identical parameters: the remaining structure degenerates
        for name in ("bisector", "chernoff_kl", "bregman_arc", "one_parameter_alpha"):
            report[name] = _na()
    else:
        theta_star = alpha_star * t1 + (1.0 - alpha_star) * t2

        # (ii) Bregman bisector at theta_{alpha*}
        if interior:
            b1 = weighted_bregman(fam, t1, theta_star)
            b2 = weighted_bregman(fam, t2, theta_star)
            report["bisector"] = _entry(abs(b1 - b2))
        else:
            report["bisector"] = _na()

        # (iii) Chernoff--KL on the normalised arc
        if interior:
            arc = ChernoffArc(curve)
            ln_ep = math.log(weighted_normaliser(model_p, weight))
            ln_eq = math.log(weighted_normaliser(model_q, weight))
            lhs = result.d_c_w
            r1 = arc.kl(alpha_star, 1.0) - ln_ep
            r0 = arc.kl(alpha_star, 0.0) - ln_eq
            report["chernoff_kl"] = _entry(max(abs(lhs - r1), abs(lhs - r0)))

            # (iv) Bregman divergence of the scalar log-affinity F_pq
            def breg_curve(a, b):
                return (curve.log_rho(a) - curve.log_rho(b)
                        - (a - b) * curve.derivative(b))

            c1 = breg_curve(1.0, alpha_star) - ln_ep
            c0 = breg_curve(0.0, alpha_star) - ln_eq
            report["bregman_arc"] = _entry(max(abs(lhs - c1), abs(lhs - c0)))

            # (v) one-parameter formula for alpha*
            y = (fam.F(t1) - fam.F(t2)) / (t1 - t2)
            alpha_formula = (fam.Ghat(y) - t2) / (t1 - t2)
            report["one_parameter_alpha"] = _entry(abs(alpha_formula - alpha_star))
        else:
            report["chernoff_kl"] = _na()
            report["bregman_arc"] = _na()
            report["one_parameter_alpha"] = _na()

    # (vi) primal--dual identity in the dual coordinates theta* = F'(theta):
    # b_F(t1,t2) = b_{F*}(t2*,t1*) - (t1-t2) lnE'(t2) + (t2*-t1*) dlnEstar(t1*)
    # with b_F(a,b) = F(a)-F(b)-(a-b)Fhat'(b) and the star analogue built
    # from Fhat* = F* + lnE read in the dual coordinate.
    t1s, t2s = fam.dF(t1), fam.dF(t2)
    lhs_pd = fam.F(t1) - fam.F(t2) - (t1 - t2) * fam.dFhat(t2)
    b_star = (fam.Fstar(t2s) - fam.Fstar(t1s)
              - (t2s - t1s) * (fam.dFstar(t1s) + fam.dlnEstar(t1s)))
    rhs_pd = b_star - (t1 - t2) * fam.dlnE(t2) + (t2s - t1s) * fam.dlnEstar(t1s)
    report["primal_dual"] = _entry(abs(lhs_pd - rhs_pd))

    # (vii) Jensen / Burbea--Rao decomposition at alpha probes
    worst = 0.0
    probes = [0.25, 0.5, 0.75] + ([alpha_star] if interior else [])
    for a in probes:
        theta_a = a * t1 + (1.0 - a) * t2
        u = a * fam.F(t1) + (1.0 - a) * fam.F(t2) - fam.F(theta_a)
        d_b = -curve.log_rho(a)
        worst = max(worst, abs(d_b - (u - fam.lnE(theta_a))))
    report["jensen_decomposition"] = _entry(worst)

    applicable = [v["residual"] for v in report.values() if v["applicable"]]
    return {
        "alpha_star": alpha_star,
        "boundary": result.boundary,
        "identities": report,
        "max_applicable_residual": max(applicable) if applicable else 0.0,
    }


def chernoff_efficiency(d1, d2):
    """Sample-size equivalence ratio d1/d2 of two designs' exponents."""
    d1, d2 = float(d1), float(d2)
    if d2 == 0.0:
        raise PreconditionError("reference design has zero exponent")
    return d1 / d2
