"""Exponential-family view of the Chernoff arc.

One-parameter natural exponential families p_theta = exp{theta t(x) -
F(theta) + k(x)} with a context weight phi.  The tilted log-normaliser is
Fhat = F + ln E_phi(theta), and the weighted Bregman divergence

    B^w(theta1, theta2) = E_phi(theta2) [F(theta1) - F(theta2)
                                         - (theta1 - theta2) Fhat'(theta2)]

represents the weighted KL divergence inside the family.  The families
are defined in `models`, where the affinity curve reads its closed forms
from them.  The module also hosts the numeric identity suite tying the
affinity curve, the weighted Bregman geometry and the Legendre dual
together.
"""

from __future__ import annotations

import math

import numpy as np

from . import _numeric
from .affinity import (
    INTERIOR,
    QUADRATURE,
    SUMMATION,
    AffinityCurve,
    cauchy_kl,
    chernoff,
)
from .errors import PreconditionError
from .models import (
    Categorical,
    Cauchy,
    ConstWeight,
    ExpFamily1D,
    Gaussian,
    check_models,
    embed_pair,
    exp_or_raise,
    exponential_family,
    family_of_pair,
    gaussian_mean_family,
    log_weighted_normaliser,
    poisson_family,
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
# Weighted KL and weighted Bregman
# ---------------------------------------------------------------------------


def weighted_kl(model_p, model_q, weight):
    """D^w_KL(p || q) = integral phi p ln(p/q).

    For the closed-form pairs of `AffinityCurve` this is E_phi(p) F'(1):
    F'(1) is the mean of ln(p/q) under the tilted p, so only p's tilt has
    to be integrable, and the weight is checked against p alone.  Exact
    summation for categorical models, the Cauchy closed form (a Cauchy
    model admits only the constant weight), quadrature otherwise.
    """
    check_models((model_p,), weight)
    check_models((model_p, model_q), ConstWeight())
    if isinstance(model_p, Categorical):
        k = _numeric.discrete_grid(model_p, model_q)
        phi = weight.value(k)
        live = (model_p.probs > 0.0) & (phi > 0.0)
        if np.any(model_q.probs[live] == 0.0):
            return math.inf
        return float(np.sum(phi[live] * model_p.probs[live]
                            * (model_p.logpdf(k[live]) - model_q.logpdf(k[live]))))
    if isinstance(model_p, Cauchy) and isinstance(model_q, Cauchy):
        return cauchy_kl(model_p, model_q)
    if ((isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian))
            or embed_pair(model_p, model_q, weight) is not None):
        e_p = weighted_normaliser(model_p, weight)
        return e_p * AffinityCurve(model_p, model_q, weight).derivative(1.0)
    log_e, mean = _numeric.weighted_power_integral(model_p, model_q, weight, 1.0, 0.0,
                                                   factor=lambda lp, lq: lp - lq)
    return exp_or_raise(log_e, "E_phi") * mean


def weighted_bregman(family, theta1, theta2):
    """B^w(theta1, theta2) = E_phi(theta2) [F(t1) - F(t2) - (t1-t2) Fhat'(t2)]."""
    t1 = family.check_theta(theta1)
    t2 = family.check_theta(theta2)
    return family.E_phi(t2) * _bregman_gap(family, t1, t2)


def _bregman_gap(family, t1, t2):
    """F(t1) - F(t2) - (t1 - t2) Fhat'(t2): B^w(t1, t2) without its factor E_phi(t2)."""
    return family.F(t1) - family.F(t2) - (t1 - t2) * family.dFhat(t2)


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
        return (c.weight.log_value(x)
                + alpha * _numeric.logpdf_vec(c.model_p, x)
                + (1.0 - alpha) * _numeric.logpdf_vec(c.model_q, x)
                - c.log_rho(alpha))

    def total_mass(self, alpha):
        """Integral of (pq)_alpha; equals 1 by construction, recomputed numerically."""
        c = self.curve
        log_z = _numeric.weighted_power_integral(c.model_p, c.model_q, c.weight,
                                                 alpha, 1.0 - alpha)[0]
        return math.exp(log_z - c.log_rho(alpha))

    def kl(self, alpha, beta):
        """Unweighted D_KL((pq)_alpha || (pq)_beta) by direct integration.

        ln (pq)_alpha - ln (pq)_beta = (alpha - beta) ln(p/q) + F(beta) - F(alpha),
        as a mean of the log-domain integral, finite where rho(alpha) underflows.
        """
        c = self.curve
        shift = c.log_rho(beta) - c.log_rho(alpha)
        step = alpha - beta
        return _numeric.weighted_power_integral(
            c.model_p, c.model_q, c.weight, alpha, 1.0 - alpha,
            factor=lambda lp, lq: step * (lp - lq) + shift)[1]


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
    curve = AffinityCurve(model_p, model_q, weight)
    fam, t1, t2 = family_of_pair(model_p, model_q, weight)
    # (v) and (vii) test the closed forms against the generic integrals
    numeric = AffinityCurve(model_p, model_q, weight,
                            mode=SUMMATION if model_p.support == "nonneg_int" else QUADRATURE)
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

        # (ii) Bregman bisector at theta_{alpha*}, on the gaps: both B^w carry E_phi(theta*)
        if interior:
            report["bisector"] = _entry(abs(_bregman_gap(fam, t1, theta_star)
                                            - _bregman_gap(fam, t2, theta_star)))
        else:
            report["bisector"] = _na()

        # (iii) Chernoff--KL on the normalised arc
        if interior:
            arc = ChernoffArc(curve)
            ln_ep = log_weighted_normaliser(model_p, weight)
            ln_eq = log_weighted_normaliser(model_q, weight)
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

            # (v) one-parameter formula for alpha*: F' vanishes there
            y = (fam.F(t1) - fam.F(t2)) / (t1 - t2)
            alpha_formula = (fam.Ghat(y) - t2) / (t1 - t2)
            report["one_parameter_alpha"] = _entry(abs(numeric.derivative(alpha_formula)))
        else:
            report["chernoff_kl"] = _na()
            report["bregman_arc"] = _na()
            report["one_parameter_alpha"] = _na()

    # (vi) primal--dual identity in the dual coordinates theta* = F'(theta):
    # b_F(t1,t2) = b_{F*}(t2*,t1*) - (t1-t2) lnE'(t2) + (t2*-t1*) dlnEstar(t1*)
    # with b_F(a,b) = F(a)-F(b)-(a-b)Fhat'(b) and the star analogue built
    # from Fhat* = F* + lnE read in the dual coordinate.
    t1s, t2s = fam.dF(t1), fam.dF(t2)
    lhs_pd = _bregman_gap(fam, t1, t2)
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
        d_b = -numeric.log_rho(a)
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
