"""Exponential-family view of the Chernoff arc.

One-parameter natural exponential families p_theta = exp{theta t(x) -
F(theta) + k(x)} with a context weight phi = e^(gamma x).  The tilted
log-normaliser is Fhat(theta) = F(theta + gamma) = F + ln E_phi(theta),
and the weighted Bregman divergence

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
from .errors import ConvergenceError, PreconditionError
from .models import (
    Categorical,
    Cauchy,
    ConstWeight,
    ExpFamily1D,
    check_models,
    exponential_family,
    family_of_pair,
    gaussian_mean_family,
    poisson_family,
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
    """D^w_KL(p || q) = integral phi p ln(p/q), the package's one KL.

    Every pair but two Cauchy laws reads it off its `AffinityCurve`, whose
    `moments(1)` give F(1) = ln E_phi(p) and F'(1), the mean of ln(p/q) under
    the tilted p: the KL is E_phi(p) F'(1), read as sign(F'(1)) e^(F(1) +
    ln|F'(1)|) where E_phi(p) alone overflows, and ConvergenceError where it
    is not a finite double.  A categorical p is 0 where phi p has no mass, and
    +inf where it has mass on a symbol that q lacks.  A Gaussian p against a
    Cauchy q takes the generic integral, which checks the weight against p
    alone.  A Cauchy p (constant weight only) takes the closed form against a
    Cauchy q, and is +inf against a Gaussian q, whose ln q ~ -x^2 has no mean
    under Cauchy tails.
    """
    check_models((model_p,), weight)
    check_models((model_p, model_q), ConstWeight())
    if isinstance(model_p, Cauchy):
        return cauchy_kl(model_p, model_q) if isinstance(model_q, Cauchy) else math.inf
    if isinstance(model_p, Categorical):
        mass = (model_p.probs > 0.0) & (weight.log_value(np.arange(model_p.size)) > -np.inf)
        if not mass.any():  # phi p = 0: the tilted p, and so the curve, does not exist
            return 0.0
        if np.any(model_q.probs[mass] == 0.0):
            return math.inf
    if isinstance(model_q, Cauchy):  # the curve would also check the weight against q
        log_e, mean, _ = _numeric.weighted_power_integral(model_p, model_q, weight, 1.0,
                                                          moments=True)
    else:
        log_e, mean, _ = AffinityCurve(model_p, model_q, weight).moments(1.0)
    try:
        kl = math.exp(log_e) * mean
    except OverflowError:  # E_phi(p) alone is not a double; the KL may be
        with np.errstate(over="ignore", divide="ignore"):  # ln 0 = -inf: F'(1) = 0 gives 0
            kl = float(np.copysign(np.exp(log_e + np.log(abs(mean))), mean))
    if not math.isfinite(kl):
        raise ConvergenceError(f"weighted KL = e^{log_e:.6g} * {mean:.6g} overflows a double")
    return kl


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
        return _numeric.log_bump(c.weight.log_value(x), alpha, _numeric.logpdf_vec(c.model_p, x),
                                 _numeric.logpdf_vec(c.model_q, x)) - c.log_rho(alpha)

    def total_mass(self, alpha):
        """Integral of (pq)_alpha; equals 1 by construction, recomputed numerically."""
        c = self.curve
        log_z = _numeric.weighted_power_integral(c.model_p, c.model_q, c.weight, alpha)[0]
        return math.exp(log_z - c.log_rho(alpha))

    def kl(self, alpha, beta):
        """Unweighted D_KL((pq)_alpha || (pq)_beta) by direct integration.

        ln (pq)_alpha - ln (pq)_beta = (alpha - beta) ln(p/q) + F(beta) - F(alpha),
        whose mean under (pq)_alpha is (alpha - beta) F'(alpha) + F(beta) - F(alpha),
        with F' the mean of the log-domain integral, finite where rho(alpha)
        underflows.
        """
        c = self.curve
        mean = _numeric.weighted_power_integral(c.model_p, c.model_q, c.weight, alpha,
                                                moments=True)[1]
        return (alpha - beta) * mean + c.log_rho(beta) - c.log_rho(alpha)


# ---------------------------------------------------------------------------
# Identity suite
# ---------------------------------------------------------------------------

NOT_APPLICABLE = "not_applicable"


def _entry(*pairs):
    """An applicable identity, whose residual is the largest |a - b| / max(1, |a|, |b|) of
    its compared pairs (a, b)."""
    return {"applicable": True,
            "residual": float(max(abs(a - b) / max(1.0, abs(a), abs(b)) for a, b in pairs))}


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
    report["kl_as_bregman"] = _entry((kl, weighted_bregman(fam, t2, t1)))

    if interior:
        theta_star = alpha_star * t1 + (1.0 - alpha_star) * t2

        # (ii) Bregman bisector at theta_{alpha*}, on the gaps: both B^w carry E_phi(theta*)
        report["bisector"] = _entry((_bregman_gap(fam, t1, theta_star),
                                     _bregman_gap(fam, t2, theta_star)))

        # (iii) Chernoff--KL on the normalised arc
        arc = ChernoffArc(curve)
        ln_ep, ln_eq = curve.log_rho(1.0), curve.log_rho(0.0)  # ln E_phi(p), ln E_phi(q)
        lhs = result.d_c_w
        r1 = arc.kl(alpha_star, 1.0) - ln_ep
        r0 = arc.kl(alpha_star, 0.0) - ln_eq
        report["chernoff_kl"] = _entry((lhs, r1), (lhs, r0))

        # (iv) Bregman divergence of the scalar log-affinity F_pq
        def breg_curve(a, b):
            return (curve.log_rho(a) - curve.log_rho(b)
                    - (a - b) * curve.derivative(b))

        c1 = breg_curve(1.0, alpha_star) - ln_ep
        c0 = breg_curve(0.0, alpha_star) - ln_eq
        report["bregman_arc"] = _entry((lhs, c1), (lhs, c0))

        # (v) one-parameter formula for alpha*: F' vanishes there
        alpha_formula = fam.alpha_tilde(t1, t2)
        report["one_parameter_alpha"] = _entry((numeric.derivative(alpha_formula), 0.0))
    else:  # boundary or flat, one member of the family (theta1 = theta2) among them
        for name in ("bisector", "chernoff_kl", "bregman_arc", "one_parameter_alpha"):
            report[name] = _na()

    # (vi) primal--dual identity in the dual coordinates theta* = F'(theta):
    # b_F(t1, t2) = [F*(t2*) - F*(t1*) - (t2* - t1*) F*'(t1*)] - (t1 - t2) lnE'(t2),
    # with b_F(a, b) = F(a) - F(b) - (a - b) Fhat'(b); the bracket is the
    # unweighted Bregman divergence of the dual F*.
    t1s, t2s = fam.dF(t1), fam.dF(t2)
    rhs_pd = (fam.Fstar(t2s) - fam.Fstar(t1s) - (t2s - t1s) * fam.dFstar(t1s)
              - (t1 - t2) * fam.dlnE(t2))
    report["primal_dual"] = _entry((_bregman_gap(fam, t1, t2), rhs_pd))

    # (vii) Jensen / Burbea--Rao decomposition at alpha probes
    pairs = []
    for a in [0.25, 0.5, 0.75] + ([alpha_star] if interior else []):
        theta_a = a * t1 + (1.0 - a) * t2
        u = a * fam.F(t1) + (1.0 - a) * fam.F(t2) - fam.F(theta_a)
        pairs.append((-numeric.log_rho(a), u - fam.lnE(theta_a)))
    report["jensen_decomposition"] = _entry(*pairs)

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
