"""Closed forms against the numeric path on random one-parameter pairs.

Poisson, Exponential and 1-D Gaussian pairs (shared and unequal
variances) under random exponential tilts.  The closed forms are read off
the exponential-family embedding, or the tilted Gaussian; the oracle is
the same quantity summed (Poisson) or integrated (the rest) by
`_numeric.weighted_power_integral`, and the generic root-finder on it.

Mixed (Gaussian against Cauchy) and heavy-tailed (Cauchy pairs with
unequal scales) pairs have no closed form; there the generic quadrature
solve is checked against scipy's QUADPACK and Brent root-finder, driven by
log-densities written out in this file.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from wchernoff import (
    AffinityCurve,
    Cauchy,
    ConstWeight,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    Poisson,
    WChernoffError,
    chernoff,
    weighted_kl,
)
from wchernoff import _numeric

alphas = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def pairs(draw):
    """(p, q, weight, numeric mode) for a random same-family pair."""
    family = draw(st.sampled_from(["poisson", "exponential", "gaussian", "gaussian_unequal"]))
    if family == "poisson":
        p, q = (Poisson(draw(st.floats(0.2, 8.0))) for _ in range(2))
        gamma = draw(st.floats(-1.0, 1.0))
    elif family == "exponential":
        rp, rq = draw(st.floats(0.3, 5.0)), draw(st.floats(0.3, 5.0))
        p, q = Exponential(rp), Exponential(rq)
        # up to just below the smaller rate, where both tilts stay integrable
        gamma = draw(st.floats(-1.0, 0.99 * min(rp, rq)))
    else:
        vp = draw(st.floats(0.3, 3.0))
        vq = vp if family == "gaussian" else draw(st.floats(0.3, 3.0))
        p = Gaussian([draw(st.floats(-3.0, 3.0))], [[vp]])
        q = Gaussian([draw(st.floats(-3.0, 3.0))], [[vq]])
        gamma = draw(st.floats(-1.0, 1.0))
    weight = ConstWeight() if draw(st.booleans()) else ExpTiltWeight([gamma])
    return p, q, weight, "summation" if family == "poisson" else "quadrature"


def _close(a, b, rel):
    # relative, with an absolute floor for values that cross zero (F' near alpha*)
    return a == pytest.approx(b, rel=rel, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(pairs(), alphas)
def test_curve_matches_numeric_mode(pair, alpha):
    p, q, w, mode = pair
    closed = AffinityCurve(p, q, w)
    numeric = AffinityCurve(p, q, w, mode=mode)
    assert closed.mode == "closed_form"
    assert _close(closed.log_rho(alpha), numeric.log_rho(alpha), 1e-8)
    assert _close(closed.derivative(alpha), numeric.derivative(alpha), 1e-8)


@settings(max_examples=20, deadline=None)
@given(pairs())
def test_chernoff_matches_generic_solver(pair):
    p, q, w, mode = pair
    auto = chernoff(p, q, w)
    generic = chernoff(p, q, w, solver="generic", mode=mode)
    assert abs(generic.alpha_star - auto.alpha_star) <= 1e-7
    assert abs(generic.d_c_w - auto.d_c_w) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(pairs())
def test_weighted_kl_matches_numeric_integral(pair):
    p, q, w, _ = pair
    log_e, mean = _numeric.weighted_power_integral(p, q, w, 1.0, 0.0,
                                                   factor=lambda lp, lq: lp - lq)
    assert _close(weighted_kl(p, q, w), math.exp(log_e) * mean, 1e-8)


@st.composite
def far_pairs(draw):
    """(p, q, weight): 1-D Gaussians far apart and up to 1e5 apart in variance, or
    Exponentials, under a constant weight (40%) or a tilt of magnitude up to 31.6."""
    if draw(st.booleans()):
        p, q = (Gaussian([draw(st.floats(-50.0, 50.0))], [[10.0 ** draw(st.floats(-3.0, 2.0))]])
                for _ in range(2))
        gamma = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-2.0, 1.5))
    else:
        rp, rq = (10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2))
        p, q = Exponential(rp), Exponential(rq)
        gamma = draw(st.floats(-1.0, 0.95)) * min(rp, rq)
    weight = ConstWeight() if draw(st.integers(0, 4)) < 2 else ExpTiltWeight([gamma])
    return p, q, weight


@settings(max_examples=150, deadline=None, derandomize=True)
@given(far_pairs())
def test_generic_solve_far_out_matches_closed_form(pair):
    # rho leaves the range of a double on many of these pairs; the generic
    # solve either agrees with the closed form or raises a typed error
    p, q, w = pair
    closed = chernoff(p, q, w)
    try:
        generic = chernoff(p, q, w, solver="generic", mode="quadrature")
    except WChernoffError:
        return
    assert generic.d_c_w == pytest.approx(closed.d_c_w, rel=1e-6)


def _log_density(m):
    """(location, ln density) of a 1-D Gaussian or Cauchy, from its parameters alone."""
    if isinstance(m, Cauchy):
        loc, scale = m.location, m.scale
        return loc, lambda x: -math.log(math.pi * scale) - math.log1p(((x - loc) / scale) ** 2)
    loc, var = float(m.mean[0]), float(m.cov[0, 0])
    return loc, lambda x: -0.5 * math.log(2.0 * math.pi * var) - (x - loc) ** 2 / (2.0 * var)


def scipy_chernoff(p, q):
    """(alpha*, D) by QUADPACK integrals of ln rho and F', and brentq on F'."""
    (loc_p, lp), (loc_q, lq) = _log_density(p), _log_density(q)
    cuts = sorted({loc_p, loc_q})
    edges = list(zip([-math.inf] + cuts, cuts + [math.inf]))

    def integral(f):
        total = 0.0
        for left, right in edges:
            out = integrate.quad(f, left, right, epsabs=1e-12, epsrel=1e-11, limit=400,
                                 full_output=1)
            assert len(out) == 3, out[3]
            total += out[0]
        return total

    def log_rho(a):
        return math.log(integral(lambda x: math.exp(a * lp(x) + (1.0 - a) * lq(x))))

    def slope(a):
        shift = log_rho(a)
        return integral(lambda x: (lp(x) - lq(x)) * math.exp(a * lp(x) + (1.0 - a) * lq(x) - shift))

    assert slope(0.01) < 0.0 < slope(0.99)
    alpha = optimize.brentq(slope, 0.01, 0.99, xtol=1e-13)
    return alpha, -log_rho(alpha)


locations, scales = st.floats(-2.0, 2.0), st.floats(0.5, 2.0)


@st.composite
def gauss_cauchy_pairs(draw):
    gauss = Gaussian([draw(locations)], [[draw(scales)]])
    cauchy = Cauchy(draw(locations), draw(scales))
    return (gauss, cauchy) if draw(st.booleans()) else (cauchy, gauss)


@st.composite
def cauchy_unequal_scales(draw):
    scale = draw(scales)
    return (Cauchy(draw(locations), scale),
            Cauchy(draw(locations), scale * draw(st.floats(1.5, 4.0))))


@pytest.mark.parametrize("pairs", [gauss_cauchy_pairs, cauchy_unequal_scales])
def test_heavy_tailed_chernoff_matches_scipy(pairs):
    @settings(max_examples=10, deadline=None)
    @given(pairs())
    def check(pair):
        generic = chernoff(*pair, ConstWeight(), solver="generic", mode="quadrature")
        alpha, d = scipy_chernoff(*pair)
        assert abs(generic.alpha_star - alpha) <= 1e-6
        assert abs(generic.d_c_w - d) <= 1e-9

    check()
