"""Closed forms against the numeric path on random one-parameter pairs.

Poisson, Exponential and 1-D Gaussian pairs (shared and unequal
variances) under random exponential tilts.  The closed forms are read off
the exponential-family embedding, or the tilted Gaussian; the oracle is
the same quantity summed (Poisson) or integrated (the rest) by
`_numeric.weighted_power_integral`, and the generic root-finder on it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wchernoff import (
    AffinityCurve,
    ConstWeight,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    Poisson,
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
    oracle = _numeric.weighted_power_integral(p, q, w, 1.0, 0.0,
                                              factor=lambda lp, lq: lp - lq)
    assert _close(weighted_kl(p, q, w), oracle, 1e-8)
