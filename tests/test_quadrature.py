"""The package's Gauss-Kronrod integrator against QUADPACK.

`scipy.integrate.quad`, one call per piece on a scalar integrand, is the
oracle here: the same pieces, integrand and tolerances as
`_numeric.weighted_power_integral`, and the same reading of a failure as a
ConvergenceError.  The oracle integrates in the linear domain, one
integral per moment: the mass, the mean of d = ln p - ln q, and the
variance as the mean of (d - mean)^2.  The package's log-domain mass is
compared as e^(ln I - shift).  Cases are seeded random draws over every
continuous pair the quadrature branch serves, with a shift of 0 or
ln rho(a).  Cases far out of the oracle's reach (rho below 1e-300 or above
1e300, narrow peaks) are pinned against the closed forms.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from wchernoff import (
    AffinityCurve,
    Cauchy,
    ChernoffArc,
    ConstWeight,
    ConvergenceError,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    Poisson,
    chernoff,
    log_weighted_normaliser,
)
from wchernoff import _numeric, _quadrature


def _location(m):
    if isinstance(m, Gaussian):
        return float(m.mean[0])
    if isinstance(m, Cauchy):
        return m.location
    return 1.0 / m.rate


def quadpack(p, q, weight, a, factor=None, shift=0.0):
    """integral phi p^a q^(1-a) factor / e^shift by QUADPACK, piece by piece."""
    g = float(weight.gamma[0]) if isinstance(weight, ExpTiltWeight) else 0.0

    def f(x):
        lp, lq = float(p.logpdf(x)), float(q.logpdf(x))
        v = math.exp(g * x + a * lp + (1.0 - a) * lq - shift)
        if not v > 0.0:
            return 0.0
        if factor is None:
            return v
        fx = factor(lp, lq)
        return v * fx if math.isfinite(fx) else 0.0

    lo = 0.0 if p.support == "halfline" else -math.inf
    cuts = sorted({c for c in map(_location, (p, q)) if c > lo})
    total, err = 0.0, 0.0
    try:
        with np.errstate(all="ignore"):
            for left, right in zip([lo] + cuts, cuts + [math.inf]):
                out = integrate.quad(f, left, right, full_output=1, epsabs=_quadrature.EPSABS,
                                     epsrel=_quadrature.EPSREL, limit=_quadrature.LIMIT)
                if len(out) > 3:
                    raise ConvergenceError(out[3])
                total, err = total + out[0], err + out[1]
    except OverflowError:
        total = math.inf
    if not math.isfinite(total) or err > 1e-6 * max(1.0, abs(total)):
        raise ConvergenceError("diverged")
    return total


def oracle_moments(p, q, weight, a, shift):
    """(integral phi p^a q^(1-a) / e^shift, mean d, var d) by QUADPACK."""
    mass = quadpack(p, q, weight, a, shift=shift)
    mean = quadpack(p, q, weight, a, lambda lp, lq: lp - lq, shift) / mass
    var = quadpack(p, q, weight, a, lambda lp, lq: (lp - lq - mean) ** 2, shift) / mass
    return mass, mean, var


def package_moments(p, q, weight, a, shift):
    """The same three off one pass of the package's fused integral."""
    log_i, mean, var = _numeric.weighted_power_integral(p, q, weight, a, moments=True)
    return math.exp(log_i - shift), mean, var


def package_mass(p, q, weight, a, shift):
    """integral phi p^a q^(1-a) / e^shift off the package's mass-only pass."""
    return (math.exp(_numeric.weighted_power_integral(p, q, weight, a)[0] - shift),)


def _pair(rng):
    kind = rng.choice(["gauss_unequal", "exponential", "cauchy", "gauss_cauchy"])
    if kind == "gauss_unequal":
        p, q = (Gaussian([rng.uniform(-3, 3)], [[rng.uniform(0.3, 3.0)]]) for _ in range(2))
        weight = ExpTiltWeight([rng.uniform(-1, 1)]) if rng.random() < 0.5 else ConstWeight()
    elif kind == "exponential":
        rp, rq = rng.uniform(0.3, 5.0, 2)
        p, q = Exponential(rp), Exponential(rq)
        weight = ExpTiltWeight([rng.uniform(-1.0, 0.95 * min(rp, rq))])
    elif kind == "cauchy":
        p, q = (Cauchy(rng.uniform(-3, 3), rng.uniform(0.3, 3.0)) for _ in range(2))
        weight = ConstWeight()
    else:
        p = Gaussian([rng.uniform(-3, 3)], [[rng.uniform(0.3, 3.0)]])
        q = Cauchy(rng.uniform(-3, 3), rng.uniform(0.3, 3.0))
        p, q = (p, q) if rng.random() < 0.5 else (q, p)
        weight = ConstWeight()
    return p, q, weight


def cases(count, seed=20261018):
    """(p, q, weight, a, shift) draws; shift is 0 or ln rho(a) by QUADPACK."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p, q, weight = _pair(rng)
        a = rng.uniform(0.0, 1.0)
        shift = 0.0
        if rng.random() < 0.5:
            try:
                shift = math.log(quadpack(p, q, weight, a))
            except ConvergenceError:
                pass
        yield p, q, weight, a, shift


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs), None
    except ConvergenceError as exc:
        return None, type(exc)


def test_agrees_with_quadpack_on_random_cases():
    # the mass-only pass against the oracle's mass, and the fused pass's
    # mass, mean and variance against the oracle's three integrals
    worst, mismatches = 0.0, []
    for p, q, weight, a, shift in cases(200):
        args = (p, q, weight, a, shift)
        mass, mass_exc = _outcome(quadpack, *args[:4], shift=shift)
        oracle, oracle_exc = _outcome(oracle_moments, *args)
        for fn, ref, ref_exc in ((package_mass, (mass,), mass_exc),
                                 (package_moments, oracle, oracle_exc)):
            ours, our_exc = _outcome(fn, *args)
            if our_exc is not ref_exc:
                mismatches.append((fn.__name__, args, our_exc, ref_exc))
                continue
            if ref_exc is not None:
                continue
            for x, r in zip(ours, ref):
                diff = abs(x - r)
                if not (diff <= 1e-9 * abs(r) or (abs(r) < 1.0 and diff <= 1e-12)):
                    mismatches.append((fn.__name__, args, ours, ref))
                worst = max(worst, diff / max(abs(r), 1.0))
    assert not mismatches, mismatches
    assert worst <= 1e-9


def test_subdivision_limit_raises():
    # int_0^1 dx/x diverges: every bisection of [0, h] adds about ln 2
    with pytest.raises(ConvergenceError, match=f"more than {_quadrature.LIMIT} intervals"):
        _quadrature.quad(lambda x, log_jac: 1.0 / x, [0.0, 1.0])


def test_far_apart_gaussians_match_closed_form():
    # ln rho ~ -409 sits far below the absolute tolerance; the starting
    # nodes of the finite piece [0, 100] resolve the tilted density anyway
    p, q = Gaussian([0.0], [[1.0]]), Gaussian([100.0], [[2.0]])
    closed = AffinityCurve(p, q, ConstWeight())
    numeric = AffinityCurve(p, q, ConstWeight(), mode="quadrature")
    assert numeric.log_rho(0.1) == pytest.approx(closed.log_rho(0.1), rel=1e-9)
    assert numeric.derivative(0.1) == pytest.approx(closed.derivative(0.1), rel=1e-9)


G0 = Gaussian([0.0], [[1.0]])


@pytest.mark.parametrize("p,q,weight,alpha", [
    # rho = e^-833 underflows a double
    (G0, Gaussian([100.0], [[2.0]]), ConstWeight(), 0.5),
    # the tilted densities are narrow against the starting intervals
    (G0, Gaussian([60.0], [[0.001]]), ConstWeight(), 0.3),
    (Gaussian([0.0], [[4.0]]), Gaussian([40.0], [[4e-4]]), ConstWeight(), 0.5),
    # rho = e^820 overflows a double
    (G0, Gaussian([1.0], [[1.0]]), ExpTiltWeight([40.0]), 0.5),
    # a bump of sd 0.03 at 70, between the means; and tilts that put it
    # hundreds of units past both means, beyond the tail's starting breaks
    (Gaussian([0.0], [[1e-3]]), Gaussian([100.0], [[1e-3]]), ConstWeight(), 0.3),
    (Gaussian([0.0], [[30.0]]), Gaussian([0.0], [[20.0]]), ExpTiltWeight([30.0]), 0.5),
    (Gaussian([-22.6], [[35.0]]), Gaussian([-30.7], [[27.5]]), ExpTiltWeight([28.6]), 0.0),
])
def test_log_domain_matches_closed_form_beyond_double_range(p, q, weight, alpha):
    closed = AffinityCurve(p, q, weight)
    numeric = AffinityCurve(p, q, weight, mode="quadrature")
    assert numeric.log_rho(alpha) == pytest.approx(closed.log_rho(alpha), rel=1e-9)
    assert numeric.derivative(alpha) == pytest.approx(closed.derivative(alpha), rel=1e-9)


def test_gaussian_tails_at_the_bump_scale():
    # N(0, v) vs N(sqrt v, 2v) has one D at every v; tails mapped at a fixed scale miss
    # the bump's mass (a false e^inf) or run out of intervals far from v = 1
    rng = np.random.default_rng(20261020)
    for v in 10.0 ** np.append(rng.uniform(-100.0, 100.0, 12), [-100.0, 100.0]):
        p, q = Gaussian([0.0], [[v]]), Gaussian([math.sqrt(v)], [[2.0 * v]])
        closed = chernoff(p, q, ConstWeight())
        numeric = chernoff(p, q, ConstWeight(), mode="quadrature")
        assert numeric.d_c_w == pytest.approx(closed.d_c_w, rel=1e-12), v
        assert numeric.alpha_star == pytest.approx(closed.alpha_star, rel=1e-12), v


def test_generic_solve_at_tilt_40_matches_closed_form():
    # E_phi(p) = e^800: the minimum of F sits at alpha = 1, D = -800
    args = (G0, Gaussian([1.0], [[1.0]]), ExpTiltWeight([40.0]))
    closed = chernoff(*args)
    generic = chernoff(*args, solver="generic", mode="quadrature")
    assert closed.d_c_w == -800.0
    assert generic.d_c_w == pytest.approx(closed.d_c_w, rel=1e-9)
    assert generic.alpha_star == pytest.approx(closed.alpha_star, abs=1e-6)


def test_arc_kl_where_rho_underflows():
    # rho(alpha*) = e^-6395 for Poisson(1) vs Poisson(1e4) under exp_tilt 0.1;
    # the arc KL to each end is D + ln E_phi of that end (identity iii)
    p, q, weight = Poisson(1.0), Poisson(1e4), ExpTiltWeight([0.1])
    result = chernoff(p, q, weight)
    arc = ChernoffArc(AffinityCurve(p, q, weight))
    for end, model in ((1.0, p), (0.0, q)):
        expected = result.d_c_w + log_weighted_normaliser(model, weight)
        assert arc.kl(result.alpha_star, end) == pytest.approx(expected, rel=1e-9)
