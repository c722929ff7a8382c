"""Affinity curve, Chernoff solver and the Cauchy/elliptic closed forms."""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from wchernoff import _numeric
from wchernoff import (
    AffinityCurve,
    Categorical,
    Cauchy,
    ChernoffResult,
    ConstWeight,
    ConvergenceError,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    Poisson,
    PreconditionError,
    TableWeight,
    UnsupportedCombinationError,
    cauchy_bhattacharyya_half,
    cauchy_kl,
    chernoff,
    elliptic_k,
    log_mean,
    rho_w,
    weighted_bhattacharyya,
)
from wchernoff.affinity import newton_minimise

P2, P1 = Poisson(2.0), Poisson(1.0)
E2, E1 = Exponential(2.0), Exponential(1.0)
G1 = Gaussian([1.0], [[1.0]])
G0 = Gaussian([0.0], [[1.0]])
CONST = ConstWeight()
# an unequal-variance 1-D pair and a correlated 2-D pair, each under a tilt
G_VAR = (G0, Gaussian([1.0], [[2.0]]), ExpTiltWeight([0.3]))
G_2D = (Gaussian([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]]),
        Gaussian([1.0, -1.0], [[2.0, -0.4], [-0.4, 1.0]]), ExpTiltWeight([0.3, -0.2]))


class TestLogMean:
    def test_two_one(self):
        assert log_mean(2.0, 1.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-14)

    def test_equal_arguments(self):
        assert log_mean(3.0, 3.0) == 3.0

    def test_four_one(self):
        assert log_mean(4.0, 1.0) == pytest.approx(3.0 / math.log(4.0), rel=1e-14)

    def test_integral_representation(self):
        # L(a, b) = int_0^1 a^t b^(1-t) dt
        for a, b in ((2.0, 1.0), (4.0, 1.0), (0.3, 5.0)):
            oracle, _ = integrate.quad(lambda t: a ** t * b ** (1.0 - t), 0.0, 1.0)
            assert log_mean(a, b) == pytest.approx(oracle, rel=1e-10)

    def test_rejects_non_positive(self):
        with pytest.raises(PreconditionError):
            log_mean(0.0, 1.0)


class TestEllipticK:
    def test_m_zero(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_against_defining_integral(self):
        for m in (0.1, 0.5, 0.9, 0.96):
            oracle, _ = integrate.quad(
                lambda u: 1.0 / math.sqrt(1.0 - m * math.sin(u) ** 2), 0.0, math.pi / 2.0)
            assert elliptic_k(m) == pytest.approx(oracle, rel=1e-10)

    def test_reference_value(self):
        # K(0.5) in the parameter-m convention
        assert elliptic_k(0.5) == pytest.approx(1.8540746773013719, rel=1e-14)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            elliptic_k(1.0)
        with pytest.raises(PreconditionError):
            elliptic_k(-0.1)


class TestRhoW:
    def test_identical_models_give_one(self):
        for alpha in (0.0, 0.3, 1.0):
            assert rho_w(P2, P2, CONST, alpha) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_tilt_example(self):
        # common-covariance formula exp{-a(1-a) d^2/2 + g mu_a + g^2 S/2}
        # with d=1, g=0.25, a=0.25: exponent -3/32 + 0.25*0.25 + 0.03125 = 0
        val = rho_w(G1, G0, ExpTiltWeight([0.25]), 0.25)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_poisson_half_example(self):
        assert rho_w(P2, P1, CONST, 0.5) == pytest.approx(
            math.exp(-1.5 + math.sqrt(2.0)), rel=1e-12)

    def test_weighted_bhattacharyya_can_be_negative(self):
        val = weighted_bhattacharyya(E2, E1, ExpTiltWeight([0.5]), 0.942695)
        assert val == pytest.approx(-0.286912, abs=5e-6)

    def test_gaussian_half_example(self):
        assert weighted_bhattacharyya(G1, G0, CONST, 0.5) == pytest.approx(0.125, abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(PreconditionError):
            rho_w(P2, P1, CONST, 1.2)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_bhattacharyya_reads_plus_zero(self, alpha):
        # ln rho = +0 at both ends under phi = 1, and D_B = 0 - ln rho is +0, not -0
        assert math.copysign(1.0, weighted_bhattacharyya(P2, P1, CONST, alpha)) == 1.0


class TestClosedVsGeneric:
    """Closed-form evaluation against quadrature/summation on a fixture grid."""

    @pytest.mark.parametrize("gamma", [None, -0.5, 0.25, 0.5])
    def test_gaussian(self, gamma):
        w = CONST if gamma is None else ExpTiltWeight([gamma])
        closed = AffinityCurve(G1, G0, w, mode="closed_form")
        quad = AffinityCurve(G1, G0, w, mode="quadrature")
        for alpha in np.linspace(0.0, 1.0, 11):
            assert closed.rho(alpha) == pytest.approx(quad.rho(alpha), rel=1e-8)

    @pytest.mark.parametrize("gamma", [None, -0.5, 0.25, 0.5])
    def test_poisson(self, gamma):
        w = CONST if gamma is None else ExpTiltWeight([gamma])
        closed = AffinityCurve(P2, P1, w, mode="closed_form")
        summ = AffinityCurve(P2, P1, w, mode="summation")
        for alpha in np.linspace(0.0, 1.0, 11):
            assert closed.rho(alpha) == pytest.approx(summ.rho(alpha), rel=1e-8)

    @pytest.mark.parametrize("gamma", [None, -0.5, 0.25, 0.5])
    def test_exponential(self, gamma):
        w = CONST if gamma is None else ExpTiltWeight([gamma])
        closed = AffinityCurve(E2, E1, w, mode="closed_form")
        quad = AffinityCurve(E2, E1, w, mode="quadrature")
        for alpha in np.linspace(0.0, 1.0, 11):
            assert closed.rho(alpha) == pytest.approx(quad.rho(alpha), rel=1e-8)

    def test_unequal_covariance_gaussian(self):
        ga = Gaussian([0.5], [[2.0]])
        gb = Gaussian([-0.3], [[0.7]])
        closed = AffinityCurve(ga, gb, ExpTiltWeight([0.3]), mode="closed_form")
        quad = AffinityCurve(ga, gb, ExpTiltWeight([0.3]), mode="quadrature")
        for alpha in (0.2, 0.5, 0.8):
            assert closed.rho(alpha) == pytest.approx(quad.rho(alpha), rel=1e-8)


class TestCurveProperties:
    def test_hoelder_bound(self):
        from wchernoff import weighted_normaliser
        cases = [
            (P2, P1, ExpTiltWeight([0.25])),
            (E2, E1, ExpTiltWeight([0.5])),
            (G1, G0, ExpTiltWeight([-0.5])),
        ]
        for p, q, w in cases:
            ep = weighted_normaliser(p, w)
            eq = weighted_normaliser(q, w)
            for alpha in np.linspace(0.0, 1.0, 11):
                bound = ep ** alpha * eq ** (1.0 - alpha)
                assert rho_w(p, q, w, alpha) <= bound * (1.0 + 1e-12)

    def test_symmetry(self):
        for p, q, w in ((P2, P1, ExpTiltWeight([0.25])), (G1, G0, CONST)):
            for alpha in (0.1, 0.33, 0.8):
                assert rho_w(p, q, w, alpha) == pytest.approx(
                    rho_w(q, p, w, 1.0 - alpha), rel=1e-12)

    def test_symmetric_chernoff_value(self):
        a = chernoff(P2, P1, CONST)
        b = chernoff(P1, P2, CONST)
        assert a.d_c_w == pytest.approx(b.d_c_w, abs=1e-10)
        assert a.alpha_star == pytest.approx(1.0 - b.alpha_star, abs=1e-8)

    def test_midpoint_convexity(self):
        curve = AffinityCurve(P2, P1, ExpTiltWeight([0.25]))
        grid = np.linspace(0.0, 1.0, 101)
        f = np.array([curve.log_rho(a) for a in grid])
        assert np.all(f[:-2] + f[2:] - 2.0 * f[1:-1] >= -1e-9)

    def test_single_letter_factorisation(self):
        # product-space affinity equals the single-letter value to the n-th power
        p = Categorical([0.5, 0.3, 0.2])
        q = Categorical([0.2, 0.2, 0.6])
        w = TableWeight([1.0, 0.5, 2.0])
        alpha = 0.4
        rho1 = rho_w(p, q, w, alpha)
        for n in (2, 3):
            total = 0.0
            for xs in itertools.product(range(3), repeat=n):
                phi = math.prod(w.values[k] for k in xs)
                pp = math.prod(p.probs[k] for k in xs)
                qq = math.prod(q.probs[k] for k in xs)
                total += phi * pp ** alpha * qq ** (1.0 - alpha)
            assert total == pytest.approx(rho1 ** n, rel=1e-12)


class TestChernoff:
    def test_poisson_const(self):
        res = chernoff(P2, P1, CONST)
        assert res.boundary == "interior"
        assert res.alpha_star == pytest.approx(0.528766, abs=1e-6)
        assert res.d_c_w == pytest.approx(0.086071, abs=1e-6)
        # alpha* solves the closed critical-point condition exactly
        tilde = (math.log(log_mean(2.0, 1.0)) - math.log(1.0)) / math.log(2.0)
        assert res.alpha_star == pytest.approx(tilde, abs=1e-12)

    def test_exponential_boundary_at_one(self):
        res = chernoff(E2, E1, ExpTiltWeight([1.0]))
        assert res.boundary == "at_one"
        assert res.alpha_star == 1.0
        assert res.d_c_w == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_exponential_pole_between_rates(self):
        # gamma = 1.5 lies between the rates: theta_alpha leaves the weighted
        # domain near alpha = 0, where F has a +inf pole with slope -inf
        w = ExpTiltWeight([1.5])
        curve = AffinityCurve(E2, E1, w)
        assert curve.log_rho(0.0) == math.inf
        assert curve.derivative(0.0) == -math.inf
        assert curve.derivative(1.0) == pytest.approx(math.log(2.0) - 2.0, rel=1e-14)
        res = chernoff(E2, E1, w)
        assert res.boundary == "at_one"
        assert res.alpha_star == 1.0
        assert res.d_c_w == pytest.approx(-math.log(4.0), rel=1e-14)

    def test_poisson_boundary_at_zero(self):
        res = chernoff(P2, P1, ExpTiltWeight([math.log(2.0)]))
        assert res.boundary == "at_zero"
        assert res.alpha_star == 0.0
        # D_C^w = lam2 - e^gamma lam2 = -1
        assert res.d_c_w == pytest.approx(-1.0, abs=1e-12)

    def test_gaussian_symmetric_case(self):
        res = chernoff(G1, G0, CONST)
        assert res.alpha_star == 0.5
        assert res.d_c_w == pytest.approx(0.125, abs=1e-12)

    def test_gaussian_tilted_alpha(self):
        res = chernoff(G1, G0, ExpTiltWeight([0.25]))
        assert res.alpha_star == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("pair,alpha_star,d_c_w", [
        # the root of F' in 40-digit arithmetic (mpmath 1.3.0), as in TestMoments
        (G_VAR, 0.73873775359814078576, -0.020785624453383231023),
        (G_2D, 0.67023902965491682776, 0.39129376241007083605),
    ])
    def test_tilted_gaussian_pairs_match_high_precision_optimum(self, pair, alpha_star, d_c_w):
        res = chernoff(*pair)
        assert res.boundary == "interior"
        assert res.alpha_star == pytest.approx(alpha_star, rel=1e-12)
        assert res.d_c_w == pytest.approx(d_c_w, rel=1e-12)

    def test_flat_for_identical_models(self):
        res = chernoff(P2, P2, CONST)
        assert res.boundary == "flat"
        assert res.alpha_star == 0.5
        assert res.d_c_w == pytest.approx(0.0, abs=1e-12)

    def test_d_c_w_consistent_with_curve(self):
        res = chernoff(P2, P1, ExpTiltWeight([0.25]))
        curve = AffinityCurve(P2, P1, ExpTiltWeight([0.25]))
        assert res.d_c_w == pytest.approx(-curve.log_rho(res.alpha_star), abs=1e-12)

    def test_interior_residual_small(self):
        res = chernoff(P2, P1, CONST, solver="generic")
        assert res.boundary == "interior"
        assert res.residual <= 1e-10

    def test_unknown_solver(self):
        with pytest.raises(PreconditionError):
            chernoff(P2, P1, CONST, solver="newton")

    @pytest.mark.parametrize("p, q", [(P2, P2), (Cauchy(0.0, 1.0), Cauchy(1e-9, 1.0)),
                                      (Cauchy(1.0, 2.0), Cauchy(1.0, 2.0))])
    def test_flat_pair_reads_plus_zero(self, p, q):
        # D = -F, and F rounds to +0 on these pairs
        res = chernoff(p, q, CONST)
        assert res.boundary == "flat"
        assert math.copysign(1.0, res.d_c_w) == 1.0
        assert res.d_c_w == 0.0

    def test_result_changes_no_other_value(self):
        assert ChernoffResult(0.5, -0.0, "flat", 0, 0.0).d_c_w == 0.0
        assert math.copysign(1.0, ChernoffResult(0.5, -0.0, "flat", 0, 0.0).d_c_w) == 1.0
        for d in (-1.5, 5e-324, -5e-324, math.inf, -math.inf):
            assert ChernoffResult(0.5, d, "interior", 0, 0.0).d_c_w == d
        assert math.isnan(ChernoffResult(0.5, math.nan, "interior", 0, 0.0).d_c_w)


class TestGenericSolverAgreement:
    """The generic root-finding path must reproduce every closed-form answer."""

    CASES = [
        (P2, P1, CONST),
        (P2, P1, ExpTiltWeight([0.25])),
        (P2, P1, ExpTiltWeight([math.log(2.0)])),
        (E2, E1, CONST),
        (E2, E1, ExpTiltWeight([0.5])),
        (E2, E1, ExpTiltWeight([1.0])),
        (G1, G0, CONST),
        (G1, G0, ExpTiltWeight([0.25])),
        (G1, G0, ExpTiltWeight([-0.25])),
    ]

    @pytest.mark.parametrize("p,q,w", CASES)
    def test_matches_closed_form(self, p, q, w):
        closed = chernoff(p, q, w, solver="auto")
        generic = chernoff(p, q, w, solver="generic")
        assert generic.boundary == closed.boundary
        assert generic.alpha_star == pytest.approx(closed.alpha_star, abs=1e-8)
        assert generic.d_c_w == pytest.approx(closed.d_c_w, abs=1e-8)


class TestQuadratureSolver:
    """The generic solver on the quadrature path, against closed forms and grids."""

    @pytest.mark.parametrize("p,q,w", [
        (G0, Gaussian([1.0], [[2.0]]), ExpTiltWeight([0.3])),
        (E2, E1, ExpTiltWeight([0.5])),
    ])
    def test_matches_closed_form(self, p, q, w):
        closed = chernoff(p, q, w)
        generic = chernoff(p, q, w, solver="generic", mode="quadrature")
        assert generic.boundary == closed.boundary == "interior"
        assert abs(generic.alpha_star - closed.alpha_star) <= 1e-7
        assert abs(generic.d_c_w - closed.d_c_w) <= 1e-9

    def test_integral_count(self, monkeypatch):
        calls = []
        integral = _numeric.weighted_power_integral

        def counted(*args, **kwargs):
            calls.append(args)
            return integral(*args, **kwargs)

        monkeypatch.setattr(_numeric, "weighted_power_integral", counted)
        chernoff(G0, Gaussian([1.0], [[2.0]]), ExpTiltWeight([0.3]),
                 solver="generic", mode="quadrature")
        assert 0 < len(calls) <= 24

    @pytest.mark.parametrize("p,q,flip", [
        (G0, Cauchy(0.0, 1.0), False),
        (Cauchy(0.0, 1.0), G0, True),
    ])
    def test_gauss_vs_cauchy_dense_grid(self, p, q, flip):
        # F'(0) is -inf here (E_Cauchy[x^2] diverges) while its quadrature
        # comes back finite and positive; the optimum is interior
        curve = AffinityCurve(p, q, CONST)
        grid = np.linspace(0.0, 1.0, 401)
        vals = np.array([curve.log_rho(a) for a in grid])
        best = int(np.argmin(vals))
        res = chernoff(p, q, CONST)
        assert res.boundary == "interior"
        assert abs(res.alpha_star - grid[best]) <= 1.0 / 400
        assert res.d_c_w >= -vals[best]
        alpha = 1.0 - res.alpha_star if flip else res.alpha_star
        assert alpha == pytest.approx(0.2049601077, abs=1e-6)
        assert res.d_c_w == pytest.approx(0.1490201425703, abs=1e-9)


def test_generic_solver_reports_the_inner_edge_point():
    # Poisson(2) vs Poisson(1) has alpha_tilde = (ln(1/ln 2) - gamma)/ln 2, here 8e-7: inside
    # the edge 1e-6, and nearer to it than to 0, so the edge point has the lower F
    w = ExpTiltWeight([math.log(1.0 / math.log(2.0)) - 0.8e-6 * math.log(2.0)])
    closed = chernoff(P2, P1, w)
    generic = chernoff(P2, P1, w, solver="generic")
    assert closed.alpha_star == pytest.approx(0.8e-6, rel=1e-9)
    assert (generic.alpha_star, generic.boundary, generic.iterations) == (1e-6, "interior", 0)
    assert generic.d_c_w == pytest.approx(closed.d_c_w, abs=1e-13)


class TestNewtonSolver:
    """The generic solve on four pairs, against values frozen from Brent's method.

    The references are scipy.optimize.brentq's on the same curves (xtol
    2e-12), with the number of iterations it took; Newton's method must
    agree to 1e-9 in fewer steps.
    """

    # (p, q, weight, alpha*, D, Brent's iterations)
    PINNED = [
        (G0, Gaussian([1.0], [[2.0]]), ExpTiltWeight([0.3]),
         0.7387377535981654, -0.020785624453383354, 8),
        (G0, Cauchy(0.0, 1.0), CONST, 0.20496011941428993, 0.14902014257034493, 11),
        (E2, E1, ExpTiltWeight([0.5]), 0.9426950408889633, -0.28691348913836295, 7),
        (Cauchy(0.0, 1.0), Cauchy(2.0, 3.0), CONST, 0.4999999999999999, 0.13177673636990744, 3),
    ]

    @pytest.mark.parametrize("p,q,w,alpha,d,brent", PINNED)
    def test_matches_frozen_values_in_fewer_steps(self, p, q, w, alpha, d, brent):
        res = chernoff(p, q, w, solver="generic", mode="quadrature")
        assert res.boundary == "interior"
        assert abs(res.alpha_star - alpha) <= 1e-9
        assert abs(res.d_c_w - d) <= 1e-9
        assert res.iterations < brent

    def test_bisects_toward_the_finite_side_of_a_pole(self):
        # F(t) = -2 ln(1.5 - t) - 10 t is +inf past 1.5 and least at t = 1.3;
        # the first Newton step from 0 leaves the bracket [0, 5]
        def fn(t):
            if t >= 1.5:
                return math.inf, math.inf, math.nan
            u = 1.5 - t
            return -2.0 * math.log(u) - 10.0 * t, 2.0 / u - 10.0, 2.0 / u ** 2

        t, (f, slope, _), steps = newton_minimise(fn, 0.0, fn(0.0), 5.0)
        assert t == pytest.approx(1.3, abs=1e-12)
        assert f == pytest.approx(-2.0 * math.log(0.2) - 13.0, abs=1e-12)
        assert abs(slope) <= 1e-9
        assert 0 < steps < 20

    def test_bisects_where_the_curvature_is_infinite(self):
        # F(t) = (t - 1)^2 reporting F'' = inf: a Newton step -F'/F'' of 0 would
        # end the iteration at its start
        def fn(t):
            return (t - 1.0) ** 2, 2.0 * (t - 1.0), math.inf

        t, (f, slope, _), steps = newton_minimise(fn, 0.0, fn(0.0), 3.0)
        assert t == pytest.approx(1.0, abs=1e-11)
        assert abs(slope) <= 1e-10
        assert steps > 0

    @pytest.mark.parametrize("scale", [1e-160, 1e-155, 1e160])
    def test_exponential_rates_whose_curvature_is_not_a_double(self, scale):
        # F'' = (theta1 - theta2)^2 / theta^2 reads inf (or 0 times inf) at these
        # scales; F(alpha) = alpha ln 2 - ln(1 + alpha) at any common scale
        res = chernoff(Exponential(2.0 * scale), Exponential(scale), CONST, solver="generic")
        assert res.boundary == "interior"
        assert res.iterations > 0
        assert res.alpha_star == pytest.approx(1.0 / math.log(2.0) - 1.0, abs=1e-9)
        assert res.d_c_w == pytest.approx(math.log(2.0) - 1.0 - math.log(math.log(2.0)),
                                          rel=1e-12)

    def test_gaussian_curvature_past_the_largest_double(self):
        # F'' reads +inf near the edges, with no numpy warning (the suite makes warnings
        # errors); D = a(1 - a) delta^2 / (2 (1 + 9 a)), least at 1 - 2a - 9a^2 = 0,
        # up to a log-determinant term below the rounding of D
        res = chernoff(Gaussian([1.0], [[1.0]]), Gaussian([1e154], [[10.0]]), CONST)
        a = (math.sqrt(40.0) - 2.0) / 18.0
        assert res.boundary == "interior"
        assert res.alpha_star == pytest.approx(a, rel=1e-12)
        assert res.d_c_w == pytest.approx(a * (1.0 - a) / (2.0 * (1.0 + 9.0 * a)) * 1e308,
                                          rel=1e-12)


def _spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + np.eye(d)


_RNG8 = np.random.default_rng(8)
G8_P = Gaussian(np.zeros(8), _spd(_RNG8, 8))
G8_Q = Gaussian(_RNG8.normal(0.0, 0.5, 8), _spd(_RNG8, 8))


class TestMoments:
    """(F, F', F'') from one evaluation: closed F'' against differences of the
    closed F', and the generic passes against the closed forms."""

    CLOSED = [
        (P2, P1, ExpTiltWeight([0.25])),
        (E2, E1, ExpTiltWeight([0.5])),
        (G1, G0, ExpTiltWeight([-0.25])),
        G_VAR,
        (G8_P, G8_Q, CONST),
    ]

    @pytest.mark.parametrize("p,q,w", CLOSED)
    @pytest.mark.parametrize("alpha", [-0.2, 0.1, 0.5, 0.9, 1.2])
    def test_closed_curvature_is_the_slope_of_the_closed_derivative(self, p, q, w, alpha):
        curve, h = AffinityCurve(p, q, w), 1e-5
        f, slope, curv = curve.moments(alpha)
        f_lo, slope_lo, _ = curve.moments(alpha - h)
        f_hi, slope_hi, _ = curve.moments(alpha + h)
        assert curv > 0.0
        assert curv == pytest.approx((slope_hi - slope_lo) / (2.0 * h), rel=1e-6)
        assert slope == pytest.approx((f_hi - f_lo) / (2.0 * h), rel=1e-6, abs=1e-9)
        assert f == curve._log_rho(alpha)

    # F(alpha) = ln of the tilted Gaussian integral and its alpha-derivatives, in
    # 40-digit arithmetic (mpmath 1.3.0) at the doubles of the parameters; past
    # the alpha where alpha S_p^-1 + (1 - alpha) S_q^-1 turns indefinite F = +inf
    @pytest.mark.parametrize("pair,alpha,expected", [
        (G_VAR, -0.4, ("1.433450042437673013322156574990212504060",
                       "-4.681204187497805421184603514544442036879",
                       "17.03703703703703860985298858934224173022")),
        (G_VAR, 0.3, ("0.1227899448502462652660704613447587407818",
                      "-0.5380417943354119639606828286944518044390",
                      "1.834319526627218953103335860949310807461")),
        (G_VAR, 1.3, ("0.1188737145920646339457040529905775858872",
                      "0.3097115864992543402156226305213721717187",
                      "0.3723185666146132737794086356664467271196")),
        (G_VAR, -1.5, None),
        (G_2D, -0.4, ("3.952049329579831731383358859854984679917",
                      "-17.73191014859948829142405559842300531265",
                      "99.28641072711147518349282946197975366081")),
        (G_2D, 0.3, ("-0.1162061397603980790777269437840506886079",
                     "-1.544298829376789219157672951597643427376",
                     "5.012232910417278291630263295960912566516")),
        (G_2D, 1.3, ("0.9656347662899937101674848834574463109627",
                     "6.790468634634688193374746087756768408302",
                     "35.14223767494769738727340881564729052097")),
        (G_2D, 2.0, None),
    ])
    def test_gaussian_moments_match_high_precision_values(self, pair, alpha, expected):
        f, slope, curv = AffinityCurve(*pair).moments(alpha)
        if expected is None:
            assert f == math.inf
        else:
            assert (f, slope, curv) == pytest.approx([float(v) for v in expected], rel=1e-12)

    @pytest.mark.parametrize("p,q,w,mode", [
        (P2, P1, ExpTiltWeight([0.25]), "summation"),
        (E2, E1, ExpTiltWeight([0.5]), "quadrature"),
        (*G_VAR, "quadrature"),
    ])
    def test_generic_pass_matches_closed_form(self, p, q, w, mode):
        closed = AffinityCurve(p, q, w)
        generic = AffinityCurve(p, q, w, mode=mode)
        for alpha in (0.1, 0.5, 0.9):
            assert generic.moments(alpha) == pytest.approx(closed.moments(alpha), rel=1e-9)
            assert generic.derivative(alpha) == generic.moments(alpha)[1]


class TestDerivativeOutOfRange:
    """F' is O(1) even where rho leaves the range of a double."""

    def test_constant_table_weight_keeps_alpha_star(self):
        p, q = Categorical([0.5, 0.5]), Categorical([0.25, 0.75])
        tiny = chernoff(p, q, TableWeight([1e-320, 1e-320]))
        ref = chernoff(p, q, CONST)
        assert tiny.alpha_star == pytest.approx(ref.alpha_star, rel=1e-12)
        assert ref.alpha_star == pytest.approx(0.5119228679061, rel=1e-12)
        assert tiny.d_c_w == pytest.approx(ref.d_c_w - math.log(1e-320), rel=1e-12)

    def test_summation_derivative_past_underflow(self):
        p, q, w = Poisson(1.0), Poisson(1e4), ExpTiltWeight([0.1])
        generic = AffinityCurve(p, q, w, mode="summation").derivative(0.25)
        assert generic == pytest.approx(AffinityCurve(p, q, w).derivative(0.25), rel=1e-12)
        assert generic == pytest.approx(-180.0003246861, rel=1e-12)

    def test_generic_summation_solve_past_underflow(self):
        p, q, w = Poisson(1.0), Poisson(1e4), ExpTiltWeight([0.1])
        generic = chernoff(p, q, w, solver="generic", mode="summation")
        closed = chernoff(p, q, w)
        assert generic.boundary == closed.boundary == "interior"
        assert generic.alpha_star == pytest.approx(closed.alpha_star, rel=1e-12)
        assert generic.d_c_w == pytest.approx(closed.d_c_w, rel=1e-12)
        assert closed.alpha_star == pytest.approx(0.25193713996, rel=1e-10)
        assert closed.d_c_w == pytest.approx(6395.25290641, rel=1e-10)


# (p, q, KL, rho_1/2) from 50-digit arithmetic on the same doubles: laws up to
# 1e160 scales apart, where the elliptic modulus rounds to 1, and near-equal laws,
# whose KL is lost in ln(1 + x)
CAUCHY_FIFTY_DIGITS = [
    (Cauchy(0.0, 1.0), Cauchy(1e9, 1.0), 40.060237312772931697, 2.7268223960270005019e-8),
    (Cauchy(1e160, 1.0), Cauchy(0.0, 1.0), 735.44093539697472828, 4.6996132568344435747e-158),
    (Cauchy(0.0, 1.0), Cauchy(1e8, 1.0), 35.455067126784840725, 2.4336481564752291775e-7),
    (Cauchy(-3.0, 0.02), Cauchy(4e10, 70.0), 47.101523984529591351, 9.3920269874984003664e-10),
    (Cauchy(0.0, 1.0), Cauchy(1e-9, 1.0), 2.5000000000000003111e-19, 1.0),
    (Cauchy(1.0, 2.0), Cauchy(1.0, 2.000000000002), 2.5004445226674882427e-25, 1.0),
    (Cauchy(0.5, 3.0), Cauchy(0.5000001, 2.9999999), 5.5555557287244406738e-16,
     0.99999999999999986111),
    # scales and locations near the largest double, where s1 + s2 and l1 - l2 overflow
    (Cauchy(0.0, 1e308), Cauchy(0.0, 1e308), 0.0, 1.0),
    (Cauchy(-1e308, 1.0), Cauchy(1e308, 1.0), 1418.3924172843321414, 4.5237087131033808979e-306),
]


class TestCauchy:
    def test_kl_identical(self):
        assert cauchy_kl(Cauchy(0.0, 1.0), Cauchy(0.0, 1.0)) == 0.0

    def test_kl_examples(self):
        assert cauchy_kl(Cauchy(0.0, 1.0), Cauchy(3.0, 2.0)) == pytest.approx(
            math.log(18.0 / 8.0), rel=1e-12)
        assert cauchy_kl(Cauchy(0.0, 1.0), Cauchy(2.0, 1.0)) == pytest.approx(
            math.log(2.0), rel=1e-12)
        for p, q, kl, _ in CAUCHY_FIFTY_DIGITS:
            assert cauchy_kl(p, q) == pytest.approx(kl, rel=1e-15, abs=0.0), (p, q)

    def test_kl_quadrature_oracle(self):
        p, q = Cauchy(0.0, 1.0), Cauchy(3.0, 2.0)

        def integrand(x):
            lp = p.log_density(x)
            return math.exp(lp) * (lp - q.log_density(x))

        oracle, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
        assert cauchy_kl(p, q) == pytest.approx(oracle, abs=1e-8)

    def test_rho_half_identical(self):
        assert cauchy_bhattacharyya_half(Cauchy(1.0, 2.0), Cauchy(1.0, 2.0)) == pytest.approx(
            1.0, rel=1e-12)
        # k' = g / hypot(g, 0) is 1 exactly, although sqrt(2) sqrt(2) rounds above 2
        assert cauchy_bhattacharyya_half(Cauchy(1.0, 2.0), Cauchy(1.0, 2.0)) == 1.0

    @pytest.mark.parametrize("other", [G0, Poisson(2.0), Exponential(1.0)])
    def test_closed_forms_need_two_cauchy_laws(self, other):
        for call in (cauchy_kl, cauchy_bhattacharyya_half):
            for p, q in ((Cauchy(0.0, 1.0), other), (other, Cauchy(0.0, 1.0))):
                with pytest.raises(PreconditionError, match="two Cauchy models"):
                    call(p, q)

    def test_rho_half_example(self):
        val = cauchy_bhattacharyya_half(Cauchy(0.0, 1.0), Cauchy(2.0, 1.0))
        assert val == pytest.approx(0.8346268, abs=1e-6)

        def integrand(x):
            return math.exp(0.5 * (Cauchy(0.0, 1.0).log_density(x)
                                   + Cauchy(2.0, 1.0).log_density(x)))

        oracle, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
        assert val == pytest.approx(oracle, abs=1e-8)
        for p, q, _, rho in CAUCHY_FIFTY_DIGITS:
            val = cauchy_bhattacharyya_half(p, q)
            assert val == pytest.approx(rho, rel=1e-15, abs=0.0), (p, q)

    def test_scale_ratio_special_case(self):
        # l1 = l2, s1 = 4, s2 = 1: (4*2/(5 pi)) K(9/25)
        val = cauchy_bhattacharyya_half(Cauchy(0.0, 4.0), Cauchy(0.0, 1.0))
        assert val == pytest.approx(8.0 / (5.0 * math.pi) * elliptic_k(9.0 / 25.0), rel=1e-13)

    def test_weighted_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            cauchy_bhattacharyya_half(Cauchy(0.0, 1.0), Cauchy(2.0, 1.0),
                                      ExpTiltWeight([0.1]))

    def test_grid_max_at_half(self):
        p, q = Cauchy(0.0, 1.0), Cauchy(2.0, 1.0)
        curve = AffinityCurve(p, q, CONST)
        grid = np.linspace(0.01, 0.99, 197)
        vals = [-curve.log_rho(a) for a in grid]
        best = grid[int(np.argmax(vals))]
        assert abs(best - 0.5) <= 0.006  # coarse grid bracket around the optimum
        res = chernoff(p, q, CONST)
        assert abs(res.alpha_star - 0.5) <= 1e-6
        assert res.d_c_w == pytest.approx(-math.log(cauchy_bhattacharyya_half(p, q)),
                                          abs=1e-8)


class TestCauchyChernoff:
    """Two Cauchy laws under the auto solver: alpha* = 1/2 and D = -ln rho_1/2, no integral."""

    def test_takes_no_integral(self, monkeypatch):
        calls = []
        integral = _numeric.weighted_power_integral

        def counted(*args, **kwargs):
            calls.append(args)
            return integral(*args, **kwargs)

        monkeypatch.setattr(_numeric, "weighted_power_integral", counted)
        res = chernoff(Cauchy(0.0, 1.0), Cauchy(2.0, 1.5), CONST)
        assert (res.alpha_star, res.boundary, res.iterations, res.residual) == (
            0.5, "interior", 0, 0.0)
        assert calls == []
        chernoff(Cauchy(0.0, 1.0), Cauchy(2.0, 1.5), CONST, mode="quadrature")
        assert calls

    def test_fifty_digit_values(self):
        # near rho = 1 the error of D is the absolute rounding of rho, not a relative one
        for p, q, _, rho in CAUCHY_FIFTY_DIGITS:
            res = chernoff(p, q, CONST)
            assert res.alpha_star == 0.5
            assert res.d_c_w == pytest.approx(-math.log(rho), rel=1e-15, abs=1e-15), (p, q)
            assert res.boundary == ("flat" if -math.log(rho) < 1e-12 else "interior")

    @pytest.mark.parametrize("scale, d", [(1e10, 8.7694274039705213),
                                          (1e150, 167.29679124076142)])
    def test_scales_out_of_the_quadrature_reach(self, scale, d):
        res = chernoff(Cauchy(1.0, 1.0), Cauchy(1.0, scale), CONST)
        assert (res.alpha_star, res.boundary) == (0.5, "interior")
        assert res.d_c_w == pytest.approx(d, rel=1e-15)
        with pytest.raises(ConvergenceError, match="more than 200 intervals"):
            chernoff(Cauchy(1.0, 1.0), Cauchy(1.0, scale), CONST, mode="quadrature")

    def test_identical_pair_is_flat(self):
        # sqrt(2) sqrt(2) rounds above 2, but k' = g / hypot(g, 0) is 1, so D is +0
        res = chernoff(Cauchy(1.0, 2.0), Cauchy(1.0, 2.0), CONST)
        assert (res.alpha_star, res.boundary) == (0.5, "flat")
        assert abs(res.d_c_w) <= 1e-15
        assert math.copysign(1.0, res.d_c_w) == 1.0 and res.d_c_w == 0.0

    def test_underflowing_rho_half_is_typed(self):
        p, q = Cauchy(0.0, 1e-300), Cauchy(1e300, 1e-300)
        for call in (cauchy_bhattacharyya_half, lambda p, q: chernoff(p, q, CONST)):
            with pytest.raises(ConvergenceError, match="cauchy rho_1/2 underflows a double"):
                call(p, q)

    @pytest.mark.parametrize("p, q", [
        (Cauchy(0.0, 1.0), Cauchy(2.0, 1.5)),
        (Cauchy(0.0, 1.0), Cauchy(2.0, 3.0)),
        (Cauchy(-1.0, 0.5), Cauchy(3.0, 4.0)),
        (Cauchy(0.0, 1.0), Cauchy(0.0, 100.0)),
    ])
    def test_generic_quadrature_agrees(self, p, q):
        closed = chernoff(p, q, CONST)
        generic = chernoff(p, q, CONST, solver="generic", mode="quadrature")
        assert generic.boundary == "interior"
        assert generic.alpha_star == pytest.approx(0.5, abs=1e-9)
        assert generic.d_c_w == pytest.approx(closed.d_c_w, rel=1e-12)


class TestPreconditions:
    def test_mixed_sample_spaces(self):
        with pytest.raises(UnsupportedCombinationError):
            rho_w(P2, E1, CONST, 0.5)

    def test_exponential_gamma_above_both_rates(self):
        with pytest.raises(PreconditionError):
            chernoff(E2, E1, ExpTiltWeight([2.5]))

    def test_exponential_gamma_at_min_rate_allowed(self):
        res = chernoff(E2, E1, ExpTiltWeight([1.0]))
        assert res.boundary == "at_one"

    def test_cauchy_tilt_rejected(self):
        with pytest.raises(PreconditionError):
            chernoff(Cauchy(0.0, 1.0), Cauchy(1.0, 1.0), ExpTiltWeight([0.2]))

    @pytest.mark.parametrize("mode", ["bogus", "Quadrature", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(PreconditionError, match="unknown mode"):
            AffinityCurve(P2, P1, CONST, mode=mode)
        with pytest.raises(PreconditionError, match="unknown mode"):
            chernoff(P2, P1, CONST, mode=mode)

    @pytest.mark.parametrize("p, q", [
        (Cauchy(0.0, 1.0), Cauchy(1.0, 2.0)),
        (G0, Cauchy(1.0, 2.0)),
        (Categorical([0.5, 0.5]), Categorical([0.25, 0.75])),
    ])
    def test_closed_form_mode_needs_a_closed_form(self, p, q):
        with pytest.raises(PreconditionError, match="no closed-form curve"):
            AffinityCurve(p, q, CONST, mode="closed_form")
        with pytest.raises(PreconditionError, match="no closed-form curve"):
            chernoff(p, q, CONST, mode="closed_form")


class TestEqualCovarianceGaussian:
    """F(a) = -a(1-a)|delta|^2/2 + g'mu_a + g'Sigma g/2 is quadratic in a, so
    one Newton step from 1/2 lands on a~ = 1/2 - g'delta/|delta|^2, with
    |delta|^2 = delta' Sigma^-1 delta and delta = mu_p - mu_q."""

    @staticmethod
    def pair(dim, seed):
        rng = np.random.default_rng(seed)
        root = rng.normal(size=(dim, dim))
        cov = root @ root.T + dim * np.eye(dim)
        return Gaussian(rng.normal(size=dim), cov), Gaussian(rng.normal(size=dim), cov)

    @pytest.mark.parametrize("dim, seed", [(2, 1), (8, 2)])
    @pytest.mark.parametrize("tilted", [False, True])
    def test_newton_matches_the_closed_critical_point(self, dim, seed, tilted):
        p, q = self.pair(dim, seed)
        delta = p.mean - q.mean
        norm2 = float(delta @ np.linalg.solve(p.cov, delta))
        # a tilt along delta that moves a~ to 0.3, inside (0, 1)
        g = 0.2 * norm2 * delta / float(delta @ delta) if tilted else np.zeros(dim)
        w = ExpTiltWeight(g) if tilted else CONST
        tilde = 0.5 - float(g @ delta) / norm2
        mu = tilde * p.mean + (1.0 - tilde) * q.mean
        d = 0.5 * tilde * (1.0 - tilde) * norm2 - float(g @ mu) - 0.5 * float(g @ p.cov @ g)
        res = chernoff(p, q, w)
        assert res.boundary == "interior"
        assert abs(res.alpha_star - tilde) <= 1e-12
        assert abs(res.d_c_w - d) <= 1e-12
        # at the constant weight 1/2 is already the minimiser: no step is taken
        assert res.iterations == (1 if tilted else 0)
