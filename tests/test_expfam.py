"""Exponential-family structure, weighted Bregman geometry, identity suite."""

import math
import sys

import numpy as np
import pytest
from scipy import integrate, stats

from wchernoff import (
    AffinityCurve,
    Categorical,
    Cauchy,
    ChernoffArc,
    ConstWeight,
    ConvergenceError,
    ExpFamily1D,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    NonIntegrableWeightError,
    Poisson,
    PreconditionError,
    TableWeight,
    UnsupportedCombinationError,
    chernoff,
    chernoff_arc_derivative,
    chernoff_efficiency,
    exponential_family,
    family_of_pair,
    gaussian_mean_family,
    poisson_family,
    verify_identities,
    weighted_bregman,
    weighted_kl,
    weighted_normaliser,
)
from wchernoff.models import poisson_truncation

P2, P1 = Poisson(2.0), Poisson(1.0)
E2, E1 = Exponential(2.0), Exponential(1.0)
G1 = Gaussian([1.0], [[1.0]])
G0 = Gaussian([0.0], [[1.0]])
CONST = ConstWeight()


def _families_with_grids():
    return [
        (poisson_family(0.0), np.linspace(-1.0, 1.5, 9)),
        (poisson_family(0.25), np.linspace(-1.0, 1.5, 9)),
        (exponential_family(0.0), np.linspace(-4.0, -0.5, 9)),
        (exponential_family(0.5), np.linspace(-4.0, -0.8, 9)),
        (gaussian_mean_family(1.0, 0.0), np.linspace(-2.0, 2.0, 9)),
        (gaussian_mean_family(1.5, 0.25), np.linspace(-2.0, 2.0, 9)),
    ]


class TestExpFamily1D:
    def test_fhat_is_f_plus_lne(self):
        for fam, grid in _families_with_grids():
            for t in grid:
                assert fam.Fhat(t) == pytest.approx(fam.F(t) + fam.lnE(t), abs=1e-10)

    def test_convexity_on_grid(self):
        for fam, grid in _families_with_grids():
            f = np.array([fam.F(t) for t in grid])
            fh = np.array([fam.Fhat(t) for t in grid])
            for arr in (f, fh):
                assert np.all(arr[:-2] + arr[2:] - 2.0 * arr[1:-1] >= -1e-10)

    def test_dfhat_matches_central_differences(self):
        for fam, grid in _families_with_grids():
            for t in grid:
                h = 1e-6 * max(1.0, abs(t))
                numeric = (fam.Fhat(t + h) - fam.Fhat(t - h)) / (2.0 * h)
                assert fam.dFhat(t) == pytest.approx(numeric, rel=1e-6)

    def test_ghat_inverts_dfhat(self):
        for fam, grid in _families_with_grids():
            for t in grid:
                assert fam.Ghat(fam.dFhat(t)) == pytest.approx(t, rel=1e-10, abs=1e-10)

    def test_legendre_dual_consistency(self):
        # F*(F'(t)) = t F'(t) - F(t) and grad F* inverts F'
        for fam, grid in _families_with_grids():
            for t in grid:
                y = fam.dF(t)
                assert fam.Fstar(y) == pytest.approx(t * y - fam.F(t), abs=1e-10)
                assert fam.dFstar(y) == pytest.approx(t, rel=1e-12)

    def test_domain_enforced(self):
        fam = exponential_family(0.5)
        with pytest.raises(PreconditionError):
            fam.check_theta(-0.4)  # rate 0.4 < gamma

    def test_normaliser_matches_models(self):
        # E_phi of the family and of the model against the moment generating
        # function E e^(gamma X) of each model
        for g in (-0.4, 0.25, 0.5):
            cases = [
                (poisson_family(g), math.log(2.0), Poisson(2.0),
                 math.exp(2.0 * math.expm1(g))),
                (exponential_family(g), -2.0, Exponential(2.0), 2.0 / (2.0 - g)),
                (gaussian_mean_family(1.5, g), 0.6 / 1.5, Gaussian([0.6], [[1.5]]),
                 math.exp(g * 0.6 + 0.5 * g * g * 1.5)),
            ]
            for fam, theta, model, mgf in cases:
                assert fam.E_phi(theta) == pytest.approx(mgf, rel=1e-12)
                assert weighted_normaliser(model, ExpTiltWeight([g])) == pytest.approx(
                    mgf, rel=1e-12)

    @pytest.mark.parametrize("fam, model", [
        (poisson_family(0.3), Poisson(2.0)),
        (exponential_family(-0.4), Exponential(2.0)),
        (gaussian_mean_family(1.5, 0.25), Gaussian([0.6], [[1.5]])),
    ], ids=["poisson", "exponential", "gaussian_mean"])
    def test_draw_sum_has_the_law_of_s(self, fam, model):
        # S = x_1 + ... + x_n has mean n F'(theta) and variance n F''(theta); the tilt
        # does not enter the law of S under the model itself
        n, count = 7, 200_000
        theta = fam.theta_of_model(model)
        s = fam.draw_sum(model, n, np.random.default_rng(3), count)
        mean, var = n * fam.dF(theta), n * fam.root_d2F(theta) ** 2
        dev = (s - s.mean()) ** 2
        assert abs(s.mean() - mean) <= 4.0 * math.sqrt(var / count)
        assert abs(dev.mean() - var) <= 4.0 * dev.std() / math.sqrt(count)

    @pytest.mark.parametrize("fam, model", [
        (poisson_family(0.3), Poisson(2.0)),
        (exponential_family(-0.4), Exponential(2.0)),
        (gaussian_mean_family(1.5, 0.25), Gaussian([0.6], [[1.5]])),
    ], ids=["poisson", "exponential", "gaussian_mean"])
    def test_model_at_inverts_theta_of_model(self, fam, model):
        theta = fam.theta_of_model(model)
        assert fam.model_at(theta) == model
        assert fam.theta_of_model(fam.model_at(theta - 0.5)) == pytest.approx(theta - 0.5,
                                                                              rel=1e-15)

    def test_poisson_model_at_an_underflowing_mean(self):
        # e^-800 is 0 in a double: the member keeps the least positive rate, and draws S = 0
        member = poisson_family().model_at(-800.0)
        assert member.lam == sys.float_info.min
        assert not member.sample(np.random.default_rng(0), 1000).any()

    def test_lattice_holds_the_law_of_s(self):
        # the Poisson S = 0..K of a mean carries all but 1e-16 of the law; the
        # continuous families have none
        fam, model, n = poisson_family(0.0), Poisson(3.5), 40
        s = fam.lattice(n * model.lam)
        assert np.array_equal(s, np.arange(poisson_truncation(n * model.lam) + 1.0))
        assert stats.poisson.sf(s[-1], n * 3.5) < 1e-16
        assert np.allclose(fam.sum_logpmf(model, n, s), stats.poisson.logpmf(s, n * 3.5),
                           rtol=1e-12, atol=0.0)
        for other in (exponential_family(0.0), gaussian_mean_family(1.0)):
            assert other.lattice is None and other.sum_logpmf is None

    @pytest.mark.parametrize("gamma", [-0.4, 0.0, 0.25, 0.5])
    def test_derived_members_match_literal_formulas(self, gamma):
        # the weighted members read F at theta + gamma; the references are the
        # formulas each family once wrote out by hand
        g, s2 = gamma, 1.5
        c = math.expm1(g)
        literal = {
            "poisson": (poisson_family(g), np.linspace(-1.0, 1.5, 9), (-math.inf, math.inf),
                        lambda t: c * math.exp(t), lambda t: c * math.exp(t),
                        lambda t: math.exp(t + g), lambda y: math.log(y) - g),
            "exponential": (exponential_family(g), np.linspace(-4.0, -0.8, 9),
                            (-math.inf, min(0.0, -g)),
                            lambda t: math.log(-t) - math.log(-t - g),
                            lambda t: 1.0 / t - 1.0 / (t + g),
                            lambda t: 1.0 / (-t - g), lambda y: -g - 1.0 / y),
            "gaussian_mean": (gaussian_mean_family(s2, g), np.linspace(-2.0, 2.0, 9),
                              (-math.inf, math.inf),
                              lambda t: g * s2 * t + 0.5 * g * g * s2, lambda t: g * s2,
                              lambda t: s2 * (t + g), lambda y: y / s2 - g),
        }
        for fam, grid, domain, lne, dlne, dfhat, ghat in literal.values():
            assert fam.domain == domain
            for t in grid:
                # F(theta + gamma) - F(theta) loses relative precision as gamma -> 0
                assert fam.lnE(t) == pytest.approx(lne(t), rel=1e-12, abs=1e-12)
                assert fam.dlnE(t) == pytest.approx(dlne(t), rel=1e-12, abs=0.0)
                assert fam.dFhat(t) == pytest.approx(dfhat(t), rel=1e-12, abs=0.0)
                y = dfhat(t)
                assert fam.Ghat(y) == pytest.approx(ghat(y), rel=1e-12, abs=0.0)


class TestFamilyOfPair:
    def test_poisson_pair(self):
        fam, t1, t2 = family_of_pair(P2, P1, CONST)
        assert fam.name == "poisson"
        assert t1 == pytest.approx(math.log(2.0))
        assert t2 == pytest.approx(0.0)

    def test_mixed_families_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            family_of_pair(P2, E1, CONST)

    def test_unequal_gaussian_variances_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            family_of_pair(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), CONST)

    def test_table_weight_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            family_of_pair(P2, P1, TableWeight([1.0, 2.0]))


class TestWeightedKL:
    def test_equal_models_zero(self):
        assert weighted_kl(P2, P2, ExpTiltWeight([0.25])) == pytest.approx(0.0, abs=1e-12)

    def test_poisson_const(self):
        assert weighted_kl(P2, P1, CONST) == pytest.approx(2.0 * math.log(2.0) - 1.0,
                                                           rel=1e-12)

    def test_poisson_tilt_vs_summation_oracle(self):
        g = 0.25
        val = weighted_kl(P2, P1, ExpTiltWeight([g]))
        ks = np.arange(poisson_truncation(2.0 * math.exp(g)) + 1)
        lp = P2.log_density(ks)
        lq = P1.log_density(ks)
        oracle = float(np.sum(np.exp(g * ks + lp) * (lp - lq)))
        assert val == pytest.approx(oracle, rel=1e-10)
        # closed form from E_phi and the tilted mean
        closed = math.exp(2.0 * (math.exp(g) - 1.0)) * (2.0 * math.exp(g) * math.log(2.0) - 1.0)
        assert val == pytest.approx(closed, rel=1e-12)

    def test_exponential_tilt_vs_quadrature_oracle(self):
        g = 0.5
        val = weighted_kl(E2, E1, ExpTiltWeight([g]))

        def integrand(x):
            lp = E2.log_density(x)
            return math.exp(g * x + lp) * (lp - E1.log_density(x))

        oracle, _ = integrate.quad(integrand, 0.0, np.inf)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_gaussian_tilt_vs_quadrature_oracle(self):
        g = 0.3
        val = weighted_kl(G1, G0, ExpTiltWeight([g]))

        def integrand(x):
            lp = G1.log_density([x])
            return math.exp(g * x + lp) * (lp - G0.log_density([x]))

        oracle, _ = integrate.quad(integrand, -np.inf, np.inf)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_exponential_needs_only_p_tilt(self):
        # gamma = 1.5 is integrable against Exp(2) but not against Exp(1)
        w = ExpTiltWeight([1.5])
        assert weighted_kl(E2, E1, w) == pytest.approx(-5.2274112777602, rel=1e-12)
        with pytest.raises(PreconditionError):
            weighted_kl(E1, E2, w)

    def test_multivariate_gaussian_vs_quadrature_oracle(self):
        # D^w_KL(p || q) for a product of 1-D laws is a sum over coordinates
        # of E_phi(p) / E_phi(p_i) times each coordinate's weighted KL
        p = Gaussian([0.5, -1.0], [[1.0, 0.0], [0.0, 2.0]])
        q = Gaussian([0.0, 0.0], [[1.5, 0.0], [0.0, 1.0]])
        g = np.array([0.3, -0.2])
        marg = []
        for i in range(2):
            pi = Gaussian([p.mean[i]], [[p.cov[i, i]]])
            qi = Gaussian([q.mean[i]], [[q.cov[i, i]]])

            def integrand(x, pi=pi, qi=qi, gi=g[i]):
                lp = pi.log_density([x])
                return math.exp(gi * x + lp) * (lp - qi.log_density([x]))

            kl_i, _ = integrate.quad(integrand, -np.inf, np.inf)
            marg.append((kl_i, weighted_normaliser(pi, ExpTiltWeight([g[i]]))))
        oracle = marg[0][0] * marg[1][1] + marg[1][0] * marg[0][1]
        assert weighted_kl(p, q, ExpTiltWeight(g)) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("p,q,g,expected", [
        (G0, Gaussian([1.0], [[2.0]]), [0.3], 0.1820858251071866342919085),
        (Gaussian([0.0, 1.0], [[1.0, 0.3], [0.3, 2.0]]),
         Gaussian([1.0, -1.0], [[2.0, -0.4], [-0.4, 1.0]]), [0.3, -0.2], 1.548007530879907904),
    ], ids=["unequal_variance", "correlated_2d"])
    def test_tilted_gaussian_vs_high_precision_value(self, p, q, g, expected):
        # E_phi(p) F'(1) of the tilted Gaussian integral in 40-digit arithmetic (mpmath 1.3.0)
        assert weighted_kl(p, q, ExpTiltWeight(g)) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("gamma", [0.0, 0.7, -1.2])
    def test_gaussian_against_cauchy_vs_quadrature_oracle(self, gamma):
        # the direct-integral branch: no closed form, and under a tilt the
        # affinity curve rejects the pair (the tilt is not integrable against q)
        p, q = Gaussian([0.5], [[1.5]]), Cauchy(-1.0, 2.0)
        w = ExpTiltWeight([gamma])
        if gamma != 0.0:
            with pytest.raises(NonIntegrableWeightError):
                AffinityCurve(p, q, w)
        log_p = stats.norm(0.5, math.sqrt(1.5)).logpdf
        log_q = stats.cauchy(-1.0, 2.0).logpdf
        oracle, _ = integrate.quad(
            lambda x: math.exp(gamma * x + log_p(x)) * (log_p(x) - log_q(x)),
            -np.inf, np.inf, epsabs=0.0, epsrel=1e-12)
        assert weighted_kl(p, q, w) == pytest.approx(oracle, rel=1e-9)

    def test_cauchy_const(self):
        assert weighted_kl(Cauchy(0.0, 1.0), Cauchy(3.0, 2.0), CONST) == pytest.approx(
            math.log(18.0 / 8.0), rel=1e-12)

    def test_normaliser_overflow_raises(self):
        # E_phi(p) = e^14795: no double holds the weighted KL
        with pytest.raises(ConvergenceError):
            weighted_kl(Poisson(42283.65), Poisson(1.77e-7), ExpTiltWeight([0.3]))

    def test_categorical_with_table(self):
        p = Categorical([0.5, 0.5])
        q = Categorical([0.25, 0.75])
        w = TableWeight([1.0, 2.0])
        expected = (1.0 * 0.5 * math.log(0.5 / 0.25)
                    + 2.0 * 0.5 * math.log(0.5 / 0.75))
        assert weighted_kl(p, q, w) == pytest.approx(expected, rel=1e-12)

    def test_categorical_supports_of_different_size_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            weighted_kl(Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5]), CONST)

    def test_cauchy_against_gaussian_is_infinite(self):
        # ln q ~ -x^2/2 has no mean under Cauchy tails; the other way round is finite
        assert weighted_kl(Cauchy(0.0, 1.0), Gaussian([0.5], [[1.0]]), CONST) == math.inf
        assert 0.0 < weighted_kl(Gaussian([0.5], [[1.0]]), Cauchy(0.0, 1.0), CONST) < math.inf

    def test_categorical_weight_overflow_is_typed(self):
        # phi = e^(1000 k) overflows a double at k = 1, and so does E_phi(p) = e^999.3:
        # the KL of p against itself is still F'(1) = 0, that against q is e^999.3 F'(1)
        p = Categorical([0.5, 0.5])
        assert weighted_kl(p, p, ExpTiltWeight([1000.0])) == 0.0
        with pytest.raises(ConvergenceError, match="weighted KL .* overflows a double"):
            weighted_kl(p, Categorical([0.25, 0.75]), ExpTiltWeight([1000.0]))

    def test_normaliser_past_the_largest_double_with_a_finite_kl(self):
        # E_phi(p) = e^710.3 is not a double, E_phi(p) F'(1) = 6.07e298 is: the KL reads
        # sign(F'(1)) e^(F(1) + ln|F'(1)|).  6.0726278807886980e298 is the 40-digit value
        # (mpmath) for these doubles; ln p/q ~ 2e-10 is formed as ln p - ln q, whose
        # rounding leaves about 1e-10 of it
        kl = weighted_kl(Categorical([0.5, 0.5]), Categorical([0.5000000001, 0.4999999999]),
                         ExpTiltWeight([711.0]))
        assert kl == pytest.approx(6.0726278807886980e298, rel=1e-9)
        # e^711 phi(1) p(1) ln(p/q)(1) = -e^709.4, the symbol 0 term 0.5 ln 2 below its ulp
        kl = weighted_kl(Categorical([0.5, 0.5]), Categorical([0.25, 0.75]),
                         ExpTiltWeight([711.0]))
        assert kl == pytest.approx(-math.exp(711.0 + math.log(0.5 * math.log(1.5))), rel=1e-12)

    def test_categorical_infinite_when_q_vanishes(self):
        p = Categorical([0.5, 0.5])
        q = Categorical([1.0, 0.0])
        assert weighted_kl(p, q, CONST) == math.inf

    def test_categorical_tilt_past_the_range_of_phi(self):
        # phi = e^800 overflows a double at k = 1, phi p = e^109 does not: the value is
        # -1.8814230554515146e50 in 40-digit arithmetic (mpmath)
        kl = weighted_kl(Categorical([1.0, 1e-300]), Categorical([0.5, 0.5]),
                         ExpTiltWeight([800.0]))
        assert kl == pytest.approx(-1.8814230554515146e50, rel=1e-12)

    def test_product_past_the_largest_double_is_typed(self):
        # E_phi(p) = e^(gamma^2/2) is a double at gamma = 37.6, E_phi(p) F'(1) = -3.66e308 is not
        with pytest.raises(ConvergenceError, match="weighted KL .* overflows a double"):
            weighted_kl(G0, G1, ExpTiltWeight([37.6]))
        assert weighted_kl(G0, G1, ExpTiltWeight([37.0])) == pytest.approx(
            -6.868560488259079e298, rel=1e-14)

    def test_categorical_fuzz_against_the_symbol_sum(self, probs_with_zeros):
        # the sum over the symbols where phi p > 0, +inf where q vanishes on one of them
        def oracle(p, q, w):
            k = np.arange(p.size)
            with np.errstate(over="ignore", divide="ignore"):
                phi = w.value(k)
                live = (p.probs > 0.0) & (phi > 0.0)
                if np.any(q.probs[live] == 0.0):
                    return math.inf, math.inf
                terms = phi[live] * p.probs[live] * (np.log(p.probs[live])
                                                     - np.log(q.probs[live]))
            return float(np.sum(terms)), float(np.sum(np.abs(terms)))

        rng = np.random.default_rng(27)
        worst, infinite = 0.0, 0
        for _ in range(2000):
            size = int(rng.integers(2, 13))
            p = Categorical(probs_with_zeros(rng, size))
            q = Categorical(probs_with_zeros(rng, size, 0.03))
            kind = rng.integers(3)
            w = (CONST if kind == 0 else ExpTiltWeight([rng.uniform(-3.0, 3.0)]) if kind == 1
                 else TableWeight(probs_with_zeros(rng, p.size) * p.size))
            expected, scale = oracle(p, q, w)
            kl = weighted_kl(p, q, w)
            if expected == math.inf:
                infinite += 1
                assert kl == math.inf
            else:
                worst = max(worst, abs(kl - expected) / scale if scale else abs(kl))
        assert worst <= 1e-13
        assert 100 < infinite < 500

    def test_categorical_weight_without_mass_under_p(self):
        # phi p = 0 on every symbol: the integral is 0, though no tilted p exists
        p, q = Categorical([0.5, 0.5, 0.0]), Categorical([0.2, 0.3, 0.5])
        assert weighted_kl(p, q, TableWeight([0.0, 0.0, 1.0])) == 0.0


class TestWeightedBregman:
    def test_zero_at_equal_arguments(self):
        fam = poisson_family(0.25)
        assert weighted_bregman(fam, 0.3, 0.3) == 0.0

    def test_poisson_const_example(self):
        fam = poisson_family(0.0)
        val = weighted_bregman(fam, math.log(2.0), 0.0)
        assert val == pytest.approx(2.0 - 1.0 - math.log(2.0), rel=1e-12)

    def test_kl_as_bregman(self):
        # D^w_KL(p_t1 || p_t2) = B^w(t2, t1) across families and weights
        cases = [
            (P2, P1, CONST),
            (P2, P1, ExpTiltWeight([0.25])),
            (E2, E1, CONST),
            (E2, E1, ExpTiltWeight([0.5])),
            (G1, G0, ExpTiltWeight([0.25])),
        ]
        for p, q, w in cases:
            fam, t1, t2 = family_of_pair(p, q, w)
            assert weighted_kl(p, q, w) == pytest.approx(
                weighted_bregman(fam, t2, t1), rel=1e-10, abs=1e-10)

    def test_domain_violation(self):
        fam = exponential_family(0.5)
        with pytest.raises(PreconditionError):
            weighted_bregman(fam, -2.0, -0.3)

    def test_normaliser_overflow_raises(self):
        # E_phi(7) = e^1884 under the Poisson family tilted by gamma = 1
        with pytest.raises(ConvergenceError):
            weighted_bregman(poisson_family(1.0), 0.0, 7.0)


class TestChernoffArc:
    CASES = [
        (P2, P1, ExpTiltWeight([0.25])),
        (E2, E1, ExpTiltWeight([0.5])),
        (G1, G0, CONST),
    ]

    @pytest.mark.parametrize("p,q,w", CASES)
    def test_normalisation(self, p, q, w):
        arc = ChernoffArc(AffinityCurve(p, q, w))
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert arc.total_mass(alpha) == pytest.approx(1.0, abs=1e-8)

    def test_needs_a_curve(self):
        with pytest.raises(PreconditionError, match="ChernoffArc needs an AffinityCurve"):
            ChernoffArc((P2, P1, CONST))

    def test_endpoints_are_tilted_densities(self):
        w = ExpTiltWeight([0.25])
        arc = ChernoffArc(AffinityCurve(P2, P1, w))
        e_p = weighted_normaliser(P2, w)
        for k in (0, 1, 3, 6):
            tilted = 0.25 * k + P2.log_density(k) - math.log(e_p)
            assert arc.log_density(1.0, np.array([float(k)]))[0] == pytest.approx(
                tilted, abs=1e-12)

    def test_no_density_off_the_count_support(self):
        arc = ChernoffArc(AffinityCurve(P2, P1, CONST))
        assert arc.log_density(0.5, np.array([1.5, -1.0])).tolist() == [-math.inf, -math.inf]

    def test_zero_exponent_keeps_the_support(self):
        # 0 ln 0 reads as -inf, the a -> 0+ limit the integrals use, not as nan
        arc = ChernoffArc(AffinityCurve(P2, P1, CONST))
        assert arc.log_density(0.0, np.array([1.5, 1.0])).tolist() == [-math.inf, -1.0]
        # rho(0) = q's mass on p's support, 1/2, so the arc at 0 is q / (1/2) there
        arc = ChernoffArc(AffinityCurve(Categorical([1.0, 0.0]), Categorical([0.5, 0.5]), CONST))
        for alpha in (0.0, 1.0):
            assert arc.log_density(alpha, np.array([0, 1])).tolist() == [0.0, -math.inf]

    def test_derivative_endpoint_identities(self):
        # F'(1) = D^w_KL(p||q)/E_phi(p), F'(0) = -D^w_KL(q||p)/E_phi(q)
        for p, q, w in self.CASES:
            curve = AffinityCurve(p, q, w)
            e_p = weighted_normaliser(p, w)
            e_q = weighted_normaliser(q, w)
            assert chernoff_arc_derivative(curve, 1.0) == pytest.approx(
                weighted_kl(p, q, w) / e_p, rel=1e-9)
            assert chernoff_arc_derivative(curve, 0.0) == pytest.approx(
                -weighted_kl(q, p, w) / e_q, rel=1e-9)

    def test_derivative_zero_for_equal_models(self):
        curve = AffinityCurve(P2, P2, CONST)
        for alpha in (0.2, 0.5, 0.9):
            assert chernoff_arc_derivative(curve, alpha) == pytest.approx(0.0, abs=1e-12)

    def test_stationarity_at_alpha_star(self):
        res = chernoff(P2, P1, CONST)
        curve = AffinityCurve(P2, P1, CONST)
        assert chernoff_arc_derivative(curve, res.alpha_star) == pytest.approx(0.0, abs=1e-8)
        assert chernoff_arc_derivative(curve, 1.0) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-10)


class TestVerifyIdentities:
    FIXTURES = [
        (P2, P1, CONST),
        (P2, P1, ExpTiltWeight([0.25])),
        (E2, E1, CONST),
        (E2, E1, ExpTiltWeight([0.5])),
        (G1, G0, CONST),
        (G1, G0, ExpTiltWeight([0.25])),
    ]

    @pytest.mark.parametrize("p,q,w", FIXTURES)
    def test_all_applicable_residuals_small(self, p, q, w):
        report = verify_identities(p, q, w)
        assert report["max_applicable_residual"] < 1e-8
        for name, entry in report["identities"].items():
            if entry["applicable"]:
                assert entry["residual"] < 1e-8, name

    @pytest.mark.parametrize("rate_p, rate_q, gamma", [
        # the KL is 1.45e16 and the Bregman gap of (vi) 6.71e268: absolute
        # residuals read 2.0 and 1.47e253, about 1e-16 of each
        (1.725e8, 6.55e24, -1.066e8),
        (1.9207515969529325e126, 2.4982874599203663e-143, -3.6610888312308955e-144),
    ])
    def test_residuals_are_relative_at_large_magnitudes(self, rate_p, rate_q, gamma):
        report = verify_identities(Exponential(rate_p), Exponential(rate_q),
                                   ExpTiltWeight([gamma]))
        assert report["identities"]["kl_as_bregman"]["residual"] <= 1e-15
        assert report["identities"]["primal_dual"]["residual"] <= 1e-15
        assert report["max_applicable_residual"] <= 1e-10

    def test_boundary_case_marks_not_applicable(self):
        report = verify_identities(P2, P1, ExpTiltWeight([math.log(2.0)]))
        assert report["boundary"] == "at_zero"
        for name in ("bisector", "chernoff_kl", "bregman_arc", "one_parameter_alpha"):
            assert not report["identities"][name]["applicable"]
        # the alpha-free identities still hold
        assert report["identities"]["kl_as_bregman"]["residual"] < 1e-8
        assert report["identities"]["primal_dual"]["residual"] < 1e-8
        assert report["identities"]["jensen_decomposition"]["residual"] < 1e-8

    def test_equal_models_flat(self):
        report = verify_identities(P2, P2, CONST)
        assert report["boundary"] == "flat"
        assert report["max_applicable_residual"] < 1e-8
        assert not report["identities"]["bisector"]["applicable"]

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedCombinationError):
            verify_identities(Cauchy(0.0, 1.0), Cauchy(1.0, 1.0), CONST)

    def test_wrong_closed_forms_show(self, monkeypatch):
        # (v) and (vii) are checked against the summed curve, so an error in
        # the family's Ghat or lnE cannot cancel against itself
        ghat, lne = ExpFamily1D.Ghat, ExpFamily1D.lnE
        monkeypatch.setattr(ExpFamily1D, "Ghat", lambda self, y: ghat(self, y) + 0.01)
        monkeypatch.setattr(ExpFamily1D, "lnE", lambda self, t: lne(self, t) + 0.01)
        report = verify_identities(P2, P1, ExpTiltWeight([0.3]))
        assert report["boundary"] == "interior"
        assert report["identities"]["one_parameter_alpha"]["residual"] > 1e-8
        assert report["identities"]["jensen_decomposition"]["residual"] > 1e-8


class TestChernoffEfficiency:
    def test_equal_designs(self):
        assert chernoff_efficiency(0.3, 0.3) == 1.0

    def test_poisson_doubling(self):
        d1 = chernoff(Poisson(2.0), Poisson(1.0), CONST).d_c_w
        d2 = chernoff(Poisson(4.0), Poisson(2.0), CONST).d_c_w
        assert chernoff_efficiency(d1, d2) == pytest.approx(0.5, rel=1e-10)

    def test_gaussian_separation(self):
        d1 = chernoff(Gaussian([1.0], [[1.0]]), G0, CONST).d_c_w
        d2 = chernoff(Gaussian([2.0], [[1.0]]), G0, CONST).d_c_w
        assert chernoff_efficiency(d1, d2) == pytest.approx(0.25, rel=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(PreconditionError):
            chernoff_efficiency(0.1, 0.0)
