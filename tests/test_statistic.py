"""The statistic layer under the loss engine, against independent oracles.

Exact Poisson losses are sums over S = sum x_i and categorical losses sums
over count vectors; Monte Carlo draws S or the counts.  Each is checked
here against a brute-force product-space sum, a quadrature over the law of
S, or a direct enumeration of the n-fold product space.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from wchernoff import (
    BinaryTestProblem,
    Categorical,
    ConstWeight,
    ConvergenceError,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    MAryProblem,
    Poisson,
    StateSpaceOverflowError,
    TableWeight,
    UnsupportedCombinationError,
    chernoff,
    mary_optimal_loss,
    optimal_loss_exact,
    optimal_loss_mc,
    tail_frequency,
    weighted_tv,
)
from wchernoff import _numeric, testing
from wchernoff.models import poisson_truncation

CONST = ConstWeight()
TILT = ExpTiltWeight([0.3])


def product_space(models, weight, n, ks):
    """phi^n and p_i^n on the full n-fold product of the points `ks`."""
    phi = np.exp(_numeric.log_weight_vec(weight, ks))
    dens = [np.exp(_numeric.logpdf_vec(m, ks)) for m in models]

    def power(v):
        out = v
        for _ in range(n - 1):
            out = np.multiply.outer(out, v)
        return out.ravel()

    return power(phi), [power(d) for d in dens]


def poisson_points(models, weight):
    gamma = weight.scalar if isinstance(weight, ExpTiltWeight) else 0.0
    top = math.exp(max(gamma, 0.0)) * max(m.lam for m in models)
    return np.arange(poisson_truncation(top) + 1)


class TestPoissonSumAgainstProductSpace:
    PAIR = (Poisson(2.0), Poisson(1.0))
    TRIPLE = (Poisson(1.0), Poisson(2.0), Poisson(4.0))

    @pytest.mark.parametrize("weight", [CONST, TILT])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_binary_loss_and_tv(self, weight, n):
        phi, (pn, qn) = product_space(self.PAIR, weight, n, poisson_points(self.PAIR, weight))
        prob = BinaryTestProblem(*self.PAIR, weight, n)
        assert optimal_loss_exact(prob).value == pytest.approx(
            float(np.sum(phi * np.minimum(pn, qn))), rel=1e-12)
        assert weighted_tv(prob) == pytest.approx(
            float(0.5 * np.sum(phi * np.abs(pn - qn))), rel=1e-12)

    @pytest.mark.parametrize("weight", [CONST, TILT])
    def test_mary_loss(self, weight):
        phi, dens = product_space(self.TRIPLE, weight, 2, poisson_points(self.TRIPLE, weight))
        dens = np.stack(dens)
        oracle = float(np.sum(phi * (dens.sum(axis=0) - dens.max(axis=0))))
        assert mary_optimal_loss(MAryProblem(self.TRIPLE, weight), 2).value == pytest.approx(
            oracle, rel=1e-12)


class TestPoissonLargeN:
    def test_exponent_approaches_chernoff_from_above(self):
        d_c = chernoff(Poisson(2.0), Poisson(1.0), CONST).d_c_w
        assert d_c == pytest.approx(0.0860713, abs=1e-7)
        vals = [optimal_loss_exact(BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, n))
                .exponent_estimate for n in (10, 100, 1000)]
        assert vals == pytest.approx([0.1669598, 0.1030905, 0.0888798], abs=1e-7)
        assert vals[0] > vals[1] > vals[2] >= d_c

    def test_gap_is_half_log_n_over_n(self):
        # Bahadur-Rao: L_n* ~ C n^(-1/2) e^(-n D), so n (E_n - D) - ln(n) / 2
        # settles to -ln C; the lattice of S makes it wobble by about 0.01
        d_c = chernoff(Poisson(2.0), Poisson(1.0), CONST).d_c_w
        rest = []
        for n in (1000, 10_000, 100_000):
            est = optimal_loss_exact(BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, n))
            rest.append(n * (est.exponent_estimate - d_c) - 0.5 * math.log(n))
        assert max(rest) - min(rest) < 0.03

    def test_overflowing_loss_is_typed(self):
        # e^(10 S) outgrows every Poisson mass: the loss is about e^(2e5)
        pair, w = (Poisson(2.0), Poisson(1.0)), ExpTiltWeight([10.0])
        with pytest.raises(ConvergenceError):
            optimal_loss_exact(BinaryTestProblem(*pair, w, 10))
        with pytest.raises(ConvergenceError):
            mary_optimal_loss(MAryProblem(pair, w), 10)
        with pytest.raises(ConvergenceError):
            weighted_tv(BinaryTestProblem(*pair, w, 10))

    def test_mary_sandwich_at_large_n(self):
        models, n = (Poisson(1.0), Poisson(2.0), Poisson(4.0)), 1000
        total = mary_optimal_loss(MAryProblem(models, CONST), n).value
        pairwise = [optimal_loss_exact(BinaryTestProblem(models[i], models[j], CONST, n)).value
                    for i in range(3) for j in range(i + 1, 3)]
        assert 0.0 < max(pairwise) <= total * (1.0 + 1e-12)
        assert total <= sum(pairwise) * (1.0 + 1e-12)


def _loss_over_law_of_s(log_pdf_p, log_pdf_q, gamma, lo, cross):
    """Integral of e^(gamma s) min(f_P(s), f_Q(s)), split where the densities cross."""

    def f(s):
        return math.exp(gamma * s + min(log_pdf_p(s), log_pdf_q(s)))

    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
               for a, b in ((lo, cross), (cross, math.inf)))


class TestMonteCarloOnTheStatistic:
    N = 20
    REPLICATES = 100_000

    def test_exponential_tilted_pair(self):
        rp, rq, g, n = 2.0, 1.0, 0.5, self.N
        oracle = _loss_over_law_of_s(
            lambda s: stats.gamma.logpdf(s, n, scale=1.0 / rp),
            lambda s: stats.gamma.logpdf(s, n, scale=1.0 / rq),
            g, 0.0, n * math.log(rp / rq) / (rp - rq))
        est = optimal_loss_mc(BinaryTestProblem(Exponential(rp), Exponential(rq),
                                                ExpTiltWeight([g]), n), self.REPLICATES, seed=5)
        assert est.std_error > 0.0
        assert abs(est.value - oracle) <= 4.0 * est.std_error

    def test_shared_variance_gaussian_tilted_pair(self):
        mp, mq, var, g, n = 0.0, 1.0, 1.5, 0.3, self.N
        sd = math.sqrt(n * var)
        oracle = _loss_over_law_of_s(
            lambda s: stats.norm.logpdf(s, n * mp, sd),
            lambda s: stats.norm.logpdf(s, n * mq, sd),
            g, -math.inf, 0.5 * n * (mp + mq))
        est = optimal_loss_mc(BinaryTestProblem(Gaussian([mp], [[var]]), Gaussian([mq], [[var]]),
                                                ExpTiltWeight([g]), n), self.REPLICATES, seed=6)
        assert est.std_error > 0.0
        assert abs(est.value - oracle) <= 4.0 * est.std_error

    def test_equal_models_tie_to_h1(self):
        # llr = 0 exactly on every draw of S: the P-side holds all the mass
        prob = BinaryTestProblem(Exponential(2.0), Exponential(2.0), ExpTiltWeight([0.5]), 5)
        est = optimal_loss_mc(prob, 2000, seed=0)
        e_phi = (2.0 / 1.5) ** 5
        assert est.value == pytest.approx(e_phi, abs=4.0 * est.std_error + 1e-12)

    def test_unequal_variances_keep_the_sample(self):
        prob = BinaryTestProblem(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), CONST, 3)
        assert isinstance(testing._statistic((prob.model_p, prob.model_q), CONST, 3),
                          testing._SampleStatistic)
        a = optimal_loss_mc(prob, 5000, seed=1)
        assert a == optimal_loss_mc(prob, 5000, seed=1)


def _categorical_oracle(p, q, weight, n):
    """(L_n*, TV_phi) by direct enumeration of the k^n product space."""
    k = p.size
    phi, (pn, qn) = product_space((p, q), weight, n, np.arange(k))
    return float(np.sum(phi * np.minimum(pn, qn))), float(0.5 * np.sum(phi * np.abs(pn - qn)))


class TestCategoricalCounts:
    def test_zero_mass_symbol(self):
        # symbol 2 is impossible under P; 0 * ln 0 must not poison the sums
        p, q = Categorical([0.5, 0.5, 0.0]), Categorical([0.25, 0.25, 0.5])
        w = TableWeight([1.0, 2.0, 3.0])
        prob = BinaryTestProblem(p, q, w, 4)
        loss, tv = _categorical_oracle(p, q, w, 4)
        exact = optimal_loss_exact(prob).value
        assert exact == pytest.approx(loss, rel=1e-12)
        assert weighted_tv(prob) == pytest.approx(tv, rel=1e-12)
        est = optimal_loss_mc(prob, 100_000, seed=2)
        assert abs(est.value - exact) <= 4.0 * est.std_error

    def test_zero_weight_symbol(self):
        # a zero table entry removes the states that use the symbol, not all of them
        p, q = Categorical([0.5, 0.3, 0.2]), Categorical([0.2, 0.3, 0.5])
        w = TableWeight([0.0, 1.0, 2.0])
        prob = BinaryTestProblem(p, q, w, 3)
        loss, tv = _categorical_oracle(p, q, w, 3)
        assert optimal_loss_exact(prob).value == pytest.approx(loss, rel=1e-12)
        assert weighted_tv(prob) == pytest.approx(tv, rel=1e-12)
        est = optimal_loss_mc(prob, 100_000, seed=3)
        assert abs(est.value - loss) <= 4.0 * est.std_error

    def test_tail_frequency_on_counts(self):
        # two symbols: L* is a function of the count of symbol 1, Binomial(n, q_1)
        p, q, n, beta = Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), 50, 0.25
        k = np.arange(n + 1)
        llr = k * math.log(0.75 / 0.5) + (n - k) * math.log(0.25 / 0.5)
        exact = float(stats.binom.pmf(k[llr >= beta * n], n, 0.75).sum())
        freq, se = tail_frequency(BinaryTestProblem(p, q, CONST, n), beta, n, 100_000, seed=4)
        assert abs(freq - exact) <= 4.0 * se

    def test_supports_of_different_size_rejected(self):
        prob = MAryProblem((Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5])), CONST)
        with pytest.raises(UnsupportedCombinationError):
            mary_optimal_loss(prob, 2)


class TestCountMatrix:
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (1, 4), (3, 4), (6, 3), (2, 7), (20, 2)])
    def test_rows_in_combination_order(self, n, k):
        ref = np.array([np.bincount(c, minlength=k)
                        for c in itertools.combinations_with_replacement(range(k), n)])
        assert np.array_equal(testing._count_matrix(n, k), ref)

    def test_budget_counts_cells(self):
        # 3,162,510 rows of 50 symbols: 1.6e8 cells, 1.3 GB of int64
        with pytest.raises(StateSpaceOverflowError):
            testing._count_matrix(5, 50)
        # 2,667,126 rows of 4 symbols: 1.07e7 cells
        with pytest.raises(StateSpaceOverflowError):
            testing._count_matrix(250, 4)


def test_divergent_quadrature_is_typed():
    # int p^-1 q^2 for Exp(2), Exp(1) is the integral of 1/2 over [0, inf)
    with pytest.raises(ConvergenceError):
        _numeric.weighted_power_integral(Exponential(2.0), Exponential(1.0), CONST, -1.0, 2.0)
