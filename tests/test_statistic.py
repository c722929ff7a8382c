"""The statistic layer under the loss engine, against independent oracles.

Exact Poisson losses are sums over S = sum x_i and categorical losses sums
over count vectors; Monte Carlo draws S or the counts.  Each is checked
here against a brute-force product-space sum, a quadrature over the law of
S, or a direct enumeration of the n-fold product space.
"""

import concurrent.futures
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special, stats

from wchernoff import (
    BinaryTestProblem,
    Categorical,
    Cauchy,
    ConstWeight,
    ConvergenceError,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    MAryProblem,
    Poisson,
    PreconditionError,
    StateSpaceOverflowError,
    TableWeight,
    UnsupportedCombinationError,
    chernoff,
    mary_optimal_loss,
    optimal_loss_exact,
    optimal_loss_mc,
    tail_frequency,
    validate_combination,
    weighted_kl,
    weighted_tv,
)
from wchernoff import _numeric, testing
from wchernoff.models import poisson_truncation

CONST = ConstWeight()
TILT = ExpTiltWeight([0.3])


def product_space(models, weight, n, ks):
    """phi^n and p_i^n on the full n-fold product of the points `ks`."""
    phi = np.exp(weight.log_value(ks))
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

    @pytest.mark.parametrize("gamma", [0.0, 0.3, -0.4])
    def test_log_loss_against_scipy_poisson_sums(self, gamma):
        # phi^n p^n summed over {S = s} is e^(gamma s) Poi(s; n lam)
        models, priors = (Poisson(1.0), Poisson(2.0), Poisson(4.0)), np.array([0.2, 0.5, 0.3])
        w = ExpTiltWeight([gamma])
        for n in (1, 10, 100, 1000):
            s = np.arange(12 * n + 200)
            logs = np.stack([gamma * s + stats.poisson.logpmf(s, n * m.lam) for m in models])
            binary = special.logsumexp(np.minimum(logs[1], logs[0]))
            logs += np.log(priors)[:, None]
            logs[np.argmax(logs, axis=0), np.arange(s.size)] = -np.inf  # sum - max
            mary = special.logsumexp(logs)
            for ref, est in (
                    (binary, optimal_loss_exact(BinaryTestProblem(models[1], models[0], w, n))),
                    (mary, mary_optimal_loss(MAryProblem(models, w, tuple(priors)), n))):
                assert -n * est.exponent_estimate == pytest.approx(
                    ref, rel=1e-13, abs=1e-13)

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

    def test_arc_member_with_a_mean_below_the_least_double(self):
        # phi = e^(-800 S) leaves S = 0 alone: L = e^(-n max lam), which direct draws missed
        # (0 +- 0); the member's mean e^(theta + gamma) underflows, and it draws S = 0
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), ExpTiltWeight([-800.0]), 10)
        est = optimal_loss_mc(prob, 2000, seed=0)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(math.exp(-20.0), rel=1e-12)
        assert est.value == pytest.approx(optimal_loss_exact(prob).value, rel=1e-12)

    def test_unequal_variances_keep_the_sample(self):
        prob = BinaryTestProblem(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), CONST, 3)
        assert isinstance(testing._statistic((prob.model_p, prob.model_q), CONST, 3),
                          testing._SampleStatistic)
        a = optimal_loss_mc(prob, 5000, seed=1)
        assert a == optimal_loss_mc(prob, 5000, seed=1)


class TestOneEngine:
    """The binary loss is the two-model M-ary loss without priors."""

    @pytest.mark.parametrize("p,q,w,n", [
        (Poisson(2.0), Poisson(1.0), TILT, 4),
        (Exponential(2.0), Exponential(1.0), ExpTiltWeight([0.5]), 5),
        (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), CONST, 3),
        (Categorical([0.2, 0.3, 0.5]), Categorical([0.4, 0.4, 0.2]),
         TableWeight([1.0, 2.0, 0.5]), 6),
        # every draw ties: the later model (H1) wins, as in the binary rule
        (Exponential(2.0), Exponential(2.0), ExpTiltWeight([0.5]), 5),
    ])
    def test_monte_carlo(self, p, q, w, n):
        binary = optimal_loss_mc(BinaryTestProblem(p, q, w, n), 3000, seed=4)
        assert mary_optimal_loss(MAryProblem((p, q), w), n, "monte_carlo", 3000, 4) == binary

    @pytest.mark.parametrize("p,q,w", [
        (Categorical([0.2, 0.3, 0.5]), Categorical([0.4, 0.4, 0.2]), TableWeight([1.0, 2.0, 0.5])),
        (Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), CONST),
        (Categorical([0.5, 0.5, 0.0]), Categorical([0.2, 0.3, 0.5]), CONST),
    ])
    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_exact(self, p, q, w, n):
        binary = optimal_loss_exact(BinaryTestProblem(p, q, w, n))
        assert mary_optimal_loss(MAryProblem((p, q), w), n) == binary


class TestInfiniteVarianceGuard:
    """Direct Monte Carlo refuses a score e^(gamma S) 1{error} with no second moment;
    the arc estimator of a pair has a score of at most 1, and answers."""

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_binary_is_answered(self, gamma):
        # 2 gamma reaches the rate of P = Exponential(2): direct draws under P had no variance
        rp, rq, n = 2.0, 1.0, 5
        oracle = _loss_over_law_of_s(
            lambda s: stats.gamma.logpdf(s, n, scale=1.0 / rp),
            lambda s: stats.gamma.logpdf(s, n, scale=1.0 / rq),
            gamma, 0.0, n * math.log(rp / rq) / (rp - rq))
        prob = BinaryTestProblem(Exponential(rp), Exponential(rq), ExpTiltWeight([gamma]), n)
        est = optimal_loss_mc(prob, 20_000, seed=1)
        assert est.std_error > 0.0
        assert abs(est.value - oracle) <= 4.0 * est.std_error

    def test_mary_raises(self):
        models = (Exponential(4.0), Exponential(3.0), Exponential(2.0))
        with pytest.raises(ConvergenceError, match="infinite variance"):
            mary_optimal_loss(MAryProblem(models, ExpTiltWeight([1.5])), 5, "monte_carlo", 2000)
        assert mary_optimal_loss(MAryProblem(models, ExpTiltWeight([1.4])), 5,
                                 "monte_carlo", 2000).std_error > 0.0

    def test_model_winning_large_s_is_exempt(self):
        # 2 gamma exceeds the rate of Q = Exponential(2), but Q errs only below the crossing
        rp, rq, g, n = 4.0, 2.0, 1.5, 5
        oracle = _loss_over_law_of_s(
            lambda s: stats.gamma.logpdf(s, n, scale=1.0 / rp),
            lambda s: stats.gamma.logpdf(s, n, scale=1.0 / rq),
            g, 0.0, n * math.log(rp / rq) / (rp - rq))
        est = optimal_loss_mc(BinaryTestProblem(Exponential(rp), Exponential(rq),
                                                ExpTiltWeight([g]), n), 20_000, seed=1)
        assert abs(est.value - oracle) <= 4.0 * est.std_error


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
        # alpha* = 0: the arc member draws no symbol 2, and p^n / q^n = 2^n on what it draws,
        # so every replicate scores the same and the estimate is the loss itself
        est = optimal_loss_mc(prob, 100_000, seed=2)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(exact, rel=1e-12)

    def test_zero_weight_symbol(self):
        # a zero table entry removes the states that use the symbol, not all of them
        p, q = Categorical([0.5, 0.3, 0.2]), Categorical([0.2, 0.3, 0.5])
        w = TableWeight([0.0, 1.0, 2.0])
        prob = BinaryTestProblem(p, q, w, 3)
        loss, tv = _categorical_oracle(p, q, w, 3)
        assert optimal_loss_exact(prob).value == pytest.approx(loss, rel=1e-12)
        assert weighted_tv(prob) == pytest.approx(tv, rel=1e-12)
        # alpha* = 1: q^n >= p^n on every state the arc member draws, so each scores 1
        est = optimal_loss_mc(prob, 100_000, seed=3)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(loss, rel=1e-12)

    def test_tail_frequency_on_counts(self):
        # two symbols: L* is a function of the count of symbol 1, Binomial(n, q_1)
        p, q, n, beta = Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), 50, 0.25
        k = np.arange(n + 1)
        llr = k * math.log(0.75 / 0.5) + (n - k) * math.log(0.25 / 0.5)
        exact = float(stats.binom.pmf(k[llr >= beta * n], n, 0.75).sum())
        freq, se = tail_frequency(BinaryTestProblem(p, q, CONST, n), beta, n, 100_000, seed=4)
        assert abs(freq - exact) <= 4.0 * se

    def test_supports_of_different_size_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            prob = MAryProblem((Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5])), CONST)
            mary_optimal_loss(prob, 2)


class TestTableWeightLength:
    """A table weight needs one entry per symbol at every entry point."""

    MESSAGE = "table weight length does not match categorical support size"

    @pytest.mark.parametrize("p,q,values", [
        # an extra entry was silently ignored: loss 1.8125, that of [1, 2]
        (Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), [1.0, 2.0, 5.0]),
        # a missing entry raised a bare IndexError
        (Categorical([0.2, 0.3, 0.5]), Categorical([0.3, 0.3, 0.4]), [1.0, 2.0]),
    ])
    def test_rejected(self, p, q, values):
        w = TableWeight(values)
        assert validate_combination(p, w) == [self.MESSAGE]
        with pytest.raises(PreconditionError, match=self.MESSAGE):
            optimal_loss_exact(BinaryTestProblem(p, q, w, 2))
        with pytest.raises(PreconditionError, match=self.MESSAGE):
            weighted_kl(p, q, w)
        with pytest.raises(PreconditionError, match=self.MESSAGE):
            mary_optimal_loss(MAryProblem((p, q), w), 2)


class TestCountMatrix:
    @pytest.mark.parametrize("n,k", [(1, 1), (3, 1), (1, 4), (3, 4), (6, 3), (2, 7), (20, 2),
                                     (60, 4), (30, 4), (12, 6), (1, 50)])
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



class TestSharedCountTable:
    """Count vectors and their multinomial coefficients are enumerated once per (n, k),
    shared read-only, and cached within STATE_BUDGET cells in total."""

    P4, Q4 = Categorical([0.1, 0.2, 0.3, 0.4]), Categorical([0.25] * 4)
    R4, S4 = Categorical([0.4, 0.3, 0.2, 0.1]), Categorical([0.05, 0.15, 0.3, 0.5])

    @pytest.fixture
    def builds(self, monkeypatch):
        """An empty cache, and the (n, k) of every _count_matrix call."""
        monkeypatch.setattr(testing, "_COUNT_TABLES", {})
        calls, build = [], testing._count_matrix

        def counting(n, k):
            calls.append((n, k))
            return build(n, k)

        monkeypatch.setattr(testing, "_count_matrix", counting)
        return calls

    @staticmethod
    def cached_cells():
        return sum(states.size for states, _ in testing._COUNT_TABLES.values())

    def test_one_build_per_size(self, builds):
        # 455 count vectors at n = 12: 2000 replicates draw one histogram
        weights = (CONST, TableWeight([1.0, 1.2, 0.8, 1.1]))
        for (p, q), w in itertools.product(((self.P4, self.Q4), (self.R4, self.S4)), weights):
            prob = BinaryTestProblem(p, q, w, 12)
            optimal_loss_exact(prob)
            weighted_tv(prob)
            optimal_loss_mc(prob, 2000, seed=1)
            mary_optimal_loss(MAryProblem((p, q, self.Q4), w), 12)
        assert builds == [(12, 4)]
        stats_ = [testing._statistic(pair, CONST, 12) for pair in ((self.P4, self.Q4),
                                                                   (self.R4, self.S4))]
        assert stats_[0].states is stats_[1].states

    def test_table_is_read_only(self, builds):
        states, log_mult = testing._count_table(6, 4)
        for array in (states, log_mult):
            with pytest.raises(ValueError):
                array[0] = 1.0
            with pytest.raises(ValueError):
                array += 1.0
        stat = testing._statistic((self.P4, self.Q4), CONST, 6)
        with pytest.raises(ValueError):
            stat.states[0, 0] = 1.0

    def test_cache_holds_at_most_the_budget(self, builds, monkeypatch):
        # 84 x 4 = 336 cells at n = 6, 21 x 2 = 42 at n = 20, 455 x 4 = 1820 at n = 12 and
        # 10 x 3 = 30 at n = 3: the first three fit in 2200 cells, and the fourth empties the
        # cache before it is built
        monkeypatch.setattr(testing, "STATE_BUDGET", 2200)
        first = [a.copy() for a in testing._count_table(20, 2)]
        for n, k in ((6, 4), (12, 4), (6, 4), (3, 3), (20, 2)):
            testing._count_table(n, k)
            assert self.cached_cells() <= 2200
            if (n, k) == (3, 3):
                assert list(testing._COUNT_TABLES) == [(3, 3)]
        assert builds == [(20, 2), (6, 4), (12, 4), (3, 3), (20, 2)]
        assert list(testing._COUNT_TABLES) == [(3, 3), (20, 2)]
        for old, new in zip(first, testing._count_table(20, 2)):
            assert old.dtype == new.dtype and old.tobytes() == new.tobytes()
        # a table past the budget is refused and drops nothing
        held = dict(testing._COUNT_TABLES)
        with pytest.raises(StateSpaceOverflowError):
            testing._count_table(30, 4)
        assert dict(testing._COUNT_TABLES) == held

    def test_threads_share_one_build(self, builds):
        barrier = threading.Barrier(8)

        def build(_):
            barrier.wait(timeout=30)
            return testing._count_table(40, 4)

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            tables = [f.result(timeout=60) for f in [pool.submit(build, i) for i in range(8)]]
        assert builds == [(40, 4)]
        assert all(t is tables[0] for t in tables)

    def test_threads_keep_the_budget(self, builds, monkeypatch):
        # eight threads on few cores, switching often, over sizes that do not all fit in
        # 2200 cells: each table read has the bits of one enumeration, and the cache
        # stays within the budget
        monkeypatch.setattr(testing, "STATE_BUDGET", 2200)
        sizes = [(6, 4), (20, 2), (12, 4), (3, 3)]
        ref = {size: [a.tobytes() for a in testing._count_table(*size)] for size in sizes}
        testing._COUNT_TABLES.clear()

        def work(i):
            for j in range(40):
                size = sizes[(i + j) % len(sizes)]
                assert [a.tobytes() for a in testing._count_table(*size)] == ref[size]
                with testing._COUNT_TABLES_LOCK:
                    assert self.cached_cells() <= 2200

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                for future in [pool.submit(work, i) for i in range(8)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)

    def test_same_bits_cold_and_warm(self, builds):
        prob = BinaryTestProblem(self.P4, self.Q4, TableWeight([1.0, 1.2, 0.8, 1.1]), 30)
        cold = optimal_loss_exact(prob), weighted_tv(prob)
        testing._COUNT_TABLES.clear()
        other = BinaryTestProblem(self.R4, self.S4, CONST, 30)
        optimal_loss_exact(other), weighted_tv(other), optimal_loss_mc(other, 10_000, seed=2)
        assert (optimal_loss_exact(prob), weighted_tv(prob)) == cold
        assert builds == [(30, 4), (30, 4)]

class TestFrozenOutputs:
    """Reference outputs of the statistic layer: Monte Carlo rows of the arc estimator
    must match to the bit (and sit within 4 SE of a quadrature over the law of S), as must
    its histograms, the tail frequency, M-ary draws and the exact sums of the count matrix
    (also held to 1e-13 of the itertools-built one)."""

    def test_monte_carlo_rows_to_the_bit(self):
        # a full row chunk and a short one of 7: T is continuous, so no histogram
        reps, n = testing.MC_CHUNK + 7, 20
        exp = optimal_loss_mc(BinaryTestProblem(Exponential(2.0), Exponential(1.0),
                                                ExpTiltWeight([0.5]), n), reps, seed=5)
        gauss = optimal_loss_mc(BinaryTestProblem(Gaussian([0.0], [[1.0]]),
                                                  Gaussian([1.0], [[1.0]]), TILT, n),
                                reps, seed=6)
        assert (exp.value, exp.std_error) == (167.20674678280713, 0.36201703342023883)
        assert (gauss.value, gauss.std_error) == (0.628354102179181, 0.001581749031099668)
        exp_oracle = _loss_over_law_of_s(
            lambda s: stats.gamma.logpdf(s, n, scale=0.5),
            lambda s: stats.gamma.logpdf(s, n, scale=1.0), 0.5, 0.0, n * math.log(2.0))
        sd = math.sqrt(n)
        gauss_oracle = _loss_over_law_of_s(
            lambda s: stats.norm.logpdf(s, 0.0, sd), lambda s: stats.norm.logpdf(s, n, sd),
            0.3, -math.inf, 0.5 * n)
        assert abs(exp.value - exp_oracle) <= 4.0 * exp.std_error
        assert abs(gauss.value - gauss_oracle) <= 4.0 * gauss.std_error

    def test_exact_categorical_sums(self):
        p, q = Categorical([0.1, 0.2, 0.3, 0.4]), Categorical([0.25] * 4)
        loss = optimal_loss_exact(BinaryTestProblem(p, q, CONST, 60))
        assert -60 * loss.exponent_estimate == pytest.approx(-2.7553508221673386, rel=1e-13)
        assert loss.value == pytest.approx(0.06358670812854961, rel=1e-13)
        tv = weighted_tv(BinaryTestProblem(p, q, TableWeight([1.0, 1.2, 0.8, 1.1]), 30))
        assert tv == pytest.approx(1.5890685099822321, rel=1e-13)
        models = (Categorical([0.2, 0.3, 0.5]), Categorical([0.4, 0.4, 0.2]),
                  Categorical([0.1, 0.6, 0.3]))
        mary = mary_optimal_loss(MAryProblem(models, TableWeight([1.0, 1.2, 0.8]),
                                             (0.2, 0.3, 0.5)), 25)
        assert mary.value == pytest.approx(0.1273447708435341, rel=1e-13)
        # and to the bit
        assert (loss.value, loss.exponent_estimate) == (0.06358670812854961, 0.04592251370278898)
        assert tv == 1.5890685099822321
        assert (mary.value, mary.exponent_estimate) == (0.1273447708435341, 0.08243428558796038)

    def test_histogram_arc_to_the_bit(self):
        # 5456 count vectors of four symbols at n = 30: one histogram per chunk
        p, q = Categorical([0.1, 0.2, 0.3, 0.4]), Categorical([0.25] * 4)
        prob = BinaryTestProblem(p, q, TableWeight([1.0, 1.2, 0.8, 1.1]), 30)
        est = optimal_loss_mc(prob, 100_000, seed=3)
        assert (est.value, est.std_error) == (0.3661031219610943, 0.0006917233243547808)

    def test_arc_with_a_zero_mass_symbol_to_the_bit(self):
        # the states that use symbol 3 have ln p^n = -inf: each scores 0 and is never drawn
        p, q = Categorical([0.5, 0.3, 0.2, 0.0]), Categorical([0.25] * 4)
        prob = BinaryTestProblem(p, q, TableWeight([1.0, 2.0, 0.5, 3.0]), 6)
        est = optimal_loss_mc(prob, 2000, seed=4)
        assert (est.value, est.std_error) == (0.4478649551369629, 0.00021811895024500315)
        assert abs(est.value - optimal_loss_exact(prob).value) <= 4.0 * est.std_error

    def test_tail_frequency_to_the_bit(self):
        prob = BinaryTestProblem(Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), CONST, 200)
        assert tail_frequency(prob, 0.19, 200, 50_000, seed=7) == (0.04006264611069432,
                                                                   0.0002514593638464639)

    def test_mary_monte_carlo_to_the_bit(self):
        # three models draw directly, one histogram of S per model
        problem = MAryProblem((Poisson(1.0), Poisson(2.0), Poisson(4.0)), CONST)
        est = mary_optimal_loss(problem, 10, "monte_carlo", 50_000, 9)
        assert (est.value, est.std_error) == (0.24844000000000002, 0.0021070230373681255)


def test_monte_carlo_chunk_scores_in_place():
    # a chunk of 1e5 rows of S takes 8e5 bytes; drawing and scoring it holds at most four
    # such arrays at once
    prob = BinaryTestProblem(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]]), TILT, 20)
    optimal_loss_mc(prob, testing.MC_CHUNK, seed=0)
    tracemalloc.start()
    try:
        optimal_loss_mc(prob, testing.MC_CHUNK, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * testing.MC_CHUNK


def test_poisson_tilt_past_the_largest_double_is_typed():
    # e^800 overflows a double: the tilted mean of the exact sum and of the family's F
    prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), ExpTiltWeight([800.0]), 1)
    for call in (optimal_loss_exact, weighted_tv,
                 lambda pr: chernoff(pr.model_p, pr.model_q, pr.weight),
                 lambda pr: chernoff(pr.model_p, pr.model_q, pr.weight, solver="generic")):
        with pytest.raises(ConvergenceError, match="overflows a double"):
            call(prob)


def test_overflowing_quadrature_mass_reads_inf():
    # int p^-1/2 q^3/2 for N(0, 1), Cauchy grows like e^(x^2/4): ln I = +inf, as a sum
    # reads it, and its moments are undefined
    gauss, cauchy = Gaussian([0.0], [[1.0]]), Cauchy(0.0, 1.0)
    assert _numeric.weighted_power_integral(gauss, cauchy, CONST, -0.5) == (math.inf,)
    with pytest.raises(ConvergenceError, match="moments under it are undefined"):
        _numeric.weighted_power_integral(gauss, cauchy, CONST, -0.5, moments=True)


def test_divergent_quadrature_is_typed():
    # int p^-1 q^2 for Exp(2), Exp(1) is the integral of 1/2 over [0, inf)
    with pytest.raises(ConvergenceError):
        _numeric.weighted_power_integral(Exponential(2.0), Exponential(1.0), CONST, -1.0)


class TestHistogramDraws:
    """Monte Carlo on a discrete T draws one histogram over its states per chunk.

    The chunk's sums of phi 1{error} and its square depend only on how many
    replicates land in each state, so c ~ Multinomial(count, law of T) keeps
    the estimator's law; rows stay where T has more states than the chunk.
    """

    @pytest.mark.parametrize("n", [1, 10, 50, 200])
    def test_poisson_law(self, n):
        models = (Poisson(2.0), Poisson(1.0), Poisson(4.0))
        stat = testing._statistic(models, TILT, n)
        s, logs = stat.states, [stat.log_law(m) for m in models]
        # cut for the tilted mean 4 n e^0.3, where phi^n Poi(S; 4 n) puts its mass
        assert s[0] == 0 and s.size == poisson_truncation(4.0 * n * math.exp(0.3)) + 1
        for m, log_pi in zip(models, logs):
            assert log_pi == pytest.approx(stats.poisson.logpmf(s, n * m.lam), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 6, 30])
    def test_multinomial_law_with_a_zero_mass_symbol(self, n):
        models = (Categorical([0.5, 0.5, 0.0]), Categorical([0.25, 0.25, 0.5]))
        stat = testing._statistic(models, TableWeight([1.0, 2.0, 3.0]), n)
        counts, logs = stat.states, [stat.log_law(m) for m in models]
        assert counts.shape == (math.comb(n + 2, n), 3)
        for m, log_pi in zip(models, logs):
            ref = stats.multinomial.logpmf(counts, n, m.probs)
            live = np.isfinite(ref)
            assert np.array_equal(np.isfinite(log_pi), live)
            assert log_pi[live] == pytest.approx(ref[live], rel=1e-12)

    def test_support_sizes(self):
        assert testing._statistic((Poisson(2.0), Poisson(1.0)), CONST, 10).support_size == 105
        tri = (Categorical([0.5, 0.3, 0.2]),) * 2
        assert testing._statistic(tri, CONST, 30).support_size == 496
        for models in ((Exponential(2.0), Exponential(1.0)),
                       (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]])),
                       (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]))):
            assert testing._statistic(models, CONST, 10).support_size == math.inf

    def test_support_larger_than_the_chunk_draws_rows(self):
        # 2.1e8 count vectors against 2000 replicates: rows of the arc member, to the bit
        p, q = Categorical([0.1] * 10), Categorical([0.08] * 5 + [0.12] * 5)
        assert testing._statistic((p, q), CONST, 30).support_size > 2000
        est = optimal_loss_mc(BinaryTestProblem(p, q, CONST, 30), 2000, seed=1)
        assert (est.value, est.std_error) == (0.5739797295220226, 0.00367050669003988)
        # p^n / q^n depends only on the count K of the first five symbols, Binomial(30, 1/2)
        # under P and Binomial(30, 2/5) under Q
        k = np.arange(31)
        oracle = float(np.minimum(stats.binom.pmf(k, 30, 0.5), stats.binom.pmf(k, 30, 0.4)).sum())
        assert abs(est.value - oracle) <= 4.0 * est.std_error

    def test_poisson_mean_past_the_summation_limit_draws_rows(self):
        # n lam = 2e6 is past MAX_SUM_TERMS: no truncation is asked for
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 10 ** 6)
        stat = testing._statistic((prob.model_p, prob.model_q), CONST, prob.n)
        assert stat.support_size == math.inf
        est = optimal_loss_mc(prob, 2000, seed=1)
        # L = e^(-86078) underflows, but ln L does not: the exponent sits about ln(n)/(2n)
        # above D = 0.0860713 (the Bahadur-Rao gap of TestPoissonLargeN)
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert est.exponent_estimate == 0.08607780245662268
        d_c = chernoff(Poisson(2.0), Poisson(1.0), CONST).d_c_w
        assert 0.0 < est.exponent_estimate - d_c < 2e-5

    @pytest.mark.parametrize("prob", [
        BinaryTestProblem(Poisson(2.0), Poisson(1.0), TILT, 10),
        BinaryTestProblem(Categorical([0.2, 0.3, 0.5]), Categorical([0.4, 0.4, 0.2]),
                          TableWeight([1.0, 2.0, 0.5]), 6),
    ])
    def test_histogram_then_row_chunks_are_deterministic(self, prob):
        # a histogram chunk of MC_CHUNK replicates, then 7 rows (fewer than the states)
        reps = testing.MC_CHUNK + 7
        a = optimal_loss_mc(prob, reps, seed=8)
        assert a == optimal_loss_mc(prob, reps, seed=8)
        assert a.replicates == reps
        exact = optimal_loss_exact(prob).value
        assert abs(a.value - exact) <= 4.0 * a.std_error

    def test_overflow_is_raised_only_where_drawn(self):
        # equal models tie everywhere, so direct draws err on every state and score e^(gamma S)
        def loss(gamma, n, models=(Poisson(2.0), Poisson(2.0))):
            return mary_optimal_loss(MAryProblem(models, ExpTiltWeight([gamma])), n,
                                     "monte_carlo", 2000, 0)

        # three models draw directly: e^(7 S) overflows from S = 102 on, which Poi(20) never
        # reaches
        assert math.isfinite(loss(7.0, 10, (Poisson(2.0),) * 3).value)
        with pytest.raises(ConvergenceError, match="overflows on a sampled replicate"):
            loss(10.0, 50, (Poisson(2.0),) * 3)  # histogram: S ~ Poi(100)
        with pytest.raises(ConvergenceError, match="overflows on a sampled replicate"):
            loss(0.01, 10 ** 6, (Poisson(2.0),) * 3)  # rows: S ~ Poi(2e6)
        # a pair reads its loss E_phi^n = e^(n 2 (e^gamma - 1)) off the arc: at gamma = 7 and
        # n = 10 that is e^21912.7, which no draw has to reach to overflow
        exact = BinaryTestProblem(Poisson(2.0), Poisson(2.0), ExpTiltWeight([7.0]), 10)
        with pytest.raises(ConvergenceError, match="overflows a double"):
            optimal_loss_exact(exact)
        for gamma, n in ((7.0, 10), (10.0, 50), (0.01, 10 ** 6)):
            with pytest.raises(ConvergenceError, match="monte carlo loss = e.* overflows a double"):
                loss(gamma, n)

    @pytest.mark.parametrize("prob", [
        BinaryTestProblem(Poisson(2.0), Poisson(1.0), TILT, 10),
        BinaryTestProblem(Categorical([0.2, 0.3, 0.5]), Categorical([0.4, 0.4, 0.2]),
                          TableWeight([1.0, 1.2, 0.8]), 30),
        BinaryTestProblem(Categorical([0.2, 0.3, 0.5]), Categorical([0.4, 0.4, 0.2]),
                          TableWeight([1.0, 2.0, 0.5]), 30),
    ], ids=["poisson_tilt", "categorical_table", "categorical_heavy_table"])
    def test_z_scores_against_the_exact_loss(self, prob):
        # a table weight far from 1 makes phi^30 heavy-tailed (2^30 against 0.5^30): draws
        # under each hypothesis sat below the loss on most seeds (z mean -2.49, sd 4.01),
        # while the arc member draws where phi^n min(p^n, q^n) has its mass
        exact = optimal_loss_exact(prob).value
        z = np.array([(est.value - exact) / est.std_error for est in
                      (optimal_loss_mc(prob, 2000, seed=s) for s in range(400))])
        assert abs(z.mean()) < 0.15  # three standard errors of a mean of 400
        assert 0.85 < z.std() < 1.15
        assert np.mean(np.abs(z) < 2.0) >= 0.92
