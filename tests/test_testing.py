"""Optimal losses, M-ary classification, cumulants and tail bounds."""

import math

import numpy as np
import pytest

from wchernoff import _numeric
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
    PreconditionError,
    RateInfiniteError,
    StateSpaceOverflowError,
    TableWeight,
    UnsupportedCombinationError,
    bernoulli_kl,
    chernoff,
    convergence_rows,
    cumulants,
    mary_exponent,
    mary_optimal_loss,
    optimal_loss_exact,
    optimal_loss_mc,
    rate_function,
    rho_w,
    rng_stream,
    simulate,
    tail_bound,
    tail_frequency,
    tilted_llr,
    tilted_stats,
    weighted_normaliser,
    weighted_tv,
)

BERN_P = Categorical([0.5, 0.5])
BERN_Q = Categorical([0.25, 0.75])
CONST = ConstWeight()


def bern_problem(n, weight=CONST):
    return BinaryTestProblem(BERN_P, BERN_Q, weight, n)


class TestOptimalLossExact:
    def test_bernoulli_n1(self):
        est = optimal_loss_exact(bern_problem(1))
        assert est.value == pytest.approx(0.75, abs=1e-15)
        assert est.std_error == 0.0
        assert est.method == "exact_enumeration"

    def test_equal_models_is_one(self):
        est = optimal_loss_exact(BinaryTestProblem(BERN_P, BERN_P, CONST, 3))
        assert est.value == pytest.approx(1.0, abs=1e-15)

    def test_exponent_dominates_chernoff(self):
        d_c = chernoff(BERN_P, BERN_Q, CONST).d_c_w
        rho_star = math.exp(-d_c)
        for n in range(1, 11):
            est = optimal_loss_exact(bern_problem(n))
            assert est.exponent_estimate >= d_c - 1e-12
            # Hoelder upper bound L_n* <= rho^n holds exactly
            assert est.value <= rho_star ** n + 1e-15

    def test_exponent_gap_shrinks_along_parities(self):
        # the raw sequence oscillates with the parity of n, so monotone
        # convergence is asserted separately on odd and even sample sizes
        vals = [optimal_loss_exact(bern_problem(n)).exponent_estimate
                for n in range(1, 11)]
        odd = vals[0::2]
        even = vals[1::2]
        assert all(a >= b - 1e-12 for a, b in zip(odd, odd[1:]))
        assert all(a >= b - 1e-12 for a, b in zip(even, even[1:]))

    def test_poisson_small_n(self):
        p = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 2)
        est = optimal_loss_exact(p)
        # brute-force oracle over the truncated product space
        from wchernoff.models import poisson_truncation
        K = poisson_truncation(2.0)
        ks = np.arange(K + 1)
        mp = np.exp(Poisson(2.0).log_density(ks))
        mq = np.exp(Poisson(1.0).log_density(ks))
        oracle = float(np.sum(np.minimum.outer(mp, mp).T * 0.0)
                       + np.sum(np.minimum(np.outer(mp, mp), np.outer(mq, mq))))
        assert est.value == pytest.approx(oracle, rel=1e-12)

    def test_poisson_large_n(self):
        # the sum runs over S = sum x_i, so n is limited only by the length
        # of the S grid, not by a count of product-space states
        est = optimal_loss_exact(BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 1000))
        assert 0.0 < est.value < 1e-38
        assert est.exponent_estimate == pytest.approx(-math.log(est.value) / 1000, rel=1e-12)

    def test_poisson_tilted_mean_cap(self):
        # S ~ Poi(2e6): the tilted mean is above MAX_SUM_TERMS
        p = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 10**6)
        with pytest.raises(ConvergenceError):
            optimal_loss_exact(p)

    def test_state_budget(self):
        big = Categorical(np.full(40, 1.0 / 40.0))
        p = BinaryTestProblem(big, big, CONST, 12)
        with pytest.raises(StateSpaceOverflowError):
            optimal_loss_exact(p)

    def test_continuous_models_rejected(self):
        p = BinaryTestProblem(Exponential(2.0), Exponential(1.0), CONST, 2)
        with pytest.raises(UnsupportedCombinationError):
            optimal_loss_exact(p)


class TestWeightedTV:
    def test_zero_for_equal_models(self):
        assert weighted_tv(BinaryTestProblem(BERN_P, BERN_P, CONST, 2)) == pytest.approx(
            0.0, abs=1e-15)

    def test_bernoulli_n1(self):
        tv = weighted_tv(bern_problem(1))
        assert tv == pytest.approx(0.25, abs=1e-15)
        assert optimal_loss_exact(bern_problem(1)).value == pytest.approx(
            0.5 * (1.0 + 1.0) - tv, abs=1e-15)

    @pytest.mark.parametrize("weight", [CONST, TableWeight([1.0, 2.0])])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_with_optimal_loss(self, weight, n):
        # L_n* = ((E_phi p)^n + (E_phi q)^n)/2 - TV_phi
        prob = bern_problem(n, weight)
        ep = weighted_normaliser(BERN_P, weight)
        eq = weighted_normaliser(BERN_Q, weight)
        lhs = optimal_loss_exact(prob).value
        rhs = 0.5 * (ep ** n + eq ** n) - weighted_tv(prob)
        assert abs(lhs - rhs) < 1e-12


class TestOptimalLossMC:
    def test_equal_models(self):
        est = optimal_loss_mc(BinaryTestProblem(BERN_P, BERN_P, CONST, 2), 2000, seed=0)
        # decision "H1 when q >= p" always fires at ties, so the P-side
        # contributes its full mass and the Q-side none
        assert est.value == pytest.approx(1.0, abs=3.0 * est.std_error + 1e-9)

    def test_matches_exact_enumeration(self):
        prob = bern_problem(4)
        exact = optimal_loss_exact(prob).value
        est = optimal_loss_mc(prob, 100000, seed=7)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_weighted_case_matches_exact(self):
        prob = bern_problem(3, TableWeight([1.0, 2.0]))
        exact = optimal_loss_exact(prob).value
        est = optimal_loss_mc(prob, 100000, seed=11)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_determinism(self):
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 10)
        a = optimal_loss_mc(prob, 20000, seed=5)
        b = optimal_loss_mc(prob, 20000, seed=5)
        assert a == b
        c = optimal_loss_mc(prob, 20000, seed=6)
        assert a.value != c.value

    def test_replicate_floor(self):
        with pytest.raises(PreconditionError):
            optimal_loss_mc(bern_problem(2), 500)

    def test_weight_overflow_is_typed(self):
        # phi = e^(40 sum x) overflows on replicates with sum x above 17
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), ExpTiltWeight([40.0]), 20)
        with pytest.raises(ConvergenceError):
            optimal_loss_mc(prob, 10000, seed=3)

    def test_simulate_report(self):
        rep = simulate(BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 10),
                       5000, seed=1)
        assert rep.d_c_w_reference == pytest.approx(0.086071, abs=1e-6)
        assert rep.n == 10 and rep.replicates == 5000 and rep.seed == 1

    def test_convergence_rows(self):
        rows = convergence_rows(Poisson(2.0), Poisson(1.0), CONST, [5, 10], 2000, seed=0)
        assert [r[0] for r in rows] == [5, 10]
        assert all(r[2] == pytest.approx(0.086071, abs=1e-6) for r in rows)


class TestMAry:
    TRIPLE = (Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), Categorical([0.75, 0.25]))

    def test_three_bernoullis_n1(self):
        est = mary_optimal_loss(MAryProblem(self.TRIPLE, CONST), 1)
        assert est.value == pytest.approx(1.5, abs=1e-15)

    def test_reduces_to_binary(self):
        pair = MAryProblem((BERN_P, BERN_Q), CONST)
        for n in (1, 2, 3):
            assert mary_optimal_loss(pair, n).value == pytest.approx(
                optimal_loss_exact(bern_problem(n)).value, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sandwich_inequality(self, n):
        models = self.TRIPLE
        total = mary_optimal_loss(MAryProblem(models, CONST), n).value
        pairwise = []
        for i in range(3):
            for j in range(i + 1, 3):
                prob = BinaryTestProblem(models[i], models[j], CONST, n)
                pairwise.append(optimal_loss_exact(prob).value)
        assert max(pairwise) <= total + 1e-12
        assert total <= sum(pairwise) + 1e-12
        if n == 1:
            assert sorted(pairwise) == pytest.approx([0.5, 0.75, 0.75], abs=1e-15)

    def test_priors_invariance(self):
        models = self.TRIPLE
        priors = (0.5, 0.3, 0.2)
        for n in (1, 2):
            plain = mary_optimal_loss(MAryProblem(models, CONST), n).value
            weighted = mary_optimal_loss(MAryProblem(models, CONST, priors), n).value
            assert min(priors) * plain <= weighted + 1e-12
            assert weighted <= max(priors) * plain + 1e-12

    def test_mc_agrees_with_exact(self):
        prob = MAryProblem(self.TRIPLE, CONST)
        exact = mary_optimal_loss(prob, 2).value
        est = mary_optimal_loss(prob, 2, method="monte_carlo", replicates=100000, seed=3)
        assert abs(est.value - exact) <= 3.0 * est.std_error

    def test_exponent_matrix(self):
        out = mary_exponent(MAryProblem((Poisson(1.0), Poisson(2.0), Poisson(4.0)), CONST))
        assert out["matrix"][0][1] == pytest.approx(0.086071, abs=1e-6)
        assert out["matrix"][0][2] == pytest.approx(0.506551, abs=1e-6)
        assert out["matrix"][1][2] == pytest.approx(0.172143, abs=1e-6)
        assert out["c_m_w"] == pytest.approx(0.086071, abs=1e-6)
        assert out["pair"] == [0, 1]
        assert not out["degenerate"]

    def test_exponent_reduces_to_pair(self):
        out = mary_exponent(MAryProblem((Poisson(2.0), Poisson(1.0)), CONST))
        assert out["c_m_w"] == pytest.approx(chernoff(Poisson(2.0), Poisson(1.0), CONST).d_c_w)

    def test_repeated_model_flags_degenerate(self):
        out = mary_exponent(MAryProblem((Poisson(2.0), Poisson(2.0), Poisson(1.0)), CONST))
        assert out["degenerate"]
        assert out["c_m_w"] == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_models(self):
        with pytest.raises(PreconditionError):
            MAryProblem((BERN_P,), CONST)

    def test_priors_validated(self):
        with pytest.raises(PreconditionError):
            MAryProblem(self.TRIPLE, CONST, (0.5, 0.5, 0.5))


class TestTiltedLLR:
    def test_const_weight_is_plain_llr(self):
        prob = bern_problem(3)
        x = [0, 1, 1]
        plain = sum(BERN_Q.log_density(k) - BERN_P.log_density(k) for k in x)
        assert tilted_llr(prob, x) == pytest.approx(plain, abs=1e-12)

    def test_equal_models_give_n_shift(self):
        w = ExpTiltWeight([0.25])
        prob = BinaryTestProblem(Poisson(2.0), Poisson(2.0), w, 4)
        assert prob.shift == 0.0
        prob2 = BinaryTestProblem(Exponential(2.0), Exponential(1.5), w, 4)
        x = np.full(4, 0.7)
        plain = float(np.sum(Exponential(1.5).log_density(0.7) * np.ones(4)
                             - Exponential(2.0).log_density(0.7) * np.ones(4)))
        assert tilted_llr(prob2, x) == pytest.approx(plain + 4.0 * prob2.shift, abs=1e-12)

    def test_threshold_equivalence(self):
        # {sum ln(q/p) >= 0} iff {L* >= n shift}
        w = ExpTiltWeight([0.3])
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), w, 5)
        rng = rng_stream(13)
        for _ in range(50):
            x = Poisson(1.5).sample(rng, 5)
            plain = float(np.sum(Poisson(1.0).log_density(x) - Poisson(2.0).log_density(x)))
            lstar = tilted_llr(prob, x)
            assert (plain >= 0.0) == (lstar >= 5.0 * prob.shift)

    def test_saturation(self):
        p = Categorical([1.0, 0.0])
        q = Categorical([0.5, 0.5])
        prob = BinaryTestProblem(p, q, CONST, 2)
        assert tilted_llr(prob, [0, 1]) == math.inf
        prob_rev = BinaryTestProblem(q, p, CONST, 2)
        assert tilted_llr(prob_rev, [0, 1]) == -math.inf

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            tilted_llr(bern_problem(3), [0, 1])


class TestTiltedStats:
    def test_bernoulli_fixture_values(self):
        st = tilted_stats(bern_problem(200))
        assert st.kl_qp == pytest.approx(0.130812, abs=1e-6)
        assert st.d_bound == pytest.approx(0.823959, abs=1e-6)
        assert st.sigma2 == pytest.approx(0.226303, abs=1e-6)
        assert st.shift == 0.0
        assert st.sigma2 <= st.d_bound ** 2

    def test_shift_with_table_weight(self):
        w = TableWeight([1.0, 2.0])
        st = tilted_stats(bern_problem(10, w))
        expected = math.log(weighted_normaliser(BERN_P, w)) - math.log(
            weighted_normaliser(BERN_Q, w))
        assert st.shift == pytest.approx(expected, abs=1e-12)

    def test_unbounded_for_poisson(self):
        st = tilted_stats(BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 5))
        assert st.d_bound == math.inf
        # KL(Q||P) for Poisson(1)||Poisson(2) has the closed form below
        assert st.kl_qp == pytest.approx(1.0 * math.log(0.5) + 1.0, rel=1e-8)

    def test_martingale_increments_centre(self):
        st = tilted_stats(bern_problem(1))
        rng = rng_stream(21)
        draws = BERN_Q.sample(rng, 100000)
        lr = np.log(BERN_Q.probs[draws]) - np.log(BERN_P.probs[draws])
        increments = lr - st.kl_qp
        se = increments.std(ddof=1) / math.sqrt(draws.size)
        assert abs(increments.mean()) <= 3.0 * se


class TestCumulants:
    def test_zero_alpha(self):
        psi_p, _ = cumulants(bern_problem(1), 0.0)
        assert psi_p == pytest.approx(0.0, abs=1e-12)

    def test_const_weight_matches_affinity(self):
        # psi_P(alpha) = ln rho_{1-alpha}(p, q) under the constant weight
        prob = bern_problem(1)
        for alpha in (0.2, 0.5, 0.8):
            psi_p, _ = cumulants(prob, alpha)
            assert psi_p == pytest.approx(
                math.log(rho_w(BERN_P, BERN_Q, CONST, 1.0 - alpha)), abs=1e-12)

    def test_shift_relation(self):
        # psi_Q(alpha) = psi_P(alpha + 1) - shift where both are finite
        w = TableWeight([1.0, 2.0])
        prob = bern_problem(1, w)
        for alpha in (-0.5, 0.0, 0.7, 1.3):
            _, psi_q = cumulants(prob, alpha)
            psi_p_next, _ = cumulants(prob, alpha + 1.0)
            assert abs(psi_q - (psi_p_next - prob.shift)) < 1e-10

    def test_poisson_summation_oracle(self):
        w = ExpTiltWeight([0.25])
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), w, 1)
        from wchernoff.models import poisson_truncation
        ks = np.arange(poisson_truncation(2.0) + 1)
        alpha = 0.5
        raw = float(np.sum(np.exp(alpha * Poisson(1.0).log_density(ks)
                                  + (1.0 - alpha) * Poisson(2.0).log_density(ks))))
        psi_p, _ = cumulants(prob, alpha)
        assert psi_p == pytest.approx(math.log(raw) + alpha * prob.shift, abs=1e-10)


    def test_poisson_exponents_outside_unit_interval(self):
        # int p^-a q^(1+a) for Poisson is exp(a lam_p - (1+a) lam_q + lam_p^-a lam_q^(1+a)):
        # at alpha = 10 that is e^1013 and e^2036, beyond the [0, 1] grid
        # and beyond double precision outside the log domain
        psi_p, psi_q = cumulants(BinaryTestProblem(Poisson(1.0), Poisson(2.0), CONST, 1), 10.0)
        assert psi_p == pytest.approx(2.0 ** 10 - 11.0, rel=1e-13)
        assert psi_q == pytest.approx(2.0 ** 11 - 12.0, rel=1e-13)

    def test_grid_unchanged_inside_unit_interval(self):
        w = ExpTiltWeight([0.25])
        grid = _numeric.discrete_grid(Poisson(2.0), Poisson(1.0), w)
        for a in (0.0, 0.3, 1.0):
            same = _numeric.discrete_grid(Poisson(2.0), Poisson(1.0), w, a, 1.0 - a)
            assert np.array_equal(same, grid)
        assert _numeric.discrete_grid(Poisson(2.0), Poisson(1.0), CONST).size == 50


class TestRateFunction:
    def test_i_p_zero_is_chernoff(self):
        prob = bern_problem(1)
        i_p, _ = rate_function(prob, 0.0)
        assert i_p == pytest.approx(chernoff(BERN_Q, BERN_P, CONST).d_c_w, abs=1e-8)

    def test_equal_models_zero(self):
        i_p, _ = rate_function(BinaryTestProblem(BERN_P, BERN_P, CONST, 1), 0.0)
        assert i_p == pytest.approx(0.0, abs=1e-10)

    def test_legendre_relation(self):
        prob = bern_problem(1, TableWeight([1.0, 2.0]))
        shift = prob.shift
        for r in (0.02, 0.1, 0.2):
            i_p, i_q = rate_function(prob, r)
            assert abs(i_q - (i_p - r + shift)) < 1e-8

    def test_unbounded_supremum(self):
        # r above the maximal increment ln(q/p) cannot be reached
        with pytest.raises(RateInfiniteError):
            rate_function(bern_problem(1), 2.0)

    @pytest.mark.parametrize("r", [-0.4, 0.1, 1.0])
    def test_exponential_closed_form_legendre(self, r):
        # psi_P(a) = (1-a) ln l_p + a ln l_q - ln L(a), L(a) = l_p + a (l_q - l_p);
        # its slope equals r where L = (l_q - l_p) / (ln(l_q/l_p) - r)
        lp, lq = 2.0, 1.0
        big_l = (lq - lp) / (math.log(lq / lp) - r)
        a = (big_l - lp) / (lq - lp)
        psi = (1.0 - a) * math.log(lp) + a * math.log(lq) - math.log(big_l)
        i_p, i_q = rate_function(
            BinaryTestProblem(Exponential(lp), Exponential(lq), CONST, 1), r)
        assert abs(i_p - (a * r - psi)) <= 1e-9
        # psi_Q(a) = psi_P(a + 1) under the constant weight
        assert abs(i_q - (a * r - psi - r)) <= 1e-9


class TestBernoulliKL:
    def test_reference_value(self):
        assert bernoulli_kl(0.5, 0.25) == pytest.approx(0.143841, abs=1e-6)

    def test_edges(self):
        assert bernoulli_kl(0.0, 0.3) == pytest.approx(math.log(1.0 / 0.7), rel=1e-12)
        assert bernoulli_kl(1.0, 0.3) == pytest.approx(math.log(1.0 / 0.3), rel=1e-12)

    def test_domain(self):
        with pytest.raises(PreconditionError):
            bernoulli_kl(0.5, 0.0)
        with pytest.raises(PreconditionError):
            bernoulli_kl(1.5, 0.5)


class TestTailBound:
    def test_vacuous_below_kl(self):
        prob = bern_problem(50)
        st = tilted_stats(prob)
        assert tail_bound(prob, st.kl_qp - 0.01, 50) == 1.0
        assert tail_bound(prob, 0.0, 50) == 1.0

    def test_negative_beta_star_rejected(self):
        w = TableWeight([2.0, 1.0])
        prob = bern_problem(10, w)
        assert prob.shift > 0.0
        with pytest.raises(PreconditionError):
            tail_bound(prob, prob.shift - 0.05, 10)

    def test_unbounded_models_rejected(self):
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 10)
        with pytest.raises(UnsupportedCombinationError):
            tail_bound(prob, 1.0, 10)

    def test_decreases_with_n(self):
        prob = bern_problem(100)
        st = tilted_stats(prob)
        beta = st.kl_qp + 0.1
        assert tail_bound(prob, beta, 400) < tail_bound(prob, beta, 100) < 1.0

    def test_dominates_empirical_frequency(self):
        n = 200
        prob = bern_problem(n)
        st = tilted_stats(prob)
        beta = st.kl_qp + 0.1
        bound = tail_bound(prob, beta, n)
        freq, se = tail_frequency(prob, beta, n, 100000, seed=0)
        assert bound >= freq + 3.0 * se

    def test_frequency_determinism(self):
        prob = bern_problem(50)
        a = tail_frequency(prob, 0.2, 50, 5000, seed=9)
        b = tail_frequency(prob, 0.2, 50, 5000, seed=9)
        assert a == b
