"""Optimal losses, M-ary classification, cumulants and tail bounds."""

import math

import numpy as np
import pytest
from scipy import stats

from wchernoff import _numeric, testing
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
    weighted_kl,
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

    @pytest.mark.parametrize("replicates", [1000.5, None, 999])
    @pytest.mark.parametrize("pair", [(Poisson(2.0), Poisson(1.0)),
                                      (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]))],
                             ids=["arc", "direct"])
    def test_replicates_must_be_an_integer_of_at_least_1000(self, pair, replicates):
        # a float count had run on the arc, and ended in a bare TypeError on direct draws
        with pytest.raises(PreconditionError, match="monte carlo needs replicates >= 1000"):
            optimal_loss_mc(BinaryTestProblem(*pair, CONST, 10), replicates)

    def test_weight_overflow_is_typed(self):
        # phi = e^(40 sum x) overflows on replicates with sum x above 17
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), ExpTiltWeight([40.0]), 20)
        with pytest.raises(ConvergenceError):
            optimal_loss_mc(prob, 10000, seed=3)

    def test_weight_square_overflow_is_answered(self):
        # phi^26 = 1e156 on the likely states is a double, its square is not: direct draws
        # raised.  The arc member scores min(p^n, q^n) / (p^n)^a (q^n)^(1-a) instead, and
        # p/q = 12/11 on both symbols that P can draw, so every replicate scores the same
        prob = BinaryTestProblem(Categorical([0.0, 10.0 / 11.0, 1.0 / 11.0]),
                                 Categorical([1.0 / 12.0, 10.0 / 12.0, 1.0 / 12.0]),
                                 TableWeight([1.0, 1e6, 1.0]), 26)
        est = optimal_loss_mc(prob, 1000)
        assert est.std_error == 0.0
        assert est.value == pytest.approx(optimal_loss_exact(prob).value, rel=1e-12)

    def test_cauchy_pair_draws_the_sample(self):
        # Cauchy(0, 1) vs Cauchy(2, 1) cross at 1: L_1* = 2 P(X > 1) = 1/2
        prob = BinaryTestProblem(Cauchy(0.0, 1.0), Cauchy(2.0, 1.0), CONST, 1)
        est = optimal_loss_mc(prob, 20000, seed=4)
        assert abs(est.value - 0.5) <= 4.0 * est.std_error
        assert est == optimal_loss_mc(prob, 20000, seed=4)

    def test_cauchy_pair_far_apart_in_scale_draws_without_overflow(self):
        # draws of Cauchy(1, 1e150) pass 1.3e154 often; their density under Cauchy(1, 1)
        # squared them (a numpy overflow warning, an error here).  The laws cross at
        # |x - 1| = 1e75, so L_1* = (4 / pi) atan(1e-75), which no 100,000 draws see
        prob = BinaryTestProblem(Cauchy(1.0, 1.0), Cauchy(1.0, 1e150), CONST, 1)
        est = optimal_loss_mc(prob, 100_000, seed=2)
        assert (est.value, est.std_error) == (0.0, 0.0)

    def test_loss_of_one_reads_exponent_plus_zero(self):
        # -ln 1 / n is -0: the exact sum, the arc estimator (one symbol) and direct draws
        # (two equal Cauchy laws, every P-draw an error) all read a loss of exactly 1
        cat = BinaryTestProblem(Categorical([1.0]), Categorical([1.0]), CONST, 3)
        cauchy = BinaryTestProblem(Cauchy(0.0, 1.0), Cauchy(0.0, 1.0), CONST, 3)
        for est in (optimal_loss_exact(cat), optimal_loss_mc(cat, 1000),
                    optimal_loss_mc(cauchy, 1000)):
            assert est.value == 1.0
            assert math.copysign(1.0, est.exponent_estimate) == 1.0, est

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

    def test_repeated_model_under_a_large_tilt_flags_degenerate(self):
        g = Gaussian([5.6], [[10.0]])
        out = mary_exponent(MAryProblem((g, g, Gaussian([0.0], [[10.0]])), ExpTiltWeight([1e5])))
        assert out["degenerate"] and out["pair"] == [0, 1]

    def test_repeated_model_flags_degenerate(self):
        out = mary_exponent(MAryProblem((Poisson(2.0), Poisson(2.0), Poisson(1.0)), CONST))
        assert out["degenerate"]
        assert out["c_m_w"] == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_models(self):
        with pytest.raises(PreconditionError):
            MAryProblem((BERN_P,), CONST)

    @pytest.mark.parametrize("priors, message", [
        ((0.5, 0.3, 0.2), "priors length must match the model count"),
        ((1.0, 0.0), "priors must be strictly positive"),
    ], ids=["length", "zero"])
    def test_priors_checked_one_by_one(self, priors, message):
        with pytest.raises(PreconditionError, match=message):
            MAryProblem((BERN_P, BERN_Q), CONST, priors)

    def test_unknown_method(self):
        with pytest.raises(PreconditionError, match="unknown method 'bogus'"):
            mary_optimal_loss(MAryProblem((BERN_P, BERN_Q), CONST), 3, method="bogus")

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

    def test_point_below_a_count_support(self):
        # -1 has zero mass under both Poisson models: no ln k! is read there
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 2)
        with pytest.raises(PreconditionError, match="zero density under both"):
            tilted_llr(prob, [-1, 3])

    @pytest.mark.parametrize("p, q, x", [
        (Poisson(2.0), Poisson(1.0), 1.5),
        (Poisson(2.0), Poisson(1.0), math.inf),
        (BERN_P, BERN_Q, 0.5),
        (BERN_P, BERN_Q, -1.0),
        (BERN_P, BERN_Q, 2.0),
    ])
    def test_point_off_the_integer_support(self, p, q, x):
        # a count support holds the non-negative integers, a finite one 0..K-1 only
        prob = BinaryTestProblem(p, q, CONST, 1)
        with pytest.raises(PreconditionError, match="zero density under both"):
            tilted_llr(prob, [x])

    def test_logpdf_vec_reads_minus_inf_off_the_support(self):
        x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, math.inf, math.nan])
        pois = _numeric.logpdf_vec(Poisson(2.0), x)
        on = np.isfinite(pois)
        assert on.tolist() == [False, True, False, True, True, False, False]
        np.testing.assert_array_equal(pois[on], Poisson(2.0).logpdf(x[on]))
        cat = _numeric.logpdf_vec(Categorical([0.2, 0.8]), x)
        np.testing.assert_array_equal(
            cat, [-np.inf, math.log(0.2), -np.inf, math.log(0.8), -np.inf, -np.inf, -np.inf])


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

    @pytest.mark.parametrize("p, q", [
        (BERN_P, BERN_Q),
        (Poisson(2.0), Poisson(1.0)),
        (Exponential(2.0), Exponential(1.0)),
        (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]])),
        (Cauchy(0.0, 1.0), Gaussian([0.0], [[1.0]])),
        (Cauchy(0.0, 1.0), Cauchy(2.0, 0.5)),
    ])
    def test_kl_is_the_weighted_kl(self, p, q):
        st = tilted_stats(BinaryTestProblem(p, q, TableWeight([1.0, 2.0])
                                            if isinstance(p, Categorical) else CONST, 3))
        assert st.kl_qp == weighted_kl(q, p, CONST)

    def test_categorical_fuzz_against_the_symbol_sums(self, probs_with_zeros):
        # sigma2 = F''(0) of the phi = 1 curve against Var_Q ln(q/p) summed over the symbols
        rng = np.random.default_rng(27)
        worst, infinite = 0.0, 0
        for _ in range(400):
            size = int(rng.integers(2, 13))
            p, q = (Categorical(probs_with_zeros(rng, size, rate)) for rate in (0.03, 0.2))
            st = tilted_stats(BinaryTestProblem(p, q, CONST, 3))
            k = np.flatnonzero(q.probs > 0.0)
            if np.any(p.probs[k] == 0.0):
                infinite += 1
                assert st.kl_qp == st.d_bound == st.sigma2 == math.inf
                continue
            lr = np.log(q.probs[k]) - np.log(p.probs[k])
            dev = lr - float(np.sum(q.probs[k] * lr))
            assert st.d_bound == pytest.approx(float(np.max(np.abs(dev))), rel=1e-13)
            sigma2 = float(np.sum(q.probs[k] * dev ** 2))
            worst = max(worst, abs(st.sigma2 - sigma2) / sigma2 if sigma2 else st.sigma2)
        assert worst <= 1e-14
        assert 20 < infinite < 100

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

    def test_poisson_closed_form_far_outside_unit_interval(self):
        # the sum over S needs a tilted mean of 2^21 here; the family's F does not
        psi_p, psi_q = cumulants(BinaryTestProblem(Poisson(1.0), Poisson(2.0), CONST, 1), 20.0)
        assert psi_p == pytest.approx(2.0 ** 20 - 21.0, rel=1e-13)
        assert psi_q == pytest.approx(2.0 ** 21 - 22.0, rel=1e-13)

    def test_gaussian_unequal_variance_continuation(self):
        # psi_P(3/2) = ln int p^(-1/2) q^(3/2) for N(0, 1), N(1, 2): a Gaussian
        # integral of precision 1/4; psi_Q(3/2) has precision -1/4 and diverges
        prob = BinaryTestProblem(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), CONST, 1)
        psi_p, psi_q = cumulants(prob, 1.5)
        expected = (0.25 * math.log(2.0 * math.pi) - 0.75 * math.log(4.0 * math.pi)
                    + 0.5 * math.log(8.0 * math.pi) + 0.75)
        assert psi_p == pytest.approx(expected, rel=1e-13)
        assert psi_q == math.inf

    def test_exponential_divergent_cumulant_is_infinite(self):
        # p = Exponential(2), q = Exponential(1): int q^a p^(1-a) = 2^(1-a)/(2-a)
        # for a < 2, and int q^(1+a) p^-a diverges for a >= 1
        prob = BinaryTestProblem(Exponential(2.0), Exponential(1.0), CONST, 1)
        psi_p, psi_q = cumulants(prob, 1.5)
        assert psi_p == pytest.approx(0.5 * math.log(2.0), rel=1e-13)
        assert psi_q == math.inf

    def test_divergent_quadrature_reads_inf(self):
        # psi_Q(1/2) = ln int p^-1/2 q^3/2 with p = N(0, 1), q = Cauchy: e^(x^2/4) diverges
        prob = BinaryTestProblem(Gaussian([0.0], [[1.0]]), Cauchy(0.0, 1.0), CONST, 1)
        psi_p, psi_q = cumulants(prob, 0.5)
        assert psi_p == pytest.approx(math.log(rho_w(prob.model_p, prob.model_q, CONST, 0.5)),
                                      rel=1e-12)
        assert psi_q == math.inf

    def test_grid_unchanged_inside_unit_interval(self):
        w = ExpTiltWeight([0.25])
        grid = _numeric.discrete_grid(Poisson(2.0), Poisson(1.0), w)
        for a in (0.0, 0.3, 1.0):
            same = _numeric.discrete_grid(Poisson(2.0), Poisson(1.0), w, a)
            assert np.array_equal(same, grid)
        assert _numeric.discrete_grid(Poisson(2.0), Poisson(1.0), CONST).size == 50


class TestWeightReadability:
    """Loss problems reject weights the statistics cannot evaluate."""

    @pytest.mark.parametrize("weight, message", [
        (TableWeight([1.0, 2.0]), "only supported on categorical"),
        # long enough for every sampled count: the parent returned a number
        (TableWeight(np.linspace(1.0, 2.0, 40)), "only supported on categorical"),
        (ExpTiltWeight([0.1, 0.2]), "must be scalar for discrete"),
    ])
    def test_binary_problem(self, weight, message):
        with pytest.raises(PreconditionError, match=message):
            BinaryTestProblem(Poisson(2.0), Poisson(1.0), weight, 3)

    def test_mary_problem(self):
        gaussians = (Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[1.0]]))
        with pytest.raises(PreconditionError, match="gaussian dimension"):
            MAryProblem(gaussians, ExpTiltWeight([0.1, 0.2]))


class TestShift:
    def test_large_poisson_tilt_stays_in_log_domain(self):
        prob = BinaryTestProblem(Poisson(1e6), Poisson(0.3), ExpTiltWeight([40.0]), 1)
        assert prob.shift == pytest.approx(math.expm1(40.0) * (1e6 - 0.3), rel=1e-12)

    def test_large_categorical_tilt(self):
        # E_phi = e^800 (p_1 + p_0 e^-800) overflows, its log does not
        assert bern_problem(1, ExpTiltWeight([800.0])).shift == pytest.approx(
            math.log(0.5 / 0.75), abs=1e-12)


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

    @pytest.mark.parametrize("alpha", [15, 17, 19])
    def test_supremum_near_the_scan_edge(self, alpha):
        # psi_P(a) = ln(1/2 (1/2)^a + 1/2 (3/2)^a) has slope ln 1.5 - ln 3 / (1 + 3^a),
        # so this r puts the maximiser at a = alpha, inside [-20, 20]
        r = math.log(1.5) - math.log(3.0) / (1.0 + 3.0 ** alpha)
        i_p, _ = rate_function(bern_problem(1), r)
        psi = math.log(0.5 * 0.5 ** alpha + 0.5 * 1.5 ** alpha)
        assert abs(i_p - (alpha * r - psi)) <= 1e-12

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

    @pytest.mark.parametrize("scale", [1e-155, 1e-160, 1e160])
    def test_exponential_legendre_at_any_common_scale(self, scale):
        # the law of ln q/p does not depend on the common scale of the rates, but
        # F'' = (theta1 - theta2)^2 / theta^2 is not a double at these
        lp, lq, r = 2.0, 1.0, 0.1
        big_l = (lq - lp) / (math.log(lq / lp) - r)
        a = (big_l - lp) / (lq - lp)
        psi = (1.0 - a) * math.log(lp) + a * math.log(lq) - math.log(big_l)
        i_p, i_q = rate_function(
            BinaryTestProblem(Exponential(lp * scale), Exponential(lq * scale), CONST, 1), r)
        assert abs(i_p - (a * r - psi)) <= 1e-9
        assert abs(i_q - (a * r - psi - r)) <= 1e-9

    @pytest.mark.parametrize("r", [-0.3, 0.0, 0.1, 0.5])
    @pytest.mark.parametrize("swap", [False, True])
    def test_supremum_at_a_jump_of_psi(self, r, swap):
        # q is 0 where p is not, so psi jumps to +inf past one end of its
        # domain and the supremum sits at that end, where the last point
        # Newton evaluates can lie past the jump.  Oracle: a dense grid of a.
        p, q = Categorical([0.2, 0.3, 0.5]), Categorical([0.5, 0.5, 0.0])
        if swap:
            p, q = q, p
        a = np.arange(-20000, 20001)[:, None] / 1000.0

        def log_rho(alpha):  # ln sum p^alpha q^(1-alpha), a 0 * ln 0 term counted as 0
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                terms = np.exp(alpha * np.log(p.probs) + (1.0 - alpha) * np.log(q.probs))
                return np.log(np.nansum(terms, axis=1))

        grid_p = float(np.max(a[:, 0] * r - log_rho(1.0 - a)))
        grid_q = float(np.max(a[:, 0] * r - log_rho(-a)))
        i_p, i_q = rate_function(BinaryTestProblem(p, q, CONST, 5), r)
        assert abs(i_p - grid_p) <= 1e-12
        assert abs(i_q - grid_q) <= 1e-12


class TestTiltedStatsClosedForms:
    """KL(Q||P) and Var_Q[ln q/p] read off the curve's closed moments at 0."""

    @staticmethod
    def check(p, q, kl, var):
        st = tilted_stats(BinaryTestProblem(p, q, CONST, 3))
        assert abs(st.kl_qp - kl) <= 1e-12 * max(1.0, abs(kl))
        assert abs(st.sigma2 - var) <= 1e-12 * max(1.0, var)
        assert st.d_bound == math.inf

    def test_poisson(self):
        lp, lq = 2.5, 1.5
        ln_r = math.log(lq / lp)
        self.check(Poisson(lp), Poisson(lq), lq * ln_r + lp - lq, lq * ln_r ** 2)

    def test_exponential(self):
        a, b = 2.0, 0.7
        self.check(Exponential(a), Exponential(b), math.log(b / a) + a / b - 1.0,
                   ((b - a) / b) ** 2)

    def test_gaussian_1d(self):
        mp, vp, mq, vq = 0.3, 2.0, -0.5, 0.7
        delta = mp - mq
        kl = 0.5 * (vq / vp + delta ** 2 / vp - 1.0 + math.log(vp / vq))
        # ln q/p = c z^2 / 2 + b z + const with z = x - mq ~ N(0, vq)
        c, b = 1.0 / vp - 1.0 / vq, -delta / vp
        self.check(Gaussian([mp], [[vp]]), Gaussian([mq], [[vq]]), kl,
                   0.5 * c * c * vq * vq + b * b * vq)

    def test_gaussian_2d(self):
        sp = np.array([[2.0, 0.3], [0.3, 1.0]])
        sq = np.array([[0.8, -0.2], [-0.2, 1.5]])
        delta = np.array([0.4, -1.1])  # mean of p minus mean of q
        sp_inv = np.linalg.inv(sp)
        kl = 0.5 * (np.trace(sp_inv @ sq) + delta @ sp_inv @ delta - 2.0
                    + math.log(np.linalg.det(sp) / np.linalg.det(sq)))
        m = (sp_inv - np.linalg.inv(sq)) @ sq
        b = sp_inv @ delta
        self.check(Gaussian(delta + 1.0, sp), Gaussian([1.0, 1.0], sq), float(kl),
                   float(0.5 * np.trace(m @ m) + b @ sq @ b))


class TestTiltedStatsInfiniteKL:
    """KL(Q||P) = inf reads as inf, as for categorical Q with mass where P has none."""

    def test_cauchy_q_against_gaussian_p(self):
        # ln p/q ~ -x^2/2 has no mean under the Cauchy tails of Q
        st = tilted_stats(BinaryTestProblem(Gaussian([0.0], [[1.0]]), Cauchy(0.0, 1.0), CONST, 3))
        assert (st.kl_qp, st.d_bound, st.sigma2, st.shift) == (math.inf, math.inf, math.inf, 0.0)

    def test_gaussian_q_against_cauchy_p_stays_finite(self):
        st = tilted_stats(BinaryTestProblem(Cauchy(0.0, 1.0), Gaussian([0.0], [[1.0]]), CONST, 3))
        assert st.kl_qp == pytest.approx(0.2592445324888623, rel=1e-12)
        assert 0.0 < st.sigma2 < math.inf and st.d_bound == math.inf

    def test_categorical_q_off_the_support_of_p(self):
        st = tilted_stats(BinaryTestProblem(Categorical([0.5, 0.5, 0.0]),
                                            Categorical([0.25, 0.25, 0.5]), CONST, 3))
        assert (st.kl_qp, st.d_bound, st.sigma2) == (math.inf, math.inf, math.inf)


@pytest.mark.parametrize("scale", [1e-160, 1.0, 1e160])
def test_exponential_variance_at_any_common_scale(scale):
    # F''(0) = ((theta_p - theta_q) sqrt F''(theta_q))^2 = 1 for rates 2s and s; the
    # factors (theta_p - theta_q)^2 = s^2 and F''(-s) = 1/s^2 are not both doubles
    st = tilted_stats(BinaryTestProblem(Exponential(2.0 * scale), Exponential(scale), CONST, 1))
    assert abs(st.sigma2 - 1.0) <= 1e-15


BAD_SIZES = [2.5, 0, -3, math.nan, "3"]


@pytest.mark.parametrize("n", BAD_SIZES)
@pytest.mark.parametrize("call", [
    lambda n: BinaryTestProblem(BERN_P, BERN_Q, CONST, n),
    lambda n: mary_optimal_loss(MAryProblem((Poisson(1.0), Poisson(2.0)), CONST), n),
    lambda n: tail_frequency(bern_problem(5), 0.2, n, 1000),
    lambda n: tail_bound(bern_problem(5), 0.5, n),
], ids=["problem", "mary_optimal_loss", "tail_frequency", "tail_bound"])
def test_sample_size_is_an_integer_of_at_least_one(call, n):
    with pytest.raises(PreconditionError, match="sample size n must be an integer >= 1"):
        call(n)


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

    def test_constant_increment_cannot_deviate(self):
        # ln q/p = ln 2 on Q's support, so L* = n ln 2 and d_bound = 0
        prob = BinaryTestProblem(Categorical([0.25, 0.25, 0.5, 0.0]),
                                 Categorical([0.5, 0.5, 0.0, 0.0]), CONST, 10)
        assert tilted_stats(prob).d_bound == 0.0
        assert tail_bound(prob, math.log(2.0) + 0.1, 10) == 0.0
        # states using symbol 3, off both supports, read a nan L* and warn of nothing
        assert tail_frequency(prob, math.log(2.0) - 0.01, 10, 1000) == (1.0, 0.0)

    def test_frequency_determinism(self):
        prob = bern_problem(50)
        a = tail_frequency(prob, 0.2, 50, 5000, seed=9)
        b = tail_frequency(prob, 0.2, 50, 5000, seed=9)
        assert a == b

    def test_frequency_replicate_floor(self):
        with pytest.raises(PreconditionError, match="monte carlo needs replicates >= 1000"):
            tail_frequency(bern_problem(50), 0.2, 50, 999)

    @pytest.mark.parametrize("replicates", [1000.5, None])
    def test_frequency_replicates_must_be_an_integer(self, replicates):
        # each ended in a bare TypeError
        with pytest.raises(PreconditionError, match="monte carlo needs replicates >= 1000"):
            tail_frequency(bern_problem(50), 0.2, 50, replicates)


def _bernoulli_tail(n, beta):
    """P_Q(L* >= beta n) for BERN_P against BERN_Q: L* = k ln 3/2 + (n - k) ln 1/2 with
    k ~ Binomial(n, 3/4) under Q."""
    k = np.arange(n + 1)
    llr = k * math.log(1.5) + (n - k) * math.log(0.5)
    return float(stats.binom.pmf(k[llr >= beta * n], n, 0.75).sum())


# (problem, beta, exact P_Q(L* >= beta n)); the padded pair adds a symbol that neither
# model has, whose p^a q^(1-a) reads nan at a < 0; the Poisson tails at beta 4 and 6 put
# the drawn member's mean (144 and 202) past the states cut for the models' means (40)
TAILS = [(bern_problem(200), beta, _bernoulli_tail(200, beta)) for beta in (0.19, 0.23, 0.30)] + [
    (BinaryTestProblem(Categorical([0.5, 0.0, 0.5]), Categorical([0.25, 0.0, 0.75]), CONST, 200),
     0.23, _bernoulli_tail(200, 0.23))] + [
    # L* = S ln 2 - n with S ~ Poi(2 n) under Q
    (BinaryTestProblem(Poisson(1.0), Poisson(2.0), CONST, 20), beta,
     float(stats.poisson.sf(math.ceil((beta + 1.0) * 20 / math.log(2.0)) - 1, 40)))
    for beta in (1.5, 4.0, 6.0)] + [
    # L* = S - n ln 2 with S ~ Gamma(n, 1) under Q
    (BinaryTestProblem(Exponential(2.0), Exponential(1.0), CONST, 20), beta,
     float(stats.gamma.sf(20 * (beta + math.log(2.0)), 20)))
    for beta in (0.5, 1.0, 2.0)]


class TestTailFrequency:
    """Importance sampling of P_Q(L* >= beta n) under the member of the phi = 1 curve."""

    @pytest.mark.parametrize("prob, beta, exact", TAILS, ids=[
        f"{type(t[0].model_p).__name__}{getattr(t[0].model_p, 'size', '')}-{t[1]}"
        for t in TAILS])
    def test_calibrated_against_the_exact_tail(self, prob, beta, exact):
        z = []
        for seed in range(400):
            freq, se = tail_frequency(prob, beta, prob.n, 4000, seed)
            z.append((freq - exact) / se)
        assert abs(np.mean(z)) <= 0.2
        assert 0.85 <= np.std(z) <= 1.15

    def test_readme_case_to_one_percent(self):
        freq, se = tail_frequency(bern_problem(200), 0.23, 200, 100_000, seed=0)
        assert se / freq <= 0.01
        assert abs(freq - _bernoulli_tail(200, 0.23)) <= 4.0 * se

    def test_rare_tail_is_not_read_as_zero(self):
        # direct draws under Q see no replicate past beta = 0.30, where P = 2.27e-8
        freq, se = tail_frequency(bern_problem(200), 0.30, 200, 10_000, seed=0)
        assert 0.0 < se < 0.05 * freq
        assert abs(freq - _bernoulli_tail(200, 0.30)) <= 4.0 * se

    def test_drawn_member_widens_the_states(self):
        pair = (Poisson(1.0), Poisson(2.0))
        stat = testing._statistic(pair, CONST, 20)
        assert stat.states[-1] < 160.0  # cut for the models' 40
        member = stat.member(-2.0)
        assert member.lam == pytest.approx(8.0, rel=1e-15)  # mean 20 * 2^3 = 160
        stat = testing._statistic((*pair, member), CONST, 20)
        assert stat.member(-2.0).lam == member.lam  # read off the first two models
        assert stat.states[-1] >= 160.0 + 12.0 * math.sqrt(160.0)
        assert stat.support_size == stat.states.size

    def test_member_off_both_supports_has_no_mass(self):
        # p = q = 0 on symbol 1: p^a q^(1-a) is nan there at a < 0, and reads 0 as on the curve
        pair = (Categorical([0.5, 0.0, 0.5]), Categorical([0.25, 0.0, 0.75]))
        member = testing._statistic(pair, CONST, 200).member(-0.5)
        assert member.probs[1] == 0.0
        assert member.probs[2] == pytest.approx(0.75 ** 1.5 / (0.25 ** 1.5 + 0.75 ** 1.5))

    @pytest.mark.parametrize("seed", [0, 5])
    def test_untilted_where_the_event_is_not_rare(self, seed):
        # s = 0.2 <= KL(Q||P) = 1 - ln 2: the draws are S ~ Gamma(20, 1) under Q on stream 2
        prob = BinaryTestProblem(Exponential(2.0), Exponential(1.0), CONST, 20)
        stat = testing._statistic((prob.model_p, prob.model_q), CONST, 20)
        assert testing._tail_tilt(prob, stat, 0.2) == (0.0, 0.0)
        s = rng_stream(seed, 2, 0).gamma(20, 1.0, 5000)
        direct = float(np.mean(s - 20 * math.log(2.0) >= 0.2 * 20))
        freq, se = tail_frequency(prob, 0.2, 20, 5000, seed)
        assert freq == direct
        assert se == pytest.approx(math.sqrt(direct * (1.0 - direct) / 5000), rel=1e-12)

    def test_tilted_to_the_edge_where_the_supremum_is_not_attained(self):
        # L* = n - S ln 2 under Q = Poisson(1): L* >= n only at S = 0, P = e^-10, and the
        # Legendre objective climbs toward -ln P / n without reaching it; draws under Q
        # had read 0 at 1e3 replicates
        prob = BinaryTestProblem(Poisson(2.0), Poisson(1.0), CONST, 10)
        stat = testing._statistic((prob.model_p, prob.model_q), CONST, 10)
        assert testing._tail_tilt(prob, stat, 1.0)[0] == -testing._LEGENDRE_SPAN
        freq, _ = tail_frequency(prob, 1.0, 10, 1000, seed=0)
        assert freq == pytest.approx(math.exp(-10.0), rel=1e-4)
        # past the edge the event is empty
        assert tail_frequency(prob, 1.5, 10, 1000, seed=0) == (0.0, 0.0)

    def test_untilted_for_the_sample_itself(self):
        # a Cauchy pair has no member to draw: the rows are n-samples of Q on stream 2
        p, q, n = Cauchy(0.0, 1.0), Cauchy(1.0, 1.0), 10
        prob = BinaryTestProblem(p, q, CONST, n)
        rows = q.sample(rng_stream(7, 2, 0), 2000 * n).reshape(2000, n)
        direct = float(np.mean([tilted_llr(prob, x) >= 0.5 * n for x in rows]))
        freq, se = tail_frequency(prob, 0.5, n, 2000, seed=7)
        assert freq == direct
        assert se == pytest.approx(math.sqrt(direct * (1.0 - direct) / 2000), rel=1e-12)

    def test_untilted_where_kl_is_infinite(self):
        # Q draws symbol 2, which P lacks, with chance 1 - 0.75^n: F(a) = +inf for a < 0
        prob = BinaryTestProblem(Categorical([0.5, 0.5, 0.0]), Categorical([0.25, 0.5, 0.25]),
                                 CONST, 10)
        stat = testing._statistic((prob.model_p, prob.model_q), CONST, 10)
        assert testing._tail_tilt(prob, stat, 1.0) == (0.0, 0.0)
        freq, se = tail_frequency(prob, 1.0, 10, 10_000, seed=2)
        assert abs(freq - (1.0 - 0.75 ** 10)) <= 4.0 * se

    def test_infinite_kl_takes_no_legendre_solve(self, monkeypatch):
        # Q has mass on symbol 2, which P lacks: the draws stay under Q, with no search of
        # the curve for a tilt (the solve used to bisect to alpha = 0 over 44 evaluations)
        moments, calls = testing.AffinityCurve.moments, []

        def counted(curve, a):
            calls.append(a)
            return moments(curve, a)

        monkeypatch.setattr(testing.AffinityCurve, "moments", counted)
        prob = BinaryTestProblem(Categorical([0.5, 0.5, 0.0]), Categorical([0.25, 0.5, 0.25]),
                                 CONST, 10)
        assert tail_frequency(prob, 0.3, 10, 10_000, seed=2) == (0.9411, 0.002354374439208852)
        assert len(calls) <= 1
