"""Model families, context weights, normalisers and samplers."""

import json
import math
import re

import numpy as np
import pytest
from scipy import integrate, special, stats

from wchernoff import (
    AffinityCurve,
    BinaryTestProblem,
    Categorical,
    Cauchy,
    ConstWeight,
    ConvergenceError,
    Exponential,
    ExpTiltWeight,
    Gaussian,
    MAryProblem,
    NonIntegrableWeightError,
    OutsideSupportError,
    Poisson,
    PreconditionError,
    TableWeight,
    TiltedDensity,
    UnsupportedCombinationError,
    gaussian_mean_family,
    log_density,
    log_weighted_normaliser,
    model_from_json,
    model_to_json,
    rng_stream,
    sample,
    validate_combination,
    weight_from_json,
    weight_to_json,
    weight_value,
    mary_optimal_loss,
    optimal_loss_mc,
    weighted_kl,
    weighted_normaliser,
)
from wchernoff.models import check_models, log_factorial, log_sum_exp, poisson_truncation


class TestLogDensity:
    @pytest.mark.parametrize("model, points, oracle", [
        (Gaussian([0.5], [[2.0]]), [-3.0, 0.0, 0.5, 4.25],
         stats.norm(0.5, math.sqrt(2.0)).logpdf),
        (Poisson(3.5), [0, 1, 7, 40], stats.poisson(3.5).logpmf),
        (Exponential(1.5), [0.0, 0.25, 9.0], stats.expon(scale=1.0 / 1.5).logpdf),
        (Cauchy(1.0, 0.5), [-10.0, 1.0, 3.0], stats.cauchy(1.0, 0.5).logpdf),
        (Categorical([0.2, 0.0, 0.8]), [0, 1, 2],
         lambda k: np.array([math.log(0.2), -np.inf, math.log(0.8)])[k]),
    ])
    def test_logpdf_on_arrays_and_points(self, model, points, oracle):
        vec = model.logpdf(np.asarray(points, dtype=float))
        np.testing.assert_allclose(vec, oracle(np.asarray(points)), rtol=1e-12)
        for x, v in zip(points, vec):
            assert log_density(model, x) == pytest.approx(v, rel=1e-15, abs=0.0)

    def test_gaussian_log_density_in_dimension_2(self):
        mean, cov = [0.5, -1.0], [[2.0, 0.6], [0.6, 0.8]]
        oracle = stats.multivariate_normal(mean, cov).logpdf
        m = Gaussian(mean, cov)
        for x in ([0.5, -1.0], [0.0, 0.0], [-3.0, 2.5], [4.0, 1.0]):
            assert log_density(m, x) == pytest.approx(float(oracle(x)), rel=1e-13)
        with pytest.raises(OutsideSupportError):
            log_density(m, [0.0])

    def test_standard_normal_mode(self):
        m = Gaussian(mean=[0.0], cov=[[1.0]])
        assert log_density(m, 0.0) == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-12)

    def test_log_factorial_matches_gammaln(self):
        # a lgamma table below 64, Stirling's series from 64 on
        k = np.arange(2_000_001, dtype=float)
        np.testing.assert_allclose(log_factorial(k), special.gammaln(k + 1.0), rtol=1e-15, atol=0)
        for point in (3, 64.0, np.float64(1e6)):
            assert float(log_factorial(point)) == pytest.approx(
                math.lgamma(point + 1.0), rel=1e-15, abs=0.0)

    def test_poisson_mass_at_zero(self):
        assert log_density(Poisson(2.0), 0) == pytest.approx(-2.0, abs=1e-12)

    def test_cauchy_far_from_its_location(self):
        # ((x - l) / s)^2 overflowed past 1.3e154 scales; ln s / (pi (s^2 + (x - l)^2)) does not
        cau = Cauchy(1.0, 1.0)
        x = np.array([1e155, -1e200, 1e300])
        np.testing.assert_allclose(cau.logpdf(x), -math.log(math.pi) - 2.0 * np.log(np.abs(x)),
                                   rtol=1e-15)
        wide = Cauchy(1.0, 1e150)
        assert wide.logpdf(1.0) == pytest.approx(-math.log(math.pi * 1e150), rel=1e-15)
        assert wide.logpdf(1e300) == pytest.approx(
            math.log(1e150 / math.pi) - 2.0 * math.log(1e300), rel=1e-15)

    def test_cauchy_central_value(self):
        assert log_density(Cauchy(0.0, 1.0), 0.0) == pytest.approx(math.log(1.0 / math.pi), abs=1e-12)

    def test_exponential_off_support(self):
        assert log_density(Exponential(2.0), -1.0) == -math.inf

    def test_poisson_rejects_non_integer(self):
        with pytest.raises(OutsideSupportError):
            log_density(Poisson(2.0), 1.5)

    def test_categorical_index_range(self):
        c = Categorical([0.25, 0.75])
        with pytest.raises(OutsideSupportError):
            log_density(c, 2)
        assert log_density(c, 1) == pytest.approx(math.log(0.75))

    def test_densities_normalise(self):
        # exp(log_density) must integrate/sum to 1 on every family
        gauss = Gaussian(mean=[0.3], cov=[[2.0]])
        val, _ = integrate.quad(lambda x: math.exp(gauss.log_density([x])), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

        expo = Exponential(1.7)
        val, _ = integrate.quad(lambda x: math.exp(expo.log_density(x)), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

        cau = Cauchy(1.0, 0.5)
        val, _ = integrate.quad(lambda x: math.exp(cau.log_density(x)), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)

        poi = Poisson(3.0)
        ks = np.arange(poisson_truncation(3.0) + 1)
        assert float(np.sum(np.exp(poi.log_density(ks)))) == pytest.approx(1.0, abs=1e-12)

        cat = Categorical([0.1, 0.2, 0.7])
        assert sum(math.exp(cat.log_density(k)) for k in range(3)) == pytest.approx(1.0)


class TestConstruction:
    def test_covariance_must_be_positive_definite(self):
        with pytest.raises(PreconditionError):
            Gaussian(mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])

    def test_covariance_must_be_symmetric(self):
        with pytest.raises(PreconditionError):
            Gaussian(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.1, 1.0]])

    def test_positive_rates(self):
        with pytest.raises(PreconditionError):
            Poisson(0.0)
        with pytest.raises(PreconditionError):
            Exponential(-1.0)
        with pytest.raises(PreconditionError):
            Cauchy(0.0, 0.0)

    def test_categorical_sums_to_one(self):
        with pytest.raises(PreconditionError):
            Categorical([0.5, 0.499])
        with pytest.raises(PreconditionError):
            Categorical([-0.1, 1.1])

    def test_table_weight_needs_positive_entry(self):
        with pytest.raises(PreconditionError):
            TableWeight([0.0, 0.0])

    @pytest.mark.parametrize("build, message", [
        (lambda: Gaussian(np.zeros(65), np.eye(65)), "gaussian dimension 65 exceeds limit 64"),
        (lambda: Categorical([]), "categorical probs must be a non-empty vector"),
        (lambda: ExpTiltWeight([1.0, 2.0]).scalar, "exp_tilt gamma is not scalar"),
        (lambda: TableWeight([]), "table weight values must be a non-empty vector"),
        (lambda: gaussian_mean_family(0.0), "gaussian mean family needs a positive variance"),
        (lambda: model_to_json(ConstWeight()), "cannot serialise ConstWeight"),
    ], ids=["gaussian_dimension", "empty_categorical", "vector_tilt_scalar", "empty_table",
            "mean_family_variance", "serialise_a_weight_as_a_model"])
    def test_rejected_with_its_message(self, build, message):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: Exponential(1e-310),
        lambda: Gaussian([0.0], [[1e-310]]),
        # the second Cholesky pivot is subnormal, the first is not
        lambda: Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 1e-310]]),
    ], ids=["exponential_rate", "gaussian_variance", "gaussian_second_pivot"])
    def test_subnormal_parameters_rejected(self, build):
        # 1/rate and the inverse variance overflow a double: the answers read inf or nan
        with pytest.raises(PreconditionError, match="2.2250738585072014e-308"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: Poisson(math.inf), "poisson rate must be finite"),
        (lambda: Poisson(math.nan), "poisson rate must be strictly positive"),
        (lambda: Exponential(math.inf), "exponential rate must be finite"),
        (lambda: Cauchy(0.0, math.inf), "cauchy scale must be finite"),
        (lambda: Cauchy(math.nan, 1.0), "cauchy location must be finite"),
        (lambda: Gaussian([math.nan], [[1.0]]), "gaussian mean must be finite"),
        (lambda: Gaussian([0.0], [[math.inf]]), "gaussian covariance must be finite"),
        (lambda: Categorical([math.nan, 1.0]), "categorical probabilities must be finite"),
        (lambda: ExpTiltWeight([math.nan]), "exp_tilt gamma must be finite"),
        (lambda: TableWeight([math.nan, 1.0]), "table weight values must be finite"),
        (lambda: TableWeight([math.inf, 1.0]), "table weight values must be finite"),
    ])
    def test_non_finite_parameters_rejected(self, build, message):
        with pytest.raises(PreconditionError) as exc:
            build()
        assert str(exc.value) == message


class TestWeightValue:
    def test_const_is_one(self):
        assert weight_value(ConstWeight(), 3.7) == 1.0

    def test_exp_tilt(self):
        assert weight_value(ExpTiltWeight([0.5]), 2.0) == pytest.approx(math.e, rel=1e-12)

    def test_table_zero_entry(self):
        assert weight_value(TableWeight([1.0, 0.0]), 1) == 0.0

    def test_exp_tilt_on_2d_points(self):
        w = ExpTiltWeight([0.5, -1.0])
        assert w.log_value([[1.0, 2.0], [3.0, 4.0]]).tolist() == [-1.5, -2.5]
        assert w.log_value([2.0, 1.0]) == 0.0  # one point

    def test_table_out_of_range(self):
        with pytest.raises(PreconditionError):
            weight_value(TableWeight([1.0, 2.0]), 5)


class TestWeightedNormaliser:
    def test_const_is_exactly_one(self):
        for m in (Gaussian([0.0], [[1.0]]), Poisson(2.0), Exponential(1.0),
                  Cauchy(0.0, 1.0), Categorical([0.4, 0.6])):
            assert weighted_normaliser(m, ConstWeight()) == 1.0

    def test_poisson_tilt_closed_form(self):
        # E_phi = exp(lam (e^gamma - 1)); at gamma = ln 2 this is e^lam
        val = weighted_normaliser(Poisson(2.0), ExpTiltWeight([math.log(2.0)]))
        assert val == pytest.approx(math.exp(2.0), rel=1e-12)
        ks = np.arange(poisson_truncation(4.0) + 1)
        poi = Poisson(2.0)
        oracle = float(np.sum(np.exp(poi.log_density(ks)) * 2.0 ** ks))
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_exponential_tilt_closed_form(self):
        val = weighted_normaliser(Exponential(2.0), ExpTiltWeight([0.5]))
        assert val == pytest.approx(2.0 / 1.5, rel=1e-12)
        oracle, _ = integrate.quad(lambda x: 2.0 * math.exp(0.5 * x - 2.0 * x),
                                   0.0, np.inf)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_gaussian_tilt_closed_form(self):
        g = Gaussian([0.7], [[1.3]])
        val = weighted_normaliser(g, ExpTiltWeight([0.4]))
        assert val == pytest.approx(math.exp(0.4 * 0.7 + 0.5 * 0.16 * 1.3), rel=1e-12)
        oracle, _ = integrate.quad(lambda x: math.exp(0.4 * x + g.log_density([x])),
                                   -np.inf, np.inf)
        assert val == pytest.approx(oracle, rel=1e-8)

    def test_table_on_categorical(self):
        val = weighted_normaliser(Categorical([0.25, 0.75]), TableWeight([1.0, 2.0]))
        assert val == pytest.approx(0.25 + 1.5)

    def test_log_normaliser_past_overflow(self):
        # ln E_phi stays finite where E_phi itself does not fit a double
        g = Gaussian([0.0, 1.0], [[1.0, 0.2], [0.2, 2.0]])
        gamma = np.array([30.0, -20.0])
        assert log_weighted_normaliser(g, ExpTiltWeight(gamma)) == pytest.approx(
            float(gamma @ g.mean + 0.5 * gamma @ g.cov @ gamma), rel=1e-14)
        assert log_weighted_normaliser(Poisson(1e6), ExpTiltWeight([40.0])) == pytest.approx(
            1e6 * math.expm1(40.0), rel=1e-14)
        cat = Categorical([0.25, 0.75])
        assert log_weighted_normaliser(cat, ExpTiltWeight([800.0])) == pytest.approx(
            800.0 + math.log(0.75), rel=1e-15)
        for m, w in ((Poisson(1e6), ExpTiltWeight([40.0])), (cat, ExpTiltWeight([800.0]))):
            with pytest.raises(ConvergenceError):
                weighted_normaliser(m, w)

    def test_divergent_weight_rejected(self):
        with pytest.raises(NonIntegrableWeightError):
            weighted_normaliser(Exponential(1.0), ExpTiltWeight([1.0]))
        with pytest.raises(NonIntegrableWeightError):
            weighted_normaliser(Cauchy(0.0, 1.0), ExpTiltWeight([0.1]))

    @pytest.mark.parametrize("normaliser", [0.0, math.inf])
    def test_tilted_density_needs_a_finite_positive_normaliser(self, normaliser):
        with pytest.raises(NonIntegrableWeightError,
                           match="tilted density requires a finite positive normaliser"):
            TiltedDensity(Poisson(2.0), ConstWeight(), normaliser)

    def test_tilted_density_normalises(self):
        td = TiltedDensity(Exponential(2.0), ExpTiltWeight([0.5]))
        val, _ = integrate.quad(lambda x: math.exp(td.log_density(x)), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-8)
        td2 = TiltedDensity(Poisson(2.0), ExpTiltWeight([0.25]))
        ks = np.arange(poisson_truncation(2.0 * math.exp(0.25)) + 1)
        assert float(np.sum([math.exp(td2.log_density(k)) for k in ks])) == pytest.approx(
            1.0, abs=1e-12)


class TestValidateCombination:
    def test_clean_combinations_are_empty(self):
        assert validate_combination(Poisson(2.0), ConstWeight()) == []
        assert validate_combination(Exponential(2.0), ExpTiltWeight([0.5])) == []

    def test_cauchy_tilt_diagnostic(self):
        diags = validate_combination(Cauchy(0.0, 1.0), ExpTiltWeight([0.1]))
        assert len(diags) == 1 and "Cauchy" in diags[0]

    @pytest.mark.parametrize("model", [Cauchy(0.0, 1.0), Exponential(1.0), Poisson(1.0)])
    def test_tilt_dimension_for_every_model(self, model):
        # a null tilt of the wrong length used to pass the Cauchy rule
        diags = validate_combination(model, ExpTiltWeight([0.0, 0.0]))
        assert diags and "must be scalar" in diags[0]

    def test_exponential_gamma_bound(self):
        diags = validate_combination(Exponential(1.0), ExpTiltWeight([1.5]))
        assert len(diags) == 1 and "gamma < rate" in diags[0]

    def test_table_only_on_categorical(self):
        diags = validate_combination(Poisson(1.0), TableWeight([1.0, 2.0]))
        assert diags


@pytest.mark.parametrize("logs", [
    np.array([-1e4, -1e4 + 3.0, -1e4 - 700.0]),
    np.array([[0.5, -np.inf], [2.0, -3.0]]),  # 2-D, as the M-ary exact sum passes it
    np.array([-np.inf, -np.inf]),
])
def test_log_sum_exp_matches_scipy(logs):
    expected = special.logsumexp(logs) if np.isfinite(logs).any() else -np.inf
    assert log_sum_exp(logs) == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestCheckModels:
    """One admissibility check behind every entry point."""

    @pytest.mark.parametrize("models, weight", [
        # both losses diverge; Monte Carlo returned 3.0e41 +- 3.0e41 and 3.1e5 +- 1.5e5
        ((Cauchy(0.0, 1.0), Cauchy(1.0, 1.0)), ExpTiltWeight([0.1])),
        ((Exponential(2.0), Exponential(1.0)), ExpTiltWeight([2.5])),
    ])
    def test_monte_carlo_rejects_divergent_losses(self, models, weight):
        with pytest.raises(NonIntegrableWeightError):
            optimal_loss_mc(BinaryTestProblem(*models, weight, 5), 2000)
        with pytest.raises(NonIntegrableWeightError):
            mary_optimal_loss(MAryProblem(models, weight), 5, method="monte_carlo",
                              replicates=2000)

    def test_categorical_sizes_rejected_at_construction(self):
        with pytest.raises(UnsupportedCombinationError, match="differ in size"):
            BinaryTestProblem(Categorical([0.5, 0.5]), Categorical([0.2, 0.3, 0.5]),
                              ConstWeight(), 2)

    def test_dimensions_compared_both_ways(self):
        g2 = Gaussian([0.0, 0.0], np.eye(2))
        for pair in ((g2, Cauchy(0.0, 1.0)), (Cauchy(0.0, 1.0), g2)):
            with pytest.raises(UnsupportedCombinationError, match="different dimensions"):
                check_models(pair, ConstWeight())

    def test_weight_rule_reported_first(self):
        # Poisson against Cauchy breaks the sample-space rule as well
        with pytest.raises(NonIntegrableWeightError, match="Cauchy tails"):
            AffinityCurve(Poisson(1.0), Cauchy(0.0, 1.0), ExpTiltWeight([0.1]))

    def test_exponential_pair_needs_gamma_below_larger_rate(self):
        pair = (Exponential(2.0), Exponential(1.0))
        check_models(pair, ExpTiltWeight([1.5]))
        with pytest.raises(NonIntegrableWeightError, match="gamma < max"):
            check_models(pair, ExpTiltWeight([2.0]))
        # three models: gamma must lie below every rate
        with pytest.raises(NonIntegrableWeightError, match="rate 1.0"):
            check_models(pair + (Exponential(3.0),), ExpTiltWeight([1.5]))

    def test_weighted_kl_checks_p_weight_only(self):
        assert math.isfinite(weighted_kl(Exponential(2.0), Exponential(1.0),
                                         ExpTiltWeight([1.5])))
        with pytest.raises(NonIntegrableWeightError, match="Cauchy tails"):
            weighted_kl(Cauchy(0.0, 1.0), Cauchy(1.0, 1.0), ExpTiltWeight([0.1]))


class TestSampling:
    def test_degenerate_categorical(self):
        rng = rng_stream(0)
        draws = sample(Categorical([1.0, 0.0]), rng, 5)
        assert list(draws) == [0, 0, 0, 0, 0]

    def test_poisson_mean(self):
        rng = rng_stream(42)
        draws = sample(Poisson(2.0), rng, 100000)
        assert abs(draws.mean() - 2.0) < 3.0 * math.sqrt(2.0 / 100000)

    def test_gaussian_variance(self):
        rng = rng_stream(1)
        draws = sample(Gaussian([0.0], [[1.0]]), rng, 100000)
        assert 0.98 < draws.var() < 1.02

    def test_determinism(self):
        a = sample(Exponential(1.0), rng_stream(7, 1), 10)
        b = sample(Exponential(1.0), rng_stream(7, 1), 10)
        c = sample(Exponential(1.0), rng_stream(7, 2), 10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_invalid_count(self):
        with pytest.raises(PreconditionError):
            sample(Poisson(1.0), rng_stream(0), 0)


class TestPoissonTruncation:
    def test_tail_below_double_precision(self):
        for lam in (0.5, 2.0, 10.0, 40.0):
            k = poisson_truncation(lam)
            ks = np.arange(k + 1)
            mass = float(np.sum(np.exp(Poisson(lam).log_density(ks))))
            assert 1.0 - mass < 1e-15


class TestJsonSchema:
    def test_round_trip_all_families(self):
        models = [
            Gaussian([0.5, -1.0], [[2.0, 0.3], [0.3, 1.0]]),
            Gaussian([0.5], [[2.0]]),
            Poisson(2.5),
            Exponential(0.7),
            Cauchy(1.0, 2.0),
            Categorical([0.2, 0.3, 0.5]),
        ]
        for m in models:
            back = model_from_json(json.loads(json.dumps(model_to_json(m))))
            assert back == m and hash(back) == hash(m) and type(back) is type(m)
        weights = [ConstWeight(), ExpTiltWeight([0.25]), ExpTiltWeight([0.25, -1.0]),
                   TableWeight([1.0, 0.5])]
        for w in weights:
            back = weight_from_json(json.loads(json.dumps(weight_to_json(w))))
            assert back == w and hash(back) == hash(w) and type(back) is type(w)

    def test_field_names_and_order(self):
        assert list(model_to_json(Gaussian([0.0], [[1.0]]))) == ["family", "mean", "cov"]
        assert model_to_json(Poisson(2.5)) == {"family": "poisson", "lambda": 2.5}
        assert model_to_json(Cauchy(1.0, 2.0)) == {"family": "cauchy", "location": 1.0,
                                                   "scale": 2.0}
        assert weight_to_json(ConstWeight()) == {"kind": "const"}
        assert weight_to_json(TableWeight([1, 2])) == {"kind": "table", "values": [1.0, 2.0]}

    def test_equality_is_by_value_within_one_class(self):
        assert Gaussian([0.0], [[1.0]]) != Gaussian([0.0, 0.0], np.eye(2))
        assert Gaussian([0.0], [[1.0]]) != Gaussian([0.0], [[2.0]])
        assert Categorical([0.5, 0.5]) != TableWeight([0.5, 0.5])
        assert ExpTiltWeight([0.0]) == ExpTiltWeight(0.0)
        assert ExpTiltWeight([0.0]) != ConstWeight()
        assert len({TableWeight([1.0, 0.5]), TableWeight(np.array([1.0, 0.5]))}) == 1

    def test_extra_keys_ignored(self):
        assert model_from_json({"family": "poisson", "lambda": 2.0, "rate": 9}) == Poisson(2.0)
        assert weight_from_json({"kind": "const", "gamma": [1.0]}) == ConstWeight()

    def test_missing_field_points_at_it(self):
        with pytest.raises(PreconditionError, match="lambda"):
            model_from_json({"family": "poisson"})

    def test_unknown_family(self):
        with pytest.raises(PreconditionError, match="unknown model family"):
            model_from_json({"family": "beta"})

    def test_weight_defaults_to_const(self):
        assert weight_from_json(None) == ConstWeight()
