"""Command-line interface: outputs, exit codes, determinism."""

import json
import math

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wchernoff.cli import dumps, main

POISSON_P = '{"family": "poisson", "lambda": 2.0}'
POISSON_Q = '{"family": "poisson", "lambda": 1.0}'
EXP_P = '{"family": "exponential", "rate": 2.0}'
EXP_Q = '{"family": "exponential", "rate": 1.0}'
CAUCHY_P = '{"family": "cauchy", "location": 0.0, "scale": 1.0}'
CAUCHY_Q = '{"family": "cauchy", "location": 2.0, "scale": 1.0}'
BERN_P = '{"family": "categorical", "probs": [0.5, 0.5]}'
BERN_Q = '{"family": "categorical", "probs": [0.25, 0.75]}'
TILT_HALF = '{"kind": "exp_tilt", "gamma": [0.5]}'


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    # the emitter uses the words NaN/Infinity, which json.loads accepts
    return json.loads(result.output)


class TestChernoffCommand:
    def test_poisson_reference_values(self, runner):
        rep = run_json(runner, ["chernoff", "--model-p", POISSON_P,
                                "--model-q", POISSON_Q])
        assert rep["command"] == "chernoff"
        assert rep["inputs"]["model_p"]["family"] == "poisson"
        assert rep["results"]["alpha_star"] == pytest.approx(0.528766, abs=1e-6)
        assert rep["results"]["d_c_w"] == pytest.approx(0.086071, abs=1e-6)
        assert rep["results"]["boundary"] == "interior"
        assert "version" in rep

    def test_generic_solver_agrees(self, runner):
        a = run_json(runner, ["chernoff", "--model-p", POISSON_P,
                              "--model-q", POISSON_Q])
        b = run_json(runner, ["chernoff", "--model-p", POISSON_P,
                              "--model-q", POISSON_Q, "--solver", "generic"])
        assert b["results"]["d_c_w"] == pytest.approx(a["results"]["d_c_w"], abs=1e-8)

    def test_weighted_run(self, runner):
        rep = run_json(runner, ["chernoff", "--model-p", EXP_P, "--model-q", EXP_Q,
                                "--weight", TILT_HALF])
        assert rep["inputs"]["weight"]["kind"] == "exp_tilt"
        # weighted affinities may exceed 1, so D_C^w can be negative
        assert rep["results"]["d_c_w"] == pytest.approx(-0.28691348913836334, abs=1e-8)

    def test_file_inputs_and_out(self, runner, tmp_path):
        p_file = tmp_path / "p.json"
        p_file.write_text(POISSON_P)
        out_file = tmp_path / "report.json"
        result = runner.invoke(main, ["chernoff", "--model-p", str(p_file),
                                      "--model-q", POISSON_Q,
                                      "--out", str(out_file)])
        assert result.exit_code == 0
        rep = json.loads(out_file.read_text())
        assert rep["results"]["alpha_star"] == pytest.approx(0.528766, abs=1e-6)


class TestCurveCommand:
    def test_csv_header_and_convexity(self, runner):
        result = runner.invoke(main, ["curve", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q, "--grid", "21"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "alpha,rho_w,d_b_alpha"
        rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
        assert len(rows) == 21
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        logs = [math.log(r[1]) for r in rows]
        for i in range(1, len(logs) - 1):
            assert logs[i] <= 0.5 * (logs[i - 1] + logs[i + 1]) + 1e-12
        for r in rows:
            assert r[2] == pytest.approx(-math.log(r[1]), rel=1e-12)

    def test_identical_models_give_unit_rho(self, runner):
        result = runner.invoke(main, ["curve", "--model-p", POISSON_P,
                                      "--model-q", POISSON_P, "--grid", "5"])
        assert result.exit_code == 0
        for line in result.output.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-12)

    def test_json_format(self, runner):
        rep = run_json(runner, ["curve", "--model-p", POISSON_P,
                                "--model-q", POISSON_Q, "--grid", "5",
                                "--format", "json"])
        assert len(rep["results"]["rows"]) == 5

    def test_d_b_prints_zero_not_minus_zero(self, runner):
        result = runner.invoke(main, ["curve", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q, "--grid", "3"])
        assert result.exit_code == 0
        rows = result.output.strip().split("\n")
        assert rows[1] == "0,1,0" and rows[3] == "1,1,0"

    def test_grid_floor(self, runner):
        result = runner.invoke(main, ["curve", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q, "--grid", "2"])
        assert result.exit_code == 2


class TestDivergenceCommand:
    def test_weighted_kl_and_alpha(self, runner):
        rep = run_json(runner, ["divergence", "--model-p", POISSON_P,
                                "--model-q", POISSON_Q, "--alpha", "0.5"])
        # KL(Poisson(2) || Poisson(1)) = 2 ln 2 - 1
        assert rep["results"]["weighted_kl"] == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-10)
        assert rep["results"]["d_b_alpha"] == pytest.approx(
            -math.log(rep["results"]["rho_w"]), rel=1e-12)

    def test_cauchy_closed_forms(self, runner):
        rep = run_json(runner, ["divergence", "--model-p", CAUCHY_P,
                                "--model-q", CAUCHY_Q])
        assert rep["results"]["cauchy_rho_half"] == pytest.approx(0.8346268, abs=1e-6)
        assert rep["results"]["cauchy_d_c"] == pytest.approx(0.1807705, abs=1e-6)
        assert rep["results"]["cauchy_kl"] == pytest.approx(math.log(2.0), rel=1e-10)

    def test_exponential_tilt_between_rates(self, runner):
        # gamma = 1.5 is integrable against Exp(2) only: KL(Exp2 || Exp1) is finite
        tilt = '{"kind": "exp_tilt", "gamma": [1.5]}'
        rep = run_json(runner, ["divergence", "--model-p", EXP_P, "--model-q", EXP_Q,
                                "--weight", tilt])
        assert rep["results"]["weighted_kl"] == pytest.approx(-5.2274112777602, rel=1e-12)
        result = runner.invoke(main, ["divergence", "--model-p", EXP_Q, "--model-q", EXP_P,
                                      "--weight", tilt])
        assert result.exit_code == 2

    def test_d_b_alpha_prints_zero_not_minus_zero(self, runner):
        result = runner.invoke(main, ["divergence", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q, "--alpha", "1"])
        assert result.exit_code == 0
        assert '"d_b_alpha": 0\n' in result.output

    def test_categorical_tilt_past_the_range_of_phi(self, runner):
        # phi = e^800 is not a double, phi p = e^109 is: the KL is -1.8814230554515146e50
        rep = run_json(runner, ["divergence",
                                "--model-p", '{"family": "categorical", "probs": [1.0, 1e-300]}',
                                "--model-q", BERN_P,
                                "--weight", '{"kind": "exp_tilt", "gamma": [800]}'])
        assert rep["results"]["weighted_kl"] == pytest.approx(-1.8814230554515146e50, rel=1e-12)

    def test_infinite_kl_serialises(self, runner):
        rep = run_json(runner, ["divergence",
                                "--model-p", '{"family": "categorical", "probs": [1.0, 0.0]}',
                                "--model-q", '{"family": "categorical", "probs": [0.0, 1.0]}'])
        assert rep["results"]["weighted_kl"] == math.inf


class TestSimulateCommand:
    ARGS = ["simulate", "--model-p", POISSON_P, "--model-q", POISSON_Q,
            "--n", "10", "--replicates", "2000", "--seed", "1"]

    def test_single_n_json(self, runner):
        rep = run_json(runner, self.ARGS)
        res = rep["results"]
        assert res["n"] == 10 and res["replicates"] == 2000 and res["seed"] == 1
        assert res["d_c_w_reference"] == pytest.approx(0.086071, abs=1e-6)
        assert res["exponent_estimate"] >= res["d_c_w_reference"] - 0.05

    def test_byte_identical_repeats(self, runner):
        first = runner.invoke(main, self.ARGS)
        second = runner.invoke(main, self.ARGS)
        assert first.exit_code == 0 and second.exit_code == 0
        assert first.output == second.output

    def test_multiple_n_csv(self, runner):
        result = runner.invoke(main, ["simulate", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q, "--n", "5", "--n", "10",
                                      "--replicates", "2000", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "n,exponent_estimate,d_c_w"
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "10"]


    def test_loss_of_one_prints_exponent_zero(self, runner):
        # Poisson(1) against itself: every state scores 1, and -ln 1 / n printed -0
        pair = ["--model-p", POISSON_Q, "--model-q", POISSON_Q, "--n", "3",
                "--replicates", "1000"]
        result = runner.invoke(main, ["simulate", *pair])
        assert result.exit_code == 0
        assert '"loss": 1,' in result.output
        assert '"exponent_estimate": 0,' in result.output  # json reads -0 as the int 0
        result = runner.invoke(main, ["simulate", *pair, "--format", "csv"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == "3,0,0"

class TestMaryCommand:
    MODELS = ('[{"family": "poisson", "lambda": 1.0},'
              ' {"family": "poisson", "lambda": 2.0},'
              ' {"family": "poisson", "lambda": 4.0}]')

    def test_matrix_and_minimum(self, runner):
        rep = run_json(runner, ["mary", "--models", self.MODELS])
        res = rep["results"]
        assert res["c_m_w"] == pytest.approx(0.086071, abs=1e-6)
        assert res["pair"] == [0, 1]
        assert res["matrix"][0][2] == pytest.approx(0.506551, abs=1e-6)
        assert not res["degenerate"]

    def test_priors_echoed(self, runner):
        rep = run_json(runner, ["mary", "--models", self.MODELS,
                                "--priors", "0.5,0.3,0.2"])
        assert rep["inputs"]["priors"] == [0.5, 0.3, 0.2]

    def test_single_model_rejected(self, runner):
        result = runner.invoke(main, ["mary", "--models",
                                      '[{"family": "poisson", "lambda": 1.0}]'])
        assert result.exit_code == 2

    def test_cauchy_tilt_rejected(self, runner):
        models = ('[{"family": "cauchy", "location": 0.0, "scale": 1.0},'
                  ' {"family": "cauchy", "location": 1.0, "scale": 1.0},'
                  ' {"family": "cauchy", "location": 2.0, "scale": 2.0}]')
        result = runner.invoke(main, ["mary", "--models", models,
                                      "--weight", '{"kind": "exp_tilt", "gamma": [0.1]}'])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: exponential tilt is not integrable against"
                                 " Cauchy tails; only gamma=0 is admissible\n")

    def test_bad_priors(self, runner):
        result = runner.invoke(main, ["mary", "--models", self.MODELS,
                                      "--priors", "0.5,0.5,0.5"])
        assert result.exit_code == 2


class TestTailboundCommand:
    def test_bound_dominates_frequency(self, runner):
        rep = run_json(runner, ["tailbound", "--model-p", BERN_P,
                                "--model-q", BERN_Q, "--beta", "0.23",
                                "--n", "50", "--replicates", "2000"])
        res = rep["results"]
        assert res["kl_qp"] == pytest.approx(0.130812, abs=1e-6)
        assert res["bound"] >= res["empirical_frequency"]
        assert 0.0 < res["bound"] < 1.0

    def test_unsupported_model_exits_2(self, runner):
        result = runner.invoke(main, ["tailbound", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q, "--beta", "1.0",
                                      "--replicates", "1000"])
        assert result.exit_code == 2

    def test_infinite_kl_exits_2(self, runner):
        # KL(Q||P) of a Cauchy q against a Gaussian p is infinite: the
        # categorical-only precondition is judged before anything is integrated
        result = runner.invoke(main, ["tailbound", "--model-p", GAUSS_1, "--model-q", CAUCHY_P,
                                      "--beta", "0.2", "--n", "10", "--replicates", "1000"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: tail bound needs bounded log-ratio increments"
                                 " (categorical models)\n")


class TestIdentitiesCommand:
    def test_exponential_tilted_suite(self, runner):
        rep = run_json(runner, ["identities", "--model-p", EXP_P,
                                "--model-q", EXP_Q, "--weight", TILT_HALF])
        res = rep["results"]
        assert res["boundary"] == "interior"
        for name, entry in res["identities"].items():
            assert entry["applicable"], name
            assert abs(entry["residual"]) < 1e-8, name
        assert res["max_applicable_residual"] < 1e-8

    def test_underflowing_arc_affinity(self, runner):
        # rho(alpha*) = e^-6395: the arc KL of identity (iii) is a log-domain mean
        rep = run_json(runner, ["identities", "--model-p", '{"family": "poisson", "lambda": 1.0}',
                                "--model-q", '{"family": "poisson", "lambda": 1e4}',
                                "--weight", '{"kind": "exp_tilt", "gamma": [0.1]}'])
        res = rep["results"]
        assert res["boundary"] == "interior"
        assert all(entry["applicable"] for entry in res["identities"].values())
        assert res["max_applicable_residual"] <= 1e-10

    def test_rates_far_apart(self, runner):
        # identity (vii) integrates p^a q^b by quadrature, a bump that decays at
        # a rate_p + b rate_q: pieces cut only at 1/rate = 1e-3 and 1e3 missed most
        # of its mass, and the residual read 1.5
        rep = run_json(runner, ["identities",
                                "--model-p", '{"family": "exponential", "rate": 0.001}',
                                "--model-q", '{"family": "exponential", "rate": 1000}'])
        res = rep["results"]
        assert all(entry["applicable"] for entry in res["identities"].values())
        assert res["max_applicable_residual"] <= 1e-10

    def test_unsupported_family_exits_2(self, runner):
        result = runner.invoke(main, ["identities", "--model-p", CAUCHY_P,
                                      "--model-q", CAUCHY_Q])
        assert result.exit_code == 2


GAUSS_1 = '{"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}'
GAUSS_2 = '{"family": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}'
TILT_01 = '{"kind": "exp_tilt", "gamma": [0.1]}'
CAUCHY_TAILS = ("exponential tilt is not integrable against Cauchy tails;"
                " only gamma=0 is admissible")
# inputs breaking a weight rule, every command rejects them before computing
WEIGHT_ERRORS = {
    "cauchy_tilt": (CAUCHY_P, CAUCHY_Q, TILT_01, CAUCHY_TAILS),
    "exponential_gamma_2.5": (EXP_P, EXP_Q, '{"kind": "exp_tilt", "gamma": [2.5]}',
                              "weight not integrable under both hypotheses:"
                              " requires gamma < max(rate)"),
    "table_on_poisson": (POISSON_P, POISSON_Q, '{"kind": "table", "values": [1.0, 2.0]}',
                         "table weights are only supported on categorical models"),
    # a sample-space rule is broken too; the weight rule is reported first
    "poisson_vs_cauchy_tilt": (POISSON_P, CAUCHY_P, TILT_01, CAUCHY_TAILS),
    # the weighted KL needs only p's weight, the command checks both models
    "gaussian_vs_cauchy_tilt": (GAUSS_1, CAUCHY_P, TILT_01, CAUCHY_TAILS),
}
# inputs breaking a sample-space rule, for the commands that build a curve
# or a problem of the pair first
SPACE_ERRORS = {
    "categorical_sizes": (BERN_P, '{"family": "categorical", "probs": [0.2, 0.3, 0.5]}',
                          None, "categorical supports differ in size"),
    "gaussian_dimensions": (GAUSS_1, GAUSS_2, None, "gaussian models have different dimensions"),
    "poisson_vs_gaussian": (POISSON_P, GAUSS_1, None,
                            "models live on different sample spaces (nonneg_int vs real)"),
}
COMMAND_ARGS = {
    "chernoff": [], "curve": [], "divergence": [],
    "simulate": ["--n", "5", "--replicates", "1000"],
    "mary": [],
    "tailbound": ["--beta", "0.2", "--n", "5", "--replicates", "1000"],
    "identities": [],
}
REJECTIONS = ([(name, cmd) for name in WEIGHT_ERRORS for cmd in COMMAND_ARGS]
              + [(name, cmd) for name in SPACE_ERRORS
                 for cmd in ("chernoff", "curve", "divergence", "simulate", "mary")])


@pytest.mark.parametrize("name, command", REJECTIONS)
def test_validation_error_output(runner, name, command):
    p, q, weight, message = {**WEIGHT_ERRORS, **SPACE_ERRORS}[name]
    if command == "mary":
        args = ["mary", "--models", f"[{p}, {q}]"]
    else:
        args = [command, "--model-p", p, "--model-q", q] + COMMAND_ARGS[command]
    result = runner.invoke(main, args + (["--weight", weight] if weight else []))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


NOT_STR = "float() argument must be a string or a real number, not"
# a malformed model or weight spec, and the one stderr line it exits 2 with
MALFORMED = {
    "model_list": ("[1, 2]", None, "model JSON must be an object with a 'family' field"),
    "model_no_family": ('{"lambda": 1}', None,
                        "model JSON must be an object with a 'family' field"),
    "unknown_family": ('{"family": "beta"}', None, "unknown model family 'beta'"),
    "unhashable_family": ('{"family": ["x"]}', None, "unknown model family '['x']'"),
    "null_family": ('{"family": null}', None, "unknown model family 'None'"),
    "gaussian_no_cov": ('{"family": "gaussian", "mean": [0]}', None,
                        "model JSON for family 'gaussian' is missing field 'cov'"),
    "poisson_no_lambda": ('{"family": "poisson", "lam": 1}', None,
                          "model JSON for family 'poisson' is missing field 'lambda'"),
    "exponential_no_rate": ('{"family": "exponential"}', None,
                            "model JSON for family 'exponential' is missing field 'rate'"),
    "cauchy_no_fields": ('{"family": "cauchy"}', None,
                         "model JSON for family 'cauchy' is missing field 'location'"),
    "cauchy_no_scale": ('{"family": "cauchy", "location": 0}', None,
                        "model JSON for family 'cauchy' is missing field 'scale'"),
    "categorical_no_probs": ('{"family": "categorical"}', None,
                             "model JSON for family 'categorical' is missing field 'probs'"),
    "poisson_string": ('{"family": "poisson", "lambda": "abc"}', None,
                       "model JSON for family 'poisson': could not convert string to float: 'abc'"),
    "poisson_list": ('{"family": "poisson", "lambda": [1, 2]}', None,
                     f"model JSON for family 'poisson': {NOT_STR} 'list'"),
    "poisson_null": ('{"family": "poisson", "lambda": null}', None,
                     f"model JSON for family 'poisson': {NOT_STR} 'NoneType'"),
    "poisson_negative": ('{"family": "poisson", "lambda": -1}', None,
                         "poisson rate must be strictly positive"),
    # the location is read before the scale is checked
    "cauchy_bad_location": ('{"family": "cauchy", "location": "x", "scale": -1}', None,
                            "model JSON for family 'cauchy': could not convert string to float: 'x'"),
    "cauchy_list_location": ('{"family": "cauchy", "location": [1, 2], "scale": 1}', None,
                             f"model JSON for family 'cauchy': {NOT_STR} 'list'"),
    "gaussian_string": ('{"family": "gaussian", "mean": "abc", "cov": [[1]]}', None,
                        "model JSON for family 'gaussian': could not convert string to float: 'abc'"),
    "gaussian_dict": ('{"family": "gaussian", "mean": {"a": 1}, "cov": [[1]]}', None,
                      f"model JSON for family 'gaussian': {NOT_STR} 'dict'"),
    "gaussian_shape": ('{"family": "gaussian", "mean": [0, 0], "cov": [[1]]}', None,
                       "gaussian covariance shape does not match mean"),
    "gaussian_matrix_mean": ('{"family": "gaussian", "mean": [[0]], "cov": [[1]]}', None,
                             "gaussian mean must be a vector"),
    "categorical_sum": ('{"family": "categorical", "probs": [0.5, 0.6]}', None,
                        "categorical probabilities must sum to 1 within 1e-12"),
    "weight_list": (POISSON_P, "[1]", "weight JSON must be an object with a 'kind' field"),
    "weight_no_kind": (POISSON_P, '{"gamma": [1]}',
                       "weight JSON must be an object with a 'kind' field"),
    "unknown_kind": (POISSON_P, '{"kind": "beta"}', "unknown weight kind 'beta'"),
    "unhashable_kind": (POISSON_P, '{"kind": {"a": 1}}', "unknown weight kind '{'a': 1}'"),
    "tilt_no_gamma": (POISSON_P, '{"kind": "exp_tilt"}',
                      "weight JSON for kind 'exp_tilt' is missing field 'gamma'"),
    "table_no_values": (BERN_P, '{"kind": "table"}',
                        "weight JSON for kind 'table' is missing field 'values'"),
    "tilt_string": (POISSON_P, '{"kind": "exp_tilt", "gamma": "a"}',
                    "weight JSON for kind 'exp_tilt': could not convert string to float: 'a'"),
    "tilt_matrix": (POISSON_P, '{"kind": "exp_tilt", "gamma": [[1]]}',
                    "exp_tilt gamma must be a scalar or vector"),
    "table_negative": (BERN_P, '{"kind": "table", "values": [-1, 1]}',
                       "table weight values must be non-negative"),
    # non-finite parameters
    "poisson_inf": ('{"family": "poisson", "lambda": 1e400}', None,
                    "poisson rate must be finite"),
    "poisson_huge_int": ('{"family": "poisson", "lambda": 1' + "0" * 400 + '}', None,
                         "model JSON for family 'poisson': int too large to convert to float"),
    "gaussian_nan": ('{"family": "gaussian", "mean": [NaN], "cov": [[1]]}', None,
                     "gaussian mean must be finite"),
    "gaussian_null": ('{"family": "gaussian", "mean": [null], "cov": [[1]]}', None,
                      "gaussian mean must be finite"),
    "gaussian_inf_cov": ('{"family": "gaussian", "mean": [0], "cov": [[Infinity]]}', None,
                         "gaussian covariance must be finite"),
    "exponential_inf": ('{"family": "exponential", "rate": Infinity}', None,
                        "exponential rate must be finite"),
    "cauchy_inf": ('{"family": "cauchy", "location": 0, "scale": Infinity}', None,
                   "cauchy scale must be finite"),
    "categorical_nan": ('{"family": "categorical", "probs": [NaN, 1.0]}', None,
                        "categorical probabilities must be finite"),
    "tilt_nan": (POISSON_P, '{"kind": "exp_tilt", "gamma": [NaN]}',
                 "exp_tilt gamma must be finite"),
    "table_nan": (BERN_P, '{"kind": "table", "values": [NaN, 1]}',
                  "table weight values must be finite"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_spec(runner, name):
    p, weight, message = MALFORMED[name]
    result = runner.invoke(main, ["chernoff", "--model-p", p, "--model-q", p]
                           + (["--weight", weight] if weight else []))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


def test_dumps_nan_and_empty_containers():
    assert dumps({"x": math.nan, "d": {}, "l": []}) == '{\n  "x": NaN,\n  "d": {},\n  "l": []\n}'


def test_command_parameter_order():
    # a pair command takes the pair and the weight, then its own options, then --out
    names = {name: [p.name for p in cmd.params] for name, cmd in main.commands.items()}
    pair = ["model_p", "model_q", "weight"]
    assert names == {
        "chernoff": pair + ["solver", "out"],
        "curve": pair + ["grid", "fmt", "out"],
        "divergence": pair + ["alpha", "out"],
        "simulate": pair + ["ns", "replicates", "seed", "fmt", "out"],
        "mary": ["models_spec", "weight", "priors", "out"],
        "tailbound": pair + ["beta", "n", "replicates", "seed", "out"],
        "identities": pair + ["out"],
    }


class TestErrorPaths:
    def test_malformed_json_points_at_location(self, runner):
        result = runner.invoke(main, ["chernoff", "--model-p", '{"family": ',
                                      "--model-q", POISSON_Q])
        assert result.exit_code == 2
        assert "line" in result.output and "column" in result.output

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["chernoff", "--model-p", "nope.json",
                                      "--model-q", POISSON_Q])
        assert result.exit_code == 2
        assert "not found" in result.output

    def test_inadmissible_exponential_tilt(self, runner):
        result = runner.invoke(main, ["chernoff", "--model-p", EXP_P,
                                      "--model-q", EXP_Q,
                                      "--weight", '{"kind": "exp_tilt", "gamma": [2.5]}'])
        assert result.exit_code == 2

    def test_boundary_exponential_tilt_allowed(self, runner):
        rep = run_json(runner, ["chernoff", "--model-p", EXP_P, "--model-q", EXP_Q,
                                "--weight", '{"kind": "exp_tilt", "gamma": [1.0]}'])
        assert rep["results"]["boundary"] == "at_one"
        assert rep["results"]["alpha_star"] == 1.0

    def test_cauchy_tilt_rejected(self, runner):
        result = runner.invoke(main, ["chernoff", "--model-p", CAUCHY_P,
                                      "--model-q", CAUCHY_Q,
                                      "--weight", '{"kind": "exp_tilt", "gamma": [0.1]}'])
        assert result.exit_code == 2
        assert "Cauchy" in result.output

    def test_rate_error_exits_3(self, runner):
        # the curve between two disjoint-support categoricals has rho = 0
        # everywhere, so the solver cannot bracket a finite minimum
        result = runner.invoke(main, ["chernoff",
                                      "--model-p", '{"family": "categorical", "probs": [1.0, 0.0]}',
                                      "--model-q", '{"family": "categorical", "probs": [0.0, 1.0]}'])
        assert result.exit_code in (2, 3)

    def test_weight_vanishing_on_q_exits_2(self, runner):
        # F(0) = ln E_phi(q) = -inf: the solver's own endpoint precondition, not
        # the "non-positive affinity" convergence error
        result = runner.invoke(main, ["chernoff", "--model-p", BERN_P,
                                      "--model-q", '{"family": "categorical", "probs": [0, 1]}',
                                      "--weight", '{"kind": "table", "values": [1, 0]}'])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: log-affinity is not finite at the endpoints\n"

    def test_weight_overflow_exits_3(self, runner):
        result = runner.invoke(main, ["simulate", "--model-p", POISSON_P,
                                      "--model-q", POISSON_Q,
                                      "--weight", '{"kind": "exp_tilt", "gamma": [40]}',
                                      "--n", "20", "--replicates", "10000", "--seed", "3"])
        assert result.exit_code == 3
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", [
        # rho(1) = E_phi(p) = e^349859 overflows a double
        ["curve", "--model-p", '{"family": "poisson", "lambda": 1e6}',
         "--model-q", '{"family": "poisson", "lambda": 1e-300}',
         "--weight", '{"kind": "exp_tilt", "gamma": [0.3]}'],
        # the weighted KL needs E_phi(p) = e^(2.35e23)
        ["divergence", "--model-p", '{"family": "poisson", "lambda": 1e6}',
         "--model-q", '{"family": "poisson", "lambda": 0.3}',
         "--weight", '{"kind": "exp_tilt", "gamma": [40]}'],
        ["identities", "--model-p", '{"family": "poisson", "lambda": 1e4}',
         "--model-q", '{"family": "poisson", "lambda": 2e4}',
         "--weight", '{"kind": "exp_tilt", "gamma": [0.1]}'],
        # E_phi(N(0, 1)) = e^800
        ["divergence", "--model-p", '{"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}',
         "--model-q", '{"family": "gaussian", "mean": [1.0], "cov": [[1.0]]}',
         "--weight", '{"kind": "exp_tilt", "gamma": [40]}'],
        # the same pair on the curve: rho reaches E_phi(N(1, 1)) = e^840
        ["curve", "--model-p", '{"family": "gaussian", "mean": [0.0], "cov": [[1.0]]}',
         "--model-q", '{"family": "gaussian", "mean": [1.0], "cov": [[1.0]]}',
         "--weight", '{"kind": "exp_tilt", "gamma": [40]}'],
        # the tilted Poisson mean lam e^800 is past the largest double, on the closed
        # form and on the generic solver's sum
        ["chernoff", "--model-p", POISSON_P, "--model-q", POISSON_Q,
         "--weight", '{"kind": "exp_tilt", "gamma": [800]}'],
        ["chernoff", "--model-p", POISSON_P, "--model-q", POISSON_Q,
         "--weight", '{"kind": "exp_tilt", "gamma": [800]}', "--solver", "generic"],
    ])
    def test_normaliser_overflow_exits_3(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 3, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_underflowing_rho_is_reported(self, runner):
        # ln rho(1/2) = -499968.4: rho_w underflows to 0, D_B stays exact
        rep = run_json(runner, ["divergence", "--model-p", '{"family": "poisson", "lambda": 1e6}',
                                "--model-q", '{"family": "poisson", "lambda": 1e-3}',
                                "--alpha", "0.5"])
        assert rep["results"]["rho_w"] == 0.0
        assert rep["results"]["d_b_alpha"] == pytest.approx(
            0.5 * (1e6 + 1e-3) - math.sqrt(1e3), rel=1e-12)

    def test_tailbound_large_tilt_shift(self, runner):
        rep = run_json(runner, ["tailbound", "--model-p", BERN_P, "--model-q", BERN_Q,
                                "--weight", '{"kind": "exp_tilt", "gamma": [800]}',
                                "--beta", "0.23", "--n", "200", "--replicates", "1000"])
        assert rep["results"]["shift"] == pytest.approx(math.log(2.0 / 3.0), abs=1e-12)

    def test_version_flag(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output


GAUSS_STD = '{"family": "gaussian", "mean": [0.5], "cov": [[1.0]]}'


class TestExtremeParameters:
    """Finite parameters at the edge of a double end in exit 0, 2 or 3, never a traceback."""

    def test_cauchy_p_against_gaussian_q_has_infinite_kl(self, runner):
        # ln q ~ -x^2/2 has no mean under the Cauchy p; the quadrature used to give up
        rep = run_json(runner, ["divergence", "--model-p", CAUCHY_P, "--model-q", GAUSS_STD])
        assert rep["results"] == {"weighted_kl": math.inf}

    def test_exponential_rate_past_the_square_of_a_double(self, runner):
        # F(a) = a ln r - ln(a r + 1 - a) for r = 1e160 is least at a = 1/ln r, up to rounding
        rep = run_json(runner, ["chernoff", "--model-p", '{"family": "exponential", "rate": 1e160}',
                                "--model-q", EXP_Q])
        log_r = 160.0 * math.log(10.0)
        assert rep["results"]["boundary"] == "interior"
        assert rep["results"]["alpha_star"] == pytest.approx(1.0 / log_r, rel=1e-12)
        assert rep["results"]["d_c_w"] == pytest.approx(log_r - 1.0 - math.log(log_r), rel=1e-12)

    def test_generic_solver_where_the_curvature_is_not_a_double(self, runner):
        # F'' = (theta1 - theta2)^2 / theta^2 overflows; the Newton step it sets is 0
        rep = run_json(runner, ["chernoff", "--solver", "generic",
                                "--model-p", '{"family": "exponential", "rate": 2e-160}',
                                "--model-q", '{"family": "exponential", "rate": 1e-160}'])
        res = rep["results"]
        assert res["iterations"] > 0
        assert res["alpha_star"] == pytest.approx(1.0 / math.log(2.0) - 1.0, abs=1e-9)
        assert res["d_c_w"] == pytest.approx(math.log(2.0) - 1.0 - math.log(math.log(2.0)),
                                             rel=1e-12)

    @pytest.mark.parametrize("command, q, key, value", [
        # D = a(1 - a) delta^2 / (2 (1 + 9 a)) at 1 - 2a - 9a^2 = 0, with delta = 1e154
        ("chernoff", '{"family": "gaussian", "mean": [1e154], "cov": [[10]]}', "d_c_w",
         2.886076962755087e+306),
        # KL = (1/v + ln v - 1)/2 = 5e154 for v = 1e-155
        ("divergence", '{"family": "gaussian", "mean": [1], "cov": [[1e-155]]}', "weighted_kl",
         5e154),
    ], ids=["chernoff_means_1e154_apart", "divergence_variance_1e-155"])
    def test_gaussian_curvature_past_the_largest_double(self, runner, command, q, key, value):
        # F'' reads +inf with no numpy warning, which the suite makes an error (exit 1)
        rep = run_json(runner, [command, "--model-p", '{"family": "gaussian", "mean": [1], '
                                '"cov": [[1]]}', "--model-q", q])
        assert rep["results"][key] == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("p", [
        '{"family": "poisson", "lambda": 2}',
        '{"family": "cauchy", "location": 1, "scale": 2}',
    ], ids=["poisson", "cauchy"])
    def test_flat_pair_prints_zero_not_minus_zero(self, runner, p):
        result = runner.invoke(main, ["chernoff", "--model-p", p, "--model-q", p])
        assert result.exit_code == 0, result.output
        assert '"d_c_w": 0,' in result.output
        assert '"boundary": "flat"' in result.output

    def test_equal_tiny_exponential_rates_are_flat(self, runner):
        # F'' = 1/theta^2 overflows to inf instead of dividing by an underflowed 0
        tiny = '{"family": "exponential", "rate": 1e-300}'
        rep = run_json(runner, ["chernoff", "--model-p", tiny, "--model-q", tiny])
        assert rep["results"]["boundary"] == "flat"

    @pytest.mark.parametrize("solver", ["auto", "generic"])
    def test_one_member_is_flat_past_the_rounding_of_f(self, runner, solver):
        # F(0), F(1/2) and F(1) of one member under a large tilt, about -5e10, differ
        # by rounding past FLAT_TOL; alpha_tilde(theta, theta) would divide by zero
        gauss = '{"family": "gaussian", "mean": [5.6], "cov": [[10.0]]}'
        rep = run_json(runner, ["chernoff", "--model-p", gauss, "--model-q", gauss,
                                "--weight", '{"kind": "exp_tilt", "gamma": [1e5]}',
                                "--solver", solver])
        assert (rep["results"]["alpha_star"], rep["results"]["boundary"]) == (0.5, "flat")

    @pytest.mark.parametrize("p, q, kl, rho_half", [
        # the modulus m = 1 - k'^2 rounds to 1 on both, and delta^2 overflows on the second
        ('{"family": "cauchy", "location": 1e9, "scale": 1}', CAUCHY_P,
         40.060237312772931697, 2.7268223960270005019e-8),
        ('{"family": "cauchy", "location": 1e160, "scale": 1}', CAUCHY_P,
         735.44093539697472828, 4.6996132568344435747e-158),
        # s1 + s2 overflows on the first and l1 - l2 on the second
        ('{"family": "cauchy", "location": 0, "scale": 1e308}',
         '{"family": "cauchy", "location": 0, "scale": 1e308}', 0.0, 1.0),
        ('{"family": "cauchy", "location": -1e308, "scale": 1}',
         '{"family": "cauchy", "location": 1e308, "scale": 1}',
         1418.3924172843321414, 4.5237087131033808979e-306),
    ], ids=["separation_1e9", "separation_1e160", "scales_1e308", "separation_2e308"])
    def test_cauchy_closed_forms_far_apart(self, runner, p, q, kl, rho_half):
        res = run_json(runner, ["divergence", "--model-p", p, "--model-q", q])["results"]
        assert res["cauchy_kl"] == pytest.approx(kl, rel=1e-15)
        assert res["cauchy_rho_half"] == pytest.approx(rho_half, rel=1e-15, abs=0.0)
        assert res["cauchy_d_c"] == pytest.approx(-math.log(rho_half), rel=1e-15)

    def test_cauchy_reference_past_the_quadrature_reach(self, runner):
        # the Chernoff reference of two Cauchy laws 1e150 scales apart is -ln rho_1/2 in
        # closed form, where the quadrature the curve takes runs out of intervals
        pair = ["--model-p", '{"family": "cauchy", "location": 1, "scale": 1}',
                "--model-q", '{"family": "cauchy", "location": 1, "scale": 1e150}']
        closed = run_json(runner, ["chernoff"] + pair)["results"]
        rep = run_json(runner, ["simulate"] + pair + ["--n", "10", "--replicates", "1000"])
        assert (closed["alpha_star"], closed["boundary"]) == (0.5, "interior")
        assert closed["d_c_w"] == pytest.approx(167.29679124076142, rel=1e-15)
        assert rep["results"]["d_c_w_reference"] == closed["d_c_w"]

    def test_loss_past_the_range_of_a_double_keeps_its_exponent(self, runner):
        # ln L = -n D + ln(mean score) is finite although L = e^(-1.8e19) is 0 in a double;
        # d = ln p^n/q^n spreads over 4e10 here, so no draw scores above e^-745 and the
        # stream is scored again relative to its largest score
        rep = run_json(runner, ["simulate", "--model-p", '{"family": "poisson", "lambda": 1e18}',
                                "--model-q", POISSON_Q, "--n", "20", "--replicates", "1000"])
        res = rep["results"]
        assert (res["loss"], res["std_error"]) == (0.0, 0.0)
        assert res["exponent_estimate"] == 8.8601207357189606e+17
        assert res["exponent_estimate"] > res["d_c_w_reference"]

    def test_identities_on_rates_past_the_square_of_a_double(self, runner):
        # F''(theta) = 1/theta^2 underflows to 0 at theta = -1e162, so no identity may
        # divide by it; the closed-form identities hold to rounding
        rep = run_json(runner, ["identities",
                                "--model-p", '{"family": "exponential", "rate": 1e162}',
                                "--model-q", EXP_Q])
        ids = rep["results"]["identities"]
        assert rep["results"]["boundary"] == "interior"
        for name in ("kl_as_bregman", "bisector", "bregman_arc", "primal_dual"):
            assert ids[name]["residual"] <= 1e-12, name
        # the bump of p^a q^(1-a) decays at a rate of about 1e159: the quadrature that
        # identities (iii), (v) and (vii) read maps its tail at that scale
        assert all(v["applicable"] for v in ids.values())
        assert rep["results"]["max_applicable_residual"] <= 1e-10

    @pytest.mark.parametrize("args, status, message", [
        # k' = 2e-300 / 1e300 underflows, so rho_1/2 reads 0 and -ln of it is not finite
        (["divergence", "--model-p", '{"family": "cauchy", "location": 0, "scale": 1e-300}',
          "--model-q", '{"family": "cauchy", "location": 1e300, "scale": 1e-300}'], 3,
         "error: cauchy rho_1/2 underflows a double\n"),
        # numpy draws no Poisson mean past about 9.2e18: the arc member at alpha* has
        # lambda = (1e20 - 1) / ln(1e20), and S its sum over n = 20
        (["simulate", "--model-p", '{"family": "poisson", "lambda": 1e20}',
          "--model-q", POISSON_Q, "--n", "20", "--replicates", "1000"], 3,
         "error: cannot draw S ~ Poi(4.34294e+19): lam value too large\n"),
        (["tailbound", "--model-p", BERN_P, "--model-q", BERN_Q, "--beta", "0.23", "--n", "0"],
         2, "error: sample size n must be an integer >= 1, not 0\n"),
        # 2-D Gaussians have no scalar statistic and no vectorised log-density to draw
        (["simulate", "--model-p", '{"family": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
          "--model-q", '{"family": "gaussian", "mean": [1, 0], "cov": [[1, 0], [0, 1]]}',
          "--n", "3", "--replicates", "1000"], 2, "error: vectorised log-density needs dim 1\n"),
        # disjoint supports: rho(alpha) = 0 at every alpha
        (["curve", "--model-p", '{"family": "categorical", "probs": [1, 0]}',
          "--model-q", '{"family": "categorical", "probs": [0, 1]}'], 3,
         "error: affinity evaluated to a non-positive value\n"),
        # a null tilt of the wrong length: simulate's statistic failed in a numpy matmul
        (["simulate", "--model-p", CAUCHY_P,
          "--model-q", '{"family": "cauchy", "location": 1, "scale": 1}',
          "--weight", '{"kind": "exp_tilt", "gamma": [0, 0]}', "--n", "3",
          "--replicates", "1000"], 2, "error: exp_tilt gamma must be scalar for cauchy models\n"),
        # subnormal parameters: the weighted KL read Infinity and NaN with exit 0, and
        # whitening by the 2-D p would read D = -Infinity
        (["divergence", "--model-p", '{"family": "exponential", "rate": 1e-310}',
          "--model-q", '{"family": "exponential", "rate": 1e-300}'], 2,
         "error: exponential rate must be at least 2.2250738585072014e-308\n"),
        (["divergence", "--model-p", '{"family": "gaussian", "mean": [0], "cov": [[1e-310]]}',
          "--model-q", '{"family": "gaussian", "mean": [0], "cov": [[1]]}'], 2,
         "error: gaussian covariance has a squared Cholesky pivot below"
         " 2.2250738585072014e-308\n"),
        (["chernoff", "--model-p",
          '{"family": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1e-310]]}',
          "--model-q", '{"family": "gaussian", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}'], 2,
         "error: gaussian covariance has a squared Cholesky pivot below"
         " 2.2250738585072014e-308\n"),
        # the curve of two Cauchy laws 1e150 scales apart is out of the quadrature's reach
        (["curve", "--model-p", '{"family": "cauchy", "location": 1, "scale": 1}',
          "--model-q", '{"family": "cauchy", "location": 1, "scale": 1e150}'], 3,
         "error: quadrature did not converge: more than 200 intervals on one piece\n"),
        # E_phi(p) = e^706.88 is a double, the KL E_phi(p) F'(1) = -3.66e308 is not
        (["divergence", "--model-p", '{"family": "gaussian", "mean": [0], "cov": [[1]]}',
          "--model-q", '{"family": "gaussian", "mean": [1], "cov": [[1]]}',
          "--weight", '{"kind": "exp_tilt", "gamma": [37.6]}'], 3,
         "error: weighted KL = e^706.88 * -37.1 overflows a double\n"),
        (["mary", "--models", '[{"family": "poisson", "lambda": 1}, {"family": "poisson",'
          ' "lambda": 2}]', "--priors", "a,b"], 2,
         "error: --priors: could not convert string to float: 'a'\n"),
    ])
    def test_typed_error(self, runner, args, status, message):
        result = runner.invoke(main, args)
        assert result.exit_code == status
        assert result.stdout == ""
        assert result.stderr == message


def _log_uniform(lo=-6.0, hi=6.0):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _signed():
    return st.tuples(st.booleans(), _log_uniform()).map(lambda t: -t[1] if t[0] else t[1])


@st.composite
def _model(draw, family, size=None):
    if family == "poisson":
        return {"family": family, "lambda": draw(_log_uniform())}
    if family == "exponential":
        return {"family": family, "rate": draw(_log_uniform())}
    if family == "cauchy":
        return {"family": family, "location": draw(_signed()), "scale": draw(_log_uniform())}
    if family == "gaussian":
        return {"family": family, "mean": [draw(_signed())], "cov": [[draw(_log_uniform())]]}
    w = [draw(_log_uniform()) for _ in range(size)]
    w[draw(st.integers(0, size - 1))] *= draw(st.sampled_from([1.0, 1.0, 1.0, 0.0]))
    return {"family": family, "probs": [x / sum(w) for x in w]}


# malformed specs in place of model p: bad values, missing fields, wrong types
FUZZ_MALFORMED = [
    {"family": "poisson", "lambda": -1.0}, {"family": "beta"}, {"family": "exponential"},
    {"family": "gaussian", "mean": [0.0], "cov": [[-1.0]]},
    {"family": "categorical", "probs": [0.5, 0.6]},
    {"family": "cauchy", "location": "x", "scale": 1.0}, [1, 2],
]
FUZZ_OPTIONS = {
    "chernoff": lambda draw: ["--solver", draw(st.sampled_from(["auto", "generic"]))],
    "curve": lambda draw: ["--grid", "5"],
    "divergence": lambda draw: (["--alpha", repr(draw(st.floats(0.0, 1.0)))]
                                if draw(st.booleans()) else []),
    "simulate": lambda draw: ["--n", str(draw(st.integers(1, 30))), "--replicates", "1000"],
    "tailbound": lambda draw: ["--beta", repr(draw(st.floats(-1.0, 3.0))),
                               "--n", str(draw(st.integers(1, 30))), "--replicates", "1000"],
    "identities": lambda draw: [],
}


@st.composite
def _pair_command_args(draw, command):
    families = ["poisson", "exponential", "cauchy", "gaussian", "categorical"]
    # the tail bound is for categorical models only: draw them more often there
    family = draw(st.sampled_from(families + ["categorical"] * 4 * (command == "tailbound")))
    other = family
    if family in ("cauchy", "gaussian") and draw(st.booleans()):
        other = "gaussian" if family == "cauchy" else "cauchy"
    size = draw(st.integers(2, 4))
    p, q = draw(_model(family, size)), draw(_model(other, size))
    if draw(st.integers(0, 9)) == 0:
        p = draw(st.sampled_from(FUZZ_MALFORMED))
    args = [command, "--model-p", json.dumps(p), "--model-q", json.dumps(q)]
    kind = draw(st.sampled_from(["const", "exp_tilt", "table"]))
    if kind == "exp_tilt":
        args += ["--weight", json.dumps({"kind": kind, "gamma": [draw(_signed())]})]
    elif kind == "table" and family == "categorical":
        args += ["--weight", json.dumps({"kind": kind,
                                         "values": [draw(_log_uniform()) for _ in range(size)]})]
    return args + FUZZ_OPTIONS[command](draw)


@pytest.mark.parametrize("command", FUZZ_OPTIONS)
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_pair_command_fuzz(runner, command, data):
    # parameters 10^U(-6, 6), a tenth of them malformed: every run ends in exit 0, or in
    # exit 2 or 3 with one stderr line; a numpy warning is an error here, so exit 1
    args = data.draw(_pair_command_args(command))
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 2, 3), (args, result.exception)
    if result.exit_code:
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    else:
        assert result.stderr == ""
