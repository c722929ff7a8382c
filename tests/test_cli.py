"""Command-line interface: outputs, exit codes, determinism."""

import json
import math

import pytest
from click.testing import CliRunner

from wchernoff.cli import main

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
