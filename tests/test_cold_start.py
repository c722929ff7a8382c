"""Cold start: no scipy at run time.

No public entry point loads any part of scipy: not the seven README
commands, not the exact Poisson and categorical sums (whose ln k! is
`models.log_factorial`), not the package's own quadrature and not its
Newton solvers.  scipy is a test dependency only.

Each check runs in a fresh interpreter, because the pytest process has
long since imported scipy for its oracles.
"""

import json
import math
import os
import subprocess
import sys
import textwrap

import pytest

import wchernoff
from wchernoff import (
    BinaryTestProblem,
    Categorical,
    ConstWeight,
    ExpTiltWeight,
    Gaussian,
    MAryProblem,
    Poisson,
    chernoff,
    mary_optimal_loss,
    optimal_loss_exact,
    rate_function,
    weighted_tv,
)

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wchernoff.__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

# each appears in sys.modules only once its scipy submodule has executed
SCIPY_MARKERS = ("scipy.special._ufuncs", "scipy.linalg", "scipy.optimize._optimize",
                 "scipy.integrate._quadpack_py")

README_CHERNOFF = ["chernoff", "--model-p", '{"family": "poisson", "lambda": 2.0}',
                   "--model-q", '{"family": "poisson", "lambda": 1.0}']
POIS_2 = ["--model-p", '{"family": "poisson", "lambda": 2.0}',
          "--model-q", '{"family": "poisson", "lambda": 1.0}']
EXP_TILT = ["--model-p", '{"family": "exponential", "rate": 2.0}',
            "--model-q", '{"family": "exponential", "rate": 1.0}',
            "--weight", '{"kind": "exp_tilt", "gamma": [0.5]}']
# the seven README commands, Monte Carlo replicates cut from 1e5 to 1e3
README_COMMANDS = [
    README_CHERNOFF,
    ["curve", *EXP_TILT, "--grid", "101"],
    ["divergence", "--model-p", '{"family": "cauchy", "location": 0.0, "scale": 1.0}',
     "--model-q", '{"family": "cauchy", "location": 2.0, "scale": 1.0}'],
    ["simulate", *POIS_2, "--n", "10", "--n", "50", "--replicates", "1000", "--seed", "3",
     "--format", "csv"],
    ["mary", "--models", '[{"family": "poisson", "lambda": 1.0}, '
     '{"family": "poisson", "lambda": 2.0}, {"family": "poisson", "lambda": 4.0}]'],
    ["tailbound", "--model-p", '{"family": "categorical", "probs": [0.5, 0.5]}',
     "--model-q", '{"family": "categorical", "probs": [0.25, 0.75]}',
     "--beta", "0.23", "--n", "200", "--replicates", "1000"],
    ["identities", *EXP_TILT],
]


def run_fresh(code):
    """Stdout of `code` run in a new interpreter that imports this checkout and module."""
    env = dict(os.environ)
    paths = [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def first_use_results():
    """Library entry points beyond the CLI's: quadrature, Newton solves and every ln k!."""
    bern = BinaryTestProblem(Categorical([0.5, 0.5]), Categorical([0.25, 0.75]), ConstWeight(), 4)
    pois = BinaryTestProblem(Poisson(2.0), Poisson(1.0), ExpTiltWeight([0.3]), 3)
    mary = MAryProblem((Poisson(1.0), Poisson(2.0), Poisson(4.0)), ConstWeight(), (0.2, 0.5, 0.3))
    return [
        # Newton (affinity) on the package's quadrature (_numeric)
        chernoff(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]), ConstWeight(),
                 solver="generic", mode="quadrature"),
        # Newton on the Legendre objective (testing)
        rate_function(bern, 0.0),
        # ln k! (models.log_factorial): the sum statistic, then the count statistic
        optimal_loss_exact(pois),
        optimal_loss_exact(bern),
        weighted_tv(pois),
        mary_optimal_loss(mary, 5),
        Poisson(2.0).log_density(3),
    ]


def test_closed_form_command_loads_no_scipy_submodule():
    out = run_fresh(f"""
        import json, sys
        import wchernoff, wchernoff.cli
        wchernoff.cli.main({README_CHERNOFF!r}, standalone_mode=False)
        print(json.dumps([m for m in {SCIPY_MARKERS!r} if m in sys.modules]))
    """)
    *report, loaded = out.splitlines()
    assert json.loads("\n".join(report))["results"]["alpha_star"] > 0.5
    assert json.loads(loaded) == []


@pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: argv[0])
def test_readme_command_loads_no_scipy_submodule(argv):
    out = run_fresh(f"""
        import contextlib, io, json, sys
        import wchernoff.cli
        with contextlib.redirect_stdout(io.StringIO()):
            wchernoff.cli.main({argv!r}, standalone_mode=False)
        print(json.dumps([m for m in {SCIPY_MARKERS!r} if m in sys.modules]))
    """)
    assert json.loads(out) == []


def test_quadrature_loads_no_scipy_integrate():
    out = run_fresh("""
        import json, sys
        from wchernoff import AffinityCurve, ExpTiltWeight, Gaussian
        curve = AffinityCurve(Gaussian([0.0], [[1.0]]), Gaussian([1.0], [[2.0]]),
                              ExpTiltWeight([0.3]), mode="quadrature")
        print(curve.log_rho(0.4))
        print(json.dumps([m for m in sys.modules if m.split(".")[:2] == ["scipy", "integrate"]]))
    """)
    log_rho, loaded = out.splitlines()
    assert math.isfinite(float(log_rho))
    assert json.loads(loaded) == []


def test_solvers_load_no_scipy_optimize():
    out = run_fresh("""
        import json, sys
        from wchernoff import (BinaryTestProblem, Cauchy, ConstWeight, Gaussian, chernoff,
                               rate_function)
        p, q = Gaussian([0.0], [[1.0]]), Cauchy(0.0, 1.0)
        print(chernoff(p, q, ConstWeight(), solver="generic", mode="quadrature").alpha_star)
        print(rate_function(BinaryTestProblem(p, q, ConstWeight(), 1), 0.1)[0])
        print(json.dumps([m for m in sys.modules if m.split(".")[:2] == ["scipy", "optimize"]]))
    """)
    alpha, rate, loaded = out.splitlines()
    assert 0.0 < float(alpha) < 1.0
    assert float(rate) > 0.0
    assert json.loads(loaded) == []


def test_first_use_in_a_cold_process_matches_warm_results():
    out = run_fresh("""
        import contextlib, io, sys
        import wchernoff.cli
        import test_cold_start
        for argv in test_cold_start.README_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                wchernoff.cli.main(argv, standalone_mode=False)
        for result in test_cold_start.first_use_results():
            print(repr(result))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    *results, loaded = out.splitlines()
    assert results == [repr(r) for r in first_use_results()]
    assert loaded == "[]"
