"""Seeded inputs of the three benchmark workloads.

Every task is plain data: a name, the package call it exercises, its
arguments with models and weights in the package's JSON schema, and, for
the two operations that fail because of known faults, the output fields
that show the fault.
The same seed always gives the same tasks.  This module imports numpy only,
so the oracles and the runner can build the tasks without the package.

The seed picks the Monte Carlo seeds and moves model parameters by at
most 0.2%.  On `solve`, which has no Monte Carlo, it also draws the
50-symbol categorical pair and the 8-d covariances afresh and moves the
3-symbol rate-function pair by up to 10%.
It never changes how much work a task does: task list, sample sizes and
replicate counts are fixed, and the Poisson rates of the exact-enumeration
tasks stay inside a range where the package's truncation grid keeps the
same size.  The jitter is kept that small because a Monte Carlo task's
relative standard error moves with its loss, which at n=50 moves by
about 7% for a 1% change of a Poisson rate.  The two-symbol pairs of the
tail-frequency tasks are fixed: their tail probability jumps as the
binomial lattice crosses the threshold.  The two known-fault operations
use fixed inputs, so they fail on every seed.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("solve", "loss", "cli")

# The output fields that show each known fault.  A failing task counts as
# its known fault only when its output has exactly these values; any other
# failure of the task is a wrong answer.
#
# chernoff trusts the sign of a quadrature F'(0) that is really -inf
# (E_Cauchy[x^2] diverges) and returns alpha*=0, D=0.
GAUSS_CAUCHY_FAULT = {"alpha_star": 0.0, "d_c_w": 0.0}
# Direct Monte Carlo sees no error at n=200 and reports value=0 with
# std_error=0, an exact-looking answer for a loss of about 4.4e-9.
POISSON_N200_FAULT = {"value": 0.0, "std_error": 0.0}


def poisson(lam):
    return {"family": "poisson", "lambda": float(lam)}


def exponential(rate):
    return {"family": "exponential", "rate": float(rate)}


def cauchy(location, scale):
    return {"family": "cauchy", "location": float(location), "scale": float(scale)}


def gaussian(mean, cov):
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    return {"family": "gaussian", "mean": mean.tolist(), "cov": cov.tolist()}


def categorical(probs):
    probs = np.asarray(probs, dtype=float)
    return {"family": "categorical", "probs": (probs / probs.sum()).tolist()}


CONST = {"kind": "const"}


def tilt(gamma):
    return {"kind": "exp_tilt", "gamma": [float(gamma)]}


def table(values):
    return {"kind": "table", "values": [float(v) for v in values]}


class _Draw:
    """Seeded parameter jitter for one workload."""

    def __init__(self, seed, workload):
        self.rng = np.random.default_rng([int(seed), WORKLOADS.index(workload)])

    def jit(self, x, rel=0.002):
        return float(x) * (1.0 + rel * self.rng.uniform(-1.0, 1.0))

    def between(self, lo, hi):
        return float(self.rng.uniform(lo, hi))

    def probs(self, base, rel=0.002):
        base = np.asarray(base, dtype=float)
        return base * (1.0 + rel * self.rng.uniform(-1.0, 1.0, base.size))

    def mc_seed(self):
        return int(self.rng.integers(1, 2**31 - 1))


def _task(name, call, fault=None, **args):
    return {"name": name, "call": call, "args": args, "fault": fault}


def _spd(draw, d):
    a = draw.rng.normal(size=(d, d))
    s = a @ a.T / d + np.eye(d)
    return 0.5 * (s + s.T)


def solve_tasks(seed):
    """Chernoff exponents on the numeric path; no Monte Carlo, no enumeration."""
    r = _Draw(seed, "solve")
    cat_p = categorical(r.rng.dirichlet(np.ones(50)))
    cat_q = categorical(r.rng.dirichlet(np.ones(50)))
    cat_w = table(r.rng.uniform(0.5, 2.0, 50))
    rate_p = categorical(r.probs([0.2, 0.3, 0.5], 0.1))
    rate_q = categorical(r.probs([0.4, 0.4, 0.2], 0.1))
    lp, lq = np.asarray(rate_p["probs"]), np.asarray(rate_q["probs"])
    mean_p, mean_q = float(lp @ np.log(lq / lp)), float(lq @ np.log(lq / lp))
    cat_r = mean_p + r.between(0.3, 0.7) * (mean_q - mean_p)
    return [
        _task("gauss_unequal_quadrature", "chernoff",
              p=gaussian([0.0], [[1.0]]), q=gaussian([r.jit(1.0)], [[r.jit(2.0)]]),
              w=tilt(r.jit(0.3)), solver="generic", mode="quadrature"),
        _task("exponential_quadrature", "chernoff",
              p=exponential(r.jit(2.0)), q=exponential(r.jit(1.0)),
              w=tilt(r.jit(0.5)), solver="generic", mode="quadrature"),
        _task("cauchy_auto", "chernoff",
              p=cauchy(0.0, 1.0), q=cauchy(r.jit(2.0), r.jit(1.5)), w=CONST),
        _task("gauss_vs_cauchy_auto", "chernoff", fault=GAUSS_CAUCHY_FAULT,
              p=gaussian([0.0], [[1.0]]), q=cauchy(0.0, 1.0), w=CONST),
        _task("poisson_summation", "chernoff",
              p=poisson(r.jit(2.0)), q=poisson(r.jit(1.0)), w=tilt(r.jit(0.3)),
              solver="generic", mode="summation"),
        _task("categorical50_table", "chernoff", p=cat_p, q=cat_q, w=cat_w),
        _task("poisson_closed", "chernoff",
              p=poisson(r.jit(2.0)), q=poisson(r.jit(1.0)), w=CONST),
        _task("exponential_closed", "chernoff",
              p=exponential(r.jit(2.0)), q=exponential(r.jit(1.0)), w=tilt(r.jit(0.5))),
        _task("gauss1d_closed", "chernoff",
              p=gaussian([0.0], [[1.0]]), q=gaussian([r.jit(1.0)], [[r.jit(2.0)]]),
              w=tilt(r.jit(0.3))),
        _task("gauss8_closed", "chernoff",
              p=gaussian(np.zeros(8), _spd(r, 8)),
              q=gaussian(r.rng.normal(0.0, 0.5, 8), _spd(r, 8)), w=CONST),
        _task("rate_categorical", "rate_function", p=rate_p, q=rate_q, w=CONST, r=cat_r),
        _task("rate_exponential", "rate_function",
              p=exponential(r.jit(2.0)), q=exponential(r.jit(1.0)), w=CONST,
              r=r.jit(0.1)),
        _task("identities_exponential", "verify_identities",
              p=exponential(r.jit(2.0)), q=exponential(r.jit(1.0)), w=tilt(r.jit(0.5))),
        _task("identities_gauss", "verify_identities",
              p=gaussian([0.0], [[1.0]]), q=gaussian([r.jit(1.0)], [[1.0]]),
              w=tilt(r.jit(0.3))),
        _task("weighted_kl_quadrature", "weighted_kl",
              p=gaussian([r.jit(0.5)], [[r.jit(1.0)]]), q=cauchy(0.0, r.jit(1.0)), w=CONST),
    ]


def loss_tasks(seed):
    """Optimal total loss at sample size n, exact and Monte Carlo."""
    r = _Draw(seed, "loss")
    # 1.996 <= lambda <= 2 keeps the Poisson grid at 50 points; the package
    # sizes the grid from the larger rate of the first two models
    pois_p, pois_q = poisson(2.0 - 0.004 * r.between(0.0, 1.0)), poisson(r.jit(1.0))
    cat4_p = categorical(r.probs([0.1, 0.2, 0.3, 0.4]))
    cat4_q = categorical(r.probs([0.25, 0.25, 0.25, 0.25]))
    cat4_w = table(r.probs([1.0, 1.2, 0.8, 1.1]))
    mary_models = [poisson(r.jit(1.0)), poisson(2.0 - 0.004 * r.between(0.0, 1.0)),
                   poisson(r.jit(4.0))]
    sigma2 = r.jit(1.0)
    tasks = [
        _task(f"exact_poisson_n{n}", "optimal_loss_exact", p=pois_p, q=pois_q, w=CONST, n=n)
        for n in (1, 2, 3, 4)
    ]
    tasks += [
        _task("exact_categorical_n60", "optimal_loss_exact", p=cat4_p, q=cat4_q, w=CONST, n=60),
        _task("weighted_tv_categorical_n30", "weighted_tv", p=cat4_p, q=cat4_q, w=cat4_w, n=30),
        _task("mary_exact_poisson_n3", "mary_optimal_loss", models=mary_models, w=CONST, n=3,
              method="exact_enumeration"),
        _task("simulate_poisson_n10", "simulate", p=pois_p, q=pois_q, w=CONST, n=10,
              replicates=100_000, seed=r.mc_seed()),
        _task("simulate_poisson_n50", "simulate", p=pois_p, q=pois_q, w=CONST, n=50,
              replicates=100_000, seed=r.mc_seed()),
        _task("mc_gauss_tilt_n20", "optimal_loss_mc",
              p=gaussian([0.0], [[sigma2]]), q=gaussian([r.jit(1.0)], [[sigma2]]),
              w=tilt(r.jit(0.3)), n=20, replicates=100_000, seed=r.mc_seed()),
        _task("mc_exponential_tilt_n20", "optimal_loss_mc",
              p=exponential(r.jit(2.0)), q=exponential(r.jit(1.0)), w=tilt(r.jit(0.5)),
              n=20, replicates=100_000, seed=r.mc_seed()),
        _task("mc_categorical_table_n30", "optimal_loss_mc", p=cat4_p, q=cat4_q, w=cat4_w,
              n=30, replicates=100_000, seed=r.mc_seed()),
        _task("tail_frequency_bernoulli_n200", "tail_frequency",
              p=categorical([0.5, 0.5]), q=categorical([0.25, 0.75]),
              w=CONST, n=200, beta=0.19, replicates=50_000, seed=r.mc_seed()),
        _task("mary_mc_poisson_n10", "mary_optimal_loss", models=mary_models, w=CONST, n=10,
              method="monte_carlo", replicates=50_000, seed=r.mc_seed()),
        _task("mc_poisson_n200", "optimal_loss_mc", fault=POISSON_N200_FAULT,
              p=poisson(2.0), q=poisson(1.0), w=CONST, n=200, replicates=10_000, seed=0),
    ]
    return tasks


def cli_tasks(seed):
    """The seven README commands, with Monte Carlo replicates cut to 1e4.

    `simulate` uses n=10 and n=20 (README: 10 and 50): at 1e4 replicates
    n=50 sees about 35 errors, too few for a steady standard error.
    `tailbound` uses beta=0.19 (README: 0.23) so that about 4% of the
    replicates exceed it rather than 0.1%.
    """
    r = _Draw(seed, "cli")
    mc_seed = r.mc_seed() % 100_000

    def cmd(name, *argv, **args):
        argv = [str(a) if not isinstance(a, (dict, list)) else json.dumps(a) for a in argv]
        return {"name": name, "call": "cli", "argv": [name] + argv, "args": args, "fault": None}

    p_pois, q_pois = poisson(r.jit(2.0)), poisson(r.jit(1.0))
    p_exp, q_exp, w_exp = exponential(r.jit(2.0)), exponential(r.jit(1.0)), tilt(r.jit(0.5))
    p_cau, q_cau = cauchy(0.0, 1.0), cauchy(r.jit(2.0), r.jit(1.0))
    s_p, s_q = poisson(r.jit(2.0)), poisson(r.jit(1.0))
    mary = [poisson(r.jit(1.0)), poisson(r.jit(2.0)), poisson(r.jit(4.0))]
    t_p, t_q = categorical([0.5, 0.5]), categorical([0.25, 0.75])
    i_p, i_q, i_w = exponential(r.jit(2.0)), exponential(r.jit(1.0)), tilt(r.jit(0.5))
    return [
        cmd("chernoff", "--model-p", p_pois, "--model-q", q_pois, p=p_pois, q=q_pois, w=CONST),
        cmd("curve", "--model-p", p_exp, "--model-q", q_exp, "--weight", w_exp, "--grid", 101,
            p=p_exp, q=q_exp, w=w_exp, grid=101),
        cmd("divergence", "--model-p", p_cau, "--model-q", q_cau, p=p_cau, q=q_cau, w=CONST),
        cmd("simulate", "--model-p", s_p, "--model-q", s_q, "--n", 10, "--n", 20,
            "--replicates", 10_000, "--seed", mc_seed, p=s_p, q=s_q, w=CONST),
        cmd("mary", "--models", mary, models=mary, w=CONST),
        cmd("tailbound", "--model-p", t_p, "--model-q", t_q, "--beta", 0.19, "--n", 200,
            "--replicates", 10_000, "--seed", mc_seed, p=t_p, q=t_q, w=CONST),
        cmd("identities", "--model-p", i_p, "--model-q", i_q, "--weight", i_w,
            p=i_p, q=i_q, w=i_w),
    ]


def tasks(workload, seed):
    return {"solve": solve_tasks, "loss": loss_tasks, "cli": cli_tasks}[workload](seed)
