"""Tests of the benchmark's oracles against textbook values and brute force.

    python3 -m pytest -q bench/test_oracles.py
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles
import workloads as W


def test_poisson_textbook_chernoff():
    # alpha* = ln((l1 - l2) / ln(l1 / l2) / l2) / ln(l1 / l2) for Poisson(2) vs Poisson(1)
    alpha, d, _ = oracles.chernoff(W.poisson(2.0), W.poisson(1.0), W.CONST)
    assert d == pytest.approx(0.0860713320559, abs=1e-12)
    assert alpha == pytest.approx(math.log(1.0 / math.log(2.0)) / math.log(2.0), abs=1e-7)


@pytest.mark.parametrize("delta,var", [(1.0, 1.0), (2.5, 0.7)])
def test_shared_variance_gaussian_chernoff(delta, var):
    alpha, d, _ = oracles.chernoff(W.gaussian([0.0], [[var]]), W.gaussian([delta], [[var]]),
                                   W.CONST)
    assert d == pytest.approx(delta ** 2 / (8.0 * var), rel=1e-12)
    assert alpha == pytest.approx(0.5, abs=1e-7)


def test_gaussian_log_rho_matches_quadrature_and_factorises():
    p, q, w = W.gaussian([0.3], [[1.2]]), W.gaussian([-0.4], [[0.6]]), W.tilt(0.2)

    def f(x):
        return math.exp(0.2 * x + 0.3 * stats.norm.logpdf(x, 0.3, math.sqrt(1.2))
                        + 0.7 * stats.norm.logpdf(x, -0.4, math.sqrt(0.6)))

    ref = math.log(integrate.quad(f, -np.inf, np.inf, epsabs=0, epsrel=1e-13)[0])
    assert oracles.log_rho(p, q, w, 0.3) == pytest.approx(ref, abs=1e-11)
    p2 = W.gaussian([0.3, 1.0], np.diag([1.2, 2.0]))
    q2 = W.gaussian([-0.4, 0.0], np.diag([0.6, 1.0]))
    w2 = {"kind": "exp_tilt", "gamma": [0.2, 0.0]}
    second = oracles.log_rho(W.gaussian([1.0], [[2.0]]), W.gaussian([0.0], [[1.0]]), W.CONST, 0.3)
    assert oracles.log_rho(p2, q2, w2, 0.3) == pytest.approx(ref + second, abs=1e-11)


def test_cauchy_elliptic_affinity_and_kl():
    p, q = W.cauchy(0.0, 1.0), W.cauchy(2.0, 1.5)

    def sqrt_pq(x):
        return math.sqrt(stats.cauchy.pdf(x, 0.0, 1.0) * stats.cauchy.pdf(x, 2.0, 1.5))

    ref = sum(integrate.quad(sqrt_pq, a, b, epsabs=0, epsrel=1e-12, limit=500)[0]
              for a, b in [(-np.inf, 0.0), (0.0, 2.0), (2.0, np.inf)])
    assert oracles.cauchy_rho_half(p, q) == pytest.approx(ref, rel=1e-10)
    assert oracles.log_rho(p, q, W.CONST, 0.5) == pytest.approx(math.log(ref), abs=1e-10)
    kl = math.log(((1.0 + 1.5) ** 2 + 4.0) / (4.0 * 1.0 * 1.5))
    assert oracles.weighted_kl(p, q, W.CONST) == pytest.approx(kl, rel=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.4])
def test_poisson_sufficient_sum_equals_product_space_sum(n, gamma):
    lp, lq, top = 2.0, 1.0, 40
    x = np.array(list(itertools.product(range(top), repeat=n)))
    log_p = stats.poisson.logpmf(x, lp).sum(axis=1)
    log_q = stats.poisson.logpmf(x, lq).sum(axis=1)
    ref = np.sum(np.exp(gamma * x.sum(axis=1) + np.minimum(log_p, log_q)))
    got = oracles.optimal_loss(W.poisson(lp), W.poisson(lq), W.tilt(gamma), n)
    assert got == pytest.approx(ref, rel=1e-12)


def test_poisson_sum_at_large_n_stays_below_chernoff_bound():
    d = oracles.chernoff(W.poisson(2.0), W.poisson(1.0), W.CONST)[1]
    for n in (10, 100, 1000):
        loss = oracles.optimal_loss(W.poisson(2.0), W.poisson(1.0), W.CONST, n)
        assert 0.0 < loss <= math.exp(-n * d)
    assert oracles.optimal_loss(W.poisson(2.0), W.poisson(1.0), W.CONST, 200) == pytest.approx(
        4.40e-9, rel=1e-2)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_categorical_multinomial_sum_equals_product_space_sum(n):
    p, q = W.categorical([0.1, 0.2, 0.3, 0.4]), W.categorical([0.3, 0.3, 0.2, 0.2])
    w = W.table([1.0, 1.5, 0.5, 2.0])
    x = np.array(list(itertools.product(range(4), repeat=n)))
    lp = np.log(p["probs"])[x].sum(axis=1)
    lq = np.log(q["probs"])[x].sum(axis=1)
    lw = np.log(w["values"])[x].sum(axis=1)
    assert oracles.optimal_loss(p, q, w, n) == pytest.approx(
        np.sum(np.exp(lw + np.minimum(lp, lq))), rel=1e-12)
    assert oracles.weighted_tv(p, q, w, n) == pytest.approx(
        0.5 * np.sum(np.exp(lw) * np.abs(np.exp(lp) - np.exp(lq))), rel=1e-12)


def test_compositions_count_and_sum():
    c = oracles.compositions(60, 4)
    assert c.shape == (math.comb(63, 3), 4)
    assert np.all(c.sum(axis=1) == 60) and np.all(c >= 0)
    assert len({tuple(r) for r in c}) == c.shape[0]


@pytest.mark.parametrize("n", [1, 2])
def test_exponential_gamma_sum_equals_product_space_integral(n):
    rp, rq, g = 2.0, 1.0, 0.5

    def f(*x):
        s = sum(x)
        return math.exp(g * s + min(n * math.log(rp) - rp * s, n * math.log(rq) - rq * s))

    if n == 1:
        ref = integrate.quad(f, 0, np.inf, epsabs=0, epsrel=1e-12)[0]
    else:
        ref = integrate.dblquad(lambda y, x: f(x, y), 0, np.inf, 0, np.inf,
                                epsabs=0, epsrel=1e-10)[0]
    got = oracles.optimal_loss(W.exponential(rp), W.exponential(rq), W.tilt(g), n)
    assert got == pytest.approx(ref, rel=1e-8)


@pytest.mark.parametrize("n", [1, 2])
def test_gaussian_normal_sum_equals_product_space_integral(n):
    mp, mq, var, g = 0.0, 1.0, 1.3, 0.3
    def f(*x):
        lp = sum(-0.5 * (v - mp) ** 2 / var for v in x)
        lq = sum(-0.5 * (v - mq) ** 2 / var for v in x)
        return math.exp(g * sum(x) + min(lp, lq)) / (2.0 * math.pi * var) ** (n / 2.0)

    if n == 1:
        ref = integrate.quad(f, -np.inf, np.inf, points=None, epsabs=0, epsrel=1e-12)[0]
    else:
        ref = integrate.dblquad(lambda y, x: f(x, y), -12, 12, -12, 12,
                                epsabs=0, epsrel=1e-10)[0]
    got = oracles.optimal_loss(W.gaussian([mp], [[var]]), W.gaussian([mq], [[var]]),
                               W.tilt(g), n)
    assert got == pytest.approx(ref, rel=1e-7)


def test_mary_poisson_sum_equals_product_space_sum():
    lams, n, top = [1.0, 2.0, 4.0], 2, 45
    x = np.array(list(itertools.product(range(top), repeat=n)))
    dens = np.array([np.exp(stats.poisson.logpmf(x, lam).sum(axis=1)) for lam in lams])
    ref = np.sum(dens.sum(axis=0) - dens.max(axis=0))
    got = oracles.mary_poisson_loss([W.poisson(lam) for lam in lams], n)
    assert got == pytest.approx(ref, rel=1e-12)


def test_bernoulli_tail_matches_enumeration():
    p, q, n, beta = W.categorical([0.5, 0.5]), W.categorical([0.25, 0.75]), 12, 0.19
    x = np.array(list(itertools.product(range(2), repeat=n)))
    llr = (np.log(q["probs"]) - np.log(p["probs"]))[x].sum(axis=1)
    ref = np.sum(np.exp(np.log(q["probs"])[x].sum(axis=1))[llr >= beta * n])
    assert oracles.bernoulli_tail(p, q, beta, n) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("pair", [
    (W.exponential(2.0), W.exponential(1.0), 0.1),
    (W.categorical([0.2, 0.3, 0.5]), W.categorical([0.4, 0.4, 0.2]), 0.05),
])
def test_rate_functions_match_grid_and_satisfy_shift_relation(pair):
    p, q, r = pair
    i_p, i_q = oracles.rate_functions(p, q, r)
    grid = np.linspace(-5.0, 1.999, 4001)
    on_grid = max(a * r - oracles._log_power_integral(p, q, 1.0 - a, a) for a in grid)
    assert on_grid - 1e-12 <= i_p <= on_grid + 1e-5
    assert i_q == pytest.approx(i_p - r, abs=1e-10)
