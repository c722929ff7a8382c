"""Hypothesis-testing engine: optimal weighted losses and concentration.

One engine computes every optimal loss: the M-ary

    L_{n,M}* = integral phi (sum_i w_i p_i - max_j w_j p_j) over n-samples,

of which the binary L_n* = integral phi min{p, q} is the two-model case
without priors.  The decision is the largest w_j p_j, the later model
winning a tie (so H1 when q >= p).  Losses are computed on a statistic T
of the n-sample that carries phi and every likelihood: S = sum x_i for
Poisson, Exponential and shared-variance Gaussian models under a constant
or exponential-tilt weight, the symbol counts for categorical models, and
the sample itself otherwise.  Exact sums run over the states of T
(S = 0..K for Poisson, every count vector for categorical models); Monte
Carlo draws T from its law under each hypothesis (Poi(n lam), Gamma(n,
1/rate), N(n mu, n sigma^2), or Multinomial(n, probs)).  The tilted
log-likelihood section implements the cumulants psi_P/psi_Q, their
Legendre transforms, and the Bennett-type martingale tail bound, all for
the shifted statistic

    L* = sum ln(q/p) + n (ln E_phi(p) - ln E_phi(q)).

The cumulants are the phi == 1 log-affinity curve F(a) = ln int p^a q^(1-a)
of `AffinityCurve`, continued past [0, 1]: psi_P(alpha) = F(1 - alpha) +
alpha shift and psi_Q(alpha) = F(-alpha) + alpha shift, so closed-form
pairs need no integral and the value is +inf where F diverges.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _numeric
from .affinity import AffinityCurve, chernoff
from .errors import (
    ConvergenceError,
    PreconditionError,
    RateInfiniteError,
    StateSpaceOverflowError,
    UnsupportedCombinationError,
)
from .models import (
    Categorical,
    ConstWeight,
    Exponential,
    Poisson,
    check_models,
    embed_pair,
    exp_or_raise,
    lazy_module,
    log_sum_exp,
    log_weighted_normaliser,
    poisson_truncation,
    rng_stream,
)

optimize = lazy_module("scipy.optimize")
special = lazy_module("scipy.special")

__all__ = [
    "BinaryTestProblem",
    "LossEstimate",
    "TiltedLikelihoodStats",
    "MAryProblem",
    "SimReport",
    "optimal_loss_exact",
    "optimal_loss_mc",
    "weighted_tv",
    "mary_optimal_loss",
    "mary_exponent",
    "tilted_llr",
    "tilted_stats",
    "cumulants",
    "rate_function",
    "tail_bound",
    "tail_frequency",
    "bernoulli_kl",
    "simulate",
    "convergence_rows",
    "EXACT_ENUMERATION",
    "MONTE_CARLO",
]

EXACT_ENUMERATION = "exact_enumeration"
MONTE_CARLO = "monte_carlo"

# cells of the largest array an exact categorical sum builds
STATE_BUDGET = 10_000_000
MC_CHUNK = 100_000


@dataclass(frozen=True)
class BinaryTestProblem:
    model_p: object
    model_q: object
    weight: object
    n: int

    def __post_init__(self):
        check_models((self.model_p, self.model_q), self.weight)
        if int(self.n) < 1:
            raise PreconditionError("sample size n must be >= 1")
        object.__setattr__(self, "n", int(self.n))

    @property
    def shift(self):
        """ln E_phi(p) - ln E_phi(q); the per-coordinate tilt of L*."""
        return (log_weighted_normaliser(self.model_p, self.weight)
                - log_weighted_normaliser(self.model_q, self.weight))


@dataclass(frozen=True)
class LossEstimate:
    value: float
    std_error: float
    method: str
    replicates: int
    exponent_estimate: float


@dataclass(frozen=True)
class TiltedLikelihoodStats:
    kl_qp: float
    d_bound: float
    sigma2: float
    shift: float


@dataclass(frozen=True)
class MAryProblem:
    models: tuple
    weight: object
    priors: tuple = None

    def __post_init__(self):
        models = tuple(self.models)
        if len(models) < 2:
            raise PreconditionError("M-ary problem needs at least two models")
        check_models(models, self.weight)
        object.__setattr__(self, "models", models)
        if self.priors is not None:
            w = tuple(float(x) for x in self.priors)
            if len(w) != len(models):
                raise PreconditionError("priors length must match the model count")
            if any(x <= 0.0 for x in w):
                raise PreconditionError("priors must be strictly positive")
            if abs(sum(w) - 1.0) > 1e-12:
                raise PreconditionError("priors must sum to 1 within 1e-12")
            object.__setattr__(self, "priors", w)


@dataclass(frozen=True)
class SimReport:
    loss: float
    std_error: float
    exponent_estimate: float
    d_c_w_reference: float
    n: int
    replicates: int
    seed: int
    method: str

    def to_dict(self):
        return {
            "loss": self.loss,
            "std_error": self.std_error,
            "exponent_estimate": self.exponent_estimate,
            "d_c_w_reference": self.d_c_w_reference,
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# The statistic of an n-sample
# ---------------------------------------------------------------------------


def _counts_dot(counts, table):
    """counts @ table per row, reading 0 * ln 0 as 0.

    A row is -inf exactly where it uses a symbol whose table entry is
    -inf (a zero-mass symbol or a zero weight); a plain product would give
    nan on every row that does not use it.
    """
    live = np.isfinite(table)
    out = counts @ np.where(live, table, 0.0)
    if not live.all():
        out[counts[:, ~live].sum(axis=1) > 0] = -np.inf
    return out


def _count_matrix(n, k):
    """All multisets of n draws from k symbols, as a counts matrix.

    Rows are compositions of n into k non-negative parts, in the order of
    `itertools.combinations_with_replacement(range(k), n)`; the product
    space of size k^n collapses onto comb(n+k-1, n) rows because the weight
    and every density factorise over i.i.d. coordinates.  Each row is the
    gaps between k - 1 bars placed among n + k - 1 slots (stars and bars);
    the placements come in lexicographic order, the rows' order reversed.
    Work and memory stay within a few times rows x k cells.
    """
    rows = math.comb(n + k - 1, n)
    if rows * k > STATE_BUDGET:
        raise StateSpaceOverflowError(
            f"enumeration would need {rows} states of {k} symbols"
            f" (budget {STATE_BUDGET} cells); use the Monte Carlo estimator"
        )
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n + k - 1), k - 1)),
        dtype=np.int64, count=rows * (k - 1)).reshape(rows, k - 1)
    edges = np.hstack([np.full((rows, 1), -1), bars, np.full((rows, 1), n + k - 1)])
    return (np.diff(edges, axis=1) - 1)[::-1]


def _no_exact_sum():
    return UnsupportedCombinationError(
        "exact sums need categorical models, or Poisson models under a constant"
        " or exponential-tilt weight; use Monte Carlo"
    )


class _SampleStatistic:
    """T = the n-sample itself, for pairs without a smaller statistic."""

    def __init__(self, models, weight, n):
        _numeric.check_scalar(*models)
        self.models, self.weight, self.n = models, weight, n

    def draw(self, i, rng, count):
        x = self.models[i].sample(rng, count * self.n)
        return np.asarray(x, dtype=float).reshape(count, self.n)

    def log_weight(self, t):
        return self.weight.log_value(t).sum(axis=1)

    def log_lik(self, i, t):
        return _numeric.logpdf_vec(self.models[i], t).sum(axis=1)

    def state_logs(self):
        raise _no_exact_sum()


class _SumStatistic:
    """T = S = sum x_i for members of one natural exponential family.

    ln p_i^n = theta_i S - n F(theta_i) plus a term shared by all models,
    and ln phi^n = gamma S.  S follows Poi(n lam), Gamma(n, 1/rate) or
    N(n mu, n sigma^2).
    """

    def __init__(self, models, family, n):
        self.models, self.family, self.n = models, family, n
        self.thetas = [family.theta_of_model(m) for m in models]

    def draw(self, i, rng, count):
        m, n = self.models[i], self.n
        if isinstance(m, Poisson):
            return rng.poisson(n * m.lam, count)
        if isinstance(m, Exponential):
            return rng.gamma(n, 1.0 / m.rate, count)
        return rng.normal(n * m.mean[0], math.sqrt(n * m.cov[0, 0]), count)

    def log_weight(self, t):
        return self.family.gamma * t

    def log_lik(self, i, t):
        theta = self.thetas[i]
        return theta * t - self.n * self.family.F(theta)

    def state_logs(self):
        """S = 0..K, where base + log_lik(i, S) = gamma S + ln Poi(S; n lam_i)."""
        if self.family.name != "poisson":
            raise _no_exact_sum()
        top = self.n * math.exp(max(self.family.gamma, 0.0)) * max(m.lam for m in self.models)
        s = np.arange(poisson_truncation(top) + 1, dtype=float)
        return (self.log_weight(s) + s * math.log(self.n) - special.gammaln(s + 1.0),
                [self.log_lik(i, s) for i in range(len(self.models))])

    def check_second_moments(self):
        """Raise where a Monte Carlo score phi 1{error} has infinite variance.

        Under model i, E e^(2 gamma S) = exp n(F(theta_i + 2 gamma) - F(theta_i))
        is finite where theta_i + gamma lies in the weighted domain (whose
        members keep theta + gamma natural).  The model that wins for large S
        (largest theta, the last on a tie) errs only on bounded S and is exempt.
        """
        fam, thetas = self.family, self.thetas
        top = max(range(len(thetas)), key=lambda i: (thetas[i], i))
        for i, theta in enumerate(thetas):
            if i != top and not fam.contains(theta + fam.gamma):
                raise ConvergenceError(f"monte carlo loss has infinite variance under model {i}:"
                                       " e^(2 gamma S) is not integrable against it")


class _CountStatistic:
    """T = the symbol counts of an n-sample, ~ Multinomial(n, probs)."""

    def __init__(self, models, weight, n):
        symbols = np.arange(models[0].size)
        self.models, self.n = models, n
        self.log_phi = weight.log_value(symbols)
        self.log_probs = [_numeric.logpdf_vec(m, symbols) for m in models]

    def draw(self, i, rng, count):
        return rng.multinomial(self.n, self.models[i].probs, size=count)

    def log_weight(self, t):
        return _counts_dot(t, self.log_phi)

    def log_lik(self, i, t):
        return _counts_dot(t, self.log_probs[i])

    def state_logs(self):
        """Every count vector, with base ln(multinomial coefficient phi^n)."""
        counts = _count_matrix(self.n, self.log_phi.size)
        log_mult = special.gammaln(self.n + 1.0) - np.sum(special.gammaln(counts + 1.0), axis=1)
        return (log_mult + self.log_weight(counts),
                [self.log_lik(i, counts) for i in range(len(self.models))])


def _statistic(models, weight, n):
    """The smallest built-in statistic of an n-sample that carries every loss.

    Each statistic T offers draw(i, rng, count) under models[i],
    log_weight(t) = ln phi^n, log_lik(i, t) = ln p_i^n up to a term shared
    by all models, and state_logs() -> (base, logs) over the states of T.
    The models and weight have passed `check_models`, so every pair either
    embeds in one family or has no such reading.

    exp(base + logs_i) is the sum of phi^n p_i^n over the sample points of
    a state, on which phi^n and every ratio p_i^n / p_j^n are constant.  So
    for any f with f(c p) = c f(p), c > 0 (min, |p - q|, sum - max), the
    product-space sum of phi^n f(p_1^n, ..., p_M^n) is the sum over states
    of f(exp(base + logs_1), ..., exp(base + logs_M)).
    """
    if isinstance(models[0], Categorical):
        return _CountStatistic(models, weight, n)
    embeddings = [embed_pair(models[0], m, weight) for m in models[1:]]
    if None in embeddings:
        return _SampleStatistic(models, weight, n)
    return _SumStatistic(models, embeddings[0][0], n)


# ---------------------------------------------------------------------------
# The loss engine: exact sums over the states of the statistic, Monte Carlo
# ---------------------------------------------------------------------------


def optimal_loss_exact(problem):
    """L_n* by an exact sum of phi min{p, q} over the states of the statistic."""
    return _loss((problem.model_p, problem.model_q), problem.weight, problem.n, None,
                 EXACT_ENUMERATION)


def weighted_tv(problem):
    """TV_phi = half the phi-weighted L1 distance on the product space."""
    base, (lp, lq) = _statistic(
        (problem.model_p, problem.model_q), problem.weight, problem.n).state_logs()
    with np.errstate(over="ignore", invalid="ignore"):
        tv = float(0.5 * np.sum(np.abs(np.exp(base + lp) - np.exp(base + lq))))
    if not math.isfinite(tv):
        raise ConvergenceError("TV_phi overflows a double")
    return tv


def mary_optimal_loss(problem, n, method=EXACT_ENUMERATION, replicates=None, seed=0):
    """L_{n,M}* (or its priors-weighted version) exactly or by Monte Carlo."""
    return _loss(problem.models, problem.weight, n, problem.priors, method, replicates, seed)


def _loss(models, weight, n, priors, method, replicates=None, seed=0):
    """L_{n,M}* of the module docstring, exactly or by Monte Carlo."""
    w = priors if priors is not None else (1.0,) * len(models)
    log_w = [math.log(wi) for wi in w]
    if method == EXACT_ENUMERATION:
        base, logs = _statistic(models, weight, n).state_logs()
        terms = [lw + base + li for lw, li in zip(log_w, logs)]
        top, rest = terms[0], []  # every term of a state but its largest
        for term in terms[1:]:
            rest.append(np.minimum(top, term))
            top = np.maximum(top, term)
        # a log-domain sum keeps the exponent exact where the loss underflows
        log_value = log_sum_exp(np.concatenate(rest))
        return LossEstimate(exp_or_raise(log_value, "exact loss"), 0.0, EXACT_ENUMERATION, 0,
                            -log_value / n)
    if method != MONTE_CARLO:
        raise PreconditionError(f"unknown method '{method}'")
    if replicates is None or replicates < 1000:
        raise PreconditionError("monte carlo needs replicates >= 1000")
    stat = _statistic(models, weight, n)
    if isinstance(stat, _SumStatistic):
        stat.check_second_moments()
    total, var = 0.0, 0.0
    for i in range(len(models)):
        mean_i, var_i = _mc_mean(stat, i, replicates, seed, i,
                                 lambda t, i=i: _decision_errors(stat, log_w, i, t))
        total += w[i] * mean_i
        var += (w[i] ** 2) * var_i / replicates
    exponent = math.inf if total <= 0.0 else -math.log(total) / n
    return LossEstimate(total, math.sqrt(var), MONTE_CARLO, replicates, exponent)


def _decision_errors(stat, log_w, i, t):
    """Where model i is not decided: some ln w_j p_j^n is higher, or equal with j > i."""
    s = [lw + stat.log_lik(j, t) for j, lw in enumerate(log_w)]
    beaten = [s[j] > s[i] for j in range(i)] + [s[j] >= s[i] for j in range(i + 1, len(s))]
    return functools.reduce(np.logical_or, beaten)


def mary_exponent(problem):
    """Pairwise weighted Chernoff matrix and its minimum C_M^w."""
    models = problem.models
    m = len(models)
    matrix = [[0.0] * m for _ in range(m)]
    best = None
    degenerate = False
    for i in range(m):
        for j in range(i + 1, m):
            res = chernoff(models[i], models[j], problem.weight)
            matrix[i][j] = matrix[j][i] = res.d_c_w
            if res.boundary == "flat":
                degenerate = True
            if best is None or res.d_c_w < best[0]:
                best = (res.d_c_w, (i, j), res.boundary)
    return {
        "matrix": matrix,
        "c_m_w": best[0],
        "pair": list(best[1]),
        "degenerate": degenerate,
    }


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def _mc_mean(stat, i, replicates, seed, stream_id, error_fn):
    """Mean and variance of phi(x_1..n) 1{error_fn(T)} over draws of T under model i.

    Chunked with a fixed chunk size so results are deterministic in
    (seed, stream_id) regardless of the replicate total.
    """
    total, total_sq, done, chunk_idx = 0.0, 0.0, 0, 0
    while done < replicates:
        count = min(MC_CHUNK, replicates - done)
        t = stat.draw(i, rng_stream(seed, stream_id, chunk_idx), count)
        log_phi = stat.log_weight(t)
        hit = error_fn(t)
        score = np.zeros(count)
        try:
            with np.errstate(over="raise"):
                score[hit] = np.exp(log_phi[hit])
        except FloatingPointError as exc:
            raise ConvergenceError("weight phi(x_1..n) overflows on a sampled replicate") from exc
        total += float(score.sum())
        total_sq += float((score * score).sum())
        done += count
        chunk_idx += 1
    mean = total / replicates
    var = max(total_sq / replicates - mean * mean, 0.0)
    return mean, var


def optimal_loss_mc(problem, replicates, seed=0):
    """Monte Carlo estimate of the optimal total loss.

    Decision rule: declare H1 when q(x_1..n) >= p(x_1..n).  The loss is
    E_P[phi 1{decide H1}] + E_Q[phi 1{decide H0}], each term estimated by
    drawing the statistic of the n-sample under its own hypothesis.
    """
    return _loss((problem.model_p, problem.model_q), problem.weight, problem.n, None,
                 MONTE_CARLO, replicates, seed)


def simulate(problem, replicates, seed=0):
    """SimReport: Monte Carlo loss plus the closed/solver Chernoff reference."""
    est = optimal_loss_mc(problem, replicates, seed)
    ref = chernoff(problem.model_p, problem.model_q, problem.weight)
    return SimReport(est.value, est.std_error, est.exponent_estimate,
                     ref.d_c_w, problem.n, replicates, seed, est.method)


def convergence_rows(model_p, model_q, weight, ns, replicates, seed=0):
    """(n, exponent_estimate, d_c_w) triples for convergence tables."""
    ref = chernoff(model_p, model_q, weight).d_c_w
    rows = []
    for n in ns:
        est = optimal_loss_mc(BinaryTestProblem(model_p, model_q, weight, n),
                              replicates, seed)
        rows.append((int(n), est.exponent_estimate, ref))
    return rows


# ---------------------------------------------------------------------------
# Tilted log-likelihood, cumulants, rate functions, tail bound
# ---------------------------------------------------------------------------


def tilted_llr(problem, x):
    """L*(x_1..n) = sum ln(q/p) + n shift, with saturating infinities.

    A point with zero density under exactly one hypothesis saturates to
    -inf (zero q-density) or +inf (zero p-density); a point outside both
    supports is rejected.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != problem.n:
        raise PreconditionError("sample vector length must equal n")
    lp = float(np.sum(_numeric.logpdf_vec(problem.model_p, x)))
    lq = float(np.sum(_numeric.logpdf_vec(problem.model_q, x)))
    if lp == -math.inf and lq == -math.inf:
        raise PreconditionError("sample point has zero density under both hypotheses")
    if lq == -math.inf:
        return -math.inf
    if lp == -math.inf:
        return math.inf
    return lq - lp + problem.n * problem.shift


def tilted_stats(problem):
    """Moments of the per-coordinate increment ln(q/p) under Q.

    d_bound = sup |ln(q/p) - KL(Q||P)| over the support of Q; finite only
    for categorical models (every other built-in family has unbounded
    log-ratio), in which case the tail bound is unavailable.
    """
    p, q = problem.model_p, problem.model_q
    if isinstance(q, Categorical):
        mask = q.probs > 0.0
        kl = d = sigma2 = math.inf
        if not np.any(mask & (p.probs == 0.0)):
            k = np.flatnonzero(mask)
            lr = q.logpdf(k) - p.logpdf(k)
            kl = float(np.sum(q.probs[mask] * lr))
            sigma2 = float(np.sum(q.probs[mask] * (lr - kl) ** 2))
            d = float(np.max(np.abs(lr - kl)))
        return TiltedLikelihoodStats(kl, d, sigma2, problem.shift)

    # unweighted KL(Q||P) and Var_Q(ln(q/p)) numerically; d is infinite
    kl = _numeric.weighted_power_integral(p, q, ConstWeight(), 0.0, 1.0,
                                          factor=lambda lp, lq: lq - lp)[1]
    sigma2 = _numeric.weighted_power_integral(p, q, ConstWeight(), 0.0, 1.0,
                                              factor=lambda lp, lq: (lq - lp - kl) ** 2)[1]
    return TiltedLikelihoodStats(kl, math.inf, sigma2, problem.shift)


def _cumulant_fns(problem):
    """(psi_P, psi_Q), read off the phi == 1 curve as in the module docstring."""
    curve = AffinityCurve(problem.model_p, problem.model_q, ConstWeight())
    shift = problem.shift

    def psi(at, alpha):
        val = curve._log_rho(at)
        return val + alpha * shift if math.isfinite(val) else math.inf

    return (lambda a: psi(1.0 - a, a)), (lambda a: psi(-a, a))


def cumulants(problem, alpha):
    """(psi_P(alpha), psi_Q(alpha)) of L*/1 at a single coordinate.

    psi_P(alpha) = ln int q^alpha p^(1-alpha) + alpha shift;
    psi_Q(alpha) = ln int q^(alpha+1) p^(-alpha) + alpha shift.
    These satisfy psi_Q(alpha) = psi_P(alpha + 1) - shift where both are
    finite.
    """
    alpha = float(alpha)
    psi_p, psi_q = _cumulant_fns(problem)
    return psi_p(alpha), psi_q(alpha)


_LEGENDRE_SPAN = 20.0
_LEGENDRE_POINTS = 17


def _legendre(psi, r):
    """sup over alpha in [-20, 20] of alpha r - psi(alpha).

    The objective is concave (psi is convex), so the best point of a
    coarse grid brackets the maximiser between its two neighbours, where a
    bounded scalar maximiser finishes the search.
    """

    def g(a):
        try:
            v = psi(a)
        except ConvergenceError:
            return -math.inf
        return a * r - v if math.isfinite(v) else -math.inf

    grid = np.linspace(-_LEGENDRE_SPAN, _LEGENDRE_SPAN, _LEGENDRE_POINTS)
    vals = [g(a) for a in grid]
    best = int(np.argmax(vals))
    if vals[best] == -math.inf:
        raise RateInfiniteError("cumulant is nowhere finite on the working interval")
    if best in (0, len(grid) - 1):
        # still climbing at the scan edge: supremum not attained inside
        inner = best + 1 if best == 0 else best - 1
        if vals[best] > vals[inner]:
            raise RateInfiniteError("Legendre supremum unbounded on [-20, 20]")
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(lambda a: -g(a), bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-10})
    return float(max(-res.fun, vals[best]))


def rate_function(problem, r):
    """(I_P(r), I_Q(r)) by concave maximisation of the Legendre objective.

    Both transforms are computed independently, each from its own
    cumulant; they are linked by I_Q(r) = I_P(r) - r + shift, and I_P(0)
    is the tilted-likelihood Chernoff exponent.
    """
    psi_p, psi_q = _cumulant_fns(problem)
    return _legendre(psi_p, float(r)), _legendre(psi_q, float(r))


def bernoulli_kl(a, b):
    """D(a || b) between Bernoulli(a) and Bernoulli(b)."""
    a, b = float(a), float(b)
    if not (0.0 <= a <= 1.0 and 0.0 < b < 1.0):
        raise PreconditionError("bernoulli_kl needs a in [0,1] and b in (0,1)")
    out = 0.0
    if a > 0.0:
        out += a * math.log(a / b)
    if a < 1.0:
        out += (1.0 - a) * math.log((1.0 - a) / (1.0 - b))
    return max(out, 0.0)  # the two terms nearly cancel for a near b, and may round below 0


def tail_bound(problem, beta, n):
    """Bennett-type bound on P_Q(L* >= beta n) from the Doob martingale.

    With beta* = beta - shift (required >= 0), the bound is vacuous (1)
    unless the deviation t = beta* - KL(Q||P) is positive; then with
    delta = sigma^2/d^2 and g = t/d,

        bound = exp{-n D((delta + g)/(1 + delta) || delta/(1 + delta))}.

    Needs bounded increments, so categorical models only.
    """
    stats = tilted_stats(problem)
    if not math.isfinite(stats.d_bound):
        raise UnsupportedCombinationError(
            "tail bound needs bounded log-ratio increments (categorical models)"
        )
    beta_star = float(beta) - stats.shift
    if beta_star < 0.0:
        raise PreconditionError("tail bound requires beta - shift >= 0")
    t = beta_star - stats.kl_qp
    if beta_star == 0.0 or t <= 0.0:
        return 1.0
    if stats.d_bound == 0.0:
        return 0.0  # degenerate increment cannot deviate
    delta = stats.sigma2 / (stats.d_bound ** 2)
    g = t / stats.d_bound
    a = min((delta + g) / (1.0 + delta), 1.0)
    b = delta / (1.0 + delta)
    return min(math.exp(-int(n) * bernoulli_kl(a, b)), 1.0)


def tail_frequency(problem, beta, n, replicates, seed=0):
    """Empirical P_Q(L* >= beta n) with its binomial standard error."""
    if replicates < 1000:
        raise PreconditionError("monte carlo needs replicates >= 1000")
    stat = _statistic((problem.model_p, problem.model_q), ConstWeight(), n)
    shift = problem.shift

    def exceeds(t):
        lstar = stat.log_lik(1, t) - stat.log_lik(0, t) + n * shift
        return lstar >= float(beta) * n

    freq, _ = _mc_mean(stat, 1, replicates, seed, 2, exceeds)
    return freq, math.sqrt(freq * (1.0 - freq) / replicates)
