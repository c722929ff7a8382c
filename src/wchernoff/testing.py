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
(S = 0..K for Poisson, every count vector for categorical models).

Monte Carlo on two models draws T once, under the member of the Chernoff
arc at alpha* from `chernoff`, g = phi^n p^a q^(1-a) / rho(a)^n at a =
alpha*, where T has a family law: S under the member theta_a + gamma of
its family (Poi, Gamma or N of that member, summed over n), the counts
under Multinomial(n, pi), pi proportional to phi p^a q^(1-a).  With d =
ln p^n - ln q^n, a draw scores exp(min(ln w_1 + (1-a) d, ln w_2 - a d))
<= 1 and ln L = -n D + ln(mean score): the Chernoff bound e^(-n D) is the
prefactor, and Monte Carlo estimates only the factor it leaves
(Siegmund, Ann. Statist. 4(4), 1976; Sadowsky & Bucklew, IEEE Trans. IT
36(3), 1990).  The tail frequency P_Q(L* >= beta n) makes the same move
on the phi = 1 curve: T is drawn under its member at a = -alpha, alpha
the maximiser of the Legendre transform I_Q(beta), a <= 0 past Q, and
each draw scores at most 1 against the prefactor e^(-n I_Q(beta)).
Direct Monte Carlo, which draws T under each hypothesis and scores phi
1{error} (or 1{L* >= beta n} under Q), remains where no member can be
drawn: the sample itself and three or more models.  Where T is
discrete (S of a Poisson pair, the counts) and has no more states than a
chunk of replicates, the chunk is drawn as one histogram over the states
of T instead, c ~ Multinomial(replicates, law of T).  Each discrete T
writes its law once, and its exact sums and histograms read that same
law.  The count vectors and their multinomial coefficients are enumerated
once per (n, k) in a process and shared read-only by every pair, weight
and sum of that size; the cached tables hold at most STATE_BUDGET cells.

The tilted log-likelihood section implements the cumulants psi_P/psi_Q,
their Legendre transforms, and the Bennett-type martingale tail bound,
all for the shifted statistic

    L* = sum ln(q/p) + n (ln E_phi(p) - ln E_phi(q)).

The cumulants are the phi == 1 log-affinity curve F(a) = ln int p^a q^(1-a)
of `AffinityCurve`, continued past [0, 1]: psi_P(alpha) = F(1 - alpha) +
alpha shift and psi_Q(alpha) = F(-alpha) + alpha shift, so closed-form
pairs need no integral and the value is +inf where F diverges.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import numbers
import threading
from dataclasses import asdict, dataclass

import numpy as np

from . import _numeric
from .affinity import AffinityCurve, chernoff, log_weighted_normaliser, newton_minimise
from .errors import (
    ConvergenceError,
    PreconditionError,
    RateInfiniteError,
    StateSpaceOverflowError,
    UnsupportedCombinationError,
)
from .expfam import weighted_kl
from .models import (
    Categorical,
    ConstWeight,
    check_models,
    embed_pair,
    exp_or_raise,
    log_factorial,
    log_sum_exp,
    rng_stream,
)

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

# cells of the largest array an exact categorical sum builds, and of all cached count tables
STATE_BUDGET = 10_000_000
MC_CHUNK = 100_000


def _sample_size(n):
    """n as an int; PreconditionError unless it is an integer >= 1."""
    if not (isinstance(n, numbers.Real) and n >= 1 and n % 1 == 0):
        raise PreconditionError(f"sample size n must be an integer >= 1, not {n!r}")
    return int(n)


@dataclass(frozen=True)
class BinaryTestProblem:
    model_p: object
    model_q: object
    weight: object
    n: int

    def __post_init__(self):
        check_models((self.model_p, self.model_q), self.weight)
        object.__setattr__(self, "n", _sample_size(self.n))

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
        return asdict(self)


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

    Rows are compositions of n into k non-negative parts, c_0 descending,
    then c_1, and so on: the order of
    `itertools.combinations_with_replacement(range(k), n)`.  The product
    space of size k^n collapses onto comb(n+k-1, n) rows because the weight
    and every density factorise over i.i.d. coordinates.  The matrix grows
    one count at a time: a row with r draws left is repeated r + 1 times,
    its next count running r, r - 1, ..., 0, and the last count takes what
    is left.  Work and memory stay within a few times rows x k cells.
    """
    rows = math.comb(n + k - 1, n)
    if rows * k > STATE_BUDGET:
        raise StateSpaceOverflowError(
            f"enumeration would need {rows} states of {k} symbols"
            f" (budget {STATE_BUDGET} cells); use the Monte Carlo estimator"
        )
    counts = np.array([[0] * (k - 1) + [n]], dtype=np.int64)  # the last count: draws left
    for j in range(k - 1):
        reps = counts[:, -1] + 1
        counts = np.repeat(counts, reps, axis=0)
        left = np.arange(len(counts)) - np.repeat(np.cumsum(reps) - reps, reps)
        counts[:, j], counts[:, -1] = counts[:, -1] - left, left
    return counts


_COUNT_TABLES = collections.OrderedDict()  # (n, k) -> _count_table's pair, least recent first
_COUNT_TABLES_LOCK = threading.Lock()


def _count_table(n, k):
    """Every count vector of n draws from k symbols, as floats, and ln of its multinomial
    coefficient, both read-only.

    Built once per (n, k) and shared by every statistic of that size, across threads too.
    Before a table is built, the least recently used ones are dropped until the cached
    count vectors and the new ones hold at most STATE_BUDGET cells, the bound of a single
    enumeration.
    """
    key = (n, k)
    with _COUNT_TABLES_LOCK:
        if key in _COUNT_TABLES:
            _COUNT_TABLES.move_to_end(key)
            return _COUNT_TABLES[key]
        cells = math.comb(n + k - 1, n) * k
        if cells <= STATE_BUDGET:  # a table past the budget is refused by _count_matrix
            held = sum(states.size for states, _ in _COUNT_TABLES.values())
            while _COUNT_TABLES and held + cells > STATE_BUDGET:
                held -= _COUNT_TABLES.popitem(last=False)[1][0].size
        counts = _count_matrix(n, k)
        ln_fact = log_factorial(np.arange(n + 1.0))
        log_den = ln_fact[counts[:, 0]]
        for column in counts.T[1:]:  # no rows x k array of log-factorials
            log_den += ln_fact[column]
        table = counts.astype(float), np.subtract(ln_fact[-1], log_den, out=log_den)
        for array in table:
            array.flags.writeable = False
        _COUNT_TABLES[key] = table
        return table


class _SampleStatistic:
    """T = the n-sample itself, for pairs without a smaller statistic."""

    support_size = math.inf
    states = member = None

    def __init__(self, models, weight, n):
        _numeric.check_scalar(*models)
        self.models, self.weight, self.n = models, weight, n

    def draw(self, model, rng, count):
        x = model.sample(rng, count * self.n)
        return np.asarray(x, dtype=float).reshape(count, self.n)

    def log_weight(self, t):
        return self.weight.log_value(t).sum(axis=1)

    def log_lik(self, i, t):
        return _numeric.logpdf_vec(self.models[i], t).sum(axis=1)


class _SumStatistic:
    """T = S = sum x_i for members of one natural exponential family.

    ln p_i^n = theta_i S - n F(theta_i) plus a term shared by all models,
    and ln phi^n = gamma S.  The family declares the law of S: its sampler,
    and its lattice and log-mass where S is discrete.
    """

    def __init__(self, models, family, n, reach=0.0):
        self.models, self.family, self.n = models, family, n
        self.thetas = [family.theta_of_model(m) for m in models]
        if family.lattice is not None:  # the largest mean of S, n F'(theta_i) or its tilt's
            tops = [t + max(family.gamma, 0.0) for t in self.thetas]
            if reach:  # or that of the member drawn at alpha = reach < 0, past them all
                tops.append(self._member_theta(reach))
            self.top_mean = n * max(family.dF(t) for t in tops)

    def member(self, alpha):
        """The model whose S has the law phi^n p^alpha q^(1-alpha) / rho(alpha)^n:
        the member theta_alpha + gamma, theta_alpha = alpha theta_p + (1 - alpha) theta_q."""
        return self.family.model_at(self._member_theta(alpha))

    def _member_theta(self, alpha):
        t_p, t_q = self.thetas
        return alpha * t_p + (1.0 - alpha) * t_q + self.family.gamma

    def draw(self, model, rng, count):
        return self.family.draw_sum(model, self.n, rng, count)

    def log_weight(self, t):
        return self.family.gamma * t

    def log_lik(self, i, t):
        theta = self.thetas[i]
        out = np.multiply(theta, t)
        out -= self.n * self.family.F(theta)
        return out

    @functools.cached_property
    def support_size(self):
        """K + 1 states S = 0..K, or inf for a continuous S or a mean past what a chunk holds."""
        if self.family.lattice is None or self.top_mean > MC_CHUNK:
            return math.inf
        return self.states.size

    @functools.cached_property
    def states(self):
        """S = 0..K, cut for the largest mean, of P_i or of phi^n P_i (member theta_i +
        gamma's law), past every arc member's on [0, 1] and the one at `reach`; None for
        a continuous S."""
        return None if self.family.lattice is None else self.family.lattice(self.top_mean)

    def log_law(self, model):
        """ln P(S = s) under `model` at each of the states."""
        return self.family.sum_logpmf(model, self.n, self.states)

    def check_second_moments(self):
        """Raise where a direct Monte Carlo score phi 1{error} has infinite variance.

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
    """T = the symbol counts of an n-sample, ~ Multinomial(n, probs).

    Its states and their multinomial coefficients are `_count_table(n, k)`: enumerated
    once per (n, k) in a process, shared read-only, and cached within STATE_BUDGET cells.
    """

    def __init__(self, models, weight, n):
        self.symbols = np.arange(models[0].size)
        self.models, self.n = models, n
        self.log_phi = weight.log_value(self.symbols)
        self.log_probs = [_numeric.logpdf_vec(m, self.symbols) for m in models]

    def member(self, alpha):
        """Categorical(pi), pi proportional to phi p^alpha q^(1-alpha): its counts have
        the law phi^n p^alpha q^(1-alpha) / rho(alpha)^n."""
        with np.errstate(invalid="ignore"):  # nan where p = q = 0 at alpha < 0: no mass, as on the curve
            log_pi = _numeric.log_bump(self.log_phi, alpha, self.log_probs[0], self.log_probs[1])
        log_pi = np.where(np.isnan(log_pi), -np.inf, log_pi)
        pi = np.exp(log_pi - log_sum_exp(log_pi))
        return Categorical(pi / pi.sum())

    def draw(self, model, rng, count):
        return rng.multinomial(self.n, model.probs, size=count).astype(float)

    def log_weight(self, t):
        return _counts_dot(t, self.log_phi)

    def log_lik(self, i, t):
        return _counts_dot(t, self.log_probs[i])

    @functools.cached_property
    def support_size(self):
        """comb(n + k - 1, n) count vectors, or inf past the state budget."""
        k = self.log_phi.size
        rows = math.comb(self.n + k - 1, self.n)
        return rows if rows * k <= STATE_BUDGET else math.inf

    @property
    def states(self):
        return _count_table(self.n, self.log_phi.size)[0]

    def log_law(self, model):
        """ln Multinomial(n, probs) under `model` at each count vector."""
        states, log_mult = _count_table(self.n, self.log_phi.size)
        out = _counts_dot(states, model.logpdf(self.symbols))
        out += log_mult
        return out


def _statistic(models, weight, n, reach=0.0):
    """The smallest built-in statistic of an n-sample that carries every loss.

    Each statistic T offers draw(model, rng, count), T drawn under `model`,
    log_weight(t) = ln phi^n, log_lik(i, t) = ln p_i^n of models[i] up to a
    term shared by all models, support_size (the number of states, inf for a
    continuous T or one past what a chunk or the state budget holds), states
    (None where T is continuous) and log_law(model) = ln P(T = state) over
    them, and member(alpha), the model under which T has the law phi^n
    p^alpha q^(1-alpha) / rho(alpha)^n of a pair (None for the sample, whose
    arc member no built-in model draws).  A discrete S keeps its states past
    the mean of the member at alpha = `reach` as well, where one is drawn
    below alpha = 0.  The models and weight have passed `check_models`, so
    every pair either embeds in one family or has no such reading.
    """
    if isinstance(models[0], Categorical):
        return _CountStatistic(models, weight, n)
    embeddings = [embed_pair(models[0], m, weight) for m in models[1:]]
    if None in embeddings:
        return _SampleStatistic(models, weight, n)
    return _SumStatistic(models, embeddings[0][0], n, reach)


# ---------------------------------------------------------------------------
# The loss engine: exact sums over the states of the statistic, Monte Carlo
# ---------------------------------------------------------------------------


def _state_logs(models, weight, n):
    """[ln phi^n(T) + ln P_i(T) over the states of T] for each model i, from T's law.

    Its exponential sums phi^n p_i^n over the sample points of a state, on
    which phi^n and every ratio p_i^n / p_j^n are constant.  So for any f
    with f(c p) = c f(p), c > 0 (min, |p - q|, sum - max), the product-space
    sum of phi^n f(p_1^n, ..., p_M^n) is the sum over states of f of these.
    """
    stat = _statistic(models, weight, n)
    if stat.states is None:
        raise UnsupportedCombinationError(
            "exact sums need categorical models, or Poisson models under a constant"
            " or exponential-tilt weight; use Monte Carlo")
    log_phi = stat.log_weight(stat.states)
    return [np.add(log, log_phi, out=log) for log in map(stat.log_law, models)]


def optimal_loss_exact(problem):
    """L_n* by an exact sum of phi min{p, q} over the states of the statistic."""
    return _loss((problem.model_p, problem.model_q), problem.weight, problem.n, None,
                 EXACT_ENUMERATION)


def weighted_tv(problem):
    """TV_phi = half the phi-weighted L1 distance on the product space."""
    lp, lq = _state_logs((problem.model_p, problem.model_q), problem.weight, problem.n)
    with np.errstate(over="ignore", invalid="ignore"):
        tv = float(0.5 * np.sum(np.abs(np.exp(lp) - np.exp(lq))))
    if not math.isfinite(tv):
        raise ConvergenceError("TV_phi overflows a double")
    return tv


def mary_optimal_loss(problem, n, method=EXACT_ENUMERATION, replicates=None, seed=0):
    """L_{n,M}* (or its priors-weighted version) exactly or by Monte Carlo."""
    return _loss(problem.models, problem.weight, n, problem.priors, method, replicates, seed)


def _loss(models, weight, n, priors, method, replicates=None, seed=0, ref=None):
    """L_{n,M}* of the module docstring, exactly or by Monte Carlo.

    `ref` is `chernoff` of a pair, read by the arc estimator; None computes it.
    """
    n = _sample_size(n)
    w = priors if priors is not None else (1.0,) * len(models)
    log_w = [math.log(wi) for wi in w]
    if method == EXACT_ENUMERATION:
        terms = [np.add(li, lw, out=li) for lw, li in zip(log_w, _state_logs(models, weight, n))]
        top, rest = terms[0], []  # every term of a state but its largest
        for term in terms[1:]:
            rest.append(np.minimum(top, term))
            np.maximum(top, term, out=top)
        # a log-domain sum keeps the exponent exact where the loss underflows
        log_value = log_sum_exp(np.concatenate(rest))
        return LossEstimate(exp_or_raise(log_value, "exact loss"), 0.0, EXACT_ENUMERATION, 0,
                            0.0 - log_value / n)  # +0, not -0, for a loss of 1
    if method != MONTE_CARLO:
        raise PreconditionError(f"unknown method '{method}'")
    if replicates is None or replicates < 1000:
        raise PreconditionError("monte carlo needs replicates >= 1000")
    stat = _statistic(models, weight, n)
    if len(models) == 2 and stat.member is not None:
        return _arc_loss(stat, log_w, replicates, seed,
                         ref if ref is not None else chernoff(*models, weight))
    if isinstance(stat, _SumStatistic):
        stat.check_second_moments()
    total, var = 0.0, 0.0
    for i, model in enumerate(models):
        error_fn = functools.partial(_decision_errors, stat, log_w, i)
        mean_i, var_i = _mc_mean(stat, model, replicates, seed, i,
                                 functools.partial(_scores, stat, error_fn))
        total += w[i] * mean_i
        var += (w[i] ** 2) * var_i / replicates
    exponent = math.inf if total <= 0.0 else 0.0 - math.log(total) / n
    return LossEstimate(total, math.sqrt(var), MONTE_CARLO, replicates, exponent)


def _arc_loss(stat, log_w, replicates, seed, ref):
    """A pair's loss from draws of T under the member of the Chernoff arc at alpha*.

    With g = phi^n p^a q^(1-a) / rho(a)^n, a = alpha* and rho(a)^n = e^(-n D),
    L = E_g[phi^n min(w_1 p^n, w_2 q^n) / g] = e^(-n D) E_g[score], where
    score = exp(min(ln w_1 + (1 - a) d, ln w_2 - a d)) for d = ln p^n - ln q^n.
    One of the two exponents is <= 0 whatever d is, so the score is at most
    max(w_1, w_2) <= 1: Monte Carlo estimates only the factor that e^(-n D)
    leaves, with a bounded variance, and ln L = -n D + ln(mean) stays exact
    where L leaves the range of a double.  A state where p or q has no mass
    scores 0.  Where every drawn score underflows (d spread over far more
    than 745 around 0), the same stream is scored again, scaled by e^-top
    for the largest log-score top, so that ln L stays finite.  The score of
    a chunk is written into the two arrays of its log-likelihoods: ln p^n
    becomes d and then the second branch, ln q^n the first branch and the score.
    """
    a, n, member = ref.alpha_star, stat.n, stat.member(ref.alpha_star)
    shift, top = 0.0, -math.inf

    def score(t):
        nonlocal top
        d, log_score = stat.log_lik(0, t), stat.log_lik(1, t)
        with np.errstate(invalid="ignore"):  # -inf - -inf on a state off both supports
            d -= log_score
        off = np.isfinite(d)  # negated in place: one mask beside the chunk's three arrays
        off = np.flatnonzero(np.logical_not(off, out=off))  # the states off a support, if any
        d[off] = 0.0
        np.multiply(1.0 - a, d, out=log_score)  # the two branches, each in one buffer
        log_score += log_w[0]
        np.subtract(log_w[1], np.multiply(a, d, out=d), out=d)
        np.minimum(log_score, d, out=log_score)
        log_score[off] = -np.inf
        top = max(top, float(log_score.max()))
        if shift:
            log_score -= shift
        return np.exp(log_score, out=log_score)

    mean, var = _mc_mean(stat, member, replicates, seed, 0, score)
    if mean == 0.0 and top > -math.inf:
        shift = top
        mean, var = _mc_mean(stat, member, replicates, seed, 0, score)
    if mean == 0.0:
        return LossEstimate(0.0, 0.0, MONTE_CARLO, replicates, math.inf)
    log_value = math.log(mean) + shift - n * ref.d_c_w
    value = exp_or_raise(log_value, "monte carlo loss")
    std_error = value * math.sqrt(var / replicates) / mean
    return LossEstimate(value, std_error, MONTE_CARLO, replicates, 0.0 - log_value / n)


def _decision_errors(stat, log_w, i, t):
    """Where model i is not decided: some ln w_j p_j^n is higher, or equal with j > i."""
    s = [lw + stat.log_lik(j, t) for j, lw in enumerate(log_w)]
    beaten = [s[j] > s[i] for j in range(i)] + [s[j] >= s[i] for j in range(i + 1, len(s))]
    return functools.reduce(np.logical_or, beaten)


def mary_exponent(problem):
    """Pairwise weighted Chernoff matrix and its minimum C_M^w."""
    m = len(problem.models)
    matrix = [[0.0] * m for _ in range(m)]
    results = {}  # (i, j) -> ChernoffResult, i < j in lexicographic order
    for i, j in itertools.combinations(range(m), 2):
        results[i, j] = chernoff(problem.models[i], problem.models[j], problem.weight)
        matrix[i][j] = matrix[j][i] = results[i, j].d_c_w
    pair = min(results, key=lambda ij: results[ij].d_c_w)  # the first of equal minima
    return {"matrix": matrix, "c_m_w": results[pair].d_c_w, "pair": list(pair),
            "degenerate": any(r.boundary == "flat" for r in results.values())}


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def _scores(stat, error_fn, t):
    """phi(x_1..n) 1{error_fn(T)} at each row or state t, +inf where phi overflows."""
    hit = error_fn(t)
    with np.errstate(over="ignore"):
        return np.exp(stat.log_weight(t), out=np.zeros(hit.size), where=hit)


def _mc_mean(stat, model, replicates, seed, stream_id, score_fn):
    """Mean and variance of score_fn(T) over draws of T under `model`.

    Chunked with a fixed chunk size so results are deterministic in
    (seed, stream_id) regardless of the replicate total.  A chunk of a
    discrete T with no more states than the chunk has replicates is drawn
    as a histogram over the states, c ~ Multinomial(count, law of T under
    `model`), and adds sum c score and sum c score^2: the same law as the
    sums over `count` rows, with the score evaluated once per state.  Every
    other chunk draws `count` rows of T, sums their scores, then squares them
    in place (score_fn returns a fresh array) and sums again.
    """
    total, total_sq, done, chunk_idx, hist = 0.0, 0.0, 0, 0, None
    while done < replicates:
        count = min(MC_CHUNK, replicates - done)
        rng = rng_stream(seed, stream_id, chunk_idx)
        if stat.support_size <= count:
            if hist is None:  # the law under the model and every state's score, once
                log_law = stat.log_law(model)
                probs = np.exp(log_law - log_sum_exp(log_law))
                hist = probs / probs.sum(), score_fn(stat.states)
            probs, scores = hist
            c = rng.multinomial(count, probs)
            drawn = c > 0
            score, copies = scores[drawn], c[drawn]
        else:
            score, copies = score_fn(stat.draw(model, rng, count)), None
        with np.errstate(over="ignore"):  # the sum of squares is the largest, and is checked
            weighted = score if copies is None else copies * score
            total += float(weighted.sum())
            total_sq += float(np.multiply(weighted, score, out=weighted).sum())
        if total_sq == math.inf:
            raise ConvergenceError("weight phi(x_1..n) or its square overflows on a sampled"
                                   " replicate")
        done += count
        chunk_idx += 1
    mean = total / replicates
    var = max(total_sq / replicates - mean * mean, 0.0)
    return mean, var


def optimal_loss_mc(problem, replicates, seed=0):
    """Monte Carlo estimate of the optimal total loss L_n* = integral phi min{p, q}.

    Where the statistic has an arc member (the sum of a family pair, the
    counts of a categorical pair), T is drawn under the member at alpha*
    (`_arc_loss`).  For the sample itself, the loss is E_P[phi 1{decide H1}]
    + E_Q[phi 1{decide H0}] under the rule "H1 when q(x_1..n) >= p(x_1..n)",
    each term estimated by drawing the sample under its own hypothesis.
    """
    return _loss((problem.model_p, problem.model_q), problem.weight, problem.n, None,
                 MONTE_CARLO, replicates, seed)


def simulate(problem, replicates, seed=0):
    """SimReport: Monte Carlo loss plus the closed/solver Chernoff reference."""
    ref = chernoff(problem.model_p, problem.model_q, problem.weight)
    est = _loss((problem.model_p, problem.model_q), problem.weight, problem.n, None,
                MONTE_CARLO, replicates, seed, ref)
    return SimReport(est.value, est.std_error, est.exponent_estimate,
                     ref.d_c_w, problem.n, replicates, seed, est.method)


def convergence_rows(model_p, model_q, weight, ns, replicates, seed=0):
    """(n, exponent_estimate, d_c_w) triples for convergence tables."""
    ref = chernoff(model_p, model_q, weight)
    rows = []
    for n in ns:
        n = BinaryTestProblem(model_p, model_q, weight, n).n
        est = _loss((model_p, model_q), weight, n, None, MONTE_CARLO, replicates, seed, ref)
        rows.append((n, est.exponent_estimate, ref.d_c_w))
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

    kl_qp = KL(Q||P) is `expfam.weighted_kl` under phi = 1, and sigma2 =
    Var_Q(ln(q/p)) is F''(0) on the phi = 1 curve.  d_bound = sup |ln(q/p)
    - KL(Q||P)| over the support of Q; finite only for categorical models
    (every other built-in family has unbounded log-ratio), in which case the
    tail bound is unavailable.  Where KL(Q||P) is infinite, d_bound and
    sigma2 are inf too.
    """
    p, q = problem.model_p, problem.model_q
    kl = weighted_kl(q, p, ConstWeight())
    d = sigma2 = math.inf
    if math.isfinite(kl):
        sigma2 = AffinityCurve(p, q, ConstWeight()).moments(0.0)[2]
        if isinstance(q, Categorical):
            k = np.flatnonzero(q.probs > 0.0)
            d = float(np.max(np.abs(q.logpdf(k) - p.logpdf(k) - kl)))
    return TiltedLikelihoodStats(kl, d, sigma2, problem.shift)


def cumulants(problem, alpha):
    """(psi_P(alpha), psi_Q(alpha)) of L*/1 at a single coordinate.

    psi_P(alpha) = ln int q^alpha p^(1-alpha) + alpha shift;
    psi_Q(alpha) = ln int q^(alpha+1) p^(-alpha) + alpha shift.
    These satisfy psi_Q(alpha) = psi_P(alpha + 1) - shift where both are
    finite.
    """
    alpha = float(alpha)
    curve, shift = AffinityCurve(problem.model_p, problem.model_q, ConstWeight()), problem.shift

    def psi(at):
        val = curve._log_rho(at)
        return val + alpha * shift if math.isfinite(val) else math.inf

    return psi(1.0 - alpha), psi(-alpha)


_LEGENDRE_SPAN = 20.0


def _legendre(curve, end, s, start, start_moments):
    """(sup, argmax) over alpha in [-20, 20] of alpha s - F(end - alpha).

    With s = r - shift this is I_P(r) at end 1 and I_Q(r) at end 0 (the
    module docstring's psi_P and psi_Q).  The objective is concave; its
    negative is minimised by `newton_minimise`, with F(end - alpha) and its
    slope and curvature from `AffinityCurve.moments`.  The search starts at
    alpha = `start`, where `start_moments` = moments(end - start) is given: the
    rate function starts at F(1/2), whose moments are finite for every
    admissible pair, while those at an end of [0, 1] need not be (ln p/q has
    no mean under a Cauchy q against a Gaussian p).  Only the edge on the
    uphill side is checked: a finite objective still climbing there means
    the supremum is not attained inside.  A point where F is +inf, or its
    moments fail, lies at or past the end of F's domain and moves the
    bracket back toward the start.
    """

    def neg_objective(a):
        try:
            f, slope, curv = curve.moments(end - a) if a != start else start_moments
        except ConvergenceError:
            f = math.inf
        if not math.isfinite(f):
            return math.inf, math.copysign(math.inf, a - start), math.nan
        return f - a * s, -slope - s, curv

    at_start = neg_objective(start)
    if at_start[1] == 0.0:
        return -at_start[0], start
    edge = math.copysign(_LEGENDRE_SPAN, -at_start[1])
    at_edge = neg_objective(edge)
    if math.isfinite(at_edge[0]) and at_edge[1] * at_start[1] > 0.0:
        raise RateInfiniteError("Legendre supremum unbounded on [-20, 20]")
    alpha, (value, _, _), _ = newton_minimise(neg_objective, start, at_start, edge)
    return -value, alpha


def rate_function(problem, r):
    """(I_P(r), I_Q(r)) by concave maximisation of the Legendre objective.

    Both transforms are computed independently, each from its own
    cumulant; they are linked by I_Q(r) = I_P(r) - r + shift, and I_P(0)
    is the tilted-likelihood Chernoff exponent.
    """
    curve = AffinityCurve(problem.model_p, problem.model_q, ConstWeight())
    s, half = float(r) - problem.shift, curve.moments(0.5)
    return _legendre(curve, 1.0, s, 0.5, half)[0], _legendre(curve, 0.0, s, -0.5, half)[0]


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
    n = _sample_size(n)
    stats = tilted_stats(problem) if isinstance(problem.model_q, Categorical) else None
    if stats is None or not math.isfinite(stats.d_bound):
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
    return min(math.exp(-n * bernoulli_kl(a, b)), 1.0)


def _tail_tilt(problem, stat, s):
    """(a, F(a) + a s): a = -alpha for the maximiser alpha of I_Q = sup alpha s - F(-alpha).

    The solve starts at alpha = 0, where moments(0) = (0, -KL(Q||P), Var_Q ln q/p).  It is
    (0, 0), the draws staying under Q, where the event is not rare (s <= KL(Q||P)), where T
    has no member, where the supremum is not attained, and, with no solve, where KL(Q||P) =
    inf: F is +inf at every a < 0.  Only counts can have that, Q putting mass on a symbol
    that P lacks; F(0) = ln Q(p > 0) does not tell, as it can round below 0 at full support.
    """
    if stat.member is None or (isinstance(stat, _CountStatistic) and np.any(
            np.isneginf(stat.log_probs[0]) & (stat.log_probs[1] > -np.inf))):
        return 0.0, 0.0
    curve = AffinityCurve(problem.model_p, problem.model_q, ConstWeight())
    at_q = curve.moments(0.0)
    if not s > -at_q[1]:
        return 0.0, 0.0
    try:
        value, alpha = _legendre(curve, 0.0, s, 0.0, at_q)
    except RateInfiniteError:
        return 0.0, 0.0
    return (-alpha, -value) if alpha else (0.0, 0.0)


def tail_frequency(problem, beta, n, replicates, seed=0):
    """P_Q(L* >= beta n) and its standard error, drawn on the phi = 1 curve.

    L* >= beta n is d >= n s for d = ln q^n - ln p^n and s = beta - shift.  T is drawn
    under the member g = p^a q^(1-a) / rho(a)^n at the a <= 0 of `_tail_tilt`, where
    dQ/dg = e^(n F(a) + a d), so P = e^(n (F(a) + a s)) E_g[exp(a (d - n s)) 1{d >= n s}]
    and each score is at most 1 (references in the module docstring).  Unbiased at any
    a; at a = 0 it is the frequency of the event under Q, drawn on stream 2.
    """
    n = _sample_size(n)
    if replicates < 1000:
        raise PreconditionError("monte carlo needs replicates >= 1000")
    pair = (problem.model_p, problem.model_q)
    stat = _statistic(pair, ConstWeight(), n)
    shift = problem.shift
    s = float(beta) - shift
    a, log_factor = _tail_tilt(problem, stat, s)
    if a:  # a Poisson member at a < 0 has its mean past the models'
        stat = _statistic(pair, ConstWeight(), n, reach=a)

    def score(t):
        with np.errstate(invalid="ignore"):  # nan on a state off both supports, which has no mass
            d = stat.log_lik(1, t) - stat.log_lik(0, t)
        hit = d + n * shift >= float(beta) * n
        if not a:  # untilted: each hit scores 1, also where d = +inf
            return hit.astype(float)
        return np.exp(a * (d - n * s), out=np.zeros(hit.size), where=hit)

    mean, var = _mc_mean(stat, stat.member(a) if a else problem.model_q, replicates, seed, 2,
                         score)
    factor = math.exp(n * log_factor)
    return factor * mean, factor * math.sqrt(var / replicates)
