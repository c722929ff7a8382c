"""Reference values computed apart from the package, with numpy and scipy.

Models and weights arrive as the package's JSON specs (see workloads.py).
Nothing here imports wchernoff.

- ln rho(alpha): closed forms for Poisson, Exponential and Gaussian pairs
  (the Gaussian one as a Gaussian integral in any dimension), a log-sum
  for categorical pairs and scipy quadrature of scipy.stats densities for
  every other continuous pair.  The Chernoff optimum is a bounded 1-D
  minimisation of that function, compared with both endpoints.
- Cauchy affinity at alpha=1/2 through scipy.special.ellipk.
- Optimal total loss L_n* through the sufficient statistic S = sum x_i:
  Poi(n lam), Gamma(n, rate) or N(n mu, n sigma^2) laws, summed or
  integrated in the log domain; categorical pairs through a multinomial
  sum over count vectors, which is a binomial sum for two symbols.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import integrate, optimize, special, stats


def _gamma(w):
    """Scalar exponential tilt of a weight spec (0 for the constant weight)."""
    if w["kind"] == "const":
        return 0.0
    if w["kind"] == "exp_tilt":
        g = np.atleast_1d(np.asarray(w["gamma"], dtype=float))
        return float(g[0]) if g.size == 1 else g
    raise ValueError(f"weight {w['kind']} has no exponential tilt")


def _gauss(m):
    return np.asarray(m["mean"], dtype=float), np.asarray(m["cov"], dtype=float)


def logpdf(m, x):
    """Log density of a 1-D model from scipy.stats."""
    fam = m["family"]
    if fam == "poisson":
        return stats.poisson.logpmf(x, m["lambda"])
    if fam == "exponential":
        return stats.expon.logpdf(x, scale=1.0 / m["rate"])
    if fam == "cauchy":
        return stats.cauchy.logpdf(x, loc=m["location"], scale=m["scale"])
    if fam == "gaussian":
        mean, cov = _gauss(m)
        return stats.norm.logpdf(x, loc=mean[0], scale=math.sqrt(cov[0, 0]))
    if fam == "categorical":
        return np.log(np.asarray(m["probs"], dtype=float))[np.asarray(x, dtype=int)]
    raise ValueError(f"unknown family {fam}")


def log_weight(w, x):
    if w["kind"] == "const":
        return np.zeros_like(np.asarray(x, dtype=float))
    if w["kind"] == "exp_tilt":
        return _gamma(w) * np.asarray(x, dtype=float)
    return np.log(np.asarray(w["values"], dtype=float))[np.asarray(x, dtype=int)]


def _location(m):
    fam = m["family"]
    if fam == "gaussian":
        return float(m["mean"][0])
    if fam == "cauchy":
        return float(m["location"])
    return 1.0 / m["rate"]


def _integrate(f, p, q):
    """Integral of f over the common support of p and q, split at their locations."""
    lo = 0.0 if "exponential" in (p["family"], q["family"]) else -math.inf
    cuts = sorted(c for c in {_location(p), _location(q)} if c > lo)
    edges = [lo] + cuts + [math.inf]
    return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=500)[0]
               for a, b in zip(edges[:-1], edges[1:]))


def _gaussian_log_rho(p, q, gamma, a):
    """ln of the Gaussian integral of phi p^a q^(1-a) in any dimension."""
    m1, s1 = _gauss(p)
    m2, s2 = _gauss(q)
    d = m1.size
    g = np.zeros(d) if np.isscalar(gamma) and gamma == 0.0 else np.atleast_1d(gamma)
    i1, i2 = np.linalg.inv(s1), np.linalg.inv(s2)
    prec = a * i1 + (1.0 - a) * i2
    lin = a * i1 @ m1 + (1.0 - a) * i2 @ m2 + g
    const = (-0.5 * a * (np.linalg.slogdet(s1)[1] + m1 @ i1 @ m1)
             - 0.5 * (1.0 - a) * (np.linalg.slogdet(s2)[1] + m2 @ i2 @ m2))
    return float(const - 0.5 * np.linalg.slogdet(prec)[1]
                 + 0.5 * lin @ np.linalg.solve(prec, lin))


def log_rho(p, q, w, a):
    """ln of integral phi p^a q^(1-a) over the common support."""
    fp, fq = p["family"], q["family"]
    if fp == fq == "poisson":
        g, lp, lq = _gamma(w), p["lambda"], q["lambda"]
        return -a * lp - (1.0 - a) * lq + math.exp(g) * lp ** a * lq ** (1.0 - a)
    if fp == fq == "exponential":
        g, rp, rq = _gamma(w), p["rate"], q["rate"]
        mix = a * rp + (1.0 - a) * rq - g
        if mix <= 0.0:
            return math.inf
        return a * math.log(rp) + (1.0 - a) * math.log(rq) - math.log(mix)
    if fp == fq == "gaussian":
        return _gaussian_log_rho(p, q, _gamma(w), a)
    if fp == fq == "categorical":
        k = np.arange(len(p["probs"]))
        return float(special.logsumexp(log_weight(w, k) + a * logpdf(p, k)
                                       + (1.0 - a) * logpdf(q, k)))

    def f(x):
        return math.exp(float(log_weight(w, x) + a * logpdf(p, x) + (1.0 - a) * logpdf(q, x)))

    return math.log(_integrate(f, p, q))


def chernoff(p, q, w):
    """(alpha*, D_C^w, min ln rho) by bounded minimisation over [0, 1]."""

    def f(a):
        return log_rho(p, q, w, a)

    res = optimize.minimize_scalar(f, bounds=(0.0, 1.0), method="bounded",
                                   options={"xatol": 1e-12})
    best = min([(res.fun, float(res.x)), (f(0.0), 0.0), (f(1.0), 1.0)])
    return best[1], -best[0], best[0]


def cauchy_rho_half(p, q):
    """rho_{1/2} of two Cauchy laws through the complete elliptic integral K(m)."""
    s1, s2 = p["scale"], q["scale"]
    d2 = (p["location"] - q["location"]) ** 2
    denom2 = (s1 + s2) ** 2 + d2
    m = ((s1 - s2) ** 2 + d2) / denom2
    return 4.0 * math.sqrt(s1 * s2) / (math.pi * math.sqrt(denom2)) * special.ellipk(m)


def weighted_kl(p, q, w):
    """Integral of phi p ln(p/q)."""
    if p["family"] == "categorical":
        k = np.arange(len(p["probs"]))
        lp, lq = logpdf(p, k), logpdf(q, k)
        return float(np.sum(np.exp(log_weight(w, k) + lp) * (lp - lq)))

    def f(x):
        lp = float(logpdf(p, x))
        return math.exp(float(log_weight(w, x)) + lp) * (lp - float(logpdf(q, x)))

    return _integrate(f, p, q)


# ---------------------------------------------------------------------------
# Optimal total loss
# ---------------------------------------------------------------------------


def _poisson_loss(lp, lq, g, n):
    mp, mq = n * lp, n * lq
    top = max(mp, mq) * math.exp(max(g, 0.0))
    s = np.arange(int(math.ceil(top + 40.0 * math.sqrt(top) + 200.0)))
    logs = g * s + np.minimum(stats.poisson.logpmf(s, mp), stats.poisson.logpmf(s, mq))
    return float(np.exp(special.logsumexp(logs)))


def _exponential_loss(rp, rq, g, n):
    # e^{g s} Gamma(n, r)(s) = (r / (r - g))^n Gamma(n, r - g)(s); the
    # densities cross once, at s0, and the faster rate is smaller beyond it
    s0 = n * math.log(rp / rq) / (rp - rq)
    fast, slow = (rp, rq) if rp > rq else (rq, rp)
    log_fast = n * math.log(fast / (fast - g)) + stats.gamma.logsf(s0, n, scale=1.0 / (fast - g))
    log_slow = n * math.log(slow / (slow - g)) + stats.gamma.logcdf(s0, n, scale=1.0 / (slow - g))
    return float(np.exp(np.logaddexp(log_fast, log_slow)))


def _gaussian_loss(mp, mq, var, g, n):
    # e^{g s} N(n mu, n var)(s) = e^{n (g mu + g^2 var / 2)} N(n (mu + g var), n var)(s);
    # the densities cross at the midpoint of the two means
    s0, sd = 0.5 * n * (mp + mq), math.sqrt(n * var)
    hi, lo = (mp, mq) if mp > mq else (mq, mp)

    def log_mass(mu, upper):
        z = (s0 - n * (mu + g * var)) / sd
        tail = stats.norm.logsf(z) if upper else stats.norm.logcdf(z)
        return n * (g * mu + 0.5 * g * g * var) + tail

    return float(np.exp(np.logaddexp(log_mass(hi, False), log_mass(lo, True))))


def compositions(n, k):
    """All count vectors of n draws from k symbols (stars and bars)."""
    bars = np.array(list(itertools.combinations(range(n + k - 1), k - 1)), dtype=np.int64)
    bars = bars.reshape(-1, k - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars,
                       np.full((bars.shape[0], 1), n + k - 1)])
    return np.diff(edges, axis=1) - 1


def _categorical_terms(models, w, n):
    """log(multinomial coefficient * phi) and log p_i^n for every count vector."""
    k = len(models[0]["probs"])
    counts = compositions(n, k)
    base = (special.gammaln(n + 1.0) - special.gammaln(counts + 1.0).sum(axis=1)
            + counts @ log_weight(w, np.arange(k)))
    return base, [counts @ np.log(np.asarray(m["probs"], dtype=float)) for m in models]


def optimal_loss(p, q, w, n):
    """L_n* = sum or integral of phi^n min(p^n, q^n) over the product space."""
    fam = p["family"]
    if fam == "categorical":
        base, (lp, lq) = _categorical_terms([p, q], w, n)
        return float(np.exp(special.logsumexp(base + np.minimum(lp, lq))))
    g = _gamma(w)
    if fam == "poisson":
        return _poisson_loss(p["lambda"], q["lambda"], g, n)
    if fam == "exponential":
        return _exponential_loss(p["rate"], q["rate"], g, n)
    (mp,), cp = _gauss(p)
    (mq,), _ = _gauss(q)
    return _gaussian_loss(mp, mq, float(cp[0, 0]), g, n)


def weighted_tv(p, q, w, n):
    """Half the phi-weighted L1 distance of the n-fold products (categorical)."""
    base, (lp, lq) = _categorical_terms([p, q], w, n)
    return float(0.5 * np.sum(np.abs(np.exp(base + lp) - np.exp(base + lq))))


def mary_poisson_loss(models, n):
    """Sum over S of (sum_i P_i(S) - max_i P_i(S)) for Poisson models."""
    lams = np.array([m["lambda"] for m in models])
    top = n * lams.max()
    s = np.arange(int(math.ceil(top + 40.0 * math.sqrt(top) + 200.0)))
    dens = stats.poisson.pmf(s[None, :], n * lams[:, None])
    return float(np.sum(dens.sum(axis=0) - dens.max(axis=0)))


# ---------------------------------------------------------------------------
# Tilted log-likelihood: tails, moments, cumulants, rate functions
# ---------------------------------------------------------------------------


def bernoulli_tail(p, q, beta, n):
    """P_Q(sum ln(q/p)(x_i) >= beta n) for two-symbol models, by a binomial sum."""
    (p0, p1), (q0, q1) = p["probs"], q["probs"]
    k = np.arange(n + 1)
    llr = k * math.log(q1 / p1) + (n - k) * math.log(q0 / p0)
    return float(stats.binom.pmf(k[llr >= beta * n], n, q1).sum())


def tilted_moments(p, q):
    """(KL(Q||P), sup |ln(q/p) - KL|, Var_Q ln(q/p)) for categorical models."""
    lp, lq = np.log(p["probs"]), np.log(q["probs"])
    qs = np.asarray(q["probs"], dtype=float)
    kl = float(qs @ (lq - lp))
    return kl, float(np.max(np.abs(lq - lp - kl))), float(qs @ (lq - lp - kl) ** 2)


def _log_power_integral(p, q, a, b):
    """ln of integral p^a q^b for a + b = 1, a or b possibly outside [0, 1]."""
    if p["family"] == "categorical":
        k = np.arange(len(p["probs"]))
        return float(special.logsumexp(a * logpdf(p, k) + b * logpdf(q, k)))
    if p["family"] == "exponential":
        mix = a * p["rate"] + b * q["rate"]
        if mix <= 0.0:
            return math.inf
        return a * math.log(p["rate"]) + b * math.log(q["rate"]) - math.log(mix)
    raise ValueError(f"no cumulant oracle for {p['family']}")


def rate_functions(p, q, r):
    """(I_P(r), I_Q(r)): sup over alpha in [-20, 20] of alpha r - psi(alpha).

    psi_P(alpha) = ln int q^alpha p^(1-alpha), psi_Q(alpha) = ln int
    q^(1+alpha) p^(-alpha) (constant weight, so no shift).  Each psi is
    convex, 0 at alpha=0 and +inf past a pole, so the search interval is
    cut at the poles, found by bisection on finiteness.
    """

    def edge(psi, end):
        if math.isfinite(psi(end)):
            return end
        inside, outside = 0.0, end
        for _ in range(200):
            mid = 0.5 * (inside + outside)
            if math.isfinite(psi(mid)):
                inside = mid
            else:
                outside = mid
        return inside

    def sup(psi):
        res = optimize.minimize_scalar(lambda a: psi(a) - a * r,
                                       bounds=(edge(psi, -20.0), edge(psi, 20.0)),
                                       method="bounded", options={"xatol": 1e-12})
        return -float(res.fun)

    i_p = sup(lambda a: _log_power_integral(p, q, 1.0 - a, a))
    i_q = sup(lambda a: _log_power_integral(p, q, -a, 1.0 + a))
    return i_p, i_q
