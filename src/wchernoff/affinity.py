"""Weighted Bhattacharyya affinities and weighted Chernoff information.

The central object is the log-affinity curve F(alpha) = ln of

    rho_w(alpha) = integral phi * p^alpha * q^(1-alpha) d(reference),

which is convex on [0, 1] with F(1) = ln E_phi(p) and F(0) = ln E_phi(q);
`log_weighted_normaliser(m, w)` is F(1) of m's curve against itself.
The weighted Chernoff information is -min F over [0, 1]; the minimiser is
the optimal skewing parameter alpha*.  Closed forms are used for
Gaussian/Poisson/Exponential pairs under constant or exponential-tilt
weights, read off the exponential-family embedding where the pair has one,
else coordinate by coordinate where p = N(0, I) and q's covariance is
diagonal (see `AffinityCurve`).  Two Cauchy laws have F(alpha) =
F(1 - alpha) (Nielsen and Okamura, 2021): alpha* = 1/2 and D = -ln rho_{1/2}
in closed form (`cauchy_bhattacharyya_half`).  Everything else goes to the
generic solver: Newton's method on F', safeguarded by bisection (rtsafe).
F' and F'' are the mean and the variance of ln p/q under the normalised
(pq)_alpha, so every step takes F, F' and F'' from one evaluation: a
closed form, or one pass of the generic integral.  The bracket and the
boundary cases are taken just inside the endpoints of [0, 1], where F' is
finite even when the tilted mean of ln p/q at an endpoint is not.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _numeric
from .errors import (
    ConvergenceError,
    NonIntegrableWeightError,
    PreconditionError,
    UnsupportedCombinationError,
)
from .models import (
    Cauchy,
    Gaussian,
    _is_const,
    check_models,
    embed_pair,
    exp_or_raise,
    tilt_gamma,
)

__all__ = [
    "AffinityCurve",
    "ChernoffResult",
    "TiltedDensity",
    "log_weighted_normaliser",
    "weighted_normaliser",
    "rho_w",
    "weighted_bhattacharyya",
    "chernoff",
    "log_mean",
    "elliptic_k",
    "cauchy_kl",
    "cauchy_bhattacharyya_half",
    "INTERIOR",
    "AT_ZERO",
    "AT_ONE",
    "FLAT",
]

INTERIOR = "interior"
AT_ZERO = "at_zero"
AT_ONE = "at_one"
FLAT = "flat"

FLAT_TOL = 1e-12
# the generic solver works on [EDGE, 1 - EDGE]: a minimiser closer to an
# endpoint is reported at the endpoint or at the edge point, whichever has
# the lower F, so alpha* is exact to EDGE and D to about F'' EDGE^2
EDGE = 1e-6
# Newton stops when its next step would be shorter than XTOL
XTOL = 2e-12
MAX_STEPS = 100


def log_mean(a, b):
    """Logarithmic mean L(a, b) = (a - b)/(ln a - ln b), L(a, a) = a."""
    a, b = float(a), float(b)
    if a <= 0.0 or b <= 0.0:
        raise PreconditionError("log_mean requires strictly positive arguments")
    if a == b:
        return a
    d = math.log(a) - math.log(b)
    if abs(d) < 0.5:  # a - b is exact here, and ln a - ln b may round to 0
        d = math.log1p((a - b) / b)
    return (a - b) / d


def _agm(a, g):
    """Arithmetic-geometric mean of a >= g >= 0."""
    # quadratic convergence: far fewer than 60 rounds reach 1 ulp, where
    # the iteration stalls, so stop on non-improvement as well
    for _ in range(60):
        if abs(a - g) <= 2.0 * np.finfo(float).eps * a:
            break
        a, g = 0.5 * (a + g), math.sqrt(a * g)
    return a


def elliptic_k(m):
    """Complete elliptic integral K(m), parameterised by m = modulus^2.

    K(m) = integral_0^{pi/2} (1 - m sin^2 u)^{-1/2} du, computed as
    pi / (2 AGM(1, sqrt(1-m))).  Note the argument is m, not the modulus k
    of the K(k) convention.
    """
    m = float(m)
    if not (0.0 <= m < 1.0):
        raise PreconditionError("elliptic_k requires 0 <= m < 1")
    return math.pi / (2.0 * _agm(1.0, math.sqrt(1.0 - m)))


def _cauchy_spread(p, q):
    """(h, g) = (hypot(s1/2 - s2/2, l1/2 - l2/2), sqrt(s1) sqrt(s2)) of two Cauchy laws:
    (h/g)^2 = ((s1 - s2)^2 + (l1 - l2)^2)/(4 s1 s2), from halved terms that do not overflow."""
    if not (isinstance(p, Cauchy) and isinstance(q, Cauchy)):
        raise PreconditionError("the Cauchy closed forms require two Cauchy models")
    return (math.hypot(p.scale / 2.0 - q.scale / 2.0, p.location / 2.0 - q.location / 2.0),
            math.sqrt(p.scale) * math.sqrt(q.scale))


def cauchy_kl(p, q):
    """KL divergence between Cauchy laws: log1p((h/g)^2), in logs from h >= 1e150 g."""
    h, g = _cauchy_spread(p, q)
    if h < 1e150 * g:
        return math.log1p((h / g) * (h / g))
    return 2.0 * (math.log(h) - math.log(g))


def cauchy_bhattacharyya_half(p, q, weight=None):
    """rho_{1/2} for two Cauchy laws at phi == 1; ConvergenceError where it underflows a double.

    Closed form k' / AGM(1, k') = 2 k' K(1 - k'^2) / pi in the complementary modulus
    k' = g / hypot(g, h) <= 1 of `_cauchy_spread`, which unlike 1 - k'^2 does not round
    to 1 far apart and is 1 for equal laws.  -ln of it is the Cauchy Chernoff information
    (alpha* = 1/2 by symmetry); non-constant weights break that symmetry and are rejected.
    """
    h, g = _cauchy_spread(p, q)
    if weight is not None and not _is_const(weight):
        raise UnsupportedCombinationError(
            "cauchy closed form is only available for the constant weight"
        )
    k = g / math.hypot(g, h)
    rho = k / _agm(1.0, k)
    if rho == 0.0:
        raise ConvergenceError("cauchy rho_1/2 underflows a double")
    return rho


# ---------------------------------------------------------------------------
# The affinity curve
# ---------------------------------------------------------------------------

CLOSED_FORM = "closed_form"
QUADRATURE = "quadrature"
SUMMATION = "summation"


class AffinityCurve:
    """alpha -> ln rho_w(alpha) with derivative access.

    The evaluation mode is chosen automatically: closed form for
    Gaussian/Poisson/Exponential pairs under const/exp-tilt weights, exact
    summation for discrete pairs, adaptive quadrature otherwise.  Pass
    `mode` to force the generic path (used for cross-validation).  The
    constructor rejects an inadmissible pair and weight (`check_models`),
    an unknown mode, and `closed_form` for a pair that has none.

    A pair inside one 1-D exponential family keeps its `embedding`
    (family, theta1, theta2) and reads F(a) = Fhat(theta_a) - a F(theta1) -
    (1-a) F(theta2) off it, +inf where theta_a = a theta1 + (1-a) theta2
    leaves the weighted domain; Fhat(theta) = F(theta + gamma), so
    F''(a) = ((theta1 - theta2) sqrt F''(theta_a + gamma))^2, the square of one
    product that is a double where either factor alone need not be (Exponential
    rates 2s and s at s = 1e160).  Other Gaussian pairs
    are whitened by p and diagonalised by q once, and F is then a sum of
    one-dimensional closed forms, one per coordinate (`_gaussian`).

    `rho` is the one place that exponentiates ln rho.  `_log_rho` and
    `moments` continue the curve past [0, 1] for the cumulants, with
    F = +inf where the integral diverges in closed form.
    """

    def __init__(self, model_p, model_q, weight, mode=None):
        check_models((model_p, model_q), weight)
        self.model_p = model_p
        self.model_q = model_q
        self.weight = weight
        self.embedding = embed_pair(model_p, model_q, weight)
        closed = self.embedding is not None or (
            isinstance(model_p, Gaussian) and isinstance(model_q, Gaussian))
        if mode is None:
            mode = (CLOSED_FORM if closed else SUMMATION
                    if model_p.support in ("finite", "nonneg_int") else QUADRATURE)
        elif mode not in (CLOSED_FORM, QUADRATURE, SUMMATION):
            raise PreconditionError(f"unknown mode '{mode}'")
        elif mode == CLOSED_FORM and not closed:
            raise PreconditionError(
                f"no closed-form curve for {type(model_p).__name__} against"
                f" {type(model_q).__name__} under {type(weight).__name__}")
        self.mode = mode
        self._whitened = None

    # -- evaluation ---------------------------------------------------------

    def log_rho(self, alpha):
        val = self._log_rho(_check_alpha(alpha))
        if val == -math.inf:
            raise ConvergenceError("affinity evaluated to a non-positive value")
        return val

    def _log_rho(self, alpha):
        """ln rho at any real alpha, +inf where a sum diverges."""
        return self._values(alpha, False)[0]

    def rho(self, alpha):
        return exp_or_raise(self.log_rho(alpha), "rho")

    def bhattacharyya(self, alpha):
        return 0.0 - self.log_rho(alpha)  # +0, not -0, where ln rho = +0

    def derivative(self, alpha):
        """F'(alpha): the mean of ln(p/q) under the tilted density (pq)_alpha."""
        return self.moments(_check_alpha(alpha))[1]

    def moments(self, alpha):
        """(F, F', F'') at any real alpha: ln rho, and the mean and variance of
        ln(p/q) under (pq)_alpha.

        The generic modes read all three off one pass of the log-domain
        integral, which stays finite where rho leaves the range of a double,
        and raise ConvergenceError where it diverges.
        """
        return self._values(alpha, True)

    def _values(self, alpha, moments):
        """(F,) or (F, F', F'') at alpha, as `_numeric.weighted_power_integral` returns them."""
        if self.mode != CLOSED_FORM:
            return _numeric.weighted_power_integral(
                self.model_p, self.model_q, self.weight, alpha, moments=moments)
        if self.embedding is None:
            return self._gaussian(alpha, moments)
        fam, t1, t2 = self.embedding
        t = alpha * t1 + (1.0 - alpha) * t2
        if not fam.contains(t):
            # F has a +inf pole past the upper end of the domain (no family
            # has a lower end): the slope takes the sign of d theta_alpha
            return (math.inf, math.copysign(math.inf, t1 - t2), math.inf)[:1 + 2 * moments]
        f = fam.Fhat(t) - alpha * fam.F(t1) - (1.0 - alpha) * fam.F(t2)
        if not moments:
            return (f,)
        root = (t1 - t2) * fam.root_d2F(t + fam.gamma)
        return f, (t1 - t2) * fam.dFhat(t) - fam.F(t1) + fam.F(t2), root * root

    def _gaussian(self, alpha, moments):
        """`_values` of a Gaussian pair, a sum of d one-dimensional closed forms.

        Once per curve, x = mu_p + L U z, with L = chol(Sigma_p) and U diag(lam) U' =
        eigh(L^-1 Sigma_q L^-T), makes p = N(0, I), q = N(m, diag lam) and gamma'x =
        gamma'mu_p + g'z (Fukunaga, 1990, section 2.2).  Under (pq)_alpha z_k is
        N(mu_k, 1/h_k), h = alpha + (1 - alpha)/lam, and F' and F'' are the mean and the
        variance of ln p/q = sum ((z - m)^2/lam - z^2 + ln lam)/2.  F = +inf where h <= 0.
        """
        if self._whitened is None:
            p, q, chol = self.model_p, self.model_q, self.model_p._chol
            lam, u = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, q.cov).T))
            gamma = tilt_gamma(self.weight, p.dim)
            self._whitened = (lam, u.T @ np.linalg.solve(chol, q.mean - p.mean),
                              u.T @ (chol.T @ gamma), float(gamma @ p.mean))
        lam, m, g, shift = self._whitened
        h = alpha + (1.0 - alpha) / lam
        if np.any(h <= 0.0):  # only past [0, 1]
            return (math.inf, math.nan, math.nan)[:1 + 2 * moments]
        mu = ((1.0 - alpha) * m / lam + g) / h
        f = shift + 0.5 * float(np.sum(h * mu * mu - (1.0 - alpha) * (m * m / lam + np.log(lam))
                                       - np.log(h)))
        if not moments:
            return (f,)
        k, grad = (1.0 / lam - 1.0) / h, (mu - m) / lam - mu  # grad: d ln(p/q) / dz at mu
        with np.errstate(over="ignore"):  # an F'' past the largest double reads +inf
            curv = float(np.sum(0.5 * k * k + grad * grad / h))
        return f, 0.5 * float(np.sum((mu - m) * (mu - m) / lam - mu * mu + np.log(lam) + k)), curv


def _check_alpha(alpha):
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise PreconditionError("alpha must lie in [0, 1]")
    return alpha


def log_weighted_normaliser(model, weight):
    """ln E_phi(model): F(1) of the model's affinity curve against itself."""
    check_models((model,), weight)
    if _is_const(weight):
        return 0.0
    return AffinityCurve(model, model, weight)._log_rho(1.0)


def weighted_normaliser(model, weight):
    """E_phi(model) = exp(ln E_phi); ConvergenceError where it overflows a double."""
    return exp_or_raise(log_weighted_normaliser(model, weight), "E_phi")


@dataclass(frozen=True)
class TiltedDensity:
    """Normalised reweighted density phi * p / E_phi(p)."""

    base: object
    weight: object
    normaliser: float = None

    def __post_init__(self):
        if self.normaliser is None:
            object.__setattr__(self, "normaliser", weighted_normaliser(self.base, self.weight))
        if not (self.normaliser > 0.0 and math.isfinite(self.normaliser)):
            raise NonIntegrableWeightError("tilted density requires a finite positive normaliser")

    def log_density(self, x):
        lphi = self.weight.log_value(x)
        return float(lphi) + self.base.log_density(x) - math.log(self.normaliser)


def rho_w(model_p, model_q, weight, alpha, mode=None):
    """Weighted alpha-skewed Bhattacharyya affinity coefficient."""
    return AffinityCurve(model_p, model_q, weight, mode=mode).rho(alpha)


def weighted_bhattacharyya(model_p, model_q, weight, alpha, mode=None):
    """-ln rho_w; may be negative for non-constant weights."""
    return AffinityCurve(model_p, model_q, weight, mode=mode).bhattacharyya(alpha)


# ---------------------------------------------------------------------------
# Chernoff optimisation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChernoffResult:
    alpha_star: float
    d_c_w: float
    boundary: str
    iterations: int
    residual: float

    def __post_init__(self):  # D = -F reads -0.0 where F rounds to +0
        object.__setattr__(self, "d_c_w", self.d_c_w + 0.0)

    def to_dict(self):
        return asdict(self)


def chernoff(model_p, model_q, weight, solver="auto", mode=None):
    """Maximise the weighted Bhattacharyya distance over alpha in [0, 1].

    `solver="auto"` reads the critical point of a family pair (`alpha_tilde`,
    projected onto [0, 1]) and, unless `mode` is forced, of two Cauchy laws:
    F(alpha) = F(1 - alpha) puts it at 1/2, and D = -ln rho_{1/2} takes no
    integral.  Other pairs, and `solver="generic"`, take the safeguarded
    Newton iteration on F' (`_root_find`), which decides the boundary cases
    from values and slopes just inside [0, 1], not from endpoint slopes.
    """
    if solver not in ("auto", "generic"):
        raise PreconditionError(f"unknown solver '{solver}'")
    curve = AffinityCurve(model_p, model_q, weight, mode=mode)
    auto = solver == "auto"
    if auto and mode is None and isinstance(model_p, Cauchy) and isinstance(model_q, Cauchy):
        f = math.log(cauchy_bhattacharyya_half(model_p, model_q, weight))
        return ChernoffResult(0.5, -f, FLAT if abs(f) < FLAT_TOL else INTERIOR, 0, 0.0)
    f0, f1 = curve._log_rho(0.0), curve._log_rho(1.0)
    # +inf endpoints (weight integrable against only one hypothesis) are
    # harmless for a minimiser of F; -inf or nan endpoints are not.
    for f in (f0, f1):
        if math.isnan(f) or f == -math.inf:
            raise PreconditionError("log-affinity is not finite at the endpoints")
    half = curve.moments(0.5)
    fh = half[0]
    # one member of a family has a constant F, whose rounding can still pass FLAT_TOL
    one_member = curve.embedding is not None and curve.embedding[1] == curve.embedding[2]
    if one_member or (math.isfinite(f0) and math.isfinite(f1)
                      and abs(f0 - fh) < FLAT_TOL and abs(f1 - fh) < FLAT_TOL):
        return ChernoffResult(0.5, -fh, FLAT, 0, 0.0)

    if auto and curve.embedding is not None:
        fam, t1, t2 = curve.embedding
        alpha = min(1.0, max(0.0, fam.alpha_tilde(t1, t2)))
        if alpha in (0.0, 1.0):
            return ChernoffResult(alpha, -(f1 if alpha else f0),
                                  AT_ONE if alpha else AT_ZERO, 0, 0.0)
        f, slope, _ = half if alpha == 0.5 else curve.moments(alpha)
        return ChernoffResult(alpha, -f, INTERIOR, 0, abs(slope))
    return _root_find(curve, f0, f1, half)


def _root_find(curve, f0, f1, half):
    """Minimise the convex F by safeguarded Newton on its nondecreasing derivative.

    Starts from `half`, (F, F', F'') at 1/2.  F' is only evaluated inside
    [EDGE, 1 - EDGE]: at an endpoint the tilted mean of ln p/q can be
    infinite (N(0,1) against Cauchy at alpha = 0), and quadrature then
    returns a finite value of either sign.  The sign of F'(1/2) says on
    which side of 1/2 the minimiser lies, so only that side's edge point
    is checked.  `iterations` counts the Newton steps after 1/2.
    """
    f, slope, _ = half
    if slope == 0.0:
        return ChernoffResult(0.5, -f, INTERIOR, 0, 0.0)
    end, f_end, inner = (0.0, f0, EDGE) if slope > 0.0 else (1.0, f1, 1.0 - EDGE)
    at_inner = curve.moments(inner)
    if slope * at_inner[1] >= 0.0:
        # the minimum lies between `end` and `inner`: report the lower of the two
        if f_end <= at_inner[0]:
            return ChernoffResult(end, -f_end, AT_ZERO if end == 0.0 else AT_ONE, 0, 0.0)
        return ChernoffResult(inner, -at_inner[0], INTERIOR, 0, abs(at_inner[1]))
    alpha, (f, slope, _), steps = newton_minimise(curve.moments, 0.5, half, inner)
    return ChernoffResult(alpha, -f, INTERIOR, steps, abs(slope))


def newton_minimise(fn, x, at_x, y):
    """Minimise a convex function between x and y by Newton's method on its slope.

    `fn(t)` gives (F, F', F'') at t, and `at_x` is its value at x; the slope at
    y has the opposite sign to the slope at x.  A point past the end of the
    function's domain has F = +inf and an infinite slope pointing back into it.
    The safeguard is rtsafe's (Press et al., Numerical Recipes, 3rd ed., section
    9.4): a Newton step that leaves the bracket, that is longer than half the
    step before last, or whose F'' is not finite and positive, becomes a
    bisection.  F'' only sets the step; the iteration ends when F' is 0 or the
    next step is shorter than XTOL.  Returns the last point evaluated at which F
    is finite (x if none is), its (F, F', F'') and the number of steps: where
    the minimum sits at a jump of F to +inf, the last point evaluated can lie
    past the jump.  Near the minimum the rise of F is below the noise of a
    quadrature, so the lowest F would be a worse minimiser.
    """
    neg, pos = (x, y) if at_x[1] < 0.0 else (y, x)  # the slope's sign at each end
    t, (f, slope, curv) = best = x, at_x
    step = step_old = abs(y - x)
    for steps in range(MAX_STEPS):
        if slope == 0.0:
            break
        new = t - slope / curv if 0.0 < curv < math.inf else math.nan
        if not min(neg, pos) <= new <= max(neg, pos) or abs(new - t) > 0.5 * step_old:
            new = 0.5 * (neg + pos)
        step_old, step = step, abs(new - t)
        if step < XTOL:
            break
        t = new
        f, slope, curv = fn(t)
        if math.isfinite(f):
            best = t, (f, slope, curv)
        if slope < 0.0:
            neg = t
        else:
            pos = t
    else:
        raise ConvergenceError(f"Newton iteration on F' did not converge in {MAX_STEPS} steps")
    return (*best, steps)
