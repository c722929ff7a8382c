"""Adaptive 21-point Gauss-Kronrod quadrature, vectorised over intervals.

`quad(integrand, edges, epsabs, epsrel, limit)` integrates over the pieces
between consecutive `edges`; the first may be -inf and the last +inf, and
every piece needs one finite end.  Each pass evaluates every node of every
open interval of every piece in one call `integrand(x, log_jac)`, which
must return f(x) * e^log_jac at the array x.  `log_jac` is 0 on finite
pieces.  An infinite piece [c, inf) is mapped to t in [0, 1) by
x = c + t/(1 - t), and (-inf, c] by x = c - t/(1 - t); there `log_jac` is
the log-Jacobian -2 ln(1 - t), so that a log-domain integrand adds it to
its exponent and a vanishing density never meets a growing Jacobian as
0 * inf.

Starting intervals: 8 equal ones on a finite piece; on an infinite piece,
breaks at t = 1 - 2^-k for k = 0..7 and t = 1, which put x at 0, 1, 3,
7, ..., 127 from c, so that a tail decaying on the unit scale is resolved
in the first pass.  The rule and its error estimate are QUADPACK's qk21
(Piessens et al., QUADPACK, Springer 1983; public domain).  While the
summed error exceeds max(epsabs, epsrel * |integral|), the intervals
carrying the largest errors are bisected, all in one pass, until the
errors left on the others sum to at most half that tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError

# Kronrod nodes on [-1, 1]; the Gauss nodes are every other one from the second
_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_X = np.concatenate([-_X, [0.0], _X[::-1]])
_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WK = np.concatenate([_WK, [0.149445554002916905664936468389821], _WK[::-1]])
_G = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_WG = np.zeros(21)
_WG[1:10:2], _WG[11::2] = _G, _G[::-1]
_W = np.column_stack([_WK, _WG])
_EPS50 = 50.0 * np.finfo(float).eps

_START = 8
_LINEAR_BREAKS = np.linspace(0.0, 1.0, _START + 1)
_TAIL_BREAKS = np.append(1.0 - 2.0 ** -np.arange(_START), 1.0)


def _qk21(integrand, lo, hi, coef):
    """(integral, QUADPACK error estimate) of the integrand on each interval [lo, hi].

    Row (c, s, k, piece) of `coef` maps t to x = c + s t / (1 - k t): the
    identity on a finite piece (0, 1, 0), a tail with k = 1 and s = +-1.
    """
    half = 0.5 * (hi - lo)
    t = (lo + half)[:, None] + half[:, None] * _X
    kt = coef[:, 2, None] * t
    x = coef[:, 0, None] + coef[:, 1, None] * t / (1.0 - kt)
    v = integrand(x.ravel(), -2.0 * np.log1p(-kt.ravel())).reshape(t.shape)
    kronrod, gauss = (v @ _W).T
    resasc = np.abs(v - 0.5 * kronrod[:, None]) @ _WK
    # where resasc is 0 the integrand is constant and fmin drops the nan of 0/0
    err = resasc * np.fmin(1.0, (200.0 * np.abs(kronrod - gauss) / resasc) ** 1.5)
    return half * kronrod, half * np.maximum(err, _EPS50 * (np.abs(v) @ _WK))


def _start(edges):
    """Starting intervals in the integration variable and each one's `coef` row."""
    breaks, coef = [], []
    for i, (left, right) in enumerate(zip(edges[:-1], edges[1:])):
        if right == math.inf:
            breaks.append(_TAIL_BREAKS)
            coef.append((left, 1.0, 1.0, i))
        elif left == -math.inf:
            breaks.append(_TAIL_BREAKS)
            coef.append((right, -1.0, 1.0, i))
        else:
            breaks.append(left + (right - left) * _LINEAR_BREAKS)
            coef.append((0.0, 1.0, 0.0, i))
    breaks = np.array(breaks)
    return breaks[:, :-1].ravel(), breaks[:, 1:].ravel(), np.repeat(coef, _START, axis=0)


def quad(integrand, edges, epsabs, epsrel, limit):
    """(integral, error estimate) over the pieces between consecutive edges.

    Raises ConvergenceError when a piece needs more than `limit`
    intervals.  A non-finite integral or error is returned as it is, for
    the caller to judge.
    """
    lo, hi, coef = _start(edges)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res, err = _qk21(integrand, lo, hi, coef)
        while True:
            total, errsum = float(res.sum()), float(err.sum())
            tol = max(epsabs, epsrel * abs(total))
            if errsum <= tol or not math.isfinite(errsum):
                return total, errsum
            order = np.argsort(err)[::-1]
            n = np.count_nonzero(errsum - np.cumsum(err[order]) > 0.5 * tol) + 1
            split, keep = order[:n], order[n:]
            mid = 0.5 * (lo[split] + hi[split])
            lo = np.concatenate([lo[keep], lo[split], mid])
            hi = np.concatenate([hi[keep], mid, hi[split]])
            coef = np.concatenate([coef[keep], coef[split], coef[split]])
            if np.bincount(coef[:, 3].astype(int)).max() > limit:
                raise ConvergenceError(
                    f"quadrature did not converge: more than {limit} intervals on one piece",
                    achieved=errsum)
            r, e = _qk21(integrand, lo[keep.size:], hi[keep.size:], coef[keep.size:])
            res, err = np.concatenate([res[keep], r]), np.concatenate([err[keep], e])
