"""Checks of the package's outputs against oracles.py and method properties.

`problems(task, out)` returns a list of what is wrong with one output;
an empty list means the output passed.  `shows_fault(task, out)` tells
whether a failing output is the known fault its task declares.
`rse(task, out)` returns the relative standard error a Monte Carlo output
reports, or None for closed-form, quadrature and exact outputs.

Properties checked besides the oracle values:
- alpha* lies in [0, 1] and the oracle's ln rho at the package's alpha*
  is no more than the oracle's minimum plus a tolerance;
- L_n* <= exp(-n D_C^w), for Monte Carlo estimates after subtracting 4 SE;
- a Monte Carlo estimate has SE > 0 and lies within 4 SE of its oracle;
- I_Q(r) = I_P(r) - r + shift (shift is 0 under the constant weight);
- identity residuals are at most 1e-10;
- the tail bound is no smaller than the exact tail probability;
- the curve command prints its header and exactly --grid rows.
"""

from __future__ import annotations

import functools
import json
import math

import oracles

ALPHA_TOL = 1e-5
D_TOL = 1e-8
RATE_TOL = 1e-7
EXACT_RTOL = 1e-9
IDENTITY_TOL = 1e-10
MC_SIGMAS = 4.0


def _key(*args):
    return json.dumps(args, sort_keys=True)


@functools.lru_cache(maxsize=None)
def _chernoff(key):
    return oracles.chernoff(*json.loads(key))


def chernoff_oracle(p, q, w):
    """(alpha*, D, min ln rho), cached because several checks share a pair."""
    return _chernoff(_key(p, q, w))


def _close(x, ref, rtol, atol=0.0):
    return x is not None and math.isfinite(x) and abs(x - ref) <= atol + rtol * abs(ref)


def _check_chernoff(a, out):
    p, q, w = a["p"], a["q"], a["w"]
    alpha_o, d_o, fmin = chernoff_oracle(p, q, w)
    alpha, d = out["alpha_star"], out["d_c_w"]
    bad = []
    if not 0.0 <= alpha <= 1.0:
        bad.append(f"alpha*={alpha} outside [0, 1]")
        return bad
    if oracles.log_rho(p, q, w, alpha) > fmin + D_TOL * (1.0 + abs(fmin)):
        bad.append(f"ln rho({alpha}) above the oracle minimum {fmin} (alpha {alpha_o})")
    if not _close(d, d_o, D_TOL, D_TOL):
        bad.append(f"D={d}, oracle {d_o}")
    if abs(alpha - alpha_o) > ALPHA_TOL:
        bad.append(f"alpha*={alpha}, oracle {alpha_o}")
    return bad


def _check_mc(value, se, ref, what):
    if not se > 0.0:
        return [f"{what}: std_error={se} (value {value}, oracle {ref})"]
    if abs(value - ref) > MC_SIGMAS * se:
        return [f"{what}: {value} is {abs(value - ref) / se:.1f} SE from oracle {ref}"]
    return []


def _check_bound(value, n, d, what):
    """L_n* <= exp(-n D); `value` already has 4 SE taken off for estimates."""
    bound = math.exp(-n * d)
    if value > bound * (1.0 + 1e-12):
        return [f"{what}: loss {value} above exp(-n D) = {bound}"]
    return []


def _check_loss_estimate(a, value, se, what):
    bad = _check_mc(value, se, oracles.optimal_loss(a["p"], a["q"], a["w"], a["n"]), what)
    d = chernoff_oracle(a["p"], a["q"], a["w"])[1]
    return bad + _check_bound(value - MC_SIGMAS * se, a["n"], d, what)


def _check_rate(a, out):
    i_p, i_q = out
    o_p, o_q = oracles.rate_functions(a["p"], a["q"], a["r"])
    bad = []
    if not _close(i_p, o_p, RATE_TOL, RATE_TOL):
        bad.append(f"I_P={i_p}, oracle {o_p}")
    if not _close(i_q, o_q, RATE_TOL, RATE_TOL):
        bad.append(f"I_Q={i_q}, oracle {o_q}")
    if not _close(i_q, i_p - a["r"], 0.0, RATE_TOL):
        bad.append(f"I_Q={i_q} differs from I_P - r = {i_p - a['r']}")
    return bad


def _check_identities(a, out):
    bad = []
    for name, entry in out["identities"].items():
        if entry["applicable"] and not entry["residual"] <= IDENTITY_TOL:
            bad.append(f"identity {name} residual {entry['residual']}")
    alpha_o = chernoff_oracle(a["p"], a["q"], a["w"])[0]
    if abs(out["alpha_star"] - alpha_o) > ALPHA_TOL:
        bad.append(f"alpha*={out['alpha_star']}, oracle {alpha_o}")
    return bad


def _check_exact(value, ref, what):
    return [] if _close(value, ref, EXACT_RTOL) else [f"{what}: {value}, oracle {ref}"]


def _library(task, out):
    a, call = task["args"], task["call"]
    if call == "chernoff":
        return _check_chernoff(a, out)
    if call == "rate_function":
        return _check_rate(a, out)
    if call == "verify_identities":
        return _check_identities(a, out)
    if call == "weighted_kl":
        return _check_exact(out, oracles.weighted_kl(a["p"], a["q"], a["w"]), "weighted KL")
    if call == "optimal_loss_exact":
        bad = _check_exact(out["value"], oracles.optimal_loss(a["p"], a["q"], a["w"], a["n"]),
                           "L_n*")
        return bad + _check_bound(out["value"], a["n"],
                                  chernoff_oracle(a["p"], a["q"], a["w"])[1], "L_n*")
    if call == "weighted_tv":
        return _check_exact(out, oracles.weighted_tv(a["p"], a["q"], a["w"], a["n"]), "TV_phi")
    if call == "mary_optimal_loss":
        ref = oracles.mary_poisson_loss(a["models"], a["n"])
        if a["method"] == "exact_enumeration":
            return _check_exact(out["value"], ref, "L_n,M*")
        return _check_mc(out["value"], out["std_error"], ref, "L_n,M*")
    if call == "optimal_loss_mc":
        return _check_loss_estimate(a, out["value"], out["std_error"], "L_n*")
    if call == "simulate":
        bad = _check_loss_estimate(a, out["loss"], out["std_error"], "L_n*")
        d_o = chernoff_oracle(a["p"], a["q"], a["w"])[1]
        if not _close(out["d_c_w_reference"], d_o, D_TOL, D_TOL):
            bad.append(f"reference D={out['d_c_w_reference']}, oracle {d_o}")
        return bad
    if call == "tail_frequency":
        freq, se = out
        return _check_mc(freq, se, oracles.bernoulli_tail(a["p"], a["q"], a["beta"], a["n"]),
                         "tail frequency")
    raise ValueError(f"no check for {call}")


def _cli(task, out):
    if out["exit_code"] != 0:
        return [f"exit status {out['exit_code']}"]
    a, name, text = task["args"], task["name"], out["stdout"]
    if name == "curve":
        lines = text.splitlines()
        if lines[:1] != ["alpha,rho_w,d_b_alpha"] or len(lines) != a["grid"] + 1:
            return [f"curve: header {lines[:1]} and {len(lines) - 1} rows, "
                    f"want alpha,rho_w,d_b_alpha and {a['grid']} rows"]
        bad = []
        for line in lines[1:]:
            alpha, rho, d_b = (float(v) for v in line.split(","))
            ref = oracles.log_rho(a["p"], a["q"], a["w"], alpha)
            if not (_close(math.log(rho), ref, EXACT_RTOL, EXACT_RTOL)
                    and _close(d_b, -ref, EXACT_RTOL, EXACT_RTOL)):
                bad.append(f"curve row alpha={alpha}: rho={rho}, oracle {math.exp(ref)}")
        return bad
    res = json.loads(text)["results"]
    if name == "chernoff":
        return _check_chernoff(a, res)
    if name == "divergence":
        kl = oracles.weighted_kl(a["p"], a["q"], a["w"])
        rho = oracles.cauchy_rho_half(a["p"], a["q"])
        return (_check_exact(res["weighted_kl"], kl, "weighted KL")
                + _check_exact(res["cauchy_kl"], kl, "cauchy_kl")
                + _check_exact(res["cauchy_rho_half"], rho, "cauchy_rho_half")
                + _check_exact(res["cauchy_d_c"], -math.log(rho), "cauchy_d_c"))
    if name == "simulate":
        bad, d_o = [], chernoff_oracle(a["p"], a["q"], a["w"])[1]
        for rep in res["reports"]:
            sub = dict(a, n=rep["n"])
            bad += _check_loss_estimate(sub, rep["loss"], rep["std_error"], f"n={rep['n']}")
            if not _close(rep["d_c_w_reference"], d_o, D_TOL, D_TOL):
                bad.append(f"reference D={rep['d_c_w_reference']}, oracle {d_o}")
        return bad
    if name == "mary":
        models, bad = a["models"], []
        ds = {}
        for i in range(len(models)):
            for j in range(i + 1, len(models)):
                ds[(i, j)] = chernoff_oracle(models[i], models[j], a["w"])[1]
                if not _close(res["matrix"][i][j], ds[(i, j)], D_TOL, D_TOL):
                    bad.append(f"matrix[{i}][{j}]={res['matrix'][i][j]}, oracle {ds[(i, j)]}")
        if not _close(res["c_m_w"], min(ds.values()), D_TOL, D_TOL):
            bad.append(f"C_M={res['c_m_w']}, oracle {min(ds.values())}")
        return bad
    if name == "tailbound":
        tail = oracles.bernoulli_tail(a["p"], a["q"], res["beta"], res["n"])
        bad = _check_mc(res["empirical_frequency"], res["std_error"], tail, "tail frequency")
        if res["bound"] < tail * (1.0 - 1e-12):
            bad.append(f"tail bound {res['bound']} below the exact tail {tail}")
        for key, ref in zip(("kl_qp", "d_bound", "sigma2"), oracles.tilted_moments(a["p"], a["q"])):
            bad += _check_exact(res[key], ref, key)
        return bad
    if name == "identities":
        return _check_identities(a, res)
    raise ValueError(f"no check for command {name}")


def problems(task, out):
    """What is wrong with one output; [] when it passes every check."""
    if isinstance(out, dict) and "error" in out:
        return [f"raised {out['error']}"]
    try:
        return (_cli if task["call"] == "cli" else _library)(task, out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"output not understood: {type(exc).__name__}: {exc}"]


def shows_fault(task, out):
    """True when `out` has exactly the field values of its task's known fault."""
    fault = task["fault"]
    return (fault is not None and isinstance(out, dict)
            and all(out.get(k) == v for k, v in fault.items()))


def rse(task, out):
    """Relative standard error reported by a Monte Carlo output, else None."""
    pairs = []
    if task["call"] in ("optimal_loss_mc", "mary_optimal_loss"):
        pairs = [(out.get("std_error", 0.0), out.get("value", 0.0))]
    elif task["call"] == "simulate":
        pairs = [(out["std_error"], out["loss"])]
    elif task["call"] == "tail_frequency":
        pairs = [(out[1], out[0])]
    elif task["call"] == "cli" and out.get("exit_code") == 0 and task["name"] in (
            "simulate", "tailbound"):
        res = json.loads(out["stdout"])["results"]
        reports = res.get("reports", [res]) if task["name"] == "simulate" else [res]
        key = "loss" if task["name"] == "simulate" else "empirical_frequency"
        pairs = [(r["std_error"], r[key]) for r in reports]
    ratios = [se / v for se, v in pairs if se > 0.0 and v > 0.0]
    return max(ratios) if ratios and len(ratios) == len(pairs) else None
