"""Command-line front-end.

Each command parses model/weight JSON (inline or by file path) and emits a
machine-readable report.  The library rejects an inadmissible model/weight
combination when the problem or curve is built (`models.check_models`),
before anything is computed.  Floats are printed with 17 significant
digits so every value reparses exactly and repeated runs with the same
inputs are byte-identical.

Exit status: 0 success, 2 precondition/validation errors, 3 numerical
non-convergence.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

import click
import numpy as np

from . import __version__, affinity, expfam, testing
from .errors import ConvergenceError, PreconditionError, RateInfiniteError
from .models import (
    Cauchy,
    exp_or_raise,
    model_from_json,
    model_to_json,
    weight_from_json,
    weight_to_json,
)

EXIT_PRECONDITION = 2
EXIT_NONCONVERGENCE = 3


# ---------------------------------------------------------------------------
# Serialisation: floats at 17 significant digits
# ---------------------------------------------------------------------------


def _fmt_float(x):
    if math.isnan(x):
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return format(x, ".17g")


def dumps(obj, indent=2, _level=0):
    """Deterministic JSON with 17-significant-digit floats."""
    pad = " " * (indent * (_level + 1))
    end = " " * (indent * _level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}{json.dumps(str(k))}: {dumps(v, indent, _level + 1)}"
            for k, v in obj.items())
        return "{\n" + items + "\n" + end + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}{dumps(v, indent, _level + 1)}" for v in obj)
        return "[\n" + items + "\n" + end + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return json.dumps(obj)


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _report(command, inputs, results):
    return dumps({
        "command": command,
        "inputs": inputs,
        "results": results,
        "version": __version__,
    }) + "\n"


def _csv(header, rows):
    return "\n".join([header] + [",".join(_fmt_float(v) for v in row) for row in rows]) + "\n"


# ---------------------------------------------------------------------------
# Input parsing and error reporting
# ---------------------------------------------------------------------------


def _load_json(text, what):
    text = text.strip()
    if not (text.startswith("{") or text.startswith("[")):
        if not os.path.exists(text):
            raise PreconditionError(f"{what}: file '{text}' not found")
        with open(text) as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{what}: malformed JSON near line {exc.lineno}, "
                                f"column {exc.colno}: {exc.msg}") from exc


def _parse_weight(text):
    return weight_from_json(None if text is None else _load_json(text, "--weight"))


def _guarded(command):
    """Report a package error as one stderr line and exit 2 or 3."""

    @functools.wraps(command)
    def run(**kwargs):
        try:
            command(**kwargs)
        except PreconditionError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_PRECONDITION)
        except (ConvergenceError, RateInfiniteError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_NONCONVERGENCE)

    return run


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__)
def main():
    """Weighted Chernoff information and context-sensitive testing tools."""


_model_p = click.option("--model-p", "model_p", required=True,
                        help="model JSON (inline or file path)")
_model_q = click.option("--model-q", "model_q", required=True,
                        help="model JSON (inline or file path)")
_weight = click.option("--weight", default=None,
                       help="weight JSON (inline or file path); default const")
_out = click.option("--out", default=None, help="output path (default stdout)")


def _pair_command(name, *options):
    """Register `body(p, q, w, **own_options)` as the command `name`.

    The command takes --model-p, --model-q and --weight, then `options`,
    then --out.  It parses the pair and the weight and emits the report of
    the results the body returns, or the csv text the body returns as it is.
    """
    def register(body):
        @functools.wraps(body)
        def command(model_p, model_q, weight, out, **kwargs):
            p = model_from_json(_load_json(model_p, "--model-p"))
            q = model_from_json(_load_json(model_q, "--model-q"))
            w = _parse_weight(weight)
            results = body(p, q, w, **kwargs)
            if not isinstance(results, str):
                inputs = {"model_p": model_to_json(p), "model_q": model_to_json(q),
                          "weight": weight_to_json(w)}
                results = _report(name, inputs, results)
            _emit(results, out)

        command = _guarded(command)
        for option in reversed([_model_p, _model_q, _weight, *options, _out]):
            command = option(command)
        return main.command(name)(command)

    return register


@_pair_command("chernoff",
               click.option("--solver", default="auto", type=click.Choice(["auto", "generic"])))
def cmd_chernoff(p, q, w, solver):
    """Optimal Chernoff parameter and weighted Chernoff information."""
    return affinity.chernoff(p, q, w, solver=solver).to_dict()


@_pair_command("curve",
               click.option("--grid", default=101, type=int, help="number of alpha points (>= 3)"),
               click.option("--format", "fmt", default="csv", type=click.Choice(["csv", "json"])))
def cmd_curve(p, q, w, grid, fmt):
    """Tabulate (alpha, rho_w, D_B_alpha) over [0, 1]."""
    if grid < 3:
        raise PreconditionError("--grid must be at least 3")
    curve = affinity.AffinityCurve(p, q, w)
    rows = []
    for alpha in np.linspace(0.0, 1.0, grid).tolist():
        log_rho = curve.log_rho(alpha)
        rows.append((alpha, exp_or_raise(log_rho, "rho"), 0.0 - log_rho))
    if fmt == "csv":
        return _csv("alpha,rho_w,d_b_alpha", rows)
    return {"rows": [list(r) for r in rows]}


@_pair_command("divergence",
               click.option("--alpha", default=None, type=float,
                            help="also report rho_w and D_B at this alpha"))
def cmd_divergence(p, q, w, alpha):
    """Weighted KL divergence (plus affinities and Cauchy closed forms)."""
    # the curve checks the weight against both models; the KL needs p's only
    curve = affinity.AffinityCurve(p, q, w)
    results = {"weighted_kl": expfam.weighted_kl(p, q, w)}
    if alpha is not None:
        log_rho = curve.log_rho(alpha)
        results["alpha"] = float(alpha)
        results["rho_w"] = exp_or_raise(log_rho, "rho")
        results["d_b_alpha"] = 0.0 - log_rho
    if isinstance(p, Cauchy) and isinstance(q, Cauchy):
        rho_half = affinity.cauchy_bhattacharyya_half(p, q, w)
        results.update(cauchy_kl=results["weighted_kl"],  # weighted_kl is cauchy_kl here
                       cauchy_rho_half=rho_half, cauchy_d_c=-math.log(rho_half))
    return results


@_pair_command("simulate",
               click.option("--n", "ns", multiple=True, type=int, required=True,
                            help="sample size (repeatable for convergence tables)"),
               click.option("--replicates", default=10000, type=int),
               click.option("--seed", default=0, type=int),
               click.option("--format", "fmt", default="json", type=click.Choice(["csv", "json"])))
def cmd_simulate(p, q, w, ns, replicates, seed, fmt):
    """Monte Carlo optimal-loss estimate against the Chernoff reference."""
    reports = [
        testing.simulate(testing.BinaryTestProblem(p, q, w, n), replicates, seed)
        for n in ns
    ]
    if fmt == "csv":
        return _csv("n,exponent_estimate,d_c_w",
                    [(r.n, r.exponent_estimate, r.d_c_w_reference) for r in reports])
    payload = [r.to_dict() for r in reports]
    return payload[0] if len(payload) == 1 else {"reports": payload}


@main.command("mary")
@click.option("--models", "models_spec", required=True,
              help="JSON list of models (inline or file path)")
@_weight
@click.option("--priors", default=None,
              help="comma-separated positive priors summing to 1")
@_out
@_guarded
def cmd_mary(models_spec, weight, priors, out):
    """Pairwise weighted Chernoff matrix and its minimum C_M^w."""
    raw = _load_json(models_spec, "--models")
    if not isinstance(raw, list) or len(raw) < 2:
        raise PreconditionError("--models must be a JSON list of at least two models")
    models = [model_from_json(m) for m in raw]
    w = _parse_weight(weight)
    pr = None
    if priors is not None:
        try:
            pr = tuple(float(t) for t in priors.split(","))
        except ValueError as exc:
            raise PreconditionError(f"--priors: {exc}") from exc
    problem = testing.MAryProblem(tuple(models), w, pr)
    results = testing.mary_exponent(problem)
    inputs = {"models": [model_to_json(m) for m in models], "weight": weight_to_json(w)}
    if pr is not None:
        inputs["priors"] = list(pr)
    _emit(_report("mary", inputs, results), out)


@_pair_command("tailbound",
               click.option("--beta", required=True, type=float),
               click.option("--n", default=200, type=int),
               click.option("--replicates", default=100000, type=int),
               click.option("--seed", default=0, type=int))
def cmd_tailbound(p, q, w, beta, n, replicates, seed):
    """Martingale tail bound for L* versus its importance-sampled estimate under Q."""
    problem = testing.BinaryTestProblem(p, q, w, n)
    bound = testing.tail_bound(problem, beta, n)
    stats = testing.tilted_stats(problem)
    freq, se = testing.tail_frequency(problem, beta, n, replicates, seed)
    return {
        "beta": float(beta),
        "n": n,
        "bound": bound,
        "empirical_frequency": freq,
        "std_error": se,
        "kl_qp": stats.kl_qp,
        "d_bound": stats.d_bound,
        "sigma2": stats.sigma2,
        "shift": stats.shift,
        "replicates": replicates,
        "seed": seed,
    }


@_pair_command("identities")
def cmd_identities(p, q, w):
    """Residuals of the exponential-family divergence identity suite."""
    return expfam.verify_identities(p, q, w)


if __name__ == "__main__":
    main()
