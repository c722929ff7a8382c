"""Spans around the calls into the package's public functions.

`Tracer.install()` replaces module and class attributes of the loaded
wchernoff modules with wrappers; `uninstall()` puts the originals back.
Nothing under src/ is edited.  A function imported by name into another
module (`from .affinity import chernoff` in testing) is replaced there as
well, because every wchernoff module attribute bound to the original
function object is swapped.

Each call is kept in memory as a span: name, start, end, parent span and
task.  The arrays are written out by `save()` when the run ends.  A
function's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

# layer metric -> span names whose outermost calls it sums
TIME_GROUPS = {
    "models.sample_s": ("models.sample",),
    "numeric.logpdf_vec_s": ("_numeric.logpdf_vec",),
    "numeric.power_integral_s": ("_numeric.weighted_power_integral",),
    "affinity.curve_s": ("affinity.AffinityCurve.log_rho", "affinity.AffinityCurve.derivative"),
    "affinity.chernoff_s": ("affinity.chernoff",),
    "expfam.verify_identities_s": ("expfam.verify_identities",),
    "expfam.weighted_kl_s": ("expfam.weighted_kl",),
    "testing.exact_s": ("testing.optimal_loss_exact", "testing.weighted_tv",
                        "testing.mary_optimal_loss.exact"),
    "testing.mc_s": ("testing.optimal_loss_mc", "testing.tail_frequency",
                     "testing.mary_optimal_loss.mc"),
    "testing.rate_function_s": ("testing.rate_function",),
}
CALL_COUNTS = {
    "numeric.logpdf_vec_calls": "_numeric.logpdf_vec",
    "numeric.power_integral_calls": "_numeric.weighted_power_integral",
    "numeric.quad_calls": "_numeric.quad",
    "affinity.log_rho_calls": "affinity.AffinityCurve.log_rho",
    "affinity.derivative_calls": "affinity.AffinityCurve.derivative",
    "testing.cumulants_calls": "testing.cumulants",
}


class _QuadProxy:
    """Stands in for scipy.integrate inside _numeric, with `quad` traced."""

    def __init__(self, module, quad):
        self._module = module
        self.quad = quad

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names, self._ids = [], {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tasks = []
        self.task_id = -1
        self.counts = {"models.samples": 0, "numeric.logpdf_vec_points": 0,
                       "affinity.solver_iterations": 0, "testing.enumerated_states": 0,
                       "testing.mc_replicates": 0}
        self._stack = [-1]
        self._restore = []

    def begin_task(self, name):
        self.tasks.append(name)
        self.task_id = len(self.tasks) - 1

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call of `fn`.

        `name` is a span name, or a callable giving one from the call's
        (args, kwargs); `before(args, kwargs)` and `after(result)` update
        counts outside the timed region.
        """
        fixed = None if callable(name) else self._nid(name)
        stack, spans_start, spans_end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            i = len(spans_start)
            self.name.append(fixed if fixed is not None else self._nid(name(args, kwargs)))
            self.parent.append(stack[-1])
            self.task.append(self.task_id)
            spans_start.append(0.0)
            spans_end.append(0.0)
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[i] = time.perf_counter()
                spans_start[i] = t0
                stack.pop()
            if after:
                after(result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _swap(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _swap_function(self, fn, new):
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "wchernoff"]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._swap(mod, attr, new)

    def install(self):
        from wchernoff import _numeric, affinity, expfam, models, testing

        c = self.counts

        def add(key, amount):
            c[key] += int(amount)

        def named(fn, hook):
            """Adapt hook(arguments by name) to the raw (args, kwargs) interface."""
            sig = inspect.signature(fn)

            def adapted(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return hook(bound.arguments)

            return adapted

        for cls in (models.Gaussian, models.Poisson, models.Exponential, models.Cauchy,
                    models.Categorical):
            self._swap(cls, "sample", self.wrap(
                "models.sample", cls.sample,
                before=named(cls.sample, lambda a: add("models.samples", a["count"]))))
        # hot path: logpdf_vec(model, x) runs once per quadrature node
        self._swap_function(_numeric.logpdf_vec, self.wrap(
            "_numeric.logpdf_vec", _numeric.logpdf_vec,
            before=lambda args, kw: add("numeric.logpdf_vec_points",
                                        np.size(args[1] if len(args) > 1 else kw["x"]))))
        self._swap_function(_numeric.weighted_power_integral, self.wrap(
            "_numeric.weighted_power_integral", _numeric.weighted_power_integral))
        self._swap(_numeric, "integrate", _QuadProxy(
            _numeric.integrate, self.wrap("_numeric.quad", _numeric.integrate.quad)))
        for meth in ("log_rho", "derivative"):
            self._swap(affinity.AffinityCurve, meth, self.wrap(
                f"affinity.AffinityCurve.{meth}", getattr(affinity.AffinityCurve, meth)))
        self._swap_function(affinity.chernoff, self.wrap(
            "affinity.chernoff", affinity.chernoff,
            after=lambda r: add("affinity.solver_iterations", r.iterations)))
        for fn in (expfam.verify_identities, expfam.weighted_kl):
            self._swap_function(fn, self.wrap(f"expfam.{fn.__name__}", fn))

        def states(problem, n):
            # computed, not observed: C(n + k - 1, n) count vectors over the
            # k-point single-letter grid the package enumerates
            pair = getattr(problem, "models", None) or (problem.model_p, problem.model_q)
            if isinstance(pair[0], models.Categorical):
                k = pair[0].size
            else:
                k = _numeric.discrete_grid(pair[0], pair[1], problem.weight).size
            add("testing.enumerated_states", math.comb(n + k - 1, n))

        for fn in (testing.optimal_loss_exact, testing.weighted_tv):
            self._swap_function(fn, self.wrap(
                f"testing.{fn.__name__}", fn,
                before=named(fn, lambda a: states(a["problem"], a["problem"].n))))

        def exact(a):
            return a["method"] == testing.EXACT_ENUMERATION

        def mary_before(a):
            if exact(a):
                states(a["problem"], a["n"])
            else:
                add("testing.mc_replicates", a["replicates"])

        mary = testing.mary_optimal_loss
        self._swap_function(mary, self.wrap(
            named(mary, lambda a: "testing.mary_optimal_loss." + ("exact" if exact(a) else "mc")),
            mary, before=named(mary, mary_before)))
        for fn in (testing.optimal_loss_mc, testing.tail_frequency):
            self._swap_function(fn, self.wrap(
                f"testing.{fn.__name__}", fn,
                before=named(fn, lambda a: add("testing.mc_replicates", a["replicates"]))))
        for fn in (testing.cumulants, testing.rate_function):
            self._swap_function(fn, self.wrap(f"testing.{fn.__name__}", fn))

    def uninstall(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "task": np.array(self.task, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def _outermost(self, arr, ids):
        """Mask of spans named in `ids` with no ancestor named in `ids`."""
        member = np.isin(arr["name"], ids)
        parent = arr["parent"]
        covered = np.zeros(member.size, dtype=bool)
        cur = parent.copy()
        while np.any(cur >= 0):
            live = cur >= 0
            covered[live] |= member[cur[live]]
            cur[live] = parent[cur[live]]
        return member & ~covered

    def summary(self):
        """Layer metrics plus per-function and per-task tables."""
        arr = self.arrays()
        dur = arr["end"] - arr["start"]
        has_parent = arr["parent"] >= 0
        child = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        nfun = len(self.names)
        calls = np.bincount(arr["name"], minlength=nfun)
        functions = {
            name: {"calls": int(calls[i]),
                   "inclusive_s": float(dur[arr["name"] == i].sum()),
                   "self_s": float(self_time[arr["name"] == i].sum())}
            for i, name in enumerate(self.names)
        }
        metrics, per_task = {}, {t: {} for t in self.tasks}
        for metric, group in TIME_GROUPS.items():
            ids = [self._ids[g] for g in group if g in self._ids]
            mask = self._outermost(arr, ids)
            metrics[metric] = float(dur[mask].sum())
            by_task = np.bincount(arr["task"][mask], weights=dur[mask], minlength=len(self.tasks))
            for t, v in zip(self.tasks, by_task):
                if v:
                    per_task[t][metric] = float(v)
        for metric, name in CALL_COUNTS.items():
            metrics[metric] = functions.get(name, {"calls": 0})["calls"]
        c = self.counts
        for key in ("models.samples", "numeric.logpdf_vec_points",
                    "affinity.solver_iterations", "testing.enumerated_states"):
            metrics[key] = c[key]
        mc_s = metrics["testing.mc_s"]
        metrics["testing.mc_replicates_per_s"] = c["testing.mc_replicates"] / mc_s if mc_s else 0.0
        return {"metrics": metrics, "computed": ["testing.enumerated_states"],
                "functions": functions, "per_task": per_task, "spans": int(dur.size)}

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), tasks=np.array(self.tasks),
                            **self.arrays())
