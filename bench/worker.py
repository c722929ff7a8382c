"""Runs benchmark tasks in a fresh interpreter; started by run.py.

    python3 bench/worker.py --workload W --seed N --mode MODE [--seconds S]

Modes:
  setup       import the package, build the workload's inputs, print "ready"
  run         setup, then whole passes over the task list for S seconds;
              prints one JSON line with latencies and the first pass's outputs
  trace       setup for all three workloads, an untraced pass of W, one traced
              pass of every workload (cli commands in-process), then warm
              untraced passes of W and cli; prints one JSON line and writes
              spans under bench/out/
  import-cli  print the seconds `import wchernoff.cli` takes
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

MIN_PASSES = 2


def _plain(x):
    """JSON-ready copy of a package result."""
    if dataclasses.is_dataclass(x):
        return _plain(dataclasses.asdict(x))
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if hasattr(x, "item"):
        return x.item()
    return x


def _library_call(task):
    """A no-argument callable running one library task."""
    import wchernoff as W

    a, call = task["args"], task["call"]
    models = [W.model_from_json(m) for m in a["models"]] if "models" in a else None
    p = W.model_from_json(a["p"]) if "p" in a else None
    q = W.model_from_json(a["q"]) if "q" in a else None
    w = W.weight_from_json(a["w"])
    # functions are looked up on the package at call time so a traced pass
    # sees the wrappers
    if call == "chernoff":
        kw = {k: a[k] for k in ("solver", "mode") if k in a}
        return lambda: W.chernoff(p, q, w, **kw)
    if call == "weighted_kl":
        return lambda: W.weighted_kl(p, q, w)
    if call == "verify_identities":
        return lambda: W.verify_identities(p, q, w)
    if call == "mary_optimal_loss":
        problem = W.MAryProblem(tuple(models), w)
        kw = {k: a[k] for k in ("replicates", "seed") if k in a}
        return lambda: W.mary_optimal_loss(problem, a["n"], method=a["method"], **kw)
    problem = W.BinaryTestProblem(p, q, w, a.get("n", 1))
    if call == "rate_function":
        return lambda: W.rate_function(problem, a["r"])
    if call == "optimal_loss_exact":
        return lambda: W.optimal_loss_exact(problem)
    if call == "weighted_tv":
        return lambda: W.weighted_tv(problem)
    if call == "optimal_loss_mc":
        return lambda: W.optimal_loss_mc(problem, a["replicates"], a["seed"])
    if call == "simulate":
        return lambda: W.simulate(problem, a["replicates"], a["seed"])
    if call == "tail_frequency":
        return lambda: W.tail_frequency(problem, a["beta"], a["n"], a["replicates"], a["seed"])
    raise ValueError(f"unknown call {call}")


def _cli_call(task, runner):
    from wchernoff import cli

    def run():
        res = runner.invoke(cli.main, task["argv"])
        return {"exit_code": res.exit_code, "stdout": res.stdout}

    return run


def build(workload, seed):
    """(task, callable) pairs; cli commands run through click's CliRunner."""
    import workloads

    tasks = workloads.tasks(workload, seed)
    if workload == "cli":
        from click.testing import CliRunner

        runner = CliRunner()
        return [(t, _cli_call(t, runner)) for t in tasks]
    return [(t, _library_call(t)) for t in tasks]


def one_pass(pairs, tracer=None):
    latency, outputs = [], []
    start = time.perf_counter()
    for task, fn in pairs:
        if tracer is not None:
            tracer.begin_task(task["name"])
        t0 = time.perf_counter()
        try:
            out = _plain(fn())
        except Exception as exc:  # a failing task is recorded and checked, the pass goes on
            out = {"error": f"{type(exc).__name__}: {exc}"}
        latency.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - start, latency, outputs


def _digest(outputs):
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def run_passes(pairs, seconds):
    """Whole passes until the next one would end after `seconds`."""
    passes, first, start = [], None, time.perf_counter()
    while True:
        wall, latency, outputs = one_pass(pairs)
        first = outputs if first is None else first
        passes.append({"wall": wall, "latency": latency, "digest": _digest(outputs)})
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return {"passes": passes, "outputs": first}


def trace(workload, seed, lists):
    """Untraced warm-up pass of `workload`, traced pass of every workload,
    then the warm untraced passes the overhead and the CLI time come from."""
    import workloads
    from tracer import Tracer

    _, _, outputs_u = one_pass(lists[workload])
    tracer = Tracer()
    tracer.install()
    walls, outputs = {}, {}
    try:
        for name in workloads.WORKLOADS:
            walls[name], _, outputs[name] = one_pass(lists[name], tracer)
    finally:
        tracer.uninstall()
    wall_u, _, outputs_again = one_pass(lists[workload])
    cli_wall = wall_u if workload == "cli" else one_pass(lists["cli"])[0]
    summary = tracer.summary()
    summary["metrics"]["cli.command_inprocess_s"] = cli_wall
    summary["metrics"]["trace.untraced_wall_s"] = wall_u
    summary["metrics"]["trace.traced_wall_s"] = walls[workload]
    summary["overhead_s"] = walls[workload] - wall_u
    summary["traced_walls"] = walls
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"trace-{workload}-seed{seed}")
    tracer.save(stem + "-spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump(summary, fh, indent=1)
    return {"metrics": summary["metrics"], "overhead_s": summary["overhead_s"],
            "untraced_outputs": outputs_u, "outputs": outputs,
            "digests": [_digest(o) for o in (outputs_u, outputs[workload], outputs_again)]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace", "import-cli"])
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args()
    if args.mode == "import-cli":
        t0 = time.perf_counter()
        import wchernoff.cli  # noqa: F401
        print(repr(time.perf_counter() - t0))
        return
    import wchernoff

    if args.workload == "cli" or args.mode == "trace":
        import wchernoff.cli  # noqa: F401
    if not os.path.abspath(wchernoff.__file__).startswith(SRC + os.sep):
        sys.exit(f"wchernoff imported from {wchernoff.__file__}, not from {SRC}")
    import workloads

    if args.mode == "trace":
        lists = {name: build(name, args.seed) for name in workloads.WORKLOADS}
    elif args.workload == "cli":
        # the commands run as processes started by run.py: their argv are the inputs
        lists = {"cli": workloads.tasks("cli", args.seed)}
    else:
        lists = {args.workload: build(args.workload, args.seed)}
    print("ready", flush=True)
    if args.mode == "run":
        print(json.dumps(run_passes(lists[args.workload], args.seconds)))
    elif args.mode == "trace":
        print(json.dumps(trace(args.workload, args.seed, lists)))


if __name__ == "__main__":
    main()
