"""wchernoff benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {solve,loss,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports the package from src/ and
writes only under bench/out/.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a separate traced run.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See bench/README.md for the workloads, the metrics and the oracles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

# set-up interpreters started before and after the passes, so that set-up
# samples span the run as the passes do
SETUP_BEFORE = SETUP_AFTER = 4
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 170.0


class Fail(Exception):
    """The benchmark cannot produce a result."""


class Child:
    """A fresh interpreter started from the checkout root, timed from its start."""

    def __init__(self, argv, deadline):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        threads = str(len(os.sched_getaffinity(0)))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        self.argv, self.deadline = argv, deadline
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
        self.ready_s = None

    def finish(self):
        """Read stdout to its end and reap: (stdout, seconds, exit code, peak KiB)."""
        fd, chunks = self.proc.stdout.fileno(), []
        try:
            while True:
                left = self.deadline - time.monotonic()
                if left <= 0:
                    raise Fail(f"timed out: {' '.join(self.argv[:6])}")
                if not select.select([fd], [], [], left)[0]:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
                if self.ready_s is None and b"\n" in chunk:
                    self.ready_s = time.perf_counter() - self.t0
        except BaseException:
            self.proc.kill()
            raise
        finally:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.proc.stdout.close()
        return (b"".join(chunks).decode(), time.perf_counter() - self.t0,
                self.proc.returncode, usage.ru_maxrss)


def worker(mode, args, deadline, extra=()):
    child = Child([sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--mode", mode, *extra], deadline)
    out, _, code, peak_kib = child.finish()
    if code != 0:
        raise Fail(f"worker {mode} exited with status {code}")
    lines = out.splitlines()
    return child.ready_s, lines, peak_kib


def setup_times(args, deadline, count):
    return [worker("setup", args, deadline)[0] for _ in range(count)]


def run_cli(tasks, seconds, deadline):
    """Whole passes over the commands, each a fresh `python -m wchernoff.cli`."""
    passes, outputs, peak, start = [], None, 0, time.perf_counter()
    while True:
        wall0, latency, outs = time.perf_counter(), [], []
        for task in tasks:
            child = Child([sys.executable, "-m", "wchernoff.cli", *task["argv"]], deadline)
            out, seconds_, code, kib = child.finish()
            latency.append(seconds_)
            outs.append({"exit_code": code, "stdout": out})
            peak = max(peak, kib)
        passes.append({"wall": time.perf_counter() - wall0, "latency": latency,
                       "digest": json.dumps(outs)})
        outputs = outs if outputs is None else outputs
        elapsed = time.perf_counter() - start
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return {"passes": passes, "outputs": outputs}, peak


def verdicts(tasks, outputs):
    """(problems, is the known fault) of each output; problems also go to stderr."""
    result = []
    for task, out in zip(tasks, outputs):
        bad = checks.problems(task, out)
        known = bool(bad) and checks.shows_fault(task, out)
        for line in bad:
            print(f"{'known fault' if known else 'WRONG'}: {task['name']}: {line}",
                  file=sys.stderr)
        result.append((bad, known))
    return result


def tally(verdict, passes):
    """(correct, attempted, failed) over `passes` identical passes."""
    failed = sum(1 for bad, _ in verdict if bad) * passes
    correct = all(known or not bad for bad, known in verdict)
    return correct, len(verdict) * passes, failed


def upper_quartile(values):
    """Third quartile of a run's samples, interpolated between two of them.

    The shared 2-core host the benchmark was tuned on alternates between a
    fast and a slow state; the slow one is the steadier, so the upper
    quartile varies less from run to run than the median (bench/README.md).
    """
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(tasks, run, setups, peak_kib):
    passes, outputs = run["passes"], run["outputs"]
    verdict = verdicts(tasks, outputs)
    bad = [b for b, _ in verdict]
    scale = []
    for task, out, b in zip(tasks, outputs, bad):
        r = None if b else checks.rse(task, out)
        scale.append(1.0 if r is None else (r / 0.01) ** 2)
    uppers = [upper_quartile([p["latency"][i] for p in passes]) for i in range(len(tasks))]
    metrics = {
        "setup_s": upper_quartile(setups),
        "wall_s": upper_quartile([p["wall"] for p in passes]),
        "task_geomean_ms": math.exp(statistics.fmean(math.log(1e3 * u) for u in uppers)),
        "time_to_1pct_s": upper_quartile(
            [sum(t * s for t, s in zip(p["latency"], scale)) for p in passes]),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    correct, attempted, failed = tally(verdict, len(passes))
    if len({p["digest"] for p in passes}) != 1:
        print("WRONG: outputs differ between passes on the same inputs", file=sys.stderr)
        correct = False
    detail = {"tasks": [{"name": t["name"], "upper_quartile_s": u, "rse": None if s == 1.0 else
                         0.01 * math.sqrt(s), "problems": b}
                        for t, u, s, b in zip(tasks, uppers, scale, bad)],
              "pass_walls": [p["wall"] for p in passes],
              "pass_latencies": [p["latency"] for p in passes], "setups": setups}
    return correct, attempted, failed, metrics, detail


def traced(args, deadline):
    _, lines, _ = worker("trace", args, deadline)
    res = json.loads(lines[-1])
    correct = True
    for name in workloads.WORKLOADS:
        correct &= tally(verdicts(workloads.tasks(name, args.seed), res["outputs"][name]), 1)[0]
    tasks = workloads.tasks(args.workload, args.seed)
    ok, attempted, failed = tally(verdicts(tasks, res["untraced_outputs"]), 3)
    if len(set(res["digests"])) != 1:
        print("WRONG: traced and untraced outputs differ", file=sys.stderr)
        correct = False
    metrics = dict(res["metrics"])
    imports = []
    for _ in range(IMPORT_SAMPLES):
        imports.append(float(worker("import-cli", args, deadline)[1][-1]))
    metrics["cli.import_s"] = statistics.median(imports)
    print(f"tracing overhead on {args.workload}: {res['overhead_s']:+.3f} s over "
          f"{metrics['trace.untraced_wall_s']:.3f} s untraced", file=sys.stderr)
    return correct and ok, attempted, failed, metrics, {"overhead_s": res["overhead_s"]}


def measure(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        return traced(args, deadline)
    tasks = workloads.tasks(args.workload, args.seed)
    setups = setup_times(args, deadline, SETUP_BEFORE)
    if args.workload == "cli":
        run, peak_kib = run_cli(tasks, args.seconds, deadline)
    else:
        # the interpreter that runs the passes gives one more set-up sample
        ready_s, lines, peak_kib = worker("run", args, deadline,
                                          ("--seconds", str(args.seconds)))
        setups.append(ready_s)
        run = json.loads(lines[-1])
    setups += setup_times(args, deadline, SETUP_AFTER)
    return end_to_end(tasks, run, setups, peak_kib)


def declared_units(trace):
    """{metric name: unit} of BENCHMARK.json's per-layer or end-to-end list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "wchernoff", "__init__.py")):
        sys.exit(f"error: no package source under {os.path.join(ROOT, 'src')}")
    units = declared_units(args.trace)
    try:
        correct, attempted, failed, metrics, detail = measure(args)
    except Fail as exc:
        sys.exit(f"error: {exc}")
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(HERE, "out", name), "w") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
