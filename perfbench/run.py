"""Benchmark of the cmperiods pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload kummer-legendre --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Every run happens in fresh child processes (worker.py).

--trace 0  end-to-end metrics: set-up is timed in several fresh processes
           and reported as the median; one more process runs job lists in a
           closed loop for --seconds and reports the median list time (wall
           and CPU), per-query latency and peak RSS.  Every time is scaled
           to the reference loop's nominal speed (reference.py), which the
           worker times ten times a second while the jobs run; the
           unscaled figures are in the detail line.
--trace 1  per-layer metrics: one job list untraced, then one traced, each
           in a fresh process.  Spans go to perfbench/out/; the traced wall
           time less the untraced one is the tracing overhead.

Every metric is printed to stderr by name with its unit and sample count.
The last line of stdout is the result as one JSON object.  A run in which a
job fails or a check rejects an output still prints a result, with
"correct": false; a run that cannot measure at all exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# Set-up is timed in fresh processes, at least SETUP_MIN times and then until
# SETUP_BUDGET_S is spent or SETUP_MAX samples are taken; the median is
# reported.  A short set-up (0.2 s) gets more samples than a long one.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 6, 15, 3.0
DEADLINE_S = 170  # a run ends within 180 s; children still running then are killed

# Workloads whose jobs are single queries.  On the others a query is one
# whole job list: their jobs are too unlike each other for a percentile
# across them to be steady (it jumps from one job to the next).  Query
# latency is CPU time: on a shared machine the wall time of a sub-second
# call is dominated by other tenants taking the processor.
JOB_QUERIES = {"relhunt-planted"}

sys.path.insert(0, HERE)
from params import PARAMS, WORKLOADS  # noqa: E402


class RunError(Exception):
    """The run could not measure; no result is printed."""


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args, deadline, size, extra):
    """Start a worker; returns (set-up seconds, parsed JSON or None)."""
    cmd = [
        sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--size", size,
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise RunError(f"worker did not finish set-up (exit {proc.wait()})")
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise RunError("worker ran past the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def _quantile(values, pct):
    """The pct-th percentile, Harrell-Davis: a mean of all the sorted values
    weighted by the Beta(p(n+1), (1-p)(n+1)) density over their ranks.

    The query mix holds a fixed set of query shapes with distinct costs, so
    the sorted latencies have gaps; a single order statistic next to a gap
    jumps with the noise of one query, the weighted mean does not."""
    xs = sorted(values)
    n = len(xs)
    p = pct / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 8  # midpoint rule inside each rank interval ((i-1)/n, i/n)
    logs = []
    for k in range(n * steps):
        x = (k + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure(args, size="full"):
    """Run the workload; returns (result, detail)."""
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    metrics, samples = {}, {}
    if not args.trace:
        setups, setups_scaled = [], []
        while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S and len(setups) < SETUP_MAX):
            setup, after = _child(args, deadline, size, ["--setup-only", "--reference"])
            setups.append(setup)
            setups_scaled.append(setup / statistics.median(s[0] for s in after["speeds"]))
        _, res = _child(args, deadline, size, ["--reference"])
        runs = [res]
        if args.workload in JOB_QUERIES:
            queries, queries_unscaled = res["latencies_scaled"], res["latencies"]
        else:
            queries, queries_unscaled = res["lists_cpu_scaled"], res["lists_cpu"]
        lat_ms = [x * 1e3 for x in queries] or [0.0]  # empty when every job raised
        metrics["wall_s"] = (statistics.median(res["lists_scaled"]), "s")
        metrics["cpu_s"] = (statistics.median(res["lists_cpu_scaled"]), "s")
        metrics["setup_s"] = (statistics.median(setups_scaled), "s")
        metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB")
        metrics["query_p50_ms"] = (_quantile(lat_ms, 50), "ms")
        metrics["query_p90_ms"] = (_quantile(lat_ms, 90), "ms")
        samples.update(wall_s=len(res["lists"]), cpu_s=len(res["lists"]), setup_s=len(setups), peak_rss_mb=1,
                       query_p50_ms=len(lat_ms), query_p90_ms=len(lat_ms))
        # the same figures unscaled, and the machine's speed as the reference loop saw it
        speeds = res["speeds"]
        unscaled_ms = [x * 1e3 for x in queries_unscaled] or [0.0]
        scaled = {"lists_s": res["lists_scaled"], "lists_cpu_s": res["lists_cpu_scaled"], "setups_s": setups_scaled}
        unscaled = {
            "wall_s": statistics.median(res["lists"]),
            "cpu_s": statistics.median(res["lists_cpu"]),
            "setup_s": statistics.median(setups),
            "query_p50_ms": _quantile(unscaled_ms, 50),
            "query_p90_ms": _quantile(unscaled_ms, 90),
            "lists_s": res["lists"],
            "lists_cpu_s": res["lists_cpu"],
            "setups_s": setups,
            "speed": {"samples": len(speeds), "min": min(speeds), "median": statistics.median(speeds),
                      "max": max(speeds)},
        }
    else:
        stem = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}")
        _, plain = _child(args, deadline, size, ["--max-lists", "1"])
        _, traced = _child(args, deadline, size, ["--max-lists", "1", "--trace-to", stem])
        runs = [plain, traced]
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = (value, unit)
        ledger = traced["ledger"]
        # 0 where the workload computes no trivialization or no period symbol
        metrics["ledger.psi_residual"] = (ledger.get("psi_residual", 0), "val")
        metrics["ledger.symbol_prec"] = (ledger.get("symbol_prec", 0), "val")
        metrics["trace.wall_s"] = (traced["lists"][0], "s")
        metrics["trace.overhead_s"] = (traced["lists"][0] - plain["lists"][0], "s")
        samples.update({"trace.wall_s": 1, "trace.overhead_s": 2, "spans": traced["spans"]})
        scaled, unscaled = {}, {"lists_s": [plain["lists"][0], traced["lists"][0]]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    restored = all(r["restored"] for r in runs)
    result = {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "params": PARAMS[args.workload][size],
        "env": runs[-1]["env"],
        "samples": samples,
        "scaled": scaled,
        "unscaled": unscaled,
        "failed_frac": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
        "wrappers_restored": restored,
    }
    return result, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cmperiods", "__init__.py")):
        print(f"run.py: no program at {os.path.join(ROOT, 'src', 'cmperiods')}", file=sys.stderr)
        return 2
    try:
        result, detail = measure(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    for name, m in result["metrics"].items():
        n = detail["samples"].get(name)
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']:6s}" + (f" n={n}" if n else ""), file=sys.stderr)
    print(f"failed_frac {detail['failed_frac']:.4g} ({result['failed']}/{result['attempted']})", file=sys.stderr)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
