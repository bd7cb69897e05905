"""One workload run in a fresh single-threaded process.

run.py starts this script; it is not meant to be run by hand.  It imports the
program from ``<root>/src``, builds the workload's inputs from the seed and
prints ``READY`` (run.py times set-up up to that line).  Unless
``--setup-only`` is given it then runs job lists in a closed loop, each job
starting after the previous one has returned and been checked, and prints
one JSON line with the raw samples.  With ``--reference`` it also times the
reference loop (reference.py) ten times a second, inside jobs too, and
reports every time a second way, scaled by the speed the loop measured
around it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
import traceback

import reference

# With --reference, the wall time from the end of one run of the reference
# loop to the start of the next.
REF_EVERY_S = 0.1


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/cmperiods")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="time budget for job lists")
    ap.add_argument("--size", choices=["full", "toy"], default="full")
    ap.add_argument("--max-lists", type=int, default=0, help="stop after this many lists (0: budget only)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true", help="time the reference loop between jobs")
    ap.add_argument("--trace-to", default=None, help="trace the run; write spans to this path stem")
    return ap.parse_args(argv)


def _import_program(root):
    """Import cmperiods from the checkout, on the pure-Python integer path."""
    gmpy2_installed = importlib.util.find_spec("gmpy2") is not None
    sys.modules["gmpy2"] = None  # makes `import gmpy2` fail: timings are taken without it
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import cmperiods.infinity

    where = os.path.realpath(cmperiods.infinity.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"worker: imported cmperiods from {where}, not from {src}")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2_installed": gmpy2_installed,
        "gmpy2_used": cmperiods.infinity._mpz is not int,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _run_lists(workload, inputs, args, tracer):
    import tracing
    import workloads

    ledger = {}
    failures = []
    attempted = 0
    client = tracer.name_id(tracing.CLIENT) if tracer else None
    ticker = reference.Ticker(REF_EVERY_S) if args.reference else None
    clocks = ticker.clocks if ticker else lambda: (time.perf_counter(), time.process_time())
    marks = []  # per list: per job, (wall, CPU) at its start, end of run() and end of check
    spent = []
    if ticker:
        ticker.start()
    try:
        begin = time.perf_counter()
        while True:
            jobs = workloads.job_list(workload, inputs, ledger)
            list_start = time.perf_counter()
            marks.append([])
            list_span = tracer.open(client) if tracer else None
            for job in jobs:
                attempted += 1
                job_span = tracer.open(client) if tracer else None
                t0 = clocks()
                t1 = None
                try:
                    out = job.run()
                    t1 = clocks()
                    ok = bool(job.check(out))
                except Exception:  # a job that raises counts as failed; the loop goes on
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                marks[-1].append((t0, t1, clocks()))
                if tracer:
                    tracer.close(job_span)
                if not ok:
                    failures.append(job.name)
            if tracer:
                tracer.close(list_span)
            spent.append(time.perf_counter() - list_start)
            if args.max_lists and len(spent) >= args.max_lists:
                break
            # start another list only when it should end inside the budget
            if time.perf_counter() - begin + max(spent) > args.seconds:
                break
    finally:
        if ticker:
            ticker.stop()

    def durations(span, axis):
        """Per list, the summed time of its jobs on ``axis``, and the CPU
        latencies of its run() calls; scaled to nominal speed by ``span``."""
        totals, lat = [], []
        for jobs in marks:
            totals.append(sum(span(t0[axis], t2[axis], axis) for t0, _, t2 in jobs))
            lat += [span(t0[1], t1[1], 1) for t0, t1, _ in jobs if t1 is not None]
        return totals, lat

    def raw(a, b, _):
        return b - a

    lists, latencies = durations(raw, 0)
    cpu, _ = durations(raw, 1)
    if tracer:
        lists = [tracer.end[list_span] - tracer.start[list_span]]  # what the self times add up to
    scaled = {}
    if ticker:
        scaled["lists_scaled"], _ = durations(ticker.scaled, 0)
        scaled["lists_cpu_scaled"], scaled["latencies_scaled"] = durations(ticker.scaled, 1)
        scaled["speeds"] = ticker.speeds()
    return {
        "lists": lists,
        "lists_cpu": cpu,
        "latencies": latencies,
        **scaled,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "ledger": ledger,
    }


def main(argv=None):
    args = _parse(argv)
    env = _import_program(args.root)
    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    print("READY", flush=True)
    if args.setup_only:
        # the machine's speed right after set-up, to scale the set-up time by
        if args.reference:
            print(json.dumps({"speeds": [reference.sample() for _ in range(3)]}), flush=True)
        return
    tracer = None
    if args.trace_to:
        tracer = tracing.Tracer()
        tracer.install()
    try:
        result = _run_lists(args.workload, inputs, args, tracer)
    finally:
        restored = tracer.uninstall() if tracer else True
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["env"] = env
    result["restored"] = restored
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.start)
        tracer.write(args.trace_to)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
