"""Self-check of the benchmark harness at toy size.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced, at toy size, through the
same code path as run.py.  Fails unless every run is correct, every metric
BENCHMARK.json names is reported, the traced self times add up to the traced
wall time, tracing puts back every function it wrapped, and the reference
ticker puts back the SIGALRM handler.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


class CheckFailed(Exception):
    pass


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _check_runs(spec):
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1, trace=trace)
            result, detail = run.measure(args, size="toy")
            where = f"{workload} --trace {trace}"
            _expect(result["correct"] and result["failed"] == 0, f"{where}: {detail['failures']}")
            _expect(result["attempted"] >= 1, f"{where}: no job attempted")
            metrics = result["metrics"]
            for m in spec[group]:
                got = metrics.get(m["name"])
                _expect(got is not None, f"{where}: metric {m['name']} missing")
                _expect(got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}")
                _expect(math.isfinite(got["value"]), f"{where}: {m['name']} not a number")
            if trace:
                wall = metrics["trace.wall_s"]["value"]
                total = metrics["trace.self_sum_s"]["value"]
                _expect(abs(total - wall) <= 1e-6 * max(wall, 1), f"{where}: self times {total} != wall {wall}")
                _expect(detail["wrappers_restored"], f"{where}: wrappers not restored")
            print(f"selfcheck: {where}: ok ({result['attempted']} jobs)")


def _check_restore():
    """Wrap, run one toy job list in this process, unwrap: every original is back."""
    import worker

    worker._import_program(run.ROOT)
    import tracing
    import workloads

    def snapshot():
        out = {}
        for module, qualname in [(m, q) for m, q, _ in tracing.TARGETS] + tracing.COUNTED:
            mod = sys.modules["cmperiods." + module]
            if "." in qualname:
                cls, attr = qualname.split(".")
                out[qualname] = getattr(mod, cls).__dict__[attr]
            else:
                for name, m in sys.modules.items():
                    if name.startswith("cmperiods.") and qualname in vars(m):
                        out[f"{name}.{qualname}"] = vars(m)[qualname]
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = snapshot()
        _expect(all(wrapped[k] is not v for k, v in before.items()), "a target was not wrapped")
        workload = "carlitz-certify"
        inputs = workloads.make_inputs(workload, 7, "toy")
        for job in workloads.job_list(workload, inputs, {}):
            _expect(job.check(job.run()), f"in-process {job.name} failed")
    finally:
        restored = tracer.uninstall()
    after = snapshot()
    _expect(restored, "uninstall reported a function not restored")
    _expect(all(after[k] is v for k, v in before.items()), "a wrapped function is still in place")
    _expect(len(tracer.start) > 0, "the traced job list recorded no spans")
    print(f"selfcheck: restore after tracing: ok ({len(before)} attributes)")


def _check_ticker():
    """The reference ticker puts SIGALRM back, and scales time by its speed."""
    import reference

    before = signal.getsignal(signal.SIGALRM)
    ticker = reference.Ticker(0.01)
    ticker.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    ticker.stop()
    _expect(signal.getsignal(signal.SIGALRM) is before, "the SIGALRM handler was not restored")
    _expect(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "the interval timer is still armed")
    _expect(len(ticker.ticks) > 10, f"only {len(ticker.ticks)} reference samples in 0.3 s")
    # at one speed throughout, a scaled interval is the interval over that speed
    ticker._speeds = [[2.0] * len(ticker.ticks)] * 2
    a, b = ticker.ticks[0][0][0] - 1, ticker.ticks[-1][0][0] + 1
    _expect(abs(ticker.scaled(a, b, 0) - (b - a) / 2) < 1e-9, "scaled() is not the interval over the speed")
    print(f"selfcheck: reference ticker: ok ({len(ticker.ticks)} samples)")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    try:
        _check_runs(spec)
        _check_restore()
        _check_ticker()
    except (CheckFailed, run.RunError) as exc:
        print(f"selfcheck: FAILED: {exc}", file=sys.stderr)
        return 1
    print("selfcheck: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
