"""The benchmark in perfbench/ traces program functions by name; every
name it lists must still exist, or its traced runs fail."""

import random
import sys
from pathlib import Path

from cmperiods import relhunt
from cmperiods.arith import Fq
from cmperiods.infinity import InfElem, inf_nth_root

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import params  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_names_resolve():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall()


def test_traced_relation_search_matches_untraced():
    # the tracer binds find_linear_relations' arguments by name, as the
    # relhunt-planted workload passes them
    fld = Fq.get(3, 2, 1)
    rng = random.Random(7)
    v, w = (InfElem(fld, 1, {x: rng.randrange(fld.size) for x in range(-3, 80)}, 80) for _ in range(2))
    values = [v, w, v.mono_mul(2, -2) + w]
    root = inf_nth_root(InfElem.theta(fld, 120).scale(fld.neg(1)), 2)

    def calls():
        return [
            relhunt.find_linear_relations(values, 3, 15),
            relhunt.find_linear_relations(values, H=3, margin=15),
            relhunt.find_linear_relations(values, 3),
            relhunt.find_algebraic_relation(root, 3, 6, 20),
        ]

    want = calls()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        got = calls()
    finally:
        assert tracer.uninstall()
    assert got == want and want[0] and want[3] is not None
    assert tracer.units["relhunt.find_linear_relations.columns"] > 0
    assert {"relhunt.find_linear_relations", "relhunt.find_algebraic_relation"} <= set(tracer.names)


def test_toy_pass_of_every_workload():
    # the benchmark's calls into the program, run once at toy size: a
    # signature the workloads depend on that breaks fails here, not in a
    # benchmark run
    for workload in params.WORKLOADS:
        ledger = {}
        jobs = workloads.job_list(workload, workloads.make_inputs(workload, 7, "toy"), ledger)
        assert jobs, workload
        for job in jobs:
            assert job.check(job.run()), f"{workload}: {job.name}"
