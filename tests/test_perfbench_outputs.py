"""Every job output of the benchmark's full-size lists, hashed against
recorded ones.

Each workload of perfbench/ is built at full size with seed 1 and its jobs
run in order, as one benchmark pass runs them.  Every output is written in
a canonical form and hashed with SHA-256; the hashes, and the precision
ledger the checks fill in, must equal those in
`golden/perfbench_outputs.json`.  A change that alters an output on purpose
regenerates the workloads it alters with

    PYTHONPATH=src python tests/test_perfbench_outputs.py ["WORKLOAD" ...]

(every workload when none is named) and says so in CHANGES.md.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cmperiods.infinity import InfElem

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import params  # noqa: E402
import workloads  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "perfbench_outputs.json"
SEED = 1


def canonical(x):
    """x as plain JSON data, the same for equal outputs.  A type it does not
    know raises, so no repr (and no object address) reaches a hash."""
    if isinstance(x, InfElem):
        return {"InfElem": x.to_json()}
    if isinstance(x, Fraction):
        return {"Fraction": [x.numerator, x.denominator]}
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, dict):
        if not all(isinstance(k, str) for k in x):
            raise TypeError(f"dict key not a string: {list(x)!r}")
        return {k: canonical(v) for k, v in x.items()}
    raise TypeError(f"no canonical form for {type(x).__name__}")


def run(workload):
    """{job name: output hash} and the ledger of one full-size pass."""
    ledger = {}
    jobs = workloads.job_list(workload, workloads.make_inputs(workload, SEED), ledger)
    hashes = {}
    for job in jobs:
        out = job.run()
        assert job.check(out), f"{workload}: {job.name}"
        text = json.dumps(canonical(out), sort_keys=True, separators=(",", ":"))
        hashes[job.name] = hashlib.sha256(text.encode()).hexdigest()
    return {"jobs": hashes, "ledger": ledger}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("workload", params.WORKLOADS)
def test_job_outputs_match_golden(workload, golden):
    assert run(workload) == golden[workload]


def test_canonical_form_refuses_unknown_types():
    with pytest.raises(TypeError):
        canonical([object()])
    with pytest.raises(TypeError):
        canonical({1: "key not a string"})


if __name__ == "__main__":
    named = sys.argv[1:]
    unknown = [w for w in named if w not in params.WORKLOADS]
    if unknown:
        sys.exit(f"not a workload: {unknown}")
    table = json.loads(GOLDEN.read_text()) if named else {}
    table.update({w: run(w) for w in named or params.WORKLOADS})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
