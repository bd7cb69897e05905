"""Whole CLI reports against recorded ones, byte for byte.

Each invocation's JSON report, less `timing_ms`, must equal the one in
`golden/cli_payloads.json`, together with the exit code.  A change that
alters a payload on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden_payloads.py

and says so in CHANGES.md.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cmperiods.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_payloads.json"

INVOCATIONS = [
    "cm points --example kummer-t:3",
    "cm xi0 --example kummer-t:5 --q 5",
    "shtuka build --example kummer-t:3",
    "shtuka build --example const-ext:2",
    "shtuka build --example carlitz-tensor:3 --q 4",
    "shtuka check --example kummer-t:5",
    "shtuka check --example const-ext:2",
    "periods --example kummer-t:3 --q 4 --prec 60 --trunc 12",
    "periods --example const-ext:2 --prec 60 --trunc 12",
    "periods --example carlitz-tensor:2 --q 4 --prec 60 --trunc 12",
    "qp --example kummer-t:3 --prec 60 --trunc 24",
    "qp --example carlitz --prec 60 --trunc 24",
    "legendre --example kummer-t:3 --prec 60 --trunc 12 --height 10",
    "pitilde --prec 40",
    "omega --prec 40 --trunc 8",
    "gamma --x 1/(theta+1) --prec 40",
]


def run(invocation):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(invocation.split() + ["--json"])
    report = json.loads(buf.getvalue())
    del report["timing_ms"]
    return {"exit": code, "report": report}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_payload_matches_golden(invocation, golden):
    got = json.dumps(run(invocation), indent=1, sort_keys=True)
    want = json.dumps(golden[invocation], indent=1, sort_keys=True)
    assert got == want


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({inv: run(inv) for inv in INVOCATIONS}, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
