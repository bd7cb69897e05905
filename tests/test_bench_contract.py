"""The benchmark in perfbench/ traces program functions by name; every
name it lists must still exist, or its traced runs fail."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_traced_names_resolve():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        assert tracer.uninstall()
