"""Spans around the program's public functions, installed from outside.

``Tracer.install`` replaces each function in TARGETS with a wrapper that
records a span (name, start, end, parent) and, for a few targets, counts the
size of the work from the arguments.  The program is not edited: a function
is replaced on its class, or in every ``cmperiods`` module that holds it, so
calls through ``from .x import f`` are seen too.  ``uninstall`` puts every
original back.

Spans live in flat arrays while the run is on and are written out once, at
the end.  A layer's self time is the duration of its spans less the time
their child spans cover.  The size of a call is counted before its span
opens, so that cost lands in the caller's self time, not the callee's.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array

# (module, qualified name, size counter) for every traced function.
TARGETS = [
    ("tate", "TateSeries.__mul__", "series_units"),
    ("tate", "TateMatrix.inverse", None),
    ("tate", "check_difference_eq", None),
    ("tate", "TateSeries.eval_theta", None),
    ("infinity", "InfElem.__mul__", "elem_units"),
    ("infinity", "InfElem.inverse", None),
    ("infinity", "InfElem.nth_root", None),
    ("infinity", "newton_roots", None),
    ("tmodule", "TModule.exp_eval", None),
    ("tmodule", "agf", None),
    ("tmodule", "de_rham_pairing", None),
    ("tmodule", "TModule.period_lattice", None),
    ("tmodule", "build_psi", None),
    ("relhunt", "find_linear_relations", "query_shape"),
    ("relhunt", "find_algebraic_relation", None),
    ("relhunt", "certify_legendre", None),
    ("special", "carlitz_period", None),
    ("special", "omega_series", None),
    ("shtuka", "solve_shtuka", None),
    ("shtuka", "build_motive", None),
    ("shtuka", "period_symbols", None),
    ("cmtypes", "CMFieldModel.points", None),
    ("fixtures", "get_fixture", None),
]

# Field operations are counted, not timed: a span per call would cost more
# than the call.
COUNTED = [("arith", "Fq.add"), ("arith", "Fq.mul")]

# The benchmark's own loop and checks, outside any traced function.
CLIENT = "client"

SPAN_FORMAT = "spans: name id int32, start float64, end float64, parent int32 (-1 = root)"


def _operand_units(x):
    return x.prec - x.lead_exp


def _series_units(a, b):
    return sum(_operand_units(c) for s in (a, b) for c in s.coeffs)


def _elem_units(a, b):
    return _operand_units(a) + _operand_units(b)


SIZE_COUNTERS = {"series_units": _series_units, "elem_units": _elem_units}


class Tracer:
    """Span recorder plus the set of installed wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.units = {}  # metric name -> summed size of the work
        self.counts = {}  # counted function -> calls
        self._patches = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _add_units(self, key, n):
        self.units[key] = self.units.get(key, 0) + n

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, size):
        nid = self.name_id(name)
        open_, close = self.open, self.close
        if size is None:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        elif size == "query_shape":
            from cmperiods.relhunt import relation_query_report

            signature = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                a = call.arguments
                shape = relation_query_report(a["values"], None, a["H"], a["margin"])
                self._add_units(name + ".rows", shape["rows"])
                self._add_units(name + ".columns", shape["columns"])
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        else:
            measure = SIZE_COUNTERS[size]
            key = name + ".operand_units"

            def wrapper(a, b):
                self._add_units(key, measure(a, b))
                idx = open_(nid)
                try:
                    return fn(a, b)
                finally:
                    close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name):
        cell = self.counts
        cell[name] = 0

        def wrapper(*args):
            cell[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module, qualname, make):
        mod = sys.modules["cmperiods." + module]
        name = f"{module}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, make(original, name))
            return
        original = getattr(mod, qualname)
        wrapper = make(original, name)
        for m_name, m in list(sys.modules.items()):
            if m_name == "cmperiods" or m_name.startswith("cmperiods."):
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def install(self):
        """Wrap every target.  Call before the first job runs."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in {m for m, _, _ in TARGETS} | {m for m, _ in COUNTED}:
            importlib.import_module("cmperiods." + module)
        for module, qualname, size in TARGETS:
            self._patch(module, qualname, lambda fn, name, size=size: self._timed(fn, name, size))
        for module, qualname in COUNTED:
            self._patch(module, qualname, self._counted)

    def uninstall(self):
        """Put every original back; returns True when all are back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches = []
        return ok

    # -- results -------------------------------------------------------------

    def self_times(self):
        """{span name: (calls, self seconds)}."""
        n = len(self.start)
        covered = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        out = {}
        for i in range(n):
            name = self.names[self.name[i]]
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + dur[i] - covered[i])
        return out

    def write(self, stem):
        """Write the spans to ``stem``.bin and their legend to ``stem``.json."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"format": SPAN_FORMAT, "count": len(self.start), "names": self.names}, fh)


def layer_metrics(tracer):
    """Per-layer metrics of a traced run, by the names BENCHMARK.json uses."""
    times = tracer.self_times()
    out = {}
    for module, qualname, size in TARGETS:
        name = f"{module}.{qualname}"
        calls, self_s = times.get(name, (0, 0.0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
        if size == "query_shape":
            out[name + ".rows"] = (tracer.units.get(name + ".rows", 0), "count")
            out[name + ".columns"] = (tracer.units.get(name + ".columns", 0), "count")
        elif size is not None:
            out[name + ".operand_units"] = (tracer.units.get(name + ".operand_units", 0), "units")
    for module, qualname in COUNTED:
        name = f"{module}.{qualname}"
        out[name + ".calls"] = (tracer.counts.get(name, 0), "count")
    out["client.self_s"] = (times.get(CLIENT, (0, 0.0))[1], "s")
    out["trace.self_sum_s"] = (sum(s for _, s in times.values()), "s")
    return out
