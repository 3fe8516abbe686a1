"""Spans around the library's layer boundaries, recorded from outside.

``Tracer.install`` replaces the layer entry points named in ``METHODS``
and ``FUNCTIONS`` with wrappers.  Each call above the core layer becomes
a span (name, start, end, parent) kept in flat arrays until the run
ends.  Core ring operations run millions of times per op, so they are
counted and timed at the same boundary but not stored one by one: each
stored span carries the number and time of the core calls made directly
under it.  Every benchmark op runs under a root span ``op.<cell>``, so
the spans of one op share that root.  Calls, self time (duration minus
child time) and the derived solver figures are summed as spans close.
Only the traced child process installs wrappers; the timed end-to-end
run never does.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

import qbracket.analytic as analytic
import qbracket.cli as cli
import qbracket.core as core
import qbracket.harness as harness
import qbracket.polygon as polygon
import qbracket.solver as solver

from workloads import GRID, cell_name

# span name -> (owner, attribute).  Several attributes may share a name:
# `-` is `+` of a negation, and series2 wraps the monomial builder.
METHODS = (
    ("core.mul", core.PadicNumber, "__mul__"),
    ("core.add", core.PadicNumber, "__add__"),
    ("core.add", core.PadicNumber, "__sub__"),
    ("core.add", core.PadicNumber, "__neg__"),
    ("core.inv", core.PadicNumber, "inv"),
    ("core.div_int", core.PadicNumber, "_div_int"),
    ("analytic.evaluate", analytic.TruncatedSeries, "evaluate"),
)
FUNCTIONS = (
    ("analytic.exp", analytic, "exp"),
    ("analytic.log1p", analytic, "log1p"),
    ("analytic.q_pow", analytic, "q_pow"),
    ("analytic.q_bracket", analytic, "q_bracket"),
    ("analytic.series1", analytic, "series1"),
    ("analytic.series2", analytic, "series2"),
    ("analytic.series2", analytic, "_series2_monomials"),
    ("polygon.zero_count", polygon, "unit_disk_zero_count"),
    ("polygon.build", polygon, "polygon_build"),
    ("solver.fixed_points_for_q", solver, "fixed_points_for_q"),
    ("solver.q_for_x", solver, "q_for_x"),
    ("solver.local_Q", solver, "local_Q"),
    ("cli.main", cli, "main"),
)
COUNTED = ("core.mul", "core.add", "core.inv", "core.div_int",
           "analytic.exp", "analytic.log1p", "analytic.q_pow", "analytic.q_bracket",
           "analytic.series1", "analytic.series2", "analytic.evaluate",
           "polygon.zero_count", "polygon.build",
           "solver.fixed_points_for_q", "solver.q_for_x", "solver.local_Q", "cli.main")
CORE = ("core.mul", "core.add", "core.inv", "core.div_int")
CERTIFY = ("analytic.q_bracket", "analytic.q_pow", "analytic.log1p")
SOLVER_RESULTS = ("solver.fixed_points_for_q", "solver.q_for_x")


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in COUNTED:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(f"core.mul.us_per_call.{cell_name(p, e, K)}", "us") for p, e, K, _ in GRID]
    out += [("solver.lift_s", "s"), ("solver.certify_s", "s"),
            ("solver.evals_per_record", "count"), ("solver.records", "count"),
            ("solver.root_yield", "ratio")]
    out += [(f"harness.suite.{sid}.wall_s", "s") for sid in harness.SUITE_IDS]
    out += [("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
            ("trace.overhead_ops_per_s", "1/s")]
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        # stored spans
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.core_calls = array("l")
        self.core_s = array("d")
        # open calls: [stored index or -1 for core, name id, child seconds]
        self._stack: list = []
        # running totals by name id
        self._calls: list = []
        self._self_s: list = []
        self._total_s: list = []
        self._kind: list = []        # "core", "solver", "certify", "evaluate" or ""
        self._cell = -1              # name id of the op span in progress
        self._mul: dict = {}         # op name id -> [core.mul calls, seconds]
        self._split: dict = {}       # op name id -> [lift seconds, certify seconds]
        self.lift_s = self.certify_s = 0.0
        self.evals = self.records = self.predicted = 0

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._self_s.append(0.0)
            self._total_s.append(0.0)
            self._kind.append("core" if name in CORE else
                              "solver" if name.startswith("solver.") else
                              "certify" if name in CERTIFY else
                              "evaluate" if name == "analytic.evaluate" else "")
        return nid

    def run(self, nid: int, fn, args, kw):
        """Call fn under a span named names[nid].

        The parent is charged the whole wrapper time, bookkeeping
        included, so tracing cost stays out of every self time."""
        ta = perf_counter()
        stack = self._stack
        core = self._kind[nid] == "core"
        if core:
            i = -1
        else:
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.core_calls.append(0)
            self.core_s.append(0.0)
        frame = [i, nid, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kw)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._close(frame, t0, t1)
            if stack:
                stack[-1][2] += perf_counter() - ta

    def _close(self, frame, t0: float, t1: float) -> None:
        i, nid, child = frame
        dur = t1 - t0
        self._calls[nid] += 1
        self._self_s[nid] += dur - child
        self._total_s[nid] += dur
        kind = self._kind[nid]
        up = self._stack[-1] if self._stack else None
        if i >= 0:
            self.start[i] = t0
            self.end[i] = t1
        if kind == "core":
            # the closest stored frame owns the call; nested core calls
            # (`-` is `+` of a negation) add to its count, not its time
            owner = next((f[0] for f in reversed(self._stack) if f[0] >= 0), -1)
            if owner >= 0:
                self.core_calls[owner] += 1
                if up[0] >= 0:
                    self.core_s[owner] += dur
            if nid == self._mul_id:
                m = self._mul.setdefault(self._cell, [0, 0.0])
                m[0] += 1
                m[1] += dur
        elif up is not None and self._kind[up[1]] == "solver":
            split = self._split.setdefault(self._cell, [0.0, 0.0])
            if kind == "evaluate":
                self.lift_s += dur
                self.evals += 1
                split[0] += dur
            elif kind == "certify":
                self.certify_s += dur
                split[1] += dur

    def op(self, cell: str, fn):
        self._cell = self._nid(f"op.{cell}")
        return self.run(self._cell, fn, (), {})

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        run = self.run
        if name in SOLVER_RESULTS:
            def wrapper(*args, **kw):
                out = run(nid, fn, args, kw)
                self.records += len(out)
                self.predicted += out.predicted
                return out
        else:
            def wrapper(*args, **kw):
                return run(nid, fn, args, kw)
        return wrapper

    def _wrap_suite(self, fn):
        run = self.run

        def wrapper(suite_id, *args, **kw):
            return run(self._nid(f"harness.suite.{suite_id}"), fn, (suite_id,) + args, kw)
        return wrapper

    def install(self) -> None:
        self._mul_id = self._nid("core.mul")
        for name, cls, attr in METHODS:
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))
        patches = [(getattr(mod, attr), self._wrap(name, getattr(mod, attr)))
                   for name, mod, attr in FUNCTIONS]
        patches.append((harness.run_suite, self._wrap_suite(harness.run_suite)))
        # callers hold their own references (`from .analytic import q_bracket`)
        mods = [m for k, m in sys.modules.items() if k == "qbracket" or k.startswith("qbracket.")]
        for orig, wrapper in patches:
            for mod in mods:
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, k, wrapper)

    def _get(self, table: list, name: str):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def metrics(self) -> dict:
        """Per-layer totals over every call recorded."""
        out = {}
        for name in COUNTED:
            out[f"{name}.calls"] = self._get(self._calls, name)
            out[f"{name}.self_s"] = float(self._get(self._self_s, name))
        for p, e, K, _ in GRID:
            cell = cell_name(p, e, K)
            n, secs = self._mul.get(self._ids.get(f"op.{cell}"), (0, 0.0))
            out[f"core.mul.us_per_call.{cell}"] = 1e6 * secs / n if n else 0.0
        out["solver.lift_s"] = self.lift_s
        out["solver.certify_s"] = self.certify_s
        out["solver.evals_per_record"] = self.evals / self.records if self.records else 0.0
        out["solver.records"] = self.records
        out["solver.root_yield"] = self.records / self.predicted if self.predicted else 0.0
        for sid in harness.SUITE_IDS:
            out[f"harness.suite.{sid}.wall_s"] = float(
                self._get(self._total_s, f"harness.suite.{sid}"))
        return out

    def cells(self) -> dict:
        """Per op cell: op seconds, mean core.mul microseconds, and the
        lift and certification shares of the op time."""
        out = {}
        for nid, name in enumerate(self.names):
            if not name.startswith("op."):
                continue
            op_s = self._total_s[nid]
            muls, mul_s = self._mul.get(nid, (0, 0.0))
            lift, cert = self._split.get(nid, (0.0, 0.0))
            out[name[3:]] = {"ops": self._calls[nid], "op_s": op_s,
                             "mul_us": 1e6 * mul_s / muls if muls else 0.0,
                             "lift_share": lift / op_s, "certify_share": cert / op_s}
        return out

    def dump(self, path) -> None:
        """Write the stored spans as gzipped TSV, times relative to the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        rows = zip(self.name, self.start, self.end, self.parent, self.core_calls, self.core_s)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("index\tname\tstart_s\tend_s\tparent\tcore_calls\tcore_s\n")
            for i, (nid, a, b, j, cc, cs) in enumerate(rows):
                f.write(f"{i}\t{self.names[nid]}\t{a - t0:.9f}\t{b - t0:.9f}\t{j}\t{cc}\t{cs:.9f}\n")
