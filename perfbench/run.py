#!/usr/bin/env python3
"""The qbracket benchmark: one workload, one closed-loop caller, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Every input is generated from ``--seed``.  The run sets up
(import, contexts, inputs, one warm-up op per cell) SETUP_REPS times and
reports the median, then calls the library in a closed loop: one thread,
the next op starts when the previous one returns.  It runs whole rounds
until they have taken ``--seconds`` and MIN_OPS ops are done, then checks
every result with the workload's oracles outside the timed region.
Every time is scaled to a fixed machine speed, read from a reference
loop timed before each op and every 0.1 s during one (``speed.py``).

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics.  With ``--trace 1`` the same untraced run is made first, then a
child process installs span wrappers and runs the pass and one round
traced (``--traced-child``); the last line carries the per-layer metrics.  The
line before the last is a readable report: mix, sample counts,
fail_ratio, root_yield and the SHA-256 digest of the rendered outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = (3, 9)   # set-ups per run: at least 3, up to 9 while under 2 s in total
MIN_OPS = 100          # so p90 keeps >= 10 samples beyond it
RUN_LIMIT_S = 170      # the traced child is stopped before the run passes this
WORKLOADS = ("bracket-grid", "fixed-points", "param-fiber", "verify")


def _parse(argv) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--traced-child", action="store_true",
                    help="internal: run the pass and one round with span wrappers")
    return ap.parse_args(argv)


def _import_library() -> float:
    """Import qbracket from this checkout's src/ and return the import time."""
    src = ROOT / "src"
    if not (src / "qbracket" / "__init__.py").is_file():
        sys.exit(f"error: no qbracket sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import qbracket.cli  # noqa: F401  (cli imports every layer)
    return perf_counter() - t0


class Run:
    """Latencies, outputs and failures of one measured run."""

    def __init__(self):
        self.clock = speed.Clock()
        self.spans: list = []        # per call: (start, end) in perf_counter time
        self.rounds: list = []       # per round: [(op, call index)] of its ops
        self.pass_calls: list = []   # call indices of the pass ops
        self.pass_at = 0             # index of the round that follows the pass
        self.first: dict = {}        # op key -> (op, result, rendered)
        self.attempted = 0
        self.bad: dict = {}          # op key -> failure reason
        self.failed_ops = 0
        self.uses: dict = {}         # op key -> results equal to the first
        self.found = self.predicted = 0

    def call(self, plan, op, tracer=None) -> int:
        """Time one op; return its call index."""
        self.attempted += 1
        i = len(self.spans)
        self.clock.tick()
        t0 = perf_counter()
        try:
            res = tracer.op(op.cell, op.call) if tracer else op.call()
        except Exception as ex:  # an op that raises is a failed op
            self.spans.append((t0, perf_counter()))
            self.failed_ops += 1
            self.bad.setdefault(op.key, f"{type(ex).__name__}: {ex}")
            return i
        self.spans.append((t0, perf_counter()))
        text = op.render(res)
        if op.key not in self.first:
            self.first[op.key] = (op, res, text)
        elif self.first[op.key][2] != text:
            self.failed_ops += 1
            self.bad.setdefault(op.key, "result differs from the first call on this input")
            return i
        self.uses[op.key] = self.uses.get(op.key, 0) + 1
        if plan.root_yield:
            found, predicted = plan.root_yield(res)
            self.found += found
            self.predicted += predicted
        return i

    def scaled(self, i: int) -> float:
        """Call i's time at the reference speed."""
        return self.clock.scaled(*self.spans[i])

    def unscaled(self, i: int) -> float:
        t0, t1 = self.spans[i]
        return t1 - t0

    def digest(self) -> str:
        blob = "\n".join(self.first[k][2] for k in sorted(self.first))
        return hashlib.sha256(blob.encode()).hexdigest()


def measure(plan, seconds: float, rounds: int | None = None, tracer=None) -> Run:
    """Whole rounds: `rounds` of them, or until they have taken `seconds`
    and at least MIN_OPS round ops are done.  The pass ops run once,
    halfway through the required rounds, so the rounds sample the machine
    both before and after a long pass; the pass's own time does not count
    toward `seconds`."""
    run = Run()
    start = perf_counter()
    need = rounds or -(-MIN_OPS // len(plan.round_ops))
    with run.clock:
        while True:
            if len(run.rounds) == need // 2:
                run.pass_at = len(run.rounds)
                t0 = perf_counter()
                run.pass_calls = [run.call(plan, op, tracer) for op in plan.pass_ops]
                start += perf_counter() - t0
            run.rounds.append([(op, run.call(plan, op, tracer)) for op in plan.round_ops])
            if len(run.rounds) >= need and (rounds or perf_counter() - start >= seconds):
                return run


def timed(run: Run) -> list:
    """(cell, scaled seconds) of every round call."""
    return [(op.cell, run.scaled(i)) for rnd in run.rounds for op, i in rnd]


def check(plan, run: Run) -> int:
    """Oracles on the first result of each distinct op; returns failed ops.

    A wrong first result fails every op that repeated it."""
    failed = run.failed_ops
    for key, (op, res, _) in run.first.items():
        if key in run.bad:
            continue
        try:
            reason = plan.oracle(op, res)
        except Exception as ex:  # an oracle that cannot run counts as a failure
            reason = f"oracle raised {type(ex).__name__}: {ex}"
        if reason:
            run.bad[key] = reason
            failed += run.uses[key]
    return failed


def _quantile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, setup_s: float) -> dict:
    lat = [dt for _, dt in timed(run)]
    if run.pass_calls:
        wall = sum(run.scaled(i) for i in run.pass_calls + [i for _, i in run.rounds[run.pass_at]])
    else:
        wall = sum(lat) * len(run.rounds[0]) / len(lat)   # the mean round
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
        "op_p90_ms": {"value": 1e3 * _quantile(lat, 90), "unit": "ms"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def report(args, plan, run: Run, failed: int) -> dict:
    ops = timed(run)
    lat = [dt for _, dt in ops]
    raw = [run.unscaled(i) for rnd in run.rounds for _, i in rnd]
    p90 = _quantile(lat, 90)
    cells: dict = {}
    for cell, dt in ops:
        cells.setdefault(cell, []).append(dt)
    return {
        "workload": args.workload, "seed": args.seed,
        "mix": {c: len(v) for c, v in cells.items()},
        "cell_p50_ms": {c: round(1e3 * statistics.median(v), 3) for c, v in cells.items()},
        "rounds": len(run.rounds),
        "op_samples": len(lat), "op_p90_beyond": sum(dt > p90 for dt in lat),
        "speed": run.clock.overall(),
        "unscaled_ops_per_s": len(raw) / sum(raw),
        "fail_ratio": failed / run.attempted,
        "root_yield": (f"{run.found}/{run.predicted}" if plan.root_yield else None),
        "failures": dict(list(run.bad.items())[:5]),
        "digest_sha256": run.digest(),
    }


def traced_child(args) -> None:
    """Set up, install the wrappers, run the pass and one round traced."""
    import spans
    import workloads
    plan = workloads.build(args.workload, args.seed)
    plan.warm()
    tracer = spans.Tracer()
    tracer.install()
    run = measure(plan, 0.0, rounds=1, tracer=tracer)
    lat = [dt for _, dt in timed(run)]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    print(json.dumps({"metrics": tracer.metrics(), "cells": tracer.cells(),
                      "ops_per_s": len(lat) / sum(lat),
                      "digest": run.digest(), "attempted": run.attempted,
                      "failed": run.failed_ops}))


def main(argv=None) -> int:
    started = perf_counter()
    args = _parse(argv)
    import_s = _import_library()
    if args.traced_child:
        traced_child(args)
        return 0
    import workloads

    spans = []
    with speed.Clock() as clock:
        while len(spans) < SETUP_REPS[0] or (len(spans) < SETUP_REPS[1]
                                            and perf_counter() - spans[0][0] < 2.0):
            clock.tick()
            t0 = perf_counter()
            plan = workloads.build(args.workload, args.seed)
            plan.warm()
            spans.append((t0, perf_counter()))
    setup_s = import_s * clock.overall() + statistics.median(clock.scaled(*s) for s in spans)

    run = measure(plan, args.seconds)
    failed = check(plan, run)
    metrics = end_to_end(run, setup_s)
    info = report(args, plan, run, failed)
    attempted = run.attempted

    if args.trace:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--traced-child"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=max(RUN_LIMIT_S - (perf_counter() - started), 10))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: traced child exited with {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        attempted += child["attempted"]
        failed += child["failed"]
        if child["digest"] != info["digest_sha256"]:
            failed += child["attempted"]
            info["failures"]["traced"] = "traced outputs differ from untraced outputs"
        info["traced_cells"] = child["cells"]
        untraced = metrics["ops_per_s"]["value"]
        import spans
        values = dict(child["metrics"])
        values.update({"trace.untraced_ops_per_s": untraced,
                       "trace.traced_ops_per_s": child["ops_per_s"],
                       "trace.overhead_ops_per_s": untraced - child["ops_per_s"]})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.per_layer_names()}

    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
