"""Run the benchmark on two source trees in interleaved pairs and write BENCH_<tag>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pair.py --parent ../parent --change . --tag mychange \\
        --plan fixed-points:10,param-fiber:5,bracket-grid:5,verify:5 --seed 800 \\
        --what "..." --claim "..."

Pair i of a workload runs ``perfbench/run.py --workload W --seed S+i
--seconds T`` once in each tree, T the ``run_seconds`` of ``BENCHMARK.json``,
each from its own directory, the parent first when i is even and the change
first when i is odd; every workload takes at least 2 pairs.  The summary
gives, per workload and end-to-end metric of ``BENCHMARK.json``, each tree's
quartiles, the change/parent ratio of the medians, the number of pairs in
which the change is better and the metric's verdict: "unresolved" when the
parent's quartile spread q3 - q1 is wider than the bound times its median,
unless every change run is better than every parent run, else "within
bound" or "outside bound" by the ratio.  ``gain`` is true when
the change is better in at least 9 pairs in 10 and its median is better by
more than the parent's spread.  A ``verify`` run whose ``wall_s`` is at
least 20 % below its tree's median in the batch is flagged: that pass is one
sample per run, and such low runs come about once in ten on either tree.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

LOW_WALL = 0.8  # a verify wall_s at or below this share of its tree's median is flagged
MIN_PAIRS = 2  # the fewest pairs that have quartiles


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=Path, help="source tree of the parent")
    ap.add_argument("--change", required=True, type=Path, help="source tree of the change")
    ap.add_argument("--tag", required=True, help="the file written is BENCH_<tag>.json")
    ap.add_argument("--plan", required=True,
                    help="comma-separated workload:pairs, run in this order")
    ap.add_argument("--seed", type=int, default=0, help="pair i runs seed SEED + i")
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--claim", default="none", help="the gain claimed, or none")
    return ap.parse_args(argv)


def _git(tree: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _tree_label(tree: Path) -> str:
    """The commit of a checkout whose root is ``tree``, and whether its src/
    has uncommitted changes; the directory's name for any other tree."""
    try:
        if Path(_git(tree, "rev-parse", "--show-toplevel")) != tree.resolve():
            return tree.resolve().name
        head = _git(tree, "rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return tree.resolve().name
    return f"{head} with uncommitted changes under src/" if _git(
        tree, "status", "--porcelain", "src") else head


def _one_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its report and verdict lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    lines = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    report, verdict = json.loads(lines[-2]), json.loads(lines[-1])
    return {"digest_sha256": report["digest_sha256"], "speed": report["speed"],
            "cell_p50_ms": report["cell_p50_ms"], "correct": verdict["correct"],
            "attempted": verdict["attempted"], "failed": verdict["failed"],
            "metrics": {k: v["value"] for k, v in verdict["metrics"].items()}}


def _quartiles(xs: list) -> list:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 4), round(med, 4), round(q3, 4)]


def summarize(workload: str, runs: list, metrics: list) -> dict:
    """The summary of one workload's pairs: quartiles, ratio, wins, verdict
    and gain per metric, and for ``verify`` the runs of a low ``wall_s``."""
    by = {tree: {r["pair"]: r for r in runs if r["tree"] == tree} for tree in ("parent", "change")}
    pairs = sorted(set(by["parent"]) & set(by["change"]))
    if len(pairs) < MIN_PAIRS:
        raise ValueError(f"{workload}: {len(pairs)} pairs; quartiles need at least {MIN_PAIRS}")
    out = {
        "pairs": len(pairs),
        "digests_equal": all(by["parent"][i]["digest_sha256"] == by["change"][i]["digest_sha256"]
                             for i in pairs),
        "failed_ops": {tree: sum(r["failed"] for r in by[tree].values()) for tree in by},
    }
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [by["parent"][i]["metrics"][name] for i in pairs]
        chg = [by["change"][i]["metrics"][name] for i in pairs]
        (q1, med, q3), chg_med = _quartiles(par), statistics.median(chg)
        ratio, spread, wins = chg_med / med, q3 - q1, sum(
            (c < p) if lower else (c > p) for p, c in zip(par, chg))
        clear = max(chg) < min(par) if lower else min(chg) > max(par)
        if spread > m["bound"] * med and not clear:
            verdict = "unresolved"
        else:
            within = ratio <= 1 + m["bound"] if lower else ratio >= 1 - m["bound"]
            verdict = "within bound" if within else "outside bound"
        gap = med - chg_med if lower else chg_med - med  # > 0 when the change is better
        out[name] = {
            "parent_q1_median_q3": [q1, med, q3],
            "change_q1_median_q3": _quartiles(chg),
            "change_over_parent_median": round(ratio, 4),
            "change_better_in_pairs": wins,
            "bound": m["bound"],
            "verdict": verdict,
            "median_gain_over_parent_spread": [round(gap, 4), round(spread, 4)],
            "gain": 10 * wins >= 9 * len(pairs) and gap > spread,
        }
    if workload == "verify":
        out["low_wall_s_runs"] = []
        for tree, rows in by.items():
            med = statistics.median(r["metrics"]["wall_s"] for r in rows.values())
            out["low_wall_s_runs"] += [
                {"tree": tree, "seed": r["seed"], "wall_s": r["metrics"]["wall_s"],
                 "tree_median_wall_s": med}
                for r in rows.values() if r["metrics"]["wall_s"] <= LOW_WALL * med]
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    trees = {"parent": args.parent, "change": args.change}
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    plan = [(w, int(n)) for w, n in (item.split(":") for item in args.plan.split(","))]
    short = [w for w, n in plan if n < MIN_PAIRS]
    if short:
        raise SystemExit(f"--plan: {', '.join(short)} need at least {MIN_PAIRS} pairs")
    seconds = bench["run_seconds"]
    runs, summary = [], {}
    for batch, (workload, n) in enumerate(plan, 1):
        batch_runs = []
        for i in range(n):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for tree in order:
                row = {"batch": batch, "workload": workload, "seed": seed, "pair": i,
                       "tree": tree}
                row.update(_one_run(trees[tree], workload, seed, seconds))
                batch_runs.append(row)
                print(workload, seed, tree, json.dumps(row["metrics"]), file=sys.stderr)
        summary[f"batch {batch}, {workload} seeds {args.seed}-{args.seed + n - 1}"] = summarize(
            workload, batch_runs, bench["end_to_end"])
        runs += batch_runs
    doc = {
        "what": args.what,
        "claim": args.claim,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds}",
        "trees": {tree: _tree_label(path) for tree, path in trees.items()},
        "order": "pair i runs both trees on one seed, parent first when i is even; "
                 "every run made is listed",
        "machine": f"{os.cpu_count()}-CPU {platform.system()}, Python "
                   f"{platform.python_version()}; every time is scaled by perfbench/speed.py",
        "summary": summary,
        "runs": runs,
    }
    out = Path(f"BENCH_{args.tag}.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
