"""Whole outputs at residue degree f > 1, of the local parameter chart and
of the default reports, pinned by the SHA-256 of their JSON.

No benchmark workload runs at f > 1, where the packed products fold their
rows by the defining polynomial, nor local_Q at f > 1 or at e = 1 on a q
capped below its fiber's precision.  Each test below builds its seeded
grid, serializes every record (or the error it raised) and compares the
digest with the pinned one; each takes about a second.  The next pins the
seed-0 harness report, apart from its wall-clock elapsed_ms, and the
README's five CLI commands, which are to stay byte-identical.  The last
pins the benchmark's outputs at seeds 0, 1 and 2, from the same table that
CI's benchmark smoke run reads.  The seed-0 verify workload runs exactly
that report and those commands, so both pins read one cached pass.
"""

import hashlib
import importlib
import json
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from qbracket import analytic
from qbracket import (
    DomainError,
    PadicError,
    ctx_new,
    fixed_points_for_q,
    local_Q,
    q_bracket,
    q_for_x,
    q_pow,
    sample,
    series1,
)


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("call, p, e, K, f, want", [
    ("q_for_x(5)", 5, 3, 90, 2,
     "b6d201686b179e30d256725e2a5cb678409a20cade7de4cfe80fa8089bb15fee"),
    ("fixed_points_for_q(1+pi)", 5, 3, 60, 3,
     "c45845da70fe41e523965bde5c75d0fe0ff9dcdd2c8b94510646597ddd766e1e"),
    ("fixed_points_for_q(1+pi)", 7, 5, 60, 2,
     "6c1d773a32f747fd9908e04d0ac1f40032a7dfe3934591e09a5fefa27b772a87"),
    ("fixed_points_for_q(1+pi)", 7, 5, 60, 3,
     "2d3c0b18ec7a4399edc0ebfe3904d764fb9d073b13f1ef0c81accdf6f02f82f6"),
])
def test_whole_solves_at_residue_degree_above_one(call, p, e, K, f, want):
    # the JSON records of four solves over unramified extensions
    c = ctx_new(p, e, K, f)
    if call == "q_for_x(5)":
        out = q_for_x(c.from_int(5))
    else:
        out = fixed_points_for_q(c.one() + c.uniformizer())
    assert _digest([r.to_json() for r in out]) == want


def test_parameter_fibers_and_local_Q_across_residue_degrees_and_ramification():
    # q_for_x and local_Q on a seeded grid, f in {1, 2, 3}, e in {1, 3, 5},
    # each q of the fiber full and capped by 2e, and gaps v(x' - x) from 1
    # to 2e
    rng = Random(20)
    rows = []
    for f in (1, 2, 3):
        for e in (1, 3, 5):
            p = 5 if (f, e) == (1, 3) else 3
            c = ctx_new(p, e, 20 * e, f)
            x = sample(c, rng, residue=1 if f == 1 else (1,) * f)
            try:
                out = q_for_x(x)
            except PadicError as exc:
                rows.append(str(exc))
                continue
            rows.append([r.to_json() for r in out])
            for rec in out[:2]:
                for q in (rec.q, rec.q._cap_prec(rec.q.prec - 2 * e)):
                    for gap in range(1, 2 * e + 1):
                        try:
                            rows.append(local_Q(x, q, x + sample(c, rng, valuation=gap)).to_json())
                        except PadicError as exc:
                            rows.append(str(exc))
    assert _digest(rows) == "a0bad1bf080ae856783b034ad55e62d2a0a0bb6447fc7d6d5e5573214f5f2c48"


def test_brackets_powers_and_jets_at_residue_degree_above_one():
    # q_bracket, q_pow and series1 against a residue field larger than F_p,
    # on a seeded grid of every kind of q and x
    rng = Random(19)
    rows = []
    for p, e, f in ((3, 1, 2), (5, 1, 3), (3, 2, 2), (5, 2, 3), (3, 5, 2), (5, 5, 3)):
        c = ctx_new(p, e, 30 * e, f)
        lo = e // (p - 1) + 1
        qs = [c.one() + sample(c, rng, valuation=lo), c.one() + sample(c, rng, valuation=lo + 1),
              (c.one() + sample(c, rng, valuation=lo))._cap_prec(c.K - e), c.one()]
        xs = [c.from_int(rng.randrange(1, 10)), c.from_int(p * rng.randrange(1, 10)),
              c.from_int(rng.randrange(p ** 12)), c.from_rational(-1, 2),
              sample(c, rng, residue=(2,) + (0,) * (f - 1)), sample(c, rng),
              sample(c, rng, valuation=1), sample(c, rng, valuation=e),
              sample(c, rng)._cap_prec(c.K // 2), c.zero(c.K - 1)]
        for q in qs:
            for x in xs:
                row = []
                for call in (lambda: q_bracket(x, q).to_json(), lambda: q_pow(x, q).to_json(),
                             lambda: [a.to_json() for a in series1(x, q, 3).coeffs]):
                    try:
                        row.append(call())
                    except DomainError as exc:
                        row.append(str(exc))
                rows.append(row)
    assert _digest(rows) == "7c65b630a5bef85213de11fbae325b46386b5f64016ab8cdff0d9840ad7f95e3"


@pytest.fixture(scope="session")
def workload_results():
    """A lookup of each distinct op of a perfbench workload's plan, in plan
    order, with the op's first result, as run.py takes them; each plan runs
    once per session.  ``first.calls[workload, seed][key]`` counts the
    ``analytic.exp`` and ``analytic.log1p`` calls of that first run."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
    cache, calls = {}, {}

    def first(workload: str, seed: int) -> dict:
        if (workload, seed) not in cache:
            plan = workloads.build(workload, seed)
            cache[workload, seed], calls[workload, seed] = {}, {}
            for op in plan.round_ops + plan.pass_ops:
                if op.key not in cache[workload, seed]:
                    count = calls[workload, seed][op.key] = Counter()
                    with pytest.MonkeyPatch.context() as mp:
                        for name in ("exp", "log1p"):
                            fn = getattr(analytic, name)
                            mp.setattr(analytic, name, lambda z, fn=fn, name=name:
                                       count.update((name,)) or fn(z))
                        cache[workload, seed][op.key] = (op, op.call())
        return cache[workload, seed]

    first.calls = calls
    return first


def test_default_reports_and_readme_commands(workload_results):
    # the seed-0 report of every suite, and each README command's exit code,
    # stdout and stderr, as the seed-0 verify workload ran them
    results = workload_results("verify", 0)
    rc, out, _ = results["verify"][1]
    assert rc == 0
    reports = [{k: v for k, v in r.items() if k != "elapsed_ms"}
               for r in json.loads(out)["suites"]]
    assert _digest(reports) == "e418205b8cf5ea4fc4bd6d7190f98a66b5cd054e90fdd3226a497f307aa29a97"
    rows = [list(res) for key, (_, res) in results.items() if key.startswith("readme.")]
    assert _digest(rows) == "615815478882660b9879ae706813ee9246306fe4c1c9c0c92acbcd4cbd0e9bf4"


def test_q_power_splits_make_the_pinned_exp_and_log1p_calls(workload_results):
    # which n each q^x takes as q^n exp((x - n) log q) sets the exp and log1p
    # calls: those of the seed-0 verify pass, run_all(seed=0), and of one
    # seed-0 bracket-grid round, whose 60 ops are distinct and which has no
    # pass.  A fiber solved in X takes log q from its Psi_0, so the 65
    # fixed_points_for_q calls of the pass that certify a record take no
    # log1p (734 before)
    workload_results("verify", 0)
    assert workload_results.calls["verify", 0]["verify"] == {"exp": 700, "log1p": 669}
    grid = workload_results("bracket-grid", 0)
    assert len(grid) == 60
    assert sum(workload_results.calls["bracket-grid", 0].values(), Counter()) == {
        "exp": 30, "log1p": 30}


# The SHA-256 of each benchmark workload's outputs, as perfbench/run.py
# reports it, at seeds 0, 1 and 2.  CI's benchmark smoke run checks run.py
# against this table.
BENCHMARK_DIGESTS = {
    ("bracket-grid", 0): "e17b068115da3381e5d7745fe8f17d6c5fc5a558d4110b21f7b5552c6604f080",
    ("bracket-grid", 1): "b3dc18b73b9a1347c2c679f14e99c45d29dec33e0c0c45caa9e8f55a8c156396",
    ("bracket-grid", 2): "73e76816b187f9d4cc79e5a9da8a36a4fd359e750a2fd24e493e99cbb63cc2d6",
    ("fixed-points", 0): "8566410c78906b1c8d6510968f5547dab9d4e6e941bba98e486e38723f98053d",
    ("fixed-points", 1): "70a032697dda8877a060733c83666764c1a6b2582c84dabbecb9fff6a9dbc3c7",
    ("fixed-points", 2): "d20c7defc8e2ddab0a6174ca64690cafed4c907b75500bdeace5c43afd516d06",
    ("param-fiber", 0): "3e5ce4e8f430323b33fb4f015a354faaf2e2a4775eea089688523c050cb455db",
    ("param-fiber", 1): "fef68b2f4f49937c18ece41f47f4680bbfa1cd02c972e4253e29446bfa6f6dbe",
    ("param-fiber", 2): "62bfd47c58161ea42ec5b2bb06a29c0619597ebd2fd989c707fca585b132f9d0",
    ("verify", 0): "390f26e5120b362447590df8da718109478363d46dba355eab60b0b59cc1b489",
    ("verify", 1): "e05a6ab91ced9f8f80599e0935fe05ae6bd58576a987b775f471781d202f5e80",
    ("verify", 2): "5095f18c3a62649e8f2f36dacf71d9720e8734367c10397dcead94ff58581e75",
}


@pytest.mark.parametrize("workload, seed", list(BENCHMARK_DIGESTS))
def test_benchmark_digests(workload_results, workload, seed):
    # run.py's digest: the first rendered result of each distinct op, over
    # the round and pass ops, joined by newlines in key order
    first = workload_results(workload, seed)
    blob = "\n".join(op.render(res) for op, res in (first[k] for k in sorted(first)))
    assert hashlib.sha256(blob.encode()).hexdigest() == BENCHMARK_DIGESTS[workload, seed]
