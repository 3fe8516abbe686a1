"""Whole outputs at residue degree f > 1, of the local parameter chart and
of the default reports, pinned by the SHA-256 of their JSON.

No benchmark workload runs at f > 1, where the packed products fold their
rows by the defining polynomial, nor local_Q at f > 1 or at e = 1 on a q
capped below its fiber's precision.  Each test below builds its seeded
grid, serializes every record (or the error it raised) and compares the
digest with the pinned one; each takes about a second.  The last pins the
seed-0 harness report, apart from its wall-clock elapsed_ms, and the
README's five CLI commands, which are to stay byte-identical.
"""

import contextlib
import hashlib
import io
import json
from random import Random

import pytest

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
from qbracket import cli
from qbracket.harness import reports_to_json, run_all


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


# the README's example commands, each documented to exit 0
README_COMMANDS = (
    ["eval", "--p", "3", "--prec", "60", "--x", "-1/2", "--q", "4"],
    ["fixed-points", "--p", "3", "--q", "4"],
    ["solve-q", "--p", "5", "--e", "3", "--prec", "90", "--x", "5"],
    ["polygon", "--p", "5", "--e", "3", "--prec", "90", "--series", "series2", "--x", "5"],
    ["polygon", "--p", "3", "--prec", "60", "--series", "series1", "--q", "4"],
)


def test_default_reports_and_readme_commands():
    # the seed-0 report of every suite, and each README command's exit code,
    # stdout and stderr
    reports = [{k: v for k, v in r.items() if k != "elapsed_ms"}
               for r in json.loads(reports_to_json(run_all(seed=0)))]
    assert _digest(reports) == "97c948e6f97c10f3777609612a1b65489e5f00914b78a9e18375dd3bc219b3af"
    rows = []
    for argv in README_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        rows.append([rc, out.getvalue(), err.getvalue()])
    assert _digest(rows) == "fe4eb72f850d93c4afbc0b287e98b9cad3c38e770c5f6227e1133b60dd28a758"
