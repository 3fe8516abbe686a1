"""The benchmark's four workloads.

Each workload builds, from its seed alone, a *round*: a fixed list of
ops laid out by the workload's mix.  An op is one closed-loop call into
the library's public modules.  Every op's input is kept to 2K pi-units,
so the oracles can repeat the same call at doubled precision.  The
oracles run outside the timed region, on the first result of each
distinct op.  A later result of that op must render byte-identically to
the first, so every result is checked.

The library is reached only through module attributes
(``analytic.q_bracket``, ``solver.fixed_points_for_q``, ``cli.main``),
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from random import Random

import qbracket.analytic as analytic
import qbracket.cli as cli
import qbracket.core as core
import qbracket.solver as solver

# Mixes: (p, e, K, weight) or (p, e, K, t|base, weight).  A round holds
# `weight * POOL` distinct ops per cell or leg.  The weights keep p50 and
# p90 inside a latency cluster rather than on the gap between two; the
# measured clusters and the reasons are in README.md.
GRID = ((3, 1, 60, 3), (5, 3, 180, 3), (3, 1, 480, 2), (5, 10, 600, 2))
FP_LEGS = ((3, 1, 60, 1, 4), (3, 4, 120, 3, 9), (5, 3, 90, 1, 4), (5, 10, 200, 3, 3))
PF_LEGS = ((3, 1, 60, 1, 3), (3, 4, 120, 2, 4), (5, 3, 90, 5, 3))
POOL = {"bracket-grid": 6, "fixed-points": 2, "param-fiber": 2}
X_KINDS = ("int", 0, 1, 2)    # bracket-grid x: an integer, or v(x) in pi-units

README_COMMANDS = (
    ("eval", ["eval", "--p", "3", "--prec", "60", "--x", "-1/2", "--q", "4"]),
    ("fixed-points", ["fixed-points", "--p", "3", "--q", "4"]),
    ("solve-q", ["solve-q", "--p", "5", "--e", "3", "--prec", "90", "--x", "5"]),
    ("polygon-series2", ["polygon", "--p", "5", "--e", "3", "--prec", "90",
                         "--series", "series2", "--x", "5"]),
    ("polygon-series1", ["polygon", "--p", "3", "--prec", "60", "--series", "series1",
                         "--q", "4"]),
)
README_EXIT = 0          # the README documents exit code 0 for every example


def cell_name(p: int, e: int, K: int) -> str:
    return f"p{p}e{e}K{K}"


class Lit:
    """The literal base + pi^val * sum(digits[k] pi^k), digits known to 2K."""

    __slots__ = ("base", "val", "digits")

    def __init__(self, base: int, val: int = 0, digits: tuple = ()):
        self.base, self.val, self.digits = base, val, tuple(digits)

    def at(self, ctx):
        v = ctx.from_int(self.base)
        if self.digits:
            v = v + ctx.from_digits(self.val, self.digits[:ctx.K - self.val], ctx.K)
        return v


def _lit(rng: Random, p: int, K: int, val: int, base: int = 0, lead: int | None = None) -> Lit:
    """A seeded literal with exact perturbation valuation `val`.

    `lead` fixes the leading digit; the solver's path depends on it."""
    first = rng.randrange(1, p) if lead is None else lead
    return Lit(base, val, [first] + [rng.randrange(p) for _ in range(2 * K - val - 1)])


class Op:
    """One timed call; `key` names its distinct input."""

    __slots__ = ("key", "cell", "call", "render", "spec")

    def __init__(self, key, cell, call, render, spec=None):
        self.key, self.cell, self.call, self.render, self.spec = key, cell, call, render, spec


class Plan:
    """What one run executes: whole rounds of `round_ops`, and `pass_ops`
    once, halfway through the rounds a run requires."""

    def __init__(self, round_ops, oracle, *, pass_ops=(), root_yield=None):
        self.round_ops = round_ops
        self.pass_ops = list(pass_ops)
        self.oracle = oracle            # (op, first result) -> failure reason or None
        self.root_yield = root_yield    # result -> (found, predicted), solver workloads

    def warm(self) -> None:
        """One untimed op per cell or leg; fills each context's power cache."""
        seen = set()
        for op in self.round_ops:
            if op.cell not in seen:
                seen.add(op.cell)
                op.call()


def _interleave(per_cell: list) -> list:
    """Spread each cell's ops evenly over the round, in a fixed order."""
    tagged = []
    for c, ops in enumerate(per_cell):
        for i, op in enumerate(ops):
            tagged.append(((i + 0.5) / len(ops), c, op))
    tagged.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in tagged]


# -- comparison helpers used by the oracles -----------------------------


def _window(v, n: int) -> tuple:
    """Base-pi digits of an integral v at absolute positions 0..n-1."""
    if v.is_zero or v.val >= n:
        return (0,) * n
    if v.val < 0:
        raise ValueError("oracle expects integral values")
    return (0,) * v.val + v.digits()[:n - v.val]


def agree(a, b) -> bool:
    """b is known at least as far as a, and both agree below a's precision."""
    return b.prec >= a.prec and _window(a, a.prec) == _window(b, a.prec)


def gap_ok(x, q) -> bool:
    """The bracket gap v([x]_q - x) >= K - 4e that records promise."""
    ctx = q.ctx
    d = analytic.q_bracket(x, q) - x
    return (d.prec if d.is_zero else d.val) >= ctx.K - 4 * ctx.e


def _doubled(cache: dict, ctx):
    """The context with ctx's p and e at 2K, one per cell."""
    key = (ctx.p, ctx.e, ctx.K)
    if key not in cache:
        cache[key] = core.ctx_new(ctx.p, ctx.e, 2 * ctx.K)
    return cache[key]


def _records_match(out, out2) -> str | None:
    """Every record at K has a partner at 2K; the polygon counts agree."""
    if (out.predicted, out.m0) != (out2.predicted, out2.m0):
        return f"predicted/m0 {out.predicted},{out.m0} != {out2.predicted},{out2.m0} at 2K"
    for rec in out:
        if not any(agree(rec.x, r2.x) and agree(rec.u, r2.u)
                   and rec.multiplicity == r2.multiplicity for r2 in out2):
            return f"record x={rec.x.render()} has no partner at 2K"
        if not gap_ok(rec.x, rec.q):
            return f"record x={rec.x.render()} misses the bracket gap"
    return None


def _outcome_json(out) -> dict:
    return {"predicted": out.predicted,
            "m0": f"{out.m0.numerator}/{out.m0.denominator}",
            "records": [r.to_json() for r in out]}


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- bracket-grid -------------------------------------------------------


def _bracket_grid(seed: int) -> Plan:
    rng = Random(f"bracket-grid/{seed}")
    per_cell = []
    for p, e, K, w in GRID:
        ctx = core.ctx_new(p, e, K)
        cell = cell_name(p, e, K)
        lo = e // (p - 1) + 1              # smallest t with q = 1 + pi^t u in S
        ops = []
        for i in range(w * POOL["bracket-grid"]):
            # t and the kind of x cycle with i, so every seed has the same
            # strata and only the digits vary
            t = lo + i % 3
            qlit = _lit(rng, p, K, t, base=1)
            kind = X_KINDS[(i // 3) % len(X_KINDS)]
            if kind == "int":              # checked by the geometric sum
                m = rng.choice([m for m in range(1, 10) if m % p])
                xlit = Lit(p ** (i // 12 % 3) * m)
            else:
                xlit = _lit(rng, p, K, kind)
            x, q = xlit.at(ctx), qlit.at(ctx)
            ops.append(Op(f"{cell}#{i}", cell, lambda x=x, q=q: analytic.q_bracket(x, q),
                          lambda b: b.render(), spec=(x, q, xlit, qlit)))
        per_cell.append(ops)
    doubled: dict = {}

    def oracle(op, b):
        x, q, xlit, qlit = op.spec
        ctx = q.ctx
        ctx2 = _doubled(doubled, ctx)
        if not agree(b, analytic.q_bracket(xlit.at(ctx2), qlit.at(ctx2))):
            return "disagrees with the same call at 2K"
        if not xlit.digits:
            total, term = ctx.one(), ctx.one()
            for _ in range(xlit.base - 1):
                term = term * q
                total = total + term
            if not agree(b, total):
                return f"disagrees with the geometric sum for x = {xlit.base}"
        return None

    return Plan(_interleave(per_cell), oracle)


# -- fixed-points ---------------------------------------------------------


def _fixed_points(seed: int) -> Plan:
    rng = Random(f"fixed-points/{seed}")
    per_cell = []
    for p, e, K, t, w in FP_LEGS:
        ctx = core.ctx_new(p, e, K)
        cell = cell_name(p, e, K)
        ops = []
        for i in range(w * POOL["fixed-points"]):
            qlit = _lit(rng, p, K, t, base=1, lead=1 + i % (p - 1))
            q = qlit.at(ctx)
            ops.append(Op(f"{cell}#{i}", cell, lambda q=q: solver.fixed_points_for_q(q),
                          lambda out: _dumps(_outcome_json(out)), spec=(q, qlit)))
        per_cell.append(ops)
    doubled: dict = {}

    def oracle(op, out):
        q, qlit = op.spec
        ctx = q.ctx
        ctx2 = _doubled(doubled, ctx)
        return _records_match(out, solver.fixed_points_for_q(qlit.at(ctx2)))

    return Plan(_interleave(per_cell), oracle,
                root_yield=lambda out: (len(out), out.predicted))


# -- param-fiber ----------------------------------------------------------


def _param_fiber(seed: int) -> Plan:
    rng = Random(f"param-fiber/{seed}")
    per_cell = []
    for p, e, K, base, w in PF_LEGS:
        ctx = core.ctx_new(p, e, K)
        cell = cell_name(p, e, K)
        # v(A_{p-2}(x)) in pi-units: x - 2 for x near 2, a unit otherwise
        v_a = 1 if (p, base) == (3, 2) else 0
        ops = []
        for i in range(w * POOL["param-fiber"]):
            if v_a:
                v = 1                      # x - 2 = pi*u keeps x in phi1's image
            elif p == 3:
                v = 1 + i % 3
            else:
                v = e + 1 + i % e
            xlit = _lit(rng, p, K, v, base=base, lead=1 + i % (p - 1))
            x = xlit.at(ctx)
            g = v_a + 1 + (i // 2) % (2 * e)     # x' inside B(x, |A_{p-2}(x)|)
            glit = _lit(rng, p, K, g)
            xp = x + glit.at(ctx)
            ops.append(Op(f"{cell}#{i}", cell, lambda x=x, xp=xp: _fiber_op(x, xp),
                          _render_fiber, spec=(x, xp, xlit, glit)))
        per_cell.append(ops)
    doubled: dict = {}

    def oracle(op, res):
        x, xp, xlit, glit = op.spec
        out, q2 = res
        ctx = x.ctx
        ctx2 = _doubled(doubled, ctx)
        x_2 = xlit.at(ctx2)
        out2 = solver.q_for_x(x_2)
        bad = _records_match(out, out2)
        if bad:
            return bad
        rec2 = next(r for r in out2 if agree(out[0].u, r.u))
        q2_2 = solver.local_Q(x_2, rec2.q, x_2 + glit.at(ctx2))
        if not agree(q2, q2_2):
            return "local_Q disagrees with the same call at 2K"
        if not gap_ok(xp, q2):
            return "x' misses the bracket gap at local_Q's q'"
        return None

    return Plan(_interleave(per_cell), oracle,
                root_yield=lambda res: (len(res[0]), res[0].predicted))


def _fiber_op(x, xp):
    out = solver.q_for_x(x)
    return out, solver.local_Q(x, out[0].q, xp)


def _render_fiber(res) -> str:
    out, q2 = res
    return _dumps({"q_for_x": _outcome_json(out), "local_Q": q2.to_json()})


# -- verify -----------------------------------------------------------------


def _run_cli(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _strip_elapsed(obj):
    """Drop the wall-clock elapsed_ms fields, the one non-reproducible part."""
    if isinstance(obj, dict):
        return {k: _strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_elapsed(v) for v in obj]
    return obj


def _render_verify(res) -> str:
    rc, out, err = res
    return _dumps({"rc": rc, "report": _strip_elapsed(json.loads(out)), "stderr": err})


def _render_cli(res) -> str:
    rc, out, err = res
    return _dumps({"rc": rc, "stdout": out, "stderr": err})


def _verify(seed: int) -> Plan:
    argv = ["verify", "--seed", str(seed), "--format", "json"]
    pass_ops = [Op("verify", "verify", lambda: _run_cli(argv), _render_verify)]
    round_ops = [Op(f"readme.{name}", f"readme.{name}", lambda a=a: _run_cli(a), _render_cli)
                 for name, a in README_COMMANDS]

    def oracle(op, res):
        rc, out, _ = res
        if op.key != "verify":
            return None if rc == README_EXIT else f"exit code {rc}, README documents {README_EXIT}"
        report = json.loads(out)
        failing = [s["suite"] for s in report["suites"]
                   if not all(a["pass"] for a in s["assertions"])]
        if rc != 0 or failing or len(report["suites"]) != 13:
            return f"verify exit code {rc}, failing suites {failing}"
        return None

    return Plan(round_ops, oracle, pass_ops=pass_ops)


def build(name: str, seed: int) -> Plan:
    return {"bracket-grid": _bracket_grid, "fixed-points": _fixed_points,
            "param-fiber": _param_fiber, "verify": _verify}[name](seed)
