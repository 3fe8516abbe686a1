"""Command-line front end: evaluate, solve, inspect polygons, verify.

Number literals on the command line are plain integers, reduced
fractions ``a/b`` with the denominator prime to p, or the exact
rendered form that ``PadicNumber.render`` produces (``pi^2*(1 0 2;
prec=90)``), which round-trips through the context parser.

Exit codes: 0 success (including an empty record list), 1 a verify run
with failing assertions, 2 malformed flags or number literals, 3 a
mathematical precondition violation (the offending condition is named
on stderr).

``main`` parses with one parser tree per process (``_parser`` caches
``build_parser``; argparse keeps no state between parses).  A one-shot
``qbracket`` process builds the tree once either way, so this saves time
only where ``main`` runs many times in one process, as in the benchmark
and the tests; ``build_parser`` itself still returns a fresh tree.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from .analytic import q_bracket, series1, series2
from .core import PadicNumber, PrimeContext, ctx_new
from .errors import DomainError, PadicError
from .harness import SUITE_IDS, run_all, run_suite
from .polygon import _frac_str, _series_polygon, unit_disk_zero_count
from .solver import fixed_points_for_q, m0_for_x, q_for_x

__all__ = ["main"]

_RATIONAL = re.compile(r"(-?\d+)(?:/([1-9]\d*))?")


class _TokenError(ValueError):
    """A number literal the CLI refuses; maps to exit code 2."""


def _parse_number(ctx: PrimeContext, token: str, flag: str) -> PadicNumber:
    t = token.strip()
    if _RATIONAL.fullmatch(t):
        r = _parse_fraction(token, flag)
        if r.denominator % ctx.p == 0:
            raise _TokenError(f"{flag}: denominator divisible by p={ctx.p}: {token!r}")
        return ctx.from_rational(r.numerator, r.denominator)
    if t.startswith(("p^", "pi^")):
        try:
            return ctx.parse(t)
        except ValueError as ex:
            raise _TokenError(f"{flag}: {ex}") from None
    raise _TokenError(
        f"{flag}: not a number literal: {token!r} (want an integer, a reduced a/b, "
        f"or a rendered p-adic)")


def _parse_fraction(token: str, flag: str) -> Fraction:
    """An integer or a fraction a/b in lowest terms."""
    m = _RATIONAL.fullmatch(token.strip())
    if not m:
        raise _TokenError(f"{flag}: not a rational literal: {token!r}")
    a, b = int(m[1]), int(m[2] or 1)
    if math.gcd(a, b) != 1:
        raise _TokenError(f"{flag}: fraction not in lowest terms: {token!r}")
    return Fraction(a, b)


def _numj(v: PadicNumber, d: dict | None = None) -> dict:
    """v's JSON, ``d`` when the caller has it from ``v.to_json()``, with
    "repr" rendered from its digits, so each number's digits are formed
    once; the text lines read "repr" from the payload."""
    d = v.to_json() if d is None else d
    d["repr"] = v._render(d["digits"])
    return d


def _vline(label: str, d: PadicNumber) -> str:
    if d.is_zero:
        return f"{label} >= {d.prec}  (zero at working precision)"
    return f"{label} = {d.val}"


def _params(args) -> dict:
    c = args.ctx
    return {"p": c.p, "e": c.e, "K": c.K}


def _emit(args, payload: dict, text_lines) -> None:
    """The payload as JSON, or the text lines under a header of its params."""
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        header = "# " + " ".join(f"{k}={v}" for k, v in payload["params"].items())
        print("\n".join([header, *text_lines]))


def _record_json(rec) -> dict:
    d = rec.to_json()
    for key in ("x", "q", "u"):
        _numj(getattr(rec, key), d[key])
    return d


def _record_lines(payload: dict) -> list:
    """The text of a fiber's outcome, read from its JSON payload."""
    records = payload["records"]
    lines = [f"m0 = {payload['m0']}  predicted = {payload['predicted']}  "
             f"found = {len(records)}  deficit = {payload['deficit']}"]
    for i, rec in enumerate(records, start=1):
        lines.append(f"record {i}:")
        lines.append(f"  x = {rec['x']['repr']}")
        lines.append(f"  q = {rec['q']['repr']}")
        lines.append(f"  u = {rec['u']['repr']}")
        lines.append(f"  residue_x = {rec['residue_x']}  residue_u = {rec['residue_u']}  "
                     f"multiplicity = {rec['multiplicity']}  "
                     f"certified_to = {rec['certified_to']}")
    return lines


def _cmd_eval(args) -> int:
    x = _parse_number(args.ctx, args.x, "--x")
    q = _parse_number(args.ctx, args.q, "--q")
    b = q_bracket(x, q)
    d = b - x
    payload = {
        "command": "eval",
        "params": _params(args),
        "x": _numj(x),
        "q": _numj(q),
        "bracket": _numj(b),
        "gap_val": None if d.is_zero else d.val,
        "gap_val_floor": d.prec if d.is_zero else d.val,
    }
    _emit(args, payload, [
        f"x = {payload['x']['repr']}",
        f"q = {payload['q']['repr']}",
        f"[x]_q = {payload['bracket']['repr']}",
        _vline("v([x]_q - x)", d),
    ])
    return 0


def _cmd_fiber(args, key: str, solve) -> int:
    """fixed-points (key "q") and solve-q (key "x"): one fiber solve."""
    v = _parse_number(args.ctx, getattr(args, key), f"--{key}")
    out = solve(v)
    payload = {
        "command": args.command,
        "params": _params(args),
        key: _numj(v),
        "m0": _frac_str(out.m0),
        "predicted": out.predicted,
        "deficit": out.deficit,
        "records": [_record_json(r) for r in out],
    }
    _emit(args, payload, _record_lines(payload))
    return 0


def _cmd_polygon(args) -> int:
    ctx = args.ctx
    if args.series == "series1":
        if args.q is None:
            raise _TokenError("--series series1 needs --q")
        if args.m0 is not None:
            raise _TokenError("--series series1 takes --q, not --m0")
        q = _parse_number(ctx, args.q, "--q")
        x = _parse_number(ctx, args.x, "--x") if args.x is not None else ctx.from_int(0)
        s = series1(x, q)
        inputs = {"x": _numj(x), "q": _numj(q)}
    else:
        if args.x is None:
            raise _TokenError("--series series2 needs --x")
        if args.q is not None:
            raise _TokenError("--series series2 takes --m0, not --q")
        x = _parse_number(ctx, args.x, "--x")
        m0 = _parse_fraction(args.m0, "--m0") if args.m0 is not None else m0_for_x(x)
        s = series2(x, 0, m0)
        inputs = {"x": _numj(x), "m0": _frac_str(m0)}
    poly = _series_polygon(s).to_json()
    count = unit_disk_zero_count(s)
    payload = {
        "command": "polygon",
        "params": _params(args),
        "series": args.series,
        **inputs,
        "polygon": poly,
        "zero_count": count,
    }
    pts = " ".join(f"({n},{v})" for n, v in poly["points"])
    segs = " ".join(f"({sl},{ln})" for sl, ln in poly["segments"])
    _emit(args, payload, [
        f"series = {args.series}",
        f"points: {pts}",
        f"segments: {segs}",
        f"zero_count = {count}",
    ])
    return 0


def _cmd_verify(args) -> int:
    if args.suite is None:
        if (args.p, args.e, args.prec) != (None, None, None):
            raise _TokenError("--p/--e/--prec need --suite; "
                              "a full run keeps every suite at its defaults")
        reports = run_all(seed=args.seed)
    else:
        reports = [run_suite(args.suite, seed=args.seed, p=args.p, e=args.e,
                             K=args.prec)]
    ok = all(r.passed for r in reports)
    payload = {
        "command": "verify",
        "params": {"seed": args.seed, "suite": args.suite if args.suite else "all"},
        "pass": ok,
        "suites": [r.to_json() for r in reports],
    }
    _emit(args, payload, [r.render() for r in reports] + [
        f"verify: {'PASS' if ok else 'FAIL'} "
        f"({sum(r.passed for r in reports)}/{len(reports)} suites)"])
    return 0 if ok else 1


def _add_common(sp) -> None:
    sp.add_argument("--p", type=int, required=True, help="residue characteristic")
    sp.add_argument("--e", type=int, default=1, help="ramification index (default 1)")
    sp.add_argument("--prec", type=int, default=None,
                    help="working precision K in pi-units (default 60*e)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qbracket",
        description="q-bracket fixed points on the p-adic unit disk")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate [x]_q and the gap to x")
    _add_common(sp)
    sp.add_argument("--x", required=True, help="point in the unit disk")
    sp.add_argument("--q", required=True, help="parameter with v(q-1) > 1/(p-1)")
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("fixed-points", help="all nontrivial fixed points of [X]_q")
    _add_common(sp)
    sp.add_argument("--q", required=True, help="parameter with v(q-1) > 1/(p-1)")
    sp.set_defaults(fn=lambda args: _cmd_fiber(args, "q", fixed_points_for_q))

    sp = sub.add_parser("solve-q", help="all q making x a nontrivial fixed point")
    _add_common(sp)
    sp.add_argument("--x", required=True, help="point in phi1's image")
    sp.set_defaults(fn=lambda args: _cmd_fiber(args, "x", q_for_x))

    sp = sub.add_parser("polygon", help="Newton polygon and unit-disk zero count")
    _add_common(sp)
    sp.add_argument("--series", choices=("series1", "series2"), required=True)
    sp.add_argument("--x", default=None, help="center (series1, default 0) or the "
                                              "fixed point (series2)")
    sp.add_argument("--q", default=None, help="parameter (series1 only)")
    sp.add_argument("--m0", default=None, help="parameter valuation (series2 only; "
                                               "default derived from x)")
    sp.set_defaults(fn=_cmd_polygon)

    sp = sub.add_parser("verify", help="run re-verification suites")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    sp.add_argument("--suite", choices=SUITE_IDS, default=None,
                    help="one suite id (default: all)")
    sp.add_argument("--p", type=int, default=None, help="override a suite's p")
    sp.add_argument("--e", type=int, default=None, help="override a suite's e")
    sp.add_argument("--prec", type=int, default=None, help="override a suite's K")
    sp.set_defaults(fn=_cmd_verify)
    for sp in sub.choices.values():
        sp.add_argument("--format", choices=("text", "json"), default="text",
                        help="output mode (default text)")
        sp.set_defaults(parser=sp)
    return ap


# main's tree, built at the first call; set_defaults binds the _cmd_*
# handlers then, so a later rebinding of those names does not reach main
_parser = functools.cache(build_parser)


def _absorb_number_values(argv: list) -> list:
    """Glue --x/--q/--m0 to their values so negatives don't look like flags."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--x", "--q", "--m0") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args, extra = _parser().parse_known_args(_absorb_number_values(argv))
    if extra:  # the subcommand's usage names its own flags
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        if args.command != "verify":
            args.ctx = ctx_new(args.p, args.e, args.prec)
        return args.fn(args)
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except DomainError as ex:
        note = f" (required_e = {ex.required_e})" if ex.required_e else ""
        print(f"precondition violated: {ex}{note}", file=sys.stderr)
        return 3
    except PadicError as ex:
        print(f"precondition violated: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
