"""Re-verification suites for every statement the library rests on.

Each suite re-derives one cluster of claims numerically and reports a
machine-readable list of assertions.  The thirteen suite ids are part of
the tool's interface (``verify --suite <id>``):

    prop1              the bracket is a norm-preserving isometry of the unit disk
    prop2              the solution set is a manifold: implicit derivative nonzero,
                       the local map Q fixes its center, g(X, y) -> 1/2 as v(y) grows
    prop3              unit-disk zero counts: N = p on the admissible m0 range,
                       N = 2 for p = 2 and for m0 past the range
    prop4              v(A_{p-2}(x)) = 1 - (p-2) m0 on records; phi1/phi2
                       membership agrees with record existence
    prop5              residue sets of the fixed-point fiber at m0 < 1/(p-2)
                       and at the boundary m0 = 1/(p-2)
    prop6              the parameter fiber over x: predicted count, in-field
                       count via the reduction, distinct residues, uniqueness law
    prop7              contraction order matches multiplicity; synthetic doubles
    prop8              p = 3 scaling law v(q'-q) = v(x'-x) + 2 m0 - 1 and
                       two-sided ball mapping checks
    prop9              the concrete p = 3 landscape: witness at q = 4, ball
                       images, unit-part isometries, emptiness for p > 3
    remark_phi1        the ball description of phi1's image; integers are
                       never nontrivial fixed points
    remark_derivative  A'_{p-2} is a unit at every residue when p != 3,
                       so in-residue double points cannot occur
    cocycle            the twisted addition law [x + x']_q = [x]_q + q^x [x']_q
    legendre           v(n!) = (n - s_p(n))/(p - 1) against direct stripping

Every context a suite works in comes from one builder, ``_ctx``, which
scales the leg's precision by ``k_scale`` and hands p, e and K to
``ctx_new`` unchanged, so an override is refused exactly when ctx_new
refuses it.  A report's params are read off the contexts that ran.  A
suite that checks agreement at K minus a margin (prop2, prop5, prop9)
refuses a K below twice that margin, where the check would prove little
or nothing.

Reports are deterministic for a fixed seed: every sample comes from a
Random keyed by ``f"{seed}/{suite_id}"`` and nothing else.  elapsed_ms is
wall-clock and is the one field excluded from reproducibility claims.
"""

from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .analytic import a_poly, cocycle_check, digit_sum, factorial_valuation, \
    q_bracket, q_pow, series1, series2
from .core import PadicNumber, PrimeContext, _is_prime, ctx_new, equals_to_precision, sample
from .errors import DomainError
from .polygon import _frac_str, unit_disk_zero_count
from .solver import fixed_points_for_q, local_Q, m0_for_x, multiplicity_from_c1, \
    multiplicity_of, phi1_contains, phi2_contains, q_for_x

__all__ = ["SUITE_IDS", "Assertion", "SuiteReport", "run_suite", "run_all",
           "reports_to_json"]

@dataclass(frozen=True)
class Assertion:
    name: str
    anchor: str
    expected: object
    observed: object
    ok: bool

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "expected": self.expected,
            "observed": self.observed,
            "pass": self.ok,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    params: dict
    seed: int
    assertions: tuple
    elapsed_ms: int

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "seed": self.seed,
            "assertions": [a.to_json() for a in self.assertions],
            "elapsed_ms": self.elapsed_ms,
        }

    def render(self) -> str:
        head = f"{self.suite}: {'PASS' if self.passed else 'FAIL'} " \
               f"({len(self.assertions)} assertions, {self.elapsed_ms} ms)"
        lines = [head]
        for a in self.assertions:
            mark = "ok  " if a.ok else "FAIL"
            lines.append(f"  {mark} {a.name} [{a.anchor}] "
                         f"expected {a.expected} / observed {a.observed}")
        return "\n".join(lines)


class _Recorder:
    """The assertions of one suite, each anchored at the suite's id."""

    def __init__(self, anchor: str):
        self.anchor = anchor
        self.items = []

    def check(self, name: str, expected, observed) -> bool:
        ok = expected == observed
        self.items.append(Assertion(name, self.anchor, _show(expected), _show(observed), ok))
        return ok

    def tally(self, name: str, good: int, total: int, detail: str = ""):
        observed = f"{good}/{total}" + (f" ({detail})" if detail and good != total else "")
        self.items.append(Assertion(name, self.anchor, f"{total}/{total}", observed,
                                    good == total))


def _show(v):
    if isinstance(v, Fraction):
        return _frac_str(v)
    if isinstance(v, (set, frozenset)):
        return sorted(v)
    if isinstance(v, tuple):
        return list(v)
    return v


def _vof(x: PadicNumber):
    """Exact valuation for assertions; zero-flagged maps to the string 'inf'."""
    return "inf" if x.is_zero else x.val


def _mixed(ctx: PrimeContext, rng: Random, vals=(0, 0, 0, 1, 2)) -> PadicNumber:
    return sample(ctx, rng, valuation=rng.choice(vals))


def _q_in_S(ctx: PrimeContext, rng: Random, t: int | None = None) -> PadicNumber:
    """Random q = 1 + (unit) pi^t inside the convergence disk."""
    if t is None:
        lo = ctx.e // (ctx.p - 1) + 1
        t = rng.randrange(lo, lo + 3)
    return ctx.one() + sample(ctx, rng, valuation=t)


def _ctx(p: int, e: int, K: int, k_scale) -> PrimeContext:
    """The context of one leg, at precision K * k_scale."""
    return ctx_new(p, e, int(K * k_scale))


class _ThinPrecision(DomainError, ValueError):
    """A K too small for a suite's agreement checks: a refused override
    for run_suite's callers, and a bad --prec value (exit 2) for the CLI."""


def _agree_at(c: PrimeContext, margin: int) -> int:
    """K - margin, the precision a suite checks an agreement at.

    Below K = 2 margin such a check proves little or nothing (at K - 8 =
    0 any two units agree), so that K is refused, not reported as a proof.
    """
    if c.K < 2 * margin:
        raise _ThinPrecision(f"K={c.K} is too small for the agreement check at K - {margin}; "
                             f"need K >= {2 * margin}")
    return c.K - margin


def _leg(c: PrimeContext) -> list:
    """A context as a report lists it: [p, e, K]."""
    return [c.p, c.e, c.K]


def _pek(c: PrimeContext, **more) -> dict:
    """The params of a one-context suite: its p, e, K and the extra keys."""
    return {"p": c.p, "e": c.e, "K": c.K, **more}


def _legs(default: list, p, e, K) -> list:
    """prop1 and cocycle: any override names one leg (p 5, e 1, K 60e unless given)."""
    if (p, e, K) == (None, None, None):
        return default
    p = 5 if p is None else p
    e = 1 if e is None else e
    return [(p, e, 60 * e if K is None else K)]


def _inverse_hits(rng: Random, q: PadicNumber, x: PadicNumber, n: int) -> int:
    """Of n draws q' = q + pi^t u (t in 2..5), how many give one fixed point
    x' with v(x' - x) = t - 1, the p = 3 ball mapping at m0 = 1."""
    hits = 0
    for _ in range(n):
        t = rng.randrange(2, 6)
        out = fixed_points_for_q(q + sample(q.ctx, rng, valuation=t))
        hits += len(out) == 1 and (out[0].x - x).val == t - 1
    return hits


# -- suites ------------------------------------------------------------


def _suite_prop1(R: _Recorder, rng: Random, k_scale, p=None, e=None, K=None):
    legs = _legs([(3, 1, 60), (5, 1, 60), (7, 1, 60)], p, e, K)
    if p == 2:
        raise DomainError("isometry suite needs p odd (q - 1 in S with unit digits)")
    ctxs = [_ctx(*leg, k_scale) for leg in legs]
    for ctx in ctxs:
        iso = norm = 0
        for _ in range(200):
            q = _q_in_S(ctx, rng)
            x = _mixed(ctx, rng)
            gap = rng.choice((0, 0, 0, 1, 1, 2, 3, 5, 8)) * ctx.e
            xp = x + sample(ctx, rng, valuation=gap)
            bx, bxp = q_bracket(x, q), q_bracket(xp, q)
            d_in, d_out = xp - x, bxp - bx
            if not d_out.is_zero and d_out.val == d_in.val:
                iso += 1
            if _vof(q_bracket(x, q)) == _vof(x):
                norm += 1
        R.tally(f"isometry_p{ctx.p}", iso, 200)
        R.tally(f"norm_preserved_p{ctx.p}", norm, 200)
    return {"legs": [_leg(c) for c in ctxs], "pairs": 200}


def _suite_prop2(R: _Recorder, rng: Random, k_scale, K=60):
    c3 = _ctx(3, 1, K, k_scale)
    round_trip_at = _agree_at(c3, 8)
    c5 = _ctx(5, 10, 200, k_scale)

    def dgdy(r) -> PadicNumber:
        """The implicit derivative [x-1]_q / ((q-1)(x-1)) at a record."""
        one = r.x.ctx.one()
        return q_bracket(r.x - one, r.q) * ((r.q - one) * (r.x - one)).inv()

    out = fixed_points_for_q(c3.from_int(4))
    R.check("lift_exists", out.predicted, len(out))
    rec = out[0]
    R.check("implicit_derivative_val", -1, _vof(dgdy(rec)))

    back = q_for_x(rec.x)
    ok_rt = len(back) >= 1 and equals_to_precision(back[0].q, rec.q, round_trip_at)
    R.check("round_trip_q", True, ok_rt)

    q2 = local_Q(rec.x, rec.q, rec.x)
    R.check("Q_fixes_center", True, (q2 - rec.q).is_zero)

    good = 0
    for _ in range(20):
        x = sample(c3, rng, residue=rng.choice((1, 2)))
        t = rng.choice((2, 3, 4))
        q = _q_in_S(c3, rng, t=t)
        y = q - c3.one()
        g = (q_bracket(x, q) - x) * (y * x * (x - c3.one())).inv()
        d = g - c3.from_rational(Fraction(1, 2))
        if d.is_zero or d.val >= 1:
            good += 1
    R.tally("g_tends_to_half", good, 20)

    out5 = fixed_points_for_q(_q_in_S(c5, rng, t=3))
    R.check("heavy_leg_lift_exists", out5.predicted, len(out5))
    R.check("heavy_leg_derivative_val", [-3] * len(out5),
            [_vof(dgdy(r)) for r in out5])
    return _pek(c3, heavy_leg=_leg(c5))


def _suite_prop3(R: _Recorder, rng: Random, k_scale, p=None):
    configs = [
        (2, 1, 40, Fraction(2), 2),
        (3, 1, 60, Fraction(1), 3),
        (5, 3, 90, Fraction(1, 3), 5),
        (7, 5, 175, Fraction(1, 5), 7),
        (5, 5, 150, Fraction(2, 5), 2),
    ]
    if p is not None:
        configs = [c for c in configs if c[0] == p]
        if not configs:
            raise DomainError(f"no zero-count configuration for p = {p}")
    legs = [(_ctx(cp, ce, cK, k_scale), m0, want_n) for (cp, ce, cK, m0, want_n) in configs]
    for (ctx, m0, want_n) in legs:
        q = _q_in_S(ctx, rng, t=int(m0 * ctx.e))
        n = unit_disk_zero_count(series1(0, q))
        R.check(f"weierstrass_degree_p{ctx.p}_m0_{m0.numerator}_{m0.denominator}", want_n, n)
    grid = [Fraction(a, b) for a in range(1, 7) for b in range(1, 7)]
    agree = sum(1 for m in grid
                if phi2_contains(m, 5) == (Fraction(1, 4) < m <= Fraction(1, 3)))
    R.tally("phi2_range_p5", agree, len(grid))
    return {"configs": [_leg(c) + [_show(m0)] for (c, m0, _) in legs]}


def _suite_prop4(R: _Recorder, rng: Random, k_scale):
    c3, c53, c34 = (_ctx(*leg, k_scale) for leg in ((3, 1, 60), (5, 3, 90), (3, 4, 120)))
    records = list(fixed_points_for_q(c3.from_int(4)))
    records += list(q_for_x(c53.from_int(5)))
    records += list(fixed_points_for_q(_q_in_S(c34, rng, t=3)))

    expect = []
    got = []
    for r in records:
        a = a_poly(r.x.ctx.p - 2, r.x)
        expect.append(_show(1 - (r.x.ctx.p - 2) * r.m0))
        got.append("inf" if a.is_zero else _show(Fraction(a.val, r.x.ctx.e)))
    R.check("a_valuation_identity", expect, got)
    R.check("records_collected", True, len(records) >= 3)

    agree = 0
    for _ in range(100):
        x = _mixed(c3, rng, vals=(0, 0, 0, 1, 2, 5))
        if rng.random() < 0.3:
            x = c3.from_int(rng.randrange(2, 30))
        member = phi1_contains(x)
        try:
            found = any(rec.certified_to >= c3.K - 4 for rec in q_for_x(x))
        except DomainError:
            found = False
        if member == found:
            agree += 1
    R.tally("phi1_matches_records_p3", agree, 100)

    agree2 = 0
    grid = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
            Fraction(5, 4), Fraction(3, 2), Fraction(2)]
    for m0 in grid:
        inside = phi2_contains(m0, 3)
        try:
            q = c34.one() + sample(c34, rng, valuation=int(m0 * 4))
            out = fixed_points_for_q(q)
            found = len(out) > 0
        except DomainError:
            found = False
        if inside == found:
            agree2 += 1
    R.tally("phi2_matches_records_p3", agree2, len(grid))
    return {"legs": [_leg(c) for c in (c3, c53, c34)], "membership_samples": 100}


def _suite_prop5(R: _Recorder, rng: Random, k_scale, K=200):
    ca = _ctx(5, 10, K, k_scale)
    interior_at = _agree_at(ca, 40)
    cb = _ctx(5, 3, 90, k_scale)
    KB = cb.K
    good = 0
    fails = []
    first = None
    for _ in range(10):
        q = _q_in_S(ca, rng, t=3)
        out = fixed_points_for_q(q)
        if first is None:
            first = (q, out)
        res = sorted(r.residue_x for r in out)
        certified = all(r.certified_to >= interior_at for r in out)
        if res == [2, 3, 4] and out.deficit == 0 and certified:
            good += 1
        else:
            fails.append(res)
    R.tally("interior_residues_234", good, 10, detail=str(fails))
    q0, out0 = first
    rt = bool(out0) and any(equals_to_precision(b.q, q0, interior_at) for b in q_for_x(out0[0].x))
    R.check("round_trip_interior", True, rt)

    good_b = 0
    for _ in range(5):
        out = fixed_points_for_q(_q_in_S(cb, rng, t=1))
        ok = (out.predicted == 3
              and all(r.residue_x in (0, 1) for r in out)
              and all(r.certified_to >= KB - 12 for r in out))
        good_b += ok
    R.tally("boundary_residues_01", good_b, 5)
    return {"interior_leg": _leg(ca) + ["3/10"], "boundary_leg": _leg(cb) + ["1/3"]}


def _suite_prop6(R: _Recorder, rng: Random, k_scale, K=90):
    ctx = _ctx(5, 3, K, k_scale)
    K6 = ctx.K
    x = ctx.from_int(5)
    m0 = m0_for_x(x)
    R.check("slope_for_x5", Fraction(1, 3), m0)

    h = series2(x, 0, m0)
    R.check("predicted_unit_roots", 3, unit_disk_zero_count(h))

    # in-field roots are exactly the simple residue roots of the reduction
    red = {i: c.residue() for i, c in enumerate(h.coeffs[:4])
           if not c.is_zero and c.val == 0}
    residue_roots = [r for r in range(5)
                     if sum(cv * r ** i for i, cv in red.items()) % 5 == 0]
    recs = q_for_x(x)
    R.check("in_field_matches_reduction",
            sorted(residue_roots), sorted(r.residue_u for r in recs))
    R.check("residues_pairwise_distinct", True,
            len({r.residue_u for r in recs}) == len(recs))
    R.check("all_certified", True,
            all(r.certified_to >= K6 - 12 for r in recs))

    rec = recs[0]
    back = fixed_points_for_q(rec.q)
    R.check("round_trip_x", True,
            any(equals_to_precision(b.x, x, K6 - 24) for b in back))

    good = 0
    for _ in range(50):
        xp = x + sample(ctx, rng, valuation=rng.randrange(1, 7))
        qp = local_Q(x, rec.q, xp)
        lhs = qp - rec.q
        rhs = (q_bracket(xp, rec.q) - xp) * (xp * (xp - ctx.one())).inv()
        if not lhs.is_zero and not rhs.is_zero and lhs.val == rhs.val:
            good += 1
    R.tally("uniqueness_law", good, 50)
    return _pek(ctx, x=5, law_samples=50)


def _suite_prop7(R: _Recorder, rng: Random, k_scale, K=60):
    ctx = _ctx(3, 1, K, k_scale)
    q = ctx.from_int(4)
    rec = fixed_points_for_q(q)[0]
    R.check("multiplicity_one", 1, multiplicity_of(rec.x, q))

    # first-order series coefficient at the record drives the scaling
    c1 = series1(rec.x, q, n_max=1).coeffs[1]
    b1 = c1 * (rec.x * (rec.x - ctx.one())).inv()
    R.check("linear_coefficient_val", 1, _vof(b1))
    b1v = None if b1.is_zero else b1.val

    for gap in (2, 3, 5):
        good = 0
        for _ in range(50):
            xp = rec.x + sample(ctx, rng, valuation=gap)
            qp = local_Q(rec.x, q, xp)
            diff = qp - q
            if b1v is not None and not diff.is_zero and diff.val == gap + b1v:
                good += 1
        R.tally(f"order_one_scaling_gap{gap}", good, 50)

    R.check("classifier_synthetic_double", 2,
            multiplicity_from_c1(ctx.zero(30)))
    R.check("classifier_simple", 1,
            multiplicity_from_c1(sample(ctx, rng, valuation=2)))
    return _pek(ctx, gaps=[2, 3, 5], samples_per_gap=50)


def _suite_prop8(R: _Recorder, rng: Random, k_scale, K=60):
    ctx = _ctx(3, 1, K, k_scale)
    q = ctx.from_int(4)
    rec = fixed_points_for_q(q)[0]
    two_m0_minus_1 = 1  # m0 = 1 here

    good = 0
    for _ in range(30):
        gap = rng.randrange(1, 8)
        xp = rec.x + sample(ctx, rng, valuation=gap)
        qp = local_Q(rec.x, q, xp)
        if (qp - q).val == gap + two_m0_minus_1:
            good += 1
    R.tally("forward_scaling", good, 30)
    R.tally("inverse_ball_mapping", _inverse_hits(rng, q, rec.x, 20), 20)

    mults = [multiplicity_of(rec.x, q)]
    R.check("double_point_identity", "vacuous (all sampled points simple)",
            "vacuous (all sampled points simple)" if all(m == 1 for m in mults)
            else f"multiplicity 2 seen: {mults}")
    return _pek(ctx, forward=30, inverse=20)


def _suite_prop9(R: _Recorder, rng: Random, k_scale, K=60):
    ctx = _ctx(3, 1, K, k_scale)
    witness_at, certified_at = _agree_at(ctx, 10), _agree_at(ctx, 4)
    q4 = ctx.from_int(4)
    out = fixed_points_for_q(q4)
    rec = out[0]
    target = ctx.from_rational(Fraction(-1, 2))
    d = rec.x - target
    R.check("witness_is_minus_half", True,
            d.is_zero or d.val >= witness_at)
    R.check("witness_certified", True, rec.certified_to >= certified_at)
    R.check("witness_residues", [1, 1], [rec.residue_x, rec.residue_u])

    empty = 0
    for lp in (5, 7):
        cl = _ctx(lp, 1, 40, k_scale)
        for _ in range(5):
            ql = _q_in_S(cl, rng, t=rng.choice((1, 2)))
            empty += len(fixed_points_for_q(ql)) == 0
    R.tally("no_integer_pairs_p5_p7", empty, 10)

    ball1 = []
    ball0 = []
    good1 = good0 = 0
    for _ in range(25):
        x1 = ctx.one() + sample(ctx, rng, valuation=rng.randrange(1, 6))
        r1 = q_for_x(x1)[0]
        ball1.append((x1, r1.u))
        good1 += (r1.q - q4).val >= 2 and r1.residue_u == 1
        x0 = sample(ctx, rng, valuation=rng.randrange(1, 6))
        r0 = q_for_x(x0)[0]
        ball0.append((x0, r0.u))
        good0 += (r0.q - ctx.from_int(7)).val >= 2 and r0.residue_u == 2
    R.tally("ball_1_maps_to_B(4,1/3)", good1, 25)
    R.tally("ball_0_maps_to_B(7,1/3)", good0, 25)

    iso = 0
    for pool in (ball1, ball0):
        for _ in range(10):
            (xa, ua), (xb, ub) = rng.sample(pool, 2)
            dx, du = xb - xa, ub - ua
            if dx.is_zero and du.is_zero:
                iso += 1
            elif not dx.is_zero and not du.is_zero and dx.val == du.val:
                iso += 1
    R.tally("unit_part_isometries", iso, 20)

    q7 = ctx.from_int(7)
    x7 = fixed_points_for_q(q7)[0].x
    inv = _inverse_hits(rng, q4, rec.x, 10) + _inverse_hits(rng, q7, x7, 10)
    R.tally("inverse_spot_checks", inv, 20)
    return _pek(ctx, ball_samples=25, inverse_samples=10)


def _suite_remark_phi1(R: _Recorder, rng: Random, k_scale):
    c3, c53, c34 = (_ctx(*leg, k_scale) for leg in ((3, 1, 60), (5, 3, 90), (3, 4, 120)))

    member = 0
    for n in (3, 4, 6, 7, 9, 10):
        x = c3.from_int(n)
        ok = phi1_contains(x) and m0_for_x(x) == Fraction(1, 1)
        ok = ok and len(q_for_x(x)) >= 1
        member += ok
    R.tally("integer_balls_members_p3", member, 6)

    member5 = 0
    for n in (5, 6, 10, 11):
        x = c53.from_int(n)
        member5 += phi1_contains(x) and m0_for_x(x) == Fraction(1, 3)
    R.tally("integer_balls_members_p5", member5, 4)

    ann = []
    for (gap, want) in ((1, True), (2, False), (3, False), (4, False)):
        x = c34.from_int(2) + sample(c34, rng, valuation=gap)
        got = phi1_contains(x)
        extra = True
        if want:
            m0 = m0_for_x(x)
            extra = m0 == Fraction(3, 4) and len(q_for_x(x)) >= 1
        ann.append(got == want and extra)
    R.check("annulus_around_2", [True] * 4, ann)

    # rational integers with residue outside {0, 1} never sit on a record
    good = 0
    total = 0
    for ctx in (c3, c53):
        for n in range(2, 26):
            if n % ctx.p in (0, 1):
                continue
            x = ctx.from_int(n)
            for _ in range(25):
                q = _q_in_S(ctx, rng)
                total += 1
                diff = q_bracket(x, q) - x
                good += (not phi1_contains(x)) and not diff.is_zero
    R.tally("integers_never_fixed", good, total)
    return {"legs": [_leg(c) for c in (c3, c53, c34)]}


def _suite_remark_derivative(R: _Recorder, rng: Random, k_scale, p=None):
    legs = [5, 7] if p is None else [p]
    if any(lp in (2, 3) for lp in legs):
        raise DomainError("derivative remark concerns p >= 5")
    ctxs = [_ctx(lp, 1, 40, k_scale) for lp in legs]
    for ctx in ctxs:
        lp = ctx.p
        n = lp - 2
        match = 0
        units = 0
        pts = [ctx.from_int(a) for a in range(lp)] + \
              [sample(ctx, rng) for _ in range(20)]
        for x in pts:
            da = _a_prime(n, x)
            base = sum((k * pow(x.residue(), k - 1, lp)) for k in range(1, n + 1)) % lp
            got = 0 if (da.is_zero or da.val > 0) else da.residue()
            match += got == base
            units += (not da.is_zero) and da.val == 0
        R.tally(f"derivative_congruence_p{lp}", match, len(pts))
        R.tally(f"derivative_unit_p{lp}", units, len(pts))
    c53 = _ctx(5, 3, 90, k_scale)
    recs = q_for_x(c53.from_int(5))
    R.check("records_all_simple", True,
            all(r.multiplicity == 1 for r in recs))
    return {"p": [c.p for c in ctxs], "e": ctxs[0].e, "K": ctxs[0].K}


def _suite_cocycle(R: _Recorder, rng: Random, k_scale, p=None, e=None, K=None):
    legs = _legs([(3, 1, 60), (5, 1, 60), (5, 3, 90)], p, e, K)
    ctxs = [_ctx(*leg, k_scale) for leg in legs]
    for ctx in ctxs:
        good = 0
        for _ in range(100):
            q = _q_in_S(ctx, rng)
            x, xp = _mixed(ctx, rng), _mixed(ctx, rng)
            good += cocycle_check(x, xp, q)
        R.tally(f"cocycle_p{ctx.p}_e{ctx.e}", good, 100)
        hom = 0
        for _ in range(50):
            q = _q_in_S(ctx, rng)
            x, xp = _mixed(ctx, rng), _mixed(ctx, rng)
            d = q_pow(x + xp, q) - q_pow(x, q) * q_pow(xp, q)
            hom += d.is_zero
        R.tally(f"power_homomorphism_p{ctx.p}_e{ctx.e}", hom, 50)
    return {"legs": [_leg(c) for c in ctxs], "triples": 100}


def _suite_legendre(R: _Recorder, rng: Random, k_scale, p=None):
    # the one suite that builds no context, so it checks p as ctx_new does
    if p is not None and not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    legs = [2, 3, 5, 7] if p is None else [p]
    params = {"p": legs, "n_max": 300}
    for lp in legs:
        good = 0
        fact = 1
        direct = 0
        for n in range(1, 301):
            fact *= n
            m = n
            while m % lp == 0:
                direct += 1
                m //= lp
            formula = Fraction(n - digit_sum(n, lp), lp - 1)
            lib = factorial_valuation(n, lp)
            good += formula == lib == Fraction(direct)
        R.tally(f"factorial_valuation_p{lp}", good, 300)
    return params


# -- shared helpers ----------------------------------------------------


def _a_prime(n: int, x: PadicNumber) -> PadicNumber:
    """Derivative of the degree-n falling product at x, by the product rule."""
    ctx = x.ctx
    total = None
    for j in range(n):
        term = ctx.one()
        for i in range(n):
            if i != j:
                term = term * (x - ctx.from_int(i + 2))
        total = term if total is None else total + term
    return total if total is not None else ctx.zero()


_SUITES = {
    "prop1": _suite_prop1,
    "prop2": _suite_prop2,
    "prop3": _suite_prop3,
    "prop4": _suite_prop4,
    "prop5": _suite_prop5,
    "prop6": _suite_prop6,
    "prop7": _suite_prop7,
    "prop8": _suite_prop8,
    "prop9": _suite_prop9,
    "remark_phi1": _suite_remark_phi1,
    "remark_derivative": _suite_remark_derivative,
    "cocycle": _suite_cocycle,
    "legendre": _suite_legendre,
}

SUITE_IDS = tuple(_SUITES)


def run_suite(suite_id: str, *, seed: int = 0, p: int | None = None,
              e: int | None = None, K: int | None = None,
              k_scale=Fraction(1)) -> SuiteReport:
    """Run one suite and return its report.

    A suite applies the p/e/K overrides it takes as keyword parameters;
    any other override raises DomainError before the suite runs.  An
    applied override reaches ctx_new unchanged, so a value ctx_new
    refuses (a zero, a non-prime p, K below 2e) raises its ValueError,
    and a K below twice a suite's agreement margin raises a DomainError
    that is also a ValueError.
    k_scale scales every leg's working precision, an overridden K
    included (the reports must stay green at k_scale = 1/2, which is the
    designed headroom), and the params report the precisions that ran.
    """
    if suite_id not in _SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; ids are {', '.join(SUITE_IDS)}")
    suite = _SUITES[suite_id]
    takes = [n for n in ("p", "e", "K") if n in inspect.signature(suite).parameters]
    overrides = {n: v for n, v in (("p", p), ("e", e), ("K", K)) if v is not None}
    for name in overrides:
        if name not in takes:
            raise DomainError(f"suite {suite_id} applies no {name} override "
                              f"(it takes {', '.join(takes) or 'none'})")
    rng = Random(f"{seed}/{suite_id}")
    R = _Recorder(suite_id)
    t0 = time.perf_counter()
    params = suite(R, rng, k_scale, **overrides)
    elapsed = int((time.perf_counter() - t0) * 1000)
    if k_scale != 1:
        params = dict(params, k_scale=_show(Fraction(k_scale)))
    return SuiteReport(suite_id, params, seed, tuple(R.items), elapsed)


def run_all(*, seed: int = 0, k_scale=Fraction(1)) -> list:
    """Every suite at its defaults, ordered by suite id."""
    return [run_suite(sid, seed=seed, k_scale=k_scale) for sid in SUITE_IDS]


def reports_to_json(reports) -> str:
    return json.dumps([r.to_json() for r in reports], indent=2, sort_keys=True)
