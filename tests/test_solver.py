"""Lifting, fixed-point fibers, and the local parameter structure.

Square-root digit strings were frozen from an independent big-integer
Hensel oracle; the -1/2 witness facts repeat what direct bracket
evaluation certifies.
"""

import importlib
import math
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbracket.analytic as analytic
import qbracket.solver as solver
from qbracket import (
    CertificationFailure,
    DomainError,
    FixedPointRecord,
    LiftFailure,
    PrimeContext,
    TruncatedSeries,
    cocycle_check,
    ctx_new,
    equals_to_precision,
    fixed_points_for_q,
    hensel_lift,
    local_Q,
    m0_for_x,
    multiplicity_from_c1,
    multiplicity_of,
    phi1_contains,
    phi2_contains,
    q_bracket,
    q_for_x,
    sample,
    unit_disk_zero_count,
)


def _poly(ctx, ints):
    return TruncatedSeries(ctx, ctx.zero(), tuple(ctx.from_int(k) for k in ints), None)


def test_hensel_series_form_sqrt8():
    # oracle: sqrt(8) in Z_7, residue-1 branch, digits 1,4,2,1,3,2,4,2,...
    c = ctx_new(7, 1, 40)
    root = hensel_lift(_poly(c, [-8, 0, 1]), c.from_int(1))
    assert root.val == 0
    assert list(root.digits()[:8]) == [1, 4, 2, 1, 3, 2, 4, 2]
    assert (root * root - c.from_int(8)).is_zero
    assert root.prec >= 38  # default target K - 2e


def test_hensel_callable_form_sqrt2():
    # oracle: sqrt(2) in Z_7, residue-3 branch, digits 3,1,2,6,1,2,1,2,...
    c = ctx_new(7, 1, 40)
    f = lambda x: x * x - c.from_int(2)
    fp = lambda x: x + x
    root = hensel_lift((f, fp), c.from_int(3))
    assert list(root.digits()[:8]) == [3, 1, 2, 6, 1, 2, 1, 2]
    assert (f(root)).is_zero and root.prec >= 38


def test_hensel_rejects_unit_value_at_seed():
    c = ctx_new(7, 1, 40)
    with pytest.raises(LiftFailure):
        hensel_lift(_poly(c, [-2, 0, 1]), c.from_int(1))  # f(1) = -1 is a unit


def test_hensel_rejects_flagged_derivative():
    c = ctx_new(7, 1, 40)
    f = lambda x: x * x - c.from_int(8)
    fp = lambda x: c.zero(5)
    with pytest.raises(LiftFailure):
        hensel_lift((f, fp), c.from_int(1))


def test_hensel_rejects_other_callables():
    c = ctx_new(7, 1, 40)
    with pytest.raises(TypeError):
        hensel_lift(42, c.from_int(1))


def test_hensel_respects_explicit_target():
    c = ctx_new(7, 1, 60)
    root = hensel_lift(_poly(c, [-8, 0, 1]), c.from_int(1), target=20)
    d = root * root - c.from_int(8)
    assert d.is_zero and d.prec >= 20


def test_roots_from_seed_subdivides_a_shared_residue_disk():
    # 6 and 11 both reduce to 1 mod 5: at the seed 1, v(f) = 2 is not above
    # 2 v(f') = 2, so only the subdivision one level down reaches them
    c = ctx_new(5, 1, 40)
    g = _poly(c, [66, -17, 1])  # (X - 6)(X - 11)
    with pytest.raises(LiftFailure):
        hensel_lift(g, c.from_int(1))
    lifts = [c.from_residue(r) for r in c.residue_field()]
    roots = solver._roots_from_seed(g, g.derivative(), c.from_int(1), c.K - 2, lifts)
    assert len(roots) == 2
    for want in (6, 11):
        assert sum(equals_to_precision(r, c.from_int(want), c.K - 2) for r in roots) == 1


def test_witness_fiber_at_q4():
    c = ctx_new(3, 1, 60)
    out = fixed_points_for_q(c.from_int(4))
    assert len(out) == 1 and out.predicted == 1 and out.deficit == 0
    assert out.m0 == Fraction(1)
    rec = out[0]
    assert isinstance(rec, FixedPointRecord)
    assert (rec.residue_x, rec.residue_u, rec.multiplicity) == (1, 1, 1)
    assert rec.certified_to >= 56
    gap = rec.x - c.from_rational(-1, 2)
    assert gap.is_zero and gap.prec >= 50
    assert (rec.u - c.one()).is_zero
    assert set(rec.to_json()) == {
        "x", "q", "u", "m0", "residue_x", "residue_u", "multiplicity", "certified_to"}


def test_fiber_is_empty_at_p2():
    c = ctx_new(2, 1, 40)
    out = fixed_points_for_q(c.from_int(5))
    assert len(out) == 0 and out.predicted == 0
    assert out.m0 == Fraction(2)


def test_fiber_is_empty_past_the_upper_cutoff():
    # m0 = 2/5 > 1/(p-2) = 1/3 carries no nontrivial fixed points
    c = ctx_new(5, 5, 150)
    u = sample(c, Random(1), valuation=0)
    out = fixed_points_for_q(c.one() + u.scale_pi(2))
    assert len(out) == 0 and out.predicted == 0 and out.m0 == Fraction(2, 5)


def test_fiber_rejects_q_outside_S():
    c = ctx_new(3, 2, 60)
    with pytest.raises(DomainError):
        fixed_points_for_q(c.one() + sample(c, Random(2), valuation=1))
    with pytest.raises(DomainError):
        fixed_points_for_q(c.one())


def test_parameter_fiber_for_x5_reports_deficit():
    # the polygon certifies 3 disk roots; only the residue-2 one is in
    # the working field, and the count is reported rather than padded
    c = ctx_new(5, 3, 90)
    out = q_for_x(c.from_int(5))
    assert out.m0 == Fraction(1, 3)
    assert out.predicted == 3 and len(out) == 1 and out.deficit == 2
    rec = out[0]
    assert rec.residue_u == 2 and rec.certified_to >= 78
    assert (q_bracket(c.from_int(5), rec.q) - c.from_int(5)).is_zero


def test_parameter_fiber_for_x5_over_the_quadratic_extension():
    # with residue degree 2 the seeds are the three residues in F_25 where
    # the reduction of h vanishes, and all three roots are found; the
    # residue-2 root is the one the base field finds, the other two reduce
    # to the roots of U^2 + 2U + 4, irreducible over F_5
    base = q_for_x(ctx_new(5, 3, 90).from_int(5))[0]
    c = ctx_new(5, 3, 90, f=2)
    x = c.from_int(5)
    out = q_for_x(x)
    assert out.predicted == 3 and len(out) == 3 and out.deficit == 0
    in_prime_field = [r for r in out if r.residue_u[1] == 0]
    assert len(in_prime_field) == 1 and in_prime_field[0].residue_u == (2, 0)
    rec = in_prime_field[0]
    assert rec.u.prec == base.u.prec and rec.u.val == base.u.val == 0
    assert rec.u.digits() == tuple((d, 0) for d in base.u.digits())
    for r in out:
        assert r.certified_to >= 78 and (q_bracket(x, r.q) - x).is_zero
        if r is not rec:
            ures = c.from_residue(r.residue_u)
            assert (ures * ures + ures + ures + c.from_int(4)).val > 0


def test_fixed_point_fiber_unchanged_by_residue_degree():
    # the q = 4 witness at p = 3 has one nontrivial fixed point, -1/2; a
    # context with f = 2 screens all of F_9 and finds the same point only
    c = ctx_new(3, 1, 60, f=2)
    out = fixed_points_for_q(c.from_int(4))
    assert out.predicted == 1 and len(out) == 1
    rec = out[0]
    assert (rec.residue_x, rec.residue_u) == ((1, 0), (1, 0))
    gap = rec.x - c.from_rational(-1, 2)
    assert gap.is_zero and gap.prec >= 50


def test_parameter_fiber_needs_enough_ramification():
    c = ctx_new(5, 2, 60)
    with pytest.raises(DomainError) as ei:
        q_for_x(c.from_int(5))
    assert ei.value.required_e == 6
    assert "rebuild the context with e = 6" in str(ei.value)


def test_m0_for_x_frozen_values():
    c5 = ctx_new(5, 3, 90)
    assert m0_for_x(c5.from_int(5)) == Fraction(1, 3)
    c3 = ctx_new(3, 1, 60)
    assert m0_for_x(c3.from_rational(-1, 2)) == Fraction(1)
    with pytest.raises(DomainError):
        m0_for_x(c5.from_int(7))  # v(A_3(7)) = 1, outside phi1(M)
    with pytest.raises(DomainError):
        m0_for_x(ctx_new(2, 1, 40).from_int(5))


def test_phi1_membership():
    c5 = ctx_new(5, 1, 40)
    assert phi1_contains(c5.from_int(5))
    assert not phi1_contains(c5.from_int(7))
    assert not phi1_contains(c5.from_rational(1, 5))
    assert not phi1_contains(ctx_new(2, 1, 40).from_int(3))
    c3 = ctx_new(3, 1, 60)
    assert phi1_contains(c3.from_rational(-1, 2))
    assert not phi1_contains(c3.from_int(2))  # A_1 = 0 exactly, v = +inf


def test_phi2_membership():
    assert phi2_contains(Fraction(1, 3), 5)
    assert not phi2_contains(Fraction(1, 4), 5)  # lower endpoint excluded
    assert not phi2_contains(Fraction(2, 5), 5)  # above 1/(p-2)
    assert phi2_contains(Fraction(1), 3)         # upper endpoint included
    assert not phi2_contains(Fraction(1, 2), 3)
    assert not phi2_contains(Fraction(1), 2)


def test_multiplicity_on_the_witness():
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)
    x = fixed_points_for_q(q)[0].x
    assert multiplicity_of(x, q) == 1
    with pytest.raises(DomainError):
        multiplicity_of(c.from_int(2), q)  # not a fixed point
    with pytest.raises(DomainError, match="q = 1"):
        multiplicity_of(x, c.one())        # every x is fixed; no fiber to classify in
    assert multiplicity_from_c1(c.zero(10)) == 2
    assert multiplicity_from_c1(c.from_int(3)) == 1


def test_local_Q_fixes_the_center():
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)
    x = fixed_points_for_q(q)[0].x
    assert (local_Q(x, q, x) - q).is_zero


def test_local_Q_scaling_law():
    # moving x by pi^v displaces q by exactly one level more
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)
    x = fixed_points_for_q(q)[0].x
    rng = Random(3)
    for v in (2, 3, 5):
        xp = x + sample(c, rng, valuation=v)
        q2 = local_Q(x, q, xp)
        assert (q2 - q).val == v + 1
        gap = q_bracket(xp, q2) - xp
        assert gap.is_zero or gap.val >= 40


def test_local_Q_domain_checks():
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)
    x = fixed_points_for_q(q)[0].x
    with pytest.raises(DomainError):
        local_Q(c.from_int(2), q, x)       # (x, q) off the manifold
    with pytest.raises(DomainError):
        local_Q(x, q, x + c.one())         # outside B(x, |A_1(x)|)
    with pytest.raises(DomainError, match="q = 1"):
        local_Q(x, c.one(), x)             # q = 1 has no parameter valuation


def test_round_trip_between_the_two_charts():
    c = ctx_new(3, 1, 60)
    rng = Random(4)
    for _ in range(3):
        q = c.one() + sample(c, rng, valuation=1)
        out = fixed_points_for_q(q)
        assert len(out) == 1
        x = out[0].x
        back = q_for_x(x)
        assert any((r.q - q).is_zero for r in back.records)


def test_one_log_per_q_per_call(monkeypatch):
    # q is split once per public call: the fiber's series and every record's
    # certification, local_Q's certification and law, and the three brackets
    # and the power of the cocycle identity all share at most one log q.  q^x
    # is q^n exp((x - n) log q), and at an integer x below p^k the exp
    # factor is 1, so the cocycle identity at integers takes no log at all
    calls = []
    log1p = analytic.log1p
    monkeypatch.setattr(analytic, "log1p", lambda y: calls.append(y) or log1p(y))
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)

    def count(fn, *args):
        calls.clear()
        fn(*args)
        return len(calls)

    assert count(fixed_points_for_q, q) == 1
    x = fixed_points_for_q(q)[0].x
    assert count(local_Q, x, q, x + sample(c, Random(5), valuation=3)) == 1
    assert count(cocycle_check, 2, 5, q) == 0
    assert count(cocycle_check, Fraction(-1, 2), 5, q) == 1


def test_lifts_take_over_the_seed_evaluations(monkeypatch):
    # _roots_from_seed evaluates g and g' at the seed at hint 8e before it
    # starts a lift; the lift's first step takes those two values over,
    # where a fresh lift evaluates both at its own first hint
    c = ctx_new(5, 10, 200)
    q = c.one() + sample(c, Random(12), valuation=3)
    calls = {"evaluate": 0, "lifts": 0}
    evaluate, newton = TruncatedSeries.evaluate, solver._newton_loop

    def counted_evaluate(series, point, prec_hint=None):
        calls["evaluate"] += 1
        return evaluate(series, point, prec_hint)

    def counted_newton(feval, fpeval, seed, target, known=None, closes=None):
        calls["lifts"] += 1
        return newton(feval, fpeval, seed, target, known, closes)

    def solve(newton_loop):
        monkeypatch.setattr(solver, "_newton_loop", newton_loop)
        calls.update(evaluate=0, lifts=0)
        return [r.to_json() for r in fixed_points_for_q(q)], dict(calls)

    monkeypatch.setattr(TruncatedSeries, "evaluate", counted_evaluate)
    records, taken = solve(counted_newton)
    # the same solve with every lift evaluating its seed afresh
    fresh_records, fresh = solve(lambda feval, fpeval, seed, target, known=None, closes=None:
                                 counted_newton(feval, fpeval, seed, target, None, closes))
    assert records == fresh_records and len(records) == 3
    assert taken["lifts"] == fresh["lifts"] > 0
    assert fresh["evaluate"] - taken["evaluate"] == 2 * taken["lifts"]


# -- the Newton ladder against the loop it replaced ------------------------
#
# _newton_loop_ref is the pre-change body of ``_newton_loop``: every step
# evaluated at least at the 8e floor, and f' at f's hint.  The ladder
# must return the same roots, bit for bit, with the same precisions.

_HINT_FLOOR = 8


def _newton_loop_ref(feval, fpeval, seed, target, known=None, closes=None):
    ctx = seed.ctx
    budget = math.ceil(math.log2(max(ctx.K, 2))) + 2
    x = seed
    est = 1        # lower bound on v(f(x)) guaranteed by the last step
    s = 0          # v(f'), measured at the first nonzero evaluation
    updates = 0
    for _ in range(2 * budget + 6):
        hint = min(target, max(_HINT_FLOOR * ctx.e, 2 * est - s + 2 * ctx.e))
        if known is not None and known[0] == hint:
            _, fx, fpx = known
        else:
            fx, fpx = feval(x, hint), None
        known = None
        low = fx.prec if fx.is_zero else fx.val
        if low >= target:
            if not updates:
                return x
            # the iterate was re-embedded exactly; cap at what the
            # function value actually certifies
            return x._cap_prec(low - s)
        if fx.is_zero:
            if fx.prec < hint:
                raise LiftFailure("evaluation caps out below the target precision")
            est = max(est, fx.prec)
            continue
        if fpx is None:
            fpx = fpeval(x, hint)
            if fpx.is_zero:
                fpx = fpeval(x, None)
        if fpx.is_zero:
            raise LiftFailure("derivative is zero-flagged at precision (multiple root?)")
        if not updates:
            s = fpx.val
            if fx.val <= 2 * s:
                raise LiftFailure("Newton criterion v(f) > 2 v(f') fails at the seed")
        x = (x - fx * fpx.inv())._lift_exact(ctx.K)
        est = min(2 * fx.val - s, hint)
        updates += 1
        if updates > budget:
            break
    raise LiftFailure("no convergence within the iteration budget "
                      "(is the target precision attainable?)")


def _both(fn, *args):
    """fn(*args) under the ladder and under the reference loop; a result
    is its JSON form (value, digits, precision), an error its type and text."""
    def run():
        try:
            out = fn(*args)
        except Exception as exc:  # the error type and message must match too
            return type(exc), str(exc)
        if isinstance(out, solver.SolveOutcome):
            return out.predicted, [r.to_json() for r in out]
        return out.to_json()

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_loop", _newton_loop_ref)
        want = run()
    return got, want


# (p, e, K, t): q = 1 + pi^t u with m0 = t/e admissible, so the fiber is
# not empty; e = 10 is the heavy leg
_LADDER_LEGS = [(3, 1, 60, 1), (3, 4, 120, 3), (5, 3, 90, 1), (7, 5, 60, 1),
                (5, 10, 200, 3)]


@given(st.sampled_from(_LADDER_LEGS), st.integers(0, 10 ** 6), st.integers(1, 6))
@settings(max_examples=12, deadline=None)
def test_ladder_matches_reference_on_the_fibers(leg, seed, gap):
    p, e, K, t = leg
    c = ctx_new(p, e, K)
    rng = Random(seed)
    q = c.one() + sample(c, rng, valuation=t)
    got, want = _both(fixed_points_for_q, q)
    assert got == want
    out = fixed_points_for_q(q)
    if not out:
        return
    x = out[0].x
    got, want = _both(q_for_x, x)
    assert got == want
    got, want = _both(local_Q, x, q, x + sample(c, rng, valuation=gap * e))
    assert got == want


@given(st.sampled_from((3, 5, 7)), st.sampled_from((1, 3, 4, 5, 10)),
       st.integers(0, 10 ** 6), st.integers(0, 2), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_ladder_matches_reference_on_hensel_lift(p, e, seed, near, off):
    # f = (X - r)(X - r2) with v(r - r2) = near, seeded near + off pi-units from r
    c = ctx_new(p, e, 30 * e)
    rng = Random(seed)
    r = sample(c, rng)
    r2 = r + sample(c, rng, valuation=near)
    f = TruncatedSeries(c, c.zero(), (r * r2, -(r + r2), c.one()), None)
    got, want = _both(hensel_lift, f, r + sample(c, rng, valuation=near + off))
    assert got == want


# -- the closing check of a lift -------------------------------------------
#
# An update taken at the target, whose next hint is the target too, is
# proved to close the lift from its own values (``TruncatedSeries._closes``)
# where the loop evaluated f at the target once more.  An acceptance must
# stand for that evaluation: zero at exactly the target.  A refusal falls
# back to it.

def _closing_calls(monkeypatch) -> list:
    """The answers of every closing check from here on, each acceptance
    checked against the evaluation it stands for."""
    calls = []
    closes = TruncatedSeries._closes

    def spy(series, old, new, fx, fpx, target):
        ok = closes(series, old, new, fx, fpx, target)
        if ok:
            out = series.evaluate(new, target)
            assert out.is_zero and out.prec == target
        calls.append(ok)
        return ok

    monkeypatch.setattr(TruncatedSeries, "_closes", spy)
    return calls


@given(st.sampled_from((3, 5, 7)), st.integers(1, 10), st.integers(1, 2),
       st.integers(0, 10 ** 6), st.integers(-1, 2), st.booleans(),
       st.sampled_from(("cubic", "raised", "linear")))
@settings(max_examples=90, deadline=None)
def test_closing_check_is_sound(p, e, f, seed, shift, slip, shape):
    # Newton steps on pi^shift (Y - a)(Y - a2)(Y - a3), Y = X - center, the
    # center known to a random precision; a slipped step is off by a random
    # amount, so f(x) + h f'(x) need not vanish where the check reads it.
    # "raised" adds a unit u (Y - a) and lifts the cubic by pi^s, so c_2 and
    # c_3 sit above the base and the check bounds h^2 R by their valuation;
    # "linear" keeps c_0 and c_1 of that, a series with no R at all
    c = ctx_new(p, e, 12 * e, f)
    rng = Random(seed)
    center = sample(c, rng)._cap_prec(rng.randrange(4 * e, 12 * e + 1))
    a = sample(c, rng)
    a2 = a + sample(c, rng, valuation=rng.randrange(2 * e))
    a3 = sample(c, rng)
    coeffs = (-(a * a2 * a3), a * a2 + a * a3 + a2 * a3, -(a + a2 + a3), c.one())
    if shape != "cubic":
        u, lift = sample(c, rng), c.pi_pow(rng.randrange(1, 4 * e))
        coeffs = (-(a * u) + lift * coeffs[0], u + lift * coeffs[1],
                  lift * coeffs[2], lift)[:2 if shape == "linear" else 4]
    s = TruncatedSeries(c, center, tuple(k.scale_pi(shift) for k in coeffs), None)
    d = s.derivative()
    target = rng.randrange(2 * e, 11 * e)
    x = center + a + sample(c, rng, valuation=rng.randrange(1, 4 * e))
    for _ in range(8):
        fx = s.evaluate(x, target)
        fpx = d.evaluate(x, rng.choice((target, None)))
        if fx.is_zero or fpx.is_zero:
            break
        new = (x - fx * fpx.inv())._lift_exact(c.K)
        if slip:
            new += sample(c, rng, valuation=rng.randrange(c.K))
        dz = new - center
        if not dz.is_zero and dz.val < 0:  # a step from outside Newton's ball may leave the disk
            break
        if s._closes(x, new, fx, fpx, target):
            out = s.evaluate(new, target)
            assert out.is_zero and out.prec == target
        x = new


def test_closing_check_bounds_the_remainder_from_c2():
    # the step 0 -> h = 25 on F = -25 + Y + 625 Y^2 has fx + h fpx = 0
    # exactly and F(h) = 625 h^2 = 5^8: the base is 0, but h^2 R = h^2 c_2
    # has 2 v(h) + v(c_2) = 8, so the check accepts at the target 8 and
    # refuses at 9; without c_2 the step is exact at any target
    c = ctx_new(5, 1, 40)
    old, new = c.zero(), c.from_int(25)
    for coeffs, closes, fails in (((-25, 1, 625), [8], [9]), ((-25, 1), [9, 30], [])):
        s = TruncatedSeries(c, c.zero(), tuple(map(c.from_int, coeffs)), None)
        for target in closes + fails:
            fx, fpx = s.evaluate(old, target), s.derivative().evaluate(old, target)
            assert s._closes(old, new, fx, fpx, target) == (target in closes), (coeffs, target)
            out = s.evaluate(new, target)
            assert out.is_zero == (target in closes) and out.prec == target


def test_refused_closing_check_falls_back_to_the_evaluation(monkeypatch):
    calls = _closing_calls(monkeypatch)
    c = ctx_new(5, 1, 40)
    # v(f) climbs 1, 2, 4, 8 to the target 10: the step from 4 has
    # 2 v(h) + b = 8 < 10, so the evaluation at the target runs, and the
    # step from 8 closes the lift
    f = TruncatedSeries(c, c.zero(), (c.from_int(2), c.from_int(-3), c.one()), None)
    got, want = _both(lambda: hensel_lift(f, c.from_int(7), target=10))
    assert got == want and calls == [False, True]
    # the center is known to 11 digits, so at the target 12 the evaluation's
    # precision is not decided before its pass: the step from v(h) = 9 meets
    # every other condition and is refused all the same
    calls.clear()
    a, a2 = c.from_int(5), c.from_int(10)
    f = TruncatedSeries(c, c.zero(11), (a * a2, -(a + a2), c.one()), None)
    got, want = _both(lambda: hensel_lift(f, a + c.from_int(125), target=12))
    assert got == want and calls == [False, False]


def test_every_ladder_fiber_closes_a_lift_by_its_check(monkeypatch):
    calls = _closing_calls(monkeypatch)
    for p, e, K, t in _LADDER_LEGS:
        c = ctx_new(p, e, K)
        calls.clear()
        assert fixed_points_for_q(c.one() + sample(c, Random(1), valuation=t))
        assert True in calls, (p, e, K)


def test_heavy_solve_vector_products(vector_products):
    # 12,435 products before the Newton ladder, 8,754 after it, 8,351 once
    # the probe's precision was derived; 7,926 (1,306 _vec_mul and 6,620
    # steps) once every Horner step took the fixed-multiplier kernel, each
    # step being a product and a reduction.  Now g and g' are evaluated by
    # blocks: 6,669 coefficient products, each one product of packed
    # integers with no reduction, 815 joins and 343 steps for the powers of
    # dz, one reduction per block (864); and g is built over y with no
    # scaling pass, 423 _vec_mul calls fewer.  8,710 products in all, 2,090
    # of them reduced, where there were 7,926 and 7,926.  The seeds are
    # now screened: each of the five residues costs one evaluation of g to
    # v_min + 1 = 0 pi-units over its first four coefficients, three steps
    # each (15).  exp and log1p now sum their series on packed integers:
    # the powers u^2 ... u^b of their power sums, 59 _vec_mul calls, are 59
    # steps (step 358 -> 417), and their 60 joins, _vec_mul calls too, are
    # products of packed integers (vec_mul 883 -> 764).  Each of their
    # 1,014 terms is one scalar times a packed power, where it was a scalar
    # times every entry of a vector and was not counted.  Now q^x is
    # q^n exp((x - n) log q): each of the three certified roots is a unit
    # whose residue n = 2, 3, 4 lies in F_5, so its exp runs at v = 4, not
    # 3, on 134 terms, not 400.  q^n and the product by the exp take 2, 3
    # and 3 _vec_mul calls (vec_mul 764 -> 772); the exp series lose 678
    # terms (power_term 1014 -> 336), 21 joins (power_join 60 -> 39) and
    # 27 power steps (step 417 -> 390).  Now each Newton step after a lift's
    # first starts inverting f' from the last step's inverse: one product
    # measures how far it is right, and the doubling goes on from there.
    # The 20 inverses of those steps take 110 _vec_mul calls, not 236
    # (vec_mul 772 -> 646); the four unseeded ones, y^-1 and each lift's
    # first f'^-1, keep their 58.  Now g's synthetic division by (X - 1) is
    # a Horner pass on the step kernel: one entrywise step, at multiplier 1,
    # per coefficient below the top of the 426-term deflated jet (step
    # 390 -> 815), where the raw multiply-add took the product by 1 as the
    # other factor itself and counted nothing.  Now each of the three lifts
    # proves its closing check from its last step's values, one product
    # (vec_mul 646 -> 649) where a block pass of g at the target ran over 379
    # coefficients: 379 coefficient products, 47 joins and 7 power steps
    # each (block 6669 -> 5532, join 815 -> 674, step 815 -> 794)
    c = ctx_new(5, 10, 200)
    q = c.one() + sample(c, Random(12), valuation=3)
    assert len(fixed_points_for_q(q)) == 3
    assert vector_products == {"vec_mul": 649, "step": 794, "block": 5532, "join": 674,
                               "power_term": 336, "power_join": 39}


def test_heavy_solve_evaluates_g_by_blocks(monkeypatch):
    # every evaluation of g and g' on the heavy solve past one digit is one
    # the shared precision rule decides, over more than 2B coefficients, so
    # each runs the block pass; the five seed screens of g, to v_min + 1 = 0
    # pi-units, keep four coefficients and take Horner steps; a series like
    # g runs blocks at f = 2 as at f = 1, and Horner steps at e = 1 and
    # where the rule is undecided (dz known to 5 digits)
    ran, paths = [], []
    evaluate, block_pass = TruncatedSeries.evaluate, PrimeContext._block_pass

    def spy(series, point, prec_hint=None):
        ran.clear()
        out = evaluate(series, point, prec_hint)
        paths.append((len(series), prec_hint, bool(ran)))
        return out

    monkeypatch.setattr(TruncatedSeries, "evaluate", spy)
    monkeypatch.setattr(PrimeContext, "_block_pass",
                        lambda ctx, *args: ran.append(1) or block_pass(ctx, *args))
    c = ctx_new(5, 10, 200)
    assert len(fixed_points_for_q(c.one() + sample(c, Random(12), valuation=3))) == 3
    assert {n for n, _, _ in paths} == {425, 424} and len(paths) == 51
    assert [(n, hint) for n, hint, used in paths if not used] == [(425, 0)] * 5
    for e, f, short in ((3, 1, False), (1, 1, False), (3, 2, False), (3, 1, True)):
        c = ctx_new(5, e, 30 * e, f)
        rng = Random(18)
        s = TruncatedSeries(c, c.zero(), tuple(sample(c, rng, valuation=k) for k in range(30)),
                            None)
        point = sample(c, rng)
        paths.clear()
        s.evaluate(point._cap_prec(5) if short else point)
        assert paths == [(30, None, e > 1 and not short)]


def _bench_ops(monkeypatch, workload: str, seed: int = 0) -> list:
    """Every op of one round of a benchmark workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    workloads = importlib.import_module("workloads")
    return workloads.build(workload, seed).round_ops


def _bench_legs(monkeypatch, workload: str, seed: int = 0) -> list:
    """The input of every op in one round of a benchmark workload: q for
    fixed-points, x for param-fiber."""
    return [op.spec[0] for op in _bench_ops(monkeypatch, workload, seed)]


def test_probe_precision_is_derived_on_the_bench_legs(monkeypatch):
    # the unit probe's precision comes from the precision recurrence with no
    # Horner pass on all seven fixed-points and param-fiber legs, and is the
    # one the pass gives
    probes, passes = [], [0]
    prec_at, evaluate = TruncatedSeries._prec_at, TruncatedSeries.evaluate

    def spy_prec_at(series, point):
        probes.append((series, point, prec_at(series, point)))
        return probes[-1][2]

    def spy_evaluate(series, point, prec_hint=None):
        passes[0] += prec_hint is None
        return evaluate(series, point, prec_hint)

    qs, xs = _bench_legs(monkeypatch, "fixed-points"), _bench_legs(monkeypatch, "param-fiber")
    assert len({q.ctx for q in qs}) == 4 and len({x.ctx for x in xs}) == 3
    monkeypatch.setattr(TruncatedSeries, "_prec_at", spy_prec_at)
    monkeypatch.setattr(TruncatedSeries, "evaluate", spy_evaluate)
    for q in qs:
        fixed_points_for_q(q)
    for x in xs:
        q_for_x(x)
    monkeypatch.undo()
    assert len(probes) == len(qs) + len(xs) and passes == [0]
    for series, point, prec in probes:
        assert prec == series.evaluate(point).prec


def test_probe_precision_falls_back_to_the_pass(monkeypatch):
    # a probe known to fewer digits than the coefficients, or zero-flagged
    # at a negative precision, leaves the v(acc) terms of the recurrence
    # free to bind, so the precision is that of _horner_division's pass,
    # with no evaluate: modulo pi^T, T = W - prec(dz) - b = 45 - 5 - 0 for the
    # short probe, and modulo pi^(W - b) = pi^45 for the zero-flagged one,
    # where T is larger; at an integer off the unit circle the shared rule
    # decides it, and every way gives the precision the pass gives
    c = ctx_new(5, 3, 60)
    rng = Random(17)
    s = TruncatedSeries(c, c.zero(), tuple(sample(c, rng, valuation=k) for k in range(6)),
                        Fraction(15))
    passes, moduli = [], []
    evaluate, division = TruncatedSeries.evaluate, analytic._horner_division
    monkeypatch.setattr(TruncatedSeries, "evaluate",
                        lambda series, point, prec_hint=None:
                        passes.append(prec_hint) or evaluate(series, point, prec_hint))
    monkeypatch.setattr(analytic, "_horner_division",
                        lambda base, coeffs, rho, wall, rel=None:
                        moduli.append(rel) or division(base, coeffs, rho, wall, rel))
    points = (c.from_int(6)._cap_prec(5), c.zero(-1), c.from_int(5), c.from_int(6))
    got = [s._prec_at(point) for point in points]
    assert passes == [] and moduli == [40, 45]
    monkeypatch.undo()
    assert got == [s.evaluate(point).prec for point in points]
    assert got[0] < got[3]


def test_fixed_points_make_no_unhinted_evaluation(monkeypatch):
    # the probe was the one evaluation without a hint on the fixed-points legs
    unhinted = []
    evaluate = TruncatedSeries.evaluate

    def spy(series, point, prec_hint=None):
        if prec_hint is None:
            unhinted.append(point)
        return evaluate(series, point, prec_hint)

    qs = _bench_legs(monkeypatch, "fixed-points")
    monkeypatch.setattr(TruncatedSeries, "evaluate", spy)
    for q in qs:
        fixed_points_for_q(q)
    assert unhinted == []


def test_local_Q_makes_no_unhinted_evaluation(monkeypatch):
    # local_Q reads its Newton target off the precision recurrence, as
    # q_for_x reads its probe, so no part of a param-fiber op, q_for_x then
    # local_Q, evaluates without a hint
    unhinted, targets = [], []
    evaluate, prec_at = TruncatedSeries.evaluate, TruncatedSeries._prec_at

    def spy(series, point, prec_hint=None):
        if prec_hint is None:
            unhinted.append(point)
        return evaluate(series, point, prec_hint)

    ops = _bench_ops(monkeypatch, "param-fiber")
    monkeypatch.setattr(TruncatedSeries, "evaluate", spy)
    monkeypatch.setattr(TruncatedSeries, "_prec_at",
                        lambda series, point: targets.append(1) or prec_at(series, point))
    for op in ops:
        op.call()
    assert unhinted == [] and len(targets) == 2 * len(ops)


def test_solve_fiber_forms_no_derivative_vector_past_the_kept_ones(monkeypatch):
    # the derivative is a view on the series' vectors, and its vector n is
    # formed when a pass first keeps coefficient n: as many are formed as
    # the largest hint keeps, and on these fibers that leaves most unformed
    views, kept = [], {}
    derivative, kept_at = TruncatedSeries.derivative, TruncatedSeries._kept

    def spy_derivative(series):
        views.append(derivative(series))
        return views[-1]

    def spy_kept(series, prec_hint):
        out = kept_at(series, prec_hint)
        kept[id(series)] = max(kept.get(id(series), 0), out[1])
        return out

    xs = _bench_legs(monkeypatch, "param-fiber")
    c = ctx_new(5, 10, 200)
    monkeypatch.setattr(TruncatedSeries, "derivative", spy_derivative)
    monkeypatch.setattr(TruncatedSeries, "_kept", spy_kept)
    for solve in [lambda x=x: q_for_x(x) for x in xs] + [
            lambda: fixed_points_for_q(c.one() + sample(c, Random(12), valuation=3))]:
        views.clear()
        kept.clear()
        assert solve()
        (view,) = views
        assert len(view._vecs) == kept[id(view)] < len(view) / 2


def test_param_fiber_forms_no_series2_vector_past_the_kept_ones(monkeypatch):
    # series2 forms vector k when a pass first reads it, and the derivative
    # view's vector n reads the series' vector n + 1: so q_for_x and local_Q
    # form as many vectors of h as the largest kept count of h and of its
    # view asks for, which on these legs leaves the tail unformed
    made, views, kept = [], {}, {}
    build, derivative, kept_at = solver.series2, TruncatedSeries.derivative, TruncatedSeries._kept

    def spy_series2(*args):
        made.append(build(*args))
        return made[-1]

    def spy_derivative(series):
        views[id(series)] = derivative(series)
        return views[id(series)]

    def spy_kept(series, prec_hint):
        out = kept_at(series, prec_hint)
        kept[id(series)] = max(kept.get(id(series), 0), out[1])
        return out

    ops = _bench_ops(monkeypatch, "param-fiber")
    monkeypatch.setattr(solver, "series2", spy_series2)
    monkeypatch.setattr(TruncatedSeries, "derivative", spy_derivative)
    monkeypatch.setattr(TruncatedSeries, "_kept", spy_kept)
    for op in ops:
        made.clear()
        views.clear()
        kept.clear()
        op.call()
        assert len(made) == 2  # q_for_x's h, then local_Q's
        for h in made:
            view = views[id(h)]
            assert len(h._vecs) == max(kept[id(h)], kept.get(id(view), 0) + 1) < len(h)


def test_solver_reads_coefficients_only_to_certify(monkeypatch):
    # the series are stored raw; PadicNumber coefficients are built only for
    # the two jet coefficients that each record's certification reads
    reads = []
    coeffs = TruncatedSeries.coeffs
    monkeypatch.setattr(TruncatedSeries, "coeffs",
                        property(lambda s: reads.append(len(s)) or coeffs.fget(s)))
    c = ctx_new(5, 10, 200)
    out = fixed_points_for_q(c.one() + sample(c, Random(12), valuation=3))
    assert len(out) == 3 and reads == [2] * 3


def test_short_derivative_gives_the_quotient_of_the_full_one(monkeypatch):
    # once v(f') is known, f' is evaluated at hint - v(f(x)) + v(f'); the
    # Newton quotient f(x)/f'(x) must come out as with f' at f's hint
    checked = [0]
    newton = solver._newton_loop

    def spying(feval, fpeval, seed, target, known=None, closes=None):
        last = {}

        def f_spy(x, hint):
            last["fx"], last["hint"] = feval(x, hint), hint
            return last["fx"]

        def fp_spy(x, hint):
            out = fpeval(x, hint)
            fx = last.get("fx")
            if hint is not None and fx is not None and hint < last["hint"] \
                    and not out.is_zero and out.prec >= hint:
                full = fpeval(x, last["hint"])
                if out.val == full.val:
                    assert fx * out.inv() == fx * full.inv()
                    checked[0] += 1
            return out

        return newton(f_spy, fp_spy, seed, target, known, closes)

    monkeypatch.setattr(solver, "_newton_loop", spying)
    c = ctx_new(5, 10, 200)
    out = fixed_points_for_q(c.one() + sample(c, Random(12), valuation=3))
    c3 = ctx_new(5, 3, 90)
    fiber = q_for_x(c3.from_int(5) + sample(c3, Random(13), valuation=4))
    assert len(out) == 3 and len(fiber) >= 1
    assert checked[0] >= 20


# -- the deflated series built over y, against the chain it replaced -----
#
# fixed_points_for_q built s1 = series1 at 0, counted its zeros, dropped
# the root at 0, divided by X - 1 and scaled by y^-1 = (q - 1)^-1; the
# scaling below is the raw TruncatedSeries.scale that did the last step.
# The jet built over y must give s1 y^-1, and the chain on it g, with the
# same base, valuations, vectors and precisions, and the same zero count.

def _scale_raw_ref(s, c):
    ctx = s.ctx
    tail = None if s.tail_bound is None else s.tail_bound + Fraction(c.val, ctx.e)
    cv, cu, crel = c.val, c._unit, c.prec - c.val
    base = s._base + cv
    out = []
    for v, w, p in s._stored():
        if v is None:
            out.append((None, None, p + cv))
        else:
            prec = v + cv + min(crel, p - v)
            out.append((v + cv, ctx._vec_reduce(ctx._vec_mul(cu, w), prec - base), prec))
    return TruncatedSeries._make(ctx, s.center, tail, base, *zip(*out))


def _raw(s):
    """A series as stored: center, tail bound, base and every triple."""
    return (s.center, s.tail_bound, s._base,
            [(v, None if w is None else tuple(w), p) for v, w, p in s._stored()])


def _built_over_y(q):
    """s1 y^-1 and g built both ways, each with its zero count, or the error."""
    ctx = q.ctx
    s = analytic._QSplit(q)
    _, m0, _ = s.parts()
    n_max = analytic._n_for_tail(m0 - Fraction(1, ctx.p - 1), Fraction(ctx.K, ctx.e) + m0 + 1)
    out = []
    for s1 in (s.jet(ctx.from_int(0), n_max, over_y=True),
               _scale_raw_ref(s.jet(ctx.from_int(0), n_max), s.inv_y)):
        try:
            count = unit_disk_zero_count(s1)
        except CertificationFailure as exc:
            count = str(exc)
        out.append((_raw(s1), count))
    new = out[0][0]
    try:
        g_new = _raw(s.jet(ctx.from_int(0), n_max, over_y=True)
                     .drop_center_root().divide_by_root(s.one))
    except CertificationFailure as exc:
        g_new = str(exc)
    try:
        g_old = _raw(_scale_raw_ref(s.jet(ctx.from_int(0), n_max)
                                    .drop_center_root().divide_by_root(s.one), s.inv_y))
    except CertificationFailure as exc:
        g_old = str(exc)
    return new, out[0][1], out[1][0], out[1][1], g_new, g_old


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_g_over_y_matches_the_scaled_chain_on_the_bench_legs(monkeypatch, seed):
    # the series fixed_points_for_q solves, and its predicted count, are
    # those of the old chain on every q of a fixed-points round
    seen = []
    solve_fiber = solver._solve_fiber
    monkeypatch.setattr(solver, "_solve_fiber",
                        lambda series, predicted, *args:
                        seen.append((series, predicted)) or solve_fiber(series, predicted, *args))
    qs = _bench_legs(monkeypatch, "fixed-points", seed)
    for q in qs:
        seen.clear()
        fixed_points_for_q(q)
        ctx = q.ctx
        s = analytic._QSplit(q)
        _, m0, _ = s.parts()
        delta = m0 - Fraction(1, ctx.p - 1)
        s1 = s.jet(ctx.from_int(0), analytic._n_for_tail(delta, Fraction(ctx.K, ctx.e) + m0 + 1))
        g_old = _scale_raw_ref(s1.drop_center_root().divide_by_root(s.one), s.inv_y)
        [(g, predicted)] = seen
        assert _raw(g) == _raw(g_old)
        assert predicted == unit_disk_zero_count(s1) - 2


@st.composite
def _q_over_y_arguments(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    e = draw(st.integers(1, 6))
    c = ctx_new(p, e, draw(st.integers(2 * e, 12 * e + 12)))
    lo = e // (p - 1) + 1  # least t with t/e in S
    t = draw(st.integers(lo, min(lo + 2 * e, c.K - 1)))
    rng = Random(draw(st.integers(0, 2 ** 32)))
    prec = draw(st.integers(t + 1, c.K + e))  # q known below K, or above it
    digits = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(prec - t - 1)]
    return c.one()._lift_exact(prec) + c.from_digits(t, digits, prec)


@given(_q_over_y_arguments())
@settings(max_examples=40, deadline=None)
def test_g_over_y_matches_the_scaled_chain(q):
    new, new_count, old, old_count, g_new, g_old = _built_over_y(q)
    assert new == old and new_count == old_count
    assert g_new == g_old


# -- the seed screen against the seed lists it replaced -------------------
#
# _solve_fiber_ref is the pre-change seed loop.  Its callers handed it
# every residue: fixed_points_for_q those other than 0 and 1 first, then 0
# and 1, with the probe p + 1, and q_for_x the nonzero ones with the probe
# 1.  The screened seeds must give the same records, predicted count and m0.

def _solve_fiber_ref(series, predicted, m0, point, seeds, probe):
    ctx = series.ctx
    deriv = series.derivative()
    target = series._prec_at(ctx.from_int(probe))
    lifts = [ctx.from_residue(r) for r in ctx.residue_field()]
    roots = []
    for r in seeds:
        for root in solver._roots_from_seed(series, deriv, ctx.from_residue(r), target, lifts):
            if not any(equals_to_precision(root, old, min(root.prec, old.prec) - 2 * ctx.e)
                       for old in roots):
                roots.append(root)
        if len(roots) == predicted:
            break
    records = sorted((solver._certify(*point(root), m0) for root in roots),
                     key=solver._record_key)
    return solver.SolveOutcome(tuple(records), predicted, m0)


def _both_seedings(fn, arg):
    """fn(arg) with screened seeds and with the caller's old seed list, and
    the series solved; an outcome is (predicted, m0, records as JSON), an
    error its type and text."""
    ctx = arg.ctx
    field = ctx.residue_field()
    seeds, probe = ((field[2:] + field[:2], ctx.p + 1) if fn is fixed_points_for_q
                    else (field[1:], 1))
    solved = []

    def run():
        try:
            out = fn(arg)
        except Exception as exc:  # the error type and message must match too
            return type(exc), str(exc)
        return out.predicted, out.m0, [r.to_json() for r in out]

    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_solve_fiber", lambda series, predicted, m0, point: (
            solved.append(series)
            or _solve_fiber_ref(series, predicted, m0, point, seeds, probe)))
        want = run()
    return got, want, solved


# (p, e, K, t, f): q = 1 + pi^t u.  In the first five m0 = t/e is 1/(p-2),
# the boundary, and g has v_min = 0; in the last four m0 lies inside the
# range and g has v_min = -1, so the Newton criterion v(g) > 2 v(g') could
# hold at a seed whose disk has no root.  At f = 3 the seed lists search
# 27 to 343 disks
_SCREEN_LEGS = [(3, 1, 60, 1, 2), (5, 3, 45, 1, 1), (5, 3, 30, 1, 3), (7, 5, 30, 1, 2),
                (7, 5, 10, 1, 3), (3, 4, 120, 3, 3), (5, 10, 200, 3, 1), (5, 7, 42, 2, 2),
                (7, 11, 33, 2, 1)]


@pytest.mark.parametrize("leg", _SCREEN_LEGS)
@given(st.integers(0, 10 ** 6))
@settings(max_examples=2, deadline=None)
def test_screened_seeds_match_the_seed_lists(leg, seed):
    p, e, K, t, f = leg
    c = ctx_new(p, e, K, f)
    rng = Random(seed)
    q = c.one() + sample(c, rng, valuation=t)
    got, want, [g] = _both_seedings(fixed_points_for_q, q)
    assert got == want
    assert min(g._lows) == (0 if Fraction(t, e) == Fraction(1, p - 2) else -1)
    # x on the fiber, and x near p as on the param-fiber legs
    near_p = c.from_int(p) + sample(c, rng, valuation=e + 1)
    for x in [r.x for r in fixed_points_for_q(q)] + [near_p]:
        if phi1_contains(x):
            got, want, _ = _both_seedings(q_for_x, x)
            assert got == want


def test_seed_screen_costs_one_digit_per_disk_without_a_root(monkeypatch):
    # 1 + pi at (7, 5, 60, f=2): 2 of the 5 roots lie in the working field;
    # each of the other 47 residue disks costs one evaluation of g to
    # v_min + 1 pi-units and none at the 8e floor, where the seed lists
    # evaluated g and g' there at 8e
    c = ctx_new(7, 5, 60, f=2)
    calls, solved = [], []
    evaluate, solve_fiber = TruncatedSeries.evaluate, solver._solve_fiber

    def spy(series, point, prec_hint=None):
        calls.append((series, point.residue(), prec_hint))
        return evaluate(series, point, prec_hint)

    monkeypatch.setattr(TruncatedSeries, "evaluate", spy)
    monkeypatch.setattr(solver, "_solve_fiber", lambda series, *args:
                        solved.append(series) or solve_fiber(series, *args))
    out = fixed_points_for_q(c.one() + c.one().scale_pi(1))
    [g] = solved
    rooted = {r.residue_x for r in out}
    assert out.predicted == 5 and len(rooted) == 2
    empty = [(series is g, hint) for series, residue, hint in calls if residue not in rooted]
    assert empty == [(True, min(g._lows) + 1)] * 47
