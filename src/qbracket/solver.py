"""Fixed points of the q-bracket: lifting, certification, local structure.

Roots are always hunted on the deflated quotient
g(X) = ([X]_q - X)/((q-1) X (X-1)), so the trivial fixed points 0 and 1
and the global factor q-1 are out of the way before any Newton step;
likewise the parameter direction works on h(x, U) with q = 1 + pi^t U.
Every returned record is re-certified by one direct evaluation at x,
independent of the series the root was found on: the first two Taylor
coefficients of [X]_q - X at x give both the certification gap
[x]_q - x and the multiplicity coefficient c1.

The solver never takes q apart itself.  It asks the analytic layer for
one split of q per fiber (per record in the parameter direction, where
each record has its own q) and reads m0, u, the deflated series and
every certification of that fiber from it, so log q is computed once.

Newton iteration runs on a precision ladder: each step evaluates the
series only a little past the accuracy the iterate already has, 2e
pi-units above the doubled bound of the last step, and the derivative
only to the digits the Newton quotient keeps, which keeps the Horner
sums short.  Only the seed evaluations, which decide the Newton
criterion and the subdivision, are taken at a fixed floor of 8e, and the
screen that picks the seeds evaluates each residue to one digit.  The
ladder is transparent to correctness because evaluations are honest at
every hint: a lift that converges returns the same root, with the same
digits and precision, whatever hints it climbed through.

Nothing on the ladder is rebuilt that an earlier rung already holds.
The derivative is a view on the series' vectors, which forms a
coefficient when a hint first keeps it.  The target, the precision a
full evaluation would carry, is read off the precision recurrence
without one (``TruncatedSeries._prec_at``), for the fiber's probe and
for ``local_Q``'s target alike.  And each step starts inverting f' from
the inverse of the step before, whose digits agree with the new one to
about the accuracy the iterate had then.

Nor does a lift on a series evaluate it once more only to confirm that
its last step reached the target.  When the step was taken at the
target, f(x + h) = f(x) + h f'(x) + h^2 R with v(R) at least the series'
base, so the values of that step, f(x) to the target, f'(x) and the
exact h, prove the check with one product
(``TruncatedSeries._closes``); where they cannot, or the evaluation's
precision is not decided before its pass, the lift evaluates as before.
Either way it returns the same root with the same precision.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from .analytic import TruncatedSeries, _QSplit, _n_for_tail, a_poly, series2
from .core import PadicNumber, equals_to_precision
from .errors import CertificationFailure, DomainError, LiftFailure
from .polygon import _frac_str, unit_disk_zero_count

__all__ = [
    "FixedPointRecord",
    "SolveOutcome",
    "fixed_points_for_q",
    "hensel_lift",
    "local_Q",
    "m0_for_x",
    "multiplicity_from_c1",
    "multiplicity_of",
    "phi1_contains",
    "phi2_contains",
    "q_for_x",
]


@dataclass(frozen=True)
class FixedPointRecord:
    """One point (x, q-1) of M with its residue data and certification.

    ``certified_to`` is the verified lower bound on v([x]_q - x) in
    pi-units, obtained by direct evaluation, never from the series the
    root was lifted on.
    """

    x: PadicNumber
    q: PadicNumber
    m0: Fraction
    u: PadicNumber
    residue_x: int | tuple
    residue_u: int | tuple
    multiplicity: int
    certified_to: int

    def to_json(self) -> dict:
        return {
            "x": self.x.to_json(),
            "q": self.q.to_json(),
            "u": self.u.to_json(),
            "m0": _frac_str(self.m0),
            "residue_x": self.residue_x,
            "residue_u": self.residue_u,
            "multiplicity": self.multiplicity,
            "certified_to": self.certified_to,
        }


class SolveOutcome(Sequence):
    """Sequence of records plus the polygon's predicted root count.

    ``deficit`` counts roots the Newton polygon certifies inside the
    closed unit disk but that were not returned.  Such a root may lie
    outside the working field: it is reported, not chased into
    extensions, and when its residue lies in F_{p^f} (an irreducible
    factor of degree f in the reduction), re-solving in
    ``ctx_new(p, e, K, f=f)`` recovers it.  A deficit may also count
    roots of seeds the solver gave up on: the search from one seed
    stops after 8 p^f subdivision nodes and skips any point whose Newton
    lift fails.
    """

    __slots__ = ("records", "predicted", "m0")

    def __init__(self, records: tuple, predicted: int, m0: Fraction):
        self.records = tuple(records)
        self.predicted = predicted
        self.m0 = m0

    @property
    def deficit(self) -> int:
        return self.predicted - len(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    def __repr__(self) -> str:
        return (f"SolveOutcome({len(self.records)} records, "
                f"predicted={self.predicted}, m0={self.m0})")


# _roots_from_seed evaluates each seed at _HINT_FLOOR e pi-units: those values
# decide the Newton criterion and the subdivision, so they need more digits
# than the first step of a lift, which takes them over at whatever hint.
_HINT_FLOOR = 8


def _newton_loop(feval, fpeval, seed: PadicNumber, target: int,
                 known: tuple | None = None, closes=None) -> PadicNumber:
    """Newton iteration with laddered evaluation hints.

    ``feval(point, hint)`` must be honest: the result carries only
    digits that are actually correct.  Stops once v(f(x)) >= target.
    Each step evaluates f at min(target, 2 est - s + 2e), est the bound
    on v(f(x)) the last step guarantees and s = v(f'(seed)), which keeps
    the Horner sums short early on.  ``known`` = (hint, f(seed),
    f'(seed)) hands over evaluations the caller already made at the
    seed; the first step takes them, whatever their hint.

    Until s is measured, f' is evaluated at f's hint, and again without
    a hint when it is zero-flagged there.  After that the quotient
    f(x)/f'(x) keeps only the hint - v(f(x)) relative digits of f(x), so
    f' is evaluated at hint - v(f(x)) + s, which gives the quotient the
    same digits and precision as f' at the full hint; when that value is
    zero-flagged, has v != s or comes back short of the asked precision,
    f' is evaluated at the full hint as before.  f'(x)^-1 is doubled from
    the last step's inverse (``PadicNumber._inv``): f' moved by about
    f''(x) f(x)/f'(x) since, so the two agree to about as many digits as
    the last step's iterate had, and the doubling takes up from there.
    The inverse is unique, so this changes no digit.

    A lift ends on an evaluation at the target that is zero there, or,
    given ``closes(old, new, f(old), f'(old), target)``, on the update
    that makes it provable: one taken at the target whose next hint is
    the target too, where ``closes`` proves from the step's own values
    that the evaluation at new would be zero at exactly the target
    (``TruncatedSeries._closes``).  The loop returns then what that
    evaluation would have let it return, new capped at target - s.  When
    ``closes`` refuses, or is None, f is evaluated at new as before.
    Raises LiftFailure once more than ceil(log2 K) + 2 steps were needed.
    """
    ctx = seed.ctx
    budget = math.ceil(math.log2(max(ctx.K, 2))) + 2
    x = seed
    est = 1        # lower bound on v(f(x)) guaranteed by the last step
    s = 0          # v(f'), measured at the first nonzero evaluation
    inv = None     # f'^-1 of the last step, where the next one's doubling starts
    updates = 0
    for _ in range(2 * budget + 6):
        if known is not None:
            hint, fx, fpx = known
            known = None
        else:
            hint = min(target, 2 * est - s + 2 * ctx.e)
            fx, fpx = feval(x, hint), None
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
        if fpx is None and updates:
            short = hint - fx.val + s
            fpx = fpeval(x, short)
            if fpx.is_zero or fpx.val != s or fpx.prec < short:
                fpx = None
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
        inv = fpx._inv(inv)
        old, x = x, (x - fx * inv)._lift_exact(ctx.K)
        est = min(2 * fx.val - s, hint)
        updates += 1
        if updates > budget:
            break
        if (closes is not None and hint == target <= 2 * est - s + 2 * ctx.e
                and closes(old, x, fx, fpx, target)):
            return x._cap_prec(target - s)
    raise LiftFailure("no convergence within the iteration budget "
                      "(is the target precision attainable?)")


def hensel_lift(f, seed: PadicNumber, *, target: int | None = None) -> PadicNumber:
    """Lift a root from a seed with v(f(seed)) > 2 v(f'(seed)).

    ``f`` is a TruncatedSeries, or a pair (f, fprime) of callables on
    PadicNumbers.  The default target is K - 2e pi-units, lowered to the
    series tail bound when that is smaller.  The returned root satisfies
    v(root - seed) > v(f'(seed)).  A series lift ends on its last Newton
    step when that step's values prove v(f(root)) >= target
    (``TruncatedSeries._closes``), else on an evaluation of f at the
    target; a pair of callables always ends on that evaluation.
    """
    ctx = seed.ctx
    if isinstance(f, TruncatedSeries):
        fd = f.derivative()
        feval, fpeval, closes = f.evaluate, fd.evaluate, f._closes
        cap = f._cap
    elif isinstance(f, tuple) and len(f) == 2:
        raw_f, raw_fp = f
        feval = lambda pt, hint: raw_f(pt)
        fpeval = lambda pt, hint: raw_fp(pt)
        cap = closes = None
    else:
        raise TypeError("f must be a TruncatedSeries or a (f, fprime) pair of callables")
    if target is None:
        target = ctx.K - 2 * ctx.e
        if cap is not None:
            target = min(target, cap)
    fp0 = fpeval(seed, None)
    if fp0.is_zero:
        raise LiftFailure("derivative is zero-flagged at precision (multiple root?)")
    root = _newton_loop(feval, fpeval, seed, target, closes=closes)
    moved = root - seed
    if not moved.is_zero and moved.val <= fp0.val:
        raise LiftFailure("lift left the contraction ball of the seed")
    return root


def _roots_from_seed(g: TruncatedSeries, gp: TruncatedSeries, seed: PadicNumber,
                     target: int, lifts: list) -> list:
    """All roots reachable from one residue seed, refining when needed.

    When the Newton criterion fails at a seed but the value still
    vanishes there at precision, the disk is subdivided one pi-level
    down, one sub-center per residue, and each retried, up to depth 2e
    and 8 p^f nodes.  This finds roots that share one residue disk, such
    as 6 and 11 from the seed 1 over Q_5; without it they would show up
    as a deficit, not as a wrong count.  Roots past the node budget and
    failed lifts are dropped, so they too show up as a deficit.
    """
    ctx = seed.ctx
    found = []
    stack = [(seed, 0)]
    nodes = 0
    floor = _HINT_FLOOR * ctx.e
    while stack:
        pt, depth = stack.pop()
        nodes += 1
        if nodes > 8 * ctx.p ** ctx.f:
            break
        fx = g.evaluate(pt, floor)
        fpx = gp.evaluate(pt, floor)
        if fpx.is_zero:
            fpx = gp.evaluate(pt, None)
        low = fx.prec if fx.is_zero else fx.val
        if not fpx.is_zero and low > 2 * fpx.val:
            try:
                found.append(_newton_loop(g.evaluate, gp.evaluate, pt, target,
                                          (floor, fx, fpx), closes=g._closes))
            except LiftFailure:
                pass
            continue
        if depth < 2 * ctx.e and low > depth:
            for d in lifts:
                child = pt if d.is_zero else pt + d.scale_pi(depth + 1)
                stack.append((child, depth + 1))
    return found


def multiplicity_from_c1(c1: PadicNumber) -> int:
    """Classifier core: a vanishing first derivative means a double point."""
    return 2 if c1.is_zero else 1


def _gap_and_c1(x: PadicNumber, s: _QSplit, failure: type) -> tuple:
    """Certified v([x]_q - x) and c1 from one direct evaluation at x.

    Raises ``failure`` when the gap sits below the acceptance line
    K - 4e, so (x, q) is not a fixed point at working precision.
    """
    ctx = s.q.ctx
    diff, c1 = s.jet(x, 1).coeffs
    cert = diff.prec if diff.is_zero else diff.val
    bound = ctx.K - 4 * ctx.e
    if cert < bound:
        raise failure(
            f"direct evaluation certifies only v >= {cert} pi-units, below the "
            f"acceptance line {bound}")
    return cert, c1


def _certify(x: PadicNumber, s: _QSplit, u: PadicNumber,
             m0: Fraction) -> FixedPointRecord:
    cert, c1 = _gap_and_c1(x, s, CertificationFailure)
    if x.is_zero or (x - s.one).is_zero:
        raise CertificationFailure("trivial root escaped deflation")
    return FixedPointRecord(
        x=x, q=s.q, m0=m0, u=u,
        residue_x=x.residue(), residue_u=u.residue(),
        multiplicity=multiplicity_from_c1(c1),
        certified_to=cert)


def _record_key(rec: FixedPointRecord):
    return (rec.residue_x, rec.residue_u, rec.x.val if not rec.x.is_zero else rec.x.prec,
            rec.x.digits())


def _solve_fiber(series: TruncatedSeries, predicted: int, m0: Fraction, point) -> SolveOutcome:
    """Lift the roots of a fiber's series from residue seeds, then certify them.

    Residue r is no seed when the series at r, to v_min + 1 pi-units, is
    nonzero of valuation v_min, the least coefficient valuation (a
    zero-flagged coefficient's precision standing in for it): the
    residual polynomial is nonzero at r, so every value on r's disk has
    valuation v_min.  Seeds are tried in residue order until
    ``predicted`` distinct roots are found; ``point(root)`` is the (x,
    split of q, u) a root stands for.  Records come out sorted by
    residues, then digits.
    """
    ctx = series.ctx
    deriv = series.derivative()
    target = series._prec_at(ctx.one())  # the attainable evaluation precision
    lifts = [ctx.from_residue(r) for r in ctx.residue_field()]
    v_min = series._lows[0]  # suffix minima: the first is the least
    roots = []
    for seed in lifts:
        screen = series.evaluate(seed, v_min + 1)
        if not screen.is_zero and screen.val == v_min:
            continue
        for root in _roots_from_seed(series, deriv, seed, target, lifts):
            if not any(equals_to_precision(root, old, min(root.prec, old.prec) - 2 * ctx.e)
                       for old in roots):
                roots.append(root)
        if len(roots) == predicted:
            break
    records = sorted((_certify(*point(root), m0) for root in roots), key=_record_key)
    return SolveOutcome(tuple(records), predicted, m0)


def fixed_points_for_q(q: PadicNumber) -> SolveOutcome:
    """All nontrivial fixed points of [X]_q in the working field.

    Lifts the deflated series from every residue where its reduction may
    vanish, until the polygon's count is reached.
    """
    ctx = q.ctx
    s = _QSplit(q)
    s.check("fixed_points_for_q", "q = 1 fixes everything; the fiber is not discrete")
    _, m0, u = s.parts()
    if not phi2_contains(m0, ctx.p):
        return SolveOutcome((), 0, m0)
    # s1 / (q - 1): the constant factor moves every valuation, zero-flag
    # bound and the tail bound alike, so the count is that of s1
    n_max = _n_for_tail(m0 - Fraction(1, ctx.p - 1), Fraction(ctx.K, ctx.e) + m0 + 1)
    s1 = s.jet(ctx.from_int(0), n_max, over_y=True)
    predicted = unit_disk_zero_count(s1) - 2
    g = s1.drop_center_root().divide_by_root(s.one)
    return _solve_fiber(g, predicted, m0, lambda x: (x, s, u))


def _phi1_val(x: PadicNumber) -> int | None:
    """v(A_{p-2}(x)) in pi-units when x is in phi1(M), else None."""
    ctx = x.ctx
    if ctx.p == 2 or (not x.is_zero and x.val < 0):
        return None
    big_a = a_poly(ctx.p - 2, x)
    if big_a.is_zero or not 0 <= big_a.val * (ctx.p - 1) < ctx.e:
        return None
    return big_a.val


def phi1_contains(x: PadicNumber) -> bool:
    """Is x in phi1(M)?  Exactly when 0 <= v(A_{p-2}(x)) < 1/(p-1)."""
    return _phi1_val(x) is not None


def phi2_contains(m0, p: int) -> bool:
    """Is m0 an admissible parameter valuation?  1/(p-1) < m0 <= 1/(p-2)."""
    m0 = Fraction(m0)
    return p != 2 and Fraction(1, p - 1) < m0 <= Fraction(1, p - 2)


def m0_for_x(x: PadicNumber) -> Fraction:
    """The unique admissible m0 for x, (1 - v(A_{p-2}(x)))/(p-2)."""
    ctx = x.ctx
    if ctx.p == 2:
        raise DomainError("p = 2 admits no nontrivial fixed points")
    v_a = _phi1_val(x)
    if v_a is None:
        raise DomainError("x is not in phi1(M): need 0 <= v(A_{p-2}(x)) < 1/(p-1)")
    return (1 - Fraction(v_a, ctx.e)) / (ctx.p - 2)


def q_for_x(x: PadicNumber) -> SolveOutcome:
    """All q with x a nontrivial fixed point of [X]_q, via h(x, U) in U.

    A context with residue degree f also finds the roots whose residues
    lie in F_{p^f}.
    """
    ctx = x.ctx
    m0 = m0_for_x(x)
    h = series2(x, 0, m0)
    if h._vals[0] != 0:  # None when zero-flagged
        raise CertificationFailure("leading parameter coefficient is not a unit")
    t = int(m0 * ctx.e)
    one = ctx.one()
    return _solve_fiber(h, unit_disk_zero_count(h), m0,
                        lambda u: (x, _QSplit(one + u.scale_pi(t)), u))


def multiplicity_of(x: PadicNumber, q: PadicNumber) -> int:
    """1 for a simple fixed point, 2 when the series derivative vanishes."""
    _, c1 = _gap_and_c1(x, _QSplit(q), DomainError)
    return multiplicity_from_c1(c1)


def local_Q(x: PadicNumber, q: PadicNumber, xp: PadicNumber) -> PadicNumber:
    """The unique q' near q with x' a fixed point of [X]_{q'}.

    Requires (x, q) on M and x' inside the open ball of radius
    |A_{p-2}(x)| around x.  The exact law
    v(q'-q) = v(([x']_q - x')/(x'(x'-1))) is checked before returning.
    """
    ctx = q.ctx
    s = _QSplit(q)
    _gap_and_c1(x, s, DomainError)
    gap = xp - x
    if not gap.is_zero:
        big_a = a_poly(ctx.p - 2, x)
        if big_a.is_zero:
            raise DomainError("cannot locate the ball radius: A_{p-2}(x) is zero-flagged")
        if gap.val <= big_a.val:
            raise DomainError("x' lies outside the open ball B(x, |A_{p-2}(x)|)")
    t, m0, u = s.parts()
    h = series2(xp, 0, m0)
    u2 = _newton_loop(h.evaluate, h.derivative().evaluate, u, h._prec_at(u), closes=h._closes)
    one = s.one
    q2 = one + u2.scale_pi(t)
    lhs = q2 - q
    rhs = (s.bracket(xp) - xp) * (xp * (xp - one)).inv()
    if lhs.is_zero != rhs.is_zero:
        raise CertificationFailure("local uniqueness law failed at carried precision")
    if not lhs.is_zero and lhs.val != rhs.val:
        raise CertificationFailure(
            f"local uniqueness law failed: v(q'-q) = {lhs.val} pi-units but the "
            f"bracket quotient has v = {rhs.val}")
    return q2
