"""Analytic functions on the p-adic unit disk, with rigorous truncation.

Everything here reduces to finite sums whose omitted terms are bounded
below in valuation, so results are honest PadicNumbers: their carried
precision never exceeds what the truncation proves.  The convergence
domain that makes this work is S = {v(y) > 1/(p-1)}; on it log(1+y) and
exp preserve valuations and are mutually inverse, which is also why the
incremental term recurrences below never lose relative precision (each
division by n is covered by the extra factor y^(n-1)).

The parameter q enters only through q^x = exp(x log q) with q = 1 + y
in 1+S.  How q splits is decided here, once per public call: a private
split holds y = pi^t u, the q = 1 and 1+S checks, and log q and y^-1
from their first use, so q_pow, q_bracket, the series1 jets and the
solver's certifications share one log1p per q.

TruncatedSeries is the package's jet type: a finite coefficient list
around a center plus a proven lower bound on the valuation of everything
omitted, valid for evaluation anywhere in the closed unit disk around
the center.  The q-bracket series in X and the parameter series in U are
built here; root hunting on them lives in the solver module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

from .core import PadicNumber, PrimeContext
from .errors import CertificationFailure, ContextMismatch, DomainError

__all__ = [
    "TruncatedSeries",
    "a_poly",
    "cocycle_check",
    "digit_sum",
    "exp",
    "factorial_valuation",
    "in_S",
    "log1p",
    "q_bracket",
    "q_pow",
    "series1",
    "series2",
]


def _coerce(ctx: PrimeContext, v) -> PadicNumber:
    if isinstance(v, PadicNumber):
        if v.ctx is not ctx:
            raise ContextMismatch("operand belongs to a different context")
        return v
    if isinstance(v, int):
        return ctx.from_int(v)
    if isinstance(v, Fraction):
        return ctx.from_rational(v.numerator, v.denominator)
    raise TypeError(f"cannot interpret {type(v).__name__} as a p-adic number")


def in_S(y: PadicNumber) -> bool:
    """Membership in S = {v(y) > 1/(p-1)}, the common disk of exp and log."""
    if y.is_zero:
        return True
    return y.val * (y.ctx.p - 1) > y.ctx.e


def digit_sum(n: int, p: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = 0
    while n:
        n, r = divmod(n, p)
        s += r
    return s


def factorial_valuation(n: int, p: int) -> Fraction:
    """v(n!) = (n - s_p(n))/(p - 1)."""
    return Fraction(n - digit_sum(n, p), p - 1)


def log1p(y: PadicNumber) -> PadicNumber:
    """log(1+y) for y in S; preserves the valuation of y.

    The truncation index is chosen blockwise: for p^j <= n < p^(j+1) the
    term y^n/n has valuation at least p^j*t - e*j (pi-units, t = v(y)),
    and that lower envelope increases in j once p^j*t*(p-1) > e.  The
    first j where both the envelope clears the target precision and the
    growth condition holds gives a sound cutoff N = p^j.
    """
    ctx = y.ctx
    if not in_S(y):
        raise DomainError("log1p needs v(y) > 1/(p-1)")
    if y.is_zero:
        if y.prec * (ctx.p - 1) < ctx.e:
            raise DomainError("zero at too little precision to certify membership in S")
        return ctx.zero(y.prec)
    t, target = y.val, y.prec
    j = 1
    while ctx.p ** j * t - ctx.e * j < target or ctx.p ** j * t * (ctx.p - 1) <= ctx.e:
        j += 1
    n_stop = min(ctx.p ** j, _ceil_frac(Fraction(target + ctx.e * (j - 1), t)))
    acc = y
    power = y
    for n in range(2, n_stop):
        power = power * y
        term = power._div_int(n)
        acc = acc + (term if n % 2 else -term)
    return acc


def exp(z: PadicNumber) -> PadicNumber:
    """exp(z) for z in S; v(exp(z) - 1) = v(z)."""
    ctx = z.ctx
    if not in_S(z):
        raise DomainError("exp needs v(z) > 1/(p-1)")
    if z.is_zero:
        if z.prec * (ctx.p - 1) < ctx.e:
            raise DomainError("zero at too little precision to certify membership in S")
        return ctx.one(z.prec)
    t, target = z.val, z.prec
    # v(z^n/n!) > n*(t - e/(p-1)), so the first N with N*delta >= target works
    delta = Fraction(t) - Fraction(ctx.e, ctx.p - 1)
    n_stop = _ceil_frac(Fraction(target) / delta)
    acc = ctx.one(target) + z
    term = z
    for n in range(2, n_stop):
        term = (term * z)._div_int(n)
        acc = acc + term
    return acc


def _integral(ctx: PrimeContext, x, who: str) -> PadicNumber:
    x = _coerce(ctx, x)
    if not x.is_zero and x.val < 0:
        raise DomainError(f"{who} needs v(x) >= 0")
    return x


class _QSplit:
    """q = 1 + y, split once per public call and shared by every use of q.

    L = log1p(y) and y^-1 are computed on first use and kept, so q^x =
    exp(x L), [x]_q and series1 jets at any number of points share one
    log1p, and a path that needs neither never computes them.
    """

    def __init__(self, q: PadicNumber):
        self.q, self.one = q, q.ctx.one()
        self.y = q - self.one

    def check(self, who: str, at_one: str | None = None) -> None:
        """Raise unless q - 1 is nonzero and in S; ``who`` names the caller."""
        if self.y.is_zero:
            raise DomainError(at_one or f"{who} is undefined at q = 1")
        if not in_S(self.y):
            raise DomainError(f"{who} needs v(q-1) > 1/(p-1)")

    def parts(self) -> tuple:
        """(t, m0, u) with q - 1 = pi^t u, u a unit and m0 = t/e."""
        t = self.y.val
        return t, Fraction(t, self.q.ctx.e), self.y.scale_pi(-t)

    @cached_property
    def log_q(self) -> PadicNumber:
        return log1p(self.y)

    @cached_property
    def inv_y(self) -> PadicNumber:
        return self.y.inv()

    def bracket(self, x) -> PadicNumber:
        x = _integral(self.q.ctx, x, "q_bracket")
        if self.y.is_zero:
            # [x]_q - x is a multiple of q - 1 for integral x, so this cap is sound
            return x._cap_prec(min(x.prec, self.y.prec))
        self.check("q_bracket")
        return (exp(x * self.log_q) - self.one) * self.inv_y

    def jet(self, x, n_max: int | None = None,
            tail_target: Fraction | None = None) -> "TruncatedSeries":
        """The series1 coefficients around x; see ``series1``."""
        ctx = self.q.ctx
        x = _integral(ctx, x, "series1")
        self.check("series1")
        delta = Fraction(self.y.val, ctx.e) - Fraction(1, ctx.p - 1)
        if n_max is None:
            if tail_target is None:
                tail_target = Fraction(ctx.K, ctx.e)
            n_max = _n_for_tail(delta, tail_target)
        inv_y, big_l = self.inv_y, self.log_q
        qx = exp(x * big_l)
        coeffs = [(qx - self.one) * inv_y - x]
        term = qx * big_l * inv_y
        coeffs.append(term - self.one)
        for n in range(2, n_max + 1):
            term = (term * big_l)._div_int(n)
            coeffs.append(term)
        return TruncatedSeries(ctx, x, tuple(coeffs), n_max * delta)


def q_pow(x, q: PadicNumber) -> PadicNumber:
    """q^x = exp(x log q) for x in the ring of integers and q in 1+S."""
    return exp(_integral(q.ctx, x, "q_pow") * _QSplit(q).log_q)


def q_bracket(x, q: PadicNumber) -> PadicNumber:
    """[x]_q = (q^x - 1)/(q - 1), and x itself when q - 1 is zero-flagged."""
    return _QSplit(q).bracket(x)


def a_poly(n: int, x: PadicNumber) -> PadicNumber:
    """A_n(x) = (x-2)(x-3)...(x-(n+1)); A_0 = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    ctx = x.ctx
    acc = ctx.one()
    for j in range(2, n + 2):
        acc = acc * (x - ctx.from_int(j))
    return acc


def cocycle_check(x, xp, q: PadicNumber) -> bool:
    """Does [x+x']_q = [x]_q + q^x [x']_q hold at carried precision?"""
    ctx = q.ctx
    x = _coerce(ctx, x)
    xp = _coerce(ctx, xp)
    s = _QSplit(q)
    lhs = s.bracket(x + xp)
    rhs = s.bracket(x) + exp(x * s.log_q) * s.bracket(xp)
    return (lhs - rhs).is_zero


def _ceil_frac(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


class TruncatedSeries:
    """Finitely many Taylor coefficients plus a proven tail bound.

    ``coeffs[n]`` multiplies (X - center)^n.  ``tail_bound`` (p-units,
    or None for an exact polynomial) is a lower bound on the valuation
    of every omitted term at any point of the closed unit disk around
    the center, so evaluations are trustworthy exactly up to it.
    """

    __slots__ = ("ctx", "center", "coeffs", "tail_bound")

    def __init__(self, ctx: PrimeContext, center: PadicNumber, coeffs: tuple,
                 tail_bound: Fraction | None):
        self.ctx = ctx
        self.center = center
        self.coeffs = tuple(coeffs)
        self.tail_bound = tail_bound

    def __len__(self) -> int:
        return len(self.coeffs)

    def _cap_pi(self) -> int | None:
        if self.tail_bound is None:
            return None
        return math.floor(self.tail_bound * self.ctx.e)

    def evaluate(self, point: PadicNumber, prec_hint: int | None = None) -> PadicNumber:
        """Horner evaluation at a point with v(point - center) >= 0.

        ``prec_hint`` (absolute pi-units) trades precision for speed:
        trailing coefficients whose suffix already sits above the hint
        are skipped.  The result is never claimed beyond the tail bound.
        """
        ctx = self.ctx
        dz = point - self.center
        if not dz.is_zero and dz.val < 0:
            raise DomainError("evaluation point outside the closed unit disk around the center")
        target = self._cap_pi()
        if prec_hint is not None:
            target = prec_hint if target is None else min(target, prec_hint)
        kept = self.coeffs
        if target is not None:
            cut = 0
            low = None
            for i in range(len(kept) - 1, -1, -1):
                c = kept[i]
                b = c.prec if c.is_zero else c.val
                low = b if low is None else min(low, b)
                if low < target:
                    cut = i + 1
                    break
            kept = kept[:cut]
        if not kept:
            return ctx.zero(target)
        acc = kept[-1]
        for c in reversed(kept[:-1]):
            acc = acc * dz + c
        return acc if target is None else acc._cap_prec(target)

    def derivative(self) -> "TruncatedSeries":
        # v(n*c_n) >= v(c_n), so the omitted-term bound carries over
        coeffs = tuple(c._mul_int(n) for n, c in enumerate(self.coeffs) if n > 0)
        return TruncatedSeries(self.ctx, self.center, coeffs, self.tail_bound)

    def scale(self, c: PadicNumber) -> "TruncatedSeries":
        if c.is_zero:
            raise DomainError("scaling by a value with no exact valuation")
        shift = Fraction(c.val, self.ctx.e)
        tail = None if self.tail_bound is None else self.tail_bound + shift
        return TruncatedSeries(self.ctx, self.center, tuple(c * ci for ci in self.coeffs), tail)

    def drop_center_root(self) -> "TruncatedSeries":
        """Divide by (X - center) when the center is an exact root.

        Index shift only; the caller asserts the analytic fact, the
        constant coefficient merely confirms it numerically.
        """
        if not self.coeffs[0].is_zero:
            raise CertificationFailure(
                "constant coefficient is not zero at precision; center is not a confirmed root")
        return TruncatedSeries(self.ctx, self.center, self.coeffs[1:], self.tail_bound)

    def divide_by_root(self, root: PadicNumber) -> "TruncatedSeries":
        """Divide by (X - root) for an exact root inside the unit disk.

        Synthetic division of the stored polynomial part.  Because the
        root is exact, the true quotient coefficients are tail sums of
        the original ones, so the same tail bound stays valid on the
        whole disk (the apparent pole cancels analytically).
        """
        rho = root - self.center
        if not rho.is_zero and rho.val < 0:
            raise DomainError("root outside the closed unit disk around the center")
        cs = self.coeffs
        if len(cs) < 2:
            raise DomainError("series too short to divide")
        out = [cs[-1]]
        for i in range(len(cs) - 2, 0, -1):
            out.append(cs[i] + rho * out[-1])
        out.reverse()
        rem = cs[0] + rho * out[0]
        if not rem.is_zero:
            raise CertificationFailure("nonzero remainder: the given point is not a root at precision")
        return TruncatedSeries(self.ctx, self.center, tuple(out), self.tail_bound)

    def valuation_points(self) -> list:
        """(index, valuation) pairs for polygon building; None marks zero-flagged."""
        out = []
        for n, c in enumerate(self.coeffs):
            out.append((n, None if c.is_zero else Fraction(c.val, self.ctx.e)))
        return out


def _n_for_tail(delta: Fraction, target: Fraction, offset: Fraction = Fraction(0)) -> int:
    """Smallest N with N*delta - offset >= target (delta > 0)."""
    return max(1, _ceil_frac((target + offset) / delta))


def series1(x, q: PadicNumber, n_max: int | None = None, *,
            tail_target: Fraction | None = None) -> TruncatedSeries:
    """Taylor coefficients of [X]_q - X around X = x.

    c_0 = [x]_q - x, and c_n = q^x (log q)^n / ((q-1) n!) for n >= 1
    with the -1 folded into c_1.  Omitted terms obey
    v(c_n) >= (n-1)(m0 - 1/(p-1)), which fixes the default n_max.
    """
    return _QSplit(q).jet(x, n_max, tail_target)


def _series2_monomials(x: PadicNumber, m0: Fraction,
                       n_max: int | None = None) -> TruncatedSeries:
    """h(x, U) = sum_k A_k(x) p^(k m0) U^k / (k+2)! around U = 0.

    Coefficient k has valuation >= k(m0 - 1/(p-1)) - 1/(p-1) for x in
    the ring of integers, giving the default cutoff.
    """
    ctx = x.ctx
    # representability first, so a caller learns the e that would work
    # even when m0 is also out of range
    t = m0 * ctx.e
    if t.denominator != 1:
        required = ctx.e * m0.denominator // math.gcd(ctx.e, m0.denominator)
        raise DomainError(
            f"m0 = {m0} needs ramification e divisible by {m0.denominator}; "
            f"rebuild the context with e = {required}",
            required_e=required)
    if m0 * (ctx.p - 1) <= 1:
        raise DomainError("series2 needs m0 > 1/(p-1)")
    t = int(t)
    if x.is_zero or (x - ctx.one()).is_zero:
        raise DomainError("x in {0, 1} puts the defining quotient out of domain")
    if x.val < 0:
        raise DomainError("series2 needs v(x) >= 0")
    delta = m0 - Fraction(1, ctx.p - 1)
    offset = Fraction(1, ctx.p - 1)
    if n_max is None:
        n_max = _n_for_tail(delta, Fraction(ctx.K, ctx.e), offset)
    tail = n_max * delta - offset
    ek = ctx.one()._div_int(2)
    coeffs = [ek]
    for k in range(1, n_max + 1):
        ek = ((ek * (x - ctx.from_int(k + 1))).scale_pi(t))._div_int(k + 2)
        coeffs.append(ek)
    return TruncatedSeries(ctx, ctx.zero(), tuple(coeffs), tail)


def series2(x: PadicNumber, u, m0, n_max: int | None = None) -> TruncatedSeries:
    """Coefficients d_n(x, u) of h(x, U) recentered at U = u (unit or zero)."""
    ctx = x.ctx
    m0 = Fraction(m0)
    u = _coerce(ctx, u)
    if not u.is_zero and u.val != 0:
        raise DomainError("u must be a unit or zero")
    mono = _series2_monomials(x, m0, n_max)
    if u.is_zero:
        return TruncatedSeries(ctx, u, mono.coeffs, mono.tail_bound)
    work = list(mono.coeffs)
    # repeated synthetic division by (U - u); pass j leaves d_j in place
    for j in range(len(work)):
        for i in range(len(work) - 2, j - 1, -1):
            work[i] = work[i] + u * work[i + 1]
    return TruncatedSeries(ctx, u, tuple(work), mono.tail_bound)
