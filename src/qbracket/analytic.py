"""Analytic functions on the p-adic unit disk, with rigorous truncation.

Everything here reduces to finite sums whose omitted terms are bounded
below in valuation, so results are honest PadicNumbers: their carried
precision never exceeds what the truncation proves.  The convergence
domain that makes this work is S = {v(y) > 1/(p-1)}; on it log(1+y) and
exp preserve valuations and are mutually inverse, which is also why the
term recurrence of the series1 jets never loses relative precision (each
division by n is covered by the extra factor (log q)^(n-1)).

exp and log1p sum their series modulo pi^target by core's power sum
(``PrimeContext._power_sum``) and normalize once: rectangular splitting
(Paterson-Stockmeyer) on Kronecker-packed integers, the one pass that a
series' block evaluation also runs, which for N terms takes about 2 sqrt(N)
products of packed vectors and, per term, one scalar times a packed
power.  log1p first raises 1+y to a p-power, which moves y deeper into S
so the series needs fewer terms, then divides the log by that power.  Both
return, digit for digit, the truncated series of the stored
representative, so the claimed precisions are those the proved cutoffs
give, as before: no digit and no precision changes with the method.

The parameter q enters only through q^x with q = 1 + y in 1+S.  There
q^x = exp(x log q) is also the limit of the integer powers q^n as n -> x,
so q^x is taken as q^n exp((x - n) log q) for an integer n that agrees
with x to as many digits as a cost rule finds worth its square and
multiply, the split FLINT's padic_exp makes: the exp then starts deeper
in S and sums far fewer terms, and at an integer x below p^k it is 1 and
no log is taken.  How q splits is decided here, once per public call: a
private split holds y = pi^t u, the q = 1 and 1+S checks, log q and y^-1
from their first use, and q^x, so q_pow, q_bracket, the series1 jets and
the solver's certifications share at most one log1p per q.

TruncatedSeries is the package's jet type: a finite coefficient list
around a center plus a proven lower bound on the valuation of everything
omitted, valid for evaluation anywhere in the closed unit disk around
the center.  The q-bracket series in X and the parameter series in U are
built here; root hunting on them lives in the solver module.  Both are
running products r_k = r_(k-1) a_k pi^t / d_k (the series1 terms c_n =
c_(n-1) log q / n, the series2 monomials with a_k = x - (k+1) and t =
m0 e), taken by one kernel on raw unit vectors: the valuation, relative
precision and zero flag of the PadicNumber chain are additive, so they
are ints fixed at the build, and each vector is one vector product and
one reduction, with no normalization, formed when a pass first reads it
(a lazy series, van der Hoeven, "Relax, but don't be too lazy", 2002),
and gives the chain's coefficients digit for digit.

A series is stored raw, not as PadicNumbers: one base valuation, each
coefficient's vector already shifted onto it, and its valuation and
precision as ints (Caruso, "Computations with p-adic numbers", 2017).
Every raw coefficient in flight, a running product's output or a stored
one, has one form, (v, vector, prec), v and vector None when
zero-flagged.  The builders hand their raw coefficients over, and every
operation on that form keeps each coefficient digit for digit the
PadicNumber one; ``coeffs`` builds those PadicNumbers only when read, by
core's ``_from_raw``.  The base only bounds every kept valuation from
below, so a series derived from another (its derivative, a deflation, a
recentring) keeps its source's base and shifts no vector.  A series'
vectors come from one source, read as far as a pass reads: a running
product resumed from the last vector formed, or a derivative, a view on
its series' vectors that forms n w_n from w_n.  So a root lift never forms
the coefficients its hints cut.

A series' evaluation takes its precision first and its digits second.
The precision is the one the PadicNumber loop would carry, P <- min(P +
v(dz), prec(dz) + v(acc), prec(c_n)) (Caruso, Roe and Vaccon, "Tracking
p-adic precision", 2014), and that recurrence is written once, in the
Horner pass of synthetic division (``_horner_division``), whose
remainder at dz is the value and whose partial sums, each reduced to
the precision the recurrence gives, are the quotient by (X - dz).
Where the v(acc) terms cannot bind, the recurrence has a closed form
fixed before any step (``TruncatedSeries._decided``), and the pass sums
only the digits, on the stored vectors with no shift per step, and
normalizes once: a long pass at e > 1 sums blocks of coefficients on
Kronecker-packed integers, packed once per series, with one reduction
per block, at every residue degree f (core's ``_block_pass``); any
other pass takes one step per coefficient of a kernel that core sets up
once per pass for the fixed multiplier dz.  Where they can bind, the
evaluation is that division's remainder.  The solver reads the precision
of a probe point or a Newton target with no evaluation: the closed
form, or the division's pass run modulo the few pi-units where a
v(acc) term can bind.  Deflation at a root and series2's recentring at
u, one pass per coefficient, are that division too.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

from .core import _BLOCK, PadicNumber, PrimeContext, _ceil_div, _from_raw, _vp
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
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
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

    Argument reduction: Y = (1+y)^(p^k) - 1 has valuation t + k*e and
    log(1+Y) = p^k log(1+y).  So y is lifted to its exact representative
    at target + k*e, raised by k p-th powers, the series for Y is summed
    to target + k*e by ``PrimeContext._power_sum``, and the sum is divided
    by p^k.  That takes fewer
    terms, about (target + k*e)/(t + k*e); ``_log_reduction`` picks k.
    The result is the value the unreduced series gives for the stored
    representative, modulo pi^target, and is claimed to the same
    precision, because log is an isometry on S.
    """
    ctx = y.ctx
    if not in_S(y):
        raise DomainError("log1p needs v(y) > 1/(p-1)")
    if y.is_zero:
        if y.prec * (ctx.p - 1) < ctx.e:
            raise DomainError("zero at too little precision to certify membership in S")
        return ctx.zero(y.prec)
    p, e, target = ctx.p, ctx.e, y.prec
    k = _log_reduction(p, e, y.val, target)
    if k:
        one = ctx.one(target + k * e)
        big = one + y._lift_exact(target + k * e)
        for _ in range(k):
            big = big ** p
        y = big - one
    t, rel = y.val, y.prec
    n_stop = _log_cutoff(p, e, t, rel)
    terms = _log_terms(p, e, t, n_stop, ctx._ppow(_ceil_div(rel, e)))
    return _from_raw(ctx, -k * e, ctx._power_sum(y._unit, terms, n_stop, rel), target)


def _log_cutoff(p: int, e: int, t: int, target: int) -> int:
    """The blockwise cutoff of ``log1p`` for valuation t (see there)."""
    j = 1
    while p ** j * t - e * j < target or p ** j * t * (p - 1) <= e:
        j += 1
    return min(p ** j, _ceil_div(target + e * (j - 1), t))


def _log_reduction(p: int, e: int, t: int, target: int) -> int:
    """The number k of p-th powers taken before the log series.

    Integer cost rule, in vector products: a p-th power by square and
    multiply takes bit_length(p) + popcount(p) - 2, the series on N
    terms takes about 2 sqrt(N) (``PrimeContext._power_sum``), and each
    term adds a modular inverse and
    a scalar times a packed power, counted as 1/4 of a product.  The
    smallest k of least cost wins.  Which k wins changes no digit, since
    log1p's identity log(1+Y) = p^k log(1+y) holds for every k.

    The weight was timed on the log1p calls of the four bracket-grid cells
    at seeds 0 and 1 (those of integer x need no log), each weight's k per
    call, 41 interleaved repetitions, median of the per-repetition ratios
    to the weight 1/4 used before, in two sessions:

    =============  ===========  ===========  ===========  ===========
    weight         (3, 1, 60)   (5, 3, 180)  (3, 1, 480)  (5, 10, 600)
    =============  ===========  ===========  ===========  ===========
    1/2            0.99, 0.99   1.01, 1.01   0.97, 0.96   1.05, 1.07
    1/8            1.00, 1.00   1.00, 1.01   1.06, 1.08   0.95, 0.94
    1/(e + 1)      0.99, 0.99   1.00, 1.00   0.97, 0.96   0.95, 0.94
    =============  ===========  ===========  ===========  ===========

    A product's cost grows with the e entries of a vector and a term's
    hardly, and 1/(e + 1), which is 1/2 at e = 1, 1/4 at e = 3 and 1/11 at
    e = 10, is the fastest or tied on every cell.  But at e = 3 it is the
    same weight, so it wins on three cells and ties on the fourth, and the
    weight stays 1/4 until a weight depending on e wins on every cell.
    """
    power = p.bit_length() + bin(p).count("1") - 2
    best_k = best = None
    k = 0
    while best is None or 4 * k * power < best:
        n = _log_cutoff(p, e, t + k * e, target + k * e)
        cost = 4 * (k * power + 2 * math.isqrt(n)) + n
        if best is None or cost < best:
            best_k, best = k, cost
        k += 1
    return best_k


def _power_split(p: int, e: int, t: int, target: int, a0: int, rest: int) -> int:
    """The integer n of q^x = q^n exp((x - n) log q), ``_QSplit.power``.

    x's integral vector has entry 0 = a0 >= 0 and its other entries of
    valuation ``rest`` (x's precision when they vanish, so x is in Z_p);
    v(q - 1) = t and the result is wanted modulo pi^target.  n is
    a0 modulo p^k for some k >= 0, so x - n has valuation
    min(rest, e v_p(a0 - n)), and exp's series at that valuation plus t
    takes N terms, none once it reaches the target.  Integer cost rule
    in vector products, as ``_log_reduction``'s: q^n by square and
    multiply takes bit_length(n) + popcount(n) - 2, the series about
    2 sqrt(N) plus N/4 for its terms.  The smallest k of least cost
    wins.  k grows while that can still raise x - n's valuation and
    while q^n's squarings alone, bit_length(n) - 1, which a larger k
    never lowers, cost less than the best.  Which n wins changes no digit
    (see ``_QSplit.power``).  The k are walked along a0's base-p digits,
    one division by p per digit: a zero digit gives the same n, so the
    same cost, and is passed over.

    On bracket-grid's ops at seeds 0 and 1, 21 interleaved repetitions,
    pricing a product of q^n at 2 series products took 0.95-1.02x the
    time of this rule per cell, and at 1/2 of one 1.01-1.21x, so the
    rule prices both alike.
    """
    best_n = best = None
    n, high, pk, k = 0, a0, 1, 0  # a0 = n + high p^k, n = a0 mod p^k
    while best is None or 4 * (n.bit_length() - 1) < best:
        if high:
            while high % p == 0:  # a zero digit leaves n, so v, as they are
                high //= p
                pk *= p
                k += 1
            v = min(rest, e * k)  # v_p(a0 - n) = k, high being prime to p
        else:
            v = rest
        cost = 4 * max(n.bit_length() + bin(n).count("1") - 2, 0)
        if v + t < target:
            terms = _exp_cutoff(p, e, v + t, target)
            cost += 8 * math.isqrt(terms) + terms
        if best is None or cost < best:
            best_n, best = n, cost
        if v == rest or v + t >= target:
            break
        high, digit = divmod(high, p)
        n += digit * pk
        pk *= p
        k += 1
    return best_n


def _log_terms(p: int, e: int, t: int, n_stop: int, mod: int):
    """(s_n, c_n) for the log series, n = n_stop - 1 down to 0.

    Term n is (-1)^(n+1) y^n/n = pi^(s_n) c_n u^n for y = pi^t u, with
    s_n = n t - e v_p(n) and c_n = (-1)^(n+1)/m modulo ``mod``, where m
    is n stripped of p; there is no term at n = 0.
    """
    for n in range(n_stop - 1, 0, -1):
        m, v = n, 0
        while m % p == 0:
            m //= p
            v += 1
        yield n * t - e * v, pow(m if n % 2 else -m, -1, mod)
    yield 0, 0


def exp(z: PadicNumber) -> PadicNumber:
    """exp(z) for z in S; v(exp(z) - 1) = v(z).

    v(z^n/n!) > n*(t - e/(p-1)) for t = v(z), so the first N with
    N*(t - e/(p-1)) >= target is a sound cutoff.  With z = pi^t u the
    sum is sum_{n<N} pi^(s_n) u^n / m_n, where s_n = n t - e v_p(n!) and
    m_n is n! stripped of p.  It is taken by rectangular splitting on
    packed integers (``PrimeContext._power_sum``, Paterson and Stockmeyer
    1973): about 2 sqrt(N) vector products instead of N, and per term one
    scalar times a packed power, with the m_n^-1 from one modular inverse
    and a running product taken in the order of the Horner pass.  The
    result is the value the term-by-term series gives for the stored
    representative, modulo pi^target, and is claimed to the same
    precision.  q^x reaches exp only for what is left of x log q once an
    integer power of q is split off (``_QSplit.power``).
    """
    ctx = z.ctx
    if not in_S(z):
        raise DomainError("exp needs v(z) > 1/(p-1)")
    if z.is_zero:
        if z.prec * (ctx.p - 1) < ctx.e:
            raise DomainError("zero at too little precision to certify membership in S")
        return ctx.one(z.prec)
    t, target = z.val, z.prec
    n_stop = _exp_cutoff(ctx.p, ctx.e, t, target)
    terms = _exp_terms(ctx.p, ctx.e, t, n_stop, ctx._ppow(_ceil_div(target, ctx.e)))
    return _from_raw(ctx, 0, ctx._power_sum(z._unit, terms, n_stop, target), target)


def _exp_cutoff(p: int, e: int, t: int, target: int) -> int:
    """The first N with N (t - e/(p - 1)) >= target: ``exp``'s term count
    at valuation t, and the count ``_power_split`` prices."""
    return _ceil_div(target * (p - 1), t * (p - 1) - e)


def _exp_terms(p: int, e: int, t: int, n_stop: int, mod: int):
    """(s_n, m_n^-1 modulo ``mod``) for the exp series, n = n_stop - 1 down to 0.

    One forward pass forms m_{N-1}, one pow inverts it, and m_(n-1)^-1
    = m_n^-1 * (n stripped of p) walks back down; nothing of size N is
    stored.
    """
    n = n_stop - 1
    m = 1
    for k in range(2, n_stop):
        while k % p == 0:
            k //= p
        m = m * k % mod
    inv = pow(m, -1, mod)
    fact_v = (n - digit_sum(n, p)) // (p - 1)  # v_p(n!)
    while True:
        yield n * t - e * fact_v, inv
        if n == 0:
            return
        k = n
        while k % p == 0:
            k //= p
            fact_v -= 1
        inv = inv * k % mod
        n -= 1


def _running_product(start: PadicNumber, factors, units, t: int, dens) -> tuple:
    """r_k = r_(k-1) a_k pi^t / d_k for k = 1, 2, ..., with r_0 = ``start``:
    the (v_k, prec_k) of every r_k, and an iterator of the r_k raw.

    ``dens`` yields the nonzero integers d_k and ends the product;
    ``factors`` yields each a_k's (v, prec), v None when a_k is
    zero-flagged, and ``units`` the unit of each a_k that is not, known
    modulo pi^(prec - v), reduced or not.  The bookkeeping of the chain
    r * a, scale_pi(t), _div_int(d) is additive, so it runs here on ints:
    v_k = v_(k-1) + v(a_k) + t - e v_p(d_k), rel_k = min(rel_(k-1),
    prec(a_k) - v(a_k)), a zero-flagged value's precision standing in for
    its valuation, and once r_k is zero-flagged it stays so.  The iterator
    forms r_k when read, resuming from r_(k-1): one vector product and one
    reduction, the unit part of d_k, inverted modulo p^ceil(rel_k/e),
    folded in, and ``units`` read as far.  These are the chain's own
    rules, so every value, digit, precision and zero flag is the chain's.
    Each r_k comes out in the one raw form, its unit reduced.
    """
    ctx = start.ctx
    p, e = ctx.p, ctx.e
    zero = start.is_zero
    v = start.prec if zero else start.val
    rel = start.prec - v
    ints, d_units = [], []
    for d, (av, aprec) in zip(dens, factors):
        s = 0
        while d % p == 0:
            d //= p
            s += 1
        v += (aprec if av is None else av) + t - e * s
        if zero or av is None:
            zero = True
            ints.append((None, v))
            continue
        rel = min(rel, aprec - av)
        ints.append((v, v + rel))
        d_units.append(d)

    def raw():
        vec = start._unit
        for (v, prec), d, unit in zip(ints, d_units, units):
            rel = prec - v
            prod = ctx._vec_mul(vec, unit)
            if d != 1:
                c = pow(d, -1, ctx._ppow(_ceil_div(rel, e)))
                prod = [c * a for a in prod]
            vec = ctx._vec_reduce(prod, rel)
            yield v, vec, prec
        yield from ((None, None, prec) for _, prec in ints[len(d_units):])
    return ints, raw()


def _on_least(ctx: PrimeContext, head: list, ints=(), raw=()) -> tuple:
    """(base, valuations, vectors, precisions) of a series of the raw triples
    ``head``, then of a running product's (val, prec) ``ints`` and ``raw``
    triples: the base is the least valuation, a zero-flagged coefficient's
    precision standing in for one, and each unit is shifted onto it when read."""
    ints = [(v, p) for v, _, p in head] + list(ints)
    base = min((p if v is None else v for v, p in ints), default=0)
    vecs = (None if u is None else tuple(ctx._vec_shift(u, v - base))
            for v, u, _ in itertools.chain(head, raw))
    return base, [v for v, _ in ints], vecs, [p for _, p in ints]


def _raw_of(c: PadicNumber) -> tuple:
    """A PadicNumber in the one raw form, before any shift to a base:
    (val, unit, prec), or (None, None, prec) when zero-flagged."""
    return (None, None, c.prec) if c.is_zero else (c.val, c._unit, c.prec)


def _minus_integers(x: PadicNumber, start: int, stop: int) -> tuple:
    """x - j for j = start, ..., stop - 1 as ``_running_product`` takes them:
    their (v, prec), and an iterator of their units.

    For v(x) >= 0, x - j is known modulo pi^P, P = min(prec(x), K), as
    x - from_int(j) is.  Its integral vector is x's (``_dz_vector``) with j
    taken from entry 0 modulo p^ceil(P/e), which keeps the entry >= 0 as
    the packed ``_vec_mul`` needs.  Its valuation, the lesser of e v_p of
    that entry and that of x's other entries (as in ``_power_split``),
    takes no vector, and only a unit of positive valuation is shifted.
    """
    ctx = x.ctx
    p, e, prec = ctx.p, ctx.e, min(x.prec, ctx.K)
    vec = _dz_vector(x)
    mod = ctx._ppow(_ceil_div(prec, e))
    rest = ctx._vec_val([0] + vec[1:], prec)
    rest = prec if rest is None else rest
    vals = []
    for j in range(start, stop):
        a0 = (vec[0] - j) % mod
        v = min(rest, e * _vp(a0, p)) if a0 else rest
        vals.append(None if v >= prec else v)

    def units():
        for j, v in zip(range(start, stop), vals):
            a = [(vec[0] - j) % mod] + vec[1:]
            yield ctx._vec_shift(a, -v) if v else a
    return [(v, prec) for v in vals], units()


def _integral(ctx: PrimeContext, x, who: str) -> PadicNumber:
    x = _coerce(ctx, x)
    if not x.is_zero and x.val < 0:
        raise DomainError(f"{who} needs v(x) >= 0")
    return x


class _QSplit:
    """q = 1 + y, split once per public call and shared by every use of q.

    L = log1p(y) and y^-1 are computed on first use and kept, so q^x,
    [x]_q and series1 jets at any number of points share one log1p, and a
    path that needs neither, such as q^x at an integer x, never computes
    them.
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

    def power(self, x: PadicNumber) -> PadicNumber:
        """q^x for integral x, digit for digit ``exp(x * log_q)``.

        With x = n + x', n >= 0 an integer, q^x = q^n exp(x' log q).  exp
        and log are inverse isometries on S, so exp(L) = q modulo
        pi^prec(y) for the stored L = log q, and exp(L)^n = q^n modulo
        pi^(prec(y) + v(n)).  n is x's integral vector's entry 0 modulo
        p^k, which is 0 or has v(n) >= v(x); so q^n exp(x' L), both
        factors taken to P = min(prec x + v(y), prec y + v(x)) with q's
        representative lifted to P, is exp(x L) modulo pi^P, the precision
        that product claims.  ``_power_split`` picks k; where x' L sits at
        or above pi^P, q^n is the whole result and no log is taken.
        Zero-flagged x or y take exp(x L) itself.
        """
        y = self.y
        if x.is_zero or y.is_zero:
            return exp(x * self.log_q)
        ctx, t = y.ctx, y.val
        target = min(x.prec + t, y.prec + x.val)
        vec = _dz_vector(x)
        off = ctx._vec_val([0] + vec[1:], x.prec)
        n = _power_split(ctx.p, ctx.e, t, target, vec[0], x.prec if off is None else off)
        if not n:
            return exp(x * self.log_q)
        vec[0] -= n
        rem = _from_raw(ctx, 0, vec, x.prec)  # x' = x - n, known as far as x
        out = self.q._cap_prec(target)._lift_exact(target) ** n
        if rem.is_zero or rem.val + t >= target:
            return out
        return out * exp((rem * self.log_q)._cap_prec(target))

    def bracket(self, x) -> PadicNumber:
        x = _integral(self.q.ctx, x, "q_bracket")
        if self.y.is_zero:
            # [x]_q - x is a multiple of q - 1 for integral x, so this cap is sound
            return x._cap_prec(min(x.prec, self.y.prec))
        self.check("q_bracket")
        return (self.power(x) - self.one) * self.inv_y

    def jet(self, x, n_max: int | None = None, over_y: bool = False) -> "TruncatedSeries":
        """The series1 coefficients around x (see ``series1``), each times
        y^-1 when ``over_y``, the tail bound then lowered by v(y).

        c_0 and c_1 are PadicNumber arithmetic; c_n = c_(n-1) L / n for
        n >= 2 is ``_running_product`` with the one factor L = log q, t = 0
        and d_n = n, one vector product per coefficient.  Over y, c_0, c_1
        and the product's start are multiplied by y^-1 first: valuations
        add along the product and its relative precision is the least, so
        every c_n y^-1 comes out as the PadicNumber product gives it.
        """
        ctx = self.q.ctx
        x = _integral(ctx, x, "series1")
        self.check("series1")
        delta = Fraction(self.y.val, ctx.e) - Fraction(1, ctx.p - 1)
        if n_max is None:
            n_max = _n_for_tail(delta, Fraction(ctx.K, ctx.e))
        inv_y, big_l = self.inv_y, self.log_q
        tail = n_max * delta
        qx = self.power(x)
        term = qx * big_l * inv_y
        c0, c1 = (qx - self.one) * inv_y - x, term - self.one
        if over_y:
            c0, c1, term = c0 * inv_y, c1 * inv_y, term * inv_y
            tail += Fraction(inv_y.val, ctx.e)
        lv, lu, lp = _raw_of(big_l)
        return TruncatedSeries._make(ctx, x, tail, *_on_least(
            ctx, [_raw_of(c0), _raw_of(c1)], *_running_product(
                term, itertools.repeat((lv, lp)), itertools.repeat(lu), 0, range(2, n_max + 1))))


def q_pow(x, q: PadicNumber) -> PadicNumber:
    """q^x = exp(x log q) for x in the ring of integers and q in 1+S.

    Taken as q^n exp((x - n) log q) for an integer n near x
    (``_QSplit.power``), which is exp(x log q) digit for digit.
    """
    x = _integral(q.ctx, x, "q_pow")
    s = _QSplit(q)
    if not in_S(s.y):  # q = 1 is in 1+S and gives 1
        raise DomainError("q_pow needs v(q-1) > 1/(p-1)")
    return s.power(x)


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
    rhs = s.bracket(x) + s.power(x) * s.bracket(xp)
    return (lhs - rhs).is_zero


class TruncatedSeries:
    """Finitely many Taylor coefficients plus a proven tail bound.

    ``coeffs[n]`` multiplies (X - center)^n.  ``tail_bound`` (p-units,
    or None for an exact polynomial) is a lower bound on the valuation
    of every omitted term at any point of the closed unit disk around
    the center, so evaluations are trustworthy exactly up to it.

    The coefficients are stored raw, on one base valuation b, as
    FLINT's padic_poly_t stores a polynomial (see Caruso, "Computations
    with p-adic numbers", 2017).  Coefficient n is kept as its valuation
    (None when zero-flagged), its precision, and the integral vector
    pi^(v - b) unit reduced modulo pi^(prec - b) (None when
    zero-flagged).  That vector is the unit's own, shifted: shifting it
    back and reducing gives the PadicNumber digit for digit, which is
    what ``coeffs`` builds on each read.  b lies at or below every kept
    valuation.  A series built from PadicNumbers or by a builder takes the
    least valuation, a zero-flagged coefficient's precision standing in
    for one; a series derived from another, its derivative, a deflation
    or a recentring, keeps its source's b, so no vector is shifted when a
    derived coefficient's valuation rises.  The suffix minima of the
    valuations are kept beside them, so a hint cuts the trailing
    coefficients by one bisection.  Every series comes from one
    constructor (``_frame``) given the base, the valuations, any iterable
    of vectors on the base and the precisions; the ints and the tail cap
    floor(tail_bound e) in pi-units are fixed there, and the iterable is
    read only as far as a pass reads (``_vectors``), so the vectors of a
    series1 jet, a series2 at 0 or a derivative are formed when first read.
    """

    __slots__ = ("ctx", "center", "tail_bound", "_cap", "_base", "_vals", "_vecs", "_precs",
                 "_lows", "_wall", "_packed", "_source")

    def __init__(self, ctx: PrimeContext, center: PadicNumber, coeffs,
                 tail_bound: Fraction | None):
        self._frame(ctx, center, tail_bound, *_on_least(ctx, list(map(_raw_of, coeffs))))

    @classmethod
    def _make(cls, ctx: PrimeContext, center: PadicNumber, tail_bound: Fraction | None,
              base: int, vals, vectors, precs) -> "TruncatedSeries":
        """A series of the raw form's parts, built by ``_frame``."""
        s = cls.__new__(cls)
        s._frame(ctx, center, tail_bound, base, vals, vectors, precs)
        return s

    def _frame(self, ctx, center, tail_bound, base, vals, vectors, precs) -> None:
        """Every field, fixed here: the base, the valuations and precisions
        with their suffix minima, the tail cap floor(tail_bound e) in
        pi-units (None for an exact polynomial), and ``vectors``, read only
        as far as a pass reads (``_vectors``)."""
        self.ctx = ctx
        self.center = center
        self.tail_bound = tail_bound
        self._cap = None if tail_bound is None else math.floor(tail_bound * ctx.e)
        self._vals, self._precs = tuple(vals), tuple(precs)
        lows, low = [], None
        for v, p in zip(reversed(self._vals), reversed(self._precs)):
            b = p if v is None else v
            low = b if low is None or b < low else low
            lows.append(low)
        lows.reverse()
        self._base = base
        self._lows = tuple(lows)
        self._wall = max(self._precs, default=None)
        self._packed = None
        self._vecs, self._source = [], iter(vectors)

    @property
    def coeffs(self) -> tuple:
        """The coefficients as PadicNumbers, built from the raw form on each read."""
        ctx, base = self.ctx, self._base
        return tuple(ctx.zero(p) if w is None else _from_raw(ctx, base, w, p)
                     for _, w, p in self._stored())

    def __len__(self) -> int:
        return len(self._precs)

    def evaluate(self, point: PadicNumber, prec_hint: int | None = None) -> PadicNumber:
        """Horner evaluation at a point with v(point - center) >= 0.

        ``prec_hint`` (absolute pi-units) trades precision for speed:
        trailing coefficients whose suffix already sits above the hint
        are skipped.  The result is never claimed beyond the tail bound.

        The stored vectors sit on the series' base b, so the pass shifts
        nothing; dz = point - center becomes the vector D = pi^v(dz) unit
        (D = 0 at v(dz) = prec(dz) when dz is zero-flagged), and the
        result is normalized once.  The precision is the one the
        PadicNumber loop acc <- acc*dz + c_n would carry,
        P <- min(P + v(dz), prec(dz) + v(acc), prec(c_n), W), where W is
        the target, which capped the loop's result.  That loop returns
        the stored representatives' polynomial modulo pi^P, and so does
        the pass, so value, digits, precision and zero flag are the
        loop's; neither depends on which b the pass runs on, as long as
        no kept nonzero coefficient sits below it.  Clamping P at W
        changes no result, because every term grows with P when
        v(dz) >= 0, and when dz is zero-flagged at negative precision P
        falls below the target after the first step, the top
        coefficient being kept only for v < W.  An exact polynomial
        without a hint takes W = max prec(c_n), which P never exceeds.

        Precision first, digits second.  Where the v(acc) terms can bind,
        ``_decided`` gives None and the value is the remainder of
        ``_horner_division`` at dz, the pass that carries the recurrence.
        Otherwise P is fixed before any step and only the digits are
        summed: at e > 1, any f, and over more than 2 _BLOCK coefficients
        by ``PrimeContext._block_pass``, one reduction per _BLOCK
        coefficients, on the coefficients this series packs once, modulo
        pi^(min(W, top) - b): top = min(tail cap, max prec(c_n)) is the
        modulus they are packed at, whose slots a wider pass would overrun,
        and P never exceeds it.  Otherwise each step is acc <- acc D + c_n
        modulo pi^(W-b), one step of ``PrimeContext._horner_step``, which
        reduces D once per pass.
        """
        ctx = self.ctx
        dz = self._offset(point)
        target, n, wall = self._kept(prec_hint)
        if not n:
            return ctx.zero(target)
        base = self._base
        prec = self._decided(dz, n, wall)
        if prec is None:
            v, acc, prec = _horner_division(base, list(self._stored(n)), dz, wall)[0]
            if v is None:
                return ctx.zero(prec)
        elif ctx.e > 1 and n > 2 * _BLOCK:
            top, w, packed = self._packing(n)
            acc = ctx._block_pass(packed, n, _dz_vector(dz), min(wall, top) - base, w)
        else:
            vecs = self._vectors(n)
            step = ctx._horner_step(_dz_vector(dz), wall - base)
            acc = ctx._vec_reduce(vecs[n - 1] or [0] * ctx._dim, wall - base)
            for i in range(n - 2, -1, -1):
                acc = step(acc, vecs[i])
        return _from_raw(ctx, base, acc, prec)

    def _offset(self, point: PadicNumber) -> PadicNumber:
        """point - center, which must lie in the closed unit disk."""
        dz = point - self.center
        if not dz.is_zero and dz.val < 0:
            raise DomainError("evaluation point outside the closed unit disk around the center")
        return dz

    def _kept(self, prec_hint: int | None) -> tuple:
        """(target, n, W) of an evaluation: the precision the result is
        capped at (None for an exact polynomial without a hint), how many
        leading coefficients the Horner pass keeps, and its modulus pi^W."""
        target = self._cap
        if prec_hint is not None:
            target = prec_hint if target is None else min(target, prec_hint)
        if target is None:
            return None, len(self), self._wall
        return target, bisect.bisect_left(self._lows, target), target

    def _decided(self, dz: PadicNumber, n: int, wall: int) -> int | None:
        """The precision of a pass over n coefficients to modulus pi^W when the
        v(acc) terms of the recurrence cannot bind, else None.

        Without them the recurrence gives P = min(W, min prec(c_i) + i v(dz))
        for v(dz) >= 0; each of them is prec(dz) + v(acc) >= prec(dz) + b,
        carried up by the later steps, so when P <= prec(dz) + b none binds.
        """
        v = dz.prec if dz.is_zero else dz.val
        if v < 0:
            return None
        precs = self._precs[:n]
        low = min(min(map(operator.add, precs, range(0, n * v, v))) if v else min(precs), wall)
        return low if low <= dz.prec + self._base else None

    def _prec_at(self, point: PadicNumber) -> int:
        """``evaluate(point).prec``, with no call to ``evaluate``.

        Where ``_decided`` gives P, no pass is run.  Otherwise it is the
        precision of ``_horner_division``'s remainder at dz, the pass run
        modulo pi^T, T = W - prec(dz) - b, capped at W - b: a v(acc) term
        binds only where prec(dz) + v(acc) lies below W, so only where
        v(acc) - b < T, and reducing modulo pi^T commutes with each step
        acc <- acc dz + c, so every binding v(acc) is the one the full pass
        measures.  At the solver's probes T is a few pi-units, where the
        pass keeps W - b.
        """
        dz = self._offset(point)
        target, n, wall = self._kept(None)
        if not n:
            return self.ctx.zero(target).prec
        prec = self._decided(dz, n, wall)
        if prec is None:
            base = self._base
            prec = _horner_division(base, list(self._stored(n)), dz, wall,
                                    min(wall - dz.prec, wall) - base)[0][2]
        return prec

    def _closes(self, old: PadicNumber, new: PadicNumber, fx: PadicNumber,
                fpx: PadicNumber, target: int) -> bool:
        """Is ``evaluate(new, target)`` ``zero(target)``?  Proved from a Newton
        step old -> new and its values, with no pass; False refuses, not denies.

        ``fx`` and ``fpx`` are honest values of this series and of its
        derivative at old.  On the stored polynomial F, F(a + h) = F(a) +
        h F'(a) + h^2 R for integral a and h, the step h being new - old
        between the representatives of the offsets, and R is an integral
        combination of c_2, c_3, ... only, so v(R) >= L = ``_lows[2]``, their
        least valuation (a zero-flagged c_n stored as 0 and counted at its
        precision); R = 0 when there is no c_2.  So F(new) vanishes modulo
        pi^target when 2 v(h) + L >= target and fx + h fpx is zero at
        precision >= target, and the evaluation carries exactly the target when
        ``_decided`` gives it, as the pass would run at new.  That sum's
        precision is at most min(prec(fx), v(h) + prec(fpx)), which is
        tested first, so a refusal there forms no product.
        """
        dz = self._offset(new)
        h = dz - self._offset(old)
        v = h.prec if h.is_zero else h.val
        if (v < 0 or len(self) > 2 and 2 * v + self._lows[2] < target
                or min(fx.prec, v + fpx.prec) < target):
            return False
        _, n, wall = self._kept(target)
        if not n or self._decided(dz, n, wall) != target:
            return False
        rest = fx + h * fpx
        return rest.is_zero and rest.prec >= target

    def _packing(self, n: int) -> tuple:
        """(top, w, coefficients packed for ``PrimeContext._block_pass``), the
        first n of them at least: top = min(tail cap, max prec(c_n)), each
        vector reduced modulo pi^(top - b) in slots of w =
        ``_block_width(top - b)`` bits, 0 for a zero-flagged coefficient.
        Each coefficient is packed once, when a pass first needs it."""
        ctx = self.ctx
        if self._packed is None:
            top = self._wall if self._cap is None else min(self._cap, self._wall)
            self._packed = top, ctx._block_width(top - self._base), []
        top, w, packed = self._packed
        if len(packed) < n:
            rel = top - self._base
            pack = ctx._packer(w, rel)[0]
            packed += [0 if v is None else pack(ctx._vec_reduce(v, rel), w)
                       for v in self._vectors(n)[len(packed):n]]
        return self._packed

    def _stored(self, n: int | None = None):
        """The (val, vector on the base, prec) triples of the first n
        coefficients, of every one when n is None."""
        if n is None:
            n = len(self)
        return zip(self._vals[:n], self._vectors(n), self._precs)

    def _vectors(self, n: int) -> Sequence:
        """The stored vectors, the first n at least read from ``_source``."""
        vecs = self._vecs
        if len(vecs) < n:
            vecs += itertools.islice(self._source, n - len(vecs))
        return vecs

    def _derived(self, precs: Sequence) -> Iterator:
        """The derivative's vectors, to the derivative's ``precs``: vector
        n - 1 is n w_n reduced modulo pi^(prec - b), formed from this
        series' vectors 0 ... n, each formed when read."""
        ctx, base = self.ctx, self._base
        for n, prec in enumerate(precs, 1):
            w = self._vectors(n + 1)[n]
            yield None if w is None else ctx._vec_reduce([n * a for a in w], prec - base)

    def derivative(self) -> "TruncatedSeries":
        """The derivative, a view on this series' vectors.

        Coefficient n - 1 is n c_n: its valuation and precision are
        c_n's plus e v_p(n), and v(n c_n) >= v(c_n), so the tail bound
        carries over.  Those ints are set here, and the view keeps this
        series' base b; vector n - 1, n w_n reduced modulo pi^(prec - b),
        is formed from w_n when a pass first reads it (``_derived``), and
        packed when a block pass first needs it.  So a coefficient past the
        largest hint is never formed, and every coefficient, read or
        evaluated, is the one n c_n gives.
        """
        ctx = self.ctx
        ups = [ctx.e * _vp(n, ctx.p) for n in range(1, len(self))]
        precs = [p + up for p, up in zip(self._precs[1:], ups)]
        return TruncatedSeries._make(
            ctx, self.center, self.tail_bound, self._base,
            [None if v is None else v + up for v, up in zip(self._vals[1:], ups)],
            self._derived(precs), precs)

    def drop_center_root(self) -> "TruncatedSeries":
        """Divide by (X - center) when the center is an exact root.

        Index shift only; the caller asserts the analytic fact, the
        constant coefficient merely confirms it numerically.
        """
        if not self._vals:
            raise DomainError("series too short to divide")
        if self._vals[0] is not None:
            raise CertificationFailure(
                "constant coefficient is not zero at precision; center is not a confirmed root")
        return TruncatedSeries._make(self.ctx, self.center, self.tail_bound, self._base,
                                     self._vals[1:], self._vectors(len(self))[1:], self._precs[1:])

    def divide_by_root(self, root: PadicNumber) -> "TruncatedSeries":
        """Divide by (X - root) for an exact root inside the unit disk.

        Synthetic division of the stored polynomial part, one Horner pass
        at root - center (``_horner_division``).  Because the root is exact,
        the true quotient coefficients are tail sums of the original ones,
        so the same tail bound stays valid on the whole disk (the apparent
        pole cancels analytically).
        """
        rho = root - self.center
        if not rho.is_zero and rho.val < 0:
            raise DomainError("root outside the closed unit disk around the center")
        if len(self) < 2:
            raise DomainError("series too short to divide")
        rem, *out = _horner_division(self._base, list(self._stored()), rho, self._wall)
        if rem[0] is not None:
            raise CertificationFailure("nonzero remainder: the given point is not a root at precision")
        return TruncatedSeries._make(self.ctx, self.center, self.tail_bound, self._base, *zip(*out))

    def valuation_points(self) -> list:
        """(index, valuation) pairs for polygon building; None marks zero-flagged."""
        e = self.ctx.e
        return [(n, None if v is None else Fraction(v, e)) for n, v in enumerate(self._vals)]


def _dz_vector(dz: PadicNumber) -> list:
    """dz of valuation >= 0 as the integral vector pi^v(dz) unit, 0 when
    zero-flagged."""
    if dz.is_zero:
        return [0] * dz.ctx._dim
    return dz.ctx._vec_shift(dz._unit, dz.val)


def _horner_division(base: int, coeffs: list, rho: PadicNumber, wall: int,
                     rel: int | None = None) -> list:
    """Synthetic division by (X - rho) of (val, vector, prec) triples c_0 ...
    c_(n-1) stored on ``base``, as one Horner pass at rho: the partial sums
    s_i = c_i + rho s_(i+1) from s_n = 0, capped at pi^W, are the quotient
    s_1 ... s_(n-1) and the remainder s_0, the value at rho.  Each is one
    step of ``PrimeContext._horner_step`` on the last, or c_i when that or
    rho is zero-flagged, reduced to its own precision.  That precision is
    the PadicNumber loop's, P <- min(P + v(rho), prec(rho) + v(s_(i+1)),
    prec(c_i), W), and the digits the reduction drops reach s_(i-1) only at
    or above P + v(rho), so every value, digit, precision and zero flag is
    the loop's.  This is the one pass that carries the loop's precision,
    for evaluation and its precision (``TruncatedSeries.evaluate`` and
    ``_prec_at``), deflation and series2's recentring; ``_decided`` is its
    closed form.  Valuations add along a product, so unless
    v(c_i) = v(rho s_(i+1)) the sum has the lesser, or is zero-flagged when
    that reaches P: only a tie below P is measured.

    The pass runs modulo pi^rel, rel = W - b by default: each sum is
    reduced, and each tie measured, modulo pi^min(P - b, rel).  A smaller
    rel keeps every digit and valuation below pi^(b + rel), so the
    precisions stay exact wherever a valuation at or above b + rel never
    binds, as in ``TruncatedSeries._prec_at``.
    """
    ctx, rho_prec = rho.ctx, rho.prec
    if rel is None:
        rel = wall - base
    step = ctx._horner_step(_dz_vector(rho), rel)
    rho_val = rho_prec if rho.is_zero else rho.val
    out, acc, last, low = [], None, math.inf, math.inf  # s_n = 0 exactly
    for v, w, prec in reversed(coeffs):
        prec = min(prec, wall, last + rho_val, rho_prec + low)
        tie = False
        if acc is not None and not rho.is_zero:  # else rho s_(i+1) adds nothing
            w, up = step(acc, w), low + rho_val
            tie, v = up == v, up if v is None or up < v else v
        if v is not None and v < prec:
            r = min(prec - base, rel)
            w = ctx._vec_reduce(w, r)
            if tie:
                v = ctx._vec_val(w, r)
                v = None if v is None else base + v
        if v is None or v >= prec:
            v = w = None
        out.append((v, w, prec))
        acc, last, low = w, prec, prec if v is None else v
    return out[::-1]


def _n_for_tail(delta: Fraction, target: Fraction, offset: Fraction = Fraction(0)) -> int:
    """Smallest N with N*delta - offset >= target (delta > 0)."""
    return max(1, math.ceil((target + offset) / delta))


def series1(x, q: PadicNumber, n_max: int | None = None) -> TruncatedSeries:
    """Taylor coefficients of [X]_q - X around X = x.

    c_0 = [x]_q - x, and c_n = q^x (log q)^n / ((q-1) n!) for n >= 1
    with the -1 folded into c_1.  Omitted terms obey
    v(c_n) >= (n-1)(m0 - 1/(p-1)), which fixes the default n_max.
    """
    return _QSplit(q).jet(x, n_max)


def _series2_monomials(x: PadicNumber, m0: Fraction,
                       n_max: int | None = None) -> TruncatedSeries:
    """h(x, U) = sum_k A_k(x) p^(k m0) U^k / (k+2)! around U = 0.

    Coefficient k has valuation >= k(m0 - 1/(p-1)) - 1/(p-1) for x in
    the ring of integers, giving the default cutoff.  Coefficient k is
    coefficient k-1 times (x - (k+1)) pi^t / (k+2), t = m0 e: one
    ``_running_product`` from 1/2, with the factors x - (k+1) formed on
    x's integral vector (``_minus_integers``), so a monomial costs one
    vector product, paid when it is first read.  An integer x in
    2..n_max+1 makes its factor, and every later coefficient,
    zero-flagged, as the PadicNumber chain did.
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
    return TruncatedSeries._make(ctx, ctx.zero(), tail, *_on_least(
        ctx, [_raw_of(ek)], *_running_product(
            ek, *_minus_integers(x, 2, n_max + 2), t, range(3, n_max + 3))))


def series2(x: PadicNumber, u, m0, n_max: int | None = None) -> TruncatedSeries:
    """Coefficients d_n(x, u) of h(x, U) recentered at U = u (unit or zero).

    At u = 0 it is the monomial series itself.  At a unit u it is repeated
    synthetic division by (U - u): pass j is one Horner pass
    (``_horner_division``) on the quotient of pass j - 1 and leaves d_j as
    its remainder.
    """
    ctx = x.ctx
    m0 = Fraction(m0)
    u = _coerce(ctx, u)
    if not u.is_zero and u.val != 0:
        raise DomainError("u must be a unit or zero")
    mono = _series2_monomials(x, m0, n_max)
    if u.is_zero:
        mono.center = u
        return mono
    base = mono._base
    work = list(mono._stored())
    # d_n also sums u^(k-n) binom(k, n) times every omitted monomial k,
    # each of valuation above the tail bound, so d_n is known only to it;
    # capping every pass there caps each d_n alike, as prec(u) > v(u) = 0
    for j in range(len(work)):
        work[j:] = _horner_division(base, work[j:], u, mono._cap)
    return TruncatedSeries._make(ctx, u, mono.tail_bound, base, *zip(*work))
