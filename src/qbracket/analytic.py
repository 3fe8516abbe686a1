"""Analytic functions on the p-adic unit disk, with rigorous truncation.

Everything here reduces to finite sums whose omitted terms are bounded
below in valuation, so results are honest PadicNumbers: their carried
precision never exceeds what the truncation proves.  The convergence
domain that makes this work is S = {v(y) > 1/(p-1)}; on it log(1+y) and
exp preserve valuations and are mutually inverse, which is also why the
term recurrence of the series1 jets never loses relative precision (each
division by n is covered by the extra factor (log q)^(n-1)).

exp and log1p sum their series by one kernel modulo pi^target and
normalize once: rectangular splitting (Paterson-Stockmeyer) on
Kronecker-packed integers, which for N terms takes about 2 sqrt(N)
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
precision and zero flag of the PadicNumber chain are additive, so each
step is one vector product and one reduction, with no normalization,
and gives the chain's coefficients digit for digit.

A series is stored raw, not as PadicNumbers: one base valuation, each
coefficient's vector already shifted onto it, and its valuation and
precision as ints (Caruso, "Computations with p-adic numbers", 2017).
Every raw coefficient in flight, a running product's factor or output or
a stored one, has one form, (v, vector, prec), v and vector None when
zero-flagged.  The builders hand their raw coefficients over, and every
operation on that form keeps each coefficient digit for digit the
PadicNumber one; ``coeffs`` builds those PadicNumbers only when read, by
core's ``_from_raw``.  The base only bounds every kept valuation from
below, so a series derived from another (its derivative, a deflation, a
recentring) keeps its source's base and shifts no vector.  A derivative
copies nothing: it is a view on its series' vectors whose valuations and
precisions are the series' plus e v_p(n), and it forms the vector n w_n
of a coefficient only when a pass first reads it, so a root lift never
forms the coefficients its hints cut.  A series' evaluation is one
Horner pass on the stored vectors with no shift per step, normalized
once.  The precision the PadicNumber loop would carry, P <- min(P +
v(dz), prec(dz) + v(acc), prec(c_n)), is kept as an integer beside it
(Caruso, Roe and Vaccon, "Tracking p-adic precision", 2014), so value,
digits and precision are the loop's.  That precision is computed apart
from the digits.  Where the v(acc) terms cannot bind, the recurrence
fixes it before any step; where they can, they bind only below the
modulus, so the recurrence runs on partial sums kept modulo the few
pi-units where they do.  The solver reads the precision of a probe point
or a Newton target that way, with no evaluation.  A long pass at e > 1
whose precision is fixed sums blocks of coefficients on Kronecker-packed
integers, packed once per series, with one reduction per block, at every
residue degree f; any other pass takes one step per coefficient of a
kernel that core sets up once per pass for the fixed multiplier dz.
Deflation and recentring are passes on that kernel too: Horner's scheme at
a root rho has the quotient by (X - rho) as its partial sums, each reduced
to the precision the same recurrence gives, and the remainder as its last
one, and series2 recentres at u by one such pass per coefficient.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

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
    to target + k*e, and the sum is divided by p^k.  That takes fewer
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
    return _from_raw(ctx, -k * e, _power_sum(ctx, y._unit, terms, n_stop, rel), target)


def _log_cutoff(p: int, e: int, t: int, target: int) -> int:
    """The blockwise cutoff of ``log1p`` for valuation t (see there)."""
    j = 1
    while p ** j * t - e * j < target or p ** j * t * (p - 1) <= e:
        j += 1
    return min(p ** j, _ceil_frac(Fraction(target + e * (j - 1), t)))


def _log_reduction(p: int, e: int, t: int, target: int) -> int:
    """The number k of p-th powers taken before the log series.

    Integer cost rule, in vector products: a p-th power by square and
    multiply takes bit_length(p) + popcount(p) - 2, the series on N
    terms takes about 2 sqrt(N), and each term adds a modular inverse and
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
    (see ``_QSplit.power``).

    On bracket-grid's ops at seeds 0 and 1, 21 interleaved repetitions,
    pricing a product of q^n at 2 series products took 0.95-1.02x the
    time of this rule per cell, and at 1/2 of one 1.01-1.21x, so the
    rule prices both alike.
    """
    best_n = best = None
    n, k = 0, 0
    while best is None or 4 * (n.bit_length() - 1) < best:
        d = a0 - n
        v = min(rest, e * _vp(d, p)) if d else rest
        cost = 4 * max(n.bit_length() + bin(n).count("1") - 2, 0)
        if v + t < target:
            terms = _ceil_div(target * (p - 1), (v + t) * (p - 1) - e)
            cost += 8 * math.isqrt(terms) + terms
        if best is None or cost < best:
            best_n, best = n, cost
        if v == rest or v + t >= target:
            break
        k += 1
        n = a0 % p ** k
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
    packed integers (``_power_sum``, Paterson and Stockmeyer 1973): about
    2 sqrt(N) vector products instead of N, and per term one scalar times
    a packed power, with the m_n^-1 from one modular inverse and a running
    product taken in the order of the Horner pass.  The result is the
    value the term-by-term series gives for the stored representative,
    modulo pi^target, and is claimed to the same precision.  q^x reaches
    exp only for what is left of x log q once an integer power of q is
    split off (``_QSplit.power``).
    """
    ctx = z.ctx
    if not in_S(z):
        raise DomainError("exp needs v(z) > 1/(p-1)")
    if z.is_zero:
        if z.prec * (ctx.p - 1) < ctx.e:
            raise DomainError("zero at too little precision to certify membership in S")
        return ctx.one(z.prec)
    t, target = z.val, z.prec
    delta = Fraction(t) - Fraction(ctx.e, ctx.p - 1)
    n_stop = _ceil_frac(Fraction(target) / delta)
    terms = _exp_terms(ctx.p, ctx.e, t, n_stop, ctx._ppow(_ceil_div(target, ctx.e)))
    return _from_raw(ctx, 0, _power_sum(ctx, z._unit, terms, n_stop, target), target)


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


def _power_sum(ctx: PrimeContext, u: Sequence[int], terms, n_stop: int, rel: int) -> list:
    """sum_{n < n_stop} c_n pi^(s_n) u^n modulo pi^rel, on Kronecker-packed integers.

    ``terms`` yields the integer pairs (s_n, c_n) for n = n_stop - 1 down
    to 0, with s_n >= 0 and 0 <= c_n < M = p^ceil(rel/e).  Rectangular
    splitting (Paterson and Stockmeyer 1973): u^0 ... u^b, b =
    isqrt(n_stop), come from b - 1 steps of the fixed-multiplier kernel
    and are packed once (``_packed_powers``); block i, the terms
    ib <= n < (i+1)b, is a sum of scaled packed powers; the blocks are
    joined by Horner in u^b from the top.  pi^s = p^(s // e) pi^(s % e),
    so a block keeps one partial sum per residue s % e, each term adding
    (c_n p^(s // e) mod M) packed(u^j) to it, one big-integer product, and
    shifts each partial sum once.  At every f the shift by pi^r is a
    shift by r slots, which stays within each row of the packed format,
    the join acc u^b is one product of packed integers, and the block is
    folded, unpacked and reduced once.  That is b - 1 steps and
    (n_stop - 1) // b joins; core's kernel note gives the slot width.
    """
    e, p = ctx.e, ctx.p
    m = _ceil_div(rel, e)
    big_m = ctx._ppow(m)
    b = math.isqrt(n_stop)  # n_stop >= 2 for both series
    x = (b if e == 1 else p * b) + ctx._row_weight()
    w = (x * (big_m - 1) ** 2).bit_length()
    pack, unpack = ctx._packer(w, rel)
    pows = ctx._packed_powers(u, rel, b, w)
    join = pows.pop()
    ppow = ctx._ppow
    parts, acc = [0] * e, None
    j = (n_stop - 1) % b  # the place of term n_stop - 1 in the top block
    for s, c in terms:
        if c and s < rel:
            q, r = divmod(s, e)
            # c p^q mod M, reduced by the smaller modulus p^(m - q)
            parts[r] += pows[j] * (c % ppow(m - q) * ppow(q) if q else c)
        if j:
            j -= 1
            continue
        z = sum(part << r * w for r, part in enumerate(parts))
        if acc is not None:
            z += join * pack(acc, w)
        acc = unpack(z)
        parts, j = [0] * e, b - 1
    return acc


def _running_product(start: PadicNumber, factors, t: int, dens) -> list:
    """r_k = r_(k-1) a_k pi^t / d_k for k = 1, 2, ..., with r_0 = ``start``.

    ``dens`` yields the nonzero integers d_k and ends the product;
    ``factors`` yields each a_k raw, as ``_raw_of`` gives it: (v, unit,
    prec), the unit known modulo pi^(prec - v), reduced or not, or (None,
    None, prec) when a_k is zero-flagged.  The bookkeeping of the chain
    r * a, scale_pi(t), _div_int(d) is additive, so each step is one
    vector product and one reduction and builds its value directly:
    v_k = v_(k-1) + v(a_k) + t - e v_p(d_k), rel_k = min(rel_(k-1),
    prec(a_k) - v(a_k)), and the unit part of d_k, inverted modulo
    p^ceil(rel_k/e), is folded into the reduction.  A zero-flagged value's
    precision stands in for its valuation, and once r_k is zero-flagged it
    stays so, its precision following the same recurrence: these are the
    chain's own rules, so every value, digit, precision and zero flag is
    the chain's.  Each r_k comes out in the same form, its unit reduced.
    """
    ctx = start.ctx
    p, e = ctx.p, ctx.e
    zero = start.is_zero
    v = start.prec if zero else start.val
    vec, rel = start._unit, start.prec - v
    out = []
    for d, (av, au, aprec) in zip(dens, factors):
        s = 0
        while d % p == 0:
            d //= p
            s += 1
        v += (aprec if au is None else av) + t - e * s
        if zero or au is None:
            zero = True
            out.append((None, None, v))
            continue
        rel = min(rel, aprec - av)
        prod = ctx._vec_mul(vec, au)
        if d != 1:
            c = pow(d, -1, ctx._ppow(_ceil_div(rel, e)))
            prod = [c * a for a in prod]
        vec = ctx._vec_reduce(prod, rel)
        out.append((v, vec, v + rel))
    return out


def _raw_of(c: PadicNumber) -> tuple:
    """A PadicNumber in the one raw form, before any shift to a base:
    (val, unit, prec), or (None, None, prec) when zero-flagged."""
    return (None, None, c.prec) if c.is_zero else (c.val, c._unit, c.prec)


def _minus_integers(x: PadicNumber, start: int, stop: int):
    """x - j for j = start, ..., stop - 1, raw, as ``_running_product`` takes them.

    For v(x) >= 0, x - j is known modulo pi^P, P = min(prec(x), K), as
    x - from_int(j) is.  It is x's integral vector (``_dz_vector``) with j
    taken from entry 0 modulo p^ceil(P/e), which keeps the entry >= 0 as
    the packed ``_vec_mul`` needs; its valuation is 0 unless that entry is
    divisible by p, and only then is the value normalized (``_from_raw``).
    """
    ctx = x.ctx
    p, prec = ctx.p, min(x.prec, ctx.K)
    vec = _dz_vector(x)
    mod = ctx._ppow(_ceil_div(prec, ctx.e))
    for j in range(start, stop):
        a = list(vec)
        a[0] = (a[0] - j) % mod
        if a[0] % p:
            yield 0, a, prec
            continue
        yield _raw_of(_from_raw(ctx, 0, a, prec))


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

    def jet(self, x, n_max: int | None = None, tail_target: Fraction | None = None,
            over_y: bool = False) -> "TruncatedSeries":
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
            if tail_target is None:
                tail_target = Fraction(ctx.K, ctx.e)
            n_max = _n_for_tail(delta, tail_target)
        inv_y, big_l = self.inv_y, self.log_q
        tail = n_max * delta
        qx = self.power(x)
        term = qx * big_l * inv_y
        c0, c1 = (qx - self.one) * inv_y - x, term - self.one
        if over_y:
            c0, c1, term = c0 * inv_y, c1 * inv_y, term * inv_y
            tail += Fraction(inv_y.val, ctx.e)
        raw = [_raw_of(c0), _raw_of(c1)]
        raw += _running_product(term, itertools.repeat(_raw_of(big_l)), 0, range(2, n_max + 1))
        return TruncatedSeries._on_base(ctx, x, tail, *_to_base(ctx, raw))


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


def _ceil_frac(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


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
    coefficients by one bisection.  A derivative keeps its source series
    instead of vectors and forms each vector from the source's on first
    read (``_vectors``).
    """

    __slots__ = ("ctx", "center", "tail_bound", "_base", "_vals", "_vecs", "_precs",
                 "_lows", "_wall", "_packed", "_source")

    def __init__(self, ctx: PrimeContext, center: PadicNumber, coeffs,
                 tail_bound: Fraction | None):
        self._store(ctx, center, tail_bound, *_to_base(ctx, map(_raw_of, coeffs)))

    @classmethod
    def _on_base(cls, ctx: PrimeContext, center: PadicNumber, tail_bound: Fraction | None,
                 base: int, coeffs) -> "TruncatedSeries":
        """A series from (val, vector, prec) triples whose vectors sit on ``base``."""
        s = cls.__new__(cls)
        s._store(ctx, center, tail_bound, base, coeffs)
        return s

    def _store(self, ctx, center, tail_bound, base, coeffs) -> None:
        coeffs = list(coeffs)
        self._frame(ctx, center, tail_bound, base, [v for v, _, _ in coeffs],
                    [p for _, _, p in coeffs])
        self._vecs, self._source = tuple(w for _, w, _ in coeffs), None

    def _frame(self, ctx, center, tail_bound, base, vals, precs) -> None:
        """Everything but the vectors: the valuations and precisions, their
        suffix minima, and the vectors' ``base``, kept as given."""
        self.ctx = ctx
        self.center = center
        self.tail_bound = tail_bound
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

    @property
    def coeffs(self) -> tuple:
        """The coefficients as PadicNumbers, built from the raw form on each read."""
        ctx, base = self.ctx, self._base
        return tuple(ctx.zero(p) if w is None else _from_raw(ctx, base, w, p)
                     for _, w, p in self._stored())

    def __len__(self) -> int:
        return len(self._precs)

    def _cap_pi(self) -> int | None:
        if self.tail_bound is None:
            return None
        return math.floor(self.tail_bound * self.ctx.e)

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

        Since v(acc) >= b, the recurrence gives
        P = min(W, min prec(c_i) + i v(dz)) whenever v(dz) >= 0 and that
        is at most prec(dz) + b (``_decided``, which ``_prec_at`` shares).
        There, at e > 1, any f, and over more than 2 _BLOCK coefficients, the
        pass is ``PrimeContext._block_pass``, one reduction per _BLOCK
        coefficients, on the coefficients this series packs once, modulo
        pi^(min(W, top) - b): top = min(tail cap, max prec(c_n)) is the
        modulus they are packed at, whose slots a wider pass would overrun,
        and P never exceeds it.  Otherwise each step is acc <- acc D + c_n
        modulo pi^(W-b), one step of ``PrimeContext._horner_step``, which
        reduces D once per pass, and the recurrence runs beside it, with
        v(acc) measured only when prec(dz) + b is below the other terms.
        """
        ctx = self.ctx
        dz = self._offset(point)
        target, n, wall = self._kept(prec_hint)
        if not n:
            return ctx.zero(target)
        base = self._base
        blocks = ctx.e > 1 and n > 2 * _BLOCK
        prec = self._decided(dz, n, wall) if blocks else None
        if prec is not None:
            top, w, packed = self._packing(n)
            acc = ctx._block_pass(packed, n, _dz_vector(dz), min(wall, top) - base, w)
        else:
            acc, prec = self._steps(dz, n, wall, wall - base)
        return _from_raw(ctx, base, acc, prec)

    def _steps(self, dz: PadicNumber, n: int, wall: int, rel: int) -> tuple:
        """(acc, P) of the pass over n coefficients by Horner steps, acc
        modulo pi^rel for rel <= W - b, and P by the precision recurrence
        beside it, v(acc) measured modulo pi^min(rel, P - b)."""
        ctx, base, precs = self.ctx, self._base, self._precs
        vecs = self._vectors(n)
        dz_prec = dz.prec
        dz_val = dz_prec if dz.is_zero else dz.val
        step = ctx._horner_step(_dz_vector(dz), rel)
        acc = ctx._vec_reduce(vecs[n - 1] or [0] * ctx._dim, rel)
        prec = min(precs[n - 1], wall)
        for i in range(n - 2, -1, -1):
            nxt = min(prec + dz_val, precs[i], wall)
            if dz_prec + base < nxt:
                r = min(rel, prec - base)
                v = ctx._vec_val(ctx._vec_reduce(acc, r), r)
                if v is not None:
                    nxt = min(nxt, dz_prec + base + v)
            acc = step(acc, vecs[i])
            prec = nxt
        return acc, prec

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
        target = self._cap_pi()
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
        """``evaluate(point).prec``, by the precision recurrence alone.

        Where ``_decided`` gives P, no pass is run.  Otherwise the
        recurrence runs on Horner partial sums modulo pi^T, T = W -
        prec(dz) - b, capped at W - b: a v(acc) term binds only where
        prec(dz) + v(acc) lies below W, so only where v(acc) - b < T, and
        reducing modulo pi^T commutes with each step acc <- acc dz + c, so
        every binding v(acc) is the one the full pass measures.  At the
        solver's probes T is a few pi-units, where the pass keeps W - b.
        """
        dz = self._offset(point)
        target, n, wall = self._kept(None)
        if not n:
            return self.ctx.zero(target).prec
        prec = self._decided(dz, n, wall)
        if prec is None:
            prec = self._steps(dz, n, wall, min(wall - dz.prec, wall) - self._base)[1]
        return prec

    def _packing(self, n: int) -> tuple:
        """(top, w, coefficients packed for ``PrimeContext._block_pass``), the
        first n of them at least: top = min(tail cap, max prec(c_n)), each
        vector reduced modulo pi^(top - b) in slots of w =
        ``_block_width(top - b)`` bits, 0 for a zero-flagged coefficient.
        Each coefficient is packed once, when a pass first needs it."""
        ctx = self.ctx
        if self._packed is None:
            cap = self._cap_pi()
            top = self._wall if cap is None else min(cap, self._wall)
            self._packed = top, ctx._block_width(top - self._base), []
        top, w, packed = self._packed
        if len(packed) < n:
            rel = top - self._base
            pack = ctx._packer(w, rel)[0]
            packed += [0 if v is None else pack(ctx._vec_reduce(v, rel), w)
                       for v in self._vectors(n)[len(packed):n]]
        return self._packed

    def _stored(self):
        """The (val, vector on the base, prec) triple of every coefficient."""
        return zip(self._vals, self._vectors(len(self)), self._precs)

    def _vectors(self, n: int) -> Sequence:
        """The stored vectors, the first n at least formed: a derivative's
        are formed from its source's on first read (see ``derivative``)."""
        vecs, src = self._vecs, self._source
        if src is not None and len(vecs) < n:
            ctx, b = self.ctx, self._base
            pvecs = src._vectors(n + 1)
            for k in range(len(vecs), n):
                w = pvecs[k + 1]
                vecs.append(None if w is None else
                            ctx._vec_reduce([(k + 1) * a for a in w], self._precs[k] - b))
        return vecs

    def derivative(self) -> "TruncatedSeries":
        """The derivative, a view that shares this series' stored vectors.

        Coefficient n - 1 is n c_n: its valuation and precision are
        c_n's plus e v_p(n), and v(n c_n) >= v(c_n), so the tail bound
        carries over.  Those ints are set here, and the view keeps this
        series' base b; vector n - 1, n w_n reduced modulo pi^(prec - b),
        is formed when a pass first reads it (``_vectors``), and packed
        when a block pass first needs it.  So a coefficient past the
        largest hint is never formed, and every coefficient, read or
        evaluated, is the one n c_n gives.
        """
        ctx = self.ctx
        d = TruncatedSeries.__new__(TruncatedSeries)
        ups = [ctx.e * _vp(n, ctx.p) for n in range(1, len(self))]
        d._frame(ctx, self.center, self.tail_bound, self._base,
                 [None if v is None else v + up for v, up in zip(self._vals[1:], ups)],
                 [p + up for p, up in zip(self._precs[1:], ups)])
        d._vecs, d._source = [], self
        return d

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
        return TruncatedSeries._on_base(self.ctx, self.center, self.tail_bound, self._base,
                                        list(self._stored())[1:])

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
        return TruncatedSeries._on_base(self.ctx, self.center, self.tail_bound, self._base, out)

    def valuation_points(self) -> list:
        """(index, valuation) pairs for polygon building; None marks zero-flagged."""
        e = self.ctx.e
        return [(n, None if v is None else Fraction(v, e)) for n, v in enumerate(self._vals)]


def _to_base(ctx: PrimeContext, raw) -> tuple:
    """(b, triples on b) from (val, unit, prec) triples: each unit shifted up
    to the least valuation b, a zero-flagged precision standing in for one.
    The list is rewritten in place, so each unit is freed once shifted."""
    raw = list(raw)
    base = min((p if v is None else v for v, _, p in raw), default=0)
    for i, (v, u, p) in enumerate(raw):
        if u is not None:
            raw[i] = v, tuple(ctx._vec_shift(u, v - base)), p
    return base, raw


def _dz_vector(dz: PadicNumber) -> list:
    """dz of valuation >= 0 as the integral vector pi^v(dz) unit, 0 when
    zero-flagged."""
    if dz.is_zero:
        return [0] * dz.ctx._dim
    return dz.ctx._vec_shift(dz._unit, dz.val)


def _horner_division(base: int, coeffs: list, rho: PadicNumber, wall: int) -> list:
    """Synthetic division by (X - rho) of (val, vector, prec) triples c_0 ...
    c_(n-1) stored on ``base``, as one Horner pass at rho: the partial sums
    s_i = c_i + rho s_(i+1) from s_n = 0, capped at pi^W, are the quotient
    s_1 ... s_(n-1) and the remainder s_0.  Each is one step of
    ``PrimeContext._horner_step`` on the last, or c_i when that is zero,
    reduced to its own precision, where its valuation is measured.  That
    precision is the PadicNumber loop's, P <- min(P + v(rho), prec(rho) +
    v(s_(i+1)), prec(c_i), W), as in ``TruncatedSeries._steps``, and the
    digits the reduction drops reach s_(i-1) only at or above P + v(rho),
    so every value, digit, precision and zero flag is the loop's.
    """
    ctx, rho_prec = rho.ctx, rho.prec
    step = ctx._horner_step(_dz_vector(rho), wall - base)
    rho_val = rho_prec if rho.is_zero else rho.val
    out, acc, last, low = [], None, math.inf, math.inf  # s_n = 0 exactly
    for _, w, prec in reversed(coeffs):
        prec = min(prec, wall, last + rho_val, rho_prec + low)
        if acc is not None:  # a zero-flagged s_(i+1) adds nothing
            w = step(acc, w)
        w = None if w is None else ctx._vec_reduce(w, prec - base)
        v = None if w is None else ctx._vec_val(w, prec - base)
        out.append((None, None, prec) if v is None else (base + v, w, prec))
        acc, last, low = out[-1][1], prec, prec if v is None else base + v
    return out[::-1]


def _n_for_tail(delta: Fraction, target: Fraction, offset: Fraction = Fraction(0)) -> int:
    """Smallest N with N*delta - offset >= target (delta > 0)."""
    return max(1, _ceil_frac((target + offset) / delta))


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
    vector product.  An integer x in 2..n_max+1 makes its factor, and
    every later coefficient, zero-flagged, as the PadicNumber chain did.
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
    raw = [_raw_of(ek)] + _running_product(ek, _minus_integers(x, 2, n_max + 2), t,
                                           range(3, n_max + 3))
    return TruncatedSeries._on_base(ctx, ctx.zero(), tail, *_to_base(ctx, raw))


def series2(x: PadicNumber, u, m0, n_max: int | None = None) -> TruncatedSeries:
    """Coefficients d_n(x, u) of h(x, U) recentered at U = u (unit or zero).

    At a unit u this is repeated synthetic division by (U - u): pass j is
    one Horner pass (``_horner_division``) on the quotient of pass j - 1
    and leaves d_j as its remainder.
    """
    ctx = x.ctx
    m0 = Fraction(m0)
    u = _coerce(ctx, u)
    if not u.is_zero and u.val != 0:
        raise DomainError("u must be a unit or zero")
    mono = _series2_monomials(x, m0, n_max)
    base = mono._base
    work = list(mono._stored())
    if not u.is_zero:
        # d_n also sums u^(k-n) binom(k, n) times every omitted monomial k,
        # each of valuation above the tail bound, so d_n is known only to it;
        # capping every pass there caps each d_n alike, as prec(u) > v(u) = 0
        for j in range(len(work)):
            work[j:] = _horner_division(base, work[j:], u, mono._cap_pi())
    return TruncatedSeries._on_base(ctx, u, mono.tail_bound, base, work)
