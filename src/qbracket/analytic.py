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
power.  The scalars, each term's class and place in its block included,
depend on p, e, the argument's valuation, N and the modulus alone, never
on a digit of the argument, so each shape's are built once and kept in
a bounded cache keyed by those ints, as Psi's scalars are (``_TABLES``);
a kept table holds no context.  log1p first raises 1+y to a p-power,
which moves y deeper into S so the series needs fewer terms, then
divides the log by that power.  Both return, digit for digit, the
truncated series of the stored representative, so the claimed precisions
are those the proved cutoffs give, as before: no digit and no precision
changes with the method.

The parameter q enters only through q^x with q = 1 + y in 1+S.  There
q^x = exp(x log q) is also the limit of the integer powers q^n as n -> x,
so q^x is taken as q^n exp((x - n) log q) for an integer n that agrees
with x to as many digits as a cost rule finds worth the power, the split
FLINT's padic_exp makes: the exp then starts deeper in S and sums far
fewer terms, and at an integer x below p^k it is 1 and no log is taken.
One rule picks n in every kernel set (``_power_split``).  It prices q^n
as the context's kernel set takes it, and an exp factor with the log it
would take.  In the schoolbook and packed sets q^n is a square and
multiply.  In Z_p, at e = f = 1, the ring is Z/p^K and q^n is one
C-level pow modulo p^K, cheap enough that a split whose log q is not yet
taken gives n all of x's digits while p^K has up to about 240 bits, and
needs no log and no exp.  How q splits is decided here, once per
public call: a private split holds y = pi^t u, the q = 1 and 1+S checks,
log q and y^-1 from their first use, and q^x, so q_pow, q_bracket, the
series1 jets and the solver's certifications share at most one log1p
per q, and a fiber solved in X takes none: its Psi_0 gives log q
(``_QSplit.log_from``).

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

The solver solves neither.  exp and log are inverse isometries between S
and 1+S, so [X]_q = X, for q = 1 + y, is X log(1 + y) = log(1 + yX) on
the unit disk, and Psi = (X log(1 + y) - log(1 + yX))/(y^2 X (X - 1)) =
sum_(n>=2) (-1)^n y^(n-2) [n-1]_X / n has the zeros of the deflated
quotient ([X]_q - X)/(y X (X - 1)), with their multiplicities, and its
valuation at every point (``_log_form_terms``).  Term n gains v(y) over
term n - 1, where the series1 and series2 terms gain v(y) - e/(p - 1),
so on the heavy fixed-points leg, (5, 10, 200) with v(y) = 3/10, the 77
coefficients of F below do what 426 of series1 did.  In X, F = (X - 1)
Psi has the units u^(n-2) of y = pi^t u, one fixed-multiplier step each,
and Psi_k is the sum of F's terms above k: each term is its packed power
times one scalar of a table kept per shape, the sums run from the top on
those packed integers, and each Psi_k is unpacked and reduced once.  Its
sum Psi_0 makes F's constant -Psi_0: F(1) = 0 by construction, and F is
read only for its valuations and precisions (``_QSplit.log_fiber``).  In
U, with y = pi^t U, the coefficients hold [n-1]_x, one Horner step each,
scaled and shifted by the same table (``_log_form_in_u``).  At
an integer x = j the parameter fiber is a polynomial of degree j - 2,
which series2's monomials are there, and the solver keeps it
(``_parameter_series``).
series1 and series2 stay what they were, for their callers and the CLI's
polygon.

A series is stored raw, not as PadicNumbers: one base valuation, each
coefficient's vector already shifted onto it, and its valuation and
precision as ints (Caruso, "Computations with p-adic numbers", 2017).
Every raw coefficient in flight, a running product's output or a stored
one, has one form, (v, vector, prec), v and vector None when
zero-flagged.  The builders hand their raw coefficients over, and every
operation on that form keeps each coefficient digit for digit the
PadicNumber one; ``coeffs`` builds those PadicNumbers only when read, by
core's ``_from_raw``.  The base only bounds every kept valuation from
below, so a series derived from another, its derivative, keeps its
source's base and shifts no vector.  A series' vectors come
from one source, read as far as a pass reads: a running product or the
log form in U, resumed from the last vector formed, F's packed terms, or
a derivative, a view on its series' vectors that forms n w_n from w_n.
So a root lift never forms the coefficients its hints cut, F's vectors
are formed only when read, and Psi in X, whose sums run from the top, is
formed whole.  A block pass reads packed coefficients, which a series
packs from its vectors once and a derivative takes as n times its
series' packed c_n, forming no vector.

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
v(acc) term can bind, over the coefficients below those that sit at or
above them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterator, Sequence

from .core import _BLOCK, PadicNumber, PrimeContext, _ceil_div, _from_raw, _power_table, _vp
from .errors import ContextMismatch, DomainError

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
    to target + k*e by ``PrimeContext._power_sum``, on scalars built once
    per shape (``_log_table``), and the sum is divided by p^k.  That takes
    fewer terms, about (target + k*e)/(t + k*e); ``_log_reduction`` picks k.
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
    k = _log_reduction(p, e, y.val, target)[0]
    if k:
        one = ctx.one(target + k * e)
        big = one + y._lift_exact(target + k * e)
        for _ in range(k):
            big = big ** p
        y = big - one
    t, rel = y.val, y.prec
    return _from_raw(ctx, -k * e, ctx._power_sum(y._unit, _log_table(p, e, t, rel), rel), target)


def _log_cutoff(p: int, e: int, t: int, target: int) -> int:
    """The blockwise cutoff of ``log1p`` for valuation t (see there)."""
    j = 1
    while p ** j * t - e * j < target or p ** j * t * (p - 1) <= e:
        j += 1
    return min(p ** j, _ceil_div(target + e * (j - 1), t))


@lru_cache(maxsize=1024)
def _log_reduction(p: int, e: int, t: int, target: int) -> tuple:
    """(k, cost): the number k of p-th powers taken before the log series,
    and the log's price in quarter products, which ``_power_split`` reads.

    Integer cost rule, in vector products: a p-th power by square and
    multiply takes bit_length(p) + popcount(p) - 2, the series on N
    terms takes about 2 sqrt(N) (``PrimeContext._power_sum``), and each
    term adds a scalar times a packed power, counted as 1/4 of a product.
    Each term's modular inverse is paid once per shape, when its table is
    built (``_log_table``), not per call; the weight 1/4, and exp's
    (``_exp_price``), were timed when every call paid it and are kept
    as they are, because a new weight changes which k and which split of
    q^x win, and with them the vector products that tests count.  The
    smallest k of least cost wins.  Which k wins changes no digit, since
    log1p's identity log(1+Y) = p^k log(1+y) holds for every k.  The
    result depends on the four ints alone and is kept per call shape.

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

    A p-th power is priced by square and multiply in every kernel set, also
    in Z_p, where ``__pow__`` takes one pow (``PrimeContext._pow_price``).
    This cost is the log's price that ``_power_split``'s Z_p prices were
    measured against: with the powers priced as one pow, the split read
    1.34x slower on q_bracket ops at (3, 1, 120).
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
    return best_k, best


# the work around a q^x exp factor besides its series, in quarter products:
# x' log q, the product q^n exp(x' log q), and exp's set-up (see _power_split)
_EXP_FIXED = 16


def _power_split(ctx: PrimeContext, t: int, target: int, a0: int, rest: int,
                 log_price: int) -> int:
    """The integer n of q^x = q^n exp((x - n) log q), ``_QSplit.power``.

    x's integral vector has entry 0 = a0 >= 0 and its other entries of
    valuation ``rest`` (x's precision when they vanish, so x is in Z_p);
    v(q - 1) = t and the result is wanted modulo pi^target.  The
    candidates are n = a0 mod p^k for v_p(a0) <= k <= stop = ceil(min(rest,
    target - t)/e), and x - n has valuation at least min(rest, e k).  At
    k = stop it has valuation rest or sits at or above pi^(target - t), so
    there is no exp and no log unless rest + t < target.  Prices are in
    quarter products of exp's series:

    - q^n costs the kernel set's ``_pow_price`` (core): in the Z_p set,
      at e = f = 1, where q^n is one C-level ``pow`` modulo p^target
      (``PadicNumber.__pow__``), bits(n) isqrt(L) / 24 for L =
      bits(p^target); in the schoolbook and packed sets, where it is a
      Python square and multiply, 4 (bits(n) + popcount(n) - 2);
    - an exp factor at valuation v costs its series, 8 isqrt(N) + N for N
      terms (``_exp_price``), plus ``_EXP_FIXED``, plus ``log_price``, the
      log's price by ``_log_reduction``, while the split has not taken
      log q (0 once it has).

    A k below stop is priced at n = p^k - 1, the largest n below p^k, and
    at v = e k + t, the least valuation its exp factor can have, so the
    least-price k below stop depends on the ints of the call and the price
    alone and is kept per call shape (``_split_part``); a0's digits only
    set the price of the n at stop.  The smallest k of least price wins,
    so a tie goes to the part, and a0 = 0 takes n = 0.  Which n wins
    changes no digit (``_QSplit.power``).

    The Z_p price of a bit was measured on a (p, K) grid: pow(a, n, p^K)
    per bit of n, n of K digits, over exp's time per quarter product, exp(z)
    over 8 isqrt(N) + N at v(z) = 2, 3, 5; best of 7 loops each, median
    of 3 sweeps; isqrt(L)/24 beside each:

    ====  ==========  ==========  ==========  ==========  ==========  ==========
    p     K=30        60          120         240         480         960
    ====  ==========  ==========  ==========  ==========  ==========  ==========
    3     0.23, 0.25  0.32, 0.38  0.41, 0.54  0.74, 0.79  1.07, 1.13  1.56, 1.63
    5     0.29, 0.33  0.35, 0.46  0.56, 0.67  1.02, 0.96  1.46, 1.38  1.87, 1.96
    7     0.26, 0.38  0.39, 0.54  0.71, 0.75  1.21, 1.04  1.52, 1.50  1.81, 2.13
    11    0.33, 0.42  0.40, 0.58  0.78, 0.83  1.36, 1.17  1.70, 1.67  2.21, 2.38
    ====  ==========  ==========  ==========  ==========  ==========  ==========

    A bit of n is a modular squaring: about 1/4 of a quarter product, the
    price of a series term, while Python's per-step work dominates a
    series product, and more as the modulus' quadratic arithmetic takes
    over.  The work around an exp factor measured 10-25
    quarter products at K <= 120, and a fresh log 45-275 against its
    rule's 52-347.  So in Z_p a fresh split takes all of a unit x while
    p^K has up to about 240 bits (K <= 150 at p = 3, 90 at p = 5 and 7,
    60 at p = 11), and a part beyond, or once it holds log q.  Other
    Z_p rules were timed on q_bracket ops of the bracket-grid kinds (t and
    x's kind cycling, 24 a cell), 21 interleaved repetitions, median time
    per cell against this rule's.  "linear" prices a bit at min(L + 256,
    2048)/1024, "1/4" and "1" at a constant, "F=8" and "F=32" take that
    ``_EXP_FIXED``, "no log" never prices the log, and "chain" prices q^n
    as a square and multiply, with no fixed work and no log, walking n
    along a0's digits:

    ========  ======  =====  =====  =====  =====  ======  =====
    (p, K)    linear  1/4    1      F=8    F=32   no log  chain
    ========  ======  =====  =====  =====  =====  ======  =====
    (3, 60)   1.00    0.97   0.98   0.98   0.98   1.00    2.57
    (3, 120)  0.98    0.97   1.37   0.98   0.98   1.37    1.59
    (3, 240)  1.05    1.42   1.02   1.02   1.01   0.98    1.15
    (3, 480)  1.01    3.14   1.03   1.02   1.02   1.02    1.12
    (5, 60)   1.01    0.98   1.72   0.99   0.99   1.76    1.94
    (5, 120)  0.99    0.99   1.01   1.01   1.00   0.99    1.14
    (5, 240)  0.99    2.22   1.00   0.98   0.99   1.01    1.08
    (5, 480)  1.02    1.13   1.05   1.00   1.00   1.02    1.09
    (7, 60)   1.00    0.99   1.59   1.00   1.00   1.52    1.65
    (7, 120)  1.02    1.17   0.99   1.00   0.99   0.99    1.12
    (7, 240)  1.01    2.55   1.00   0.99   1.01   1.01    1.13
    (7, 480)  1.00    1.13   0.98   0.96   0.96   0.95    1.08
    ========  ======  =====  =====  =====  =====  ======  =====

    No other rule is faster than this one by more than 5 % on any cell,
    and each constant and "no log" is 1.37-3.14x slower on some cell;
    a fixed price of 8 or 32 moves no cell by more than 4 %.

    The chain price was set with that walk, in the schoolbook and packed
    sets: on bracket-grid's ops at seeds 0 and 1, 21 interleaved
    repetitions, pricing a product of q^n at 2 series products took
    0.95-1.02x the time of this price per cell, and at 1/2 of one
    1.01-1.21x, so the price counts both alike.  On the q^x calls of the
    four benchmark workloads at seeds 0-2, this rule picks the walk's n
    on all but 3 of the 3,706 at e > 1.
    """
    p, e, price = ctx.p, ctx.e, ctx._pow_price
    stop = -(-min(rest, target - t) // e)
    v0 = _vp(a0, p) if a0 else stop
    if v0 >= stop:
        return 0
    k, part = _split_part(p, e, t, target, stop, v0, price)
    n = a0 % ctx._ppow(stop)
    whole = price(p, n, target)
    if rest + t < target:
        whole += _exp_price(p, e, rest + t, target) + _EXP_FIXED + log_price
    return a0 % ctx._ppow(k) if part + _EXP_FIXED + log_price <= whole else n


@lru_cache(maxsize=1024)
def _split_part(p: int, e: int, t: int, target: int, stop: int, v0: int, pow_price) -> tuple:
    """(k, price) of ``_power_split``'s least-price k in v0 <= k < stop,
    the price without the exp factor's fixed work and log; at k = v0,
    n = 0 and q^n is free."""
    best_k, best = v0, _exp_price(p, e, e * v0 + t, target)
    for k in range(v0 + 1, stop):
        n = p ** k - 1
        # both prices grow with bits(n) and, at a bit count, are least at a
        # power of 2: no later candidate's q^n costs less than this one's
        if pow_price(p, 1 << n.bit_length() - 1, target) >= best:
            break
        price = pow_price(p, n, target) + _exp_price(p, e, e * k + t, target)
        if price < best:
            best_k, best = k, price
    return best_k, best


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


# the most shapes whose q-independent scalars each of _log_table, _exp_table
# and _log_form_table keeps; one round of each benchmark workload at seeds
# 0-5 (verify: 0-1) reads at most 29 exp, 11 log and 5 Psi shapes
_TABLES = 64


@lru_cache(maxsize=_TABLES)
def _log_table(p: int, e: int, t: int, rel: int) -> tuple:
    """``_power_table`` of log1p's series at v(y) = t summed modulo pi^rel,
    on ``_log_cutoff``'s N terms: its scalars are paid once per shape."""
    n_stop = _log_cutoff(p, e, t, rel)
    return _power_table(p, e, n_stop, rel,
                        _log_terms(p, e, t, n_stop, p ** _ceil_div(rel, e)))


def _log_form_terms(ctx: PrimeContext, t: int) -> tuple:
    """(N, valuations, term) of the terms n = 2 ... N - 1 of
    Psi = sum_(n>=2) (-1)^n y^(n-2) [n-1]_X / n, for v(y) = t.

    Psi = Phi/(y^2 X (X - 1)) for Phi(X, y) = X log(1 + y) - log(1 + yX)
    = sum_n T_n (X - X^n), T_n = (-1)^(n+1) y^n/n log1p's terms, and
    X - X^n = -X (X - 1) [n-1]_X gives term n.  Both series the solver
    solves on are Psi: in X at fixed y, the sums from the top of the terms
    of F = (X - 1) Psi, each its packed power of u times a scalar of the
    table below (``_QSplit.log_fiber``), and in U at fixed x with
    y = pi^t U, each coefficient one ``term`` (``_log_form_in_u``), where coefficient
    0, [1]_x/2 = 1/2, is a unit.  The scalar part (-1)^n/n of term n has
    valuation (n - 2) t - e v_p(n), its term n t - e v_p(n) in log1p's
    series less 2t, so ``_log_cutoff`` at K + 4t is a blockwise cutoff N
    with every omitted term at or above K + 2t, for every integral
    [n-1]_X and every y = pi^t U with U integral.

    ``term(vec, i, rel)`` is term n = i + 2 on the least valuation b of
    them all: pi^(v_n - b) (-1)^n vec / m_n reduced modulo
    pi^(v_n - b + rel), m_n the part of n prime to p, for vec known modulo
    pi^rel and rel <= K, as every caller's is.  That is the chain's
    ``_scale((-1)^n, n)`` shifted onto b, in one pass of core's
    ``_rotate`` and one reduction.  N, the valuations and, per term, the
    shift (r_n, c_n p^s_n) for v_n - b = e s_n + r_n, c_n = (-1)^n/m_n
    modulo p^ceil(K/e), a multiple of each p^ceil(rel/e), depend on p, e,
    t and K alone and are kept per shape (``_log_form_table``), so no call
    takes an inverse or a power of p.
    """
    n_stop, vals, shifts = _log_form_table(ctx.p, ctx.e, t, ctx.K)
    base = min(vals)

    def term(vec, i: int, rel: int) -> tuple:
        return ctx._vec_reduce(ctx._rotate(vec, *shifts[i]), vals[i] - base + rel)
    return n_stop, vals, term


@lru_cache(maxsize=_TABLES)
def _log_form_table(p: int, e: int, t: int, K: int) -> tuple:
    """(N, valuations, shifts) of ``_log_form_terms`` for the terms
    n = 2 ... N - 1: N is log1p's blockwise cutoff at K + 4t, term n has
    valuation v_n = (n - 2) t - e v_p(n), and its shift is (r, c p^s) for
    v_n - b = e s + r, b the least v_n and c = (-1)^n/m_n modulo
    p^ceil(K/e)."""
    n_stop = _log_cutoff(p, e, t, K + 4 * t)
    mod = p ** _ceil_div(K, e)
    vals, scalars = [], []
    for n in range(2, n_stop):
        v = _vp(n, p)
        m = n // p ** v
        vals.append((n - 2) * t - e * v)
        scalars.append(pow(-m if n % 2 else m, -1, mod))
    base = min(vals)
    shifts = tuple((r, c * p ** s) for c, (s, r) in zip(scalars, (divmod(v - base, e) for v in vals)))
    return n_stop, tuple(vals), shifts


def _log_form_cutoff(ctx: PrimeContext, t: int) -> int:
    """N of ``_log_form_terms``: log1p's blockwise cutoff at K + 4t."""
    return _log_form_table(ctx.p, ctx.e, t, ctx.K)[0]


def exp(z: PadicNumber) -> PadicNumber:
    """exp(z) for z in S; v(exp(z) - 1) = v(z).

    v(z^n/n!) > n*(t - e/(p-1)) for t = v(z), so the first N with
    N*(t - e/(p-1)) >= target is a sound cutoff.  With z = pi^t u the
    sum is sum_{n<N} pi^(s_n) u^n / m_n, where s_n = n t - e v_p(n!) and
    m_n is n! stripped of p.  It is taken by rectangular splitting on
    packed integers (``PrimeContext._power_sum``, Paterson and Stockmeyer
    1973): about 2 sqrt(N) vector products instead of N, and per term one
    scalar times a packed power.  The scalars, p^(s_n // e)/m_n modulo
    p^ceil(target/e) with the m_n^-1 from one modular inverse and a running
    product taken in the order of the Horner pass, depend on p, e, t and
    the target alone and are built once per shape (``_exp_table``).  The
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
    table = _exp_table(ctx.p, ctx.e, t, target)
    return _from_raw(ctx, 0, ctx._power_sum(z._unit, table, target), target)


def _exp_cutoff(p: int, e: int, t: int, target: int) -> int:
    """The first N with N (t - e/(p - 1)) >= target: ``exp``'s term count
    at valuation t."""
    return _ceil_div(target * (p - 1), t * (p - 1) - e)


def _exp_price(p: int, e: int, t: int, target: int) -> int:
    """The price ``_power_split`` gives exp's series at valuation t, in
    quarter products: about 2 sqrt(N) products and N terms of 1/4 each
    for N = ``_exp_cutoff`` (``PrimeContext._power_sum``)."""
    terms = _exp_cutoff(p, e, t, target)
    return 8 * math.isqrt(terms) + terms


@lru_cache(maxsize=_TABLES)
def _exp_table(p: int, e: int, t: int, target: int) -> tuple:
    """``_power_table`` of exp's series at v(z) = t summed modulo pi^target,
    on ``_exp_cutoff``'s N terms: its scalars are paid once per shape."""
    n_stop = _exp_cutoff(p, e, t, target)
    return _power_table(p, e, n_stop, target,
                        _exp_terms(p, e, t, n_stop, p ** _ceil_div(target, e)))


def _exp_terms(p: int, e: int, t: int, n_stop: int, mod: int):
    """(s_n, m_n^-1 modulo ``mod``) for the exp series, n = n_stop - 1 down to 0.

    One forward pass forms m_{N-1}, one pow inverts it, and m_(n-1)^-1
    = m_n^-1 * (n stripped of p) walks back down, as ``_exp_table`` reads
    the terms, once per shape.
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
    that entry and that of x's other entries (as in ``_QSplit.power``),
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

    L = log q and y^-1 are computed on first use and kept, so q^x,
    [x]_q and series1 jets at any number of points share one log1p, and a
    path that needs neither, such as q^x at an integer x, never computes
    them.  A fiber solved in X holds Psi, whose constant gives L with no
    log1p (``log_from``).
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
        """log1p(y), unless ``log_from`` kept y - y^2 Psi_0, its digits."""
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
        that product claims.  ``_power_split`` picks k, pricing q^n by the
        context's kernel set and adding the log's price to an exp factor
        while this split has not taken log q; where x' L sits at or above
        pi^P, q^n is the whole result and no log is taken.  Zero-flagged x
        or y take exp(x L) itself.
        """
        y = self.y
        if x.is_zero or y.is_zero:
            return exp(x * self.log_q)
        ctx, t = y.ctx, y.val
        target = min(x.prec + t, y.prec + x.val)
        vec = _dz_vector(x)
        a0, vec[0] = vec[0], 0
        rest = ctx._vec_val(vec, x.prec)
        log = 0 if "log_q" in self.__dict__ else _log_reduction(ctx.p, ctx.e, t, y.prec)[1]
        n = _power_split(ctx, t, target, a0, x.prec if rest is None else rest, log)
        if not n:
            return exp(x * self.log_q)
        vec[0] = a0 - n
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

    def jet(self, x, n_max: int | None = None) -> "TruncatedSeries":
        """The series1 coefficients around x (see ``series1``).

        c_0 and c_1 are PadicNumber arithmetic; c_n = c_(n-1) L / n for
        n >= 2 is ``_running_product`` with the one factor L = log q, t = 0
        and d_n = n, one vector product per coefficient.
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
        lv, lu, lp = _raw_of(big_l)
        return TruncatedSeries._make(ctx, x, tail, *_on_least(
            ctx, [_raw_of(c0), _raw_of(c1)], *_running_product(
                term, itertools.repeat((lv, lp)), itertools.repeat(lu), 0, range(2, n_max + 1))))

    def log_fiber(self) -> tuple:
        """(F, Psi) around X = 0 (see ``_log_form_terms``), F = Phi(X, y)/(y^2 X)
        = (X - 1) Psi(X): ``fixed_points_for_q`` counts the fiber on F and
        lifts Psi.

        F_k for k >= 1 is term n = k + 1, of valuation v_n and unit
        (-1)^n u^(n-2)/m_n modulo pi^rel, rel = prec(y) - t, stored on
        b = min v_n.  The powers u^0, u^1, ... are packed in slots of w bits
        by core's ``_packed_powers``, one fixed-multiplier step each, and
        term n is its power times lo_n moved up r_n slots, (r_n, lo_n) its
        shift in ``_log_form_table``: the entries past slot e - 1 of a block
        are the ones that wrap, which the unpacking folds times p, as
        pi^e = p asks.  No term is reduced, so w holds N - 2 of them, each
        entry below p lo_n M for M = p^ceil(rel/e).

        Psi is F's synthetic division by X - 1, as ``_horner_division`` at 1
        on F_1, F_2, ... alone would take it: its partial sums
        Psi_(k-1) = F_k + Psi_k are the sums of the packed terms from the
        top, so each Psi_k is unpacked once and reduced to the precision
        that pass's recurrence gives it, P_k = min(prec(F_(k+1)), W, P_(k+1),
        K + v(Psi_(k+1))) with 1 known to K.  Here only the first and third
        bind: v(Psi_(k+1)) is at least the least valuation of F_(k+2),
        F_(k+3), ..., or Psi_(k+1) is zero-flagged at P_(k+1), and rel < K,
        so K + v(Psi_(k+1)) exceeds P_(k+1), as W does; so P_k is the least
        precision of F_(k+1), F_(k+2), ....  A sum agrees with the pass's below P_k, as
        P_k never exceeds a precision above it, so every digit, precision
        and zero flag is the pass's; as there, a valuation is measured only
        where F_(k+1) and Psi_(k+1) tie.  A zero-flagged Psi_k is 0 modulo
        pi^(P_k - b), and every B-th sum is replaced by Psi_k packed again,
        B = ``core._BLOCK``, so no sum carries the digits of the terms far
        above it into the reductions below: at (5, 3, 2880), where the sums
        ran whole, the build took 1.08-1.11x the division's time, and
        0.99-1.04x with them cut back.  F_0 =
        -(F_1 + F_2 + ...) = -Psi_0, so F(1) = 0 by construction and F's
        constant takes no sum of its own.  F's vectors, each packed term
        unpacked and reduced to its precision, are formed when first read,
        and the zero count reads none.
        """
        ctx, y = self.q.ctx, self.y
        p, e, t, rel = ctx.p, ctx.e, y.val, y.prec - y.val
        n_stop, vals, shifts = _log_form_table(p, e, t, ctx.K)
        base = min(vals)
        # lo_n < p^(s_n + ceil(K/e)) and s_n <= (max v_n - b)/e (``_log_form_table``)
        lo_top = ctx._ppow((max(vals) - base) // e + _ceil_div(ctx.K, e))
        w = ((n_stop - 2) * p * lo_top * (ctx._ppow(_ceil_div(rel, e)) - 1)).bit_length()
        unpack = ctx._packer(w)[1]
        packed = [lo * z << r * w for (r, lo), z in zip(
            shifts, ctx._packed_powers(y._unit, rel, n_stop - 3, w))]
        pack, psi, prec, low, z = ctx._pack_vec, [], math.inf, None, 0  # Psi_(N-2) = 0 exactly
        for k, v, term in zip(itertools.count(), reversed(vals), reversed(packed)):
            z += term
            prec = min(prec, v + rel)
            tie = v == low
            if low is not None and low < v:
                v = low
            vec = None
            if v < prec:
                vec = ctx._vec_reduce(unpack(z), prec - base)
                if tie:
                    v = ctx._vec_val(vec, prec - base)
                    v = None if v is None else base + v
            if v is None or v >= prec:
                v = vec = None
                z = 0
            elif k % _BLOCK == _BLOCK - 1:
                z = pack(vec, w)
            psi.append((v, vec, prec))
            low = v
        psi.reverse()
        v, w0, prec = psi[0]
        head = None if w0 is None else ctx._vec_reduce([-a for a in w0], prec - base)
        tail = Fraction(ctx.K + 2 * t, ctx.e)
        terms = (ctx._vec_reduce(unpack(z), vn - base + rel) for z, vn in zip(packed, vals))
        f = TruncatedSeries._make(ctx, ctx.zero(), tail, base, [v, *vals],
                                  itertools.chain([head], terms), [prec] + [vn + rel for vn in vals])
        return f, TruncatedSeries._make(ctx, ctx.zero(), tail, base, *zip(*psi))

    def log_from(self, psi: "TruncatedSeries") -> None:
        """Keep log q = y - y^2 Psi_0, Psi_0 the constant of ``log_fiber``'s
        Psi (Psi_0 = (y - log q)/y^2, ``_log_form_terms``), capped at
        prec(y), where it is known to prec(y), the precision log1p claims:
        log is an isometry on S, so the two agree digit for digit.  A log
        already taken is kept, and a Psi_0 too short leaves log q to log1p."""
        y = self.y
        if "log_q" not in self.__dict__:
            _, w, prec = next(psi._stored(1))
            psi0 = y.ctx.zero(prec) if w is None else _from_raw(y.ctx, psi._base, w, prec)
            big_l = (y - y * y * psi0)._cap_prec(y.prec)
            if big_l.prec == y.prec:
                self.__dict__["log_q"] = big_l


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
    for one; a series derived from another, its derivative, keeps its
    source's b, so no vector is shifted when a derived coefficient's
    valuation rises.  The suffix minima of the
    valuations are kept beside them, so a hint cuts the trailing
    coefficients by one bisection.  Every series comes from one
    constructor (``_frame``) given the base, the valuations, any iterable
    of vectors on the base and the precisions; the ints and the tail cap
    floor(tail_bound e) in pi-units are fixed there, and the iterable is
    read only as far as a pass reads (``_vectors``), so the vectors of a
    series1 jet, a series2 at 0, a log form in U, F in X or a derivative
    are formed when first read.  A block pass reads the coefficients
    packed instead (``_packing``): a series packs its own vectors, in slots
    with room for a multiplier below its length, and its derivative takes
    n times its packed c_n, so a derivative forms vectors only for passes
    of Horner steps.
    """

    __slots__ = ("ctx", "center", "tail_bound", "_cap", "_base", "_vals", "_vecs", "_precs",
                 "_lows", "_wall", "_packed", "_source", "_parent")

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
        self._packed = self._parent = None
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
        summed: over more than the context's ``_block_over`` coefficients,
        2 B at e > 1 and never at e = 1, by ``PrimeContext._block_pass``,
        one reduction per B = ``core._BLOCK`` coefficients, on the
        coefficients this series packs once (``_packing``), modulo
        pi^(min(W, top) - b): top, min(tail cap, max prec(c_n)) of the series
        or of the series a derivative is taken of, is the modulus they are
        packed at, whose slots a wider pass would overrun, and P never
        exceeds it.
        Otherwise each step is acc <- acc D + c_n modulo pi^(W-b), one step
        of ``PrimeContext._horner_step``, which reduces D once per pass.
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
        elif n > ctx._block_over:
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

        When prec(dz) >= 0, the pass runs only on the first m coefficients,
        m = bisect_left(``_lows``, b + T): from m on every coefficient, and so
        every partial sum and its precision, sits at or above b + T, where
        it adds nothing modulo pi^T and its v(acc) term lies at or above W.
        Their precisions take the recurrence on ints, P <- min(P + v(dz),
        prec(c_i), W), and hand P_m to the pass as a zero-flagged
        coefficient at P_m, which adds no digit and no v(acc) term below W.
        So the coefficients from m on are never formed.
        """
        dz = self._offset(point)
        target, n, wall = self._kept(None)
        if not n:
            return self.ctx.zero(target).prec
        prec = self._decided(dz, n, wall)
        if prec is None:
            base = self._base
            rel, m, last = min(wall - dz.prec, wall) - base, n, math.inf
            if dz.prec >= 0:
                m = bisect.bisect_left(self._lows, base + rel, 0, n)
                v = dz.prec if dz.is_zero else dz.val
                for c in reversed(self._precs[m:n]):
                    last = min(c, wall, last + v)
            coeffs = list(self._stored(m))
            if m < n:
                coeffs.append((None, None, last))
            prec = _horner_division(base, coeffs, dz, wall, rel)[0][2]
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
        first n of them at least, each packed once, when a pass first needs
        it.  A series packs its vectors: top = min(tail cap, max prec(c_n)),
        each vector reduced modulo pi^(top - b) in slots of w =
        ``_block_width(top - b)`` bits plus bits(len), 0 for a zero-flagged
        coefficient.  Its derivative packs coefficient n - 1 as n times the
        series' packed c_n, n < len, which those spare bits hold, in the
        series' slots and at its top: n c_n is n w_n modulo pi^(top - b), and
        a pass claims at most W, and at most the derivative's first
        precision, prec(c_1) <= max prec(c_n), so at most top, which the pass
        modulus min(W, top) - b keeps: the digits below the claim are those
        of the formed vectors.  A derivative's derivative packs its own
        vectors."""
        ctx, parent = self.ctx, self._parent
        if self._packed is None:
            if parent is None:
                top = self._wall if self._cap is None else min(self._cap, self._wall)
                w = ctx._block_width(top - self._base) + len(self).bit_length()
            else:
                top, w, _ = parent._packing(0)
            self._packed = top, w, []
        top, w, packed = self._packed
        if len(packed) < n:
            if parent is None:
                rel = top - self._base
                pack = ctx._packer(w, rel)[0]
                packed += [0 if v is None else pack(ctx._vec_reduce(v, rel), w)
                           for v in self._vectors(n)[len(packed):n]]
            else:
                source = parent._packing(n + 1)[2]
                packed += [k * source[k] for k in range(len(packed) + 1, n + 1)]
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
        is formed from w_n when a pass of Horner steps first reads it
        (``_derived``), and a block pass reads n times the series' packed
        c_n, with no vector formed (``_packing``).  So a coefficient past the
        largest hint is never formed, and every coefficient, read or
        evaluated, is the one n c_n gives.
        """
        ctx = self.ctx
        ups = [ctx.e * _vp(n, ctx.p) for n in range(1, len(self))]
        precs = [p + up for p, up in zip(self._precs[1:], ups)]
        view = TruncatedSeries._make(
            ctx, self.center, self.tail_bound, self._base,
            [None if v is None else v + up for v, up in zip(self._vals[1:], ups)],
            self._derived(precs), precs)
        if self._parent is None:
            view._parent = self
        return view

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
    ``_prec_at``); ``_decided`` is its closed form, and Psi's sums from
    the top (``_QSplit.log_fiber``) run its recurrence at rho = 1 on
    packed sums.  Valuations add along a product, so unless v(c_i) =
    v(rho s_(i+1)) the sum has the lesser, or is zero-flagged when that
    reaches P: only a tie below P is measured.

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


def _parameter_t(x: PadicNumber, m0: Fraction) -> int:
    """t = m0 e, once x and m0 pass the parameter series' domain checks."""
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
    if x.is_zero or (x - ctx.one()).is_zero:
        raise DomainError("x in {0, 1} puts the defining quotient out of domain")
    if x.val < 0:
        raise DomainError("series2 needs v(x) >= 0")
    return int(t)


def _log_form_in_u(ctx: PrimeContext, t: int, prec: int, vec: list) -> TruncatedSeries:
    """Psi(x, pi^t U) around U = 0 (see ``_log_form_terms``), for x of
    integral vector ``vec`` known to ``prec`` = min(prec(x), K), and t = m0 e:
    the series ``q_for_x`` and ``local_Q`` solve the parameter direction on.
    ``_parameter_series`` checks x and m0 and passes these.

    Coefficient n - 2 is (-1)^n pi^((n-2)t) [n-1]_x / n.  [n-1]_x = x
    [n-2]_x + 1 is one Horner step on x's integral vector modulo pi^prec,
    which every [n-1]_x is known to; its valuation is measured, a
    zero-flagged one standing at prec, so the steps run at the build.  Each
    coefficient's vector is formed when a pass first reads it: one ``term``
    of the shift table scales [n-1]_x by (-1)^n/m_n and shifts it onto the
    terms' least valuation, and where this series' base, its own least
    valuation, lies above that, one downshift moves it there.
    """
    n_stop, vals, term = _log_form_terms(ctx, t)
    one = ctx._vec_reduce(ctx.one()._unit, prec)
    step = ctx._horner_step(vec, prec)
    sums = list(itertools.accumulate(vals[1:], lambda acc, _: step(acc, one), initial=one))
    ints = [(None if w is None else v + w, v + prec)
            for v, w in zip(vals, (ctx._vec_val(acc, prec) for acc in sums))]
    base = min(top if v is None else v for v, top in ints)
    drop = min(vals) - base  # <= 0

    def vectors():
        for i, ((v, _), acc) in enumerate(zip(ints, sums)):
            w = None if v is None else term(acc, i, prec)
            yield tuple(ctx._vec_shift(w, drop)) if w is not None and drop else w
    return TruncatedSeries._make(ctx, ctx.zero(), Fraction(ctx.K + 2 * t, ctx.e), base,
                                 [v for v, _ in ints], vectors(), [top for _, top in ints])


def _parameter_series(x: PadicNumber, m0: Fraction) -> TruncatedSeries:
    """The series ``q_for_x`` and ``local_Q`` solve the parameter direction
    on: Psi(x, pi^t U) (``_log_form_in_u``), of N - 2 coefficients, or
    series2's monomials h(x, U) where x is an integer j, 2 <= j < N.  The
    domain checks, and their errors, are series2's (``_parameter_t``).

    x - j is zero-flagged there, as ``_minus_integers`` forms it, so h is
    the polynomial ([j]_q - j)/((q - 1) j (j - 1)) of degree j - 2, exact
    at x's precision, and its zero-flagged tail sits above every hint:
    at x = 5, (5, 3, 90), a lift keeps 4 of h's coefficients and up to 90
    of Psi's, and the README's solve-q took 1.5x the time on Psi.  Both
    series give the same records, digit for digit.  The bound j < N was
    measured at j = 5 only: near N the polynomial is about as long as Psi,
    and which of the two is faster there is reasoned, not timed.
    """
    ctx = x.ctx
    t = _parameter_t(x, m0)
    prec = min(x.prec, ctx.K)
    vec = _dz_vector(x)
    j = vec[0] % ctx._ppow(_ceil_div(prec, ctx.e))
    if 2 <= j < _log_form_cutoff(ctx, t) and ctx._vec_val([0] + vec[1:], prec) is None:
        return _series2_monomials(x, m0, t=t)
    return _log_form_in_u(ctx, t, prec, vec)


def _series2_monomials(x: PadicNumber, m0: Fraction, n_max: int | None = None,
                       t: int | None = None) -> TruncatedSeries:
    """h(x, U) = sum_k A_k(x) p^(k m0) U^k / (k+2)! around U = 0.

    Coefficient k has valuation >= k(m0 - 1/(p-1)) - 1/(p-1) for x in
    the ring of integers, giving the default cutoff.  Coefficient k is
    coefficient k-1 times (x - (k+1)) pi^t / (k+2), t = m0 e: one
    ``_running_product`` from 1/2, with the factors x - (k+1) formed on
    x's integral vector (``_minus_integers``), so a monomial costs one
    vector product, paid when it is first read.  An integer x in
    2..n_max+1 makes its factor, and every later coefficient,
    zero-flagged, as the PadicNumber chain did.  A caller that has checked
    x and m0 already (``_parameter_t``) passes t = m0 e.
    """
    ctx = x.ctx
    if t is None:
        t = _parameter_t(x, m0)
    delta = m0 - Fraction(1, ctx.p - 1)
    offset = Fraction(1, ctx.p - 1)
    if n_max is None:
        n_max = _n_for_tail(delta, Fraction(ctx.K, ctx.e), offset)
    tail = n_max * delta - offset
    ek = ctx.one()._div_int(2)
    return TruncatedSeries._make(ctx, ctx.zero(), tail, *_on_least(
        ctx, [_raw_of(ek)], *_running_product(
            ek, *_minus_integers(x, 2, n_max + 2), t, range(3, n_max + 3))))


def series2(x: PadicNumber, m0, n_max: int | None = None) -> TruncatedSeries:
    """Coefficients of h(x, U) around U = 0, the monomials of
    ``_series2_monomials``: h(x, u) (q - 1) x (x - 1) = [x]_q - x at
    q = 1 + pi^t u, t = m0 e."""
    return _series2_monomials(x, Fraction(m0), n_max)
