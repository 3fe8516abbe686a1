"""Exact-valuation arithmetic in Z_p and its finite extensions.

A context fixes a prime p, a ramification index e, a residue degree f and
a working precision K.  Elements of Q_p(zeta, pi), where pi^e = p and
zeta is a root of a monic degree-f polynomial that stays irreducible mod
p, are stored as a unit part times a power of pi.  The unit part is a
coefficient vector holding sum a_ij * zeta^j * pi^i with integer a_ij,
each kept modulo the power of p that is still meaningful at the carried
precision.  The extension generated by zeta is unramified, so the
valuation of sum_j a_ij zeta^j is min_j vp(a_ij); because the candidate
valuations e*vp(a_ij) + i are distinct mod e across different i, the
valuation of a nonzero element is read off exactly as their minimum; no
approximation is involved.  Products reduce pi^e to p on overflow, so a
carry in base-pi digit arithmetic jumps e positions, and reduce zeta^f by
the defining polynomial.  At f = 1 there is no zeta and the field is the
totally ramified Q_p(pi).  The layout of unramified and totally ramified
parts follows Caruso, "Computations with p-adic numbers" (2017), sec. 2.
One context class serves every f: reduction, valuation, shifts and
products act on the f blocks of e entries alike, and only the fold by the
defining polynomial and the inverse in the residue field depend on f.

Precision is absolute and counted in pi-units: a number with ``prec`` K is
known modulo pi^K.  A value whose digits all vanish below its precision is
flagged ``is_zero``; such a value has no exact valuation and any query for
one raises, forcing callers to branch explicitly.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from functools import lru_cache, partial
from random import Random
from typing import Iterable, Sequence

from .errors import ContextMismatch, DomainError, PrecisionExhausted

__all__ = [
    "PrimeContext",
    "PadicNumber",
    "ZeroAtPrecision",
    "ctx_new",
    "equals_to_precision",
    "sample",
]


# smallest e at which a context of residue degree 1 takes the packed
# kernel set, and the number of coefficients PrimeContext._block_pass sums
# per reduction; see the notes on the coefficient-vector kernels
_PACKED_MIN_E = 5
_BLOCK = 8


def _vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, in O(log v) divisions.

    Most n here have v below 8, which as many divisions by p settle.  Past
    that the powers p, p^2, p^4, ... are divided out while they divide n,
    which leaves a valuation below the last square tried, and the same
    powers, from the top down, then take its binary digits."""
    v = 0
    while not n % p:
        n //= p
        v += 1
        if v == 8:
            break
    else:
        return v
    pw, ladder = p, []
    while not n % pw:
        n //= pw
        v += 1 << len(ladder)
        ladder.append(pw)
        pw *= pw
    for k in range(len(ladder) - 1, -1, -1):
        if not n % ladder[k]:
            n //= ladder[k]
            v += 1 << k
    return v


@lru_cache(maxsize=1024)
def _zp_bit_price(p: int, target: int) -> int:
    """isqrt(bits(p^target)): ``PrimeContext._price_zp``'s price of 24 bits
    of the exponent."""
    return math.isqrt((p ** target).bit_length())


@lru_cache(maxsize=16)
def _p_powers(p: int, n: int) -> tuple:
    """(p^0, p^1, ..., p^(64 n - 1)), one product each, kept per (p, n): the
    powers that the scalars of ``_power_table`` take modulo p^m for m < 64 n,
    so that tables at nearby moduli share one tuple."""
    return tuple(itertools.accumulate(itertools.repeat(p, 64 * n - 1), operator.mul, initial=1))


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


class ZeroAtPrecision:
    """Marker returned by ``valuation`` for values flagged as zero.

    ``bound`` is the one thing actually known: the valuation is at least
    this many p-units.  The marker deliberately supports no ordering, so
    code that needs a number must branch on ``is_zero`` first.
    """

    __slots__ = ("bound",)

    def __init__(self, bound: Fraction):
        self.bound = bound

    def __repr__(self) -> str:
        return f"ZeroAtPrecision(>= {self.bound})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ZeroAtPrecision) and self.bound == other.bound

    def __hash__(self) -> int:
        return hash(("ZeroAtPrecision", self.bound))


def _coords(n: int, p: int, f: int) -> tuple:
    """The f base-p digits of n, low order first."""
    out = []
    for _ in range(f):
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> list:
    """Remainder of a by the monic b over F_p; coefficients low order first."""
    a = list(a)
    db = len(b) - 1
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % p
        if c:
            for j in range(db + 1):
                a[k - db + j] -= c * b[j]
    return [x % p for x in a[:db]]


def _irreducible_modulus(p: int, f: int) -> tuple:
    """First monic degree-f polynomial irreducible over F_p.

    Candidates are taken in the order of their low coefficients read as a
    base-p number, so the choice is deterministic; a candidate is kept when
    no monic polynomial of degree <= f/2 divides it.
    """
    for code in range(p ** f):
        g = _coords(code, p, f) + (1,)
        if all(any(_poly_rem(g, _coords(c, p, d) + (1,), p))
               for d in range(1, f // 2 + 1) for c in range(p ** d)):
            return g
    raise AssertionError("every degree has an irreducible polynomial over F_p")


class PrimeContext:
    """Fixed arena for arithmetic: prime p, ramification e, precision K,
    residue degree f.

    K counts pi-units, so K = 60*e carries sixty base-p digits worth of
    information regardless of e.  At f > 1 the residue field is F_{p^f},
    generated by the image of zeta, a root of ``modulus`` (monic, low
    coefficients first, irreducible mod p).  Contexts are compared by
    identity; mixing numbers from two contexts is an error even if the
    parameters agree.

    A context binds one kernel set of ``_KERNELS`` when it is built, as its
    ``_vec_mul``, ``_vec_val``, ``_unit_pow`` and the price of a unit
    power, ``_pow_price``: the Z_p set at e = f = 1, the schoolbook set at
    f = 1 and 2 <= e < ``_PACKED_MIN_E``, and the packed set otherwise (see
    the notes on the coefficient-vector kernels).  ``_kernels`` names the
    set.  Its ``_vec_inv`` goes by f and e: on integers at f = 1, by vector
    doubling at f > 1 and where the norm's descent would end on a core of
    11 or more.  A pickled context is rebuilt from (p, e, K, f), so
    its caches are not kept.
    """

    __slots__ = ("p", "e", "K", "f", "modulus", "_dim", "_pp", "_mods", "_packers", "_kernels",
                 "_row_weight", "_block_over", "_vec_mul", "_vec_val", "_vec_inv", "_unit_pow",
                 "_pow_price", "_pack_vec")

    def __init__(self, p: int, e: int, K: int | None = None, f: int = 1):
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1:
            raise ValueError(f"ramification index must be >= 1, got {e}")
        if f < 1:
            raise ValueError(f"residue degree must be >= 1, got {f}")
        if K is None:
            K = 60 * e
        if K < 2 * e:
            raise ValueError(f"precision K={K} too small, need at least 2*e={2 * e}")
        self.p = p
        self.e = e
        self.K = K
        self.f = f
        self.modulus = _irreducible_modulus(p, f)
        self._dim = e * f
        self._pp: dict[int, int] = {}
        self._mods: dict[int, list] = {}  # rel -> per-entry moduli of _vec_reduce
        self._packers: dict[tuple, tuple] = {}  # (w, rel) -> _packer's pair
        # X, the most products of two entries that a slot of a folded product
        # of packed vectors sums, and the number of coefficients past which
        # TruncatedSeries.evaluate sums by blocks, never at e = 1
        self._row_weight = f * (1 + p * (e - 1))
        self._block_over = 2 * _BLOCK if e > 1 else math.inf
        self._kernels = ("zp" if e * f == 1 else "packed" if f > 1 or e >= _PACKED_MIN_E
                         else "schoolbook")
        for name, kernel in self._KERNELS[self._kernels].items():
            setattr(self, name, kernel.__get__(self))
        # the inverse goes by f, not by the product: on integers at f = 1,
        # through the norm to Z_p at e > 1, and by vector doubling at f > 1
        # and where the norm's descent ends on a core of 11 or more (see the
        # kernel note); the pack function by whether a vector has more than
        # one row of slots
        core = e
        for d in (2, 3):
            while core % d == 0:
                core //= d
        self._vec_inv = (self._inv_doubling if f > 1 or core >= 11 else self._inv_norm if e > 1
                         else self._inv_zp)
        self._pack_vec = _pack if f == 1 or e == 1 else partial(_pack_rows, e=e)

    def __reduce__(self):
        return PrimeContext, (self.p, self.e, self.K, self.f)

    def _ppow(self, m: int) -> int:
        pw = self._pp.get(m)
        if pw is None:
            pw = self.p ** m
            self._pp[m] = pw
        return pw

    def __repr__(self) -> str:
        tail = "" if self.f == 1 else f", f={self.f}"
        return f"PrimeContext(p={self.p}, e={self.e}, K={self.K}{tail})"

    def residue_field(self) -> tuple:
        """Every residue, as ``residue()`` reports it, in a fixed order.

        At f = 1 these are the ints 0..p-1.  At f > 1 they are f-tuples
        of coordinates in the basis 1, zeta, ..., zeta^(f-1), ordered by
        the coordinates read as a base-p number, so the prime field comes
        first: 0 and 1 are the first two entries in every degree.
        """
        if self.f == 1:
            return tuple(range(self.p))
        return tuple(_coords(n, self.p, self.f) for n in range(self.p ** self.f))

    # -- constructors -------------------------------------------------

    def zero(self, prec: int | None = None) -> "PadicNumber":
        return PadicNumber(self, 0, (), self.K if prec is None else prec, True)

    def one(self, prec: int | None = None) -> "PadicNumber":
        if prec is None:
            prec = self.K
        if prec < 1:
            raise ValueError("one() needs at least one digit of precision")
        vec = [0] * self._dim
        vec[0] = 1
        return PadicNumber(self, 0, self._vec_reduce(vec, prec), prec, False)

    def from_int(self, n: int) -> "PadicNumber":
        return self.from_rational(n, 1)

    def from_rational(self, num: int, den: int = 1) -> "PadicNumber":
        """Exact image of num/den at full precision K.

        num and den may be ints or ``Fraction``s.  The denominator may be
        divisible by p; the result then has negative valuation.  A value
        of valuation K or more is zero at that precision and comes back
        as ``zero()``.
        """
        if den == 0:
            raise ValueError("zero denominator")
        if num == 0:
            return self.zero()
        if type(num) is not int or type(den) is not int:
            frac = Fraction(num, den)
            num, den = frac.numerator, frac.denominator
        val = self.e * (_vp(num, self.p) - _vp(den, self.p))
        if val >= self.K:
            return self.zero()
        return self.one(self.K - val)._scale(num, den)

    def uniformizer(self) -> "PadicNumber":
        return self.pi_pow(1)

    def pi_pow(self, t: int) -> "PadicNumber":
        """pi^t, carried at relative precision K."""
        return self.one().scale_pi(t)

    def from_residue(self, r) -> "PadicNumber":
        """The lift of a residue (an entry of ``residue_field()``) at precision K.

        At f = 1 this is the integer r; at f > 1 it is sum r[j] zeta^j.
        """
        coords = (r,) if self.f == 1 else r
        if len(coords) != self.f or any(c < 0 or c >= self.p for c in coords):
            raise ValueError(f"residue must be {self.f} coordinates in 0..{self.p - 1}")
        if not any(coords):
            return self.zero()
        vec = [0] * self._dim
        for j, c in enumerate(coords):
            vec[j * self.e] = c
        return PadicNumber(self, 0, self._vec_reduce(vec, self.K), self.K, False)

    def from_digits(self, val: int, digits: Sequence, prec: int | None = None) -> "PadicNumber":
        """Number pi^val * sum digits[k] pi^k from base-p digits, low order first.

        At f > 1 each digit is a tuple of f coordinates in 0..p-1, the
        digit sum_j d[j] zeta^j.  Digit k lands in entry k mod e as the
        coefficient of p^(k // e), so entry r is the Horner sum of the
        digits r, r + e, ..., read from the top: one pass per entry.
        """
        if prec is None:
            prec = val + len(digits)
        rel = prec - val
        if rel < 1:
            raise ValueError("a nonzero literal needs at least one digit below precision")
        if len(digits) != rel:
            raise ValueError(f"expected {rel} digits for val={val}, prec={prec}, got {len(digits)}")
        if self.f == 1:
            columns = [digits]
        else:
            if any(not isinstance(d, (tuple, list)) or len(d) != self.f for d in digits):
                raise ValueError(f"each digit needs {self.f} coordinates")
            columns = list(zip(*digits))
        if any(d < 0 or d >= self.p for col in columns for d in col):
            raise ValueError("digit out of range")
        if rel > 0 and not any(col[0] for col in columns):
            raise ValueError("leading digit must be nonzero (valuation is exact)")
        p, e = self.p, self.e
        vec = []
        for col in columns:
            for r in range(e):
                a = 0
                for d in reversed(col[r::e]):
                    a = a * p + d
                vec.append(a)
        return PadicNumber(self, val, self._vec_reduce(vec, rel), prec, False)

    # -- parsing ------------------------------------------------------

    _FORM = re.compile(r"^(pi|p)\^(-?\d+|inf)\*\(([0-9, ]*); prec=(-?\d+)(?:; f=(\d+))?\)$")

    def parse(self, text: str) -> "PadicNumber":
        """Inverse of ``render``; accepts only the exact printed form."""
        m = self._FORM.match(text.strip())
        if m is None:
            raise ValueError(f"not a valid p-adic literal: {text!r}")
        token, val_s, digit_s, prec_s, f_s = m.groups()
        want = "p" if self.e == 1 else "pi"
        if token != want:
            raise ValueError(f"uniformizer token {token!r} does not match context (expected {want!r})")
        if f_s != (None if self.f == 1 else str(self.f)):
            raise ValueError(f"residue degree in {text!r} does not match context (f={self.f})")
        prec = int(prec_s)
        if val_s == "inf":
            if digit_s.strip():
                raise ValueError("zero literal must carry no digits")
            return self.zero(prec)
        val = int(val_s)
        if self.f == 1:
            digits = [int(t) for t in digit_s.split()]
        else:
            digits = [tuple(int(c) for c in t.split(",")) for t in digit_s.split()]
        return self.from_digits(val, digits, prec)

    def from_json(self, obj: dict) -> "PadicNumber":
        if obj.get("p") != self.p or obj.get("e") != self.e or obj.get("f", 1) != self.f:
            raise ValueError("context parameters in JSON object do not match")
        if obj["val"] is None:
            return self.zero(obj["prec"])
        return self.from_digits(obj["val"], obj["digits"], obj["prec"])

    # -- coefficient-vector kernels ----------------------------------
    #
    # A vector holds f blocks of e integers, block j holding the
    # pi-coefficients of zeta^j, so entry k = j*e + i multiplies
    # zeta^j pi^i; at f = 1 there is one block.  It is meaningful modulo
    # pi^rel for whatever rel the caller tracks.  Vectors are kept
    # reduced: entry j*e + i canonical in [0, p^ceil((rel-i)/e)).
    # Reduction, valuation and shifts treat every block alike.
    #
    # The product, the valuation and the unit power are the context's
    # kernel set, chosen once, when the context is built, from _KERNELS (at
    # the end of the class), and bound onto it, and the inverse is bound
    # beside them by f.  The Z_p set, at e = f = 1, works on plain integers,
    # as FLINT's padic module treats Z_p at fixed precision apart from its
    # extensions: a vector is one integer modulo p^rel, the product one
    # multiply, the valuation v_p of that entry, the inverse Newton doubling
    # on that integer, and the powers one C-level pow.  The schoolbook set,
    # at f = 1 and 2 <= e < _PACKED_MIN_E, takes the product as a double
    # loop, and the packed set, everywhere else, by Kronecker substitution
    # (Harvey, J. Symb. Comput. 2009); the two share the valuation, and
    # square and multiply for powers.  Every f = 1 context past Z_p inverts
    # through the norm to Z_p, and f > 1 by Newton doubling on vectors.
    # Each set also prices its power, _pow_price(p, n, target), a plain
    # function, so a cache keyed on it holds no context: by the bits of n
    # and of p^target for Z_p's pow, by the squares and multiplies of the
    # chain in the other two (analytic's split of q^x reads it).  A kernel
    # call tests no e or f.  Each product returns unreduced integers, the
    # same whichever kernel forms them.
    # Kronecker substitution writes each operand as one integer,
    # entry j*e + i in slot j(2e - 1) + i of w bits (_packer), and takes one
    # big-integer product, whose row d, slots d(2e - 1) to
    # d(2e - 1) + 2e - 2, sums block j1 times block j2 over the at most f
    # pairs with j1 + j2 = d.  Slots e + i of a row multiply pi^e = p, so
    # one mask over the 2f - 1 rows folds them onto slots i times p.  Slot i
    # then sums i + 1 + p (e - 1 - i) products per pair of blocks, so at
    # most X = f (1 + p (e - 1)) in all (_row_weight), and
    # w = bits(X max(a) max(b)) keeps every slot from carrying into the
    # next.  This needs every entry of both operands >= 0 (a negative entry
    # borrows from the slot above), which reduced vectors are; a caller that
    # forms an entry by subtraction reduces it first.  At f > 1 the unpacked
    # rows f ... 2f - 2 are then folded from the top down by
    # zeta^f = -sum m_j zeta^j, m the defining polynomial, which leaves
    # signed entries for the reduction.  On operands captured from q_bracket
    # and fixed_points_for_q the packed product ran 0.6x as fast as the loop
    # at e = 2, 0.8x at e = 3, 1.0-1.2x at e = 4, 1.3-1.4x at e = 5 and
    # 2.1-2.5x at e = 10; the loop skips zero entries, which small-e
    # operands often have.  At f > 1 it ran 0.45x as fast as the table walk
    # it replaced at (p, e, K, f) = (3, 1, 60, 2), 0.6x at (5, 2, 60, 2),
    # 0.9x at (5, 3, 90, 2), 1.3x at (3, 4, 120, 2), 2.3x at (7, 5, 60, 2),
    # 2.8x at (7, 5, 60, 3) and 4.4x at (7, 5, 60, 6).
    #
    # A Horner pass multiplies by one d at every step, so _horner_step
    # reduces d modulo pi^rel once and returns the step
    # acc -> reduce(acc d + c, rel), the same vector _vec_reduce gives on
    # _vec_mul(acc, d) + c.  When the reduced d has only entry 0 nonzero,
    # an integer, the step multiplies entrywise.  Otherwise d is packed
    # once; each step packs acc, takes one big-integer product, and folds,
    # unpacks, adds c and reduces.  Every entry is below M = p^ceil(rel/e),
    # so w = bits(X (M - 1)^2), which entries all at M - 1 fill when e
    # divides rel.  On evaluate's calls captured from fixed_points_for_q,
    # the pass with these steps ran 1.3x as fast as with _vec_mul at e = 1,
    # 1.8x at e = 3 and 4, and 1.6x at e = 10; at f > 1, at the seven
    # contexts above, 0.6x, 1.0x, 1.2x, 1.7x, 2.5x, 3.4x and 4.5x as fast
    # as steps by the table walk.  A series' evaluation is such a pass, and
    # so is its synthetic division, whose partial sums are the quotient;
    # analytic's Psi takes the powers of u from one such pass
    # (_packed_powers).
    #
    # _block_pass reduces once per B = _BLOCK coefficients (rectangular
    # splitting, Paterson and Stockmeyer 1973): from the top block down,
    # acc <- acc d^B + sum_{j<B} c_(i+j) d^j modulo pi^rel, with d^2 ... d^B
    # from B - 1 steps.  Every operand is packed, so a block is at most
    # B + 1 big-integer products summed as integers, then one fold, one
    # unpacking and one reduction, in _split_pass, the join loop that
    # _power_sum runs too.  The coefficients are packed once, in slots of
    # the width w set for the modulus pi^top they are reduced at; acc and
    # the powers are reduced modulo pi^rel with rel <= top.  So every entry
    # is below M = p^ceil(top/e), and a slot sums c_i itself and B
    # products of X products each: w = bits((B X + 1) (M - 1)^2).  The
    # B - 1 power steps cost what B - 1 Horner steps do, so only a pass over
    # more than 2B coefficients takes blocks (TruncatedSeries.evaluate
    # says when).  On the evaluations of one round of the fixed-points
    # benchmark, each series packed afresh, the passes took 0.68x the time
    # of Horner steps at (p, e, K) = (3, 4, 120), 0.57x at (5, 3, 90) and
    # 0.54x at (5, 10, 200); B = 4 took 1.07-1.17x the time of B = 8, and
    # B = 16 0.98-1.17x, over those and param-fiber's.  At e = 1 a step is
    # one integer product, and the whole ops of the (3, 1, 60) legs ran
    # 0.97-1.03x as long with blocks as with steps, so e = 1 keeps the steps
    # (the context's _block_over is infinite there).
    #
    # _power_sum, the series of exp and log1p, splits the same way at every
    # e, b = isqrt(N) of its N terms to a block.  Term n adds
    # (c_n p^(s_n // e) mod M) times packed u^j, one big-integer product,
    # to the partial sum of its class r = s_n mod e, and a block shifts each
    # partial sum up by r slots, within its rows, before the join.  Every
    # scalar and entry is below M = p^ceil(rel/e).  After the fold a term
    # reaches slot k of a row as it is, or times p when its shift wrapped,
    # and the join adds X products in row f - 1, so slot 0 of that row is
    # the widest, below X' (M - 1)^2 with X' = p b + X; at e = 1 nothing
    # wraps or folds and X' = b + f.  So w = bits(X' (M - 1)^2), and with
    # every scalar and entry of u at M - 1 a block fills all w bits of a
    # slot for some p, e, f and rel: the bound has no bit to spare.  Over
    # the exp and log1p calls of two bracket-grid rounds, this kernel ran
    # exp 1.18x as fast as a per-entry term loop at (p, e, K) = (3, 1, 60),
    # 1.56x at (5, 3, 180), 1.21x at (3, 1, 480) and 1.70x at (5, 10, 600),
    # and log1p 1.09x, 1.21x, 1.10x and 1.18x.  The bracket path hands exp
    # short series: q^x is q^n exp((x - n) log q) for an integer n near x
    # (analytic._QSplit.power), so exp starts deeper in S, where N is
    # smaller, and an integer x takes no series at all.
    #
    # No digit of u enters a term's scalar, class or slot: they are a
    # function of p, e, the series' t and N, and rel.  _power_table forms
    # them in one pass over the pairs (s_n, c_n), the powers of p read from
    # one tuple shared by nearby moduli (_p_powers), and analytic keeps each
    # series' table per shape, so a call on a kept table takes the products
    # alone, and the m_n^-1 or 1/n of every term are paid once per shape.
    # A block is three tuples, the classes, slots and scalars of its terms,
    # which the sum walks term by term.  Timed against the loop that formed
    # each scalar as it summed, for exp at (p, e, K) = (5, 3, 180), t = 2,
    # and (5, 10, 600), t = 4 (2-vCPU Linux VM, Python 3.11.7): a build and
    # its first sum took 0.99x and 0.96x its time, and a sum on a kept
    # table 0.50x and 0.68x.  Summing each class of a block by
    # sum(map(operator.mul, ...)) took 1.28x and 1.05x on a build and 0.57x
    # and 0.65x on a kept table: a class holds about 4 and 2 terms of a
    # block there.  A tuple (r, j, c) per term summed 0.46x and 0.62x, but
    # its tables took 1.1-1.5x the memory at K >= 180.
    #
    # Every f = 1 unit inverts on integers.  The Z_p set takes Newton
    # doubling on its integer, _int_inv, whose first rung is one C-level
    # pow modulo the largest power of p below 2^32.  Every e > 1 takes
    # u^-1 = adj(u) N(u)^-1, one _int_inv of the norm N(u) in Z_p, all
    # modulo p^ceil(rel/e) (_ring_inv): the norm descends through the
    # subrings Z_p[pi^2] at even e, with u(-pi) for adj, and Z_p[pi^3] at
    # 3 | e, with the 3 x 3 adjugate, to Z_p or to a core prime to 6, which
    # division-free elimination on the matrix of multiplication solves with
    # one _int_inv of the product of its pivots (_solve_unit).  The top step
    # takes the context's own products, packed at e >= _PACKED_MIN_E, and
    # the subrings the schoolbook loop.  No start is read.  At f > 1 the
    # residue inverse is a unit power in F_(p^f), and _vec_inv doubles u^-1
    # on vectors by w <- w (2 - u w), two products a step, from it or from a
    # start, the inverse of a nearby unit, which one product at full
    # precision measures and the first step reuses; the solver's Newton
    # ladder starts each f'^-1 from the last step's.  On the inverses of one
    # round of each workload, taken again on the same operands, 15
    # interleaved repeats (2-vCPU Linux VM, Python 3.11.7), the descent took
    # 0.48x the time of the vector doubling at (p, e, K) = (5, 10, 600), and
    # 0.91x the time of the doubling from the last step's inverse at
    # (5, 10, 200), where that start is near the answer.  Against the
    # doubling from the residue on random units at p = 5, up to rel 600, it
    # took 0.22-0.26x at e = 6 and 8, 0.30-0.37x at e = 12, 0.36-0.43x at
    # e = 9, 0.48-0.60x at e = 5 and 10 and 0.81-0.93x at e = 7.  The core's
    # elimination takes about n^3 products at full precision where the
    # doubling takes 2 log2(rel) packed ones, so e = 7 read up to 1.2x past
    # rel 1000, and e = 11 1.3-2.1x at every rel (p = 3 and 5).  So a context
    # whose descent would end on a core of 11 or more binds the doubling
    # (__init__): on 6 random units a cell, rel 50 to 1600, p = 3 and 5, the
    # descent took 1.3-2.2x its time at e = 11, 1.7-2.5x at e = 13,
    # 0.99-1.33x at e = 22 (22 -> 11) and 5.1-7.9x at e = 25, while e = 7
    # keeps the elimination, 0.61-0.97x up to rel 600.  At e <= 4
    # the step is written out on integers, as the vector products of so
    # short a ring cost more than its arithmetic.  The pow rung took the
    # integer inverses at (3, 1, 60), (3, 1, 480) and (5, 3, 90) to
    # 0.85-0.94x the time of the ladder from the residue.  A unit power in
    # the Z_p set is one pow(u, n, p^rel) (PadicNumber.__pow__).
    #
    # Every packed kernel folds and unpacks through _unpacker, whose
    # closure _packer keeps per width and modulus.  The closure adds one
    # call to a Horner step: 1.00-1.06x the time of the step written out at
    # (3, 4, 120), (5, 3, 90) and (5, 10, 200), under 0.13 us a step: at
    # most 1.2 ms over the 9,049 steps of a fixed-points round, which takes
    # 0.39 s of CPU time.

    def _moduli(self, rel: int) -> list:
        """The per-entry moduli of a vector reduced modulo pi^rel."""
        mods = self._mods.get(rel)
        if mods is None:
            e = self.e
            # p^0 = 1 clears the entries that carry no digit
            mods = [self._ppow(max(_ceil_div(rel - i, e), 0)) for i in range(e)] * self.f
            self._mods[rel] = mods
        return mods

    def _vec_reduce(self, vec: Sequence[int], rel: int) -> tuple:
        return tuple(map(operator.mod, vec, self._mods.get(rel) or self._moduli(rel)))

    def _val_vector(self, vec: Sequence[int], rel: int) -> int | None:
        """``_vec_val``: min(e*vp(a_k) + k % e) over nonzero entries, or None
        if that is >= rel.

        The least vp(a_k) is s = vp(gcd of the entries), and e*s + i < e*(s + 1)
        for every i < e, so the minimum is e*s plus the least k % e over
        the entries that p^(s+1) does not divide.  The vectors of a
        fixed-points and a param-fiber round often share a high power of p;
        on them this took 0.26-0.64x the time of one vp per entry at e >= 3.
        """
        g = math.gcd(*vec)
        if not g:
            return None
        e, s = self.e, _vp(g, self.p)
        top = self._ppow(s + 1)
        if self.f > 1:
            i = min(k % e for k, a in enumerate(vec) if a % top)
        else:  # one block: the first such entry has the least k % e
            for i, a in enumerate(vec):
                if a % top:
                    break
        v = e * s + i
        return v if v < rel else None

    def _packer(self, w: int, rel: int | None = None) -> tuple:
        """(pack, unpack) of the packed format in slots of w bits, kept per (w, rel).

        ``pack(vec, w)`` puts block j from slot j(2e - 1) on, as ``_pack``
        does when f = 1 or e = 1; ``unpack`` is ``_unpacker``'s, reducing
        modulo pi^rel unless rel is None.
        """
        pair = self._packers.get((w, rel))
        if pair is None:
            mods = None if rel is None else self._moduli(rel)
            pair = self._packers[w, rel] = (
                self._pack_vec, _unpacker(self.p, self.e, w, mods, self.modulus))
        return pair

    def _mul_schoolbook(self, a: Sequence[int], b: Sequence[int]) -> list:
        """``_vec_mul`` at f = 1 by the double loop, which skips zero entries:
        the product of Z_p[rho], rho^e = p, e = len(a) = len(b)."""
        e, p = len(a), self.p
        c = [0] * e
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if not bj:
                    continue
                k = i + j
                if k < e:
                    c[k] += ai * bj
                else:
                    c[k - e] += p * ai * bj
        return c

    def _mul_packed(self, a: Sequence[int], b: Sequence[int]) -> list:
        """``_vec_mul`` by Kronecker substitution, at every e and f."""
        ma, mb = max(a), max(b)
        if not ma or not mb:
            return [0] * self._dim
        w = (self._row_weight * ma * mb).bit_length()
        pack, unpack = self._packer(w)
        return unpack(pack(a, w) * pack(b, w))

    def _pow_chain(self, u: Sequence[int], n: int, rel: int) -> Sequence[int]:
        """``_unit_pow``: u^n modulo pi^rel for n >= 1, u reduced modulo
        pi^rel, by square and multiply, reducing after each product as
        ``PadicNumber.__mul__`` does."""
        out = u
        for bit in bin(n)[3:]:
            out = self._vec_reduce(self._vec_mul(out, out), rel)
            if bit == "1":
                out = self._vec_reduce(self._vec_mul(out, u), rel)
        return out

    # the Z_p set: a vector is one integer modulo p^rel

    def _mul_zp(self, a: Sequence[int], b: Sequence[int]) -> list:
        return [a[0] * b[0]]

    def _val_zp(self, vec: Sequence[int], rel: int) -> int | None:
        s = _vp(vec[0], self.p) if vec[0] else rel
        return s if s < rel else None

    def _inv_zp(self, u: Sequence[int], rel: int, start: Sequence[int] | None = None) -> tuple:
        return (self._int_inv(u[0], rel),)

    def _pow_zp(self, u: Sequence[int], n: int, rel: int) -> tuple:
        return (pow(u[0], n, self._ppow(rel)),)

    # _pow_price: _unit_pow to exponent n at rel = target, in the quarter
    # products of a series that analytic._power_split weighs it in (measured
    # there)

    @staticmethod
    def _price_chain(p: int, n: int, target: int) -> int:
        """Square and multiply: bits(n) + popcount(n) - 2 products."""
        return 4 * max(n.bit_length() + n.bit_count() - 2, 0)

    @staticmethod
    def _price_zp(p: int, n: int, target: int) -> int:
        """One pow modulo p^target: bits(n) isqrt(bits(p^target)) / 24."""
        return n.bit_length() * _zp_bit_price(p, target) // 24

    def _horner_step(self, d: Sequence[int], rel: int):
        """The step acc -> reduce(acc*d + c, rel) of a Horner pass by a fixed d.

        ``step(acc, c)`` takes acc reduced modulo pi^rel, as every step
        returns it, and c an integral vector or None for zero.
        """
        mods = self._moduli(rel)
        d = self._vec_reduce(d, rel)
        if not any(d[1:]):
            d0 = d[0]

            def step(acc, c):
                if c is None:
                    return [a * d0 % m for a, m in zip(acc, mods)]
                return [(a * d0 + x) % m for a, x, m in zip(acc, c, mods)]
            return step
        w = self._block_width(rel, self._row_weight)
        pack, unpack = self._packer(w, rel)
        packed = pack(d, w)

        def step(acc, c):
            return unpack(pack(acc, w) * packed, c)
        return step

    def _packed_powers(self, d: Sequence[int], rel: int, n: int, w: int) -> list:
        """d^0, d^1, ..., d^max(n, 1) reduced modulo pi^rel, each packed in
        slots of w bits; d^2 ... d^n take n - 1 steps of ``_horner_step``."""
        pack = self._packer(w, rel)[0]
        step = self._horner_step(d, rel)
        power = self._vec_reduce(d, rel)
        pows = [1, pack(power, w)]
        for _ in range(n - 1):
            power = step(power, None)
            pows.append(pack(power, w))
        return pows

    def _block_width(self, rel: int, sums: int | None = None) -> int:
        """bits(sums (M - 1)^2), M = p^ceil(rel/e): the slot width of a pass
        on operands reduced modulo pi^rel whose slots sum at most ``sums``
        products, _BLOCK X + 1 by default, as ``_block_pass`` does."""
        if sums is None:
            sums = _BLOCK * self._row_weight + 1
        top = self._ppow(max(_ceil_div(rel, self.e), 0)) - 1
        return (sums * top * top).bit_length()

    def _split_pass(self, d: Sequence[int], rel: int, b: int, w: int, blocks) -> list:
        """The packed block sums that ``blocks(pows)`` yields, top block first,
        joined by Horner in d^b modulo pi^rel: pows is d^0 ... d^(b-1) reduced
        modulo pi^rel in slots of w bits (``_packed_powers``), and each block
        after the top one adds acc d^b, one product of packed integers,
        before its one fold, unpacking and reduction."""
        pack, unpack = self._packer(w, rel)
        pows = self._packed_powers(d, rel, b, w)
        join, acc = pows.pop(), None
        for z in blocks(pows):
            if acc is not None:
                z += join * pack(acc, w)
            acc = unpack(z)
        return acc

    def _block_pass(self, coeffs: Sequence[int], n: int, d: Sequence[int], rel: int,
                    w: int) -> list:
        """sum_{i<n} c_i d^i reduced modulo pi^rel, _BLOCK terms a reduction.

        ``coeffs[i]`` is c_i packed in slots of w bits, 0 when c_i is zero,
        its entries below k M for M = p^ceil(top/e), some top >= rel and
        w >= ``_block_width(top)`` + bits(k): a coefficient reduced modulo
        pi^top has k = 1, and a derivative's, n times its series' packed
        c_n, k = n; d is integral.  The top block holds c_i ... c_(n-1)
        for i = _BLOCK floor((n - 1) / _BLOCK).
        """
        top = (n - 1) // _BLOCK * _BLOCK
        return self._split_pass(d, rel, _BLOCK, w, lambda pows: (
            sum(map(operator.mul, coeffs[i:min(i + _BLOCK, n)], pows))
            for i in range(top, -1, -_BLOCK)))

    def _power_sum(self, u: Sequence[int], table: tuple, rel: int) -> list:
        """sum_{n < N} c_n pi^(s_n) u^n modulo pi^rel, the series of exp and
        log1p, from the series' ``_power_table`` at this p, e and rel.

        It is ``_split_pass`` at b = isqrt(N): block i holds the terms
        ib <= n < (i+1)b.  A block keeps one partial sum per class
        r = s_n mod e, each term of the table adding its scalar times packed
        u^j, and shifts each partial sum once, by r slots, which stays within
        each row of the packed format.
        """
        e = self.e
        b, blocks = table
        w = self._block_width(rel, (b if e == 1 else self.p * b) + self._row_weight)

        def sums(pows):
            for classes, slots, scalars in blocks:
                parts = [0] * e
                for r, j, c in zip(classes, slots, scalars):
                    parts[r] += pows[j] * c
                yield sum(part << r * w for r, part in enumerate(parts))
        return self._split_pass(u, rel, b, w, sums)

    def _vec_shift(self, vec: Sequence[int], t: int) -> list:
        """Multiply by pi^t.  Downward shifts must stay integral."""
        if t == 0:
            return list(vec)
        e = self.e
        if t > 0:
            s, r = divmod(t, e)
            lo = self._ppow(s)  # r = 0, as at every e = 1, takes no call
            return self._rotate(vec, r, lo) if r else [lo * x for x in vec]
        out = [0] * self._dim
        for k, ak in enumerate(vec):
            if not ak:
                continue
            i = k % e  # entry k is zeta^j pi^i, and its block starts at k - i
            s, r = divmod(i + t, e)
            if s >= 0:
                out[k - i + r] += ak * self._ppow(s)
            else:
                q, rem = divmod(ak, self._ppow(-s))
                if rem:
                    raise PrecisionExhausted("non-integral shift; internal valuation accounting broke")
                out[k - i + r] += q
        return out

    def _rotate(self, vec: Sequence[int], r: int, lo: int) -> list:
        """c pi^(e s + r) times vec, 0 <= r < e, given lo = c p^s:
        pi^(e s + r) = p^s pi^r, so entry i of a block moves to i + r times
        lo, and the last r entries wrap to the front of the block times
        lo p.  ``_vec_shift`` takes c = 1."""
        if not r:
            return [lo * x for x in vec]
        e, hi, out = self.e, lo * self.p, []
        for j in range(0, self._dim, e):
            out += [hi * x for x in vec[j + e - r:j + e]]
            out += [lo * x for x in vec[j:j + e - r]]
        return out

    def _residue_inv(self, u: Sequence[int]) -> Sequence[int]:
        """A vector w with u*w = 1 modulo pi, for a unit vector u.

        At f = 1 this inverts u_0 mod p; at f > 1 it is u^(p^f - 2) in
        F_{p^f}, the unit power modulo pi.
        """
        if self.f > 1:
            return self._unit_pow(self._vec_reduce(u, 1), self.p ** self.f - 2, 1)
        w = [0] * self._dim
        w[0] = pow(u[0] % self.p, -1, self.p)
        return w

    def _inv_doubling(self, u: Sequence[int], rel: int, start: Sequence[int] | None = None) -> tuple:
        """``_vec_inv`` at f > 1: the inverse of a unit vector modulo pi^rel,
        by Newton doubling.

        A step w <- w (1 - d), d = u w - 1, takes v(d) = k to 2k.  The
        doubling starts at k = 1 from the residue inverse, or from
        ``start``, an inverse of a nearby unit: one product measures its
        k = v(u start - 1), and the first step reuses that d; a start
        wrong modulo pi falls back to the residue inverse.  The inverse
        modulo pi^rel is unique, so the start changes no digit.  f > 1
        takes this inverse, and so does f = 1 where e stripped of 2 and 3
        is 11 or more, whose elimination on the core (``_solve_unit``) costs
        more; every other f = 1 inverse is on integers (``_int_inv``,
        ``_inv_norm``) and reads no start.
        """
        w = d = None
        if start is not None:
            w = self._vec_reduce(start, rel)
            d = self._vec_mul(self._vec_reduce(u, rel), w)
            d[0] -= 1
            k = self._vec_val(self._vec_reduce(d, rel), rel)
            if k is None:
                return w
            if not k:
                w = d = None
        if w is None:
            w, k = self._residue_inv(u), 1
        while k < rel:
            k = min(2 * k, rel)
            if d is None:
                d = self._vec_mul(self._vec_reduce(u, k), self._vec_reduce(w, k))
                d[0] -= 1
            corr = [-x for x in d]
            corr[0] += 1
            w = self._vec_reduce(self._vec_mul(w, self._vec_reduce(corr, k)), k)
            d = None
        return self._vec_reduce(w, rel)

    def _int_inv(self, a: int, m: int) -> int:
        """a^-1 modulo p^m, m >= 1, for an integer a prime to p, by Newton
        doubling on integers: w <- w (2 - a w) modulo p^k takes w right to
        ceil(k/2) digits to k, so the steps run at k = ceil(m/2^i), from the
        top i down, and the last one lands on m.  The first rung is the
        largest k whose p^k fits in 32 bits (k = 1 when p does not), taken
        by CPython's pow(a, -1, p^k), which is the faster below about 35
        bits."""
        mods, mod = [], self._ppow(m)
        while mod >> 32 and m > 1:
            mods.append(mod)
            m = (m + 1) // 2
            mod = self._ppow(m)
        w = pow(a, -1, mod)
        for mod in reversed(mods):
            w = w * (2 - a % mod * w) % mod
        return w

    def _inv_norm(self, u: Sequence[int], rel: int, start: Sequence[int] | None = None) -> tuple:
        """``_vec_inv`` at f = 1 and e > 1: ``_ring_inv`` modulo
        p^ceil(rel/e) = pi^(e ceil(rel/e)), its top products the context's
        own ``_vec_mul``, reduced modulo pi^rel once.  The inverse modulo
        pi^rel is unique, so it has the doubling's digits; a start is not
        read."""
        return self._vec_reduce(self._ring_inv(u, _ceil_div(rel, self.e), self._vec_mul), rel)

    def _ring_inv(self, u: Sequence[int], m: int, mul) -> Sequence[int]:
        """u^-1 modulo p^m, unreduced, for a unit u of Z_p[rho], rho^n = p,
        n = len(u) >= 2, its entries in [0, p^m]: adj(u) N(u)^-1, with one
        ``_int_inv`` of a norm in Z_p, by descent through subrings.  ``mul``
        is the product of Z_p[rho] on entries >= 0; the subrings take the
        schoolbook product.

        At d = 2 or 3 dividing n, u = a + b (+ c), its parts at the powers
        rho^i with i = 0, 1 (, 2) modulo d, and R = Z_p[rho^d].  adj(u) is
        a - b at d = 2, the conjugate u(-rho), and (a - b)(a - c) + (b - c)^2
        at d = 3, the adjugate of the matrix of multiplication by u over R,
        written in rho: its entries are those of (A^2 - tau B C) +
        rho (tau C^2 - A B) + rho^2 (B^2 - A C) for u = A + rho B + rho^2 C,
        tau = rho^3.  Either way u adj(u) lies in R, so u^-1 = adj(u)
        (u adj(u))^-1, the second inverse taken at n/d, 2 before 3.  At
        n <= 4 the step is written out on integers, where the products of
        short vectors would cost more than the arithmetic.  At any other n,
        prime to 6, ``_solve_unit`` eliminates on the matrix.
        """
        n, p, mod = len(u), self.p, self._ppow(m)
        if n == 2:
            a, b = u
            norm = self._int_inv((a * a - p * b * b) % mod, m)
            return (a * norm, -b * norm)
        if n == 3:
            a, b, c = u
            adj = ((a * a - p * b * c) % mod, (p * c * c - a * b) % mod, (b * b - a * c) % mod)
            norm = self._int_inv((a * adj[0] + p * (b * adj[2] + c * adj[1])) % mod, m)
            return tuple(x * norm for x in adj)
        if n == 4:  # A = u0 + u2 sigma, B = u1 + u3 sigma, sigma^2 = p
            u0, u1, u2, u3 = u
            c0, c1 = self._ring_inv(((u0 * u0 + p * (u2 * u2 - 2 * u1 * u3)) % mod,
                                     (2 * u0 * u2 - u1 * u1 - p * u3 * u3) % mod), m, mul)
            c0, c1 = c0 % mod, c1 % mod
            return (u0 * c0 + p * u2 * c1, -u1 * c0 - p * u3 * c1,
                    u2 * c0 + u0 * c1, -u3 * c0 - u1 * c1)
        if n % 2 == 0:
            d, adj = 2, list(u)
            adj[1::2] = [mod - x for x in u[1::2]]
        elif n % 3 == 0:
            # a - b, a - c and b - c, an entry x negated as p^m - x
            ab, ac, bc = ([x if s == 1 else mod - x if s else 0
                           for x, s in zip(u, itertools.cycle(signs))]
                          for signs in ((1, -1, 0), (1, 0, -1), (0, 1, -1)))
            d, adj = 3, [(x + y) % mod for x, y in zip(mul(ab, ac), mul(bc, bc))]
        else:
            return self._solve_unit(u, m)
        c = self._ring_inv([x % mod for x in mul(u, adj)[::d]], m, self._mul_schoolbook)
        spread = [0] * n
        spread[::d] = [x % mod for x in c]
        return mul(adj, spread)

    def _solve_unit(self, u: Sequence[int], m: int) -> list:
        """u^-1 modulo p^m for a unit u of Z_p[rho], rho^n = p, n = len(u):
        the solution x of M x = (1, 0, ..., 0), M the matrix of
        multiplication by u, column j holding u rho^j.

        M[i][j] is u_(i-j) on and below the diagonal and p u_(n+i-j) above
        it, so modulo p it is lower triangular with the unit u_0 on the
        diagonal.  Division-free elimination, row i <- d_k row i - M[i][k]
        row k below each pivot d_k, keeps that: every pivot is a unit, and
        no row is swapped.  Back substitution divides by the pivots, whose
        inverses come from one ``_int_inv`` of their product and its prefix
        products (Montgomery's trick).
        """
        n, p, mod = len(u), self.p, self._ppow(m)
        rows = [[u[i - j] if i >= j else p * u[n + i - j] for j in range(n)] + [int(not i)]
                for i in range(n)]
        for k in range(n - 1):
            top = rows[k]
            d, right = top[k], top[k + 1:]
            for row in rows[k + 1:]:
                h = row[k]
                row[k + 1:] = [(d * x - h * y) % mod for x, y in zip(row[k + 1:], right)]
        pivots = [row[k] % mod for k, row in enumerate(rows)]
        prefix = list(itertools.accumulate(pivots, lambda x, y: x * y % mod))
        w = self._int_inv(prefix[-1], m)
        x = [0] * n
        for k in range(n - 1, -1, -1):
            row = rows[k]
            inv = w * prefix[k - 1] % mod if k else w
            w = w * pivots[k] % mod
            x[k] = (row[n] - sum(map(operator.mul, row[k + 1:n], x[k + 1:]))) * inv % mod
        return x

    # The kernel sets, by name: __init__ binds one onto the context as its
    # _vec_mul, _vec_val and _unit_pow, and sets its _pow_price,
    # a static method, as the plain function (see the kernel note)
    _KERNELS = {
        "zp": dict(_vec_mul=_mul_zp, _vec_val=_val_zp, _unit_pow=_pow_zp, _pow_price=_price_zp),
        "schoolbook": dict(_vec_mul=_mul_schoolbook, _vec_val=_val_vector, _unit_pow=_pow_chain,
                           _pow_price=_price_chain),
        "packed": dict(_vec_mul=_mul_packed, _vec_val=_val_vector, _unit_pow=_pow_chain,
                       _pow_price=_price_chain),
    }


def _power_table(p: int, e: int, n_stop: int, rel: int, terms) -> tuple:
    """(b, blocks): the scalars of ``PrimeContext._power_sum`` for a series
    of n_stop >= 2 terms summed modulo pi^rel, which no digit of u enters.

    ``terms`` yields the integer pairs (s_n, c_n) for n = n_stop - 1 down
    to 0, with s_n >= 0 and 0 <= c_n < M = p^ceil(rel/e).  b = isqrt(n_stop),
    and ``blocks`` holds block i, ib <= n < (i+1)b, top block first, as the
    tuples (classes, slots, scalars) over its terms with c_n nonzero and
    s_n < rel: term n's class r = s_n mod e, its slot j = n - ib and its
    scalar c_n p^(s_n // e) mod M, as pi^s = p^(s // e) pi^(s % e).  Three
    tuples of ints take less memory than a tuple per term.
    """
    m = _ceil_div(rel, e)
    ppow = _p_powers(p, m // 64 + 1)
    b = math.isqrt(n_stop)
    blocks, j = [], (n_stop - 1) % b  # the place of term n_stop - 1 in its block
    classes, slots, scalars = [], [], []
    for s, c in terms:
        if c and s < rel:
            q, r = divmod(s, e)
            classes.append(r)
            slots.append(j)
            # c p^q mod M, reduced by the smaller modulus p^(m - q)
            scalars.append(c % ppow[m - q] * ppow[q] if q else c)
        if j:
            j -= 1
            continue
        blocks.append((tuple(classes), tuple(slots), tuple(scalars)))
        classes, slots, scalars, j = [], [], [], b - 1
    return b, tuple(blocks)


def _pack(vec: Sequence[int], w: int) -> int:
    """The entries of a vector of nonnegative integers in slots of w bits,
    entry 0 lowest."""
    x = 0
    for a in reversed(vec):
        x = x << w | a
    return x


def _pack_rows(vec: Sequence[int], w: int, e: int) -> int:
    """``_pack`` with block j of e entries from slot j(2e - 1) on."""
    return sum(_pack(vec[j:j + e], w) << j // e * (2 * e - 1) * w for j in range(0, len(vec), e))


def _unpacker(p: int, e: int, w: int, mods: Sequence[int] | None = None,
              modulus: Sequence[int] = (0, 1)):
    """The fold and unpacking of a product of vectors packed in slots of w bits.

    ``unpack(z)`` folds the slots from e up onto slots 0 ... e - 1 times p,
    as pi^e = p asks, and returns slots 0 ... e - 1; with ``mods`` it
    reduces entry i modulo mods[i], and ``unpack(z, c)`` adds the vector c
    first (None for zero).  Every slot, folded or not, must hold its sum
    without a carry, which the caller's w guarantees.  At f > 1, f + 1 the
    length of ``modulus``, it does so in each of 2f - 1 rows of 2e - 1
    slots and then folds rows f ... 2f - 2 by zeta^f = -sum modulus[j] zeta^j.
    """
    f, ew = len(modulus) - 1, e * w
    mask = (1 << w) - 1
    if f == 1:
        low, slots = (1 << ew) - 1, range(0, ew, w)
        if mods is None:
            def unpack(z):
                z = (z & low) + p * (z >> ew)
                return [z >> s & mask for s in slots]
            return unpack

        def unpack(z, c=None):
            z = (z & low) + p * (z >> ew)
            if c is None:
                return [(z >> s & mask) % m for s, m in zip(slots, mods)]
            return [((z >> s & mask) + y) % m for s, y, m in zip(slots, c, mods)]
        return unpack
    stride, dim = (2 * e - 1) * w, e * f
    low = sum(((1 << ew) - 1) << j * stride for j in range(2 * f - 1))
    slots = [j * stride + i for j in range(2 * f - 1) for i in range(0, ew, w)]
    # entry k of row d >= f adds -modulus[j] times itself to row d - f + j
    taps = [((j - f) * e, m) for j, m in enumerate(modulus[:f]) if m]

    def unpack(z, c=None):
        lo = z & low
        z = lo + p * ((z - lo) >> ew)
        out = [z >> s & mask for s in slots]
        for k in range(len(out) - 1, dim - 1, -1):  # from the top row down
            for off, m in taps:
                out[k + off] -= m * out[k]
        if mods is None:
            return out[:dim]
        if c is None:
            return [x % m for x, m in zip(out, mods)]
        return [(x + y) % m for x, y, m in zip(out, c, mods)]
    return unpack


def ctx_new(p: int, e: int = 1, K: int | None = None, f: int = 1) -> PrimeContext:
    return PrimeContext(p, e, K, f)


class PadicNumber:
    """Immutable element of the context's field at finite absolute precision.

    Nonzero values are pi^val times a unit part; ``val`` is exact and
    strictly below ``prec``.  Zero-flagged values only promise that the
    valuation is at least ``prec``.  Instances are never mutated after
    construction; all operations return fresh objects.

    ``==`` is bit-exact identity of the representation (same valuation,
    digits and precision), which is what deduplication and round-trip
    tests want.  Mathematical agreement at a precision is a different
    question; use :func:`equals_to_precision`.
    """

    __slots__ = ("ctx", "_val", "_unit", "_prec", "_is_zero")

    def __init__(self, ctx: PrimeContext, val: int, unit: tuple, prec: int, is_zero: bool):
        self.ctx = ctx
        self._val = val
        self._unit = unit
        self._prec = prec
        self._is_zero = is_zero

    # -- basic queries -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._is_zero

    @property
    def prec(self) -> int:
        return self._prec

    @property
    def val(self) -> int:
        """Exact valuation in pi-units.  Raises on zero-flagged values."""
        if self._is_zero:
            raise PrecisionExhausted(
                f"no exact valuation: value is zero at precision pi^{self._prec}")
        return self._val

    def valuation(self) -> Fraction | ZeroAtPrecision:
        """Valuation in p-units, or a ZeroAtPrecision marker."""
        if self._is_zero:
            return ZeroAtPrecision(Fraction(self._prec, self.ctx.e))
        return Fraction(self._val, self.ctx.e)

    def is_unit(self) -> bool:
        return not self._is_zero and self._val == 0

    def residue(self):
        """Image in the residue field; needs valuation >= 0.

        An int in F_p at f = 1; at f > 1 a tuple of f coordinates in the
        basis 1, zeta, ..., zeta^(f-1), as listed by ``residue_field()``.
        """
        ctx = self.ctx
        if not self._is_zero and self._val < 0:
            raise DomainError("residue undefined for negative valuation")
        if self._is_zero or self._val > 0:
            coords = (0,) * ctx.f
        else:
            coords = tuple(self._unit[b] % ctx.p for b in range(0, ctx._dim, ctx.e))
        return coords[0] if ctx.f == 1 else coords

    def digits(self) -> tuple:
        """Base-p digits of the unit part, low order first, prec - val many.

        At f > 1 each digit is a tuple of f coordinates (see ``from_digits``).
        Digit k is the p^(k // e) digit of entry k mod e, so each entry is
        peeled by ``divmod(a, p)`` into the digits r, r + e, ... in turn,
        in time linear in the digits rather than one division by p^(k // e)
        per digit.
        """
        if self._is_zero:
            return ()
        ctx = self.ctx
        p, e = ctx.p, ctx.e
        rel = self._prec - self._val
        columns = []
        for b in range(0, ctx._dim, e):
            out = [0] * rel
            for r in range(min(e, rel)):
                a = self._unit[b + r]
                for k in range(r, rel, e):
                    a, out[k] = divmod(a, p)
            columns.append(tuple(out))
        return columns[0] if ctx.f == 1 else tuple(zip(*columns))

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "PadicNumber") -> None:
        if self.ctx is not other.ctx:
            raise ContextMismatch("operands belong to different contexts")

    def __add__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        ctx = self.ctx
        if self._is_zero and other._is_zero:
            return ctx.zero(min(self._prec, other._prec))
        if self._is_zero:
            return other._cap_prec(min(self._prec, other._prec))
        if other._is_zero:
            return self._cap_prec(min(self._prec, other._prec))
        prec = min(self._prec, other._prec)
        base = min(self._val, other._val)
        raw = ctx._vec_shift(self._unit, self._val - base)
        rb = ctx._vec_shift(other._unit, other._val - base)
        raw = [x + y for x, y in zip(raw, rb)]
        return _from_raw(ctx, base, raw, prec)

    def __neg__(self) -> "PadicNumber":
        if self._is_zero:
            return self
        ctx = self.ctx
        rel = self._prec - self._val
        vec = ctx._vec_reduce([-x for x in self._unit], rel)
        return PadicNumber(ctx, self._val, vec, self._prec, False)

    def __sub__(self, other: "PadicNumber") -> "PadicNumber":
        return self + (-other)

    def __mul__(self, other: "PadicNumber") -> "PadicNumber":
        self._check(other)
        ctx = self.ctx
        if self._is_zero or other._is_zero:
            if self._is_zero and other._is_zero:
                return ctx.zero(self._prec + other._prec)
            z, nz = (self, other) if self._is_zero else (other, self)
            return ctx.zero(z._prec + nz._val)
        rel = min(self._prec - self._val, other._prec - other._val)
        val = self._val + other._val
        vec = ctx._vec_reduce(ctx._vec_mul(self._unit, other._unit), rel)
        return PadicNumber(ctx, val, vec, val + rel, False)

    def inv(self) -> "PadicNumber":
        """Multiplicative inverse; precision drops by 2*val pi-units."""
        return self._inv()

    def _inv(self, near: "PadicNumber | None" = None) -> "PadicNumber":
        """``inv``, at f > 1 the doubling started from ``near``, the inverse
        of a nearby nonzero value, when given (``PrimeContext._vec_inv``):
        the same digits.  Every f = 1 inverse is on integers and reads no
        start."""
        if self._is_zero:
            raise PrecisionExhausted("cannot invert a value that is zero at precision")
        ctx = self.ctx
        rel = self._prec - self._val
        vec = ctx._vec_inv(self._unit, rel, None if near is None else near._unit)
        return PadicNumber(ctx, -self._val, vec, rel - self._val, False)

    def __truediv__(self, other: "PadicNumber") -> "PadicNumber":
        return self * other.inv()

    def __pow__(self, n: int) -> "PadicNumber":
        """The value of square and multiply on PadicNumber products, started
        from the base (one() carries precision K and would cap a value
        carried above K).

        Each product adds the valuations and keeps the relative precision,
        so a nonzero base pi^v u at relative precision rel gives valuation
        n v, precision n v + rel and unit u^n modulo pi^rel, which the
        context's unit power forms: square and multiply on vectors, or, in
        the Z_p kernel set, one C-level ``pow`` modulo p^rel.  A
        zero-flagged base gives zero at n times its precision.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return self.ctx.one()
        if self._is_zero:
            return self.ctx.zero(n * self._prec)
        rel, val = self._prec - self._val, n * self._val
        return PadicNumber(self.ctx, val, self.ctx._unit_pow(self._unit, n, rel), val + rel, False)

    def scale_pi(self, t: int) -> "PadicNumber":
        """Exact multiplication by pi^t: shifts valuation and precision."""
        if self._is_zero:
            return self.ctx.zero(self._prec + t)
        return PadicNumber(self.ctx, self._val + t, self._unit, self._prec + t, False)

    def _scale(self, num: int, den: int) -> "PadicNumber":
        """Exact multiplication by num/den for nonzero ints; relative precision kept.

        p is stripped from both sides and moves the valuation by e per
        factor; the unit vector is multiplied by num' / den' modulo
        p^ceil(rel/e), which covers every entry's modulus.
        """
        if num == den:
            return self
        ctx = self.ctx
        a = b = 0
        if num != 1:
            a = _vp(num, ctx.p)
            if a:
                num //= ctx._ppow(a)
        if den != 1:
            b = _vp(den, ctx.p)
            if b:
                den //= ctx._ppow(b)
        shift = ctx.e * (a - b)
        if self._is_zero:
            return ctx.zero(self._prec + shift)
        rel = self._prec - self._val
        if den == 1:
            factor = num
        else:
            mod = ctx._ppow(_ceil_div(rel, ctx.e))
            factor = num * pow(den, -1, mod) % mod
        vec = self._unit if factor == 1 else ctx._vec_reduce([x * factor for x in self._unit], rel)
        val = self._val + shift
        return PadicNumber(ctx, val, vec, val + rel, False)

    def _div_int(self, n: int) -> "PadicNumber":
        """Exact division by a nonzero integer (infinite-precision scalar)."""
        if n == 0:
            raise ZeroDivisionError("division by integer zero")
        return self._scale(1, n)

    def _lift_exact(self, prec: int) -> "PadicNumber":
        """Reinterpret as the exact representative with zero digits appended.

        This is not a claim of knowledge: Newton-type iterations use it
        on iterates, which are seeds for the next step, and re-measure
        closeness afterwards via the function value.
        """
        if self._is_zero or prec <= self._prec:
            return self
        return PadicNumber(self.ctx, self._val, self._unit, prec, False)

    def _cap_prec(self, prec: int) -> "PadicNumber":
        if prec >= self._prec:
            return self
        ctx = self.ctx
        if self._is_zero or self._val >= prec:
            return ctx.zero(prec)
        vec = ctx._vec_reduce(self._unit, prec - self._val)
        return PadicNumber(ctx, self._val, vec, prec, False)

    # -- rendering -----------------------------------------------------

    def render(self) -> str:
        """``pi^val*(digits; prec=N)``, with ``p`` for pi at e = 1.

        At f > 1 a digit is written as its coordinates joined by commas,
        and ``; f=F`` closes the bracket.
        """
        return self._render(self.digits())

    def _render(self, digits: Sequence) -> str:
        """``render`` of this number's digits, as ``digits()`` or ``to_json``
        gives them: a caller that has them formed renders without forming
        them again."""
        ctx = self.ctx
        token = "p" if ctx.e == 1 else "pi"
        tail = f"; prec={self._prec}" + ("" if ctx.f == 1 else f"; f={ctx.f}")
        if self._is_zero:
            return f"{token}^inf*({tail})"
        if ctx.f == 1:
            body = " ".join(map(str, digits))
        else:
            body = " ".join(",".join(map(str, d)) for d in digits)
        return f"{token}^{self._val}*({body}{tail})"

    __str__ = render

    def __repr__(self) -> str:
        return self.render()

    def to_json(self) -> dict:
        """Context parameters, valuation, digits and precision; the key
        ``f`` and per-digit coordinate lists appear only at f > 1."""
        ctx = self.ctx
        out = {
            "p": ctx.p,
            "e": ctx.e,
            "val": None if self._is_zero else self._val,
            "digits": list(self.digits()) if ctx.f == 1 else [list(d) for d in self.digits()],
            "prec": self._prec,
        }
        if ctx.f > 1:
            out["f"] = ctx.f
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PadicNumber):
            return NotImplemented
        return (
            self.ctx is other.ctx
            and self._is_zero == other._is_zero
            and self._prec == other._prec
            and (self._is_zero or (self._val == other._val and self._unit == other._unit))
        )

    def __hash__(self) -> int:
        return hash((id(self.ctx), self._is_zero, self._val if not self._is_zero else 0,
                     self._unit, self._prec))


def _from_raw(ctx: PrimeContext, base_val: int, raw: Sequence[int], prec: int) -> PadicNumber:
    """Normalize pi^base_val * (raw vector) known modulo pi^prec."""
    rel = prec - base_val
    if rel <= 0:
        return ctx.zero(prec)
    vec = ctx._vec_reduce(raw, rel)
    v = ctx._vec_val(vec, rel)
    if v is None:
        return ctx.zero(prec)
    val = base_val + v
    # already reduced modulo pi^(rel - v): entry i moves to (i - v) mod e
    # and sheds exactly the power of p its bound p^ceil((rel - i)/e) loses
    unit = tuple(ctx._vec_shift(vec, -v))
    return PadicNumber(ctx, val, unit, prec, False)


def equals_to_precision(a: PadicNumber, b: PadicNumber, pi_units: int) -> bool:
    """True when v(a - b) >= pi_units is provable at carried precision.

    Raises PrecisionExhausted when the difference is zero-flagged below
    the requested threshold, because then neither answer is safe.
    """
    a._check(b)
    d = a - b
    if d.is_zero:
        if d.prec >= pi_units:
            return True
        raise PrecisionExhausted(
            f"cannot decide agreement at pi^{pi_units}: difference is zero at pi^{d.prec}")
    return d.val >= pi_units


def sample(ctx: PrimeContext, rng: Random, *, valuation: int = 0,
           residue=None) -> PadicNumber:
    """Random element with exact valuation (pi-units) and optional residue.

    Digits above the leading one are uniform over the residue field; at
    f > 1 ``residue`` is a tuple as ``residue()`` returns it.
    Reproducible: the same rng state always yields the same element.

    Each digit above the leading one is drawn inline as ``random.Random``'s
    ``randrange(size)`` draws it (``_randbelow_with_getrandbits``):
    getrandbits(k), k the bit length of size, again while the draw is size
    or more.  So the stream, and every element drawn from it, is
    ``randrange``'s, without its per-call argument handling.
    """
    size = ctx.p ** ctx.f
    if residue is not None:
        if ctx.f > 1:
            if (not isinstance(residue, tuple) or len(residue) != ctx.f
                    or not all(c in range(ctx.p) for c in residue)):
                raise ValueError(f"residue must be {ctx.f} coordinates in 0..{ctx.p - 1}")
            residue = sum(c * ctx.p ** j for j, c in enumerate(residue))
        if residue == 0:
            raise ValueError("residue 0 conflicts with an exact valuation; "
                             "raise `valuation` instead")
        if not 0 < residue < size:
            raise ValueError(f"residue must lie in 1..{ctx.p - 1}")
    rel = ctx.K - valuation
    if rel < 1:
        raise ValueError("valuation leaves no digits below precision")
    digits = [residue if residue is not None else rng.randrange(1, size)]
    getrandbits, k = rng.getrandbits, size.bit_length()
    for _ in range(rel - 1):
        d = getrandbits(k)
        while d >= size:
            d = getrandbits(k)
        digits.append(d)
    if ctx.f > 1:
        digits = [_coords(d, ctx.p, ctx.f) for d in digits]
    return ctx.from_digits(valuation, digits, ctx.K)
