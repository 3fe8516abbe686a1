"""exp/log/bracket identities and truncated-series behavior.

Frozen constants in this file were computed with independent
integer/Fraction oracles (partial sums, big-integer Hensel, direct
factorial stripping) before the assertions were written.
"""

import gc
import math
import weakref
from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbracket import analytic, core
from qbracket import (
    CertificationFailure,
    DomainError,
    PadicNumber,
    PrimeContext,
    TruncatedSeries,
    a_poly,
    cocycle_check,
    ctx_new,
    digit_sum,
    exp,
    factorial_valuation,
    fixed_points_for_q,
    in_S,
    log1p,
    q_bracket,
    q_for_x,
    q_pow,
    sample,
    series1,
    series2,
    unit_disk_zero_count,
)
from conftest import patch_kernel, sees_one_product
from test_core import _vec_mul_ref


def test_in_S_boundary():
    c = ctx_new(3, 2, 40)
    assert not in_S(sample(c, Random(0), valuation=0))
    assert not in_S(sample(c, Random(0), valuation=1))  # equality is excluded
    assert in_S(sample(c, Random(0), valuation=2))
    assert in_S(c.zero(10))


def test_log1p_partial_sum_gap():
    # oracle: v(log(1+5) - (5 - 25/2 + 125/3)) = 4 exactly
    c = ctx_new(5, 1, 40)
    s3 = c.from_rational(Fraction(5) - Fraction(25, 2) + Fraction(125, 3))
    d = log1p(c.from_int(5)) - s3
    assert d.val == 4


def test_log_exp_domain_checks():
    c = ctx_new(3, 1, 40)
    unit = sample(c, Random(2), valuation=0)
    with pytest.raises(DomainError):
        log1p(unit)
    with pytest.raises(DomainError):
        exp(unit)


def test_exp_log_are_inverse():
    c = ctx_new(3, 1, 60)
    rng = Random(4)
    for _ in range(15):
        y = sample(c, rng, valuation=rng.randrange(1, 4))
        assert (exp(log1p(y)) - (c.one() + y)).is_zero
        z = sample(c, rng, valuation=rng.randrange(1, 4))
        assert (log1p(exp(z) - c.one()) - z).is_zero


def test_log_exp_preserve_valuation():
    c = ctx_new(5, 2, 60)
    rng = Random(5)
    for t in (1, 2, 5):
        y = sample(c, rng, valuation=t)
        assert log1p(y).val == t
        assert (exp(y) - c.one()).val == t


def test_exp_is_a_homomorphism():
    c = ctx_new(3, 1, 60)
    rng = Random(6)
    for _ in range(10):
        a = sample(c, rng, valuation=1)
        b = sample(c, rng, valuation=2)
        assert (exp(a + b) - exp(a) * exp(b)).is_zero


@pytest.mark.parametrize("p,q,n,value", [
    (3, 4, 5, 341),
    (3, 7, 4, 400),
    (5, 6, 4, 259),
    (7, 8, 3, 73),
])
def test_bracket_matches_geometric_sums(p, q, n, value):
    # [n]_q = 1 + q + ... + q^(n-1) for integers; oracle by construction
    c = ctx_new(p, 1, 60)
    got = q_bracket(c.from_int(n), c.from_int(q))
    assert (got - c.from_int(value)).is_zero


def test_q_pow_matches_repeated_multiplication():
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)
    acc = c.one()
    for n in range(7):
        assert (q_pow(c.from_int(n), q) - acc).is_zero
        acc = acc * q


def test_q_pow_names_itself_outside_S():
    c = ctx_new(3, 1, 40)
    with pytest.raises(DomainError, match=r"^q_pow needs v\(q-1\) > 1/\(p-1\)$"):
        q_pow(2, c.from_int(2))
    assert q_pow(c.from_int(5), c.one()) == c.one()


def test_bracket_at_q_one_is_identity():
    c = ctx_new(3, 1, 40)
    x = c.from_int(17)
    assert (q_bracket(x, c.one()) - x).is_zero


def test_bracket_rejects_bad_inputs():
    c = ctx_new(3, 1, 40)
    with pytest.raises(DomainError):
        q_bracket(c.from_rational(Fraction(1, 3)), c.from_int(4))
    with pytest.raises(DomainError):
        q_bracket(c.from_int(2), c.from_int(2))  # v(q-1) = 0


def test_cocycle_identity_sampled():
    rng = Random(7)
    for p, e in ((3, 1), (5, 2)):
        c = ctx_new(p, e, 60)
        lo = e // (p - 1) + 1
        for _ in range(25):
            q = c.one() + sample(c, rng, valuation=rng.randrange(lo, lo + 3))
            x = sample(c, rng, valuation=rng.choice((0, 0, 1)))
            xp = sample(c, rng, valuation=rng.choice((0, 0, 2)))
            assert cocycle_check(x, xp, q)


def _power_inputs(c, rng):
    """A q and an x for q^x at context c: every kind of q the split meets
    (near and at the edge of S, capped, lifted above K, and q = 1 at
    precision) against every kind of integral x."""
    p, e, f, K = c.p, c.e, c.f, c.K
    lo = e // (p - 1) + 1
    kind = rng.randrange(6)
    if kind == 5:
        q = c.one() if rng.randrange(2) else c.one()._cap_prec(rng.randrange(1, K))
    else:
        q = c.one() + sample(c, rng, valuation=lo + rng.randrange(3))
        if kind == 3:
            q = q._cap_prec(rng.randrange(lo + 1, K))
        elif kind == 4:
            q = q._lift_exact(K + rng.randrange(1, 3 * e))
    kind = rng.randrange(9)
    if kind == 0:
        x = c.from_int(rng.randrange(1, 300))
    elif kind == 1:
        x = c.from_int(rng.randrange(p ** 30))
    elif kind == 2:
        x = c.from_rational(rng.randrange(-60, 60), rng.randrange(1, 60 * p, p))
    elif kind == 3:
        x = sample(c, rng, residue=(rng.randrange(1, p),) + (0,) * (f - 1) if f > 1
                   else rng.randrange(1, p))
    elif kind == 4:
        x = sample(c, rng)
    elif kind == 5:
        x = sample(c, rng, valuation=rng.randrange(1, 2 * e + 1))
    elif kind == 6:
        x = sample(c, rng, valuation=rng.randrange(e))._cap_prec(rng.randrange(e, K))
    elif kind == 7:
        x = c.from_int(rng.randrange(1, 10 ** 6))._lift_exact(K + rng.randrange(1, 4 * e))
    else:
        x = c.zero(rng.randrange(1, K + 1))
    return q, x


def test_q_power_split_matches_exp_of_x_log_q():
    # q^x = q^n exp((x - n) log q) must equal exp(x log q) digit for digit,
    # with the same precision and zero flag, and fail alike where it fails
    rng = Random(19)
    for p in (3, 5, 7):
        for e in (1, 2, 3, 4, 5, 10):
            for f in (1, 2, 3):
                c = ctx_new(p, e, 8 * e + rng.randrange(e), f)
                for _ in range(8):
                    q, x = _power_inputs(c, rng)
                    want = _outcome(lambda x: exp(x * analytic._QSplit(q).log_q), x)
                    assert _outcome(analytic._QSplit(q).power, x) == want, (c, q, x)


# q^n's price in each kernel set, as _power_split's docstring states it
_POW_PRICES = {
    "zp": lambda p, n, target: n.bit_length() * math.isqrt((p ** target).bit_length()) // 24,
    "packed": lambda p, n, target: 4 * max(n.bit_length() + bin(n).count("1") - 2, 0),
}


def _split_prices_reference(p, e, kernels, t, target, a0, rest, log_price):
    """(n, price) of every candidate of _power_split, k = v_p(a0) up to
    stop, each priced as its docstring states, with no cache and no early
    stop."""
    price = _POW_PRICES[kernels]
    stop = -(-min(rest, target - t) // e)
    v0 = core._vp(a0, p) if a0 else stop
    out = []
    for k in range(min(v0, stop), stop + 1):
        n = a0 % p ** k
        if k == stop:
            cost, v = price(p, n, target), rest
        else:
            cost, v = price(p, p ** k - 1, target) if k > v0 else 0, e * k
        if v + t < target:
            terms = analytic._exp_cutoff(p, e, v + t, target)
            cost += 8 * math.isqrt(terms) + terms + analytic._EXP_FIXED + log_price
        out.append((n, cost))
    return out


def _split_context(p, e, kernels):
    """What _power_split reads of a context, with the kernel set's price at
    any e."""
    return SimpleNamespace(p=p, e=e, _pow_price=PrimeContext._KERNELS[kernels]["_pow_price"]
                           .__func__, _ppow=lambda m: p ** m)


@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 10), st.sampled_from(("zp", "packed")),
       st.integers(0, 6), st.integers(1, 600), st.integers(-2, 2) | st.integers(-600, 700),
       st.lists(st.integers(0, 9), max_size=80), st.integers(0, 400))
@settings(max_examples=300, deadline=None)
def test_power_split_matches_the_reference(p, e, kernels, dt, span, off, digits, log_price):
    # the smallest k of least price among all candidates, for both prices at
    # every e; a0's digits lean to zero, so runs of zero digits and a0 = 0
    # come up, and rest falls below, at and above target - t = span
    t, rest = e // (p - 1) + 1 + dt, max(span + off, 1)
    a0 = sum(max(d - 4, 0) % p * p ** k for k, d in enumerate(digits))
    prices = _split_prices_reference(p, e, kernels, t, t + span, a0, rest, log_price)
    want = min(prices, key=lambda nc: nc[1])[0]
    assert analytic._power_split(_split_context(p, e, kernels), t, t + span, a0, rest,
                                 log_price) == want


def test_log_reduction_gives_the_least_cost_and_its_k():
    # the walk's stop (4 k power >= best) loses no cheaper k: against every
    # k up to 40, the smallest k of least cost and that cost, which
    # _power_split reads as the log's price
    for p in (2, 3, 5, 7, 11):
        power = p.bit_length() + bin(p).count("1") - 2
        for e in (1, 3, 10):
            for t in {e // (p - 1) + 1, e // (p - 1) + 4, 3 * e}:
                for target in (t + 1, 60 * e, 200 * e):
                    costs = []
                    for k in range(40):
                        n = analytic._log_cutoff(p, e, t + k * e, target + k * e)
                        costs.append(4 * (k * power + 2 * math.isqrt(n)) + n)
                    best = min(costs)
                    assert analytic._log_reduction(p, e, t, target) == (costs.index(best), best)


def test_power_split_gives_a_tie_to_the_part():
    # with the log priced so that the best part and all of x cost the same,
    # the part wins, as the smaller k; one more unit of log price and the
    # whole x wins
    a0 = Random(32).randrange(3 ** 239) * 3 + 1
    prices = _split_prices_reference(3, 1, "zp", 1, 240, a0, 240, 0)
    part, whole = min(prices[:-1], key=lambda nc: nc[1]), prices[-1]
    log = whole[1] - part[1]
    assert log > 0
    c = ctx_new(3, 1, 240)
    assert analytic._power_split(c, 1, 240, a0, 240, log) == part[0]
    assert analytic._power_split(c, 1, 240, a0, 240, log + 1) == whole[0]


def test_power_split_takes_the_whole_x_or_a_part_as_priced(monkeypatch):
    # log q is priced until the split holds it: at (3, 1, 60) q^x takes all
    # of x either way, at (3, 1, 120) all of x fresh (no log, no exp) and a
    # part once log q is held (one exp), at (3, 1, 480) a part either way;
    # every split gives exp(x log q) digit for digit
    calls = []
    for name in ("log1p", "exp"):
        fn = getattr(analytic, name)
        monkeypatch.setattr(analytic, name,
                            lambda z, fn=fn, name=name: calls.append(name) or fn(z))
    rng = Random(30)
    for K, fresh_full, held_full in ((60, True, True), (120, True, False),
                                     (480, False, False)):
        c = ctx_new(3, 1, K)
        q = c.one() + sample(c, rng, valuation=1)
        x = sample(c, rng)
        a0, log = analytic._dz_vector(x)[0], analytic._log_reduction(3, 1, 1, K)[1]
        for log_price, full in ((log, fresh_full), (0, held_full)):
            n = analytic._power_split(c, 1, K, a0, K, log_price)
            assert 0 < n and (n == a0 % 3 ** (K - 1)) == full, (K, log_price)
        calls.clear()
        fresh = analytic._QSplit(q).power(x)
        assert calls == ([] if fresh_full else ["log1p", "exp"])
        s = analytic._QSplit(q)
        want = exp(x * s.log_q)
        calls.clear()
        assert s.power(x) == fresh == want
        assert calls == ([] if held_full else ["exp"])


def test_q_power_of_an_integer_is_repeated_multiplication():
    # independent oracle: q^m is m - 1 products of q's exact representative,
    # at the precision x log q carries, min(prec x + v(y), prec y + v(x))
    rng = Random(23)
    for p, e, f in ((3, 1, 1), (5, 3, 1), (3, 2, 2), (7, 5, 1), (5, 10, 1), (3, 4, 3)):
        c = ctx_new(p, e, 12 * e, f)
        lo = e // (p - 1) + 1
        for m in (1, 2, p, p + 1, p * p, rng.randrange(2, 200), rng.randrange(2, 200)):
            q = c.one() + sample(c, rng, valuation=lo + rng.randrange(3))
            if m % 2:
                q = q._cap_prec(rng.randrange(c.K // 2, c.K))
            y, x = q - c.one(), c.from_int(m)
            prec = min(x.prec + y.val, y.prec + x.val)
            rep = q._lift_exact(prec)
            acc = rep
            for _ in range(m - 1):
                acc = acc * rep
            got = analytic._QSplit(q).power(x)
            assert got.prec == prec and got == acc._cap_prec(prec), (c, m, q)


def test_a_poly_frozen_values():
    c = ctx_new(5, 1, 40)
    a5 = a_poly(3, c.from_int(5))
    assert (a5 - c.from_int(6)).is_zero and a5.val == 0
    a7 = a_poly(3, c.from_int(7))
    assert (a7 - c.from_int(60)).is_zero and a7.val == 1
    assert (a_poly(0, c.from_int(9)) - c.one()).is_zero


@pytest.mark.parametrize("n,p,expect", [
    (6, 3, 2), (5, 5, 1), (25, 5, 6), (26, 5, 6), (300, 7, 48),
])
def test_factorial_valuation_frozen(n, p, expect):
    assert factorial_valuation(n, p) == Fraction(expect)


def test_digit_sum():
    assert digit_sum(6, 3) == 2
    assert digit_sum(25, 5) == 1
    assert digit_sum(0, 7) == 0
    with pytest.raises(ValueError):
        digit_sum(-1, 3)
    # base-1 digits never end and base 0 divides by zero; both are refused
    with pytest.raises(ValueError, match="p must be at least 2, got 1"):
        digit_sum(5, 1)
    with pytest.raises(ValueError, match="p must be at least 2, got 0"):
        factorial_valuation(5, 0)


@given(n=st.integers(0, 10 ** 9), p=st.sampled_from((2, 3, 5, 7, 11)))
@settings(max_examples=80, deadline=None)
def test_legendre_formula_matches_direct_stripping(n, p):
    # compare the closed form against stripping factors of p from n!
    # via the exact prime-power count sum floor(n/p^k)
    direct = 0
    pk = p
    while pk <= n:
        direct += n // pk
        pk *= p
    assert factorial_valuation(n, p) == Fraction(direct)


def test_series1_leading_coefficient_valuations():
    # oracle (Fraction partial sums): v(c_1..c_4) = 1, 1, 1, 2 at p=3, q=4
    c = ctx_new(3, 1, 60)
    s = series1(0, c.from_int(4))
    vals = [s.coeffs[n].val for n in range(1, 5)]
    assert vals == [1, 1, 1, 2]
    assert s.coeffs[0].is_zero  # [0]_q - 0


def test_series1_evaluates_to_bracket_gap():
    c = ctx_new(3, 1, 60)
    rng = Random(8)
    q = c.one() + sample(c, rng, valuation=1)
    s = series1(0, q)
    for _ in range(20):
        x = sample(c, rng, valuation=rng.choice((0, 0, 1, 2)))
        direct = q_bracket(x, q) - x
        d = s.evaluate(x) - direct
        assert d.is_zero and d.prec >= 20


def test_series2_evaluates_to_scaled_gap():
    # h(x, u) * (q-1) * x * (x-1) = [x]_q - x with q = 1 + pi^t u
    c = ctx_new(3, 1, 60)
    rng = Random(9)
    x = c.from_rational(Fraction(-1, 2))
    m0 = Fraction(1)
    s = series2(x, m0)
    for _ in range(10):
        u = sample(c, rng, valuation=0)
        q = c.one() + c.from_int(3) * u
        lhs = s.evaluate(u) * (q - c.one()) * x * (x - c.one())
        rhs = q_bracket(x, q) - x
        assert (lhs - rhs).is_zero


def test_derivative_of_polynomial():
    c = ctx_new(5, 1, 40)
    coeffs = (c.from_int(6), c.from_int(-5), c.from_int(1))
    s = TruncatedSeries(c, c.from_int(0), coeffs, None)
    d = s.derivative()
    x = c.from_int(9)
    assert (d.evaluate(x) - (c.from_int(2) * x - c.from_int(5))).is_zero


# -- precision honesty of the analytic layer -----------------------------
#
# As in tests/test_core.py, each input is one digit string read at
# precision K and again at 2K.  The 2K result is carried at least as
# precisely, so it must agree with the K result below the K result's
# claimed precision.  At e = f = 1 the digits also spell rationals, and
# exp and log1p must agree with Fraction partial sums whose omitted terms
# all lie above that precision, and q^n and [n]_q with exact powers.

def _read(c, val, digits, prec=None):
    """pi^val times the digits (ints below p^f) read at prec, K by default."""
    prec = c.K if prec is None else prec
    digits = digits[:prec - val]
    if c.f > 1:
        digits = [tuple((d // c.p ** j) % c.p for j in range(c.f)) for d in digits]
    return c.from_digits(val, digits, prec)


def _agrees_below(x, y):
    """Does y, known at least as precisely as x, match x modulo pi^x.prec?"""
    if y.prec < x.prec:
        return False
    if x.is_zero:
        return y.is_zero or y.val >= x.prec
    return not y.is_zero and y.val == x.val and y.digits()[:x.prec - x.val] == x.digits()


def _honest(x):
    return x.is_zero or x.val < x.prec


def _vp_frac(r, p):
    v, n, d = 0, r.numerator, r.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _close(r, x, p):
    """Does the e = f = 1 value x equal the rational r below x.prec?"""
    d = r - (0 if x.is_zero else Fraction(p) ** x.val * sum(
        dk * p ** k for k, dk in enumerate(x.digits())))
    return d == 0 or _vp_frac(d, p) >= x.prec


@st.composite
def _analytic_inputs(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 5))
    f = draw(st.sampled_from((1, 2)))
    K = 5 * e + 10
    lo = e // (p - 1) + 1  # the boundary of S, drawn on purpose
    size = p ** f

    def digits(val):
        n = 2 * K - val
        return val, [draw(st.integers(1, size - 1))] + draw(
            st.lists(st.integers(0, size - 1), min_size=n - 1, max_size=n - 1))

    z = digits(draw(st.sampled_from((lo, lo, lo + 1)) | st.integers(lo, lo + 2 * e)))
    y = digits(draw(st.sampled_from((lo, lo, lo + 1)) | st.integers(lo, lo + 2 * e)))
    x = digits(draw(st.sampled_from((0, 0, 1, 2))))
    w = digits(draw(st.sampled_from((0, 0, 1))))
    n = draw(st.integers(0, 12))
    hint = draw(st.none() | st.integers(1, 2 * K))
    n_max = draw(st.integers(1, 40))
    return (p, e, f, K), z, y, x, w, n, hint, n_max


def _analytic_results(c, z, y, x, w, n, hint, n_max):
    z, y, x, w = (_read(c, *a) for a in (z, y, x, w))
    one = c.one()
    q = one + y
    out = {"exp": exp(z), "log1p": log1p(y), "q_pow": q_pow(x, q),
           "q_bracket": q_bracket(x, q), "q_pow(n)": q_pow(n, q), "[n]_q": q_bracket(n, q)}
    s = series1(x, q)
    out["series1(w)"] = s.evaluate(w)
    for k, ck in enumerate(s.coeffs[:8]):
        out[f"series1[{k}]"] = ck
    # the series the solver lifts: Psi in X for a q fiber, Psi in U (or
    # series2's polynomial at an integer x) for an x fiber
    out["Psi in X(w)"] = analytic._QSplit(q).log_fiber()[1].evaluate(w, hint)
    m0 = Fraction(y.val, c.e)
    if m0 * (c.p - 1) > 1 and not (x.is_zero or (x - one).is_zero):
        out["Psi in U(w)"] = analytic._parameter_series(x, m0).evaluate(w, hint)
        # one cutoff for K and 2K, as the default cutoff near the edge of S
        # takes hundreds of monomials at 2K; the monomials are what the
        # solver lifts at an integer x
        h = series2(x, m0, n_max)
        out["series2@0(w)"] = h.evaluate(w)
        for k, dk in enumerate(h.coeffs[:8]):
            out[f"series2@0[{k}]"] = dk
    return out


@given(_analytic_inputs())
@settings(max_examples=40, deadline=None)
def test_analytic_layer_is_honest_below_claimed_precision(case):
    (p, e, f, K), z, y, x, w, n, hint, n_max = case
    lo, hi = ctx_new(p, e, K, f), ctx_new(p, e, 2 * K, f)
    low = _analytic_results(lo, z, y, x, w, n, hint, n_max)
    high = _analytic_results(hi, z, y, x, w, n, hint, n_max)
    for name, v in low.items():
        assert _honest(v) and _honest(high[name]), name
        assert _agrees_below(v, high[name]), name
    if e == f == 1:
        rz, ry = (Fraction(p) ** a[0] * sum(d * p ** k for k, d in enumerate(a[1][:K - a[0]]))
                  for a in (z, y))
        # every omitted term has valuation >= K: n(v - 1/(p-1)) >= K for exp,
        # n v - log_p(n) >= K for log
        n_exp = math.ceil(K / (z[0] - Fraction(1, p - 1))) + 1
        e_sum = sum(rz ** k / math.factorial(k) for k in range(n_exp))
        l_sum = sum((-1) ** (k + 1) * ry ** k / k for k in range(1, 2 * K + 2))
        assert _close(e_sum, low["exp"], p)
        assert _close(l_sum, low["log1p"], p)
        rq = 1 + ry
        assert _close(rq ** n, low["q_pow(n)"], p)
        assert _close(sum(rq ** k for k in range(n)), low["[n]_q"], p)


# -- the pre-change term-by-term kernels, kept as reference oracles ------

def _ceil_frac(r):
    return -((-r.numerator) // r.denominator)


@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 10), st.integers(0, 40),
       st.integers(1, 2000))
@settings(max_examples=300, deadline=None)
def test_exp_cutoff_is_the_fraction_ceiling(p, e, dt, target):
    # exp sums and _power_split prices the first N with
    # N (t - e/(p - 1)) >= target, for every t with t (p - 1) > e
    t = e // (p - 1) + 1 + dt
    delta = Fraction(t) - Fraction(e, p - 1)
    assert analytic._exp_cutoff(p, e, t, target) == _ceil_frac(Fraction(target) / delta)


def _log1p_ref(y):
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


def _exp_ref(z):
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
    acc = ctx.one(target) + z
    term = z
    for n in range(2, n_stop):
        term = (term * z)._div_int(n)
        acc = acc + term
    return acc


def _outcome(fn, x):
    try:
        return fn(x)
    except Exception as exc:  # the error type and message must match too
        return type(exc), str(exc)


@st.composite
def _kernel_arguments(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 6))
    f = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(2 * e, 8 * e + 12))
    c = ctx_new(p, e, K, f)
    top = K + e  # a value may be carried above K
    if draw(st.integers(0, 5)) == 0:
        return c.zero(draw(st.integers(0, top)))
    lo = e // (p - 1) + 1
    t = draw(st.sampled_from((lo - 1, lo, lo, lo + 1)) | st.integers(-1, lo + 2 * e))
    prec = draw(st.integers(t + 1, max(t + 1, top)))  # low precision included
    n = prec - t
    digits = [draw(st.integers(1, p ** f - 1))] + draw(
        st.lists(st.integers(0, p ** f - 1), min_size=n - 1, max_size=n - 1))
    return _read(c, t, digits, prec)


@given(_kernel_arguments())
@settings(max_examples=150, deadline=None)
def test_kernels_match_term_by_term_reference(z):
    assert _outcome(exp, z) == _outcome(_exp_ref, z)
    assert _outcome(log1p, z) == _outcome(_log1p_ref, z)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p,e,K,f", [(3, 1, 480, 1), (5, 3, 180, 1), (5, 10, 600, 1),
                                     (7, 2, 40, 3)],
                         ids=["p3e1K480", "p5e3K180", "p5e10K600", "p7e2K40f3"])
def test_kernels_match_reference_at_bench_contexts(p, e, K, f, seed):
    # bracket-grid's cells at e = 1 with a large modulus, at e = 3 and at
    # e = 10, and the term loop at f = 3, where each block's partial sums
    # are shifted within the rows of the packed format
    c = ctx_new(p, e, K, f)
    rng = Random(seed)
    lo = e // (p - 1) + 1  # the least valuation in S
    for t in (lo, rng.randrange(lo + 1, lo + 27)):
        z = sample(c, rng, valuation=t)
        low = z._cap_prec(rng.randrange(t + 1, K))
        for v in (z, low):
            assert exp(v) == _exp_ref(v)
            assert log1p(v) == _log1p_ref(v)


def test_kernel_product_counts(vector_products):
    # rectangular splitting keeps exp near 2 sqrt(N) vector products: for
    # N = 1200 and b = isqrt(N) = 34, b - 1 steps form u^2 ... u^b and
    # (N - 1) // b products of packed integers join the blocks.  Each term
    # past the first of its block (which multiplies u^0 = 1) whose scalar
    # survives modulo pi^600, 1,116 of them, is one scalar times a packed
    # power.  Argument reduction keeps log1p far below its N: three 5th
    # powers of three products each, then a power sum of 20 terms.  The
    # term-by-term loops took one vector product per term (about 1200 and
    # 210 here)
    c = ctx_new(5, 10, 600)
    counts = vector_products
    assert sees_one_product(c, lambda: counts["vec_mul"])
    counts["vec_mul"] = 0
    z = sample(c, Random(11), valuation=3)  # N = 600/(3 - 10/4) = 1200 terms
    exp(z)
    assert counts["vec_mul"] + counts["step"] + counts["power_join"] <= 3 * math.isqrt(1200) + 10
    assert counts == {"vec_mul": 0, "step": 33, "block": 0, "join": 0,
                      "power_term": 1116, "power_join": 35}
    counts.update(dict.fromkeys(counts, 0))
    log1p(z)
    assert counts["vec_mul"] + counts["step"] + counts["power_join"] <= 60
    assert counts == {"vec_mul": 9, "step": 3, "block": 0, "join": 0,
                      "power_term": 15, "power_join": 4}


def test_vector_products_take_nonnegative_operands(monkeypatch):
    # the packed kernels read an operand as one integer of w-bit slots,
    # which a negative entry would corrupt: _vec_mul's operands at f > 1 and
    # at e >= 5, and every vector a Horner step, a block pass or a power sum
    # of exp and log1p packs; inv's Newton correction 2 - u w and the
    # series2 factors x - j are reduced first.  A series2 forms its vectors
    # when read, so the stage reads its coefficients
    negative, stages, products = [], {}, []

    def seen(*vecs):
        if min(map(min, vecs)) < 0:
            negative.append(stage)
        stages[stage] = stages.get(stage, 0) + 1

    packer = PrimeContext._packer

    def checked(ctx, *args):
        pack, unpack = packer(ctx, *args)
        return lambda vec, w: seen(vec) or pack(vec, w), unpack

    patch_kernel(monkeypatch, "_vec_mul", lambda vec_mul: lambda ctx, a, b: (
        products.append(ctx) or seen(a, b) or vec_mul(ctx, a, b)))
    monkeypatch.setattr(PrimeContext, "_packer", checked)
    c = ctx_new(5, 10, 200)
    c2, c7 = ctx_new(5, 3, 90, 2), ctx_new(7, 5, 60, 2)
    stage = "reach"
    for ctx in (c, c2, c7):
        assert sees_one_product(ctx, lambda: len(products))
    rng = Random(12)
    z = sample(c, rng, valuation=3)
    x = c.one() + c.pi_pow(1)  # entry 0 of x is 1, so x - 2 < 0 there
    for stage, call in (("fixed_points_for_q", lambda: fixed_points_for_q(c.one() + z)),
                        ("exp", lambda: exp(z)), ("log1p", lambda: log1p(z)),
                        ("inv", lambda: sample(c, rng).inv()),
                        ("series2", lambda: series2(x, Fraction(3, 10)).coeffs),
                        ("q_for_x f=2", lambda: q_for_x(c2.from_int(5))),
                        ("fixed_points_for_q f=2",
                         lambda: fixed_points_for_q(c7.one() + c7.uniformizer()))):
        call()
        assert stages.get(stage), stage
    assert negative == []


# _power_sum(u, _power_table(p, e, n_stop, rel, terms), rel) against the sum
# taken term by term on unpacked integers: u^n by the schoolbook product or
# table walk of tests/test_core.py, pi^(s_n) by _vec_shift, one reduction at
# the end.

def _power_sum_ref(c, u, terms, rel):
    acc, power = [0] * c._dim, c._vec_reduce([1] + [0] * (c._dim - 1), rel)
    for n, (s, cn) in enumerate(reversed(terms)):
        if n:
            power = c._vec_reduce(_vec_mul_ref(c, power, u), rel)
        acc = [a + x for a, x in zip(acc, c._vec_shift([cn * y for y in power], s))]
    return list(c._vec_reduce(acc, rel))


def test_power_sum_at_the_widest_slot_sums():
    # every entry of u and every c_n at M - 1, M = p^ceil(rel/e), with s_n
    # in class 0, in the class e - 1 whose shift wraps the most slots, or
    # running through the classes and powers of p: on some of these a
    # block's folded slot needs every bit of the width of core's kernel
    # note, so a slot one bit narrower carries into the next; at f > 1 the
    # widest row is row f - 1, where the join sums f products
    for p in (2, 3, 5, 7):
        for e, f in [(e, 1) for e in (1, 2, 3, 5, 10)] + [(1, 2), (2, 2), (3, 2), (5, 2),
                                                         (1, 3), (2, 3), (3, 3)]:
            c = ctx_new(p, e, 12 * e, f)
            for rel in (c.K, e):
                big_m = p ** -(-rel // e)
                u = [big_m - 1] * c._dim
                for n_stop in (2, 3, 5, 9, 25, 37, 49):
                    for s_of in (lambda n: 0, lambda n: e - 1, lambda n: n % e, lambda n: n):
                        terms = [(s_of(n), big_m - 1) for n in range(n_stop - 1, -1, -1)]
                        table = core._power_table(p, e, n_stop, rel, iter(terms))
                        got = c._power_sum(u, table, rel)
                        assert got == _power_sum_ref(c, u, terms, rel), (p, e, rel, n_stop)


_TABLE_CACHES = (analytic._exp_table, analytic._log_table, analytic._log_form_table)


def _clear_tables():
    for cache in _TABLE_CACHES:
        cache.cache_clear()


def _fiber_state(q):
    # everything of (F, Psi) that a caller or the solver reads
    return [(s._base, s._vals, tuple(s._stored()), s._precs, s.tail_bound, s.coeffs)
            for s in analytic._QSplit(q).log_fiber()]


@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_power_tables_match_the_term_sum_cold_and_warm(p, e, data):
    # the scalars exp and log1p keep per (p, e, t, rel) give the sum taken
    # term by term, built right after the caches are cleared and read back
    # from them; every t in S, rel up to the large-K cells (2880 pi-units),
    # t raised until both series have at most 400 terms, so the reference's
    # one vector product per term stays cheap
    rel = data.draw(st.integers(2, 2880))
    t = data.draw(st.integers(e // (p - 1) + 1, e // (p - 1) + 12))
    while max(analytic._exp_cutoff(p, e, t, rel), analytic._log_cutoff(p, e, t, rel)) > 400:
        t += 1
    f = data.draw(st.sampled_from((1, 2)))
    c = ctx_new(p, e, max(rel, 2 * e), f)
    big_m = p ** -(-rel // e)
    digits = st.integers(0, big_m - 1)
    u = data.draw(st.just([big_m - 1] * c._dim) | st.lists(digits, min_size=c._dim,
                                                           max_size=c._dim))
    for table, cutoff, terms in ((analytic._exp_table, analytic._exp_cutoff, analytic._exp_terms),
                                 (analytic._log_table, analytic._log_cutoff, analytic._log_terms)):
        n_stop = cutoff(p, e, t, rel)
        want = _power_sum_ref(c, u, list(terms(p, e, t, n_stop, big_m)), rel)
        _clear_tables()
        assert c._power_sum(u, table(p, e, t, rel), rel) == want
        hits = table.cache_info().hits
        assert c._power_sum(u, table(p, e, t, rel), rel) == want
        assert table.cache_info().hits == hits + 1


@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 10), st.sampled_from((1, 2)),
       st.integers(0, 2 ** 32), st.data())
@settings(max_examples=60, deadline=None)
def test_exp_log_and_psi_are_the_same_cold_and_warm(p, e, f, seed, data):
    # exp, log1p and Psi's build give the same digits, precision and zero
    # flag on tables built right after the caches are cleared and on the
    # tables kept from that call; z is known to K or to fewer digits
    lo = e // (p - 1) + 1  # the least valuation in S
    K = data.draw(st.integers(max(2 * e, lo + 1), 12 * e + 24))
    c = ctx_new(p, e, K, f)
    t = data.draw(st.integers(lo, min(lo + 2 * e, K - 1)))
    z = sample(c, Random(seed), valuation=t)
    if data.draw(st.booleans()):
        z = z._cap_prec(data.draw(st.integers(t + 1, K)))
    for fn, arg in ((exp, z), (log1p, z), (_fiber_state, c.one() + z)):
        _clear_tables()
        cold = _outcome(fn, arg)
        assert _outcome(fn, arg) == cold


class _WeakContext(PrimeContext):
    __slots__ = ("__weakref__",)


def test_kept_tables_hold_no_context_and_stay_at_their_bound():
    # a context is freed once dropped, whatever exp, log1p, the q-bracket
    # and Psi's build kept; a sweep of more shapes than the bound keeps
    # each cache at it
    c = _WeakContext(5, 3, 90)
    z = sample(c, Random(5), valuation=2)
    q = c.one() + z
    exp(z), log1p(z), q_bracket(c.from_rational(1, 3), q), analytic._QSplit(q).log_fiber()
    analytic._log_form_in_u(c, 3, c.K, list(c.from_rational(2, 7)._unit))
    alive = weakref.ref(c)
    del c, z, q
    gc.collect()
    assert alive() is None
    bound = analytic._TABLES
    c = ctx_new(3, 1, bound + 40)
    z = sample(c, Random(6), valuation=2)
    for target in range(3, bound + 40):
        exp(z._cap_prec(target)), log1p(z._cap_prec(target))
    for K in range(2, bound + 40):
        analytic._log_form_terms(ctx_new(3, 1, K), 1)
    assert [cache.cache_info().currsize for cache in _TABLE_CACHES] == [bound] * 3


# -- TruncatedSeries.evaluate against the PadicNumber Horner loop --------
#
# The loop below is the pre-change body of ``evaluate``: the raw pass must
# give the same value, digits, precision and zero flag, or the same error.

def _evaluate_ref(series, point, prec_hint=None):
    ctx = series.ctx
    dz = point - series.center
    if not dz.is_zero and dz.val < 0:
        raise DomainError("evaluation point outside the closed unit disk around the center")
    target = series._cap
    if prec_hint is not None:
        target = prec_hint if target is None else min(target, prec_hint)
    kept = series.coeffs
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


@st.composite
def _evaluate_arguments(draw, es=None, most=10):
    """A series of 1 to ``most`` coefficients at e in ``es`` (1 to 5 by
    default), a point of every kind and a hint."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 5) if es is None else st.sampled_from(es))
    f = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(2 * e, 6 * e + 12))
    c = ctx_new(p, e, K, f)

    def number(lo, hi, zeros=True):
        """val in [lo, hi], prec up to K + e; now and then zero-flagged."""
        if zeros and draw(st.integers(0, 4)) == 0:
            return c.zero(draw(st.integers(lo, K + e)))
        val = draw(st.integers(lo, hi))
        prec = draw(st.integers(val + 1, max(val + 1, K + e)))
        n = prec - val
        return _read(c, val, [draw(st.integers(1, p ** f - 1))] + draw(
            st.lists(st.integers(0, p ** f - 1), min_size=n - 1, max_size=n - 1)), prec)

    center = number(0, 2)
    coeffs = [number(0, K) for _ in range(draw(st.integers(1, most)))]
    tail = draw(st.none() | st.integers(1, 3 * K).map(lambda t: Fraction(t, e)))
    s = TruncatedSeries(c, center, tuple(coeffs), tail)
    if draw(st.booleans()):  # negative valuations, and a lower tail bound
        s = TruncatedSeries(c, *_scale_ref(s, number(1, 2 * e, zeros=False).inv()))
    kind = draw(st.sampled_from(("center", "unit", "deep", "low", "outside", "void")))
    if kind == "center":  # dz zero-flagged
        point = center
    elif kind == "void":  # zero-flagged down to a negative precision
        point = c.zero(draw(st.integers(-2, 2)))
    elif kind == "outside":
        point = center + number(-e, -1, zeros=False)
    else:
        point = center + number(*{"unit": (0, 0), "deep": (1, 2 * e), "low": (0, 2)}[kind])
        if kind == "low":  # a point known below K
            point = point._cap_prec(draw(st.integers(1, K - 1)))
    cap = s._cap
    ref = K if cap is None else cap
    hint = draw(st.none() | st.integers(ref - 3 * e, ref - 1) | st.integers(ref + 1, ref + 3 * e))
    return s, point, hint


@given(_evaluate_arguments())
@settings(max_examples=300, deadline=None)
def test_evaluate_matches_horner_reference(case):
    s, point, hint = case
    got = _outcome(lambda pt: s.evaluate(pt, hint), point)
    assert got == _outcome(lambda pt: _evaluate_ref(s, pt, hint), point)


# The probe precision is the precision recurrence alone: decided by the
# shared rule, or run on Horner partial sums modulo pi^T.  It must be the
# precision of the Horner reference and of evaluate, on the series and on
# its derivative, at capped, zero-flagged and negative-precision probes.
# Up to 24 coefficients at e up to 10, so that evaluate may take blocks.

_WIDE_ES = (1, 2, 3, 4, 5, 10)


@given(_evaluate_arguments(es=_WIDE_ES, most=24))
@settings(max_examples=200, deadline=None)
def test_probe_precision_matches_the_pass(case):
    s, point, _ = case
    for series in (s, s.derivative()):
        want = _outcome(lambda pt: _evaluate_ref(series, pt).prec, point)
        assert _outcome(series._prec_at, point) == want
        assert _outcome(lambda pt: series.evaluate(pt).prec, point) == want


def test_evaluate_at_a_zero_point_of_negative_precision():
    # dz = 0 at precision -1 or -2 lowers the precision at every step; the
    # second series is carried to pi^36, which min_n(prec(c_n) + n v(dz))
    # would clamp to pi^35 before the first step
    c = ctx_new(5, 3, 30)
    rng = Random(15)
    high = tuple(sample(c, rng, valuation=24 + k)._lift_exact(60) for k in range(4))
    zero_top = (sample(c, rng, valuation=0)._lift_exact(36), c.zero(36))
    for coeffs in (high, zero_top):
        s = TruncatedSeries(c, c.zero(), coeffs, None)
        for point in (c.zero(-1), c.zero(-2)):
            for hint in (None, 20, 40):
                assert s.evaluate(point, hint) == _evaluate_ref(s, point, hint)


def _recorded_evaluations(monkeypatch, run) -> list:
    """Every (series, point, hint) that ``run()`` asks ``evaluate`` for, and
    every one whose zero a lift's closing check proves in its place."""
    calls = []
    evaluate, closes = TruncatedSeries.evaluate, TruncatedSeries._closes

    def record(series, point, prec_hint=None):
        calls.append((series, point, prec_hint))
        return evaluate(series, point, prec_hint)

    def record_closing(series, old, new, fx, fpx, target):
        ok = closes(series, old, new, fx, fpx, target)
        if ok:
            calls.append((series, new, target))
        return ok

    monkeypatch.setattr(TruncatedSeries, "evaluate", record)
    monkeypatch.setattr(TruncatedSeries, "_closes", record_closing)
    run()
    monkeypatch.undo()
    return calls


def test_evaluate_matches_reference_on_solver_calls(monkeypatch):
    # every (series, point, hint) the solver asks for on a heavy fixed-point
    # solve and a parameter fiber, replayed through both bodies
    def run():
        c = ctx_new(5, 10, 200)
        out = fixed_points_for_q(c.one() + sample(c, Random(12), valuation=3))
        assert len(out) == 3
        c3 = ctx_new(5, 3, 90)
        fiber = q_for_x(c3.from_int(5) + sample(c3, Random(13), valuation=4))
        assert len(fiber) >= 1

    calls = _recorded_evaluations(monkeypatch, run)
    assert len({id(s) for s, _, _ in calls}) >= 4 and len(calls) >= 50
    for s, point, hint in calls:
        assert s.evaluate(point, hint) == _evaluate_ref(s, point, hint)


def _jet_evaluations():
    # p = 2 has no fixed points to solve for: the series1 jet at 0 and its
    # derivative, at integer, unit and deep points, with and without hints
    c = ctx_new(2, 3, 60)
    rng = Random(16)
    s = series1(c.from_int(0), c.one() + sample(c, rng, valuation=4))
    points = [c.from_int(k) for k in (1, 3, 6)] + [sample(c, rng) for _ in range(3)]
    points += [sample(c, rng, valuation=v) for v in (1, 4)]
    for series in (s, s.derivative()):
        for point in points:
            for hint in (None, 9, 30):
                series.evaluate(point, hint)


def _solve_p7e5(f, rng):
    c = ctx_new(7, 5, 60, f)
    z = c.uniformizer() if rng is None else sample(c, rng, valuation=1)
    assert len(fixed_points_for_q(c.one() + z)) >= 1


@pytest.mark.parametrize("run", [
    _jet_evaluations,
    lambda: _solve_p7e5(1, Random(1)),
    lambda: _solve_p7e5(2, None),
], ids=["p2e3-jet", "p7e5-solve", "p7e5f2-solve"])
def test_evaluate_matches_reference_on_more_contexts(monkeypatch, run):
    # p = 2 at e = 3, p = 7 at e = 5, and residue degree 2, where the steps
    # and blocks pack rows of e slots, or the steps multiply by an integer
    calls = _recorded_evaluations(monkeypatch, run)
    assert len(calls) >= 20
    for s, point, hint in calls:
        assert s.evaluate(point, hint) == _evaluate_ref(s, point, hint)


@pytest.mark.parametrize("hint,n,steps,block,join,f", [
    (None, 12, 11, 0, 0, 1),   # at most 2B coefficients: Horner steps
    (6, 6, 5, 0, 0, 1),
    (None, 30, 7, 30, 3, 1),   # d^2 ... d^8 by steps, then four blocks
    (20, 20, 7, 20, 2, 1),     # a hint that cuts the third block
    ("short", 30, 29, 0, 0, 1),  # dz known to 5 digits: the recurrence is undecided
    (None, 30, 7, 30, 3, 2),   # residue degree 2 takes the same blocks
], ids=["None-12", "6-6", "None-30", "20-20", "short-30", "None-30-f2"])
def test_evaluate_operation_counts(monkeypatch, vector_products, hint, n, steps, block, join,
                                   f):
    # the PadicNumber loop paid a full * and + per step; a step of the
    # fixed-multiplier kernel packs dz once and calls no generic vector
    # product, and the block pass adds per coefficient one product of
    # packed integers, with one reduction per block; one normalization
    c = ctx_new(5, 3, 90, f)
    assert sees_one_product(c, lambda: vector_products["vec_mul"])
    vector_products["vec_mul"] = 0
    rng = Random(14)
    coeffs = tuple(sample(c, rng, valuation=k) for k in range(n if hint is None else 30))
    s = TruncatedSeries(c, c.one(), coeffs, None)
    point = c.one() + sample(c, rng, valuation=1)
    undecided = hint == "short"
    if undecided:
        point, hint = point._cap_prec(5), None
    counts = dict.fromkeys(("from_raw", "mul", "division"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(analytic, "_from_raw", counted("from_raw", analytic._from_raw))
    monkeypatch.setattr(PadicNumber, "__mul__", counted("mul", PadicNumber.__mul__))
    monkeypatch.setattr(analytic, "_horner_division",
                        counted("division", analytic._horner_division))
    got = s.evaluate(point, hint)
    assert vector_products == {"vec_mul": 0, "step": steps, "block": block, "join": join,
                               "power_term": 0, "power_join": 0}
    # only an undecided precision takes the pass that carries the recurrence
    assert counts == {"from_raw": 1, "mul": 0, "division": int(undecided)}
    monkeypatch.undo()
    assert got == _evaluate_ref(s, point, hint)


# -- the block pass against the Horner reference -------------------------


@st.composite
def _block_arguments(draw):
    """A series over up to 3B + 6 coefficients at f = 1, 2 or 3, digits from a
    drawn seed, and a point and hint; most draws leave the recurrence decided."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.sampled_from((1, 1, 2, 3)))
    e = draw(st.integers(2, 12 // f))  # e = 1 takes Horner steps
    K = draw(st.integers(2 * e, 4 * e + 8))
    c = ctx_new(p, e, K, f)
    rng = Random(draw(st.integers(0, 2 ** 32)))
    size = p ** f

    def number(lo, hi, top, zeros=True):
        """val in [lo, hi], prec up to top; now and then zero-flagged."""
        if zeros and draw(st.integers(0, 5)) == 0:
            return c.zero(draw(st.integers(max(lo, 0), top)))
        val = draw(st.integers(lo, hi))
        prec = draw(st.integers(val + 1, max(val + 1, top)))
        return _read(c, val, [rng.randrange(1, size)] + [rng.randrange(size)
                                                        for _ in range(prec - val)], prec)

    block = core._BLOCK  # a pass over more than 2B coefficients takes blocks
    n = draw(st.integers(2 * block + 1, 3 * block + 6) if draw(st.integers(0, 3))
             else st.integers(1, 2 * block))
    coeffs = [number(0, K, K + e) for _ in range(n)]
    tail = draw(st.none() | st.integers(1, 3 * K).map(lambda t: Fraction(t, e)))
    s = TruncatedSeries(c, number(0, 2, 3 * K, zeros=False), tuple(coeffs), tail)
    kind = draw(st.sampled_from(("integer", "unit", "deep", "center", "low")))
    if kind == "integer":
        point = s.center + c.from_int(draw(st.integers(0, 3 * p)))
    elif kind == "center":  # dz zero-flagged
        point = s.center
    else:
        point = s.center + number(*{"unit": (0, 0), "deep": (1, 2 * e), "low": (0, 1)}[kind],
                                  3 * K, zeros=False)
        if kind == "low":  # known to fewer digits: the recurrence may be undecided
            point = point._cap_prec(draw(st.integers(1, K)))
    hint = draw(st.none() | st.integers(1, K + 2 * e))  # cuts anywhere, mid-block too
    return s, point, hint


@given(_block_arguments())
@settings(max_examples=200, deadline=None)
def test_block_pass_matches_horner_reference(case):
    s, point, hint = case
    got = _outcome(lambda pt: s.evaluate(pt, hint), point)
    assert got == _outcome(lambda pt: _evaluate_ref(s, pt, hint), point)


def test_block_pass_clamps_an_exact_polynomial_to_its_packing(monkeypatch):
    # an exact polynomial packs its coefficients modulo pi^(max prec); a
    # hint above that must not widen the pass's modulus past it, or the
    # entries outgrow the slots they were packed for
    ran = []
    block_pass = PrimeContext._block_pass
    monkeypatch.setattr(PrimeContext, "_block_pass",
                        lambda ctx, *args: ran.append(args[3]) or block_pass(ctx, *args))
    for p, e in ((2, 2), (3, 4), (5, 10), (7, 12)):
        K = 6 * e
        c = ctx_new(p, e, K)
        top = [p - 1] * K  # every entry at its modulus - 1
        s = TruncatedSeries(c, c.zero(4 * K), (c.from_digits(0, top, K),) * (3 * core._BLOCK + 3),
                            None)
        point = c.from_digits(0, [p - 1] * 4 * K, 4 * K)
        for hint in (None, K, 2 * K, 3 * K):
            ran.clear()
            assert s.evaluate(point, hint) == _evaluate_ref(s, point, hint)
            assert ran == [K]


# -- the series builds against the PadicNumber recurrences ---------------
#
# The two loops below are the pre-change bodies of the series2 monomials
# and of the series1 jet's n >= 2 terms.  The running-product kernel must
# give the same coefficients, digit for digit, the same tail bound, or
# the same error.

def _series2_monomials_ref(x, m0, n_max=None):
    ctx = x.ctx
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
        n_max = analytic._n_for_tail(delta, Fraction(ctx.K, ctx.e), offset)
    ek = ctx.one()._div_int(2)
    coeffs = [ek]
    for k in range(1, n_max + 1):
        ek = ((ek * (x - ctx.from_int(k + 1))).scale_pi(t))._div_int(k + 2)
        coeffs.append(ek)
    return TruncatedSeries(ctx, ctx.zero(), tuple(coeffs), n_max * delta - offset)


def _jet_ref(x, q, n_max=None):
    ctx = q.ctx
    s = analytic._QSplit(q)
    x = analytic._integral(ctx, x, "series1")
    s.check("series1")
    delta = Fraction(s.y.val, ctx.e) - Fraction(1, ctx.p - 1)
    if n_max is None:
        n_max = analytic._n_for_tail(delta, Fraction(ctx.K, ctx.e))
    inv_y, big_l = s.inv_y, s.log_q
    qx = exp(x * big_l)
    coeffs = [(qx - s.one) * inv_y - x]
    term = qx * big_l * inv_y
    coeffs.append(term - s.one)
    for n in range(2, n_max + 1):
        term = (term * big_l)._div_int(n)
        coeffs.append(term)
    return TruncatedSeries(ctx, x, tuple(coeffs), n_max * delta)


def _built(build, *args):
    try:
        s = build(*args)
    except Exception as exc:  # the error type and message must match too
        return type(exc), str(exc)
    return s.center, s.coeffs, s.tail_bound


@st.composite
def _series_build_arguments(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 5))
    f = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(2 * e, 6 * e + 12))
    c = ctx_new(p, e, K, f)
    n_max = draw(st.none() | st.integers(1, 40))

    def number(lo, hi, top):
        """val in [lo, hi], prec up to top."""
        val = draw(st.integers(lo, hi))
        prec = draw(st.integers(val + 1, max(val + 1, top)))
        n = prec - val
        return _read(c, val, [draw(st.integers(1, p ** f - 1))] + draw(
            st.lists(st.integers(0, p ** f - 1), min_size=n - 1, max_size=n - 1)), prec)

    # an integer j = k + 1 <= n_max + 1 makes x - j a zero-flagged factor
    j = draw(st.integers(0, 2 + (40 if n_max is None else n_max)))
    kind = draw(st.sampled_from(("integer", "near", "low", "any")))
    if kind == "integer":
        x = c.from_int(j)
    elif kind == "near":  # x = j mod pi^k: a factor of positive valuation k
        k = draw(st.integers(1, 2 * e + 1))
        x = c.from_int(j) + number(k, k, K + e)
    elif kind == "low":  # known below K
        x = number(0, 2, K - 1)
    else:  # carried above K, or of negative valuation
        x = number(-1, 2, K + e)
    lo = e // (p - 1) + 1  # least t with t/e in S
    t = draw(st.sampled_from((lo - 1, lo, lo, lo + 1)) | st.integers(lo, lo + 3 * e))
    m0 = Fraction(t, draw(st.sampled_from((e, e, e, 2 * e))))  # t/2e: e m0 may not be integral
    q = c.one() + number(t, t, K + e) if t > 0 else c.one()
    return x, m0, q, n_max


@given(_series_build_arguments())
@settings(max_examples=300, deadline=None)
def test_series_builds_match_reference(case):
    x, m0, q, n_max = case
    assert (_built(analytic._series2_monomials, x, m0, n_max)
            == _built(_series2_monomials_ref, x, m0, n_max))
    assert _built(series1, x, q, n_max) == _built(_jet_ref, x, q, n_max)


# A series2 and a series1 jet form their vectors when a pass first reads
# them, resuming the running product from the last vector formed, and a
# derivative view reads its source's the same way.  Whatever the order of
# the reads, every value, precision, coefficient and count must be the one
# an eager build of the reference coefficients gives.

@st.composite
def _lazy_build_arguments(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.sampled_from(_WIDE_ES))
    f = draw(st.integers(1, 3))
    K = draw(st.integers(2 * e, 4 * e + 12))
    c = ctx_new(p, e, K, f)
    n_max = draw(st.integers(1, 30))

    def number(lo, hi, top=K + e):
        """val in [lo, hi], prec up to top."""
        val = draw(st.integers(lo, hi))
        prec = draw(st.integers(val + 1, max(val + 1, top)))
        n = prec - val
        return _read(c, val, [draw(st.integers(1, p ** f - 1))] + draw(
            st.lists(st.integers(0, p ** f - 1), min_size=n - 1, max_size=n - 1)), prec)

    # an integer x = j in 2..n_max+1 makes x - j, and the tail after it,
    # zero-flagged
    j = draw(st.integers(2, n_max + 1))
    kind = draw(st.sampled_from(("integer", "near", "low", "any")))
    if kind == "integer":
        x = c.from_int(j)
    elif kind == "near":  # a factor of positive valuation
        x = c.from_int(j) + number(1, 2 * e + 1)
    elif kind == "low":  # known below K
        x = number(0, 2, K - 1)
    else:
        x = number(0, 2)
    t = e // (p - 1) + draw(st.integers(1, 2 * e))  # t/e in S
    q = c.one() + number(t, t)

    def point(center):
        kind = draw(st.sampled_from(("center", "unit", "deep", "low", "void")))
        if kind == "center":
            return center
        if kind == "void":  # zero-flagged, at a precision down to negative
            return c.zero(draw(st.integers(-2, 2)))
        out = center + number(*{"unit": (0, 0), "deep": (1, 2 * e), "low": (0, 2)}[kind])
        return out._cap_prec(draw(st.integers(1, K - 1))) if kind == "low" else out

    # reads of the series (0), its derivative view (1) and the view's own
    # derivative (2), an evaluation at a point and a hint or a probe
    # precision, in the order drawn
    hint = st.none() | st.integers(1, K + 2 * e)
    reads = draw(st.lists(st.tuples(st.integers(0, 2), st.booleans(), hint),
                          min_size=1, max_size=6))
    return x, Fraction(t, e), q, n_max, [(k, ev, h, point) for k, ev, h in reads]


@given(_lazy_build_arguments(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_lazy_series_match_an_eager_build(case, jet):
    x, m0, q, n_max, reads = case
    if jet:
        lazy, ref = (lambda: series1(x, q, n_max)), (lambda: _jet_ref(x, q, n_max))
    else:
        lazy = lambda: series2(x, m0, n_max)
        ref = lambda: _series2_monomials_ref(x, m0, n_max)
    built = _as_built(lazy)
    if isinstance(built[0], type):  # an error, which must be the reference's
        assert built == _as_built(ref)
        return
    s, eager = lazy(), ref()
    eager.coeffs  # every vector of the reference formed before any read
    view = s.derivative()
    pairs = [(s, eager), (view, eager.derivative()),
             (view.derivative(), eager.derivative().derivative())]
    for k, ev, hint, point in reads:
        got, want = pairs[k]
        pt = point(eager.center)
        if ev:
            assert (_outcome(lambda z: got.evaluate(z, hint), pt)
                    == _outcome(lambda z: want.evaluate(z, hint), pt))
        else:
            assert _outcome(got._prec_at, pt) == _outcome(want._prec_at, pt)
    for got, want in pairs:
        assert (got.center, got.tail_bound, got._base) == (want.center, want.tail_bound, want._base)
        assert (got._vals, got._precs, got._lows) == (want._vals, want._precs, want._lows)
        assert (_outcome(unit_disk_zero_count, got)
                == _outcome(unit_disk_zero_count, want))
        assert got.coeffs == want.coeffs
    assert (view.center, view.coeffs, view.tail_bound) == _derivative_ref(eager)


def test_series2_monomial_steps_make_no_padic_arithmetic(monkeypatch):
    # each monomial step is one vector product and one reduction; the
    # PadicNumber chain paid a -, a *, a scale_pi and a _div_int.  The one
    # + and the one _div_int left are the x = 1 domain check and the
    # constant term 1/2.  The build forms only the valuations and
    # precisions, so it takes no product; the n products come when the
    # vectors are first read, here all of them through ``coeffs``
    counts = dict.fromkeys(("vec_mul", "mul", "add", "div_int"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    patch_kernel(monkeypatch, "_vec_mul", lambda vec_mul: counted("vec_mul", vec_mul))
    c = ctx_new(5, 3, 90)
    assert sees_one_product(c, lambda: counts["vec_mul"])
    x = c.from_int(5) + sample(c, Random(16), valuation=4)  # v(x - 5) = 4
    monkeypatch.setattr(PadicNumber, "__mul__", counted("mul", PadicNumber.__mul__))
    monkeypatch.setattr(PadicNumber, "__add__", counted("add", PadicNumber.__add__))
    monkeypatch.setattr(PadicNumber, "_div_int", counted("div_int", PadicNumber._div_int))
    for n in (1, 30):
        counts.update(dict.fromkeys(counts, 0))
        mono = analytic._series2_monomials(x, Fraction(1, 3), n)
        assert len(mono) == n + 1
        assert counts == {"vec_mul": 0, "mul": 0, "add": 1, "div_int": 1}
        mono.coeffs
        assert counts == {"vec_mul": n, "mul": 0, "add": 1, "div_int": 1}


# -- the raw series operations against their PadicNumber bodies ----------
#
# The functions below are the pre-change bodies of derivative and the
# synthetic division by (X - rho), on the PadicNumber coefficients.  The raw form must give the same
# coefficients, bit for bit, the same tail bound, or the same error.
# _divide_by_root_ref deflates a root, as the reference of Psi does.
# _scale_ref, the body of the scaling the fused series1 build replaced,
# builds the series of negative valuation the strategies draw.

def _derivative_ref(s):
    coeffs = tuple(c._scale(n, 1) for n, c in enumerate(s.coeffs) if n > 0)
    return s.center, coeffs, s.tail_bound


def _scale_ref(s, c):
    if c.is_zero:
        raise DomainError("scaling by a value with no exact valuation")
    shift = Fraction(c.val, s.ctx.e)
    tail = None if s.tail_bound is None else s.tail_bound + shift
    return s.center, tuple(c * ci for ci in s.coeffs), tail


def _horner_division_ref(coeffs, rho):
    """The partial sums s_i = c_i + rho s_(i+1) from the top, s_0 ...
    s_(n-1): the remainder at rho, then the quotient by (X - rho)."""
    sums = []
    for c in reversed(coeffs):
        sums.append(c + rho * sums[-1] if sums else c)
    return sums[::-1]


_NONZERO_REMAINDER = "nonzero remainder: the given point is not a root at precision"


def _divide_by_root_ref(s, root):
    rho = root - s.center
    if not rho.is_zero and rho.val < 0:
        raise DomainError("root outside the closed unit disk around the center")
    if len(s) < 2:
        raise DomainError("series too short to divide")
    rem, *out = _horner_division_ref(s.coeffs, rho)
    if not rem.is_zero:
        raise CertificationFailure(_NONZERO_REMAINDER)
    return s.center, tuple(out), s.tail_bound


def _on_base(ctx, base, coeffs):
    """The raw triples of these PadicNumbers stored on ``base``: each unit
    shifted onto it and reduced to its precision."""
    return tuple((None, None, c.prec) if c.is_zero else (c.val, ctx._vec_reduce(
        ctx._vec_shift(c._unit, c.val - base), c.prec - base), c.prec) for c in coeffs)


def _as_built(fn):
    """A series as (center, coeffs, tail bound), or the error it raised."""
    try:
        s = fn()
    except Exception as exc:  # the error type and message must match too
        return type(exc), str(exc)
    return (s.center, s.coeffs, s.tail_bound) if isinstance(s, TruncatedSeries) else s


@st.composite
def _raw_series_arguments(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 5))
    f = draw(st.sampled_from((1, 2)))
    K = draw(st.integers(2 * e, 6 * e + 12))
    c = ctx_new(p, e, K, f)

    def number(lo, hi, zeros=True):
        """val in [lo, hi], prec up to K + e; now and then zero-flagged."""
        if zeros and draw(st.integers(0, 4)) == 0:
            return c.zero(draw(st.integers(max(lo, 0), K + e)))
        val = draw(st.integers(lo, hi))
        prec = draw(st.integers(val + 1, max(val + 1, K + e)))
        n = prec - val
        return _read(c, val, [draw(st.integers(1, p ** f - 1))] + draw(
            st.lists(st.integers(0, p ** f - 1), min_size=n - 1, max_size=n - 1)), prec)

    center = number(0, 2)
    coeffs = [number(0, K) for _ in range(draw(st.integers(1, 10)))]
    rho = number(0, 2 * e)
    if draw(st.booleans()):  # center + rho a root: the coefficients of (X - rho) Q
        coeffs = ([-(rho * coeffs[0])] + [a - rho * b for a, b in zip(coeffs, coeffs[1:])]
                  + [coeffs[-1]])
    if draw(st.booleans()):  # the center a root at some precision
        coeffs[0] = c.zero(draw(st.integers(0, K + e)))
    tail = draw(st.none() | st.integers(1, 3 * K).map(lambda t: Fraction(t, e)))
    s = TruncatedSeries(c, center, tuple(coeffs), tail)
    assert s.coeffs == tuple(coeffs)
    if draw(st.booleans()):  # negative valuations, and a lower tail bound
        s = TruncatedSeries(c, *_scale_ref(s, number(1, 2 * e, zeros=False).inv()))
    if draw(st.integers(0, 9)) == 0:  # zero-flagged below the integers, as evaluate takes
        return s, c.zero(draw(st.integers(-3, -1)))
    return s, center + rho


def _exact_quadratic():
    """(X - 2)(X - 3) = 6 - 5X + X^2 and its root 2: the quotient is X - 3."""
    c = ctx_new(5, 1, 40)
    return TruncatedSeries(c, c.zero(), tuple(map(c.from_int, (6, -5, 1))), None), c.from_int(2)


@given(_raw_series_arguments())
@example(_exact_quadratic())
@settings(max_examples=300, deadline=None)
def test_raw_series_operations_match_reference(case):
    s, root = case
    e = s.ctx.e
    assert s.valuation_points() == [(n, None if d.is_zero else Fraction(d.val, e))
                                    for n, d in enumerate(s.coeffs)]
    assert _as_built(s.derivative) == _as_built(lambda: _derivative_ref(s))
    view = s.derivative()
    assert view._base == view.derivative()._base == s._base
    _assert_division_matches(s, s, root)


def _assert_division_matches(series, ref, root):
    """``_horner_division`` of the series' stored triples at rho = root -
    center must give the PadicNumber loop's partial sums on ref's
    coefficients, bit for bit, stored on the series' base: the quotient
    keeps that base, and the remainder is zero-flagged exactly where
    _divide_by_root_ref deflates.  Where that refuses before dividing, at a
    root outside the disk or a series too short, no pass runs."""
    rho = root - series.center
    want = _as_built(lambda: _divide_by_root_ref(ref, root))
    if not rho.is_zero and rho.val < 0:
        assert want == (DomainError, "root outside the closed unit disk around the center")
    elif len(series) < 2:
        assert want == (DomainError, "series too short to divide")
    else:
        base = series._base
        got = analytic._horner_division(base, list(series._stored()), rho, series._wall)
        assert all(v is None or v >= base for v, _, _ in got)
        assert tuple(got) == _on_base(series.ctx, base, _horner_division_ref(ref.coeffs, rho))
        assert (got[0][0] is None) == (want != (CertificationFailure, _NONZERO_REMAINDER))


@given(_evaluate_arguments(es=_WIDE_ES, most=24))
@settings(max_examples=200, deadline=None)
def test_derivative_view_matches_reference(case):
    # the view forms a vector when a pass first reads it: evaluations at a
    # hint before the vectors are all formed, of the view and of the view's
    # own derivative, then without one, then every coefficient, against
    # the Horner reference on the reference derivative's coefficients
    s, point, hint = case
    c = s.ctx
    view = s.derivative()
    second = view.derivative()
    ref = TruncatedSeries(c, *_derivative_ref(s))
    ref2 = TruncatedSeries(c, *_derivative_ref(ref))
    for series, want, h in ((second, ref2, hint), (view, ref, hint), (view, ref, None)):
        assert (_outcome(lambda pt: series.evaluate(pt, h), point)
                == _outcome(lambda pt: _evaluate_ref(want, pt, h), point))
    assert (view.center, view.coeffs, view.tail_bound) == _derivative_ref(s)
    assert (second.center, second.coeffs, second.tail_bound) == _derivative_ref(ref)
    assert view.valuation_points() == ref.valuation_points()
    assert view._base == second._base == s._base
    _assert_division_matches(view, ref, point)


# the fixed-points benchmark's legs, (p, e, K, v(q - 1)) in pi-units
_FIXED_POINT_LEGS = ((3, 1, 60, 1), (3, 4, 120, 3), (5, 3, 90, 1), (5, 10, 200, 3))


def _psi_ref(q):
    """Psi from PadicNumbers: F of ``_log_form_ref`` deflated by its root 1,
    as (F, Psi), Psi on F's base."""
    f = _log_form_ref(q)
    psi = TruncatedSeries(q.ctx, *_divide_by_root_ref(f, q.ctx.one()))
    assert psi._base == f._base
    return f, psi


def _stored_ref(series):
    """The raw triples a series of these PadicNumber coefficients stores
    on its base."""
    return _on_base(series.ctx, series._base, series.coeffs)


def _assert_matches_the_deflation(q) -> None:
    """The one pass of ``_QSplit.log_fiber`` must give the deflation of the
    PadicNumber-built F by its root 1, bit for bit: Psi's base, valuations,
    stored vectors and precisions.  F's ints, the count's input, and its
    vectors must be the reference's too, its constant -Psi_0 in value,
    precision and zero flag."""
    f, psi = analytic._QSplit(q).log_fiber()
    ref, want = _psi_ref(q)
    assert ((psi._base, psi._vals, tuple(psi._stored()), psi._precs, psi.tail_bound)
            == (want._base, want._vals, _stored_ref(want), want._precs, want.tail_bound))
    assert psi.coeffs == want.coeffs
    assert ((f._base, f._vals, f._precs, f.tail_bound)
            == (ref._base, ref._vals, ref._precs, ref.tail_bound))
    assert tuple(f._stored()) == _stored_ref(ref) and f.coeffs == ref.coeffs
    assert f.coeffs[0] == -psi.coeffs[0]


def test_deflation_at_bench_scale_matches_reference(monkeypatch):
    # the raw-series strategies draw at most 10 coefficients; Psi, F = (X - 1) Psi
    # divided by its root 1, is built from 66 to 99 coefficients of F (g's
    # jet had 124 to 426: F's terms gain v(q - 1) a term where the jet's
    # gained v(q - 1) - e/(p - 1)), each pass caught inside
    # fixed_points_for_q and compared bit for bit with the deflation of the
    # PadicNumber-built F
    seen = []
    log_fiber = analytic._QSplit.log_fiber

    def caught(split):
        seen.append(split.q)
        return log_fiber(split)

    monkeypatch.setattr(analytic._QSplit, "log_fiber", caught)
    rng = Random(21)
    for p, e, K, t in _FIXED_POINT_LEGS:
        c = ctx_new(p, e, K)
        fixed_points_for_q(c.one() + sample(c, rng, valuation=t))
    monkeypatch.undo()
    assert [len(_log_form_ref(q)) for q in seen] == [66, 47, 99, 77]
    for q in seen:
        _assert_matches_the_deflation(q)


@given(st.sampled_from((3, 5, 7)), st.integers(1, 10), st.sampled_from((1, 2)),
       st.integers(0, 2 ** 32), st.data())
@settings(max_examples=150, deadline=None)
def test_log_fiber_matches_the_deflation(p, e, f, seed, data):
    # Psi in one pass over the powers of u, against F = (X - 1) Psi built
    # from PadicNumbers, F_0 = -(F_1 + F_2 + ...), and divided by X - 1 by
    # the PadicNumber loop; F(1) = 0, which the division's zero remainder
    # checked, is the constant -Psi_0 being F_0 in value, precision and
    # zero flag.  q is known to K or to fewer digits
    K = data.draw(st.integers(2 * e, 6 * e + 12))
    c = ctx_new(p, e, K, f)
    t = data.draw(st.integers(e // (p - 1) + 1, min(2 * e, K - 1)))
    q = c.one() + sample(c, Random(seed), valuation=t)
    if t + 1 < K and data.draw(st.booleans()):
        q = q._cap_prec(data.draw(st.integers(t + 1, K - 1)))
    _assert_matches_the_deflation(q)


# Psi in X is the sums from the top of F's terms, packed and scaled with no
# reduction, each partial sum unpacked and reduced once.  The reference is
# the synthetic division it replaced: F's terms from PadicNumbers, stored on
# their base, divided by X - 1 in one _horner_division pass.  The packed
# derivative, n + 1 times the series' packed c_(n+1), must evaluate to the
# division's remainder on the derivative's formed vectors, on both sides of
# 2B kept coefficients, where evaluate turns from Horner steps to blocks.

def _log_fiber_case(p, e, f, seed, data):
    """q = 1 + y at a drawn (p, e, K, f) and t, known to K or below it."""
    K = data.draw(st.integers(2 * e, 6 * e + 12))
    c = ctx_new(p, e, K, f)
    t = data.draw(st.integers(e // (p - 1) + 1, min(2 * e, K - 1)))
    q = c.one() + sample(c, Random(seed), valuation=t)
    if t + 1 < K and data.draw(st.booleans()):
        q = q._cap_prec(data.draw(st.integers(t + 1, K - 1)))
    return q


@given(st.sampled_from((3, 5, 7)), st.integers(1, 10), st.sampled_from((1, 2)),
       st.integers(0, 2 ** 32), st.data())
@settings(max_examples=100, deadline=None)
@example(5, 10, 1, 12, None)
@example(3, 4, 2, 7, None)
@example(5, 3, 1, 3, None)
def test_packed_psi_is_the_horner_division_build(p, e, f, seed, data):
    if data is None:  # a fixed-points leg's (p, e, K) and t
        K, t = {(5, 10): (200, 3), (3, 4): (120, 3), (5, 3): (90, 1)}[p, e]
        c = ctx_new(p, e, K, f)
        q = c.one() + sample(c, Random(seed), valuation=t)
    else:
        q = _log_fiber_case(p, e, f, seed, data)
    c = q.ctx
    f_series, psi = analytic._QSplit(q).log_fiber()
    ref = _log_form_ref(q)
    terms = list(_on_base(c, ref._base, ref.coeffs[1:]))
    want = analytic._horner_division(ref._base, terms, c.one(), max(pr for *_, pr in terms))
    assert ((psi._base, psi._vals, psi._precs, tuple(psi._stored()))
            == (ref._base, tuple(v for v, *_ in want), tuple(pr for *_, pr in want), tuple(want)))
    # F's vectors are formed when read, each term's own reduction
    assert f_series._vecs == [] and tuple(f_series._stored())[1:] == tuple(terms)
    # the derivative, packed from Psi's packing, at a unit and a deep point,
    # at every hint that keeps a count from 2B - 1 to 2B + 2
    rng = Random(seed)
    view = psi.derivative()
    for point in (sample(c, rng), sample(c, rng, valuation=1)):
        hints = {h for h in range(-e, psi._cap + 1)
                 if 2 * core._BLOCK - 1 <= view._kept(h)[1] <= 2 * core._BLOCK + 2}
        for hint in sorted(hints) + [None]:
            _, n, wall = view._kept(hint)
            v, acc, prec = analytic._horner_division(
                view._base, list(view._stored(n)), point, wall)[0]
            want = c.zero(prec) if v is None else core._from_raw(c, view._base, acc, prec)
            assert view.evaluate(point, hint) == want, hint


@given(st.sampled_from((3, 5, 7)), st.integers(1, 10), st.sampled_from((1, 2)),
       st.integers(0, 2 ** 32), st.data())
@settings(max_examples=100, deadline=None)
def test_log_q_from_psi0_is_log1p(p, e, f, seed, data):
    # log q = y - y^2 Psi_0 to prec(y) is log1p(y) digit for digit, at that
    # precision; a Psi_0 too short for it leaves log q to log1p, and a log
    # already taken is kept
    q = _log_fiber_case(p, e, f, seed, data)
    c, t = q.ctx, (q - q.ctx.one()).val
    split = analytic._QSplit(q)
    psi = split.log_fiber()[1]
    split.log_from(psi)
    want = log1p(split.y)
    assert split.__dict__["log_q"] == want and want.prec == split.y.prec
    short = analytic._QSplit(q)
    psi0 = psi.coeffs[0]
    low = split.y.prec - 2 * t - 1  # 2t + prec(Psi_0) falls below prec(y)
    short.log_from(TruncatedSeries(c, c.zero(), [psi0._cap_prec(low)], None))
    assert "log_q" not in short.__dict__ and short.log_q == want
    held = analytic._QSplit(q)
    taken = held.log_q
    held.log_from(psi)
    assert held.log_q is taken


# The short probe pass: where the precision is not decided before the pass,
# _prec_at runs the division's pass modulo pi^T only on the coefficients
# below the first whose suffix sits at or above b + T, and the precision
# recurrence on ints above it.  On Psi in X and in U, series of up to 99
# coefficients whose suffix minima rise past b + T, and on their
# derivatives, it must be evaluate's precision and the whole pass's

@given(_series_build_arguments(), st.integers(0, 10 ** 6), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_short_probe_pass_is_the_whole_pass(case, seed, digits):
    x, m0, q, _ = case
    c = x.ctx
    series = []
    try:
        series.append(_log_form_in_u(x, m0))
    except DomainError:
        pass
    y = q - c.one()
    if not y.is_zero and in_S(y):
        series.append(analytic._QSplit(q).log_fiber()[1])
    rng = Random(seed)
    points = [sample(c, rng), sample(c, rng)._cap_prec(digits), sample(c, rng, valuation=1),
              sample(c, rng, valuation=1)._cap_prec(digits + 1), c.zero(digits)]
    for s in series + [s.derivative() for s in series]:
        for point in points:
            _, n, wall = s._kept(None)
            dz = s._offset(point)
            if not n or s._decided(dz, n, wall) is not None:
                continue
            whole = analytic._horner_division(s._base, list(s._stored(n)), dz, wall,
                                              min(wall - dz.prec, wall) - s._base)[0][2]
            assert s._prec_at(point) == s.evaluate(point).prec == whole


def test_deflation_measures_only_the_tied_partial_sums(monkeypatch):
    # Psi_(k-1) = F_k + Psi_k has the lesser of v(F_k) and v(Psi_k) when
    # they differ, so the pass measures a valuation only on a tie: on the
    # fiber at (5, 3, 90), 16 of Psi's 98 coefficients (58 of 376 on g's
    # jet), where a pass that measured every sum would measure 98
    calls = [0]
    patch_kernel(monkeypatch, "_vec_val", lambda vec_val: lambda ctx, *args: (
        calls.__setitem__(0, calls[0] + 1) or vec_val(ctx, *args)))
    c = ctx_new(5, 3, 90)
    q = c.one() + sample(c, Random(0), valuation=1)
    split = analytic._QSplit(q)
    calls[0] = 0
    psi = split.log_fiber()[1]
    measured = calls[0]
    f, want = _psi_ref(q)
    assert psi.coeffs == want.coeffs
    cs, sums = f.coeffs, want.coeffs + (c.zero(),)
    ties = sum(not (a.is_zero or b.is_zero) and a.val == b.val
               for a, b in zip(cs[1:], sums[1:]))
    assert (len(psi), measured, ties) == (98, 16, 16)


# -- the log form against PadicNumber references and against exp ---------
#
# fixed_points_for_q counts on F = Phi/(y^2 X) = (X - 1) Psi(X), q = 1 + y,
# and lifts Psi; q_for_x and local_Q lift Psi(x, pi^t U).  Phi = X log(1 + y)
# - log(1 + yX) and Psi = sum_(n>=2) (-1)^n y^(n-2) [n-1]_X / n.  The raw
# builders must give, digit for digit, the coefficients the PadicNumber
# chains below give, read in any order; and Psi must meet the bracket
# through q^X - 1 - yX = (1 + yX)(exp(Phi) - 1) at every claimed digit.

def _log_form_ref(q):
    """F from PadicNumbers: F_k = (-1)^(k+1) y^(k-1)/(k+1), u^(k-1) at y's
    relative precision, and F_0 = -(F_1 + F_2 + ...)."""
    ctx = q.ctx
    y = q - ctx.one()
    t = y.val
    u = y.scale_pi(-t)
    power, coeffs = ctx.one(y.prec - t), []
    for n in range(2, analytic._log_cutoff(ctx.p, ctx.e, t, ctx.K + 4 * t)):
        if n > 2:
            power = power * u
        coeffs.append(power.scale_pi((n - 2) * t)._scale((-1) ** n, n))
    c0 = -coeffs[0]
    for c in coeffs[1:]:
        c0 = c0 - c
    return TruncatedSeries(ctx, ctx.zero(), [c0] + coeffs, Fraction(ctx.K + 2 * t, ctx.e))


def _log_form_in_u_ref(x, m0):
    """Psi(x, pi^t U) from PadicNumbers: [n-1]_x = x [n-2]_x + 1 at
    min(prec(x), K), times (-1)^n pi^((n-2)t)/n."""
    ctx = x.ctx
    _series2_monomials_ref(x, m0, 1)  # series2's domain checks and errors
    t = int(m0 * ctx.e)
    one = ctx.one(min(x.prec, ctx.K))
    acc, coeffs = ctx.zero(one.prec), []
    for n in range(2, analytic._log_cutoff(ctx.p, ctx.e, t, ctx.K + 4 * t)):
        acc = acc * x + one
        coeffs.append(acc.scale_pi((n - 2) * t)._scale((-1) ** n, n))
    return TruncatedSeries(ctx, ctx.zero(), coeffs, Fraction(ctx.K + 2 * t, ctx.e))


def _log_form_in_u(x, m0):
    """analytic._log_form_in_u on the checked arguments that
    _parameter_series passes it."""
    t = analytic._parameter_t(x, m0)
    return analytic._log_form_in_u(x.ctx, t, min(x.prec, x.ctx.K), analytic._dz_vector(x))


def _read_then_built(build, point, hint):
    """A series as (evaluation at point to hint, center, coeffs, tail
    bound, base), the evaluation taken before any coefficient is read, or
    the error the build raised."""
    try:
        s = build()
    except Exception as exc:  # the error type and message must match too
        return type(exc), str(exc)
    return (_outcome(lambda z: s.evaluate(z, hint), point), s.center, s.coeffs, s.tail_bound,
            s._base)


@given(_series_build_arguments(), st.integers(0, 10 ** 6), st.none() | st.integers(1, 60))
@settings(max_examples=200, deadline=None)
def test_log_form_builds_match_reference(case, seed, hint):
    x, m0, q, _ = case
    c = x.ctx
    point = sample(c, Random(seed), valuation=min(seed % 3, c.K - 1))
    assert (_read_then_built(lambda: _log_form_in_u(x, m0), point, hint)
            == _read_then_built(lambda: _log_form_in_u_ref(x, m0), point, hint))
    y = q - c.one()
    if not y.is_zero and in_S(y):
        for i in (0, 1):  # F and Psi
            assert (_read_then_built(lambda: analytic._QSplit(q).log_fiber()[i], point, hint)
                    == _read_then_built(lambda: _psi_ref(q)[i], point, hint))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("e", [1, 3, 10])
def test_log_form_cutoff_leaves_every_term_above_the_tail(p, e):
    # term n of Psi has valuation >= (n - 2) t - e v_p(n): from the cutoff
    # on, every term sits at or above K + 2t, here checked term by term
    # over the next p^2 N terms
    for t in range(e // (p - 1) + 1, 3 * e + 2):
        for K in (2 * e, 7 * e + 3, 60 * e):
            c = ctx_new(p, e, K)
            n_stop = analytic._log_form_cutoff(c, t)
            assert all((n - 2) * t - e * core._vp(n, p) >= K + 2 * t
                       for n in range(n_stop, p * p * n_stop))


def test_parameter_series_at_an_integer_is_its_polynomial():
    # at an integer x = j that series2's monomials reach before Psi ends,
    # known to K or below it, or at x = j + pi^4 u known to 4 digits, the
    # parameter direction solves on series2's polynomial; near j, or at a j
    # past Psi's length, on Psi
    c = ctx_new(5, 3, 90)
    m0 = Fraction(1, 3)
    u = sample(c, Random(33), valuation=4)
    n = len(_log_form_in_u(c.from_int(7), m0))
    for x, polynomial in ((c.from_int(5), True), (c.from_int(5)._cap_prec(40), True),
                          (c.from_int(n + 1), True), (c.from_int(n + 2), False),
                          (c.from_int(5) + u, False), ((c.from_int(5) + u)._cap_prec(4), True)):
        want = analytic._series2_monomials if polynomial else _log_form_in_u
        assert (_built(analytic._parameter_series, x, m0)
                == _built(want, x, m0)), (x, polynomial)


@st.composite
def _exp_oracle_arguments(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    e = draw(st.integers(1, 5))
    c = ctx_new(p, e, draw(st.integers(2 * e, 8 * e + 12)), draw(st.sampled_from((1, 2))))
    rng = Random(draw(st.integers(0, 2 ** 32)))
    t = draw(st.integers(e // (p - 1) + 1, min(2 * e, c.K - 1)))
    q = c.one() + sample(c, rng, valuation=t)
    if draw(st.booleans()):  # known below K
        q = q._cap_prec(draw(st.integers(t + 1, c.K)))
    points = [c.zero(), c.one(), c.from_int(draw(st.integers(2, 3 * p)))] + [
        sample(c, rng, valuation=min(v, c.K - 1))
        for v in draw(st.lists(st.integers(0, 3), max_size=4))]
    return q, points


@given(_exp_oracle_arguments())
@settings(max_examples=100, deadline=None)
def test_log_form_meets_the_bracket_through_exp(case):
    # [x]_q - x = (1 + yx)(exp(y^2 x (x - 1) Psi(x)) - 1)/y, both sides to
    # the lesser of their claimed precisions, Psi evaluated on F deflated;
    # Psi's least valuation is at least -e, so both keep all but t + e of
    # the digits q has
    q, points = case
    c = q.ctx
    s = analytic._QSplit(q)
    y, one = s.y, c.one()
    psi = s.log_fiber()[1]
    for x in points:
        lhs = q_bracket(x, q) - x
        rhs = (one + y * x) * (exp(y * y * x * (x - one) * psi.evaluate(x)) - one) * s.inv_y
        assert (lhs - rhs).is_zero, x
        assert min(lhs.prec, rhs.prec) >= y.prec - y.val - c.e, x


def test_synthetic_division_takes_one_horner_pass_and_no_vector_product(monkeypatch):
    # synthetic division at a root that is no integer, so each step is a
    # packed product, builds one step kernel and calls _vec_mul never; the
    # series2 monomials build no step kernel
    counts = dict.fromkeys(("vec_mul", "horner_step"), 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    patch_kernel(monkeypatch, "_vec_mul", lambda vec_mul: counted("vec_mul", vec_mul))
    monkeypatch.setattr(PrimeContext, "_horner_step",
                        counted("horner_step", PrimeContext._horner_step))
    c = ctx_new(5, 3, 60)
    assert sees_one_product(c, lambda: counts["vec_mul"])
    rng = Random(22)
    root = sample(c, rng)
    quotient = [sample(c, rng) for _ in range(12)]
    s = TruncatedSeries(c, c.zero(), [-(root * quotient[0])] + [
        a - root * b for a, b in zip(quotient, quotient[1:])] + [quotient[-1]], None)
    want = _divide_by_root_ref(s, root)[1]
    stored = list(s._stored())
    counts.update(dict.fromkeys(counts, 0))
    rem, *got = analytic._horner_division(s._base, stored, root, s._wall)
    assert counts == {"vec_mul": 0, "horner_step": 1}
    assert rem[0] is None and tuple(got) == _on_base(c, s._base, want)
    counts.update(dict.fromkeys(counts, 0))
    series2(sample(c, rng), Fraction(1, 3)).coeffs  # the vectors, formed on this first read
    assert counts["horner_step"] == 0
