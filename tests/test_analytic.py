"""exp/log/bracket identities and truncated-series behavior.

Frozen constants in this file were computed with independent
integer/Fraction oracles (partial sums, big-integer Hensel, direct
factorial stripping) before the assertions were written.
"""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbracket import (
    DomainError,
    PrimeContext,
    TruncatedSeries,
    a_poly,
    cocycle_check,
    ctx_new,
    digit_sum,
    exp,
    factorial_valuation,
    in_S,
    log1p,
    q_bracket,
    q_pow,
    sample,
    series1,
    series2,
)


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
    s = series2(x, 0, m0)
    for _ in range(10):
        u = sample(c, rng, valuation=0)
        q = c.one() + c.from_int(3) * u
        lhs = s.evaluate(u) * (q - c.one()) * x * (x - c.one())
        rhs = q_bracket(x, q) - x
        assert (lhs - rhs).is_zero


def test_series2_recentering_matches_shift():
    c = ctx_new(3, 1, 60)
    x = c.from_rational(Fraction(-1, 2))
    u0 = c.from_int(1)
    mono = series2(x, 0, Fraction(1))
    cent = series2(x, u0, Fraction(1))
    rng = Random(10)
    for _ in range(10):
        du = sample(c, rng, valuation=rng.randrange(1, 4))
        a = mono.evaluate(u0 + du)
        b = cent.evaluate(u0 + du)
        assert (a - b).is_zero


def test_series2_rejects_non_unit_center():
    c = ctx_new(3, 1, 40)
    with pytest.raises(DomainError):
        series2(c.from_int(3), c.from_int(3), Fraction(1))


def test_divide_by_root_exact_polynomial():
    # (X-2)(X-3) = 6 - 5X + X^2 divided by the root 2 leaves -3 + X
    c = ctx_new(5, 1, 40)
    coeffs = (c.from_int(6), c.from_int(-5), c.from_int(1))
    s = TruncatedSeries(c, c.from_int(0), coeffs, None)
    qt = s.divide_by_root(c.from_int(2))
    assert (qt.coeffs[0] - c.from_int(-3)).is_zero
    assert (qt.coeffs[1] - c.one()).is_zero


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
    return (p, e, f, K), z, y, x, w, n


def _analytic_results(c, z, y, x, w, n):
    z, y, x, w = (_read(c, *a) for a in (z, y, x, w))
    q = c.one() + y
    out = {"exp": exp(z), "log1p": log1p(y), "q_pow": q_pow(x, q),
           "q_bracket": q_bracket(x, q), "q_pow(n)": q_pow(n, q), "[n]_q": q_bracket(n, q)}
    s = series1(x, q)
    out["series1(w)"] = s.evaluate(w)
    for k, ck in enumerate(s.coeffs[:8]):
        out[f"series1[{k}]"] = ck
    return out


@given(_analytic_inputs())
@settings(max_examples=40, deadline=None)
def test_analytic_layer_is_honest_below_claimed_precision(case):
    (p, e, f, K), z, y, x, w, n = case
    lo, hi = ctx_new(p, e, K, f), ctx_new(p, e, 2 * K, f)
    low = _analytic_results(lo, z, y, x, w, n)
    high = _analytic_results(hi, z, y, x, w, n)
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
def test_kernels_match_reference_at_5_10_600(seed):
    c = ctx_new(5, 10, 600)
    rng = Random(seed)
    for t in (3, rng.randrange(4, 30)):
        z = sample(c, rng, valuation=t)
        low = z._cap_prec(rng.randrange(t + 1, 600))
        for v in (z, low):
            assert exp(v) == _exp_ref(v)
            assert log1p(v) == _log1p_ref(v)


def test_kernel_product_counts(monkeypatch):
    # rectangular splitting keeps exp near 2 sqrt(N) vector products, and
    # argument reduction keeps log1p far below its N; the term-by-term
    # loops took one product per term (about 1200 and 210 here)
    calls = []
    vec_mul = PrimeContext._vec_mul
    monkeypatch.setattr(PrimeContext, "_vec_mul",
                        lambda ctx, a, b: calls.append(1) or vec_mul(ctx, a, b))
    c = ctx_new(5, 10, 600)
    z = sample(c, Random(11), valuation=3)  # N = 600/(3 - 10/4) = 1200 terms
    exp(z)
    assert len(calls) <= 3 * math.isqrt(1200) + 10
    calls.clear()
    log1p(z)
    assert len(calls) <= 60
