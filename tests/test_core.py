"""Arithmetic, precision bookkeeping, and literal round-trips."""

import copy
import inspect
import json
import math
import pickle
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbracket.core as _core
from qbracket import (
    ContextMismatch,
    PrecisionExhausted,
    PrimeContext,
    ZeroAtPrecision,
    ctx_new,
    equals_to_precision,
    fixed_points_for_q,
    q_for_x,
    sample,
)
from conftest import patch_kernel, sees_one_product


def test_context_validation():
    with pytest.raises(ValueError):
        ctx_new(4, 1, 40)
    with pytest.raises(ValueError):
        ctx_new(5, 0, 40)
    with pytest.raises(ValueError):
        ctx_new(5, 3, 5)
    c = ctx_new(5, 3, 90)
    assert (c.p, c.e, c.K) == (5, 3, 90)


def test_from_int_valuation_and_digits():
    c = ctx_new(5, 1, 30)
    x = c.from_int(10)
    assert x.val == 1
    assert x.digits()[0] == 2
    assert c.from_int(0).is_zero
    # ramified: v is measured in pi-units, so p itself has valuation e
    c3 = ctx_new(5, 3, 90)
    assert c3.from_int(5).val == 3
    assert c3.from_int(7).val == 0


def test_minus_half_is_all_ones_at_p3():
    # 1 + 3 + 9 + ... = 1/(1-3) = -1/2
    c = ctx_new(3, 1, 40)
    x = c.from_rational(Fraction(-1, 2))
    assert x.val == 0
    assert set(x.digits()) == {1}


def test_from_rational_covers_negative_valuation():
    # the field is all of Q_p(pi); disk membership is checked by the
    # analytic layer, not the representation
    c = ctx_new(3, 1, 40)
    assert c.from_rational(Fraction(1, 3)).val == -1
    assert c.from_rational(Fraction(2, 5)).val == 0


def test_from_rational_at_or_above_precision_is_zero():
    # p^5 and p^7 vanish modulo p^5; so does 3^9/3^4 = 3^5
    c = ctx_new(3, 1, 5)
    for num, den in ((3 ** 5, 1), (3 ** 7, 1), (3 ** 9, 3 ** 4), (-2 * 3 ** 6, 5)):
        assert c.from_rational(num, den) == c.zero()
    assert c.from_int(3 ** 4).val == 4 and c.from_int(3 ** 4).prec == 5
    c3 = ctx_new(5, 3, 7)  # 25 has valuation 6 < 7, 125 has 9
    assert c3.from_int(25).val == 6 and c3.from_int(125) == c3.zero()


def test_power_keeps_precision_above_K():
    # x ** n is a product of copies of x, never capped by one() at K
    c = ctx_new(5, 3, 30)
    x = sample(c, Random(3), valuation=1)
    y = x._lift_exact(40)
    assert y ** 1 == y
    assert y ** 2 == y * y and (y ** 2).prec == 41
    assert y ** 5 == y * y * y * y * y
    assert x ** 0 == c.one()
    half = c.from_rational(1, 5)  # val -3, relative precision K + 3
    assert half ** 2 == half * half
    assert (half ** -3 - c.from_int(125)).is_zero


def test_uniformizer_cubes_to_p():
    c = ctx_new(5, 3, 60)
    pi = c.from_digits(1, [1] + [0] * 58)
    d = pi * pi * pi - c.from_int(5)
    assert d.is_zero


def test_precision_rules_add_mul():
    c = ctx_new(3, 1, 50)
    a = c.from_digits(0, [1, 2, 1], prec=3)
    b = c.from_digits(0, [2, 2], prec=2)
    assert (a + b).prec == 2
    # product: valuations add, relative precision is the min of the two
    m = a * b
    assert m.val == 0
    assert m.prec == 2
    v = c.from_digits(2, [1, 1], prec=4)
    assert (a * v).val == 2
    assert (a * v).prec == 2 + min(3, 2)


def test_zero_flag_propagation():
    c = ctx_new(3, 1, 50)
    z = c.zero(10)
    a = c.from_int(7)
    assert (a + z).prec == 10
    assert (a * z).is_zero
    assert not (a + z).is_zero
    with pytest.raises(PrecisionExhausted):
        z.val


def test_subtraction_cancellation_is_zero_flagged():
    c = ctx_new(3, 1, 50)
    a = c.from_int(41)
    d = a - c.from_int(41)
    assert d.is_zero
    assert d.prec == 50


def test_inverse_and_division():
    c = ctx_new(7, 1, 40)
    a = c.from_int(12)
    assert (a * a.inv() - c.one()).is_zero
    with pytest.raises(PrecisionExhausted):
        c.zero(10).inv()


def test_valuation_method_and_zero_marker():
    c = ctx_new(5, 3, 90)
    assert c.from_int(5).valuation() == Fraction(1)
    assert c.from_int(7).valuation() == Fraction(0)
    zv = c.zero(30).valuation()
    assert isinstance(zv, ZeroAtPrecision)


def test_render_parse_round_trip():
    c = ctx_new(5, 3, 45)
    rng = Random(11)
    for _ in range(25):
        x = sample(c, rng, valuation=rng.randrange(0, 5))
        assert c.parse(x.render()) == x
    z = c.zero(17)
    assert c.parse(z.render()) == z


def test_parse_rejects_malformed():
    c = ctx_new(5, 3, 45)
    with pytest.raises(ValueError):
        c.parse("garbage")
    with pytest.raises(ValueError):
        c.parse("p^0*(1; prec=1)")  # wrong uniformizer token for e > 1
    with pytest.raises(ValueError):
        c.parse("pi^inf*(3; prec=9)")  # zero literal with digits


def test_from_digits_guards():
    c = ctx_new(3, 1, 30)
    with pytest.raises(ValueError):
        c.from_digits(0, [0, 1], prec=2)  # leading digit zero
    with pytest.raises(ValueError):
        c.from_digits(0, [3], prec=1)  # digit out of range
    with pytest.raises(ValueError):
        c.from_digits(0, [1, 1], prec=5)  # digit count mismatch


def _digits_reference(x):
    """Digit k as (entry k mod e // p^(k // e)) mod p, one division per digit."""
    c = x.ctx
    cols = [tuple((x._unit[b + k % c.e] // c.p ** (k // c.e)) % c.p
                  for k in range(x.prec - x.val)) for b in range(0, c._dim, c.e)]
    return cols[0] if c.f == 1 else tuple(zip(*cols))


def _vector_reference(c, digits):
    """from_digits' unit vector, summing digit k * p^(k // e) into entry k mod e."""
    cols = [digits] if c.f == 1 else list(zip(*digits))
    vec = []
    for col in cols:
        block = [0] * c.e
        for k, d in enumerate(col):
            block[k % c.e] += d * c.p ** (k // c.e)
        vec += block
    return tuple(vec)


@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 10), st.integers(1, 2),
       st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_digits_match_the_per_digit_formula_and_round_trip(p, e, f, seed):
    c = ctx_new(p, e, 4 * e, f)
    rng = Random(seed)
    for rel in (1, rng.randrange(1, e + 1), rng.randrange(1, 4 * e + 1)):  # rel < e included
        val = rng.randrange(-e, 2 * e)
        size = p ** f
        drawn = [rng.randrange(1, size)] + [rng.randrange(size) for _ in range(rel - 1)]
        digits = drawn if f == 1 else [tuple((d // p ** j) % p for j in range(f)) for d in drawn]
        x = c.from_digits(val, digits, val + rel)
        assert x._unit == _vector_reference(c, digits)
        assert x.digits() == tuple(digits) == _digits_reference(x)
        assert (x.val, x.prec) == (val, val + rel)
        y = sample(c, rng, valuation=rng.randrange(2 * e))._cap_prec(val + rel + 2 * e)
        if not y.is_zero:
            assert y.digits() == _digits_reference(y)
            assert c.from_digits(y.val, y.digits(), y.prec) == y


def test_json_round_trip():
    c = ctx_new(3, 1, 40)
    x = c.from_rational(Fraction(7, 5))
    blob = json.dumps(x.to_json())
    assert c.from_json(json.loads(blob)) == x
    with pytest.raises(ValueError):
        ctx_new(5, 1, 40).from_json(x.to_json())


def test_equals_to_precision():
    c = ctx_new(3, 1, 60)
    a = c.from_int(10)
    b = c.from_int(10 + 3 ** 7)
    assert equals_to_precision(a, b, 7)
    assert not equals_to_precision(a, b, 8)
    # undecidable: asking beyond what the operands carry
    with pytest.raises(PrecisionExhausted):
        equals_to_precision(c.zero(5), c.zero(5), 20)


def test_context_mixing_rejected():
    a = ctx_new(3, 1, 40).from_int(2)
    b = ctx_new(3, 2, 80).from_int(2)
    with pytest.raises(ContextMismatch):
        a + b


def test_sample_reproducible_and_valid():
    c = ctx_new(5, 2, 40)
    x1 = sample(c, Random(99), valuation=3)
    x2 = sample(c, Random(99), valuation=3)
    assert x1 == x2
    assert x1.val == 3
    r = sample(c, Random(5), residue=4)
    assert r.residue() == 4
    with pytest.raises(ValueError):
        sample(c, Random(1), residue=0)


@given(a=st.integers(-10 ** 9, 10 ** 9), b=st.integers(-10 ** 9, 10 ** 9))
@settings(max_examples=60, deadline=None)
def test_ring_ops_match_integers(a, b):
    c = ctx_new(3, 1, 80)
    fa, fb = c.from_int(a), c.from_int(b)
    assert ((fa + fb) - c.from_int(a + b)).is_zero
    assert ((fa * fb) - c.from_int(a * b)).is_zero
    assert ((fa - fb) - c.from_int(a - b)).is_zero


@given(num=st.integers(-10 ** 6, 10 ** 6), den=st.integers(1, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_rational_embedding_is_multiplicative(num, den):
    c = ctx_new(7, 1, 60)
    if den % 7 == 0 or num == 0:
        return
    x = c.from_rational(Fraction(num, den))
    assert (x * c.from_int(den) - c.from_int(num)).is_zero


@given(a=st.integers(1, 10 ** 12))
@settings(max_examples=60, deadline=None)
def test_valuation_is_multiplicative(a):
    c = ctx_new(5, 2, 60)
    x = c.from_int(a)
    y = c.from_int(a + 1)
    assert (x * y).val == x.val + y.val


# -- residue degree f > 1 ------------------------------------------------
#
# The oracle for Z_p[zeta] at e = 1 is plain integer arithmetic on
# coordinate pairs (a0, a1) for a0 + a1*zeta, reduced by the context's
# defining polynomial zeta^2 = -c1*zeta - c0 and compared modulo p^prec.
# Values enter and leave the library only through from_digits/digits.


def _vp_int(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(0, 2000), st.integers(1, 10 ** 30),
       st.booleans())
@settings(max_examples=300, deadline=None)
@example(3, 8, 1, False)  # the last plain division
@example(3, 9, 2, False)  # the first rung of the climb
@example(3, 8 + 1023, 1, False)  # the climb divides out p^(2^j - 1): one below
@example(3, 8 + 1024, 2, True)  # and at a rung
def test_vp_matches_the_one_p_at_a_time_loop(p, v, m, negative):
    # core's _vp divides by p up to 8 times, then climbs p, p^2, p^4, ...
    # and walks back down; it must give the loop's valuation of p^v m for
    # every unit part m, either sign
    m //= p ** _vp_int(m, p)
    n = (-1) ** negative * p ** v * m
    assert _core._vp(n, p) == _vp_int(n, p) == v


def _from_coords(c, coords):
    """Element sum coords[j] zeta^j at precision K (e = 1), via digits."""
    p, K = c.p, c.K
    v = min(_vp_int(a, p) for a in coords if a % p ** K)
    units = [a // p ** v if a % p ** K else 0 for a in coords]
    digits = [tuple((u // p ** k) % p for u in units) for k in range(K - v)]
    return c.from_digits(v, digits, K)


def _to_coords(x):
    """Coordinates of x modulo p^x.prec (e = 1), via digits."""
    c = x.ctx
    if x.is_zero:
        return [0] * c.f
    return [sum(d[j] * c.p ** (x.val + k) for k, d in enumerate(x.digits()))
            for j in range(c.f)]


def _oracle_mul(c, a, b):
    c0, c1 = c.modulus[0], c.modulus[1]
    hi = a[1] * b[1]
    return [a[0] * b[0] - c0 * hi, a[0] * b[1] + a[1] * b[0] - c1 * hi]


def _agree(x, coords):
    mod = x.ctx.p ** x.prec
    return all((u - w) % mod == 0 for u, w in zip(_to_coords(x), coords))


def test_unramified_ops_match_integer_polynomials():
    rng = Random(41)
    for p in (2, 3, 5, 7):
        c = ctx_new(p, 1, 30, f=2)
        K = c.K
        for _ in range(40):
            # a unit and a value with coordinates of unequal valuation
            a = [rng.randrange(p ** K), rng.randrange(1, p) + p * rng.randrange(p ** K)]
            b = [p ** rng.randrange(0, 4) * rng.randrange(1, p ** 8),
                 p ** rng.randrange(0, 4) * rng.randrange(p ** 8)]
            x, y = _from_coords(c, a), _from_coords(c, b)
            assert x.val == 0 and y.val == min(_vp_int(t, p) for t in b if t)
            s = x + y
            assert s.prec == K and _agree(s, [u + w for u, w in zip(a, b)])
            m = x * y
            assert m.val == y.val and m.prec == K
            assert _agree(m, _oracle_mul(c, a, b))
            xi = x.inv()
            assert xi.prec == K and _agree(x * xi, [1, 0])
            prod = _oracle_mul(c, a, _to_coords(xi))
            assert (prod[0] - 1) % p ** K == 0 and prod[1] % p ** K == 0
            n = rng.choice((7, 10, p, p * p * 3 + p))
            k = _vp_int(n, p)
            d = x._div_int(n)
            assert d.val == -k and d.prec == K - k
            # p^k * d is integral; its coordinates times n/p^k give a back
            scaled = _to_coords(d.scale_pi(k))
            assert all((n // p ** k * t - u) % p ** K == 0 for t, u in zip(scaled, a))


def test_unramified_ramified_pi_cubed_and_exact_valuation():
    c = ctx_new(5, 3, 60, f=2)
    pi = c.uniformizer()
    assert (pi * pi * pi - c.from_int(5)).is_zero
    zeta = c.from_residue((0, 1))
    assert (zeta * zeta + c.from_int(c.modulus[1]) * zeta + c.from_int(c.modulus[0])).is_zero
    rng = Random(42)
    for _ in range(60):
        # x = sum_i pi^i (a_i0 + a_i1 zeta), coordinates of mixed valuation
        coeffs = [[5 ** rng.randrange(0, 5) * rng.randrange(1, 5) if rng.random() < 0.8 else 0
                   for _ in range(2)] for _ in range(3)]
        if not any(map(any, coeffs)):
            continue
        x = c.zero()
        for i, (a0, a1) in enumerate(coeffs):
            x = x + (c.from_int(a0) + c.from_int(a1) * zeta) * c.pi_pow(i) if a0 or a1 else x
        want = min(3 * _vp_int(a, 5) + i for i, pair in enumerate(coeffs) for a in pair if a)
        assert x.val == want
        y = sample(c, rng, valuation=rng.randrange(0, 4))
        assert (x * y).val == x.val + y.val


def test_mixed_residue_degrees_rejected():
    a = ctx_new(5, 3, 90).from_int(2)
    b = ctx_new(5, 3, 90, f=2).from_int(2)
    for op in (lambda: a + b, lambda: b * a, lambda: b - a):
        with pytest.raises(ContextMismatch):
            op()


def test_deepcopy_keeps_context_parameters():
    for f in (1, 2):
        x = ctx_new(5, 3, 30, f=f).from_int(7)
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y.ctx) is type(x.ctx) and y.ctx.f == f
            assert y.render() == x.render() and (y * y).render() == (x * x).render()
    # records solved in contexts whose caches hold the packed passes'
    # closures: a context pickles as (p, e, K, f), once per pickle, so the
    # numbers of a record share one rebuilt context with empty caches
    heavy = ctx_new(5, 10, 200)
    for records in (fixed_points_for_q(ctx_new(3, 1, 60).from_int(4)),
                    fixed_points_for_q(heavy.one() + sample(heavy, Random(12), valuation=3)),
                    q_for_x(ctx_new(5, 3, 90, f=2).from_int(5)).records):
        assert records
        back = pickle.loads(pickle.dumps(list(records)))
        ctx, was = back[0].x.ctx, records[0].x.ctx
        assert (ctx.p, ctx.e, ctx.K, ctx.f, ctx._kernels) == (was.p, was.e, was.K, was.f,
                                                              was._kernels)
        assert not (ctx._pp or ctx._mods or ctx._packers)
        for rec, got in zip(records, back):
            assert got.x.ctx is ctx and got.q.ctx is ctx and got.u.ctx is ctx
            assert [got.x.render(), got.q.render(), got.u.render()] == [
                rec.x.render(), rec.q.render(), rec.u.render()]
            assert (got.x - got.q).render() == (rec.x - rec.q).render()


@pytest.mark.parametrize("e,f,kernels", [
    (1, 1, "zp"), (2, 1, "schoolbook"), (4, 1, "schoolbook"), (5, 1, "packed"),
    (1, 2, "packed"), (2, 2, "packed"), (3, 3, "packed")])
def test_kernel_set_is_chosen_by_e_and_f(e, f, kernels):
    # Z_p at e = f = 1, the schoolbook product at f = 1 below e = 5, packed
    # products elsewhere; evaluate takes blocks only at e > 1.  q^n is priced
    # as one pow in Z_p and as square and multiply elsewhere, by the table's
    # plain function, which holds no context.  A pickled context binds the
    # same set again
    c = ctx_new(3, e, None, f)
    price = PrimeContext._price_zp if kernels == "zp" else PrimeContext._price_chain
    for y in (c, pickle.loads(pickle.dumps(c))):
        assert y._kernels == kernels
        # the inverse goes by f: on integers at f = 1, by doubling at f > 1;
        # the pack function by whether there is more than one row of blocks
        assert y._vec_inv == (y._inv_doubling if f > 1 else y._inv_norm if e > 1 else y._inv_zp)
        assert (y._pack_vec is _core._pack) == (f == 1 or e == 1)
        for name, kernel in PrimeContext._KERNELS[kernels].items():
            assert getattr(y, name) == kernel.__get__(y)
        assert y._pow_price is price and inspect.isfunction(price)
        # 26 has 5 bits, 3 of them set, and 3^60 has 96 bits
        assert y._pow_price(3, 26, 60) == (5 * 9 // 24 if kernels == "zp" else 4 * 6)
        assert y._block_over == (math.inf if e == 1 else 2 * _core._BLOCK)


def test_modulus_generates_a_field():
    # no zero divisors in F_p[z]/(g), checked by brute force
    for p, f in ((2, 2), (2, 3), (3, 2), (5, 2), (2, 4), (3, 3)):
        g = ctx_new(p, 1, 20, f=f).modulus
        assert len(g) == f + 1 and g[-1] == 1

        def mul(a, b):
            prod = [0] * (2 * f - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
            for d in range(2 * f - 2, f - 1, -1):
                for j in range(f):
                    prod[d - f + j] -= prod[d] * g[j]
            return [t % p for t in prod[:f]]

        elems = [[(n // p ** j) % p for j in range(f)] for n in range(1, p ** f)]
        assert all(any(mul(a, b)) for a in elems for b in elems)


def test_residue_field_and_sample_at_f2(monkeypatch):
    c = ctx_new(3, 2, 20, f=2)
    field = c.residue_field()
    assert len(set(field)) == 9 and field[:3] == ((0, 0), (1, 0), (2, 0))
    for r in field[1:]:
        x = sample(c, Random(7), valuation=0, residue=r)
        assert x.residue() == r and c.from_residue(r).residue() == r
        assert (x - c.from_residue(r)).val > 0
    assert c.from_int(3).residue() == (0, 0)
    with pytest.raises(ValueError):
        sample(c, Random(1), residue=(0, 0))
    for bad in ([1, 0], (1,), (1, 0, 0), (3, 0), (1, -1)):
        with pytest.raises(ValueError, match="residue must be"):
            sample(c, Random(1), residue=bad)
    # the base field keeps plain ints
    assert ctx_new(3, 2, 20).residue_field() == (0, 1, 2)
    # the residue's coordinates are checked directly, so a draw does not
    # build the p^f tuples of the whole field
    want = sample(c, Random(7), residue=(2, 1))

    def refuse(self):
        raise AssertionError("residue_field built")

    monkeypatch.setattr(type(c), "residue_field", refuse)
    assert sample(c, Random(7), residue=(2, 1)) == want and want.residue() == (2, 1)


def test_from_residue_checks_its_argument_in_every_degree():
    c = ctx_new(5, 2, 20)
    for ctx in (ctx_new(5, 1, 20), c, ctx_new(5, 10, 200)):
        assert [ctx.from_residue(r) for r in ctx.residue_field()] == \
            [ctx.from_int(r) for r in range(5)]
    c2 = ctx_new(5, 2, 20, f=2)
    for ctx, bad in ((c, 7), (c, -1), (c, 5), (c2, (5, 0)), (c2, (1,))):
        with pytest.raises(ValueError, match="residue must be"):
            ctx.from_residue(bad)


def test_render_parse_json_at_f2_carry_f():
    c = ctx_new(5, 3, 45, f=2)
    rng = Random(43)
    for _ in range(20):
        x = sample(c, rng, valuation=rng.randrange(0, 5))
        text = x.render()
        assert text.endswith(f"; prec={x.prec}; f=2)")
        assert c.parse(text) == x
        blob = json.loads(json.dumps(x.to_json()))
        assert blob["f"] == 2 and c.from_json(blob) == x
    z = c.zero(17)
    assert c.parse(z.render()) == z and z.render() == "pi^inf*(; prec=17; f=2)"
    base = ctx_new(5, 3, 45)
    with pytest.raises(ValueError):
        base.parse(x.render())
    with pytest.raises(ValueError):
        base.from_json(x.to_json())
    with pytest.raises(ValueError):
        c.parse(base.from_int(7).render())
    with pytest.raises(ValueError):
        c.from_digits(0, [3, 1], prec=2)  # f = 2 digits are coordinate pairs
    # f = 1 output is unchanged: 7 = 1 + 2*3, and no "f" key
    y = ctx_new(3, 1, 5).from_int(7)
    assert y.render() == "p^0*(1 2 0 0 0; prec=5)"
    assert y.to_json() == {"p": 3, "e": 1, "val": 0, "digits": [1, 2, 0, 0, 0], "prec": 5}


# -- precision honesty ----------------------------------------------------
#
# Every digit below a result's claimed precision must be right.  Inputs
# are drawn as digits known to 2K and read once in a K context and once
# in a 2K context; each K result must agree with the 2K result below its
# own precision.  At e = f = 1 the digits also spell exact rationals, and
# each K result must agree with the exact result below its precision.

_HONESTY_CASES = ((2, 1, 1), (3, 1, 1), (5, 3, 1), (5, 10, 1), (3, 2, 2), (5, 1, 2))


@st.composite
def _honesty_inputs(draw):
    p, e, f = draw(st.sampled_from(_HONESTY_CASES))
    K = 4 * e + 8
    size = p ** f

    def number(val, prefix=()):
        head = list(prefix) or [draw(st.integers(1, size - 1))]
        n = 2 * K - val - len(head)
        return val, head + draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))

    a = number(draw(st.integers(-e, 2 * e)))
    # b sometimes repeats a's leading digits, so that a - b cancels them
    share = draw(st.integers(0, K))
    b = number(a[0], a[1][:share]) if share else number(draw(st.integers(-e, 2 * e)))
    n = draw(st.integers(-60, 60).filter(bool))
    return (p, e, f, K), a, b, n


def _read(c, val, digits):
    digits = digits[:c.K - val]
    if c.f > 1:
        digits = [tuple((d // c.p ** j) % c.p for j in range(c.f)) for d in digits]
    return c.from_digits(val, digits, c.K)


def _honest_ops(a, b, n):
    return {"+": a + b, "-": a - b, "*": a * b, "inv": a.inv(), "div_int": a._div_int(n)}


def _agrees_below(x, y):
    """Does y, known at least as precisely as x, match x modulo pi^x.prec?"""
    if y.prec < x.prec:
        return False
    if x.is_zero:
        return y.is_zero or y.val >= x.prec
    return not y.is_zero and y.val == x.val and y.digits()[:x.prec - x.val] == x.digits()


def _rational(val, digits, p):
    return Fraction(p) ** val * sum(d * p ** k for k, d in enumerate(digits))


@given(_honesty_inputs())
@settings(max_examples=100, deadline=None)
def test_core_ops_are_honest_below_claimed_precision(case):
    (p, e, f, K), a, b, n = case
    lo, hi = ctx_new(p, e, K, f), ctx_new(p, e, 2 * K, f)
    low = _honest_ops(_read(lo, *a), _read(lo, *b), n)
    high = _honest_ops(_read(hi, *a), _read(hi, *b), n)
    for op, x in low.items():
        assert _agrees_below(x, high[op]), op
    if e == f == 1:
        ra, rb = _rational(*a, p), _rational(*b, p)
        exact = {"+": ra + rb, "-": ra - rb, "*": ra * rb, "inv": 1 / ra, "div_int": ra / n}
        for op, x in low.items():
            d = exact[op] - (0 if x.is_zero else _rational(x.val, x.digits(), p))
            assert d == 0 or _vp_int(d.numerator, p) - _vp_int(d.denominator, p) >= x.prec, op


# -- the upward pi-shift -------------------------------------------------
#
# _vec_shift builds an upward shift from two slices per block.  The
# per-entry loop below is the shift it replaced; it must give the same
# vector, a downward shift must undo it, and + and * must not change.

_SHIFT_CASES = ((3, 1, 1), (5, 3, 1), (5, 10, 1), (3, 2, 2), (5, 1, 2))


def _vec_shift_ref(c, vec, t):
    e = c.e
    out = [0] * c._dim
    for k, ak in enumerate(vec):
        if not ak:
            continue
        i = k % e
        s, r = divmod(i + t, e)
        if s >= 0:
            out[k - i + r] += ak * c.p ** s
        else:
            q, rem = divmod(ak, c.p ** -s)
            if rem:
                raise PrecisionExhausted("non-integral shift; internal valuation accounting broke")
            out[k - i + r] += q
    return out


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_vec_shift_matches_per_entry_loop(data):
    draw = data.draw
    p, e, f = draw(st.sampled_from(_SHIFT_CASES))
    K = 4 * e + 8
    c = ctx_new(p, e, K, f)
    rel = draw(st.integers(1, K))
    vec = c._vec_reduce(draw(st.lists(st.integers(0, p ** K), min_size=e * f,
                                      max_size=e * f)), rel)
    t = draw(st.integers(0, 3 * e))
    up = c._vec_shift(vec, t)
    assert up == _vec_shift_ref(c, vec, t)
    assert c._vec_shift(up, -t) == list(vec)
    size = p ** f
    a, b = (_read(c, draw(st.integers(-e, 2 * e)), [draw(st.integers(1, size - 1))] + draw(
        st.lists(st.integers(0, size - 1), min_size=2 * K, max_size=2 * K))) for _ in "ab")
    got = (a + b, a - b, a * b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PrimeContext, "_vec_shift", _vec_shift_ref)
        assert got == (a + b, a - b, a * b)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_down_shift_by_the_valuation_stays_reduced(data):
    # _from_raw takes the down-shifted vector as its unit without reducing
    # it again: entry i of a vector reduced modulo pi^rel moves to
    # (i - v) mod e and sheds exactly the power of p its bound loses
    draw = data.draw
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 10))
    f = draw(st.integers(1, 3))
    K = draw(st.integers(2 * e, 4 * e + 8))
    c = ctx_new(p, e, K, f)
    rel = draw(st.integers(1, K))
    raw = draw(st.lists(st.integers(0, p ** K), min_size=e * f, max_size=e * f))
    vec = c._vec_reduce(c._vec_shift(raw, draw(st.integers(0, rel))), rel)
    v = c._vec_val(vec, rel)
    if v is None:
        return
    down = tuple(c._vec_shift(vec, -v))
    assert down == c._vec_reduce(down, rel - v)


# -- exact scalars -------------------------------------------------------
#
# from_rational, from_int, one, pi_pow and _div_int share one scaling
# body.  The functions below are the separate bodies it replaced;
# every entry point must give the same value, or the same error, as its
# reference over contexts, scalars and values drawn at the edges:
# zero-flagged values (also at negative precision), values carried above
# K, negative valuations, few digits, and scalars that are p-powers,
# negative, above p^K, or fractions with p on both sides.


def _from_rational_ref(c, num, den=1):
    if den == 0:
        raise ValueError("zero denominator")
    if num == 0:
        return c.zero()
    frac = Fraction(num, den)
    num, den = frac.numerator, frac.denominator
    a = _core._vp(num, c.p)
    b = _core._vp(den, c.p)
    val = c.e * (a - b)
    if val >= c.K:
        return c.zero()
    rel = c.K - val
    mod = c.p ** _core._ceil_div(rel, c.e)
    u = (num // c.p ** a) * pow(den // c.p ** b, -1, mod) % mod
    vec = [0] * c._dim
    vec[0] = u
    return _core.PadicNumber(c, val, c._vec_reduce(vec, rel), c.K, False)


def _one_ref(c, prec=None):
    if prec is None:
        return _from_rational_ref(c, 1, 1)
    if prec < 1:
        raise ValueError("one() needs at least one digit of precision")
    vec = [0] * c._dim
    vec[0] = 1
    return _core.PadicNumber(c, 0, c._vec_reduce(vec, prec), prec, False)


def _pi_pow_ref(c, t):
    vec = [0] * c._dim
    vec[0] = 1
    return _core.PadicNumber(c, t, c._vec_reduce(vec, c.K), c.K + t, False)


def _div_int_ref(x, n):
    if n == 0:
        raise ZeroDivisionError("division by integer zero")
    if n < 0:
        return _div_int_ref(-x, -n)
    if n == 1:
        return x
    c = x.ctx
    k = _core._vp(n, c.p)
    m = n // c.p ** k
    if x.is_zero:
        return c.zero(x.prec - k * c.e)
    rel = x.prec - x.val
    if m == 1:
        vec = x._unit
    else:
        minv = pow(m, -1, c.p ** _core._ceil_div(rel, c.e))
        vec = c._vec_reduce([a * minv for a in x._unit], rel)
    val = x.val - k * c.e
    return _core.PadicNumber(c, val, vec, val + rel, False)


def _outcome(fn, *args):
    try:
        x = fn(*args)
    except Exception as exc:  # the error itself is part of the outcome
        return type(exc), str(exc)
    return x, x.render()


def _scalar(draw, c):
    p, K = c.p, c.K
    sign = draw(st.sampled_from((1, -1)))
    unit = draw(st.integers(1, 10 ** 6).filter(lambda u: u % p))
    edge = -(-K // c.e)  # p^edge is the least p-power that vanishes at K
    k = draw(st.integers(1, K + 3) | st.sampled_from((edge - 1, edge, edge + 1)))
    return sign * draw(st.sampled_from((
        0, 1, unit, p ** k, p ** k * unit,
        p ** K + draw(st.integers(1, p ** K)),
        draw(st.integers(1, 10 ** 12)))))


def _value(draw, c):
    kind = draw(st.sampled_from(("zero", "full", "lifted", "low")))
    if kind == "zero":
        return c.zero(draw(st.integers(-c.K, c.K + c.e)))
    val = draw(st.integers(-2 * c.e, min(2 * c.e, c.K - 1)))
    rel = draw(st.integers(1, 3)) if kind == "low" else c.K - val
    size = c.p ** c.f
    digits = [draw(st.integers(1, size - 1))] + draw(
        st.lists(st.integers(0, size - 1), min_size=rel - 1, max_size=rel - 1))
    if c.f > 1:
        digits = [tuple((d // c.p ** j) % c.p for j in range(c.f)) for d in digits]
    x = c.from_digits(val, digits, val + rel)
    return x._lift_exact(2 * c.K) if kind == "lifted" else x


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_scalar_entry_points_match_separate_bodies(data):
    draw = data.draw
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 5))
    f = draw(st.sampled_from((1, 2)))
    c = ctx_new(p, e, draw(st.integers(2 * e, 6 * e + 10)), f)
    x = _value(draw, c)
    n = _scalar(draw, c)
    assert _outcome(x._div_int, n) == _outcome(_div_int_ref, x, n)
    assert _outcome(c.from_int, n) == _outcome(_from_rational_ref, c, n)
    num, den = n, _scalar(draw, c)
    if draw(st.booleans()):  # p on both sides before cancelling
        shared = p ** draw(st.integers(1, 4))
        num, den = num * shared, den * shared
    args = draw(st.sampled_from((
        (num, den), (num, Fraction(den)), (Fraction(num), Fraction(den)),
        (Fraction(num, den),) if den else (num, den))))
    assert _outcome(c.from_rational, *args) == _outcome(_from_rational_ref, c, *args)
    t = draw(st.integers(-c.K, c.K))
    assert _outcome(c.pi_pow, t) == _outcome(_pi_pow_ref, c, t)
    assert _outcome(c.one) == _outcome(_one_ref, c)
    prec = draw(st.integers(-2, 2 * c.K))
    assert _outcome(c.one, prec) == _outcome(_one_ref, c, prec)


def test_from_int_builds_no_fraction(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(_core, "Fraction", counting)
    c = ctx_new(5, 3, 90)
    assert c.from_int(12345) == _from_rational_ref(c, 12345)
    assert c.one() == _one_ref(c)
    assert calls == []


# -- the vector product --------------------------------------------------
#
# _vec_mul packs its operands into one big-integer product at f > 1 and
# from _core._PACKED_MIN_E on.  The function below is the kernel it
# replaced, a schoolbook double loop at f = 1 and at f > 1 a walk of the
# products of basis elements, zeta^f expanded by the defining polynomial;
# every product must be the same list of unreduced integers.  Operands are
# drawn reduced, wide (entries up to 2^400), all-ones in k bits (the
# largest slot sums), zero, with one nonzero entry, or tiny, and the two
# operands of a product are drawn independently, so their bit lengths
# can differ by hundreds.

def _product_table(p, e, modulus):
    """table[k1][k2] lists the pairs (k, m) with basis element k1 times
    basis element k2 = sum m * element k, element j*e + i being zeta^j pi^i:
    pi^e is folded to p, and zeta^d for d >= f is expanded by
    zeta^f = -sum modulus[j] zeta^j."""
    f = len(modulus) - 1
    powers = [[int(j == d) for j in range(f)] for d in range(f)]
    for _ in range(f - 1):
        top = powers[-1]
        nxt = [0] + top[:-1]
        for j in range(f):
            nxt[j] -= top[-1] * modulus[j]
        powers.append(nxt)
    table = []
    for k1 in range(e * f):
        j1, i1 = divmod(k1, e)
        row = []
        for k2 in range(e * f):
            j2, i2 = divmod(k2, e)
            carry, i = divmod(i1 + i2, e)
            row.append([(j * e + i, z * p ** carry)
                        for j, z in enumerate(powers[j1 + j2]) if z])
        table.append(row)
    return table


_TABLES = {}


def _vec_mul_ref(c, a, b):
    if c.f > 1:
        key = (c.p, c.e, c.modulus)
        if key not in _TABLES:
            _TABLES[key] = _product_table(c.p, c.e, c.modulus)
        table = _TABLES[key]
        out = [0] * c._dim
        for k1, x in enumerate(a):
            if not x:
                continue
            row = table[k1]
            for k2, y in enumerate(b):
                if not y:
                    continue
                xy = x * y
                for k, m in row[k2]:
                    out[k] += m * xy
        return out
    e, p = c.e, c.p
    out = [0] * e
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if not bj:
                continue
            k = i + j
            if k < e:
                out[k] += ai * bj
            else:
                out[k - e] += p * ai * bj
    return out


# the largest e drawn at each residue degree f, so that e f stays at most 12
_E_MAX = {1: 12, 2: 6, 3: 4, 6: 2}


def _vec_operand(draw, c):
    n = c._dim
    kind = draw(st.sampled_from(("reduced", "wide", "full", "zero", "single", "tiny")))
    if kind == "reduced":
        rel = draw(st.integers(1, c.K))
        mods = [c.p ** max(_core._ceil_div(rel - k % c.e, c.e), 0) for k in range(n)]
        return [draw(st.integers(0, m - 1)) for m in mods]
    if kind == "wide":
        return draw(st.lists(st.integers(0, 2 ** 400), min_size=n, max_size=n))
    if kind == "full":
        return [2 ** draw(st.integers(1, 400)) - 1] * n
    vec = [0] * n
    if kind == "single":
        vec[draw(st.integers(0, n - 1))] = draw(st.integers(1, 2 ** 400))
    elif kind == "tiny":
        vec = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return vec


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vec_mul_matches_schoolbook(data):
    draw = data.draw
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.sampled_from((1, 1, 1, 2, 3, 6)))
    e = draw(st.integers(1, _E_MAX[f]))
    c = ctx_new(p, e, 4 * e + 8, f)
    a, b = _vec_operand(draw, c), _vec_operand(draw, c)
    if draw(st.booleans()):
        a = tuple(a)  # reduced vectors are tuples, products are lists
    assert c._vec_mul(a, b) == _vec_mul_ref(c, a, b)


# -- the fixed-multiplier Horner step ------------------------------------
#
# _horner_step(d, rel) returns acc -> reduce(acc*d + c, rel) for a d fixed
# over a pass: entrywise when the reduced d is an integer, else one packed
# product by d packed once, at every f.  Each step must equal the reduced
# schoolbook product plus c.  acc is drawn reduced
# modulo pi^rel, as the steps return it, with every entry at its modulus
# minus 1 now and then (the widest slot sums); d is drawn wide, full,
# integer or zero, and c wide or None.

def _step_operand(draw, c, rel, kind):
    mods = c._moduli(rel)
    if kind == "top":
        return [m - 1 for m in mods]
    if kind == "zero":
        return [0] * c._dim
    if kind == "integer":
        return [draw(st.integers(0, 2 ** 400))] + [0] * (c._dim - 1)
    if kind == "wide":
        return draw(st.lists(st.integers(0, 2 ** 400), min_size=c._dim, max_size=c._dim))
    return [draw(st.integers(0, m - 1)) for m in mods]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_horner_step_matches_reduced_schoolbook(data):
    draw = data.draw
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.sampled_from((1, 2, 3, 6)))
    e = draw(st.integers(1, _E_MAX[f]))
    c = ctx_new(p, e, 4 * e + 8, f)
    rel = draw(st.integers(-e, c.K + 2 * e))
    d = _step_operand(draw, c, rel, draw(st.sampled_from(
        ("reduced", "top", "wide", "integer", "zero"))))
    step = c._horner_step(tuple(d) if draw(st.booleans()) else d, rel)
    acc = _step_operand(draw, c, rel, draw(st.sampled_from(("reduced", "top", "zero"))))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("reduced", "top", "wide", "none")))
        add = None if kind == "none" else _step_operand(draw, c, rel, kind)
        want = _vec_mul_ref(c, acc, d)
        if add is not None:
            want = [a + x for a, x in zip(want, add)]
        got = step(acc, add)
        assert list(got) == list(c._vec_reduce(want, rel))
        acc = got


def test_horner_step_at_the_widest_slot_sums():
    # every entry of acc, d and c at its modulus minus 1, for every p, e and
    # f drawn above and a spread of moduli, with c present and absent; the
    # product of those operands by _vec_mul, too
    for p in (2, 3, 5, 7):
        for f in (1, 2, 3, 6):
            for e in range(1, _E_MAX[f] + 1):
                c = ctx_new(p, e, 4 * e + 8, f)
                for rel in (1, 2, e, e + 1, 3 * e - 1, c.K):
                    top = [m - 1 for m in c._moduli(rel)]
                    step = c._horner_step(top, rel)
                    prod = _vec_mul_ref(c, top, top)
                    assert c._vec_mul(top, top) == prod
                    assert list(step(top, None)) == list(c._vec_reduce(prod, rel))
                    assert list(step(top, top)) == list(
                        c._vec_reduce([a + x for a, x in zip(prod, top)], rel))


def test_horner_step_takes_no_vector_product(monkeypatch):
    # d is packed once per pass, or read as an integer, at every f
    calls = []
    patch_kernel(monkeypatch, "_vec_mul",
                 lambda vec_mul: lambda ctx, a, b: calls.append(ctx.f) or vec_mul(ctx, a, b))
    for p, e, f in ((5, 1, 1), (5, 3, 1), (7, 10, 1), (3, 2, 2), (5, 1, 3), (7, 5, 3)):
        c = ctx_new(p, e, 30 * e, f)
        assert sees_one_product(c, lambda: len(calls))
        calls.clear()
        rel = c.K - 1
        for d in ([2] + [0] * (c._dim - 1), [1] * c._dim):
            step = c._horner_step(d, rel)
            acc = c._vec_reduce([3] * c._dim, rel)
            step(step(acc, None), acc)
    assert calls == []


# _vec_inv(u, rel, start) doubles from an approximate inverse, such as the
# inverse of a nearby unit.  The inverse modulo pi^rel is unique, so it must
# be the doubling from the residue inverse, the pre-change body, whatever
# the start: the inverse right to k pi-units and off after them, for k
# from 0 (wrong at the residue) past rel, reduced below or above rel, or
# zero, or any vector.

@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vec_inv_from_a_start_matches_the_doubling(data):
    draw = data.draw
    p = draw(st.sampled_from((2, 3, 5, 7)))
    f = draw(st.sampled_from((1, 2, 3)))
    e = draw(st.integers(1, _E_MAX[f]))
    c = ctx_new(p, e, 4 * e + 8, f)
    rel = draw(st.integers(1, c.K))
    u = c._vec_reduce(sample(c, Random(draw(st.integers(0, 10 ** 6))))._unit, rel)
    want = c._vec_inv(u, rel)
    one = c._vec_reduce([1] + [0] * (c._dim - 1), rel)
    assert c._vec_reduce(_vec_mul_ref(c, u, want), rel) == one
    kind = draw(st.sampled_from(("near", "near", "zero", "any")))
    srel = draw(st.integers(1, c.K + e))  # the start's modulus
    if kind == "near":
        k = draw(st.integers(0, rel + 2))
        off = c._vec_shift(_step_operand(draw, c, srel, "reduced"), k)
        start = [a + b for a, b in zip(c._vec_inv(u, max(rel, srel)), off)]
    elif kind == "zero":
        start = [0] * c._dim
    else:
        start = _step_operand(draw, c, srel, "reduced")
    assert c._vec_inv(u, rel, c._vec_reduce(start, srel)) == want


def test_vec_inv_from_a_start_right_to_rel_takes_one_product(monkeypatch):
    # at f > 1 the doubling from the residue inverse takes two products a
    # step, after the square and multiply of u^(p^f - 2); one product
    # measures a start, a right one is the inverse, and one wrong at the
    # residue costs that product on top of the doubling.  Every f = 1 unit
    # inverts on integers and reads no start: the descent's top step takes
    # two of the context's products at e = 10, u adj(u) and adj(u) times
    # the inverse from below, and none at e <= 4, where the step is written
    # out on integers
    calls = []
    patch_kernel(monkeypatch, "_vec_mul",
                 lambda vec_mul: lambda ctx, a, b: calls.append(1) or vec_mul(ctx, a, b))
    for p, e, f, top in ((5, 1, 1, 0), (5, 3, 1, 0), (3, 4, 1, 0), (7, 10, 1, 2), (3, 2, 2, None),
                         (5, 1, 3, None)):
        c = ctx_new(p, e, 30 * e, f)
        assert sees_one_product(c, lambda: len(calls))
        u = sample(c, Random(20))._unit
        rel = c.K - 1
        inverse = c._vec_inv(u, rel)
        if f == 1:
            counts = (top, top, top)
        else:
            chain = p ** f - 2
            fresh = 2 * (rel - 1).bit_length() + chain.bit_length() + chain.bit_count() - 2
            counts = (fresh, 1, fresh + 1)
        for start, products in zip((None, inverse, [0] * c._dim), counts):
            calls.clear()
            assert c._vec_inv(u, rel, start) == inverse
            assert len(calls) == products, (p, e, f, start is None)


# Every f = 1 unit inverts on integers: the Z_p set by Newton doubling on
# one integer, every e > 1 as adj(u) N(u)^-1 with N(u) in Z_p, by the
# descent of _ring_inv (halving at even e, the 3 x 3 adjugate at 3 | e,
# elimination at a core prime to 6), modulo p^ceil(rel/e).  The vector
# doubling from the residue inverse is the reference at every e and f, at
# rel deep enough that the integer doubling takes many steps: a unit drawn
# at random, one integer alone, one congruent to 1 modulo pi, 1 itself, and
# every entry at its modulus minus 1.  The examples put every branch against
# the doubling at deep rel: 10 -> 5 at p = 5 and 2, the core 5 alone, 9 -> 3.

@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(1, 12), st.integers(1, 2),
       st.integers(1, 400), st.sampled_from(("random", "integer", "residue 1", "one", "top")),
       st.integers(0, 10 ** 6))
@example(3, 1, 1, 960, "random", 0)
@example(5, 3, 1, 2880, "random", 0)
@example(5, 10, 1, 1600, "random", 0)
@example(7, 5, 1, 1400, "random", 0)
@example(3, 9, 1, 960, "random", 0)
@example(2, 10, 1, 600, "random", 0)
@settings(max_examples=200, deadline=None)
def test_vec_inv_matches_the_doubling_at_large_rel(p, e, f, rel, kind, seed):
    c = ctx_new(p, e, max(rel, 2 * e), f)
    rng = Random(seed)
    if kind == "random":
        u = sample(c, rng)._unit
    elif kind == "integer":
        u = [rng.randrange(1, p) + p * rng.randrange(p ** rel)] + [0] * (c._dim - 1)
    elif kind == "residue 1":
        u = c._vec_shift(sample(c, rng)._unit, 1)
        u[0] += 1
    elif kind == "one":
        u = [1] + [0] * (c._dim - 1)
    else:
        u = [m - 1 for m in c._moduli(rel)]
    u = c._vec_reduce(u, rel)
    w = c._vec_inv(u, rel)
    assert w == PrimeContext._inv_doubling(c, u, rel)
    assert c._vec_reduce(_vec_mul_ref(c, u, w), rel) == c._vec_reduce([1] + [0] * (c._dim - 1), rel)


def test_every_f1_e_reaches_a_descent_branch(monkeypatch):
    # every f = 1 context past Z_p inverts through the norm, whichever
    # product it takes, unless the descent would end on a core of 11 or
    # more, where the elimination took 1.3-2.1x the vector doubling's time
    # at every rel: those (None below) bind the doubling.  The descent goes
    # 2 before 3, ends written out at n <= 4 or eliminates on a core prime
    # to 6, and each e must take the path below and give the doubling's
    # inverse at a random unit and at the top entries, deep enough for
    # several integer steps
    paths = {2: [2], 3: [3], 4: [4, 2], 5: [5, "core"], 6: [6, 3], 7: [7, "core"],
             8: [8, 4, 2], 9: [9, 3], 10: [10, 5, "core"], 11: None, 12: [12, 6, 3],
             13: None, 14: [14, 7, "core"], 22: None, 25: None}
    seen = []
    ring_inv, solve = PrimeContext._ring_inv, PrimeContext._solve_unit
    monkeypatch.setattr(PrimeContext, "_ring_inv",
                        lambda ctx, u, m, mul: seen.append(len(u)) or ring_inv(ctx, u, m, mul))
    monkeypatch.setattr(PrimeContext, "_solve_unit",
                        lambda ctx, u, m: seen.append("core") or solve(ctx, u, m))
    for e, path in paths.items():
        c = ctx_new(3, e, 40 * e)
        if path is None:
            assert c._vec_inv == c._inv_doubling
            continue
        assert c._vec_inv == c._inv_norm
        for u in (sample(c, Random(e))._unit, [m - 1 for m in c._moduli(c.K)]):
            seen.clear()
            w = c._vec_inv(u, c.K)
            assert seen == path, e
            assert w == PrimeContext._inv_doubling(c, u, c.K)


# PadicNumber.__pow__ takes the unit power of the context's kernel set:
# square and multiply on vectors, or one C-level pow in the Z_p set, at
# e = f = 1, where a unit is one integer modulo p^rel and _vec_inv is the
# Newton doubling on that integer.  The references are square and multiply
# on PadicNumber products, and the Newton doubling w <- w (2 - u w) from the
# residue inverse, the precision doubled from the bottom up.

def _pow_chain(x, n):
    result, base = None, x
    while True:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _inv_doubling(p, u, rel):
    w, k = pow(u % p, -1, p), 1
    while k < rel:
        k = min(2 * k, rel)
        w = w * (2 - u * w) % p ** k
    return w % p ** rel


@given(st.sampled_from((2, 3, 5, 7, 11)), st.integers(2, 24), st.data())
@settings(max_examples=200, deadline=None)
def test_dim1_pow_and_inverse_match_the_chain_and_the_doubling(p, K, data):
    # the powers in every kernel set, e <= 6 and f <= 3, half the draws at
    # e = f = 1 and n at most 2^9 elsewhere; the inverse in the Z_p set, and
    # the integer inverse at moduli either side of the ladder's first rung,
    # the largest k with p^k below 2^32, and of the rungs above it
    draw = data.draw
    e, f = (1, 1) if draw(st.booleans()) else (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    c = ctx_new(p, e, e * K, f)
    word = max(k for k in range(1, 33) if p ** k < 2 ** 32)
    m = draw(st.sampled_from((word - 1, word, word + 1, 2 * word - 1, 2 * word, 2 * word + 1,
                              4 * word + 1)))
    a = draw(st.integers(0, p ** (2 * m))) * p + draw(st.integers(1, p - 1))
    assert c._int_inv(a, m) == _inv_doubling(p, a, m)
    v = draw(st.integers(-3, c.K - 1))
    x = sample(c, Random(draw(st.integers(0, 10 ** 6))), valuation=max(v, 0)).scale_pi(min(v, 0))
    kind = draw(st.sampled_from(("as drawn", "capped", "lifted")))
    if kind == "capped":
        x = x._cap_prec(draw(st.integers(x.val + 1, x.prec)))
    elif kind == "lifted":
        x = x._lift_exact(x.prec + draw(st.integers(1, c.K)))
    n = draw(st.integers(1, p ** K if e * f == 1 else 2 ** 9))
    assert x ** n == _pow_chain(x, n)
    zero = c.zero(draw(st.integers(-3, c.K)))
    assert zero ** n == _pow_chain(zero, n)
    if e * f > 1:
        assert x ** -n == _pow_chain(x.inv(), n)
        return
    rel = x.prec - x.val
    inv = _inv_doubling(p, x._unit[0], rel)
    start = draw(st.one_of(st.none(), st.just(inv), st.integers(0, p ** (rel + 1))))
    assert c._vec_inv(x._unit, rel, None if start is None else [start]) == (inv,)
    ref = _core.PadicNumber(c, -x.val, (inv,), rel - x.val, False)
    assert x.inv() == ref
    assert x ** -n == _pow_chain(ref, n)


def _sample_by_randrange(ctx, rng, valuation=0, residue=None):
    """``sample`` as it drew before its digits were drawn inline."""
    size = ctx.p ** ctx.f
    if residue is not None and ctx.f > 1:
        residue = sum(c * ctx.p ** j for j, c in enumerate(residue))
    first = residue if residue is not None else rng.randrange(1, size)
    digits = [first] + [rng.randrange(size) for _ in range(ctx.K - valuation - 1)]
    if ctx.f > 1:
        digits = [_core._coords(d, ctx.p, ctx.f) for d in digits]
    return ctx.from_digits(valuation, digits, ctx.K)


def test_sample_draws_the_randrange_stream():
    # the same elements from the same stream, and the stream left where
    # randrange leaves it, with and without a given residue
    for p in (2, 3, 5, 7, 11):
        for f in (1, 2, 3):
            for e in (1, 3):
                c = ctx_new(p, e, 12 * e, f)
                residue = (1,) + (0,) * (f - 1) if f > 1 else p - 1
                for seed in range(3):
                    a, b = Random(seed), Random(seed)
                    for v in (0, 1, 5, c.K - 1):
                        assert sample(c, a, valuation=v) == _sample_by_randrange(c, b, v)
                        assert (sample(c, a, valuation=v, residue=residue)
                                == _sample_by_randrange(c, b, v, residue))
                    assert a.getstate() == b.getstate()


# _block_pass(coeffs, n, d, rel, w) sums c_i d^i for i < n modulo pi^rel,
# _BLOCK coefficients per reduction, on coefficients packed once in slots
# of w = _block_width(top) bits; the reference is the Horner loop on the
# schoolbook product above.  Every entry of every coefficient and of d at
# its modulus minus 1 drives the slot sums to their widest.

def _block_pass_ref(c, coeffs, d, rel):
    acc = [0] * c._dim
    for x in reversed(coeffs):
        acc = c._vec_reduce([a + b for a, b in zip(_vec_mul_ref(c, acc, d), x)], rel)
    return list(acc)


def test_block_pass_at_the_widest_slot_sums():
    block = _core._BLOCK
    for p in (2, 3, 5, 7):
        for e, f in [(e, 1) for e in range(1, 13)] + [(e, f) for f in (2, 3)
                                                     for e in range(1, _E_MAX[f] + 1)]:
            c = ctx_new(p, e, 4 * e + 8, f)
            for top in (1, e + 1, 2 * e, 3 * e - 1, c.K):
                w = c._block_width(top)
                x = [m - 1 for m in c._moduli(top)]
                packed = [c._packer(w)[0](x, w)] * (3 * block + 5)
                for rel in {top, max(top - e - 1, 1)}:  # the pass at and below the packing
                    d = [m - 1 for m in c._moduli(rel)]
                    for n in (1, block + 1, 3 * block + 5):
                        assert c._block_pass(packed, n, d, rel, w) == _block_pass_ref(
                            c, [x] * n, d, rel), (p, e, top, rel, n)


# _vec_val finds the least p-power by one gcd and the least index among
# the entries it leaves by one scan; the per-entry loop it replaced is the
# reference.

def _vec_val_ref(c, vec, rel):
    e, p = c.e, c.p
    best = None
    for k, a in enumerate(vec):
        if a == 0:
            continue
        t = e * _core._vp(a, p) + k % e
        if best is None or t < best:
            best = t
    if best is None or best >= rel:
        return None
    return best


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_vec_val_matches_per_entry_loop(data):
    draw = data.draw
    p = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 12))
    f = draw(st.sampled_from((1, 2)))
    c = ctx_new(p, e, 4 * e + 8, f)
    kind = draw(st.sampled_from(("zero", "divisible", "sparse", "signed")))
    if kind == "zero":
        vec = [0] * c._dim
    else:
        lo = -p ** 12 if kind == "signed" else 0
        vec = draw(st.lists(st.integers(lo, p ** 12), min_size=c._dim, max_size=c._dim))
        if kind == "sparse":  # zeros, the rest divisible by various powers
            vec = [a * p ** draw(st.integers(0, 4)) if draw(st.booleans()) else 0 for a in vec]
        elif kind == "divisible":  # every entry divisible by one p^k
            k = draw(st.integers(1, 6))
            vec = [a * p ** k for a in vec]
    least = _vec_val_ref(c, vec, 10 ** 9)
    rels = [1, c.K, draw(st.integers(-e, 20 * e))]
    if least is not None:  # the least value just inside rel, at it and past it
        rels += [least + 1, least, least - 1]
    for rel in rels:
        assert c._vec_val(vec, rel) == _vec_val_ref(c, vec, rel), rel
