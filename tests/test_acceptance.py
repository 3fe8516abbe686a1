"""Acceptance gate: one test and one printed verdict line per criterion.

Every threshold here is a precision floor in pi-units or an exact
count; nothing is a numerical error bar.  Run with ``pytest -v`` (or
``-s`` for the verdict lines) to see one line per criterion.
"""

from fractions import Fraction
from random import Random

from qbracket import (
    CertificationFailure,
    DomainError,
    LiftFailure,
    a_poly,
    cocycle_check,
    ctx_new,
    digit_sum,
    factorial_valuation,
    fixed_points_for_q,
    local_Q,
    multiplicity_from_c1,
    multiplicity_of,
    phi1_contains,
    phi2_contains,
    q_bracket,
    q_for_x,
    run_suite,
    sample,
    series1,
    series2,
    unit_disk_zero_count,
)


def _vfloor(d):
    """Certified lower bound on v(d) in pi-units."""
    return d.prec if d.is_zero else d.val


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _q_at(ctx, rng, t):
    return ctx.one() + sample(ctx, rng, valuation=0).scale_pi(t)


def test_criterion_01_witness_fixed_point():
    c = ctx_new(3, 1, 60)
    out = fixed_points_for_q(c.from_int(4))
    rec = out[0]
    near = _vfloor(rec.x + c.from_rational(1, 2))
    cert = _vfloor(q_bracket(rec.x, rec.q) - rec.x)
    ok = len(out) == 1 and near >= 50 and cert >= 56
    assert _verdict(1, ok, f"v(x+1/2) >= {near} (need 50), "
                           f"v([x]_4 - x) >= {cert} (need 56)")


def test_criterion_02_zero_counts():
    rng = Random(20)
    legs = [(3, 1, 60, 1), (5, 3, 90, 1), (7, 5, 175, 1),
            (2, 1, 40, 2), (5, 5, 150, 2)]
    got, want = [], []
    for p, e, K, t in legs:
        c = ctx_new(p, e, K)
        n = unit_disk_zero_count(series1(0, _q_at(c, rng, t)))
        got.append(n - 2)
        m0 = Fraction(t, e)
        want.append(p - 2 if p != 2 and m0 <= Fraction(1, p - 2) else 0)
    ok = got == want
    assert _verdict(2, ok, f"nontrivial zero counts {got}, expected {want}")


def test_criterion_03_isometry():
    rng = Random(21)
    bad = 0
    for p in (3, 5, 7):
        c = ctx_new(p, 1, 60)
        for _ in range(200):
            q = _q_at(c, rng, rng.randrange(1, 4))
            x = sample(c, rng, valuation=rng.choice((0, 0, 0, 1, 2)))
            xp = sample(c, rng, valuation=rng.choice((0, 0, 0, 1, 2)))
            d = x - xp
            if d.is_zero:
                continue
            lhs = q_bracket(x, q) - q_bracket(xp, q)
            if lhs.is_zero or lhs.val != d.val:
                bad += 1
    ok = bad == 0
    assert _verdict(3, ok, f"{bad} failures of v([x]_q - [x']_q) = v(x - x') "
                           f"in 200 pairs per p in {{3, 5, 7}}")


def test_criterion_04_valuation_identity_and_membership():
    # the exact-rational identity on one certified record per chart shape
    checked = []
    c3 = ctx_new(3, 1, 60)
    checked.append(fixed_points_for_q(c3.from_int(4))[0])
    c5 = ctx_new(5, 3, 90)
    checked.append(q_for_x(c5.from_int(5))[0])
    c34 = ctx_new(3, 4, 120)
    checked.append(fixed_points_for_q(_q_at(c34, Random(22), 3))[0])
    identity_ok = all(
        Fraction(a_poly(r.x.ctx.p - 2, r.x).val, r.x.ctx.e)
        == 1 - (r.x.ctx.p - 2) * r.m0
        for r in checked)

    # membership vs record existence: 93 points and 7 parameter values
    rng = Random(23)
    agree = 0
    for _ in range(93):
        kind = rng.randrange(4)
        if kind == 0:
            # exact 0 and 1 are precondition errors for the solver (the
            # defining quotient divides by x(x-1)), not membership calls
            n = 0
            while n in (0, 1):
                n = rng.randrange(-40, 40)
            x = c3.from_int(n)
        elif kind == 1:
            x = c3.from_rational(rng.randrange(-9, 9) * 2 + 1, 2)
        elif kind == 2:
            x = sample(c3, rng, valuation=rng.choice((0, 0, 1)))
        else:
            x = c3.from_rational(1, 3)  # negative valuation
        try:
            exists = len(q_for_x(x)) > 0
        except DomainError:
            exists = False
        agree += exists == phi1_contains(x)
    for m0 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1),
               Fraction(5, 4), Fraction(3, 2), Fraction(2)):
        t = int(m0 * 4)
        try:
            exists = len(fixed_points_for_q(_q_at(c34, rng, t))) > 0
        except DomainError:
            exists = False  # q outside S carries no fiber at all
        agree += exists == phi2_contains(m0, 3)
    ok = identity_ok and agree == 100
    assert _verdict(4, ok, f"v(A_(p-2)) = 1 - (p-2)m0 on {len(checked)} records; "
                           f"membership/existence agreement {agree}/100")


def test_criterion_05_residue_sets():
    rng = Random(24)
    c = ctx_new(5, 10, 200)
    interior_ok = True
    for _ in range(10):
        out = fixed_points_for_q(_q_at(c, rng, 3))  # m0 = 3/10
        interior_ok &= {r.residue_x for r in out.records} == {2, 3, 4}
    cb = ctx_new(5, 3, 90)
    boundary_hits = 0
    for _ in range(10):
        out = fixed_points_for_q(_q_at(cb, rng, 1))  # m0 = 1/3
        boundary_hits += sum(r.residue_x in {2, 3, 4} for r in out.records)
    ok = interior_ok and boundary_hits == 0
    assert _verdict(5, ok, "interior residue set {2,3,4} on 10 fibers; "
                           f"{boundary_hits} boundary roots with those residues")


def test_criterion_06_parameter_fiber_of_x5():
    # two of the three roots have residues in F_25 (the reduction is
    # 4(U - 2)(U^2 + 2U + 4) over F_5), so the fiber is solved over the
    # unramified quadratic extension of Q_5(pi), where all three lie
    c = ctx_new(5, 3, 90, f=2)
    x = c.from_int(5)
    out = q_for_x(x)
    distinct = len({r.residue_u for r in out.records}) == len(out)
    certified = all(r.certified_to >= 90 - 12 for r in out.records)
    rng = Random(25)
    law_good = law_total = 0
    for rec in out.records:
        for _ in range(50):
            xp = x + sample(c, rng, valuation=rng.randrange(1, 7))
            law_total += 1
            try:
                local_Q(x, rec.q, xp)  # re-checks the law before returning
                law_good += 1
            except (CertificationFailure, LiftFailure, DomainError):
                pass
    ok = len(out) == 3 and distinct and certified and law_good == law_total
    assert _verdict(
        6, ok,
        f"records {len(out)}/3 over Q_5(pi) with residue degree 2 (polygon "
        f"predicts {out.predicted}; two roots have residues in F_25), distinct residues "
        f"{distinct}, certified {certified}, uniqueness law {law_good}/{law_total}")


def test_criterion_07_contraction_scaling():
    c = ctx_new(3, 1, 60)
    q = c.from_int(4)
    x = fixed_points_for_q(q)[0].x
    rng = Random(26)
    bad = 0
    for v in (2, 3, 5):
        for _ in range(50):
            xp = x + sample(c, rng, valuation=v)
            if (local_Q(x, q, xp) - q).val - v != 1:
                bad += 1
    mult = multiplicity_of(x, q)
    doubles = (multiplicity_from_c1(c.zero(10)) == 2
               and multiplicity_from_c1(c.from_int(5)) == 1)
    ok = bad == 0 and mult == 1 and doubles
    assert _verdict(7, ok, f"{bad} scaling failures in 150 samples; "
                           f"multiplicity {mult}; synthetic doubles classified: {doubles}")


def test_criterion_08_legendre():
    bad = 0
    for p in (2, 3, 5, 7):
        for n in range(301):
            direct, pk = 0, p
            while pk <= n:
                direct += n // pk
                pk *= p
            if factorial_valuation(n, p) != Fraction(direct) or \
                    factorial_valuation(n, p) != Fraction(n - digit_sum(n, p), p - 1):
                bad += 1
    ok = bad == 0
    assert _verdict(8, ok, f"{bad} mismatches of v(n!) for n <= 300, p in {{2,3,5,7}}")


def test_criterion_09_series_match_direct_evaluation():
    rng = Random(27)
    c = ctx_new(3, 1, 60)
    bad1 = 0
    for _ in range(10):
        q = _q_at(c, rng, rng.randrange(1, 3))
        s = series1(0, q)
        for _ in range(10):
            x = sample(c, rng, valuation=rng.choice((0, 0, 1, 2)))
            if not (s.evaluate(x) - (q_bracket(x, q) - x)).is_zero:
                bad1 += 1
    bad2 = 0
    for ctx, xv, t in ((c, c.from_rational(-1, 2), 1),
                       (ctx_new(5, 3, 90), None, 1)):
        x = ctx.from_int(5) if xv is None else xv
        m0 = Fraction(t, ctx.e)
        s = series2(x, m0)
        one = ctx.one()
        for _ in range(50):
            u = sample(ctx, rng, valuation=0)
            qq = one + u.scale_pi(t)
            lhs = s.evaluate(u) * (qq - one) * x * (x - one)
            if not (lhs - (q_bracket(x, qq) - x)).is_zero:
                bad2 += 1
    half = c.from_rational(1, 2)
    limit_ok = True
    for _ in range(20):
        y = sample(c, rng, valuation=rng.randrange(2, 5))
        x = sample(c, rng, valuation=0, residue=2)
        g = (q_bracket(x, c.one() + y) - x) * (y * x * (x - c.one())).inv()
        d = g - half
        limit_ok &= d.is_zero or d.val > 0
    ok = bad1 == 0 and bad2 == 0 and limit_ok
    assert _verdict(9, ok, f"series1 mismatches {bad1}/100, series2 mismatches "
                           f"{bad2}/100, g -> 1/2 at v(y) >= 2: {limit_ok}")


def test_criterion_10_property_suites():
    coc = run_suite("cocycle", seed=0)
    phi = run_suite("remark_phi1", seed=0)
    rng = Random(28)
    c = ctx_new(3, 1, 60)
    fixed_integers = 0
    for _ in range(100):
        n = rng.randrange(-60, 60)
        if n in (0, 1):
            continue
        q = _q_at(c, rng, rng.randrange(1, 4))
        if (q_bracket(c.from_int(n), q) - c.from_int(n)).is_zero:
            fixed_integers += 1
    ok = coc.passed and phi.passed and fixed_integers == 0
    assert _verdict(10, ok, f"cocycle suite {'PASS' if coc.passed else 'FAIL'}, "
                            f"integer-membership suite {'PASS' if phi.passed else 'FAIL'}, "
                            f"{fixed_integers} integers fixed at default sampling")
