"""Lower hulls, slope runs, and certified disk zero counts."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbracket import (
    CertificationFailure,
    TruncatedSeries,
    ctx_new,
    polygon_build,
    root_valuations,
    sample,
    unit_disk_zero_count,
)


def test_hull_and_segments_by_hand():
    # slopes -2, 0, +1 left to right; only the first two carry roots
    ng = polygon_build([(0, 2), (1, 0), (3, 0), (4, 1)])
    assert ng.hull == ((0, Fraction(2)), (1, Fraction(0)), (3, Fraction(0)), (4, Fraction(1)))
    assert ng.segments == ((Fraction(-2), 1), (Fraction(0), 2), (Fraction(1), 1))
    assert root_valuations(ng) == [(Fraction(2), 1), (Fraction(0), 2)]


def test_collinear_points_merge_into_one_run():
    ng = polygon_build([(0, 3), (1, 2), (2, 1), (3, 0)])
    assert ng.segments == ((Fraction(-1), 3),)
    assert root_valuations(ng) == [(Fraction(1), 3)]


def test_interior_point_above_hull_is_ignored():
    ng = polygon_build([(0, 0), (1, 5), (2, 0)])
    assert ng.hull == ((0, Fraction(0)), (2, Fraction(0)))
    assert ng.segments == ((Fraction(0), 2),)


def test_leading_infinite_run_counts_center_roots():
    ng = polygon_build([(0, None), (1, None), (2, 0), (3, 0)])
    assert ng.segments == ((None, 2), (Fraction(0), 1))
    assert root_valuations(ng) == [(None, 2), (Fraction(0), 1)]


def test_positive_slopes_are_not_roots():
    ng = polygon_build([(0, 0), (1, 2)])
    assert ng.segments == ((Fraction(2), 1),)
    assert root_valuations(ng) == []


def test_fractional_valuations():
    ng = polygon_build([(0, Fraction(1, 3)), (1, 0)])
    assert ng.segments == ((Fraction(-1, 3), 1),)
    assert root_valuations(ng) == [(Fraction(1, 3), 1)]


def test_duplicate_indices_rejected():
    with pytest.raises(ValueError):
        polygon_build([(0, 1), (0, 2)])


def test_all_infinite_rejected():
    with pytest.raises(ValueError):
        polygon_build([(0, None), (1, None)])


def test_to_json_shape():
    ng = polygon_build([(0, None), (1, Fraction(1, 2)), (2, 0)])
    j = ng.to_json()
    assert j == {
        "points": [[0, "inf"], [1, "1/2"], [2, "0/1"]],
        "segments": [["-inf", 1], ["-1/2", 1]],
    }


def _polygon_reference(points):
    """Andrew's monotone chain on Fractions, with collinear runs merged."""
    norm = sorted(((int(n), None if v is None else Fraction(v)) for n, v in points),
                  key=lambda t: t[0])
    finite = [(n, v) for n, v in norm if v is not None]
    hull = []
    for pt in finite:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(pt)
    segments = []
    lead = finite[0][0] - norm[0][0]
    if lead > 0:
        segments.append((None, lead))
    run_slope, run_len = None, 0
    for (n0, v0), (n1, v1) in zip(hull, hull[1:]):
        slope = Fraction(v1 - v0, n1 - n0)
        if run_len and slope == run_slope:
            run_len += n1 - n0
        else:
            if run_len:
                segments.append((run_slope, run_len))
            run_slope, run_len = slope, n1 - n0
    if run_len:
        segments.append((run_slope, run_len))
    return tuple(norm), tuple(hull), tuple(segments)


_VALUATIONS = st.one_of(st.integers(-6, 30),
                        st.fractions(min_value=-6, max_value=30, max_denominator=12))


@st.composite
def _hull_inputs(draw):
    """(index, valuation) pairs in any order: gaps between indices, a
    leading None run, interior Nones, and collinear runs."""
    lead = draw(st.integers(0, 3))
    vals = draw(st.lists(_VALUATIONS, min_size=1, max_size=40))
    steps = draw(st.lists(st.integers(1, 3), min_size=len(vals), max_size=len(vals)))
    idx = [lead + draw(st.integers(0, 4))]
    for step in steps[1:]:
        idx.append(idx[-1] + step)
    for _ in range(draw(st.integers(0, 3))):  # a collinear run through point i
        i = draw(st.integers(0, len(vals) - 1))
        slope = draw(st.fractions(min_value=-4, max_value=4, max_denominator=6))
        for j in range(i + 1, min(len(vals), i + draw(st.integers(2, 10)))):
            vals[j] = vals[i] + slope * (idx[j] - idx[i])
    for j in draw(st.sets(st.integers(1, len(vals) - 1), max_size=5)) if len(vals) > 1 else ():
        vals[j] = None
    points = [(idx[0] - lead + k, None) for k in range(lead)] + list(zip(idx, vals))
    return draw(st.permutations(points))


@given(_hull_inputs())
@settings(max_examples=150, deadline=None)
def test_integer_hull_matches_the_fraction_hull(points):
    ng = polygon_build(points)
    assert (ng.points, ng.hull, ng.segments) == _polygon_reference(points)
    assert all(type(v) is Fraction for _, v in ng.hull)
    assert all(s is None or type(s) is Fraction for s, _ in ng.segments)


def test_integer_hull_on_series_points_matches_the_fraction_hull():
    rng = Random(29)
    for e in (1, 2, 3, 10):
        c = ctx_new(5, e, 12 * e)
        for _ in range(10):
            coeffs = [c.zero(rng.randrange(1, 3 * e)) if rng.randrange(5) == 0
                      else sample(c, rng, valuation=rng.randrange(3 * e))
                      for _ in range(rng.randrange(1, 30))]
            pts = TruncatedSeries(c, c.zero(), tuple(coeffs), None).valuation_points()
            if all(v is None for _, v in pts):
                continue
            ng = polygon_build(pts)
            assert (ng.points, ng.hull, ng.segments) == _polygon_reference(pts)


def _poly(ctx, ints):
    return TruncatedSeries(ctx, ctx.zero(), tuple(ctx.from_int(k) for k in ints), None)


def test_zero_count_on_expanded_product():
    # (X-3)(X-1)(X-9) over the 3-adics: all three roots in the disk
    c = ctx_new(3, 1, 40)
    s = _poly(c, [-27, 39, -13, 1])
    assert unit_disk_zero_count(s) == 3
    ng = polygon_build(s.valuation_points())
    assert sorted(root_valuations(ng)) == [(Fraction(0), 1), (Fraction(1), 1), (Fraction(2), 1)]


def test_zero_count_weierstrass_degree_not_length():
    # X + X^2 + 3X^3: minimum 0 attained last at index 2
    c = ctx_new(3, 1, 40)
    s = _poly(c, [0, 1, 1, 3])
    assert unit_disk_zero_count(s) == 2


def test_zero_count_refuses_weak_tail_bound():
    c = ctx_new(3, 1, 40)
    s = TruncatedSeries(c, c.zero(), (c.from_int(3), c.from_int(1)), Fraction(0))
    with pytest.raises(CertificationFailure):
        unit_disk_zero_count(s)
    ok = TruncatedSeries(c, c.zero(), (c.from_int(3), c.from_int(1)), Fraction(1))
    assert unit_disk_zero_count(ok) == 1


def test_zero_count_refuses_shallow_zero_flag():
    # a zero coefficient known only to O(pi^0) cannot be placed against vmin = 0
    c = ctx_new(3, 1, 40)
    s = TruncatedSeries(c, c.zero(), (c.from_int(1), c.zero(0), c.from_int(1)), None)
    with pytest.raises(CertificationFailure):
        unit_disk_zero_count(s)
    deep = TruncatedSeries(c, c.zero(), (c.from_int(1), c.zero(5), c.from_int(1)), None)
    assert unit_disk_zero_count(deep) == 2


def test_zero_count_refuses_all_zero():
    c = ctx_new(3, 1, 40)
    s = TruncatedSeries(c, c.zero(), (c.zero(5), c.zero(5)), None)
    with pytest.raises(CertificationFailure):
        unit_disk_zero_count(s)


def test_zero_count_respects_ramification():
    # over e = 2 the same integer coefficients sit at doubled pi-valuation
    c = ctx_new(3, 2, 40)
    s = _poly(c, [3, 1])
    assert unit_disk_zero_count(s) == 1
    ng = polygon_build(s.valuation_points())
    assert root_valuations(ng) == [(Fraction(1), 1)]


def _zero_count_reference(series):
    """The count on Fraction valuations in p-units, as valuation_points gives them."""
    points = series.valuation_points()
    vmin = min((v for _, v in points if v is not None), default=None)
    if vmin is None:
        return "every coefficient is zero-flagged; no minimum to certify"
    if series.tail_bound is not None and series.tail_bound <= vmin:
        return f"tail bound {series.tail_bound} does not dominate the minimal valuation {vmin}"
    n_big = None
    for n, v in points:
        if v is None:
            bound = Fraction(series._precs[n], series.ctx.e)
            if bound <= vmin:
                return (f"coefficient {n} is zero-flagged at bound {bound}, "
                        f"not past the minimal valuation {vmin}")
        elif v == vmin:
            n_big = n
    return n_big


def test_zero_count_matches_fraction_reference():
    # counts and refusal texts on pi-unit ints equal those on p-unit
    # Fractions, tail bounds and zero-flag bounds at the minimum included
    rng = Random(112)
    for e in (1, 2, 3, 5):
        c = ctx_new(5, e, 12 * e)
        for _ in range(60):
            coeffs = []
            for _ in range(rng.randrange(1, 7)):
                v = rng.randrange(3 * e)
                coeffs.append(c.zero(v) if rng.randrange(4) == 0 else sample(c, rng, valuation=v))
            tail = rng.choice((None, Fraction(rng.randrange(4 * e), e), Fraction(1, 3)))
            s = TruncatedSeries(c, c.zero(), tuple(coeffs), tail)
            try:
                got = unit_disk_zero_count(s)
            except CertificationFailure as exc:
                got = str(exc)
            assert got == _zero_count_reference(s), (e, coeffs, tail)
