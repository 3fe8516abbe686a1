"""Newton polygons of truncated series and disk zero counting.

The polygon of sum c_n X^n is the lower convex hull of the points
(n, v(c_n)); a segment of slope -s and horizontal length l certifies l
roots of valuation s, and the Weierstrass degree N (rightmost index of
minimal valuation) counts all roots in the closed unit disk.  Counting
is refused rather than guessed when either the tail bound or the
precision of a zero-flagged coefficient fails to dominate the minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analytic import TruncatedSeries
from .errors import CertificationFailure

__all__ = [
    "NewtonPolygon",
    "polygon_build",
    "root_valuations",
    "unit_disk_zero_count",
]


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull data; ``None`` stands for an infinite valuation.

    ``points`` is the normalized input; ``hull`` the vertices over the
    finite points; ``segments`` the (slope, length) runs left to right
    with collinear points merged, preceded by a slope-None run when the
    polygon starts with zero coefficients.
    """

    points: tuple
    hull: tuple
    segments: tuple

    def to_json(self) -> dict:
        pts = [[n, "inf" if v is None else _frac_str(v)] for n, v in self.points]
        segs = [["-inf" if s is None else _frac_str(s), ln] for s, ln in self.segments]
        return {"points": pts, "segments": segs}


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _cross(o, a, b) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_build(points: Sequence) -> NewtonPolygon:
    """Lower convex hull of (index, valuation) pairs; None means infinity."""
    norm = []
    for n, v in points:
        if v is None:
            norm.append((int(n), None))
        else:
            norm.append((int(n), Fraction(v)))
    norm.sort(key=lambda t: t[0])
    if len(set(n for n, _ in norm)) != len(norm):
        raise ValueError("duplicate indices")
    finite = [(n, v) for n, v in norm if v is not None]
    if not finite:
        raise ValueError("all valuations are infinite; no polygon")

    hull: list = []
    for pt in finite:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)

    segments = []
    lead = finite[0][0] - norm[0][0]
    if lead > 0:
        segments.append((None, lead))
    run_slope = None
    run_len = 0
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
    return NewtonPolygon(tuple(norm), tuple(hull), tuple(segments))


def root_valuations(polygon: NewtonPolygon) -> list:
    """Roots in the closed unit disk as (valuation, multiplicity) pairs.

    Segments of slope -s <= 0 give roots of valuation s >= 0; the
    leading infinite run gives roots at the center itself, reported
    with valuation None.
    """
    out = []
    for slope, length in polygon.segments:
        if slope is None:
            out.append((None, length))
        elif slope <= 0:
            out.append((-slope, length))
    return out


def unit_disk_zero_count(series: TruncatedSeries) -> int:
    """Weierstrass degree: rightmost coefficient index of minimal valuation.

    Certified only when the tail bound strictly dominates the minimum
    and every zero-flagged coefficient is known past it.  The valuations
    and precisions are compared as the series stores them, in pi-units.
    """
    vals, precs, e = series._vals, series._precs, series.ctx.e
    vmin = min((v for v in vals if v is not None), default=None)
    if vmin is None:
        raise CertificationFailure("every coefficient is zero-flagged; no minimum to certify")
    if series.tail_bound is not None and series.tail_bound * e <= vmin:
        raise CertificationFailure(
            f"tail bound {series.tail_bound} does not dominate the minimal valuation "
            f"{Fraction(vmin, e)}")
    n_big = None
    for n, (v, prec) in enumerate(zip(vals, precs)):
        if v is None:
            if prec <= vmin:
                raise CertificationFailure(
                    f"coefficient {n} is zero-flagged at bound {Fraction(prec, e)}, "
                    f"not past the minimal valuation {Fraction(vmin, e)}")
        elif v == vmin:
            n_big = n
    return n_big
