"""Newton polygons of truncated series and disk zero counting.

The polygon of sum c_n X^n is the lower convex hull of the points
(n, v(c_n)); a segment of slope -s and horizontal length l certifies l
roots of valuation s, and the Weierstrass degree N (rightmost index of
minimal valuation) counts all roots in the closed unit disk.  Counting
is refused rather than guessed when either the tail bound or the
precision of a zero-flagged coefficient fails to dominate the minimum.

The hull is Andrew's monotone chain (Andrew, "Another efficient
algorithm for convex hulls in two dimensions", 1979), run on integers:
each finite valuation is scaled by the lcm of their denominators (a
divisor of e for a series' points), which keeps the sign of every cross
product.  A series' polygon starts from its valuations in pi-units,
integers over e, so no Fraction is formed per coefficient.  The hull
vertices and slopes it returns are Fractions equal to the input's, and
the points are formed as Fractions when read.  A vertex whose cross
product is zero is dropped, so the hull holds no three collinear
vertices and each segment is one slope run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    polygon starts with zero coefficients.  The points are kept as
    integers over one denominator, the least that makes every finite
    valuation an integer, so two polygons of the same points compare
    equal; ``points`` forms their Fractions when read, and ``to_json``
    writes them from the integers.
    """

    hull: tuple
    segments: tuple
    _ints: tuple = field(repr=False)
    _den: int = field(repr=False)

    @property
    def points(self) -> tuple:
        den = self._den
        return tuple((n, None if v is None else Fraction(v, den)) for n, v in self._ints)

    def to_json(self) -> dict:
        pts = [[n, "inf" if v is None else _ratio_str(v, self._den)] for n, v in self._ints]
        segs = [["-inf" if s is None else _frac_str(s), ln] for s, ln in self.segments]
        return {"points": pts, "segments": segs}


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def _ratio_str(a: int, b: int) -> str:
    """``_frac_str`` of a/b for b > 0, with no Fraction formed."""
    g = math.gcd(a, b)
    return f"{a // g}/{b // g}"


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def polygon_build(points: Sequence) -> NewtonPolygon:
    """Lower convex hull of (index, valuation) pairs; None means infinity."""
    norm = sorted(((int(n), None if v is None else Fraction(v)) for n, v in points),
                  key=lambda t: t[0])
    if len(set(n for n, _ in norm)) != len(norm):
        raise ValueError("duplicate indices")
    den = math.lcm(*(v.denominator for _, v in norm if v is not None))
    return _hull(tuple((n, None if v is None else v.numerator * (den // v.denominator))
                       for n, v in norm), den)


def _series_polygon(series: TruncatedSeries) -> NewtonPolygon:
    """``polygon_build`` of the series' points up to its last coefficient
    that is not zero-flagged, built from its valuations in pi-units: each
    finite valuation is v/e, so the points are the ints v over e, both
    divided by their gcd, and no Fraction is formed per coefficient."""
    vals = series._vals
    stop = len(vals)
    while stop and vals[stop - 1] is None:
        stop -= 1
    g = math.gcd(series.ctx.e, *(v for v in vals[:stop] if v is not None))
    return _hull(tuple((n, None if v is None else v // g) for n, v in enumerate(vals[:stop])),
                 series.ctx.e // g)


def _hull(ints: tuple, den: int) -> NewtonPolygon:
    """The polygon of (index, integer valuation times den) pairs sorted by
    index: Andrew's monotone chain on the integers, whose cross products
    have the signs of the Fractions'; only the hull vertices and the
    slopes become Fractions."""
    finite = [(n, v) for n, v in ints if v is not None]
    if not finite:
        raise ValueError("all valuations are infinite; no polygon")
    chain: list = []
    for q in finite:
        while len(chain) >= 2 and _cross(chain[-2], chain[-1], q) <= 0:
            chain.pop()
        chain.append(q)
    lead = finite[0][0] - ints[0][0]
    segments = [(None, lead)] if lead else []
    segments += [(Fraction(v1 - v0, (n1 - n0) * den), n1 - n0)
                 for (n0, v0), (n1, v1) in zip(chain, chain[1:])]
    return NewtonPolygon(tuple((n, Fraction(v, den)) for n, v in chain), tuple(segments),
                         ints, den)


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
