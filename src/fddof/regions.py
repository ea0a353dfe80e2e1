"""Closed-form degrees-of-freedom regions for a three-node full-duplex link.

The network is a Z-topology: an uplink user transmits to a base station that
simultaneously transmits to a downlink user, so the only cross-link is the
base station's own transmitter coupling back into its receiver.  Every
quantity here is an exact rational; degrees of freedom in the continuous
model are genuinely non-integer and are never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .intervals import (
    DirectionSet,
    DomainError,
    Rational,
    _frac,
    scaled_endpoints,
)


class DegenerateGeometryError(ValueError):
    """A scattering-union measure vanished where a length ratio needs it."""


@dataclass(frozen=True)
class ArrayHalfLengths:
    """Carrier-wavelength-normalized array half-lengths (physical span 2L).

    An array of half-length L resolves direction cosines at resolution
    1/(2L), so a support of width w carries 2*L*w signal dimensions.
    """

    l_t1: Fraction
    l_r1: Fraction
    l_t2: Fraction
    l_r2: Fraction

    def __post_init__(self):
        for name in ("l_t1", "l_r1", "l_t2", "l_r2"):
            value = _frac(getattr(self, name))
            if value < 0:
                raise DomainError(f"array half-length {name} is negative")
            object.__setattr__(self, name, value)

    def scaled(self, factor: Rational) -> "ArrayHalfLengths":
        c = _frac(factor)
        return ArrayHalfLengths(
            self.l_t1 * c, self.l_r1 * c, self.l_t2 * c, self.l_r2 * c
        )


@dataclass(frozen=True)
class ScatteringGeometry:
    """Six effective scattering intervals plus the four array half-lengths.

    t11/r11 describe the uplink, t22/r22 the downlink, and t12/r12 the
    self-interference path from the base-station transmitter back into its
    own receiver.  The user devices are hidden from each other, so the
    remaining cross-sets are identically empty and not stored.
    """

    t11: DirectionSet
    r11: DirectionSet
    t22: DirectionSet
    r22: DirectionSet
    t12: DirectionSet
    r12: DirectionSet
    lengths: ArrayHalfLengths

    def scaled(self, factor: Rational) -> "ScatteringGeometry":
        return replace(self, lengths=self.lengths.scaled(factor))


@dataclass(frozen=True)
class CornerPoints:
    """The two corner points bracketing the sum-constraint facet."""

    p_prime: tuple[Fraction, Fraction]
    p_double_prime: tuple[Fraction, Fraction]

    def __post_init__(self):
        (d1p, d2p), (d1pp, d2pp) = self.p_prime, self.p_double_prime
        if min(d1p, d2p, d1pp, d2pp) < 0:
            raise ValueError("corner coordinates must be nonnegative")
        if d1p < d1pp or d2p > d2pp:
            raise ValueError("corners do not bracket the sum facet")


@dataclass(frozen=True)
class DofRegion:
    """Convex polygon of achievable (d1, d2) pairs in the first quadrant.

    The cap triple is authoritative for cap-form regions (everything the
    full-duplex bound produces); the vertex list is derived and is what
    plotting and exact polygon comparison use.  The half-duplex triangle
    with unequal axis caps is not cap-form, so its dsum_cap records the
    largest vertex coordinate sum instead.
    """

    d1_cap: Fraction
    d2_cap: Fraction
    dsum_cap: Fraction
    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for x, y in self.vertices:
            if x < 0 or y < 0 or x > self.d1_cap or y > self.d2_cap:
                raise ValueError(f"vertex ({x}, {y}) violates the caps")
            if x + y > self.dsum_cap:
                raise ValueError(f"vertex ({x}, {y}) violates the sum cap")

    def contains(self, point: tuple[Rational, Rational]) -> bool:
        """Exact membership test on the convex hull of the vertices."""
        return _hull_contains(self.vertices, _frac(point[0]), _frac(point[1]))

    def area(self) -> Fraction:
        if len(self.vertices) < 3:
            return Fraction(0)
        twice = Fraction(0)
        for i in range(len(self.vertices)):
            ax, ay = self.vertices[i]
            bx, by = self.vertices[(i + 1) % len(self.vertices)]
            twice += ax * by - bx * ay
        return twice / 2


def _hull_contains(verts, x, y) -> bool:
    """Whether (x, y) lies in the convex hull of ``verts`` (ccw order).

    Exact on ints or Fractions alike, as long as the point and the
    vertices are of one kind.
    """
    if len(verts) == 1:
        return (x, y) == verts[0]
    if len(verts) == 2:
        (x0, y0), (x1, y1) = verts
        dx, dy = x1 - x0, y1 - y0
        if dx * (y - y0) != dy * (x - x0):
            return False
        t_num = dx * (x - x0) + dy * (y - y0)
        return 0 <= t_num <= dx * dx + dy * dy
    for i in range(len(verts)):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % len(verts)]
        if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0:
            return False
    return True


class RegionRelation(Enum):
    EQUAL = "equal"
    A_STRICT_SUBSET_B = "a_strict_subset_b"
    B_STRICT_SUBSET_A = "b_strict_subset_a"
    INCOMPARABLE = "incomparable"


class LinkProducts(NamedTuple):
    """The twelve length-weighted link products, as integers over ``k``.

    The exact value of product ``x`` is ``x / k``; see ``link_products``.
    """

    k: int  # common denominator, positive
    a: int  # l_t1 |t11|
    b: int  # l_r1 |r11|
    c: int  # l_t2 |t22|
    d: int  # l_r2 |r22|
    e: int  # l_t2 |t12|
    f: int  # l_r1 |r12|
    p: int  # l_t2 |t22 - t12|
    q: int  # l_t2 |t22 & t12|
    r: int  # l_r1 |r11 - r12|
    s: int  # l_r1 |r11 & r12|
    u: int  # l_r1 |r12 - r11|
    v: int  # l_t2 |t12 - t22|


def _width(iv: list[tuple[int, int]]) -> int:
    total = 0
    for lo, hi in iv:
        total += hi - lo
    return total


def _overlap(x: list[tuple[int, int]], y: list[tuple[int, int]]) -> int:
    """Measure of the intersection of two sorted disjoint interval lists."""
    total = i = j = 0
    while i < len(x) and j < len(y):
        xlo, xhi = x[i]
        ylo, yhi = y[j]
        lo = xlo if xlo > ylo else ylo
        hi = xhi if xhi < yhi else yhi
        if lo < hi:
            total += hi - lo
        if xhi <= yhi:
            i += 1
        else:
            j += 1
    return total


def _union(
    x: list[tuple[int, int]], y: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Union of two sorted disjoint interval lists, in canonical form:
    sorted, with overlapping or touching intervals merged."""
    merged: list[tuple[int, int]] = []
    for lo, hi in sorted(x + y):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def link_products(g: ScatteringGeometry) -> LinkProducts:
    """The twelve link products every closed form is built from.

    - a = l_t1 |t11|, b = l_r1 |r11|: uplink transmit and receive ends;
    - c = l_t2 |t22|, d = l_r2 |r22|: downlink transmit and receive ends;
    - e = l_t2 |t12|, f = l_r1 |r12|: backscatter loads at T2 and at R1;
    - p = l_t2 |t22 - t12|, q = l_t2 |t22 & t12|, v = l_t2 |t12 - t22|;
    - r = l_r1 |r11 - r12|, s = l_r1 |r11 & r12|, u = l_r1 |r12 - r11|.

    Endpoints are scaled to the lcm of their denominators and lengths to
    the lcm of theirs, so every product is an integer over their product k.
    Only the two overlaps are swept; each difference is |A| - |A & B|.
    """
    den, (t11, r11, t22, r22, t12, r12) = scaled_endpoints((
        g.t11.intervals, g.r11.intervals, g.t22.intervals,
        g.r22.intervals, g.t12.intervals, g.r12.intervals,
    ))
    L = g.lengths
    lengths = (L.l_t1, L.l_r1, L.l_t2, L.l_r2)
    scale = 1
    for x in lengths:
        if scale % x.denominator:
            scale = lcm(scale, x.denominator)
    lt1, lr1, lt2, lr2 = [
        x.numerator * (scale // x.denominator) for x in lengths
    ]
    w_r11, w_t22, w_t12, w_r12 = (
        _width(r11), _width(t22), _width(t12), _width(r12)
    )
    w_t = _overlap(t22, t12)
    w_r = _overlap(r11, r12)
    return LinkProducts(
        scale * den,
        lt1 * _width(t11),
        lr1 * w_r11,
        lt2 * w_t22,
        lr2 * _width(r22),
        lt2 * w_t12,
        lr1 * w_r12,
        lt2 * (w_t22 - w_t),
        lt2 * w_t,
        lr1 * (w_r11 - w_r),
        lr1 * w_r,
        lr1 * (w_r12 - w_r),
        lt2 * (w_t12 - w_t),
    )


def fd_caps(g: ScatteringGeometry) -> tuple[Fraction, Fraction, Fraction]:
    """Per-flow and sum dimension caps of the full-duplex region.

    Each flow is capped by the smaller end of its own link; the sum is
    capped by the interference-free slack on both base-station arrays plus
    the larger of the two backscatter loads.
    """
    k, a, b, c, d, e, f, p, _, r, _, _, _ = link_products(g)
    return (
        Fraction(2 * min(a, b), k),
        Fraction(2 * min(c, d), k),
        Fraction(2 * (p + r + max(e, f)), k),
    )


def cap_corners(
    caps: tuple[Fraction, Fraction, Fraction]
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Corner pair (p', p'') derived from the caps alone.

    Each corner gives one flow its cap and the other flow what the sum cap
    leaves, clamped into [0, its own cap].  ``corner_points`` derives the
    same pair from the geometry; that the two agree is the corner/cap
    identity.
    """
    d1_max, d2_max, dsum_max = caps
    zero = Fraction(0)
    return (
        (d1_max, min(max(dsum_max - d1_max, zero), d2_max)),
        (min(max(dsum_max - d2_max, zero), d1_max), d2_max),
    )


def _corner(a, b, d, e, f, p, q, r, u) -> tuple[int, int]:
    """Corner p' times k from the link products it reads.

    Flow 1 takes 2 min(a, b); flow 2 the most it can add on top.  The
    branch selects whether the transmit or the receive end of flow 1 is
    the bottleneck (ties go to the first branch), and max(..., 0) is the
    positive part.
    """
    if a >= b:
        budget = max(min(q, max(e - f, 0) + u), 0)
    else:
        # a < b leaves slack at R1; the interference budget grows by the
        # receive-side slack not already covered by spare backscatter room.
        budget = min(q, e - max(a - (r + max(f - e, 0)), 0))
    return 2 * min(a, b), min(2 * p + 2 * budget, 2 * d)


def corner_points(g: ScatteringGeometry) -> CornerPoints:
    """Both corner points of the full-duplex region.

    p' gives flow 1 its full point-to-point dimension and flow 2 the most
    it can add on top.  p'' is p' with the uplink and downlink roles
    swapped (the reciprocity of linear schemes), read back in (d1, d2)
    order.
    """
    k, a, b, c, d, e, f, p, q, r, s, u, v = link_products(g)
    d1_prime, d2_prime = _corner(a, b, d, e, f, p, q, r, u)
    d2_double, d1_double = _corner(d, c, a, f, e, r, s, p, v)
    return CornerPoints(
        (Fraction(d1_prime, k), Fraction(d2_prime, k)),
        (Fraction(d1_double, k), Fraction(d2_double, k)),
    )


def region_from_caps(
    d1_cap: Rational, d2_cap: Rational, dsum_cap: Rational
) -> DofRegion:
    """Polygon of {(d1, d2) >= 0 : d1 <= d1_cap, d2 <= d2_cap, sum <= dsum_cap}.

    Requires dsum_cap >= max(d1_cap, d2_cap), which every geometry-derived
    cap triple satisfies.
    """
    d1c, d2c, dsc = _frac(d1_cap), _frac(d2_cap), _frac(dsum_cap)
    if dsc < max(d1c, d2c):
        raise ValueError("sum cap below an individual cap")
    zero = Fraction(0)
    verts: list[tuple[Fraction, Fraction]] = [(zero, zero)]
    if d1c > 0:
        verts.append((d1c, zero))
    if dsc < d1c + d2c:
        for vert in ((d1c, dsc - d1c), (dsc - d2c, d2c)):
            if vert != verts[-1]:
                verts.append(vert)
    elif d1c > 0 and d2c > 0:
        verts.append((d1c, d2c))
    if d2c > 0 and (zero, d2c) != verts[-1]:
        verts.append((zero, d2c))
    return DofRegion(d1c, d2c, dsc, tuple(verts))


def fd_region(g: ScatteringGeometry) -> DofRegion:
    """Full-duplex region: the cap polygon of fd_caps."""
    return region_from_caps(*fd_caps(g))


def hd_region(g: ScatteringGeometry) -> DofRegion:
    """Half-duplex region: the time-sharing triangle of fd_caps."""
    d1c, d2c, _ = fd_caps(g)
    return hd_region_from_caps(d1c, d2c)


def hd_region_from_caps(d1_cap: Rational, d2_cap: Rational) -> DofRegion:
    """Half-duplex region: time sharing between the two flows.

    Sweeping the time-share parameter traces rectangles whose hull is the
    triangle on the two per-flow caps; there is no self-interference, so
    only the point-to-point caps matter.
    """
    d1c, d2c = _frac(d1_cap), _frac(d2_cap)
    zero = Fraction(0)
    verts: list[tuple[Fraction, Fraction]] = [(zero, zero)]
    if d1c > 0:
        verts.append((d1c, zero))
    if d2c > 0:
        verts.append((zero, d2c))
    return DofRegion(d1c, d2c, max(d1c, d2c), tuple(verts))


def region_relate(a: DofRegion, b: DofRegion) -> RegionRelation:
    """Exact polygon comparison of two regions.

    Both vertex lists are scaled to integers over the lcm of all their
    coordinate denominators, so the hull tests run on plain integers.
    """
    _, (va, vb) = scaled_endpoints((a.vertices, b.vertices))
    a_in_b = all(_hull_contains(vb, x, y) for x, y in va)
    b_in_a = all(_hull_contains(va, x, y) for x, y in vb)
    if a_in_b and b_in_a:
        return RegionRelation.EQUAL
    if a_in_b:
        return RegionRelation.A_STRICT_SUBSET_B
    if b_in_a:
        return RegionRelation.B_STRICT_SUBSET_A
    return RegionRelation.INCOMPARABLE


def is_rectangular(g: ScatteringGeometry) -> bool:
    """True when the sum cap is inactive and the region is a rectangle."""
    return caps_are_rectangular(fd_caps(g))


def caps_are_rectangular(caps: tuple[Fraction, Fraction, Fraction]) -> bool:
    """True when the sum cap of ``caps`` is inactive: the cap polygon is
    the rectangle on the two per-flow caps."""
    d1_max, d2_max, dsum_max = caps
    return dsum_max >= d1_max + d2_max


def genie_expand(g: ScatteringGeometry) -> ScatteringGeometry:
    """Overlap-completing expansion that lands on the original sum cap.

    Widens both backscatter intervals to their union with the matching
    forward interval and lengthens the two base-station arrays exactly
    enough to pay for the widening, so the larger of the two signaling
    dimensions of the result equals dsum_max of the input.
    """
    den, (t22, t12, r11, r12) = scaled_endpoints(
        (g.t22.intervals, g.t12.intervals, g.r11.intervals, g.r12.intervals)
    )
    t_union, r_union = _union(t22, t12), _union(r11, r12)
    if not t_union or not r_union:
        raise DegenerateGeometryError(
            "expansion needs nonzero-measure scattering unions on both sides"
        )
    # each array pays for the other side's private slack over its own
    # union width: |r11 - r12| = |r11 | r12| - |r12|, and likewise at T2
    t_width, r_width = _width(t_union), _width(r_union)
    L = g.lengths
    l_t2 = L.l_t2 + L.l_r1 * Fraction(r_width - _width(r12), t_width)
    l_r1 = L.l_r1 + L.l_t2 * Fraction(t_width - _width(t12), r_width)
    t_set = DirectionSet._from_scaled(t_union, den)
    r_set = DirectionSet._from_scaled(r_union, den)
    return ScatteringGeometry(
        t11=g.t11,
        r11=r_set,
        t22=t_set,
        r22=g.r22,
        t12=t_set,
        r12=r_set,
        lengths=ArrayHalfLengths(L.l_t1, l_r1, l_t2, L.l_r2),
    )


def make_symmetric(
    length: Rational, fwd: DirectionSet, back: DirectionSet
) -> ScatteringGeometry:
    """All four arrays of one half-length; forward/backscatter supports shared."""
    l = _frac(length)
    return ScatteringGeometry(
        t11=fwd,
        r11=fwd,
        t22=fwd,
        r22=fwd,
        t12=back,
        r12=back,
        lengths=ArrayHalfLengths(l, l, l, l),
    )


def make_fully_spread(l_bs: Rational, l_usr: Rational) -> ScatteringGeometry:
    """Scatterers everywhere: every support is all of [-1, 1]."""
    full = DirectionSet.full()
    bs, usr = _frac(l_bs), _frac(l_usr)
    return ScatteringGeometry(
        t11=full,
        r11=full,
        t22=full,
        r22=full,
        t12=full,
        r12=full,
        lengths=ArrayHalfLengths(usr, bs, bs, usr),
    )
