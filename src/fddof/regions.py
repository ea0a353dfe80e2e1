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
from functools import cached_property, lru_cache
from math import lcm
from typing import NamedTuple

from .intervals import (
    DirectionSet,
    DomainError,
    Rational,
    _common,
    _frac,
    _merge,
    scaled_endpoints,
)


_ZERO = Fraction(0)


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
            if value.numerator < 0:
                raise DomainError(f"array half-length {name} is negative")
            object.__setattr__(self, name, value)

    def scaled(self, factor: Rational) -> "ArrayHalfLengths":
        c = _frac(factor)
        return ArrayHalfLengths(
            self.l_t1 * c, self.l_r1 * c, self.l_t2 * c, self.l_r2 * c
        )


def _integer_form(g: ScatteringGeometry) -> tuple:
    """The geometry as integers: ``(den, scale, sets, lengths)``.

    ``sets`` holds t11, r11, t22, r22, t12, r12, each a tuple of endpoint
    pairs over ``den``, the lcm of the sets' own denominators; ``lengths``
    holds l_t1, l_r1, l_t2, l_r2 over ``scale``, the lcm of theirs.  Both
    are least, so geometries are equal exactly when their forms are.
    """
    den, sets = _common((g.t11, g.r11, g.t22, g.r22, g.t12, g.r12))
    L = g.lengths
    lengths = L.l_t1, L.l_r1, L.l_t2, L.l_r2
    scale = lcm(*(x.denominator for x in lengths))
    return den, scale, tuple(sets), tuple(
        x.numerator * (scale // x.denominator) for x in lengths
    )


@dataclass(frozen=True)
class ScatteringGeometry:
    """Six effective scattering intervals plus the four array half-lengths.

    t11/r11 describe the uplink, t22/r22 the downlink, and t12/r12 the
    self-interference path from the base-station transmitter back into its
    own receiver.  The user devices are hidden from each other, so the
    remaining cross-sets are identically empty and not stored.

    The hash reads the integer form (``_integer_form``).  It is computed
    once, on first use, and stored as one int (not a field: ``repr``,
    ``==`` and ``fields()`` ignore it, and pickling drops it), so each
    cache lookup by geometry after the first reads it.
    """

    t11: DirectionSet
    r11: DirectionSet
    t22: DirectionSet
    r22: DirectionSet
    t12: DirectionSet
    r12: DirectionSet
    lengths: ArrayHalfLengths

    @cached_property
    def _hash(self) -> int:
        return hash(_integer_form(self))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # an integer tuple's hash depends on the build (word size, Python
        # version), so a pickled one may be wrong where it is loaded
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def scaled(self, factor: Rational) -> "ScatteringGeometry":
        return replace(self, lengths=self.lengths.scaled(factor))


def _record(cls, form: tuple, *fields):
    """A ``cls`` record of these fields that keeps ``form``, the integers it
    was decided on, and runs its checks on them: nothing is scaled."""
    out = cls.__new__(cls)
    out.__dict__.update(zip(cls.__dataclass_fields__, fields), _form=form)
    out.__post_init__()
    return out


@dataclass(frozen=True)
class CornerPoints:
    """The two corner points bracketing the sum facet: nonnegative, and
    p'' neither right of nor below p'.  Coordinates are exact rationals,
    checked as integers over one denominator: the ``_form`` it keeps."""

    p_prime: tuple[Fraction, Fraction]
    p_double_prime: tuple[Fraction, Fraction]

    def __post_init__(self):
        if "_form" not in self.__dict__:
            pair = self.p_prime, self.p_double_prime
            self.__dict__["_form"] = scaled_endpoints([pair])
        _, [[(d1p, d2p), (d1pp, d2pp)]] = self._form
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

    Caps and vertices are exact rationals (ints or Fractions), checked as
    integers over one denominator: the ``_form`` it keeps (``_record``).
    """

    d1_cap: Fraction
    d2_cap: Fraction
    dsum_cap: Fraction
    vertices: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        if "_form" not in self.__dict__:
            caps = (self.d1_cap, self.d2_cap), (self.dsum_cap, 0)
            self.__dict__["_form"] = scaled_endpoints([caps, self.vertices])
        _, [((d1, d2), (ds, _)), verts] = self._form
        for (x, y), (vx, vy) in zip(verts, self.vertices):
            if x < 0 or y < 0 or x > d1 or y > d2:
                raise ValueError(f"vertex ({vx}, {vy}) violates the caps")
            if x + y > ds:
                raise ValueError(f"vertex ({vx}, {vy}) violates the sum cap")

    def area(self) -> Fraction:
        # the shoelace sum; on one or two vertices its terms cancel to 0
        v = self.vertices
        edges = zip(v, v[1:] + v[:1])
        return sum((ax * by - bx * ay for (ax, ay), (bx, by) in edges), _ZERO) / 2


def _hull_contains(verts, x, y) -> bool:
    """Whether the integer point (x, y) lies in the convex hull of the
    integer vertices ``verts`` (ccw order); ``region_relate`` reads it."""
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


@lru_cache(maxsize=128)
def link_products(g: ScatteringGeometry) -> LinkProducts:
    """The twelve link products every closed form is built from.

    - a = l_t1 |t11|, b = l_r1 |r11|: uplink transmit and receive ends;
    - c = l_t2 |t22|, d = l_r2 |r22|: downlink transmit and receive ends;
    - e = l_t2 |t12|, f = l_r1 |r12|: backscatter loads at T2 and at R1;
    - p = l_t2 |t22 - t12|, q = l_t2 |t22 & t12|, v = l_t2 |t12 - t22|;
    - r = l_r1 |r11 - r12|, s = l_r1 |r11 & r12|, u = l_r1 |r12 - r11|.

    Read from the geometry's integer form, so every product is an integer
    over k = den * scale.  Only the two overlaps are swept; each
    difference is |A| - |A & B|.

    Cached for the last 128 geometries (equal geometries share an entry),
    so every closed form after the first on a geometry reads the same
    immutable tuple.
    """
    den, scale, sets, (lt1, lr1, lt2, lr2) = _integer_form(g)
    t11, r11, t22, r22, t12, r12 = sets
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


@lru_cache(maxsize=128)
def _caps(g: ScatteringGeometry) -> tuple:
    """``(k, caps, fracs)``: the caps of ``fd_caps`` as integers over k and
    as Fractions.  The one cap formula, cached like the link products."""
    k, a, b, c, d, e, f, p, _, r, _, _, _ = link_products(g)
    caps = (2 * min(a, b), 2 * min(c, d), 2 * (p + r + max(e, f)))
    return k, caps, tuple(Fraction(x, k) for x in caps)


def fd_caps(g: ScatteringGeometry) -> tuple[Fraction, Fraction, Fraction]:
    """Per-flow and sum dimension caps of the full-duplex region.

    Each flow is capped by the smaller end of its own link; the sum is
    capped by the interference-free slack on both base-station arrays plus
    the larger of the two backscatter loads.  Cached, with their integer
    form, for the last 128 geometries (``_caps``).
    """
    return _caps(g)[2]


def cap_corners(caps: tuple[Fraction, Fraction, Fraction]) -> CornerPoints:
    """Corner pair (p', p'') derived from the caps alone.

    Each corner gives one flow its cap and the other flow what the sum cap
    leaves, clamped into [0, its own cap].  ``corner_points`` derives the
    same pair from the geometry; that the two agree is the corner/cap
    identity.
    """
    d1_max, d2_max, dsum_max = caps
    return CornerPoints(
        (d1_max, min(max(dsum_max - d1_max, _ZERO), d2_max)),
        (min(max(dsum_max - d2_max, _ZERO), d1_max), d2_max),
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
    return _record(
        CornerPoints, (k, [[(d1_prime, d2_prime), (d1_double, d2_double)]]),
        (Fraction(d1_prime, k), Fraction(d2_prime, k)),
        (Fraction(d1_double, k), Fraction(d2_double, k)),
    )


def fd_region(g: ScatteringGeometry) -> DofRegion:
    """Full-duplex region: the cap polygon of fd_caps.

    Built on the caps as integers over k; only a corner on the sum facet
    needs a Fraction the caps do not already hold.
    """
    k, (d1, d2, ds), exact = _caps(g)
    value = {0: _ZERO, d1: exact[0], d2: exact[1]}
    verts = [(0, 0)]
    if d1 > 0:
        verts.append((d1, 0))
    if ds < d1 + d2:
        value[ds - d1] = Fraction(ds - d1, k)
        value[ds - d2] = Fraction(ds - d2, k)
        for vert in ((d1, ds - d1), (ds - d2, d2)):
            if vert != verts[-1]:
                verts.append(vert)
    elif d1 > 0 and d2 > 0:
        verts.append((d1, d2))
    if d2 > 0 and (0, d2) != verts[-1]:
        verts.append((0, d2))
    return _record(DofRegion, (k, [((d1, d2), (ds, 0)), verts]), *exact,
                   tuple((value[x], value[y]) for x, y in verts))


def hd_region(g: ScatteringGeometry) -> DofRegion:
    """Half-duplex region: time sharing between the two flows.

    Sweeping the time-share parameter traces rectangles whose hull is the
    triangle on the two per-flow caps of fd_caps; there is no
    self-interference, so only the point-to-point caps matter.
    """
    k, (d1, d2, _), (d1c, d2c, _) = _caps(g)
    value = {0: _ZERO, d1: d1c, d2: d2c}
    verts = list(dict.fromkeys([(0, 0), (d1, 0), (0, d2)]))  # no repeats
    ds = max(d1, d2)
    return _record(DofRegion, (k, [((d1, d2), (ds, 0)), verts]), d1c, d2c,
                   value[ds], tuple((value[x], value[y]) for x, y in verts))


def region_relate(a: DofRegion, b: DofRegion) -> RegionRelation:
    """Exact polygon comparison of two regions.

    The hull tests run on the integer vertices both records keep, over
    one denominator: the lcm of their two, when those differ.
    """
    (ka, [_, va]), (kb, [_, vb]) = a._form, b._form
    if ka != kb:
        k = lcm(ka, kb)
        va = [(x * (k // ka), y * (k // ka)) for x, y in va]
        vb = [(x * (k // kb), y * (k // kb)) for x, y in vb]
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
    _, (d1, d2, ds), _ = _caps(g)
    return ds >= d1 + d2


def genie_expand(g: ScatteringGeometry) -> ScatteringGeometry:
    """Overlap-completing expansion that lands on the original sum cap.

    Widens both backscatter intervals to their union with the matching
    forward interval and lengthens the two base-station arrays exactly
    enough to pay for the widening, so the larger of the two signaling
    dimensions of the result equals dsum_max of the input.
    """
    L = g.lengths
    den, (t22, t12, r11, r12) = _common((g.t22, g.t12, g.r11, g.r12))
    scale = lcm(L.l_t2.denominator, L.l_r1.denominator)
    lt2, lr1 = (x.numerator * (scale // x.denominator)
                for x in (L.l_t2, L.l_r1))
    t_union, r_union = _merge(t22 + t12), _merge(r11 + r12)
    if not t_union or not r_union:
        raise DegenerateGeometryError(
            "expansion needs nonzero-measure scattering unions on both sides"
        )
    # each array pays for the other side's private slack over its own
    # union width: |r11 - r12| = |r11 | r12| - |r12|, and likewise at T2
    tw, rw = _width(t_union), _width(r_union)
    l_t2 = Fraction(lt2 * tw + lr1 * (rw - _width(r12)), scale * tw)
    l_r1 = Fraction(lr1 * rw + lt2 * (tw - _width(t12)), scale * rw)
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
    return ScatteringGeometry(
        t11=fwd,
        r11=fwd,
        t22=fwd,
        r22=fwd,
        t12=back,
        r12=back,
        lengths=ArrayHalfLengths(length, length, length, length),
    )


def make_fully_spread(l_bs: Rational, l_usr: Rational) -> ScatteringGeometry:
    """Scatterers everywhere: every support is all of [-1, 1]."""
    full = DirectionSet.full()
    return ScatteringGeometry(
        t11=full,
        r11=full,
        t22=full,
        r22=full,
        t12=full,
        r12=full,
        lengths=ArrayHalfLengths(l_usr, l_bs, l_bs, l_usr),
    )
