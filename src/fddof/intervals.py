"""Exact set algebra over finite unions of half-open subintervals of [-1, 1].

Direction sets live on the direction-cosine axis: a linear array resolves
elevation angles only through cos(theta), so every angular support collapses
to a subset of [-1, 1].  Endpoints are exact rationals throughout; the region
formulas downstream chain many set differences, and floating-point tolerance
stacking would corrupt corner-point equalities that must hold exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str, float]

LOWER = Fraction(-1)
UPPER = Fraction(1)


class DomainError(ValueError):
    """Endpoint or angle outside the admissible domain."""


class MalformedIntervalError(ValueError):
    """Interval specification with lo >= hi."""


def _frac(value: Rational) -> Fraction:
    # a Fraction is immutable, so it is returned as it is; anything else,
    # a subclass included, becomes a plain Fraction
    return value if type(value) is Fraction else Fraction(value)


# Exact cosines at the handful of grid angles (in degrees) that show up in
# hand-written scenarios; everything else is correctly rounded.
_EXACT_COS = {
    Fraction(0): Fraction(1),
    Fraction(60): Fraction(1, 2),
    Fraction(90): Fraction(0),
    Fraction(120): Fraction(-1, 2),
    Fraction(180): Fraction(-1),
}

_COS_DIGITS = 12  # decimal places every inexact cosine is rounded to


def cos_degrees(angle: Rational) -> Fraction:
    """Cosine of an angle in degrees, as an exact rational.

    Well-known exact values are returned exactly, at any angle congruent
    to one of them; any other angle is reduced exactly into [0, 180],
    evaluated in high precision, correctly rounded to ``_COS_DIGITS``
    decimal places and rationalized, which cannot leave [-1, 1].
    """
    theta = _frac(angle)
    exact = _EXACT_COS.get(theta)
    if exact is None:
        # cos is even with period 360, so the table also serves 420 and -60,
        # and mpmath never rounds an argument far outside [0, 180]
        theta %= 360
        theta = min(theta, 360 - theta)
        exact = _EXACT_COS.get(theta)
    if exact is not None:
        return exact
    # imported here, so scenarios on the exact grid never load mpmath
    import mpmath

    with mpmath.workdps(_COS_DIGITS + 25):
        value = mpmath.cos(
            mpmath.mpf(theta.numerator) / theta.denominator * mpmath.pi / 180
        )
        scaled = int(mpmath.nint(value * mpmath.mpf(10) ** _COS_DIGITS))
    return Fraction(scaled, 10**_COS_DIGITS)


def _merge(pairs: Iterable[tuple]) -> list[tuple]:
    """Pairs (lo, hi) with lo < hi in canonical form: sorted, with
    overlapping or touching pairs merged.  Exact on Fractions or ints."""
    merged: list[tuple] = []
    for lo, hi in sorted(pairs):
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class DirectionSet:
    """Canonical finite union of disjoint half-open intervals [lo, hi).

    Construction canonicalizes: intervals are sorted by lower endpoint and
    overlapping or touching intervals are merged, so equal sets compare
    equal structurally.  The empty set is an empty interval tuple.
    Instances are immutable and hashable; all operations are pure, so the
    type is safe to share across threads.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: Iterable[tuple[Rational, Rational]] = ()):
        cleaned = []
        for lo, hi in intervals:
            lo, hi = _frac(lo), _frac(hi)
            if lo >= hi:
                raise MalformedIntervalError(
                    f"interval [{lo}, {hi}) has lo >= hi"
                )
            if lo < LOWER or hi > UPPER:
                raise DomainError(f"interval [{lo}, {hi}) leaves [-1, 1]")
            cleaned.append((lo, hi))
        self.intervals = tuple(_merge(cleaned))

    @classmethod
    def _from_scaled(
        cls, pairs: Iterable[tuple[int, int]], den: int
    ) -> "DirectionSet":
        """The set of intervals [lo / den, hi / den) for integer pairs.

        The pairs must already be canonical: sorted, with lo < hi, disjoint
        and not touching, inside [-den, den].  Nothing is re-sorted or
        re-checked.
        """
        out = cls.__new__(cls)
        out.intervals = tuple(
            (Fraction(lo, den), Fraction(hi, den)) for lo, hi in pairs
        )
        return out

    @classmethod
    def full(cls) -> "DirectionSet":
        return cls([(LOWER, UPPER)])

    @classmethod
    def from_angles(
        cls, angle_pairs: Iterable[tuple[Rational, Rational]]
    ) -> "DirectionSet":
        """Map angular supports, in degrees on [0, 180], through the cosine.

        The cosine is decreasing on the elevation range, so an angle span
        [a, b] lands on the direction span [cos b, cos a].  Degenerate
        zero-width angle pairs map to a zero-measure image and vanish.
        """
        spans = []
        for a, b in angle_pairs:
            a, b = _frac(a), _frac(b)
            if a > b:
                raise MalformedIntervalError(
                    f"angle pair [{a}, {b}] has lo > hi"
                )
            if a < 0 or b > 180:
                raise DomainError(
                    f"angle pair [{a}, {b}] leaves [0, 180] degrees"
                )
            lo, hi = cos_degrees(b), cos_degrees(a)
            if lo < hi:
                spans.append((lo, hi))
        return cls(spans)

    # -- structural protocol -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectionSet):
            return NotImplemented
        return self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        body = ", ".join(f"({lo}, {hi})" for lo, hi in self.intervals)
        return f"DirectionSet([{body}])"

    def __contains__(self, x: Rational) -> bool:
        x = _frac(x)
        return any(lo <= x < hi for lo, hi in self.intervals)

    # -- set algebra ---------------------------------------------------------

    def measure(self) -> Fraction:
        """Total width, in [0, 2]."""
        return sum((hi - lo for lo, hi in self.intervals), Fraction(0))

    def __or__(self, other: "DirectionSet") -> "DirectionSet":
        return DirectionSet(self.intervals + other.intervals)

    def __and__(self, other: "DirectionSet") -> "DirectionSet":
        out = []
        a, b = self.intervals, other.intervals
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return DirectionSet(out)

    def __sub__(self, other: "DirectionSet") -> "DirectionSet":
        out = []
        for lo, hi in self.intervals:
            cursor = lo
            for blo, bhi in other.intervals:
                if bhi <= cursor:
                    continue
                if blo >= hi:
                    break
                if blo > cursor:
                    out.append((cursor, blo))
                cursor = max(cursor, bhi)
                if cursor >= hi:
                    break
            if cursor < hi:
                out.append((cursor, hi))
        return DirectionSet(out)

    def take_from_left(self, amount: Rational) -> "DirectionSet":
        """Leftmost subset with exactly the requested measure."""
        need = _frac(amount)
        if need < 0:
            raise ValueError("requested measure is negative")
        out = []
        for lo, hi in self.intervals:
            if need == 0:
                break
            width = min(hi - lo, need)
            out.append((lo, lo + width))
            need -= width
        if need > 0:
            raise ValueError(
                f"set of measure {self.measure()} cannot supply {amount}"
            )
        return DirectionSet(out)


def scaled_endpoints(
    families: Sequence[Sequence[tuple[Fraction, Fraction]]],
) -> tuple[int, list[list[tuple[int, int]]]]:
    """Every rational pair times the lcm ``den`` of all their denominators.

    Takes sequences of exact rational pairs (a set's ``intervals``, or a
    polygon's vertices) and returns ``den`` and, per sequence, its pairs as
    integer pairs; dividing a pair by ``den`` gives back the exact one.
    Exact algebra on the family then runs on plain integers.
    """
    den = 1
    for pairs in families:
        for lo, hi in pairs:
            if den % lo.denominator:
                den = lcm(den, lo.denominator)
            if den % hi.denominator:
                den = lcm(den, hi.denominator)
    return den, [
        [
            (lo.numerator * (den // lo.denominator),
             hi.numerator * (den // hi.denominator))
            for lo, hi in pairs
        ]
        for pairs in families
    ]


def integer_atoms(
    families: Sequence[Sequence[tuple[int, int]]],
) -> tuple[list[tuple[int, int]], list[int]]:
    """The atoms of ``refine`` on canonical integer interval lists, and per
    atom the bit mask of the lists that cover it (bit i for list i).

    A canonical list never closes one interval and opens the next at the
    same point, so its bit flips exactly at its own endpoints and
    membership changes at every breakpoint: the atoms are exactly the
    pieces between consecutive breakpoints that some list covers.
    """
    flips: dict[int, int] = {}
    for bit, intervals in enumerate(families):
        for lo, hi in intervals:
            flips[lo] = flips.get(lo, 0) ^ (1 << bit)
            flips[hi] = flips.get(hi, 0) ^ (1 << bit)
    points = sorted(flips)
    pieces, members = [], []
    cover = 0
    for lo, hi in zip(points, points[1:]):
        cover ^= flips[lo]
        if cover:
            pieces.append((lo, hi))
            members.append(cover)
    return pieces, members


def refine(sets: Sequence[DirectionSet]) -> list[DirectionSet]:
    """Coarsest contiguous partition of union(sets) by membership pattern.

    Every atom is a single interval that is either contained in or disjoint
    from each input set; adjacent pieces with identical membership merge, so
    ``refine([a])`` returns a's connected components.  Atoms are pairwise
    disjoint and cover exactly the union of the inputs.
    """
    den, scaled = scaled_endpoints([ds.intervals for ds in sets])
    pieces, _ = integer_atoms(scaled)
    return [DirectionSet._from_scaled([atom], den) for atom in pieces]
