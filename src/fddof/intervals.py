"""Exact set algebra over finite unions of half-open subintervals of [-1, 1].

Direction sets live on the direction-cosine axis: a linear array resolves
elevation angles only through cos(theta), so every angular support collapses
to a subset of [-1, 1].  Endpoints are exact rationals throughout; the region
formulas downstream chain many set differences, and floating-point tolerance
stacking would corrupt corner-point equalities that must hold exactly.
"""

from __future__ import annotations

from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Rational = Union[Fraction, int, str, float]


class DomainError(ValueError):
    """Endpoint or angle outside the admissible domain."""


class MalformedIntervalError(ValueError):
    """Interval specification with lo >= hi."""


def _frac(value: Rational) -> Fraction:
    # a Fraction is immutable, so it is returned as it is; anything else,
    # a subclass included, becomes a plain Fraction
    return value if type(value) is Fraction else Fraction(value)


def _ratio(value: Rational) -> tuple[int, int]:
    """The reduced (numerator, positive denominator) pair of a rational."""
    value = _frac(value)
    return value.numerator, value.denominator


# (numerator, denominator) of the cosine at each exact grid angle, in degrees
_EXACT_COS = {0: (1, 1), 60: (1, 2), 90: (0, 1), 120: (-1, 2), 180: (-1, 1)}

_COS_DIGITS = 12  # decimal places every inexact cosine is rounded to
_PI = Decimal("3.141592653589793238462643383279502884197169399375105820974944592")


def cos_degrees(angle: Rational) -> Fraction:
    """Cosine of an angle in degrees, as an exact rational.

    Well-known exact values are returned exactly, at any angle congruent
    to one of them; any other angle is reduced exactly into [0, 90], its
    Taylor series summed to 50 digits, rounded half-even to ``_COS_DIGITS``
    decimal places and rationalized, which cannot leave [-1, 1].  The sum
    stops below 1e-48 and its roundings add under 2e-48, so the result is
    correctly rounded unless the cosine lies within 3e-48 of a midpoint.
    That is assumed, not proved: none lies on one (Niven's theorem), none
    tried nearer than 1e-17, but an angle with a long denominator can.
    """
    return Fraction(*_cos(*_ratio(angle)))


def _cos(n: int, d: int) -> tuple[int, int]:
    """``cos_degrees`` of n/d degrees, a ``_ratio`` pair, as one."""
    # cos is even, period 360: the table serves 420 and -60; n/d stays least
    n %= 360 * d
    n = min(n, 360 * d - n)
    if d == 1 and n in _EXACT_COS:
        return _EXACT_COS[n]
    # cos(180 - x) = -cos x; a fresh context, so no caller's setting applies
    sign, n = (-1, 180 * d - n) if 2 * n > 180 * d else (1, n)
    ctx = Context(prec=50, rounding=ROUND_HALF_EVEN, traps=[])
    x = ctx.multiply(ctx.divide(n, 180 * d), _PI)
    y, term, total, k = ctx.multiply(x, x), Decimal(1), Decimal(1), 0
    while term.adjusted() >= -48:  # at most 23 terms, as x <= pi/2
        k += 2
        term = ctx.divide(ctx.multiply(term, y), -k * (k - 1))
        total = ctx.add(total, term)
    scaled = sign * int(ctx.to_integral_value(ctx.scaleb(total, _COS_DIGITS)))
    g = gcd(scaled, 10**_COS_DIGITS)
    return scaled // g, 10**_COS_DIGITS // g


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


def _check_span(lo: tuple[int, int], hi: tuple[int, int]) -> tuple:
    """(lo, hi), each a ``_ratio`` pair, checked on integers to be an
    interval [lo, hi) inside [-1, 1]."""
    (ln, ld), (hn, hd) = lo, hi
    if ln * hd >= hn * ld:
        raise MalformedIntervalError(
            f"interval [{Fraction(*lo)}, {Fraction(*hi)}) has lo >= hi")
    if ln < -ld or hn > hd:
        raise DomainError(
            f"interval [{Fraction(*lo)}, {Fraction(*hi)}) leaves [-1, 1]")
    return lo, hi


def _angle_span(a: tuple[int, int], b: tuple[int, int]) -> tuple | None:
    """The direction span (cos b, cos a) of the angle pair [a, b] in degrees,
    checked on integers, as ``_ratio`` pairs, or None if it has no width."""
    (an, ad), (bn, bd) = a, b
    if an * bd > bn * ad:
        raise MalformedIntervalError(
            f"angle pair [{Fraction(*a)}, {Fraction(*b)}] has lo > hi")
    if an < 0 or bn > 180 * bd:
        raise DomainError(f"angle pair [{Fraction(*a)}, {Fraction(*b)}] "
                          "leaves [0, 180] degrees")
    (ln, ld), (hn, hd) = lo, hi = _cos(bn, bd), _cos(an, ad)
    return (lo, hi) if ln * hd < hn * ld else None


class DirectionSet:
    """Canonical finite union of disjoint half-open intervals [lo, hi).

    Construction canonicalizes: intervals are sorted by lower endpoint and
    overlapping or touching intervals are merged, then stored as integer
    pairs over their least denominator, so equal sets compare equal
    structurally; ``intervals`` gives them back as Fraction pairs.
    Instances are immutable and hashable; all operations are pure, so the
    type is safe to share across threads.
    """

    __slots__ = ("_den", "_ends")

    def __init__(self, intervals: Iterable[tuple[Rational, Rational]] = ()):
        built = self._from_ratios(
            [_check_span(_ratio(lo), _ratio(hi)) for lo, hi in intervals])
        self._den, self._ends = built._den, built._ends

    @classmethod
    def _from_scaled(
        cls, pairs: Sequence[tuple[int, int]], den: int
    ) -> "DirectionSet":
        """The set of intervals [lo / den, hi / den) for integer pairs,
        which must already be canonical: sorted, lo < hi, disjoint and not
        touching, inside [-den, den].  Nothing is re-sorted or re-checked;
        their gcd with den is divided out, so the set is stored least."""
        g = gcd(den, *(x for pair in pairs for x in pair))
        out = cls.__new__(cls)
        out._den = den // g
        out._ends = tuple((lo // g, hi // g) for lo, hi in pairs)
        return out

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The intervals as exact Fraction pairs, sorted and disjoint."""
        return tuple((Fraction(lo, self._den), Fraction(hi, self._den))
                     for lo, hi in self._ends)

    @classmethod
    def _from_ratios(cls, pairs: Sequence[tuple]) -> "DirectionSet":
        """Checked ``_ratio`` pairs (lo, hi), scaled once, then merged."""
        den = lcm(*(d for lo, hi in pairs for _, d in (lo, hi)))
        return cls._from_scaled(_merge([(ln * (den // ld), hn * (den // hd))
                                        for (ln, ld), (hn, hd) in pairs]), den)

    @classmethod
    def full(cls) -> "DirectionSet":
        return cls._from_scaled([(-1, 1)], 1)

    @classmethod
    def from_angles(
        cls, angle_pairs: Iterable[tuple[Rational, Rational]]
    ) -> "DirectionSet":
        """Map angular supports, in degrees on [0, 180], through the cosine.

        The cosine is decreasing on the elevation range, so an angle span
        [a, b] lands on the direction span [cos b, cos a].  Degenerate
        zero-width angle pairs map to a zero-measure image and vanish.
        """
        return cls._from_ratios([span for a, b in angle_pairs if (
            span := _angle_span(_ratio(a), _ratio(b)))])

    # -- structural protocol -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._ends)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectionSet):
            return NotImplemented
        return self._den == other._den and self._ends == other._ends

    def __hash__(self) -> int:
        return hash((self._den, self._ends))

    def __repr__(self) -> str:
        body = ", ".join(f"({lo}, {hi})" for lo, hi in self.intervals)
        return f"DirectionSet([{body}])"

    def __contains__(self, x: Rational) -> bool:
        x = _frac(x) * self._den
        return any(lo <= x < hi for lo, hi in self._ends)

    # -- set algebra ---------------------------------------------------------

    def measure(self) -> Fraction:
        """Total width, in [0, 2]."""
        return Fraction(sum(hi - lo for lo, hi in self._ends), self._den)

    def __or__(self, other: "DirectionSet") -> "DirectionSet":
        den, (a, b) = _common((self, other))
        return DirectionSet._from_scaled(_merge(a + b), den)

    def __and__(self, other: "DirectionSet") -> "DirectionSet":
        out = []
        den, (a, b) = _common((self, other))
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
        return DirectionSet._from_scaled(out, den)

    def __sub__(self, other: "DirectionSet") -> "DirectionSet":
        out = []
        den, (mine, theirs) = _common((self, other))
        for lo, hi in mine:
            cursor = lo
            for blo, bhi in theirs:
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
        return DirectionSet._from_scaled(out, den)

    def take_from_left(self, amount: Rational) -> "DirectionSet":
        """Leftmost subset with exactly the requested measure."""
        need = _frac(amount)
        if need < 0:
            raise ValueError("requested measure is negative")
        den, [ends] = _common([self], need.denominator)
        need = need.numerator * (den // need.denominator)
        out = []
        for lo, hi in ends:
            if need == 0:
                break
            width = min(hi - lo, need)
            out.append((lo, lo + width))
            need -= width
        if need > 0:
            raise ValueError(
                f"set of measure {self.measure()} cannot supply {amount}"
            )
        return DirectionSet._from_scaled(out, den)


def _common(sets: Sequence[DirectionSet], den: int = 1) -> tuple:
    """The lcm of den and the sets' denominators, and their pairs over it."""
    den = lcm(den, *(ds._den for ds in sets))
    pairs = []
    for ds in sets:
        m = den // ds._den
        pairs.append(ds._ends if m == 1 else tuple(
            (lo * m, hi * m) for lo, hi in ds._ends))
    return den, pairs


def scaled_endpoints(
    families: Sequence[Sequence[tuple[Fraction, Fraction]]],
) -> tuple[int, list[list[tuple[int, int]]]]:
    """Every rational pair times the lcm ``den`` of all their denominators.

    Takes sequences of exact rational pairs (a record's caps and vertices)
    and returns ``den`` and, per sequence, its pairs as integer pairs;
    dividing a pair by ``den`` gives back the exact one.  Exact algebra
    then runs on plain integers.
    """
    den = lcm(*(x.denominator for pairs in families
                for lo, hi in pairs for x in (lo, hi)))
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
    den, pairs = _common(sets)
    pieces, _ = integer_atoms(pairs)
    return [DirectionSet._from_scaled([atom], den) for atom in pieces]
