"""Unit and property tests for the direction-set algebra."""

import math
import re
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fddof import (
    DirectionSet,
    DomainError,
    MalformedIntervalError,
    cos_degrees,
    refine,
)
from fddof.intervals import _frac
from geom_helpers import direction_sets, ds

GRID = 64


def bitmap(d: DirectionSet):
    """Brute-force rasterization on the 1/GRID cell grid over [-1, 1]."""
    return [(F(2 * j + 1, 2 * GRID) - 1) in d for j in range(2 * GRID)]


# -- exact values ---------------------------------------------------------------

class _SubFraction(F):
    pass


class TestFrac:
    def test_a_fraction_is_returned_as_it_is(self):
        x = F(3, 7)
        assert _frac(x) is x

    @pytest.mark.parametrize("value", [
        3, -2, True, "3/7", " -0.125 ", "1e-3", 0.1, -2.5,
        Decimal("0.1"), Decimal("-2.5"), _SubFraction(3, 7),
    ])
    def test_anything_else_becomes_a_plain_fraction(self, value):
        out = _frac(value)
        assert type(out) is F
        assert out == F(value)
        assert out is not value

    @pytest.mark.parametrize("value", ["x", float("nan"), float("inf"), None])
    def test_refusals_are_those_of_fraction(self, value):
        with pytest.raises((ValueError, OverflowError, TypeError)) as got:
            _frac(value)
        with pytest.raises(type(got.value), match=re.escape(str(got.value))):
            F(value)


# -- construction -------------------------------------------------------------

class TestCanonicalize:
    def test_overlapping_intervals_merge(self):
        assert ds((0, F(1, 2)), (F(1, 4), F(3, 4))).intervals == ((F(0), F(3, 4)),)

    def test_touching_intervals_merge(self):
        assert ds((-1, 0), (0, 1)).intervals == ((F(-1), F(1)),)

    def test_empty_input(self):
        assert DirectionSet().intervals == ()
        assert not DirectionSet()

    def test_unsorted_input_is_sorted(self):
        assert ds((F(1, 2), 1), (-1, 0)).intervals == (
            (F(-1), F(0)),
            (F(1, 2), F(1)),
        )

    def test_endpoint_outside_domain(self):
        with pytest.raises(DomainError):
            ds((-2, 0))
        with pytest.raises(DomainError):
            ds((0, F(3, 2)))

    def test_zero_width_rejected(self):
        with pytest.raises(MalformedIntervalError):
            ds((0, 0))
        with pytest.raises(MalformedIntervalError):
            ds((F(1, 2), F(1, 4)))

    def test_string_and_float_endpoints(self):
        assert ds(("1/4", "3/4")).intervals == ((F(1, 4), F(3, 4)),)
        assert ds((0.25, 0.75)).intervals == ((F(1, 4), F(3, 4)),)

    @given(direction_sets(grid=GRID))
    def test_reconstruction_is_identity(self, d):
        assert DirectionSet(d.intervals) == d

    def test_equality_with_another_type_is_not_implemented(self):
        d = ds((0, 1))
        assert d.__eq__(((F(0), F(1)),)) is NotImplemented
        assert d != ((F(0), F(1)),)

    def test_equal_sets_hash_alike(self):
        merged = ds((0, F(1, 2)), (F(1, 2), 1))
        assert hash(merged) == hash(ds((0, 1)))
        assert {merged, ds((0, 1))} == {ds((0, 1))}


class TestFromAngles:
    def test_full_elevation_range(self):
        d = DirectionSet.from_angles([(0, 180)])
        assert d == DirectionSet.full()
        assert d.measure() == 2

    def test_degenerate_point_vanishes(self):
        assert DirectionSet.from_angles([(90, 90)]) == DirectionSet()

    def test_exact_special_values(self):
        d = DirectionSet.from_angles([(60, 90)])
        assert d.intervals == ((F(0), F(1, 2)),)
        assert d.measure() == F(1, 2)

    def test_orientation_reversal(self):
        assert DirectionSet.from_angles([(0, 60)]).intervals == ((F(1, 2), F(1)),)

    def test_angle_outside_range(self):
        with pytest.raises(DomainError):
            DirectionSet.from_angles([(-10, 0)])
        with pytest.raises(DomainError):
            DirectionSet.from_angles([(170, 190)])

    def test_descending_pair_rejected(self):
        with pytest.raises(MalformedIntervalError):
            DirectionSet.from_angles([(90, 60)])

    def test_generic_angle_correctly_rounded(self):
        approx = cos_degrees(45)
        assert abs(float(approx) - math.cos(math.radians(45))) < 1e-12
        assert approx.denominator <= 10**12

    def test_off_grid_cosines_are_pinned(self):
        # mpmath is imported on the first off-grid call; the rounding of
        # every off-grid angle must stay exactly as it is
        assert cos_degrees(45) == F(707106781187, 10**12)
        assert cos_degrees("22.5") == F(923879532511, 10**12)

    def test_angles_are_reduced_exactly_mod_360(self):
        # mpmath's working precision read 45 + 360 * 10**40 as an angle
        # whose cosine is 0.867
        huge = 360 * 10**40
        assert cos_degrees(45 + huge) == F(707106781187, 10**12)
        assert cos_degrees(-45 - huge) == F(707106781187, 10**12)
        assert cos_degrees(F(45, 2) + huge) == F(923879532511, 10**12)
        assert cos_degrees(420) == cos_degrees(-60) == F(1, 2)

    def test_generic_angles_round_trip_through_sets(self):
        d = DirectionSet.from_angles([(30, 45)])
        (lo, hi), = d.intervals
        assert abs(float(lo) - math.cos(math.radians(45))) < 1e-12
        assert abs(float(hi) - math.cos(math.radians(30))) < 1e-12


# -- set operations -----------------------------------------------------------

class TestOperations:
    def test_intersection_example(self):
        assert ds((0, 1)) & ds((F(1, 2), 1)) == ds((F(1, 2), 1))

    def test_difference_example(self):
        assert ds((0, 1)) - ds((F(1, 4), F(1, 2))) == ds(
            (0, F(1, 4)), (F(1, 2), 1)
        )

    def test_union_example(self):
        assert ds((0, F(1, 4))) | ds((F(1, 4), 1)) == ds((0, 1))

    def test_measure_full(self):
        assert DirectionSet.full().measure() == 2

    def test_measure_empty(self):
        assert DirectionSet().measure() == 0

    def test_measure_additive(self):
        assert ds((0, F(1, 4)), (F(1, 2), 1)).measure() == F(3, 4)

    def test_contains(self):
        d = ds((0, F(1, 2)))
        assert F(0) in d
        assert F(1, 4) in d
        assert F(1, 2) not in d  # half-open

    def test_complement(self):
        full = DirectionSet.full()
        assert full - ds((0, F(1, 2))) == ds((-1, 0), (F(1, 2), 1))
        assert full - full == DirectionSet()

    def test_take_from_left(self):
        d = ds((0, F(1, 4)), (F(1, 2), 1))
        taken = d.take_from_left(F(1, 2))
        assert taken == ds((0, F(1, 4)), (F(1, 2), F(3, 4)))
        assert d.take_from_left(0) == DirectionSet()
        with pytest.raises(ValueError):
            d.take_from_left(2)

    def test_take_from_left_refuses_a_negative_measure(self):
        with pytest.raises(ValueError, match="^requested measure is negative$"):
            ds((0, 1)).take_from_left(F(-1, 4))

    @given(direction_sets(grid=GRID), direction_sets(grid=GRID))
    def test_bitmap_union(self, a, b):
        want = [x or y for x, y in zip(bitmap(a), bitmap(b))]
        assert bitmap(a | b) == want

    @given(direction_sets(grid=GRID), direction_sets(grid=GRID))
    def test_bitmap_intersection(self, a, b):
        want = [x and y for x, y in zip(bitmap(a), bitmap(b))]
        assert bitmap(a & b) == want

    @given(direction_sets(grid=GRID), direction_sets(grid=GRID))
    def test_bitmap_difference(self, a, b):
        want = [x and not y for x, y in zip(bitmap(a), bitmap(b))]
        assert bitmap(a - b) == want

    @given(direction_sets(grid=GRID), direction_sets(grid=GRID))
    def test_inclusion_exclusion_exact(self, a, b):
        assert (a | b).measure() + (a & b).measure() == a.measure() + b.measure()

    @given(direction_sets(grid=GRID), direction_sets(grid=GRID))
    def test_measure_monotone(self, a, b):
        inner = a & b
        assert not (inner - a)
        assert inner.measure() <= a.measure()

    @given(direction_sets(grid=GRID), direction_sets(grid=GRID))
    def test_difference_recomposes(self, a, b):
        assert (a - b) | (a & b) == a

    @given(direction_sets(grid=GRID), st.integers(0, 4))
    def test_take_from_left_properties(self, a, quarters):
        amount = a.measure() * quarters / 4
        taken = a.take_from_left(amount)
        assert taken.measure() == amount
        assert not (taken - a)


# -- refinement ---------------------------------------------------------------

class TestRefine:
    def test_two_set_example(self):
        atoms = refine([ds((0, 1)), ds((F(1, 2), 1))])
        assert atoms == [ds((0, F(1, 2))), ds((F(1, 2), 1))]

    def test_single_set_gives_components(self):
        a = ds((0, F(1, 4)), (F(1, 2), 1))
        assert refine([a, DirectionSet()]) == [ds(iv) for iv in a.intervals]

    def test_empty_family(self):
        assert refine([]) == []
        assert refine([DirectionSet()]) == []

    def test_interior_split(self):
        atoms = refine([ds((0, 1)), ds((F(1, 4), F(1, 2)))])
        assert atoms == [
            ds((0, F(1, 4))),
            ds((F(1, 4), F(1, 2))),
            ds((F(1, 2), 1)),
        ]

    @given(st.lists(direction_sets(grid=GRID), min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_atoms_classify_each_input(self, sets):
        atoms = refine(sets)
        union = DirectionSet()
        for d in sets:
            union = union | d
        combined = DirectionSet()
        for atom in atoms:
            assert len(atom.intervals) == 1
            # disjoint from everything accumulated so far
            assert not (atom & combined)
            combined = combined | atom
            for d in sets:
                hit = atom & d
                assert hit == atom or not hit
        assert combined == union

    @given(st.lists(direction_sets(grid=GRID), min_size=1, max_size=3))
    def test_atoms_are_coarsest(self, sets):
        # adjacent atoms must differ in membership somewhere, otherwise the
        # partition would not be the coarsest one
        atoms = refine(sets)
        for left, right in zip(atoms, atoms[1:]):
            if left.intervals[0][1] != right.intervals[0][0]:
                continue
            left_sig = tuple(bool(left & d == left) for d in sets)
            right_sig = tuple(bool(right & d == right) for d in sets)
            assert left_sig != right_sig
