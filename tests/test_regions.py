"""Unit and property tests for the region and corner-point formulas."""

import copy
import math
import pickle
import random
import sys
import threading
import time
from dataclasses import fields, replace
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fddof import (
    ArrayHalfLengths,
    CornerPoints,
    DegenerateGeometryError,
    DirectionSet,
    DofRegion,
    DomainError,
    RegionRelation,
    ScatteringGeometry,
    cap_corners,
    corner_points,
    fd_caps,
    fd_region,
    genie_expand,
    hd_region,
    is_rectangular,
    link_products,
    make_fully_spread,
    make_symmetric,
    region_relate,
)
from fddof.regions import _caps, _corner, _integer_form
from geom_helpers import (
    EMPTY,
    GRID,
    TOUCHING,
    binding_geometry_set,
    cap_region,
    criterion_2_geometries,
    direction_sets,
    ds,
    dual,
    fraction_endpoints,
    fractions_st,
    reference_cap_vertices,
    reference_caps,
    lengths_st,
    mixed_geometries,
    random_geometry,
    random_symmetric_inputs,
    reference_genie_expand,
    reference_hd_region,
    reference_link_products,
    reference_region_relate,
    symmetric_overlap,
)


# -- strategies ---------------------------------------------------------------

_sets = direction_sets()


@st.composite
def geometries(draw):
    sets = [draw(_sets) for _ in range(6)]
    lens = ArrayHalfLengths(*(draw(lengths_st) for _ in range(4)))
    return ScatteringGeometry(*sets, lengths=lens)


# -- link products -------------------------------------------------------------

class TestLinkProducts:
    @given(mixed_geometries())
    @example(TOUCHING)
    @example(EMPTY)
    @example(make_fully_spread(0, 0))
    @settings(max_examples=300, deadline=None)
    def test_equals_direction_set_algebra(self, g):
        lp = link_products(g)
        assert lp.k > 0
        assert all(type(x) is int for x in lp)
        assert tuple(F(x, lp.k) for x in lp[1:]) == reference_link_products(g)

    def test_touching_supports_do_not_overlap(self):
        lp = link_products(TOUCHING)
        assert lp.q == lp.s == 0
        assert (lp.p, lp.v) == (lp.c, lp.e)

    def test_cache_is_bounded(self):
        assert link_products.cache_info().maxsize == 128

    def test_the_oracle_plan_cache_has_the_same_bound(self):
        # oracle.MAX_SPACE_DIM's memory bound counts 128 plans
        from fddof.oracle import _plan

        assert _plan.cache_info().maxsize == 128

    def test_the_caps_cache_has_the_same_bound(self):
        assert _caps.cache_info().maxsize == 128

    @pytest.mark.parametrize("corpus", [
        binding_geometry_set,
        # every fifth geometry of the criterion-2 set keeps the Fraction
        # reference under a second
        lambda: criterion_2_geometries()[::5],
    ], ids=["binding", "random"])
    def test_a_hit_from_an_equal_geometry_equals_the_reference(self, corpus):
        for g in corpus():
            link_products.cache_clear()
            link_products(g)
            twin = copy.deepcopy(g)
            assert twin is not g and twin == g
            lp = link_products(twin)
            assert link_products.cache_info()[:2] == (1, 1)  # hits, misses
            # the twin is a deep copy, so g's reference is the twin's
            assert tuple(F(x, lp.k) for x in lp[1:]) == (
                reference_link_products(g)
            )

    def test_threads_sharing_one_fresh_geometry_agree(self):
        # more threads than cores and a short switch interval, so the
        # first hash, key and computation race; each round starts from a
        # geometry no thread has hashed or compared and an empty cache
        workers = 8
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 2.0
            for base in binding_geometry_set():
                if time.monotonic() > deadline:
                    break
                g = copy.deepcopy(base)
                expected = (hash(base), link_products.__wrapped__(base), True)
                link_products.cache_clear()
                barrier = threading.Barrier(workers)
                results = [None] * workers

                def work(slot, g=g, base=base, barrier=barrier,
                         results=results):
                    barrier.wait(timeout=10)
                    results[slot] = (hash(g), link_products(g), g == base)

                threads = [
                    threading.Thread(target=work, args=(slot,))
                    for slot in range(workers)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert results == [expected] * workers
        finally:
            sys.setswitchinterval(old_interval)


# -- the geometry's stored hash --------------------------------------------------

class TestGeometryHash:
    def test_equal_geometries_hash_alike_before_and_after_storing(self):
        g1 = symmetric_overlap(2, F(3, 4))
        g2 = symmetric_overlap(2, F(3, 4))
        assert g1 is not g2 and g1 == g2
        assert "_hash" not in vars(g1) and "_hash" not in vars(g2)
        assert hash(g1) == hash(g2)  # stores g1's, then g2's
        assert "_hash" in vars(g1) and "_hash" in vars(g2)
        assert hash(g1) == hash(g2)
        g3 = symmetric_overlap(2, F(3, 4))
        assert hash(g3) == hash(g1)  # a fresh one against a stored one

    def test_derived_geometries_carry_no_stored_hash(self):
        g = symmetric_overlap(2, F(3, 4))
        hash(g)
        assert "_hash" not in vars(g.scaled(2))
        assert "_hash" not in vars(replace(g))
        assert hash(replace(g)) == hash(g)

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        g = symmetric_overlap(2, F(3, 4))
        stored = hash(g)
        back = pickle.loads(pickle.dumps(g))
        assert "_hash" not in vars(back)
        assert back == g and hash(back) == stored

    def test_the_stored_hash_is_not_a_field(self):
        g = symmetric_overlap(2, F(3, 4))
        hash(g)
        assert [f.name for f in fields(g)] == [
            "t11", "r11", "t22", "r22", "t12", "r12", "lengths"
        ]
        assert "_hash" not in repr(g)
        assert g == symmetric_overlap(2, F(3, 4))


# -- geometry equality, field by field --------------------------------------------

def field_by_field(g1, g2):
    return all(getattr(g1, f.name) == getattr(g2, f.name) for f in fields(g1))


# a coarse grid, so independently drawn fields are often equal
_coarse_sets = direction_sets(max_fragments=2, grid=2)
_coarse_lengths = st.integers(0, 2).map(lambda n: F(n, 2))


@st.composite
def geometry_pairs(draw):
    """g1, and g2 that draws a few of the ten set and length slots afresh
    and rebuilds the others from g1's, so the two share no object."""
    sets = [draw(_coarse_sets) for _ in range(6)]
    lens = [draw(_coarse_lengths) for _ in range(4)]
    fresh = draw(st.sets(st.integers(0, 9), max_size=3))
    g1 = ScatteringGeometry(*sets, lengths=ArrayHalfLengths(*lens))
    g2 = ScatteringGeometry(
        *(draw(_coarse_sets) if i in fresh else DirectionSet(x.intervals)
          for i, x in enumerate(sets)),
        lengths=ArrayHalfLengths(*(
            draw(_coarse_lengths) if 6 + i in fresh else F(x)
            for i, x in enumerate(lens)
        )),
    )
    return g1, g2


class TestGeometryKey:
    @given(geometry_pairs(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_equality_agrees_with_the_fields(self, pair, hash_first):
        g1, g2 = pair
        expected = field_by_field(g1, g2)
        if hash_first:
            hash(g1), hash(g2)
        assert (g1 == g2) is expected
        assert (g2 == g1) is expected
        assert (g1 != g2) is not expected
        if expected:
            assert hash(g1) == hash(g2)
        assert (g1 == g2) is expected

    def test_set_boundaries_are_kept(self):
        a, b, c = (F(-1), F(-1, 2)), (F(0), F(1, 4)), (F(1, 2), F(1))
        unit = ArrayHalfLengths(1, 1, 1, 1)
        fwd = ds((0, 1))

        def geometry(t11, r11, t12, r12):
            return ScatteringGeometry(t11, r11, fwd, fwd, t12, r12, unit)

        # one interval moved from t12 to r12: the same endpoints in order
        assert (geometry(fwd, fwd, ds(a, b), ds(c))
                != geometry(fwd, fwd, ds(a), ds(b, c)))
        assert (geometry(fwd, fwd, ds(a), ds())
                != geometry(fwd, fwd, ds(), ds(a)))
        # an interval in t11 and an empty r11, against the reverse
        assert (geometry(ds(b), ds(), fwd, fwd)
                != geometry(ds(), ds(b), fwd, fwd))

    def test_endpoints_are_compared_with_their_denominator(self):
        # both scale to the integer pair (0, 1): over 2 and over 4
        unit = ArrayHalfLengths(1, 1, 1, 1)
        half = ScatteringGeometry(*[ds((0, F(1, 2)))] * 6, unit)
        quarter = ScatteringGeometry(*[ds((0, F(1, 4)))] * 6, unit)
        assert half != quarter and quarter != half

    @pytest.mark.parametrize("index", range(4))
    def test_geometries_differing_in_one_length_differ(self, index):
        g = symmetric_overlap(2, F(3, 4))
        lens = [g.lengths.l_t1, g.lengths.l_r1, g.lengths.l_t2, g.lengths.l_r2]
        for other in (lens[index] + F(1, 3), lens[index] * 3, F(0)):
            changed = list(lens)
            changed[index] = other
            h = replace(g, lengths=ArrayHalfLengths(*changed))
            assert h != g and g != h
            assert h == replace(g, lengths=ArrayHalfLengths(*changed))

    def test_equal_rationals_written_differently_are_equal(self):
        def geometry(low, half, quarter, one):
            sets = (ds((low, quarter)), ds((quarter, half)))
            return ScatteringGeometry(
                *sets, *sets, *sets,
                ArrayHalfLengths(half, quarter, one, 1),
            )

        g1 = geometry(F(-1, 2), F(1, 2), F(1, 4), F(1))
        g2 = geometry(F(-2, 4), F(2, 4), F(3, 12), F(4, 4))
        g3 = geometry("-1/2", "2/4", 0.25, 1)
        assert g1 == g2 == g3 and hash(g1) == hash(g2) == hash(g3)

    def test_scaled_geometries_are_equal(self):
        g = symmetric_overlap(F(3, 2), F(3, 4))
        assert g == symmetric_overlap(F(3, 2), F(3, 4))
        s1, s2 = g.scaled(2), g.scaled(2)
        assert s1 is not s2 and s1 == s2 and hash(s1) == hash(s2)
        assert s1 != g and g.scaled(1) == g

    def test_other_types_are_not_equal(self):
        g = symmetric_overlap(2, F(3, 4))
        assert g.__eq__(g.lengths) is NotImplemented
        assert g.__eq__(None) is NotImplemented
        assert g != g.lengths and g != g.t11


# -- the geometry's integer form ------------------------------------------------

class TestIntegerForm:
    @given(geometry_pairs())
    @settings(max_examples=300, deadline=None)
    def test_geometries_are_equal_exactly_when_their_forms_are(self, pair):
        g1, g2 = pair
        expected = field_by_field(g1, g2)
        assert (_integer_form(g1) == _integer_form(g2)) is expected
        assert (g1 == g2) is expected

    @given(st.one_of(geometry_pairs().map(lambda pair: pair[0]),
                     mixed_geometries()))
    @example(TOUCHING)
    @example(EMPTY)
    @settings(max_examples=200, deadline=None)
    def test_the_form_is_least_and_gives_back_every_fraction(self, g):
        form = _integer_form(g)
        den, scale, sets, lengths = form
        six = (g.t11, g.r11, g.t22, g.r22, g.t12, g.r12)
        L = g.lengths
        fractions = (L.l_t1, L.l_r1, L.l_t2, L.l_r2)
        endpoints = [x for ds in six for iv in ds.intervals for x in iv]
        assert den == math.lcm(*(x.denominator for x in endpoints))
        assert scale == math.lcm(*(x.denominator for x in fractions))
        assert len(sets) == 6 and len(lengths) == 4
        for pairs, ds in zip(sets, six):
            assert tuple((F(lo, den), F(hi, den)) for lo, hi in pairs) == (
                ds.intervals
            )
        assert tuple(F(x, scale) for x in lengths) == fractions
        # only tuples of ints, so it hashes, and the hash is the form's
        assert all(type(x) is int
                   for pairs in sets for pair in pairs for x in pair)
        assert all(type(x) is int for x in (den, scale, *lengths))
        assert hash(g) == hash(form)
        assert link_products(g).k == den * scale


# -- caps ----------------------------------------------------------------------

class TestCaps:
    @pytest.mark.parametrize(
        "p_prime,p_double_prime,message",
        [
            ((2, -1), (1, 2), "corner coordinates must be nonnegative"),
            ((F(-1, 3), 0), (0, 1), "corner coordinates must be nonnegative"),
            ((F(1, 3), 1), (F(1, 2), 2),
             "corners do not bracket the sum facet"),
            ((F(2, 3), F(5, 7)), (F(1, 3), F(4, 7)),
             "corners do not bracket the sum facet"),
        ],
    )
    def test_exact_refusals_keep_their_messages(self, p_prime,
                                                p_double_prime, message):
        with pytest.raises(ValueError) as info:
            CornerPoints(p_prime, p_double_prime)
        assert str(info.value) == message

    @pytest.mark.parametrize("corners", [
        ((2, 1), (1, 2)),
        ((F(2, 3), F(1, 7)), (F(1, 3), F(5, 7))),
        ((F(1, 3), 0), (F(1, 3), 0)),  # one corner, on the axis
    ])
    def test_exact_corners_on_the_boundary_are_accepted(self, corners):
        assert CornerPoints(*corners).p_prime == corners[0]

    def test_symmetric_unit_overlap_three_quarters(self):
        g = symmetric_overlap(1, F(3, 4))
        assert fd_caps(g) == (2, 2, 3)

    def test_no_interference_sum_is_inactive(self):
        g = ScatteringGeometry(
            t11=ds((0, 1)),
            r11=ds((0, F(1, 2))),
            t22=ds((0, F(1, 2))),
            r22=ds((0, 1)),
            t12=DirectionSet(),
            r12=DirectionSet(),
            lengths=ArrayHalfLengths(F(2), F(1), F(1), F(2)),
        )
        d1_max, d2_max, dsum_max = fd_caps(g)
        # T1 product (2) >= R1 product (1/2) and R2 product (2) >= T2 (1/2)
        assert dsum_max == d1_max + d2_max

    def test_fully_spread_asymmetric(self):
        assert fd_caps(make_fully_spread(2, 1)) == (4, 4, 8)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            ArrayHalfLengths(F(-1), F(1), F(1), F(1))


# -- corner points ---------------------------------------------------------------

def assert_reciprocal(g):
    """Swapping the uplink and downlink roles mirrors the link products,
    swaps the corners (each read back in (d1, d2) order) and the caps."""
    k, a, b, c, d, e, f, p, q, r, s, u, v = link_products(g)
    assert link_products(dual(g)) == (k, d, c, b, a, f, e, r, s, p, q, v, u)
    cp, cp_dual = corner_points(g), corner_points(dual(g))
    assert cp_dual.p_prime == cp.p_double_prime[::-1]
    assert cp_dual.p_double_prime == cp.p_prime[::-1]
    d1, d2, dsum = fd_caps(g)
    assert fd_caps(dual(g)) == (d2, d1, dsum)


class TestCornerPoints:
    @pytest.mark.parametrize(
        "p_prime,p_double_prime,message",
        [
            ((-1, 2), (1, 2), "must be nonnegative"),
            ((2, 1), (1, -1), "must be nonnegative"),
            ((1, 1), (2, 2), "do not bracket"),  # p' left of p''
            ((2, 2), (1, 1), "do not bracket"),  # p' above p''
        ],
    )
    def test_invalid_corners_are_refused(self, p_prime, p_double_prime,
                                         message):
        corners = (
            tuple(F(x) for x in p_prime), tuple(F(x) for x in p_double_prime)
        )
        with pytest.raises(ValueError, match=message):
            CornerPoints(*corners)

    def test_symmetric_unit_overlap_three_quarters(self):
        cp = corner_points(symmetric_overlap(1, F(3, 4)))
        assert cp.p_prime == (2, 1)
        assert cp.p_double_prime == (1, 2)

    def test_no_interference_single_corner(self):
        g = ScatteringGeometry(
            t11=ds((0, 1)),
            r11=ds((0, 1)),
            t22=ds((0, 1)),
            r22=ds((0, 1)),
            t12=DirectionSet(),
            r12=DirectionSet(),
            lengths=ArrayHalfLengths(F(1), F(1), F(1), F(1)),
        )
        cp = corner_points(g)
        assert cp.p_prime == (2, 2)
        assert cp.p_double_prime == (2, 2)

    @given(geometries())
    @settings(max_examples=300)
    def test_corners_equal_cap_intersections(self, g):
        assert corner_points(g) == cap_corners(fd_caps(g))

    @given(geometries())
    def test_corners_bracket_the_sum_facet(self, g):
        cp = corner_points(g)
        assert cp.p_prime[0] >= cp.p_double_prime[0]
        assert cp.p_prime[1] <= cp.p_double_prime[1]

    @given(mixed_geometries())
    @example(TOUCHING)
    @example(EMPTY)
    def test_dual_swaps_the_corners(self, g):
        assert_reciprocal(g)

    def test_dual_swaps_the_corners_on_the_criterion_2_set(self):
        for g in criterion_2_geometries():
            assert_reciprocal(g)

    @given(geometries(), st.integers(1, 5 * GRID).map(lambda n: F(n, GRID)))
    def test_scaling_lengths_scales_everything(self, g, c):
        scaled = g.scaled(c)
        assert fd_caps(scaled) == tuple(c * x for x in fd_caps(g))
        cp, cp_scaled = corner_points(g), corner_points(scaled)
        assert cp_scaled.p_prime == tuple(c * x for x in cp.p_prime)
        assert cp_scaled.p_double_prime == tuple(
            c * x for x in cp.p_double_prime
        )


# -- region polygons -------------------------------------------------------------

class TestRegions:
    @pytest.mark.parametrize(
        "overlap,expected",
        [
            (F(1), ((0, 0), (2, 0), (0, 2))),
            (F(3, 4), ((0, 0), (2, 0), (2, 1), (1, 2), (0, 2))),
            (F(1, 2), ((0, 0), (2, 0), (2, 2), (0, 2))),
        ],
    )
    def test_unit_symmetric_vertex_lists(self, overlap, expected):
        region = fd_region(symmetric_overlap(1, overlap))
        assert region.vertices == tuple(
            (F(x), F(y)) for x, y in expected
        )

    def test_half_duplex_triangle_ignores_overlap(self):
        for overlap in (F(1), F(3, 4), F(0)):
            region = hd_region(symmetric_overlap(1, overlap))
            assert region.vertices == ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))

    def test_half_duplex_degenerate_segment(self):
        g = ScatteringGeometry(
            t11=DirectionSet(),
            r11=DirectionSet(),
            t22=ds((0, 1)),
            r22=ds((0, 1)),
            t12=DirectionSet(),
            r12=DirectionSet(),
            lengths=ArrayHalfLengths(F(1), F(1), F(1), F(1)),
        )
        region = hd_region(g)
        assert region.vertices == ((F(0), F(0)), (F(0), F(2)))

    def test_fully_spread_equal_arrays_hd_region_is_fd_region(self):
        g = make_fully_spread(1, 1)
        assert region_relate(hd_region(g), fd_region(g)) is RegionRelation.EQUAL

    @pytest.mark.parametrize(
        "vertices,message",
        [
            (((F(-1), F(0)),), "violates the caps"),
            (((F(0), F(-1)),), "violates the caps"),
            (((F(3), F(0)),), "violates the caps"),
            (((F(0), F(3)),), "violates the caps"),
            (((F(2), F(2)),), "violates the sum cap"),
        ],
    )
    def test_region_refuses_a_vertex_outside_its_caps(self, vertices,
                                                      message):
        with pytest.raises(ValueError, match=f"vertex .* {message}"):
            DofRegion(F(2), F(2), F(3), vertices)

    @pytest.mark.parametrize(
        "caps,vertex,message",
        [
            ((2, 2, 3), (F(5, 2), 0), "vertex (5/2, 0) violates the caps"),
            ((2, 2, 3), (-1, 0), "vertex (-1, 0) violates the caps"),
            ((2, 2, 3), (0, 3), "vertex (0, 3) violates the caps"),
            ((2, 2, 3), (2, 2), "vertex (2, 2) violates the sum cap"),
            ((F(2, 3), F(5, 7), 1), (F(5, 7), 0),
             "vertex (5/7, 0) violates the caps"),
            ((F(2, 3), F(5, 7), 1), (0, F(-1, 3)),
             "vertex (0, -1/3) violates the caps"),
            ((F(2, 3), F(5, 7), 1), (F(2, 3), F(10, 21)),
             "vertex (2/3, 10/21) violates the sum cap"),
        ],
    )
    def test_exact_refusals_name_the_vertex_as_given(self, caps, vertex,
                                                      message):
        with pytest.raises(ValueError) as info:
            DofRegion(*caps, ((F(0), F(0)), vertex))
        assert str(info.value) == message

    def test_exact_vertices_on_the_caps_are_accepted(self):
        verts = ((0, 0), (F(2, 3), 0), (F(2, 3), F(1, 3)),
                 (F(2, 7), F(5, 7)), (0, F(5, 7)))
        assert DofRegion(F(2, 3), F(5, 7), 1, verts).vertices == verts

    @pytest.mark.parametrize("region,area", [
        (fd_region(symmetric_overlap(1, F(3, 4))), F(7, 2)),  # a pentagon
        (DofRegion(0, 0, 0, ((0, 0),)), F(0)),  # a zero cap on each axis
        (DofRegion(F(2, 3), 0, F(2, 3), ((0, 0), (F(2, 3), 0))), F(0)),
    ], ids=["pentagon", "one-vertex", "segment"])
    def test_area(self, region, area):
        assert region.area() == area
        assert type(region.area()) is F

    @given(geometries())
    @settings(max_examples=200)
    def test_half_duplex_inside_full_duplex(self, g):
        assert region_relate(hd_region(g), fd_region(g)) in {
            RegionRelation.EQUAL, RegionRelation.A_STRICT_SUBSET_B
        }

    @given(geometries())
    def test_fd_vertices_satisfy_caps(self, g):
        d1_max, d2_max, dsum_max = fd_caps(g)
        for x, y in fd_region(g).vertices:
            assert 0 <= x <= d1_max
            assert 0 <= y <= d2_max
            assert x + y <= dsum_max


# -- integer closed forms against the Fraction reference --------------------------

def assert_closed_forms_match_reference(g):
    caps = reference_caps(g)
    assert fd_caps(g) == caps
    assert all(type(x) is F for x in fd_caps(g))
    fd = fd_region(g)
    assert fd == DofRegion(*caps, reference_cap_vertices(*caps))
    assert all(type(x) is F for vertex in fd.vertices for x in vertex)
    hd = hd_region(g)
    assert hd == reference_hd_region(g)
    assert all(type(x) is F for vertex in hd.vertices for x in vertex)
    d1, d2, dsum = caps
    assert is_rectangular(g) is (dsum >= d1 + d2)
    a, b, c, d, e, f, p, q, r, s, u, v = reference_link_products(g)
    corners = corner_points(g)
    assert corners == CornerPoints(
        _corner(a, b, d, e, f, p, q, r, u),
        _corner(d, c, a, f, e, r, s, p, v)[::-1],
    )
    # each record keeps the integers it was decided on, over one k
    k, [pair] = corners._form
    assert tuple((F(x, k), F(y, k)) for x, y in pair) == (
        corners.p_prime, corners.p_double_prime
    )
    for region in (fd, hd):
        k, [((d1, d2), (ds, _)), verts] = region._form
        assert (F(d1, k), F(d2, k), F(ds, k)) == (
            region.d1_cap, region.d2_cap, region.dsum_cap
        )
        assert tuple((F(x, k), F(y, k)) for x, y in verts) == region.vertices
    try:
        want = reference_genie_expand(g)
    except DegenerateGeometryError:
        with pytest.raises(DegenerateGeometryError):
            genie_expand(g)
    else:
        assert genie_expand(g) == want


class TestIntegerClosedFormsAgainstReference:
    @pytest.mark.parametrize("corpus", [
        binding_geometry_set,
        # every fifth geometry of the criterion-2 set, as above
        lambda: criterion_2_geometries()[::5],
    ], ids=["binding", "random"])
    def test_fixed_corpora(self, corpus):
        for g in corpus():
            assert_closed_forms_match_reference(g)

    @given(mixed_geometries())
    @example(TOUCHING)
    @example(EMPTY)
    @example(make_fully_spread(0, 0))
    @settings(deadline=None)
    def test_mixed_geometries(self, g):
        assert_closed_forms_match_reference(g)


# -- relations -------------------------------------------------------------------

class TestRelations:
    def test_region_equals_itself(self):
        r = fd_region(symmetric_overlap(1, F(3, 4)))
        assert region_relate(r, r) is RegionRelation.EQUAL

    def test_fully_spread_larger_base_station(self):
        g = make_fully_spread(2, 1)
        assert (
            region_relate(hd_region(g), fd_region(g))
            is RegionRelation.A_STRICT_SUBSET_B
        )

    def test_fully_spread_smaller_base_station(self):
        g = make_fully_spread(1, 2)
        assert region_relate(hd_region(g), fd_region(g)) is RegionRelation.EQUAL

    def test_symmetric_identical_supports_collapse_to_time_sharing(self):
        g = make_symmetric(1, ds((0, 1)), ds((0, 1)))
        assert region_relate(fd_region(g), hd_region(g)) is RegionRelation.EQUAL

    def test_incomparable_segments(self):
        a = cap_region(2, 0, 2)
        b = cap_region(0, 2, 2)
        assert region_relate(a, b) is RegionRelation.INCOMPARABLE

    def test_half_duplex_is_optimal_only_when_backscatter_covers(self):
        """The paper's finding, a theorem on the caps and link products.

        Half duplex never beats full duplex: d1 <= 2b = 2(r + s) <= 2(r + f)
        <= dsum, and likewise d2 <= 2c = 2(p + q) <= 2(p + e) <= dsum, so
        HD is inside FD.  They are equal exactly when a per-flow cap is 0 or
        d1 = d2 = dsum; with both caps nonzero, exactly when p = r = u = v
        = 0 (t12 = t22 and r12 = r11 up to measure zero), e = f, a >= b and
        d >= c.  The control drops e = f and must disagree somewhere.
        """
        rng = random.Random(1404)
        forced = (random_geometry(rng) for _ in range(3000))
        symmetric = (random_symmetric_inputs(rng) for _ in range(500))
        corpus = [
            *criterion_2_geometries(), *binding_geometry_set(),
            TOUCHING, EMPTY,
            *(make_fully_spread(bs, usr) for bs in range(1, 5)
              for usr in range(1, 5)),
            *(replace(g, t12=g.t22, r12=g.r11) for g in forced),
            *(make_symmetric(length, fwd, fwd) for length, fwd, _ in symmetric),
        ]
        covered_equal = control_disagrees = 0
        for g in corpus:
            relation = region_relate(hd_region(g), fd_region(g))
            assert relation in {
                RegionRelation.EQUAL, RegionRelation.A_STRICT_SUBSET_B
            }
            equal = relation is RegionRelation.EQUAL
            d1, d2, dsum = fd_caps(g)
            assert equal is (d1 == 0 or d2 == 0 or d1 == d2 == dsum)
            if d1 and d2:
                _, a, b, c, d, e, f, p, _, r, _, u, v = link_products(g)
                control = p == r == u == v == 0 and a >= b and d >= c
                assert equal is (control and e == f)
                covered_equal += equal
                control_disagrees += equal is not control
        assert covered_equal and control_disagrees


# -- integer region comparison against the Fraction reference ---------------------

caps_st = st.one_of(st.just(F(0)), fractions_st(0, 8, max_denominator=12))


@st.composite
def cap_regions(draw):
    """Cap polygons, with zero caps giving 1- and 2-vertex regions."""
    d1, d2 = draw(caps_st), draw(caps_st)
    return cap_region(d1, d2, max(d1, d2) + draw(caps_st))


def assert_comparison_matches_reference(a, b):
    """region_relate both ways as the reference."""
    for x, y in ((a, b), (b, a)):
        assert region_relate(x, y) is reference_region_relate(x, y)


class TestComparisonAgainstReference:
    @given(mixed_geometries(), mixed_geometries())
    @example(TOUCHING, EMPTY)
    @example(make_fully_spread(2, 1), make_fully_spread(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_hd_fd_pairs(self, g, h):
        hd, fd = hd_region(g), fd_region(g)
        assert_comparison_matches_reference(hd, fd)
        assert_comparison_matches_reference(fd, fd_region(h))
        # a record the closed forms built against one built from Fractions
        assert_comparison_matches_reference(hd, cap_region(*fd_caps(h)))

    @given(cap_regions(), cap_regions())
    @example(cap_region(2, 0, 2), cap_region(0, 2, 2))
    @settings(max_examples=300, deadline=None)
    def test_cap_regions(self, a, b):
        assert_comparison_matches_reference(a, b)

    def test_every_relation_on_a_cap_grid(self):
        levels = (F(0), F(1, 2), F(2))
        regions = [
            cap_region(d1, d2, max(d1, d2) + extra)
            for d1 in levels for d2 in levels for extra in levels
        ]
        seen = set()
        for a in regions:
            for b in regions:
                relation = region_relate(a, b)
                assert relation is reference_region_relate(a, b)
                seen.add(relation)
        assert seen == set(RegionRelation)


# -- rectangularity ---------------------------------------------------------------

class TestRectangularity:
    @pytest.mark.parametrize(
        "overlap,expected", [(F(1, 2), True), (F(3, 4), False), (F(1), False)]
    )
    def test_unit_symmetric(self, overlap, expected):
        assert is_rectangular(symmetric_overlap(1, overlap)) is expected

    def test_no_interference_is_rectangular(self):
        g = make_symmetric(1, ds((0, 1)), DirectionSet())
        assert is_rectangular(g)

    @given(
        st.integers(1, 4 * GRID).map(lambda n: F(n, GRID)),
        direction_sets(),
        direction_sets(),
    )
    @settings(max_examples=300)
    def test_symmetric_set_condition_equivalence(self, length, fwd, back):
        g = make_symmetric(length, fwd, back)
        set_condition = (back - fwd).measure() >= (fwd & back).measure()
        sum_condition = (
            2 * (fwd - back).measure() + back.measure() >= 2 * fwd.measure()
        )
        assert is_rectangular(g) is set_condition
        assert set_condition is sum_condition

    @given(
        st.integers(1, 4 * GRID).map(lambda n: F(n, GRID)),
        direction_sets(),
        direction_sets(),
    )
    def test_symmetric_caps_reduction(self, length, fwd, back):
        g = make_symmetric(length, fwd, back)
        d1_max, d2_max, dsum_max = fd_caps(g)
        assert d1_max == d2_max == 2 * length * fwd.measure()
        assert dsum_max == 2 * length * (
            2 * (fwd - back).measure() + back.measure()
        )


# -- monotonicity ------------------------------------------------------------------

class TestMonotonicity:
    @given(geometries(), direction_sets())
    def test_enlarging_downlink_support_never_shrinks_caps(self, g, extra):
        grown = replace(g, t22=g.t22 | extra)
        _, d2_max, dsum_max = fd_caps(g)
        _, d2_grown, dsum_grown = fd_caps(grown)
        assert d2_grown >= d2_max
        assert dsum_grown >= dsum_max

    @given(geometries(), st.integers(0, 4))
    def test_moving_mass_into_the_overlap_never_grows_the_sum_cap(
        self, g, quarters
    ):
        private = g.t22 - g.t12
        piece = private.take_from_left(private.measure() * quarters / 4)
        shifted = replace(g, t12=g.t12 | piece)
        assert fd_caps(shifted)[2] <= fd_caps(g)[2]


# -- expansion ---------------------------------------------------------------------

class TestGenieExpansion:
    def test_symmetric_unit_overlap_three_quarters(self):
        g = symmetric_overlap(1, F(3, 4))
        expanded = genie_expand(g)
        assert expanded.lengths.l_t2 == F(6, 5)
        assert expanded.t22 == expanded.t12 == g.t22 | g.t12
        assert expanded.r11 == expanded.r12 == g.r11 | g.r12
        top = max(
            2 * expanded.lengths.l_t2 * expanded.t22.measure(),
            2 * expanded.lengths.l_r1 * expanded.r11.measure(),
        )
        assert top == fd_caps(g)[2]

    def test_already_overlapped_is_identity(self):
        g = make_symmetric(1, ds((0, 1)), ds((0, 1)))
        expanded = genie_expand(g)
        assert expanded == g

    def test_zero_measure_union_raises(self):
        g = ScatteringGeometry(
            t11=ds((0, 1)),
            r11=ds((0, 1)),
            t22=DirectionSet(),
            r22=ds((0, 1)),
            t12=DirectionSet(),
            r12=ds((0, 1)),
            lengths=ArrayHalfLengths(F(1), F(1), F(1), F(1)),
        )
        with pytest.raises(DegenerateGeometryError):
            genie_expand(g)

    @given(geometries())
    @settings(max_examples=300)
    def test_expansion_lands_on_the_sum_cap(self, g):
        t_union = g.t22 | g.t12
        r_union = g.r11 | g.r12
        if not t_union or not r_union:
            with pytest.raises(DegenerateGeometryError):
                genie_expand(g)
            return
        expanded = genie_expand(g)
        top = max(
            2 * expanded.lengths.l_t2 * expanded.t22.measure(),
            2 * expanded.lengths.l_r1 * expanded.r11.measure(),
        )
        assert top == fd_caps(g)[2]

    @given(mixed_geometries())
    @example(TOUCHING)
    @example(EMPTY)
    @example(make_fully_spread(0, 0))
    @settings(max_examples=200, deadline=None)
    def test_equals_fraction_reference(self, g):
        try:
            want = reference_genie_expand(g)
        except DegenerateGeometryError:
            with pytest.raises(DegenerateGeometryError):
                genie_expand(g)
            return
        got = genie_expand(g)
        assert got == want
        assert fraction_endpoints((got.t22, got.t12, got.r11, got.r12))
        L = got.lengths
        assert all(
            type(x) is F for x in (L.l_t1, L.l_r1, L.l_t2, L.l_r2)
        )


# -- constructors ------------------------------------------------------------------

class TestConstructors:
    def test_fully_spread_equal_arrays(self):
        assert fd_caps(make_fully_spread(1, 1)) == (4, 4, 4)

    def test_symmetric_zero_length(self):
        g = make_symmetric(0, ds((0, 1)), ds((0, 1)))
        assert fd_caps(g) == (0, 0, 0)
        assert fd_region(g).vertices == ((F(0), F(0)),)

    def test_point_to_point_cap_with_flow_two_removed(self):
        g = ScatteringGeometry(
            t11=ds((0, F(1, 2))),
            r11=ds((-1, 0)),
            t22=DirectionSet(),
            r22=DirectionSet(),
            t12=DirectionSet(),
            r12=DirectionSet(),
            lengths=ArrayHalfLengths(F(3), F(2), F(0), F(0)),
        )
        d1_max, d2_max, _ = fd_caps(g)
        assert d1_max == 2 * min(F(3) * F(1, 2), F(2) * F(1))
        assert d2_max == 0
