"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check here is exact (rational comparison or integer equality) except
the interference-leakage certificate, whose bound is 1e-8 relative.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction as F

from fddof import (
    RegionRelation,
    cap_corners,
    corner_points,
    fd_caps,
    fd_region,
    genie_expand,
    hd_region,
    is_rectangular,
    make_fully_spread,
    make_symmetric,
    region_relate,
    sample_channel,
    verify_operator_dims,
    zero_forcing_corner,
)
from geom_helpers import (
    criterion_2_geometries,
    nullity_codim,
    oracle_geometry_set,
    random_geometry,
    random_symmetric_inputs,
    reference_nullity_codim,
    symmetric_overlap,
)

SEEDS_PER_GEOMETRY = 20
LEAK_LIMIT = 1e-8


class criterion:
    """Times a criterion body, enforces its budget, prints one line."""

    def __init__(self, number, label, budget_seconds):
        self.number = number
        self.label = label
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(
            f"criterion {self.number} ({self.label}): {verdict} "
            f"({elapsed:.2f} s, budget {self.budget} s)"
        )
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget} s budget"
            )
        return False


def test_criterion_1_overlap_family_regions():
    expected = {
        F(1): ((F(2), F(0)), (F(0), F(2))),
        F(3, 4): ((F(2), F(0)), (F(2), F(1)), (F(1), F(2)), (F(0), F(2))),
        F(1, 2): ((F(2), F(0)), (F(2), F(2)), (F(0), F(2))),
        F(1, 4): ((F(2), F(0)), (F(2), F(2)), (F(0), F(2))),
        F(0): ((F(2), F(0)), (F(2), F(2)), (F(0), F(2))),
    }
    triangle = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))
    with criterion(1, "overlap family regions", 1.0):
        for overlap, tail in expected.items():
            g = symmetric_overlap(1, overlap)
            assert fd_region(g).vertices == ((F(0), F(0)),) + tail, overlap
            assert hd_region(g).vertices == triangle, overlap


def test_criterion_2_corners_equal_cap_intersections():
    geometries = criterion_2_geometries()
    with criterion(2, "corner/cap identity, 10^4 geometries", 30.0):
        for i, g in enumerate(geometries):
            assert corner_points(g) == cap_corners(fd_caps(g)), (i, g)


def test_criterion_3_operator_dimension_identities():
    geometries = oracle_geometry_set()
    assert len(geometries) >= 100
    with criterion(3, "operator dimension identities", 60.0):
        for gi, g in enumerate(geometries):
            identities = reference_nullity_codim(g)
            for seed in range(SEEDS_PER_GEOMETRY):
                ch = sample_channel(g, seed)
                report = verify_operator_dims(ch, g)
                assert report.all_ok, (gi, seed, str(report), str(g))
                # the nullity of s12 and the codimension of range(s11)
                assert nullity_codim(ch, report) == identities, (gi, seed)


def test_criterion_4_zero_forcing_corner():
    geometries = oracle_geometry_set()
    with criterion(4, "zero-forcing corner + leakage", 120.0):
        for gi, g in enumerate(geometries):
            want = cap_corners(fd_caps(g)).p_prime
            for seed in range(SEEDS_PER_GEOMETRY):
                result = zero_forcing_corner(sample_channel(g, seed), g)
                got = (result.d1, result.d2)
                assert got == want, (gi, seed, got, want)
                assert result.max_leakage < LEAK_LIMIT, (gi, seed, result)


def test_criterion_5_fully_spread_duplex_comparison():
    with criterion(5, "fully spread half- vs full-duplex", 1.0):
        for l_bs in range(1, 5):
            for l_usr in range(1, 5):
                g = make_fully_spread(l_bs, l_usr)
                relation = region_relate(hd_region(g), fd_region(g))
                if l_bs > l_usr:
                    assert relation is RegionRelation.A_STRICT_SUBSET_B, (
                        l_bs,
                        l_usr,
                    )
                else:
                    assert relation is RegionRelation.EQUAL, (l_bs, l_usr)


def test_criterion_6_rectangularity_set_condition():
    rng = random.Random(616161)
    with criterion(6, "rectangularity condition, 10^3 symmetric", 10.0):
        for i in range(1_000):
            length, fwd, back = random_symmetric_inputs(rng)
            g = make_symmetric(length, fwd, back)
            set_condition = (back - fwd).measure() >= (fwd & back).measure()
            assert is_rectangular(g) is set_condition, (i, length, fwd, back)


def test_criterion_7_expansion_lands_on_sum_cap():
    rng = random.Random(717171)
    with criterion(7, "overlap expansion preserves the sum cap", 10.0):
        done = 0
        while done < 1_000:
            g = random_geometry(rng)
            if not (g.t22 | g.t12) or not (g.r11 | g.r12):
                continue
            expanded = genie_expand(g)
            top = max(
                2 * expanded.lengths.l_t2 * expanded.t22.measure(),
                2 * expanded.lengths.l_r1 * expanded.r11.measure(),
            )
            assert top == fd_caps(g)[2], g
            done += 1
