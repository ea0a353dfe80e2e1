"""Tests for the discretized-channel oracle."""

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from fddof import (
    ArrayHalfLengths,
    DimensionBudgetError,
    DirectionSet,
    QuantizationError,
    RankToleranceWarning,
    ScatteringGeometry,
    allocate_basis,
    cap_corners,
    corner_points,
    corrupt_support,
    fd_caps,
    integer_rescale,
    integer_scale,
    link_products,
    load_scenario,
    make_fully_spread,
    make_symmetric,
    numerical_rank,
    refine,
    sample_channel,
    verify_operator_dims,
    zero_forcing_corner,
    zf_case_applies,
)
from fddof.oracle import LEAKAGE_TOL, MAX_SPACE_DIM, check_dimension_budget
from geom_helpers import (
    EMPTY,
    TOUCHING,
    ds,
    fraction_endpoints,
    mixed_geometries,
    oracle_geometry_set,
    random_integral_case_geometry,
    random_integral_geometry,
    reference_allocation,
    reference_integer_scale,
    reference_link_products,
    reference_mask,
    reference_refine,
    reference_zero_forcing_corner,
    space_families,
    symmetric_overlap,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def no_interference_geometry():
    return ScatteringGeometry(
        t11=ds((0, 1)),
        r11=ds((0, 1)),
        t22=ds((0, 1)),
        r22=ds((0, 1)),
        t12=DirectionSet(),
        r12=DirectionSet(),
        lengths=ArrayHalfLengths(F(1), F(1), F(1), F(1)),
    )


# -- basis allocation ----------------------------------------------------------

class TestAllocateBasis:
    def test_symmetric_scale_two_atom_dims(self):
        alloc = allocate_basis(symmetric_overlap(2, F(3, 4)))
        # atoms left to right: backscatter-only, overlap, forward-only
        assert alloc.t2.dims == (1, 3, 1)
        assert alloc.t2.total == 5
        assert alloc.r1.dims == (1, 3, 1)
        assert alloc.t1.dims == (4,)
        assert alloc.r2.dims == (4,)

    def test_fully_spread_unit_arrays(self):
        alloc = allocate_basis(make_fully_spread(1, 1))
        assert {a.total for a in (alloc.t1, alloc.t2, alloc.r1, alloc.r2)} == {4}

    def test_non_integral_atom_raises(self):
        with pytest.raises(QuantizationError) as info:
            allocate_basis(symmetric_overlap(1, F(3, 4)))
        err = info.value
        assert err.suggested_scale == 2
        assert err.dim == F(1, 2)
        assert err.total == F(5, 2)
        assert "scaling all array lengths by 2" in str(err)


class TestIntegerRescale:
    def test_symmetric_overlap_needs_two(self):
        g, scale = integer_rescale(symmetric_overlap(1, F(3, 4)))
        assert scale == 2
        assert g.lengths.l_t2 == 2
        allocate_basis(g)  # no quantization error after rescale

    def test_integral_geometry_is_untouched(self):
        g = make_fully_spread(1, 1)
        scaled, scale = integer_rescale(g)
        assert scale == 1
        assert scaled == g

    def test_third_length_needs_three(self):
        g = make_symmetric(F(1, 3), ds((0, 1)), DirectionSet())
        assert integer_scale(g) == 3

    def test_caps_scale_with_the_factor(self):
        base = symmetric_overlap(1, F(3, 4))
        g, scale = integer_rescale(base)
        assert fd_caps(g) == tuple(scale * x for x in fd_caps(base))


# -- channel sampling ------------------------------------------------------------

class TestSampleChannel:
    def test_same_seed_is_bit_identical(self):
        g = symmetric_overlap(2, F(3, 4))
        a = sample_channel(g, seed=123)
        b = sample_channel(g, seed=123)
        for name in ("s11", "s12", "s22"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        g = symmetric_overlap(2, F(3, 4))
        a = sample_channel(g, seed=1)
        b = sample_channel(g, seed=2)
        assert not np.array_equal(a.s11, b.s11)

    def test_empty_interference_gives_zero_matrix(self):
        ch = sample_channel(no_interference_geometry(), seed=0)
        assert ch.s12.shape == (2, 2)
        assert not ch.s12.any()

    def test_support_pattern_symmetric_scale_two(self):
        g = symmetric_overlap(2, F(3, 4))
        ch = sample_channel(g, seed=0)
        assert ch.s11.shape == (5, 4)
        assert ch.s12.shape == (5, 5)
        assert ch.s22.shape == (4, 5)
        # atoms sort left to right: backscatter-only, overlap, forward-only;
        # the forward-only transmit atom cannot reach the backscatter path
        assert not ch.s12[:, 4].any()
        assert ch.s12[:4, :4].all()
        # the forward-only receive atom hears no backscatter
        assert not ch.s12[4, :].any()
        # the uplink operator misses the backscatter-only receive atom
        assert not ch.s11[0, :].any()
        assert ch.s11[1:, :].all()
        # the downlink operator sees no transmit energy outside its support
        assert not ch.s22[:, 0].any()
        assert ch.s22[:, 1:].all()


# -- dimension identities ----------------------------------------------------------

class TestOperatorDims:
    def test_symmetric_scale_two(self):
        g = symmetric_overlap(2, F(3, 4))
        report = verify_operator_dims(sample_channel(g, seed=5), g)
        by_name = {c.name: c for c in report.checks}
        assert by_name["rank(s12)"].observed == 4
        assert by_name["nullity(s12)"].observed == 1
        assert by_name["codim range(s11)"].observed == 1
        assert report.all_ok

    def test_zero_interference_matrix(self):
        g = no_interference_geometry()
        report = verify_operator_dims(sample_channel(g, seed=5), g)
        by_name = {c.name: c for c in report.checks}
        assert by_name["rank(s12)"].observed == 0
        assert by_name["nullity(s12)"].observed == 2
        assert report.all_ok

    def test_fully_spread_unit_arrays(self):
        g = make_fully_spread(1, 1)
        report = verify_operator_dims(sample_channel(g, seed=5), g)
        by_name = {c.name: c for c in report.checks}
        assert by_name["rank(s11)"].observed == 4
        assert by_name["nullity(s12)"].observed == 0
        assert by_name["codim range(s11)"].observed == 0
        assert report.all_ok

    def test_random_integral_geometries_pass(self):
        rng = random.Random(424242)
        for _ in range(25):
            g = random_integral_geometry(rng, max_dim=48)
            for seed in range(3):
                report = verify_operator_dims(sample_channel(g, seed), g)
                assert report.all_ok, f"{report}\n{g}"

    def test_ranks_are_seed_invariant(self):
        g = symmetric_overlap(2, F(3, 4))
        observed = {
            tuple(
                c.observed
                for c in verify_operator_dims(sample_channel(g, seed), g).checks
            )
            for seed in range(10)
        }
        assert len(observed) == 1

    def test_corrupted_support_fails(self):
        g = symmetric_overlap(2, F(3, 4))
        ch = corrupt_support(sample_channel(g, seed=0), g)
        assert not verify_operator_dims(ch, g).all_ok

    def test_corrupt_support_without_holes_zeroes_a_row(self):
        g = make_fully_spread(1, 1)  # every entry is structurally supported
        ch = corrupt_support(sample_channel(g, seed=0), g)
        assert not verify_operator_dims(ch, g).all_ok


class TestNumericalRank:
    def test_plain_ranks(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert numerical_rank(np.eye(3)) == 3

    def test_near_threshold_warns(self):
        matrix = np.diag([1.0, 1e-9])
        with pytest.warns(RankToleranceWarning):
            numerical_rank(matrix, rank_tol=1e-9)


# -- zero forcing -------------------------------------------------------------------

class TestZeroForcing:
    def test_symmetric_scale_two_reaches_the_corner(self):
        g = symmetric_overlap(2, F(3, 4))
        result = zero_forcing_corner(sample_channel(g, seed=0), g)
        assert result.corner == (4, 2)
        assert result.p12_dim == 2
        assert result.max_leakage < 1e-8

    def test_no_interference_reaches_the_rectangle_corner(self):
        g = no_interference_geometry()
        result = zero_forcing_corner(sample_channel(g, seed=0), g)
        assert result.corner == (2, 2)

    def test_fully_spread_asymmetric(self):
        g = make_fully_spread(2, 1)
        result = zero_forcing_corner(sample_channel(g, seed=0), g)
        assert result.corner == (4, 4)

    def test_geometry_mismatch_is_rejected(self):
        ch = sample_channel(make_fully_spread(1, 1), seed=0)
        with pytest.raises(ValueError):
            zero_forcing_corner(ch, make_fully_spread(2, 1))

    @pytest.mark.parametrize("name", ["s11", "s12", "s22"])
    def test_each_mis_shaped_matrix_is_rejected(self, name):
        # spaces r1=10, t1=4, t2=5, r2=4: every transpose changes a shape
        g = replace(
            symmetric_overlap(2, F(3, 4)),
            lengths=ArrayHalfLengths(2, 4, 2, 2),
        )
        ch = sample_channel(g, seed=0)
        bad = replace(ch, **{name: getattr(ch, name).T})
        with pytest.raises(ValueError, match="not sampled from this geometry"):
            zero_forcing_corner(bad, g)

    def test_case_conditions_hold_for_the_showcases(self):
        assert zf_case_applies(symmetric_overlap(2, F(3, 4)))
        assert zf_case_applies(no_interference_geometry())
        # flow 1 is transmitter-limited when the base station is larger, so
        # the sufficient conditions do not cover this one (the construction
        # still reaches the corner there, see test_fully_spread_asymmetric)
        assert not zf_case_applies(make_fully_spread(2, 1))

    def test_matches_corner_under_case_conditions(self):
        rng = random.Random(31337)
        for _ in range(20):
            g = random_integral_case_geometry(rng, max_dim=48)
            target = cap_corners(fd_caps(g))[0]
            result = zero_forcing_corner(sample_channel(g, seed=9), g)
            assert result.corner == (int(target[0]), int(target[1]))
            assert result.max_leakage < 1e-8

    def test_never_exceeds_the_corner(self):
        rng = random.Random(999)
        for _ in range(25):
            g = random_integral_geometry(rng, max_dim=48)
            target = cap_corners(fd_caps(g))[0]
            result = zero_forcing_corner(sample_channel(g, seed=3), g)
            assert result.d1 == int(target[0])
            assert result.d2 <= int(target[1])
            assert result.max_leakage < 1e-8

    def test_agrees_with_corner_points(self):
        g = symmetric_overlap(2, F(3, 4))
        cp = corner_points(g)
        result = zero_forcing_corner(sample_channel(g, seed=4), g)
        assert result.corner == (int(cp.p_prime[0]), int(cp.p_prime[1]))


# the checked-in scenarios scaled so their largest space has 64-80 basis
# functions, as in the benchmark's large oracle workload
LARGE_SCALES = {
    "angles_demo": 16,
    "empty_backscatter": 32,
    "fully_spread_bs2_usr1": 8,
    "symmetric_overlap_075": 32,
}


def assert_matches_reference(g):
    for seed in range(3):
        ch = sample_channel(g, seed)
        result = zero_forcing_corner(ch, g)
        ref = reference_zero_forcing_corner(ch, g)
        assert (result.d1, result.d2, result.p12_dim) == (
            ref.d1, ref.d2, ref.p12_dim
        ), (seed, result, ref, g)
        assert result.max_leakage < LEAKAGE_TOL, (seed, result, g)
    return result


def test_nullspace_matches_the_preimage_construction():
    """ker(U1^H s12) against the nullspace-plus-preimages construction on
    random integral geometries, the criterion-3/4 set and the scenarios."""
    rng = random.Random(7)
    geometries = [random_integral_geometry(rng) for _ in range(400)]
    geometries += oracle_geometry_set()
    for stem, scale in LARGE_SCALES.items():
        raw = load_scenario(SCENARIOS / f"{stem}.json").geometry
        geometries += [integer_rescale(raw)[0], raw.scaled(scale)]
    for g in geometries:
        assert_matches_reference(g)


class TestZeroForcingEdges:
    def test_range_of_s11_filling_r1_leaves_the_nullspace_of_s12(self):
        # r12 inside r11 and a >= b: range(s11) is all of R1, so flow 2 may
        # only use ker(s12), however small s12 is against s11
        g = ScatteringGeometry(
            t11=ds((0, 1)), r11=ds((0, 1)), t22=ds((F(-1, 2), F(1, 2))),
            r22=ds((0, 1)), t12=ds((-1, 0)), r12=ds((F(1, 4), F(3, 4))),
            lengths=ArrayHalfLengths(4, 2, 2, 1),
        )
        k, a, b, _, _, e, f, p, *_ = link_products(g)
        assert a >= b
        result = assert_matches_reference(g)
        assert result.p12_dim == (2 * p + 2 * max(e - f, 0)) // k == 4

    def test_interference_outside_range_of_s11_is_all_of_t2(self):
        # r12 disjoint from r11: U1^H s12 holds round-off only
        g = replace(no_interference_geometry(), t12=ds((-1, 0)),
                    r12=ds((-1, 0)))
        result = assert_matches_reference(g)
        assert result.p12_dim == 4
        assert result.corner == (2, 2)

    def test_empty_t11(self):
        g = replace(no_interference_geometry(), t11=DirectionSet(),
                    t12=ds((0, 1)), r12=ds((0, 1)))
        result = assert_matches_reference(g)
        assert (result.d1, result.p12_dim, result.max_leakage) == (0, 2, 0.0)

    def test_empty_t12(self):
        g = no_interference_geometry()
        ch = sample_channel(g, seed=0)
        assert ch.s12.size and not ch.s12.any()
        result = assert_matches_reference(g)
        assert (result.p12_dim, result.max_leakage) == (2, 0.0)

    @pytest.mark.parametrize("empty", [("t22", "t12"), ("r11", "r12")])
    def test_zero_size_s12(self, empty):
        g = replace(
            no_interference_geometry(),
            **{name: DirectionSet() for name in empty},
        )
        assert sample_channel(g, seed=0).s12.size == 0
        result = assert_matches_reference(g)
        assert result.max_leakage == 0.0


def test_expectations_match_direction_set_algebra():
    """Expected dims and the case test, against the DirectionSet products,
    on the criterion-3/4 set plus integral geometries outside the case."""
    rng = random.Random(811)
    outside = [random_integral_geometry(rng, max_dim=64) for _ in range(100)]
    seen_case = set()
    for g in oracle_geometry_set() + outside:
        a, b, c, d, e, f, p, q, r, s, u, v = reference_link_products(g)
        report = verify_operator_dims(sample_channel(g, seed=0), g)
        assert [check.expected for check in report.checks] == [
            2 * min(a, b),
            2 * min(e, f),
            2 * min(c, d),
            2 * p + 2 * max(e - f, 0),
            2 * u + 2 * max(b - a, 0),
        ]
        budget = max(e - f, 0) + u
        case = (
            a >= b and e >= f and q >= 2 * budget
            and 2 * p + 2 * min(q, budget) <= 2 * d
        )
        assert zf_case_applies(g) is case
        seen_case.add(case)
    assert seen_case == {True, False}


class TestAllocationInvariants:
    def test_space_totals_equal_scaled_union_measures(self):
        rng = random.Random(808)
        for _ in range(25):
            g = random_integral_geometry(rng, max_dim=64)
            alloc = allocate_basis(g)
            L = g.lengths
            assert alloc.t1.total == 2 * L.l_t1 * g.t11.measure()
            assert alloc.t2.total == 2 * L.l_t2 * (g.t22 | g.t12).measure()
            assert alloc.r1.total == 2 * L.l_r1 * (g.r11 | g.r12).measure()
            assert alloc.r2.total == 2 * L.l_r2 * g.r22.measure()

    def test_atom_dims_match_scaled_atom_measures(self):
        rng = random.Random(809)
        for _ in range(10):
            g = random_integral_geometry(rng, max_dim=64)
            alloc = allocate_basis(g)
            for space in (alloc.t1, alloc.t2, alloc.r1, alloc.r2):
                for atom, dim in zip(space.atoms, space.dims):
                    assert dim == 2 * space.length * atom.measure()

    def test_support_pattern_is_exactly_the_mask(self):
        rng = random.Random(810)
        for i in range(15):
            g = random_integral_geometry(rng, max_dim=48)
            ch = sample_channel(g, seed=i)
            alloc = ch.allocation
            cases = (
                (ch.s11, alloc.r1, g.r11, alloc.t1, g.t11),
                (ch.s12, alloc.r1, g.r12, alloc.t2, g.t12),
                (ch.s22, alloc.r2, g.r22, alloc.t2, g.t22),
            )
            for mat, rows, row_set, cols, col_set in cases:
                mask = np.outer(
                    rows.mask_within(row_set), cols.mask_within(col_set)
                )
                assert not mat[~mask].any()
                # continuous draws are nonzero almost surely
                assert (mat[mask] != 0).all()


class TestDimensionBudget:
    def test_space_at_the_budget_is_sampled(self):
        g = replace(
            no_interference_geometry(),
            lengths=ArrayHalfLengths(MAX_SPACE_DIM // 2, 1, 1, 1),
        )
        assert sample_channel(g, seed=0).s11.shape == (2, MAX_SPACE_DIM)

    def test_space_above_the_budget_is_refused(self):
        g = replace(
            no_interference_geometry(),
            lengths=ArrayHalfLengths(F(MAX_SPACE_DIM + 1, 2), 1, 1, 1),
        )
        with pytest.raises(DimensionBudgetError) as info:
            sample_channel(g, seed=0)
        err = info.value
        assert (err.space, err.total) == ("t1", MAX_SPACE_DIM + 1)

    @pytest.mark.parametrize(
        "index,label", enumerate(("t1", "r1", "t2", "r2"))
    )
    def test_closed_form_check_names_the_space(self, index, label):
        def with_length(value):
            lengths = [F(1)] * 4
            lengths[index] = value
            return replace(
                no_interference_geometry(),
                lengths=ArrayHalfLengths(*lengths),
            )

        check_dimension_budget(with_length(F(MAX_SPACE_DIM, 2)))
        # over the budget, integral or not (a rescale only grows the total)
        for total in (F(MAX_SPACE_DIM + 1), F(2 * MAX_SPACE_DIM + 1, 2)):
            with pytest.raises(DimensionBudgetError) as info:
                check_dimension_budget(with_length(total / 2))
            err = info.value
            assert (err.space, err.total) == (label, total)


# -- integer allocation against the Fraction reference ------------------------------

def assert_allocation_matches_reference(g):
    """refine, allocate_basis (atoms, dims, totals, masks, QuantizationError)
    and integer_scale equal the Fraction-midpoint reference on g."""
    families = space_families(g)
    for _, family in families.values():
        atoms = refine(family)
        assert atoms == reference_refine(family)
        assert fraction_endpoints(atoms)
    assert integer_scale(g) == reference_integer_scale(g)
    try:
        expected = reference_allocation(g)
    except QuantizationError as want:
        with pytest.raises(QuantizationError) as info:
            allocate_basis(g)
        got = info.value
        assert (got.space, got.atom, got.dim, got.total,
                got.suggested_scale, str(got)) == (
            want.space, want.atom, want.dim, want.total,
            want.suggested_scale, str(want))
        return
    alloc = allocate_basis(g)
    supports = (g.t11, g.r11, g.t22, g.r22, g.t12, g.r12)
    for label, (atoms, dims) in expected.items():
        space = getattr(alloc, label)
        assert (space.label, space.length) == (label, families[label][0])
        assert space.atoms == atoms
        assert fraction_endpoints(space.atoms)
        assert space.dims == dims
        assert space.total == sum(dims)
        # family members contain or miss each atom; the other supports
        # may cut one, which must read as not contained
        per_atom = replace(space, dims=(1,) * len(dims))
        for support in supports:
            assert np.array_equal(
                per_atom.mask_within(support),
                reference_mask(atoms, [1] * len(atoms), support),
            )
            if space.total <= MAX_SPACE_DIM:
                assert np.array_equal(
                    space.mask_within(support),
                    reference_mask(atoms, dims, support),
                )


class TestIntegerAllocation:
    @given(mixed_geometries())
    @example(TOUCHING)
    @example(EMPTY)
    @example(make_fully_spread(0, 0))
    @settings(max_examples=200, deadline=None)
    def test_equals_fraction_reference(self, g):
        assert_allocation_matches_reference(g)
        assert_allocation_matches_reference(integer_rescale(g)[0])

    def test_equals_fraction_reference_on_fixed_sets(self):
        scenarios = [
            load_scenario(path).geometry
            for path in sorted(SCENARIOS.glob("*.json"))
        ]
        rescaled = [integer_rescale(g)[0] for g in scenarios]
        for g in oracle_geometry_set() + scenarios + rescaled:
            assert_allocation_matches_reference(g)

    def test_channels_equal_draws_through_reference_masks(self):
        """The seed-reproducibility contract, on the criterion-3/4 set."""
        for seed, g in enumerate(oracle_geometry_set()):
            ch = sample_channel(g, seed)
            spaces = reference_allocation(g)
            rng = np.random.default_rng(seed)
            blocks = (
                ("r1", g.r11, "t1", g.t11),
                ("r1", g.r12, "t2", g.t12),
                ("r2", g.r22, "t2", g.t22),
            )
            for name, (row, row_support, col, col_support) in zip(
                ("s11", "s12", "s22"), blocks
            ):
                row_atoms, row_dims = spaces[row]
                col_atoms, col_dims = spaces[col]
                want = np.zeros(
                    (sum(row_dims), sum(col_dims)), dtype=np.complex128
                )
                rows = np.flatnonzero(
                    reference_mask(row_atoms, row_dims, row_support)
                )
                cols = np.flatnonzero(
                    reference_mask(col_atoms, col_dims, col_support)
                )
                if rows.size and cols.size:
                    shape = (rows.size, cols.size)
                    real = rng.standard_normal(shape)
                    imag = rng.standard_normal(shape)
                    want[np.ix_(rows, cols)] = (real + 1j * imag) / np.sqrt(2)
                assert np.array_equal(getattr(ch, name), want)
