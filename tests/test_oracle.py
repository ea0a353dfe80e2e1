"""Tests for the discretized-channel oracle."""

import random
import warnings
from dataclasses import fields, replace
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fddof import (
    ArrayHalfLengths,
    DimensionBudgetError,
    DirectionSet,
    DiscretizedChannel,
    QuantizationError,
    RankToleranceWarning,
    ScatteringGeometry,
    allocate_basis,
    cap_corners,
    corner_points,
    corrupt_support,
    fd_caps,
    integer_rescale,
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
from fddof import oracle
from fddof.cli import DEFAULT_SEEDS
from fddof.oracle import (
    DEFAULT_RANK_TOL,
    MAX_SPACE_DIM,
    _chunk_seeds,
    _chunks,
    _decided,
    _factor,
    _plan,
    check_dimension_budget,
)
from geom_helpers import (
    EMPTY,
    TOUCHING,
    binding_geometry_set,
    ds,
    fraction_endpoints,
    mixed_geometries,
    nullity_codim,
    oracle_geometry_set,
    random_integral_case_geometry,
    random_integral_geometry,
    reference_allocation,
    reference_channel,
    reference_integer_scale,
    reference_link_products,
    reference_mask,
    reference_nullity_codim,
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
        assert integer_rescale(g)[1] == 3

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

    def test_equal_geometries_share_one_plan_and_draw_alike(self):
        _plan.cache_clear()
        first, second = (symmetric_overlap(2, F(3, 4)) for _ in range(2))
        assert first == second and first is not second
        a = sample_channel(first, seed=5)
        b = sample_channel(second, seed=5)
        for name in ("s11", "s12", "s22"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        # hits, misses: each channel looks its plan up to draw and to
        # check its shapes
        assert _plan.cache_info()[:2] == (3, 1)
        assert _plan.cache_info().maxsize is not None

    def test_non_integral_geometry_is_refused_on_every_call(self):
        g = symmetric_overlap(1, F(3, 4))
        for _ in range(2):
            with pytest.raises(QuantizationError):
                sample_channel(g, seed=0)

    def test_cached_support_indices_are_read_only(self):
        for shape, rows, cols in _plan(symmetric_overlap(2, F(3, 4))):
            for index in (rows, cols):
                with pytest.raises(ValueError):
                    index[0] = 0

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
    @staticmethod
    def check(g):
        """The report on seed 5, its ranks by name, and the nullity of s12
        and codimension of range(s11), which must equal the paper's."""
        ch = sample_channel(g, seed=5)
        report = verify_operator_dims(ch, g)
        assert report.all_ok
        identities = nullity_codim(ch, report)
        assert identities == reference_nullity_codim(g)
        return {c.name: c.observed for c in report.checks}, identities

    def test_symmetric_scale_two(self):
        rank, (nullity12, codim11) = self.check(symmetric_overlap(2, F(3, 4)))
        assert rank["rank(s12)"] == 4
        assert nullity12 == 1
        assert codim11 == 1

    def test_zero_interference_matrix(self):
        rank, (nullity12, _) = self.check(no_interference_geometry())
        assert rank["rank(s12)"] == 0
        assert nullity12 == 2

    def test_fully_spread_unit_arrays(self):
        rank, (nullity12, codim11) = self.check(make_fully_spread(1, 1))
        assert rank["rank(s11)"] == 4
        assert nullity12 == 0
        assert codim11 == 0

    def test_nullity_and_codim_restate_two_ranks(self):
        """s12 has 2(p + q + v) columns and s11 has 2(r + s + u) rows, so
        the paper's nullity of s12 and codimension of range(s11) hold
        exactly when rank(s12) and rank(s11) do: on the binding corpus,
        the criterion-3/4 set and 300 random integral geometries."""
        rng = random.Random(7)
        geometries = binding_geometry_set() + oracle_geometry_set()
        geometries += [random_integral_geometry(rng) for _ in range(300)]
        assert len(geometries) == 600
        for g in geometries:
            a, b, _, _, e, f, p, q, r, s, u, v = reference_link_products(g)
            cols12, rows11 = 2 * (p + q + v), 2 * (r + s + u)
            identities = reference_nullity_codim(g)
            assert (cols12 - 2 * min(e, f), rows11 - 2 * min(a, b)) == (
                identities), g
            ch = sample_channel(g, seed=0)
            assert (ch.s12.shape[1], ch.s11.shape[0]) == (cols12, rows11), g
            report = verify_operator_dims(ch, g)
            assert report.all_ok, (report, g)
            assert nullity_codim(ch, report) == identities, g

    def test_random_integral_geometries_pass(self):
        rng = random.Random(424242)
        drawn = [random_integral_geometry(rng, max_dim=48) for _ in range(25)]
        for g in drawn + binding_geometry_set():
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


class TestChannelFactors:
    def test_matrices_are_read_only(self):
        ch = sample_channel(symmetric_overlap(2, F(3, 4)), seed=0)
        for name in ("s11", "s12", "s22"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(ch, name)[0, 0] = 1

    def test_a_derived_channel_reads_its_own_matrices(self):
        """Factors read on the original first do not leak into a channel
        built from it by ``replace`` or ``corrupt_support``."""
        g = symmetric_overlap(2, F(3, 4))
        ch = sample_channel(g, seed=0)
        assert verify_operator_dims(ch, g).all_ok
        assert zero_forcing_corner(ch, g).d1 == 4
        # s11 is 5 x 4 of rank 4: drop its smallest singular value
        u, sv, vh = np.linalg.svd(ch.s11, full_matrices=False)
        sv[-1] = 0.0
        low = replace(ch, s11=(u * sv) @ vh)
        by_name = {c.name: c.observed for c in verify_operator_dims(low, g).checks}
        assert by_name["rank(s11)"] == 3
        assert zero_forcing_corner(low, g).d1 == 3
        # corrupt_support zeroes one supported column of s12 (rank 4 -> 3)
        bad = corrupt_support(ch, g)
        by_name = {c.name: c.observed for c in verify_operator_dims(bad, g).checks}
        assert (by_name["rank(s11)"], by_name["rank(s12)"]) == (4, 3)


def scenario_geometry(stem):
    """A checked-in scenario, integer-rescaled as ``verify --auto-rescale``
    does."""
    return integer_rescale(load_scenario(SCENARIOS / f"{stem}.json").geometry)[0]


def assert_matches_reference_seed(mats, factors, row, g, seed):
    """One seed's matrices, factors and row (its three ranks, zero
    forcing's d2 and leakage) against ``reference_channel`` and the
    per-channel functions on it: equal bytes, factors, ranks and leakage.
    An all-zero s11 takes no SVD, so its U has no columns where the
    reference's LAPACK call gives min(rows, cols) of them."""
    ref = reference_channel(g, seed)
    for name, mat in zip(("s11", "s12", "s22"), mats):
        assert mat.tobytes() == getattr(ref, name).tobytes(), (seed, g)
    u11 = ref._factors[0]
    if not mats[0].any():
        assert factors[0].shape == (mats[0].shape[0], 0), (seed, g)
        u11 = u11[:, :0]
    for ours, theirs in zip(factors, (u11, *ref._factors[1:])):
        assert ours.shape == theirs.shape, (seed, g)
        assert ours.tobytes() == theirs.tobytes(), (seed, g)
    zf = zero_forcing_corner(ref, g)
    assert [c.observed for c in verify_operator_dims(ref, g).checks] == [
        *row[:3]]
    assert (zf.d1, zf.d2) == (row[0], row[3]), (seed, g)
    assert float.hex(zf.max_leakage) == float.hex(row[4]), (seed, g)


def assert_matches_reference_chunks(g, seeds):
    """Each chunk of ``seeds``, drawn, factored and decided as stacks,
    seed by seed against ``reference_channel``."""
    seeds = list(seeds)
    done = 0
    for stacks in _chunks(g, seeds):
        factors, rows = _factor(*stacks), _decided(stacks)
        assert len(rows) == len(stacks[0])
        for i, row in enumerate(rows):
            assert_matches_reference_seed(
                [s[i] for s in stacks], [f[i] for f in factors], row, g,
                seeds[done + i])
        done += len(rows)
    assert done == len(seeds)


def assert_sampled_channel_matches_reference(g, seed):
    """``sample_channel`` and the per-channel functions on it, against
    ``reference_channel``."""
    ch = sample_channel(g, seed)
    zf = zero_forcing_corner(ch, g)
    row = (*[c.observed for c in verify_operator_dims(ch, g).checks],
           zf.d2, zf.max_leakage)
    assert zf.d1 == row[0]
    assert_matches_reference_seed(
        (ch.s11, ch.s12, ch.s22), ch._factors, row, g, seed)


class TestStackedDraw:
    def test_scenarios_as_one_stack_of_20_seeds(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            g = scenario_geometry(path.stem)
            assert _chunk_seeds(_plan(g)) >= 20
            assert_matches_reference_chunks(g, range(20))

    def test_empty_backscatter_keeps_its_zero_s12(self):
        g = scenario_geometry("empty_backscatter")
        (_, _, _), (shape, rows, cols), _ = _plan(g)
        assert shape == (2, 2) and rows.size == cols.size == 0
        (s11, s12, s22), = _chunks(g, range(3))
        assert s12.shape == (3, 2, 2) and not s12.any()
        assert_matches_reference_chunks(g, range(3))

    def test_acceptance_cases_in_stacks_and_one_seed_at_a_time(self):
        for g in oracle_geometry_set()[:30]:
            assert_matches_reference_chunks(g, range(4))
            assert_sampled_channel_matches_reference(g, 9)

    def test_all_zero_s11_in_stacks_and_one_seed_at_a_time(self):
        """Geometries whose s11 has rows and columns but no support: its U
        has no columns, and everything else equals the reference."""
        rng = random.Random(7)
        zero = []
        for g in (random_integral_geometry(rng) for _ in range(300)):
            (shape, rows, cols), _, _ = _plan(g)
            if shape[0] * shape[1] and not rows.size * cols.size:
                zero.append(g)
        assert len(zero) == 48
        for g in zero[:12]:
            assert_matches_reference_chunks(g, range(4))
            assert_sampled_channel_matches_reference(g, 9)

    def test_chunks_crossing_a_boundary(self, monkeypatch):
        monkeypatch.setattr(oracle, "_chunk_seeds", lambda plan: 7)
        for stem in ("fully_spread_bs2_usr1", "symmetric_overlap_075"):
            g = scenario_geometry(stem)
            assert [len(s11) for s11, _, _ in _chunks(g, range(20))] == [
                7, 7, 6]
            assert_matches_reference_chunks(g, range(20))

    def test_large_scenarios(self):
        for stem, scale in LARGE_SCALES.items():
            g = load_scenario(SCENARIOS / f"{stem}.json").geometry.scaled(scale)
            assert_matches_reference_chunks(g, range(3))
            assert_sampled_channel_matches_reference(g, 3)


def live_chunk_bytes(plan, seeds):
    """What a chunk of ``seeds`` holds: per seed, the three complex
    matrices, U of s11, zero forcing's m (at most min(rows, cols) of s11
    rows), its full V^H, P and s22 P (at most as many columns as s12 has),
    and the float real and imaginary draws of each operator's supported
    block."""
    ((r11, c11), _, _), ((_, c12), _, _), ((r22, _), _, _) = plan
    d1 = min(r11, c11)
    per_seed = 16 * (r11 * d1 + d1 * c12 + c12 * c12 + c12 * c12
                     + r22 * c12)
    for (r, c), support_rows, support_cols in plan:
        per_seed += 16 * r * c + 2 * 8 * support_rows.size * support_cols.size
    return seeds * per_seed


class TestChunkRule:
    """``_chunk_seeds`` reads only the plan and allocates nothing."""

    def chunk_seeds(self, g, monkeypatch):
        plan = _plan(g)
        with monkeypatch.context() as patched:
            for name in ("zeros", "empty", "repeat", "flatnonzero"):
                patched.setattr(np, name, self.refuse)
            seeds = _chunk_seeds(plan)
        assert seeds >= 1
        # as many seeds as fit, never more; a channel of empty matrices
        # holds nothing
        if seeds > 1:
            assert live_chunk_bytes(plan, seeds) <= oracle._CHUNK_BYTES
        if live_chunk_bytes(plan, 1):
            assert live_chunk_bytes(plan, seeds + 1) > oracle._CHUNK_BYTES
        return seeds

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("allocated an array")

    def test_spaces_at_the_budget_take_one_seed(self, monkeypatch):
        g = make_fully_spread(MAX_SPACE_DIM // 4, MAX_SPACE_DIM // 4)
        assert {shape for shape, _, _ in _plan(g)} == {
            (MAX_SPACE_DIM, MAX_SPACE_DIM)}
        assert self.chunk_seeds(g, monkeypatch) == 1

    def test_checked_in_scenarios_take_every_default_seed(self, monkeypatch):
        for path in sorted(SCENARIOS.glob("*.json")):
            g = scenario_geometry(path.stem)
            assert self.chunk_seeds(g, monkeypatch) >= DEFAULT_SEEDS

    def test_spaces_of_64_to_80_take_a_few_seeds(self, monkeypatch):
        seeds = {}
        for stem, scale in LARGE_SCALES.items():
            g = load_scenario(SCENARIOS / f"{stem}.json").geometry.scaled(scale)
            seeds[stem] = self.chunk_seeds(g, monkeypatch)
        # zero forcing's m, V^H, P and s22 P count too
        assert seeds == {"angles_demo": 10, "empty_backscatter": 6,
                         "fully_spread_bs2_usr1": 8, "symmetric_overlap_075": 4}

    def test_never_above_the_bound(self, monkeypatch):
        for g in (*oracle_geometry_set(), *binding_geometry_set(), EMPTY):
            self.chunk_seeds(g, monkeypatch)


def corrupted_rank_change(g):
    """The one matrix ``corrupt_support`` changes, its rank before and
    after, and the corrupted matrix; the corrupted channel must fail
    ``verify_operator_dims``."""
    ch = sample_channel(g, seed=0)
    bad = corrupt_support(ch, g)
    changed = [
        name for name in ("s11", "s12", "s22")
        if not np.array_equal(getattr(ch, name), getattr(bad, name))
    ]
    assert len(changed) == 1
    assert not verify_operator_dims(bad, g).all_ok
    name = changed[0]
    return (
        name,
        numerical_rank(getattr(ch, name)),
        numerical_rank(getattr(bad, name)),
        getattr(bad, name),
    )


class TestCorruptSupport:
    def test_empty_block_gets_one_entry(self):
        # s12 is 5 x 4 (r1 by t2) with no supported column
        g = replace(symmetric_overlap(2, F(3, 4)), t12=DirectionSet())
        *change, bad = corrupted_rank_change(g)
        assert change == ["s12", 0, 1]
        assert bad.shape == (5, 4)
        assert bad[0, 0] == np.count_nonzero(bad) == 1

    def test_corrupt_support_without_holes_zeroes_a_column(self):
        g = make_fully_spread(1, 1)  # every entry is structurally supported
        *change, bad = corrupted_rank_change(g)
        assert change == ["s12", 4, 3]
        assert bad.shape == (4, 4)
        assert not bad[:, 0].any() and bad[:, 1:].all()

    def test_more_supported_columns_than_rows_zeroes_a_row(self):
        # r12 carries 4 receive, t12 carries 8 transmit basis functions
        g = replace(
            symmetric_overlap(2, F(3, 4)),
            lengths=ArrayHalfLengths(2, 2, 4, 2),
        )
        *change, bad = corrupted_rank_change(g)
        assert change == ["s12", 4, 3]
        # the first receive atom, backscatter-only, is r12's first row
        assert not bad[0, :].any() and np.count_nonzero(bad) == 3 * 8

    def test_empty_s12_passes_to_s11(self):
        g = replace(
            no_interference_geometry(), t22=DirectionSet(), t12=DirectionSet()
        )
        assert sample_channel(g, seed=0).s12.size == 0
        assert corrupted_rank_change(g)[:3] == ("s11", 2, 1)

    def test_all_matrices_empty_is_refused(self):
        ch = sample_channel(EMPTY, seed=0)
        with pytest.raises(ValueError, match="all matrices are empty"):
            corrupt_support(ch, EMPTY)

    def test_every_case_moves_one_rank_by_one(self):
        rng = random.Random(812)
        for _ in range(40):
            g = random_integral_geometry(rng, max_dim=48)
            if any(getattr(sample_channel(g, 0), name).size
                   for name in ("s11", "s12", "s22")):
                _, before, after, _ = corrupted_rank_change(g)
                assert abs(after - before) == 1


CONSUMERS = [verify_operator_dims, zero_forcing_corner, corrupt_support]


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_channel_from_another_geometry_is_rejected(consumer):
    g = symmetric_overlap(2, F(3, 4))
    ch = sample_channel(g.scaled(2), seed=0)
    with pytest.raises(ValueError, match="not sampled from this geometry"):
        consumer(ch, g)


@pytest.mark.parametrize("consumer", CONSUMERS)
def test_channel_with_the_same_space_totals_is_rejected(consumer):
    g = symmetric_overlap(2, F(3, 4))
    back = ds((F(-1, 4), 0), (F(1, 4), 1))
    ch = sample_channel(replace(g, t12=back, r12=back), seed=0)
    # every matrix has the shape g gives; only the geometry tells them apart
    ours = sample_channel(g, seed=0)
    for name in ("s11", "s12", "s22"):
        assert getattr(ch, name).shape == getattr(ours, name).shape
    with pytest.raises(ValueError, match="not sampled from this geometry"):
        consumer(ch, g)


class TestNumericalRank:
    def test_plain_ranks(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.zeros((0, 3))) == 0
        assert numerical_rank(np.eye(3)) == 3

    def test_near_threshold_warns(self):
        matrix = np.diag([1.0, 1e-9])
        with pytest.warns(RankToleranceWarning):
            numerical_rank(matrix, rank_tol=1e-9)


def old_numerical_rank(matrix, rank_tol):
    """The rank and the warning verdict of the former rule: a window test
    over every singular value, and a silent count."""
    if matrix.size == 0:
        return 0, False
    svals = np.linalg.svd(matrix, compute_uv=False)
    threshold = rank_tol * float(svals[0])
    near = np.sum((svals > threshold / 10) & (svals < threshold * 10))
    if float(svals[0]) == 0.0:
        return 0, bool(near)
    return int(np.sum(svals > threshold)), bool(near)


@st.composite
def diagonals(draw):
    """rank_tol and descending values, largest first, that include the
    threshold t = rank_tol * largest, t / 10, 10 t and zeros."""
    rank_tol = draw(st.sampled_from([1e-9, 1e-6, 1e-2]))
    top = draw(st.sampled_from([0.0, 1.0, 3.7, 2.5e-4, 1e3]))
    t = rank_tol * top
    rest = draw(st.lists(
        st.one_of(
            st.sampled_from([t / 10, t, t * 10, 0.0]),
            st.floats(0, top),
            st.floats(0, 20 * t),
        ),
        max_size=6,
    ))
    values = [top] + sorted((x for x in rest if x <= top), reverse=True)
    return rank_tol, values[: draw(st.integers(0, len(values)))]


@given(diagonals())
@settings(max_examples=300, deadline=None)
def test_rank_rule_matches_the_former_rule(case):
    rank_tol, values = case
    matrix = np.diag(np.asarray(values, dtype=float))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rank = numerical_rank(matrix, rank_tol)
    assert (rank, bool(caught)) == old_numerical_rank(matrix, rank_tol)
    assert all(w.category is RankToleranceWarning for w in caught)


@given(st.lists(diagonals(), min_size=1, max_size=4), st.booleans())
@settings(max_examples=200, deadline=None)
def test_a_stack_is_ranked_and_warned_as_each_row_alone(cases, scaled):
    """The rank rule on a stack of rows (zero-padded to one width, with
    the first case's rank_tol and, if ``scaled``, a scale per row) counts
    and warns as it does on each row alone, in row order."""
    rank_tol = cases[0][0]
    width = max(len(values) for _, values in cases)
    svals = np.array([values + [0.0] * (width - len(values))
                      for _, values in cases]).reshape(len(cases), width)
    scale = 3 * svals[:, :1].sum(axis=1) if scaled else None
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        ranks = [oracle._rank(row, rank_tol, None if scale is None else
                              scale[i]) for i, row in enumerate(svals)]
    with warnings.catch_warnings(record=True) as stacked:
        warnings.simplefilter("always")
        assert oracle._rank(svals, rank_tol, scale).tolist() == ranks
    assert [str(w.message) for w in stacked] == [str(w.message) for w in alone]


# -- zero forcing -------------------------------------------------------------------

class TestZeroForcing:
    def test_symmetric_scale_two_reaches_the_corner(self):
        g = symmetric_overlap(2, F(3, 4))
        result = zero_forcing_corner(sample_channel(g, seed=0), g)
        assert (result.d1, result.d2) == (4, 2)
        assert result.p12_dim == 2
        assert result.max_leakage < 1e-8

    def test_no_interference_reaches_the_rectangle_corner(self):
        g = no_interference_geometry()
        result = zero_forcing_corner(sample_channel(g, seed=0), g)
        assert (result.d1, result.d2) == (2, 2)

    def test_fully_spread_asymmetric(self):
        g = make_fully_spread(2, 1)
        result = zero_forcing_corner(sample_channel(g, seed=0), g)
        assert (result.d1, result.d2) == (4, 4)

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
        with pytest.raises(ValueError, match="shapes differ"):
            replace(ch, **{name: getattr(ch, name).T})

    def test_every_channel_decides_ranks_at_the_fixed_threshold(self):
        ch = sample_channel(make_fully_spread(1, 1), 0)
        assert ch.rank_tol == DEFAULT_RANK_TOL
        assert "rank_tol" not in [f.name for f in fields(ch)]

    def test_shapes_are_checked_against_the_recorded_geometry(self):
        g = symmetric_overlap(2, F(3, 4))
        ch = sample_channel(g, seed=0)
        # twice the array lengths give every space twice the basis functions
        with pytest.raises(ValueError, match="shapes differ"):
            replace(ch, geometry=g.scaled(2))

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
            target = cap_corners(fd_caps(g)).p_prime
            result = zero_forcing_corner(sample_channel(g, seed=9), g)
            assert (result.d1, result.d2) == target
            assert result.max_leakage < 1e-8

    def test_never_exceeds_the_corner(self):
        """d1 reaches p' and d2 stays at or below it, reaching it where the
        case conditions hold; the binding corpus puts the sum cap in play."""
        rng = random.Random(999)
        drawn = [random_integral_geometry(rng, max_dim=48) for _ in range(25)]
        for g in drawn + binding_geometry_set():
            p1, p2 = cap_corners(fd_caps(g)).p_prime
            result = zero_forcing_corner(sample_channel(g, seed=3), g)
            reached = result.d2 == p2 if zf_case_applies(g) else result.d2 <= p2
            assert result.d1 == p1 and reached, (result, g)
            assert result.max_leakage < 1e-8

    def test_agrees_with_corner_points(self):
        g = symmetric_overlap(2, F(3, 4))
        cp = corner_points(g)
        result = zero_forcing_corner(sample_channel(g, seed=4), g)
        assert (result.d1, result.d2) == cp.p_prime

    @pytest.mark.parametrize("disagree", ["d1", "kernel"])
    def test_seeds_that_disagree_are_decided_one_at_a_time(self, disagree):
        """A chunk with one seed of lower d1, or one whose m has a wider
        kernel: each row equals the per-channel functions on that seed's
        matrices."""
        g = symmetric_overlap(2, F(3, 4))
        s11, s12, s22 = (s.copy() for s in next(_chunks(g, range(20))))
        if disagree == "d1":
            u, sv, vh = np.linalg.svd(s11[5], full_matrices=False)
            sv[-1] = 0.0
            s11[5] = (u * sv) @ vh
        else:
            # s12 less its part along m's weakest kept direction
            u11 = np.linalg.svd(s11[5], full_matrices=False)[0]
            m = u11.conj().T @ s12[5]
            um, svm, vmh = np.linalg.svd(m)
            r = numerical_rank(m) - 1
            s12[5] -= (u11 @ um[:, r:r + 1]) * svm[r] @ vmh[r:r + 1]
        rows = _decided((s11, s12, s22))
        results = []
        for row, mats in zip(rows, zip(s11, s12, s22)):
            ch = DiscretizedChannel(*mats, g)
            zf = zero_forcing_corner(ch, g)
            ranks = tuple(c.observed for c in verify_operator_dims(ch, g).checks)
            assert row[:4] == (*ranks, zf.d2) and zf.d1 == ranks[0]
            assert float.hex(row[4]) == float.hex(zf.max_leakage)
            results.append((zf.d1, zf.p12_dim))
        odd = (3, 2) if disagree == "d1" else (4, 3)
        assert results == [(4, 2)] * 5 + [odd] + [(4, 2)] * 14

    def test_each_channel_matrix_is_factored_once(self, monkeypatch):
        g = symmetric_overlap(2, F(3, 4))
        original = np.linalg.svd
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        # a uniform chunk of 20 seeds takes five stacked calls and none per
        # seed: s11 (thin, with U), s12 and s22 (values only), then zero
        # forcing's m = U1^H s12 (d1 = 4 rows) and s22 P (P of dimension 2)
        stacks = next(_chunks(g, range(20)))
        rows = _decided(stacks)
        assert len(rows) == 20
        assert [a.shape for a in calls] == [
            (20, 5, 4), (20, 5, 5), (20, 4, 5), (20, 4, 5), (20, 4, 2)]
        assert not any(np.shares_memory(a, stack)
                       for a in calls[3:] for stack in stacks)
        # chunks of 7 seeds: five calls per chunk
        calls.clear()
        monkeypatch.setattr(oracle, "_chunk_seeds", lambda plan: 7)
        for stacks in _chunks(g, range(20)):
            _decided(stacks)
        assert [a.shape[0] for a in calls] == [7] * 10 + [6] * 5
        # a sampled channel, or one built directly, is factored as a stack
        # of one on first use, and once: then zero forcing factors m and
        # s22 P of its 2-D arrays
        for ch in (sample_channel(g, seed=0),
                   replace(sample_channel(g, seed=0),
                           s22=sample_channel(g, seed=1).s22)):
            calls.clear()
            verify_operator_dims(ch, g)
            zero_forcing_corner(ch, g)
            assert [a.shape for a in calls] == [
                (1, 5, 4), (1, 5, 5), (1, 4, 5), (4, 5), (4, 2)]
            zero_forcing_corner(ch, g)
            assert [a.shape for a in calls[5:]] == [(4, 5), (4, 2)]
        # an empty s11 needs no LAPACK call, and d1 = 0 leaves P the whole
        # transmit space, so s22 P is s22: s12 and s22 only
        g = replace(no_interference_geometry(), t11=DirectionSet(),
                    t12=ds((0, 1)), r12=ds((0, 1)))
        calls.clear()
        ch = sample_channel(g, seed=0)
        assert ch.s11.size == 0 and ch.s12.size and ch.s22.size
        verify_operator_dims(ch, g)
        result = zero_forcing_corner(ch, g)
        assert [a.shape for a in calls] == [(1, *ch.s12.shape),
                                            (1, *ch.s22.shape)]
        assert (result.d1, result.d2, result.p12_dim) == (0, 2, 2)
        assert ch._factors[0].shape == (2, 0)
        # an s12 with no supported row or column needs none either, and
        # leaves nothing to miss: s11 and s22 only, per chunk (of 7 here)
        g = scenario_geometry("empty_backscatter")
        calls.clear()
        (s11, s12, s22), = _chunks(g, range(7))
        rows = _decided((s11, s12, s22))
        assert [a.shape for a in calls] == [s11.shape, s22.shape]
        assert {row[3:] for row in rows} == {(2, 0.0)}


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
        assert result.max_leakage <= DEFAULT_RANK_TOL, (seed, result, g)
    return result


def test_nullspace_matches_the_preimage_construction():
    """ker(U1^H s12) against the nullspace-plus-preimages construction on
    random integral geometries, the criterion-3/4 set, the binding corpus
    and the scenarios."""
    rng = random.Random(7)
    geometries = [random_integral_geometry(rng) for _ in range(400)]
    geometries += oracle_geometry_set() + binding_geometry_set()
    for stem, scale in LARGE_SCALES.items():
        raw = load_scenario(SCENARIOS / f"{stem}.json").geometry
        geometries += [integer_rescale(raw)[0], raw.scaled(scale)]
    for g in geometries:
        assert_matches_reference(g)


def near_threshold_s11():
    """A channel whose s11 has its smallest singular value at twice its
    rank threshold, and its geometry."""
    g = no_interference_geometry()
    ch = sample_channel(g, seed=0)
    u, sv, vh = np.linalg.svd(ch.s11)
    sv[-1] = 2 * ch.rank_tol * sv[0]
    return replace(ch, s11=(u * sv) @ vh), g


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
        assert (result.d1, result.d2) == (2, 2)

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

    def test_all_zero_s12_decides_as_lapack_would(self):
        """An s12 with no supported row or column skips its SVD, m's and
        s22 P's.  LAPACK on exact-zero matrices gives zero singular values
        and V^H = I exactly, so P would be the whole transmit space and
        s22 P would be s22 bit for bit: the skip decides as the full
        construction would."""
        for shape in [(4, 4), (3, 5), (5, 3), (64, 64)]:
            _, svals, vh = np.linalg.svd(np.zeros(shape, np.complex128))
            assert not svals.any()
            assert np.array_equal(vh, np.eye(shape[1]))
        raw = load_scenario(SCENARIOS / "empty_backscatter.json").geometry
        for g in (integer_rescale(raw)[0], raw.scaled(32),
                  no_interference_geometry()):
            ch = reference_channel(g, 0)
            d1 = numerical_rank(ch.s11)
            assert d1 and ch.s12.size and not ch.s12.any()
            m = ch._factors[0][:, :d1].conj().T @ ch.s12
            _, svm, vmh = np.linalg.svd(m)
            assert not svm.any() and np.array_equal(vmh, np.eye(len(vmh)))
            p12 = vmh.conj().T
            assert (ch.s22 @ p12).tobytes() == ch.s22.tobytes()
            result = zero_forcing_corner(ch, g)
            assert (result.d1, result.d2, result.p12_dim) == (
                d1, numerical_rank(ch.s22 @ p12), p12.shape[1])
            assert result.max_leakage == 0.0

    def test_kernel_decision_near_its_threshold_warns(self):
        # r12 disjoint from r11, plus a component inside range(s11) at
        # twice the kernel threshold: m's largest singular value is 2 t
        g = replace(no_interference_geometry(), t12=ds((-1, 0)),
                    r12=ds((-1, 0)))
        ch = sample_channel(g, seed=0)
        inside = ch.s11[:, :1] / np.linalg.norm(ch.s11[:, :1])
        across = np.ones((1, ch.s12.shape[1])) / np.sqrt(ch.s12.shape[1])
        bump = 2 * ch.rank_tol * np.linalg.norm(ch.s12, 2) * inside @ across
        ch = replace(ch, s12=ch.s12 + bump)
        threshold = ch.rank_tol * np.linalg.norm(ch.s12, 2)
        with pytest.warns(RankToleranceWarning, match=f"{threshold:.3e}"):
            zero_forcing_corner(ch, g)

    def test_flow_1_decision_near_its_threshold_warns(self):
        ch, g = near_threshold_s11()
        threshold = ch.rank_tol * np.linalg.norm(ch.s11, 2)
        with pytest.warns(RankToleranceWarning, match=f"{threshold:.3e}"):
            result = zero_forcing_corner(ch, g)
        assert result.d1 == 2

    @pytest.mark.parametrize("empty", [("t22", "t12"), ("r11", "r12")])
    def test_zero_size_s12(self, empty):
        g = replace(
            no_interference_geometry(),
            **{name: DirectionSet() for name in empty},
        )
        assert sample_channel(g, seed=0).s12.size == 0
        result = assert_matches_reference(g)
        assert result.max_leakage == 0.0


@pytest.mark.parametrize("check", [
    verify_operator_dims,
    zero_forcing_corner,
    lambda ch, g: numerical_rank(ch.s11, ch.rank_tol),
], ids=["verify_operator_dims", "zero_forcing_corner", "numerical_rank"])
def test_rank_warnings_point_at_the_caller(check):
    ch, g = near_threshold_s11()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        check(ch, g)
    assert caught
    assert {w.filename for w in caught} == {__file__}


def test_expectations_match_direction_set_algebra():
    """Expected dims and the case test, against the DirectionSet products,
    on the criterion-3/4 set plus integral geometries outside the case."""
    rng = random.Random(811)
    outside = [random_integral_geometry(rng, max_dim=64) for _ in range(100)]
    seen_case = set()
    for g in oracle_geometry_set() + outside:
        a, b, c, d, e, f, p, q, r, s, u, v = reference_link_products(g)
        ch = sample_channel(g, seed=0)
        report = verify_operator_dims(ch, g)
        assert [check.expected for check in report.checks] == [
            2 * min(a, b),
            2 * min(e, f),
            2 * min(c, d),
        ]
        # the paper's nullity and codimension at the expected ranks
        assert (ch.s12.shape[1] - 2 * min(e, f),
                ch.s11.shape[0] - 2 * min(a, b)) == (
            2 * p + 2 * max(e - f, 0),
            2 * u + 2 * max(b - a, 0),
        )
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
            for label, (length, family) in space_families(g).items():
                dims = getattr(alloc, label).dims
                atoms = refine(family)
                assert len(dims) == len(atoms)
                for atom, dim in zip(atoms, dims):
                    assert dim == 2 * length * atom.measure()

    def test_support_pattern_is_exactly_the_mask(self):
        rng = random.Random(810)
        for i in range(15):
            g = random_integral_geometry(rng, max_dim=48)
            ch = sample_channel(g, seed=i)
            alloc = allocate_basis(g)
            families = space_families(g)

            def space_mask(label, support):
                atoms = refine(families[label][1])
                return reference_mask(atoms, getattr(alloc, label).dims, support)

            cases = (
                (ch.s11, "r1", g.r11, "t1", g.t11),
                (ch.s12, "r1", g.r12, "t2", g.t12),
                (ch.s22, "r2", g.r22, "t2", g.t22),
            )
            for mat, rows, row_set, cols, col_set in cases:
                mask = np.outer(space_mask(rows, row_set),
                                space_mask(cols, col_set))
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

    def test_refusal_comes_before_any_array_on_every_call(self, monkeypatch):
        # t1 = 8194/3 is non-integral too, and no integer rescale of it
        # fits the budget
        geometries = [
            replace(
                no_interference_geometry(),
                lengths=ArrayHalfLengths(l_t1, 1, 1, 1),
            )
            for l_t1 in (F(MAX_SPACE_DIM + 1, 2), F(2 * MAX_SPACE_DIM + 1, 3))
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("allocated an array")

        for name in ("zeros", "repeat", "flatnonzero"):
            monkeypatch.setattr(np, name, refuse)
        _plan.cache_clear()
        for g in geometries:
            for _ in range(2):
                with pytest.raises(DimensionBudgetError):
                    sample_channel(g, seed=0)

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
    and integer_rescale's factor equal the Fraction-midpoint reference on g."""
    families = space_families(g)
    for _, family in families.values():
        atoms = refine(family)
        assert atoms == reference_refine(family)
        assert fraction_endpoints(atoms)
    assert integer_rescale(g)[1] == reference_integer_scale(g)
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
    for label, (atoms, dims) in expected.items():
        space = getattr(alloc, label)
        assert space.dims == dims
        assert space.total == sum(dims)
        # family member i contains or misses each atom; its mask reads
        # bit i of the refinement's membership
        per_atom = replace(space, dims=(1,) * len(dims))
        for member, support in enumerate(families[label][1]):
            assert np.array_equal(
                per_atom.mask(member),
                reference_mask(atoms, [1] * len(atoms), support),
            )
            if space.total <= MAX_SPACE_DIM:
                assert np.array_equal(
                    space.mask(member),
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
