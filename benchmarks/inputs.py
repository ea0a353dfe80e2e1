"""Seeded input generators for the benchmark workloads.

These mirror the distributions of the acceptance suite's generators
(criterion 2 and criteria 3/4) but live here on purpose: the benchmark's
inputs must not change when a later change edits the test helpers, or
before/after comparisons across commits would measure different inputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from fddof import (
    ArrayHalfLengths,
    DirectionSet,
    ScatteringGeometry,
    allocate_basis,
    integer_rescale,
    load_scenario,
    zf_case_applies,
)

# The four checked-in scenarios, by file stem.  A fixed list, not a glob, so
# a scenario added later does not silently change the cli workload.
SCENARIOS = (
    "angles_demo",
    "empty_backscatter",
    "fully_spread_bs2_usr1",
    "symmetric_overlap_075",
)

# Length multipliers that put every checked-in scenario's largest signal
# space at 64-80 basis functions (oracle_large).
LARGE_SCALES = {
    "angles_demo": 16,
    "empty_backscatter": 32,
    "fully_spread_bs2_usr1": 8,
    "symmetric_overlap_075": 32,
}


def scenario_path(stem: str) -> str:
    return f"scenarios/{stem}.json"


def random_direction_set(
    rng: random.Random, max_fragments: int = 3, den: int = 64
) -> DirectionSet:
    """Up to max_fragments disjoint intervals with endpoints on the 1/den grid."""
    k = rng.randint(0, max_fragments)
    if k == 0:
        return DirectionSet()
    points = sorted(rng.sample(range(-den, den + 1), 2 * k))
    return DirectionSet(
        [
            (Fraction(points[2 * i], den), Fraction(points[2 * i + 1], den))
            for i in range(k)
        ]
    )


def random_geometry(rng: random.Random) -> ScatteringGeometry:
    """Criterion-2 geometry: den=64, at most 3 fragments, lengths at most 4."""
    sets = [random_direction_set(rng) for _ in range(6)]
    lengths = ArrayHalfLengths(
        *(Fraction(rng.randint(0, 4 * 64), 64) for _ in range(4))
    )
    return ScatteringGeometry(*sets, lengths=lengths)


def _subset_slice(rng: random.Random, base: DirectionSet) -> DirectionSet:
    total = base.measure()
    if total == 0:
        return DirectionSet()
    return base.take_from_left(total * rng.randint(0, 4) / 4)


def _case_candidate(rng: random.Random) -> ScatteringGeometry:
    t22 = random_direction_set(rng, 2, 4)
    if rng.random() < 0.7:
        t12 = _subset_slice(rng, t22)
        if rng.random() < 0.3:
            t12 = t12 | random_direction_set(rng, 1, 4)
    else:
        t12 = random_direction_set(rng, 2, 4)
    r11 = random_direction_set(rng, 2, 4)
    if rng.random() < 0.7:
        r12 = _subset_slice(rng, r11)
    else:
        r12 = random_direction_set(rng, 1, 4)
    t11 = random_direction_set(rng, 2, 4)
    r22 = (
        DirectionSet.full()
        if rng.random() < 0.5
        else random_direction_set(rng, 2, 4)
    )
    lengths = ArrayHalfLengths(
        Fraction(rng.choice((2, 4, 6, 8)), 4),
        Fraction(rng.choice((1, 2, 4)), 4),
        Fraction(rng.choice((2, 4, 8)), 4),
        Fraction(rng.choice((4, 8)), 4),
    )
    return ScatteringGeometry(t11, r11, t22, r22, t12, r12, lengths=lengths)


def max_space_dim(g: ScatteringGeometry) -> int:
    alloc = allocate_basis(g)
    return max(alloc.t1.total, alloc.t2.total, alloc.r1.total, alloc.r2.total)


def random_case_geometry(
    rng: random.Random, max_dim: int = 64
) -> tuple[ScatteringGeometry, ScatteringGeometry]:
    """Criteria-3/4 geometry: integral, inside the zero-forcing case
    conditions, every space at most max_dim.  Returns (integral, raw)."""
    for _ in range(400):
        raw = _case_candidate(rng)
        g, _ = integer_rescale(raw)
        if zf_case_applies(g) and 0 < max_space_dim(g) <= max_dim:
            return g, raw
    raise RuntimeError("generator failed to satisfy the case conditions")


def acceptance_case_geometries() -> list[tuple[ScatteringGeometry, ScatteringGeometry]]:
    """The acceptance suite's 100 criteria-3/4 geometries, (integral, raw).

    A fixed set: with only 100 geometries, one or two of them set the p99,
    so drawing a new set per seed would make the tail a property of the seed.
    """
    rng = random.Random(0xFDD0F)
    return [random_case_geometry(rng) for _ in range(100)]


def large_geometries() -> list[tuple[ScatteringGeometry, ScatteringGeometry]]:
    """(scaled, as-loaded) for each checked-in scenario (oracle_large)."""
    out = []
    for stem in SCENARIOS:
        raw = load_scenario(Path(scenario_path(stem))).geometry
        out.append((raw.scaled(LARGE_SCALES[stem]), raw))
    return out


# Overlap grid for the cli sweep: 1 down to 0 in steps of 1/16.
FINE_GRID = ",".join(str(Fraction(k, 16)) for k in range(16, -1, -1))

WORK_DIR = ".bench_out/work"


def cli_mix() -> list[tuple[str, str, str, list[str]]]:
    """(case id, subcommand, scenario stem, argv) for every subcommand on
    every scenario.

    Output paths are relative to the checkout root, so they, and the stdout
    lines that echo them, are the same in every checkout.
    """
    mix = []
    for stem in SCENARIOS:
        path = scenario_path(stem)
        out = f"{WORK_DIR}/{{}}-{stem}"
        mix += [
            (f"region-{stem}", "region", stem,
             ["region", path, "--csv", out.format("region") + ".csv",
              "--svg", out.format("region") + ".svg"]),
            (f"compare-{stem}", "compare", stem,
             ["compare", path, "--svg", out.format("compare") + ".svg"]),
            (f"sweep-{stem}", "sweep", stem,
             ["sweep", path, "--grid", FINE_GRID,
              "--csv", out.format("sweep") + ".csv",
              "--svg", out.format("sweep") + ".svg"]),
            (f"verify-{stem}", "verify", stem,
             ["verify", path, "--auto-rescale"]),
        ]
    return mix
