"""Deterministic random-geometry generators shared across the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from fddof import (
    ArrayHalfLengths,
    DirectionSet,
    ScatteringGeometry,
    allocate_basis,
    integer_rescale,
    zf_case_applies,
)


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


def random_length(rng: random.Random, den: int = 64, top: int = 4) -> Fraction:
    return Fraction(rng.randint(0, top * den), den)


def random_geometry(
    rng: random.Random, max_fragments: int = 3, den: int = 64
) -> ScatteringGeometry:
    sets = [random_direction_set(rng, max_fragments, den) for _ in range(6)]
    lengths = ArrayHalfLengths(*(random_length(rng, den) for _ in range(4)))
    return ScatteringGeometry(*sets, lengths=lengths)


def random_symmetric_inputs(
    rng: random.Random, den: int = 64
) -> tuple[Fraction, DirectionSet, DirectionSet]:
    """Positive shared length plus forward/backscatter sets."""
    length = Fraction(rng.randint(1, 4 * den), den)
    fwd = random_direction_set(rng, den=den)
    back = random_direction_set(rng, den=den)
    return length, fwd, back


def reference_link_products(g: ScatteringGeometry) -> tuple[Fraction, ...]:
    """The products a..v of ``link_products`` by DirectionSet algebra."""
    L = g.lengths
    return (
        L.l_t1 * g.t11.measure(),
        L.l_r1 * g.r11.measure(),
        L.l_t2 * g.t22.measure(),
        L.l_r2 * g.r22.measure(),
        L.l_t2 * g.t12.measure(),
        L.l_r1 * g.r12.measure(),
        L.l_t2 * (g.t22 - g.t12).measure(),
        L.l_t2 * (g.t22 & g.t12).measure(),
        L.l_r1 * (g.r11 - g.r12).measure(),
        L.l_r1 * (g.r11 & g.r12).measure(),
        L.l_r1 * (g.r12 - g.r11).measure(),
        L.l_t2 * (g.t12 - g.t22).measure(),
    )


def _subset_slice(rng: random.Random, base: DirectionSet) -> DirectionSet:
    """Left-aligned slice of base with a grid-friendly measure."""
    total = base.measure()
    if total == 0:
        return DirectionSet()
    steps = rng.randint(0, 4)
    return base.take_from_left(total * steps / 4)


def _case_candidate(rng: random.Random) -> ScatteringGeometry:
    den = 4
    t22 = random_direction_set(rng, max_fragments=2, den=den)
    if rng.random() < 0.7:
        t12 = _subset_slice(rng, t22)
        if rng.random() < 0.3:
            t12 = t12 | random_direction_set(rng, max_fragments=1, den=den)
    else:
        t12 = random_direction_set(rng, max_fragments=2, den=den)
    r11 = random_direction_set(rng, max_fragments=2, den=den)
    if rng.random() < 0.7:
        r12 = _subset_slice(rng, r11)
    else:
        r12 = random_direction_set(rng, max_fragments=1, den=den)
    t11 = random_direction_set(rng, max_fragments=2, den=den)
    r22 = DirectionSet.full() if rng.random() < 0.5 else random_direction_set(
        rng, max_fragments=2, den=den
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
    return max(
        alloc.t1.total, alloc.t2.total, alloc.r1.total, alloc.r2.total
    )


def random_integral_case_geometry(
    rng: random.Random, max_dim: int = 64, max_tries: int = 400
) -> ScatteringGeometry:
    """Integral geometry satisfying the corner construction's case conditions."""
    for _ in range(max_tries):
        g, _ = integer_rescale(_case_candidate(rng))
        if not zf_case_applies(g):
            continue
        if not 0 < max_space_dim(g) <= max_dim:
            continue
        return g
    raise RuntimeError("generator failed to satisfy the case conditions")


_oracle_geometries = None


def oracle_geometry_set():
    """Shared set of >=100 integral case geometries for the oracle criteria."""
    global _oracle_geometries
    if _oracle_geometries is None:
        rng = random.Random(0xFDD0F)
        _oracle_geometries = [
            random_integral_case_geometry(rng, max_dim=64) for _ in range(100)
        ]
    return _oracle_geometries


def random_integral_geometry(
    rng: random.Random, max_dim: int = 64, max_tries: int = 400
) -> ScatteringGeometry:
    """Integral geometry with bounded space dimensions, unconditioned."""
    for _ in range(max_tries):
        g, _ = integer_rescale(random_geometry(rng, max_fragments=2, den=4))
        if max_space_dim(g) <= max_dim:
            return g
    raise RuntimeError("generator failed to bound the space dimensions")
