"""Random-geometry generators, hypothesis strategies and Fraction
reference implementations shared across the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from fddof import (
    ArrayHalfLengths,
    DegenerateGeometryError,
    DirectionSet,
    DofRegion,
    QuantizationError,
    RegionRelation,
    ScatteringGeometry,
    allocate_basis,
    integer_rescale,
    make_symmetric,
    zf_case_applies,
)
from fddof.oracle import (
    DiscretizedChannel,
    ZeroForcingResult,
    _count,
    _space_totals,
    numerical_rank,
)


def ds(*pairs) -> DirectionSet:
    return DirectionSet(pairs)


def symmetric_overlap(length, overlap) -> ScatteringGeometry:
    """Unit forward / unit backscatter supports with the given overlap."""
    fwd = ds((0, 1))
    back = ds((overlap - 1, overlap)) if overlap > 0 else ds((-1, 0))
    return make_symmetric(length, fwd, back)


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


def reference_contains(region: DofRegion, point) -> bool:
    """``DofRegion.contains`` by Fraction cross products."""
    x, y = Fraction(point[0]), Fraction(point[1])
    verts = region.vertices
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


def reference_is_subset_of(a: DofRegion, b: DofRegion) -> bool:
    return all(reference_contains(b, v) for v in a.vertices)


def reference_region_relate(a: DofRegion, b: DofRegion) -> RegionRelation:
    """``region_relate`` by Fraction hull tests."""
    a_in_b = reference_is_subset_of(a, b)
    b_in_a = reference_is_subset_of(b, a)
    if a_in_b and b_in_a:
        return RegionRelation.EQUAL
    if a_in_b:
        return RegionRelation.A_STRICT_SUBSET_B
    if b_in_a:
        return RegionRelation.B_STRICT_SUBSET_A
    return RegionRelation.INCOMPARABLE


def reference_genie_expand(g: ScatteringGeometry) -> ScatteringGeometry:
    """``genie_expand`` by DirectionSet unions and Fraction measures."""
    t_union = g.t22 | g.t12
    r_union = g.r11 | g.r12
    if not t_union or not r_union:
        raise DegenerateGeometryError(
            "expansion needs nonzero-measure scattering unions on both sides"
        )
    L = g.lengths
    l_t2 = L.l_t2 + L.l_r1 * (g.r11 - g.r12).measure() / t_union.measure()
    l_r1 = L.l_r1 + L.l_t2 * (g.t22 - g.t12).measure() / r_union.measure()
    return ScatteringGeometry(
        t11=g.t11,
        r11=r_union,
        t22=t_union,
        r22=g.r22,
        t12=t_union,
        r12=r_union,
        lengths=ArrayHalfLengths(L.l_t1, l_r1, l_t2, L.l_r2),
    )


def fraction_endpoints(sets) -> bool:
    """Whether every endpoint of every set is of type Fraction."""
    return all(
        type(x) is Fraction for ds in sets for iv in ds.intervals for x in iv
    )


def reference_refine(sets) -> list[DirectionSet]:
    """``refine`` by sorting Fraction breakpoints and testing midpoints."""
    points = sorted({p for ds in sets for iv in ds.intervals for p in iv})
    runs: list[list] = []
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        signature = tuple(mid in ds for ds in sets)
        if not any(signature):
            continue
        if runs and runs[-1][1] == lo and runs[-1][2] == signature:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, signature])
    return [DirectionSet([(lo, hi)]) for lo, hi, _ in runs]


def space_families(g: ScatteringGeometry) -> dict:
    """Label -> (array half-length, the supports spanning that space)."""
    L = g.lengths
    return {
        "t1": (L.l_t1, [g.t11]),
        "t2": (L.l_t2, [g.t22, g.t12]),
        "r1": (L.l_r1, [g.r11, g.r12]),
        "r2": (L.l_r2, [g.r22]),
    }


def reference_integer_scale(g: ScatteringGeometry) -> int:
    """``integer_scale`` from Fraction atom measures."""
    scale = 1
    for length, family in space_families(g).values():
        for atom in reference_refine(family):
            scale = math.lcm(scale, (2 * length * atom.measure()).denominator)
    return scale


def reference_allocation(g: ScatteringGeometry) -> dict:
    """``allocate_basis`` from Fraction atom measures: label -> (atoms, dims).

    Raises the QuantizationError ``allocate_basis`` must raise, for the
    first non-integral atom in space order t1, t2, r1, r2.
    """
    spaces = {}
    for label, (length, family) in space_families(g).items():
        atoms = tuple(reference_refine(family))
        dims = [2 * length * atom.measure() for atom in atoms]
        for atom, dim in zip(atoms, dims):
            if dim.denominator != 1:
                raise QuantizationError(
                    label, atom, dim, sum(dims, Fraction(0)),
                    reference_integer_scale(g),
                )
        spaces[label] = (atoms, tuple(int(dim) for dim in dims))
    return spaces


def reference_mask(atoms, dims, support: DirectionSet) -> np.ndarray:
    """``mask_within`` by DirectionSet differences."""
    flags = [atom.issubset(support) for atom in atoms]
    return np.repeat(np.asarray(flags, dtype=bool), dims)


def reference_zero_forcing_corner(
    ch: DiscretizedChannel, g: ScatteringGeometry
) -> ZeroForcingResult:
    """``zero_forcing_corner`` by the preimage construction: the nullspace
    of s12 plus least-squares preimages of range(s11)-perp & range(s12).

    Flow 1 takes its full dimension, d1 = rank(s11).  Flow 2 then signals
    inside the preimage of range(s11)-perp under s12: the nullspace of s12
    plus minimum-norm preimages of the overlap between range(s11)-perp and
    range(s12).  d2 is the rank of s22 restricted to that subspace, which
    caps it by the downlink receive dimension automatically.

    The leakage figure is the largest interference energy any constructed
    transmit basis vector deposits onto range(s11), relative to the
    spectral norm of s12.  Raises ValueError when the channel's shapes do
    not match the space totals of ``g``.
    """
    k, (t1, t2, r1, r2) = _space_totals(g)
    shapes = ((r1, t1), (r1, t2), (r2, t2))
    for (rows, cols), mat in zip(shapes, (ch.s11, ch.s12, ch.s22)):
        if (rows, cols) != (mat.shape[0] * k, mat.shape[1] * k):
            raise ValueError("channel was not sampled from this geometry")

    tol = ch.rank_tol

    u11, sv11, _ = np.linalg.svd(ch.s11)
    r1 = _count(sv11, tol)
    desired = u11[:, :r1]          # range(s11)
    clear = u11[:, r1:]            # range(s11)-perp: interference-free

    u12, sv12, v12h = np.linalg.svd(ch.s12)
    r12 = _count(sv12, tol)
    nullspace = v12h[r12:, :].conj().T
    reach = u12[:, :r12]           # range(s12)

    overlap = 0
    if clear.shape[1] and r12:
        joint = np.hstack([clear, reach])
        overlap = clear.shape[1] + r12 - numerical_rank(joint, tol)

    pieces = [nullspace]
    if overlap:
        _, _, vmh = np.linalg.svd(clear.conj().T @ reach)
        targets = reach @ vmh[:overlap, :].conj().T
        # purify: keep only the interference-free component before solving
        targets = clear @ (clear.conj().T @ targets)
        preimages, *_ = np.linalg.lstsq(ch.s12, targets, rcond=None)
        pieces.append(preimages)

    ub, sb, _ = np.linalg.svd(np.hstack(pieces), full_matrices=False)
    p12 = ub[:, : _count(sb, tol)]
    d2 = numerical_rank(ch.s22 @ p12, tol)

    max_leakage = 0.0
    norm12 = float(sv12[0]) if sv12.size else 0.0
    if p12.shape[1] and norm12 > 0.0 and r1:
        leak = desired.conj().T @ (ch.s12 @ p12)
        # p12 columns are orthonormal, so per-column norms are already
        # relative to the transmit vector norm
        max_leakage = float(np.linalg.norm(leak, axis=0).max() / norm12)

    return ZeroForcingResult(
        d1=r1, d2=d2, p12_dim=p12.shape[1], max_leakage=max_leakage
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


# -- hypothesis strategies -----------------------------------------------------

GRID = 16


@st.composite
def direction_sets(draw, max_fragments=3, grid=GRID):
    """Up to max_fragments disjoint intervals with endpoints on the 1/grid
    grid."""
    k = draw(st.integers(0, max_fragments))
    if k == 0:
        return DirectionSet()
    points = draw(
        st.lists(
            st.integers(-grid, grid), min_size=2 * k, max_size=2 * k, unique=True
        )
    )
    points.sort()
    return DirectionSet(
        [
            (Fraction(points[2 * i], grid), Fraction(points[2 * i + 1], grid))
            for i in range(k)
        ]
    )


lengths_st = st.integers(0, 4 * GRID).map(lambda n: Fraction(n, GRID))


@st.composite
def angle_sets(draw):
    """Angle-domain supports: non-grid 12-digit cosine endpoints."""
    angles = st.fractions(0, 180, max_denominator=7)
    pairs = draw(st.lists(st.tuples(angles, angles), max_size=3))
    return DirectionSet.from_angles([sorted(pair) for pair in pairs])


@st.composite
def fine_sets(draw):
    """Endpoints with unrelated denominators."""
    points = draw(
        st.lists(
            st.fractions(-1, 1, max_denominator=1000),
            max_size=6,
            unique=True,
        )
    )
    points.sort()
    return DirectionSet(zip(points[::2], points[1::2]))


@st.composite
def mixed_geometries(draw):
    """Grid, angle-domain and fine supports; grid, zero and non-integral
    lengths (with denominators up to 99)."""
    sets = st.one_of(direction_sets(), angle_sets(), fine_sets())
    lens = st.one_of(
        lengths_st, st.just(Fraction(0)),
        st.fractions(0, 8, max_denominator=99),
    )
    return ScatteringGeometry(
        *(draw(sets) for _ in range(6)),
        lengths=ArrayHalfLengths(*(draw(lens) for _ in range(4))),
    )


_LEFT = DirectionSet([(-1, Fraction(1, 3))])
_RIGHT = DirectionSet([(Fraction(1, 3), 1)])
# every two-set family touches at 1/3; the lengths are non-integral
TOUCHING = ScatteringGeometry(
    t11=_LEFT, r11=_RIGHT, t22=_LEFT, r22=_RIGHT, t12=_RIGHT, r12=_LEFT,
    lengths=ArrayHalfLengths(1, Fraction(1, 3), 2, Fraction(5, 7)),
)
EMPTY = ScatteringGeometry(
    *(DirectionSet() for _ in range(6)), lengths=ArrayHalfLengths(1, 1, 1, 1)
)
