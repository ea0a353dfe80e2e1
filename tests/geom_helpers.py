"""Random-geometry generators, hypothesis strategies and Fraction
reference implementations shared across the test suite."""

from __future__ import annotations

import functools
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
    is_rectangular,
    link_products,
    make_symmetric,
    zf_case_applies,
)
from fddof.oracle import (
    DiscretizedChannel,
    ZeroForcingResult,
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


# -- a Fraction interval algebra of its own ------------------------------------
#
# On tuples of exact Fraction pairs (lo, hi), sorted, disjoint and not
# touching, as ``DirectionSet.intervals`` gives them.  It shares no code with
# ``fddof.intervals`` and no algorithm with it (each result is read off the
# midpoints of the pieces between the inputs' endpoints), so the references
# below do not rest on the algebra they check.

def iv_contains(pairs, x) -> bool:
    return any(lo <= x < hi for lo, hi in pairs)


def iv_measure(pairs) -> Fraction:
    return sum((hi - lo for lo, hi in pairs), Fraction(0))


def _pieces(a, b, keep) -> tuple:
    """The pieces between consecutive endpoints of ``a`` and ``b`` whose
    midpoint's membership (in a, in b) satisfies ``keep``, touching pieces
    joined."""
    points = sorted({x for pair in (*a, *b) for x in pair})
    out: list = []
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        if not keep(iv_contains(a, mid), iv_contains(b, mid)):
            continue
        if out and out[-1][1] == lo:
            out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def iv_union(a, b) -> tuple:
    return _pieces(a, b, lambda x, y: x or y)


def iv_intersection(a, b) -> tuple:
    return _pieces(a, b, lambda x, y: x and y)


def iv_difference(a, b) -> tuple:
    return _pieces(a, b, lambda x, y: x and not y)


# geometry id -> its reference products (None until first asked), for the
# geometries of the fixed corpora below, which live as long as the session
_CORPUS_PRODUCTS: dict[int, tuple | None] = {}


def _fixed(corpus: list) -> list:
    """Register a fixed corpus: ``reference_link_products`` then computes
    each of its geometries' products once per session."""
    _CORPUS_PRODUCTS.update((id(g), None) for g in corpus)
    return corpus


def reference_link_products(g: ScatteringGeometry) -> tuple[Fraction, ...]:
    """The products a..v of ``link_products`` by the Fraction interval
    algebra above; once per session for a geometry of a fixed corpus."""
    if id(g) not in _CORPUS_PRODUCTS:
        return _reference_link_products(g)
    if _CORPUS_PRODUCTS[id(g)] is None:
        _CORPUS_PRODUCTS[id(g)] = _reference_link_products(g)
    return _CORPUS_PRODUCTS[id(g)]


def _reference_link_products(g: ScatteringGeometry) -> tuple[Fraction, ...]:
    L = g.lengths
    t11, r11, t22, r22, t12, r12 = (
        ds.intervals for ds in (g.t11, g.r11, g.t22, g.r22, g.t12, g.r12)
    )
    return (
        L.l_t1 * iv_measure(t11),
        L.l_r1 * iv_measure(r11),
        L.l_t2 * iv_measure(t22),
        L.l_r2 * iv_measure(r22),
        L.l_t2 * iv_measure(t12),
        L.l_r1 * iv_measure(r12),
        L.l_t2 * iv_measure(iv_difference(t22, t12)),
        L.l_t2 * iv_measure(iv_intersection(t22, t12)),
        L.l_r1 * iv_measure(iv_difference(r11, r12)),
        L.l_r1 * iv_measure(iv_intersection(r11, r12)),
        L.l_r1 * iv_measure(iv_difference(r12, r11)),
        L.l_t2 * iv_measure(iv_difference(t12, t22)),
    )


def reference_caps(g: ScatteringGeometry) -> tuple[Fraction, ...]:
    """``fd_caps`` from the products of ``reference_link_products``."""
    a, b, c, d, e, f, p, _, r, _, _, _ = reference_link_products(g)
    return 2 * min(a, b), 2 * min(c, d), 2 * (p + r + max(e, f))


def reference_nullity_codim(g: ScatteringGeometry) -> tuple[Fraction, ...]:
    """The paper's nullity of s12, 2p + 2max(e - f, 0), and codimension of
    range(s11), 2u + 2max(b - a, 0), from ``reference_link_products``."""
    a, b, _, _, e, f, p, _, _, _, u, _ = reference_link_products(g)
    return 2 * p + 2 * max(e - f, 0), 2 * u + 2 * max(b - a, 0)


def nullity_codim(ch: DiscretizedChannel, report) -> tuple[int, int]:
    """nullity(s12) and codim range(s11) of ``ch``: s12's column count and
    s11's row count, less the ranks ``verify_operator_dims`` decided."""
    rank = {check.name: check.observed for check in report.checks}
    return (ch.s12.shape[1] - rank["rank(s12)"],
            ch.s11.shape[0] - rank["rank(s11)"])


def reference_cap_vertices(d1: Fraction, d2: Fraction, ds: Fraction) -> tuple:
    """The vertices of the cap polygon of (d1, d2, ds), ``fd_region``'s
    rule, by Fraction comparisons."""
    zero = Fraction(0)
    verts = [(zero, zero)]
    if d1 > 0:
        verts.append((d1, zero))
    if ds < d1 + d2:
        for vert in ((d1, ds - d1), (ds - d2, d2)):
            if vert != verts[-1]:
                verts.append(vert)
    elif d1 > 0 and d2 > 0:
        verts.append((d1, d2))
    if d2 > 0 and (zero, d2) != verts[-1]:
        verts.append((zero, d2))
    return tuple(verts)


def cap_region(d1, d2, ds) -> DofRegion:
    """The cap polygon of any cap triple with ds >= max(d1, d2)."""
    return DofRegion(d1, d2, ds, reference_cap_vertices(d1, d2, ds))


def reference_hd_region(g: ScatteringGeometry) -> DofRegion:
    """``hd_region`` from ``reference_caps`` by Fraction comparisons."""
    d1, d2, _ = reference_caps(g)
    zero = Fraction(0)
    verts = [(zero, zero)]
    if d1 > 0:
        verts.append((d1, zero))
    if d2 > 0:
        verts.append((zero, d2))
    return DofRegion(d1, d2, max(d1, d2), tuple(verts))


def dual(g: ScatteringGeometry) -> ScatteringGeometry:
    """g with the uplink and downlink roles swapped: every transmit end
    becomes the matching receive end (t11<->r22, r11<->t22, t12<->r12) and
    every array its counterpart (l_t1<->l_r2, l_r1<->l_t2)."""
    L = g.lengths
    return ScatteringGeometry(
        t11=g.r22, r11=g.t22, t22=g.r11, r22=g.t11, t12=g.r12, r12=g.t12,
        lengths=ArrayHalfLengths(L.l_r2, L.l_t2, L.l_r1, L.l_t1),
    )


def reference_contains(region: DofRegion, point) -> bool:
    """Whether ``point`` lies in ``region``, by Fraction cross products."""
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
    """``genie_expand`` by the Fraction interval algebra above."""
    t22, t12, r11, r12 = (ds.intervals for ds in (g.t22, g.t12, g.r11, g.r12))
    t_union, r_union = iv_union(t22, t12), iv_union(r11, r12)
    if not t_union or not r_union:
        raise DegenerateGeometryError(
            "expansion needs nonzero-measure scattering unions on both sides"
        )
    L = g.lengths
    r_slack = iv_measure(iv_difference(r11, r12))
    t_slack = iv_measure(iv_difference(t22, t12))
    l_t2 = L.l_t2 + L.l_r1 * r_slack / iv_measure(t_union)
    l_r1 = L.l_r1 + L.l_t2 * t_slack / iv_measure(r_union)
    t_set, r_set = DirectionSet(t_union), DirectionSet(r_union)
    return ScatteringGeometry(
        t11=g.t11,
        r11=r_set,
        t22=t_set,
        r22=g.r22,
        t12=t_set,
        r12=r_set,
        lengths=ArrayHalfLengths(L.l_t1, l_r1, l_t2, L.l_r2),
    )


def fraction_endpoints(sets) -> bool:
    """Whether every endpoint of every set is of type Fraction."""
    return all(
        type(x) is Fraction for ds in sets for iv in ds.intervals for x in iv
    )


def reference_refine(sets) -> list[DirectionSet]:
    """``refine`` by sorting Fraction breakpoints and testing midpoints."""
    families = [ds.intervals for ds in sets]
    points = sorted({p for pairs in families for iv in pairs for p in iv})
    runs: list[list] = []
    for lo, hi in zip(points, points[1:]):
        mid = (lo + hi) / 2
        signature = tuple(iv_contains(pairs, mid) for pairs in families)
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
    """``integer_rescale``'s factor from Fraction atom measures."""
    scale = 1
    for length, family in space_families(g).values():
        for atom in reference_refine(family):
            dim = 2 * length * iv_measure(atom.intervals)
            scale = math.lcm(scale, dim.denominator)
    return scale


def reference_allocation(g: ScatteringGeometry) -> dict:
    """``allocate_basis`` from Fraction atom measures: label -> (atoms, dims).

    Raises the QuantizationError ``allocate_basis`` must raise, for the
    first non-integral atom in space order t1, t2, r1, r2.
    """
    spaces = {}
    for label, (length, family) in space_families(g).items():
        atoms = tuple(reference_refine(family))
        dims = [2 * length * iv_measure(atom.intervals) for atom in atoms]
        for atom, dim in zip(atoms, dims):
            if dim.denominator != 1:
                raise QuantizationError(
                    label, atom, dim, sum(dims, Fraction(0)),
                    reference_integer_scale(g),
                )
        spaces[label] = (atoms, tuple(int(dim) for dim in dims))
    return spaces


def reference_mask(atoms, dims, support: DirectionSet) -> np.ndarray:
    """``SpaceAllocation.mask`` by Fraction interval differences: True per
    basis function when its atom lies in ``support``."""
    flags = [not iv_difference(atom.intervals, support.intervals)
             for atom in atoms]
    return np.repeat(np.asarray(flags, dtype=bool), dims)


def reference_channel(g: ScatteringGeometry, seed: int) -> DiscretizedChannel:
    """``sample_channel`` one seed and one matrix at a time, with supports
    from the Fraction references: per operator ``np.zeros``, two
    ``standard_normal(size)`` calls and ``np.ix_``, then one
    ``np.linalg.svd`` per matrix for the channel's factors."""
    spaces = reference_allocation(g)
    rng = np.random.default_rng(seed)
    mats = []
    for (rows, r_set), (cols, c_set) in (
        (("r1", g.r11), ("t1", g.t11)),
        (("r1", g.r12), ("t2", g.t12)),
        (("r2", g.r22), ("t2", g.t22)),
    ):
        r_mask = reference_mask(*spaces[rows], r_set)
        c_mask = reference_mask(*spaces[cols], c_set)
        out = np.zeros((r_mask.size, c_mask.size), dtype=np.complex128)
        if r_mask.any() and c_mask.any():
            size = (r_mask.sum(), c_mask.sum())
            block = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            out[np.ix_(np.flatnonzero(r_mask), np.flatnonzero(c_mask))] = (
                block / np.sqrt(2)
            )
        mats.append(out)
    s11, s12, s22 = mats
    if s11.size:
        u11, sv11, _ = np.linalg.svd(s11, full_matrices=False)
    else:
        u11, sv11 = np.zeros((s11.shape[0], 0), dtype=np.complex128), np.zeros(0)
    svals = [np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
             for m in (s12, s22)]
    ch = DiscretizedChannel(s11, s12, s22, g)
    # what the channel's factoring would store, computed here instead
    vars(ch)["_factors"] = (u11, sv11, *svals)
    return ch


def _count(svals: np.ndarray, rank_tol: float) -> int:
    """Singular values above rank_tol relative to the largest, silently."""
    if svals.size == 0 or float(svals[0]) == 0.0:
        return 0
    return int(np.sum(svals > rank_tol * float(svals[0])))


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
    k, a, b, c, d, _, _, _, _, _, _, u, v = link_products(g)
    # 2L times the measure of each space's union of supports, times k
    t1, t2, r1, r2 = 2 * a, 2 * (c + v), 2 * (b + u), 2 * d
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


@functools.cache
def oracle_geometry_set():
    """Shared set of >=100 integral case geometries for the oracle criteria."""
    rng = random.Random(0xFDD0F)
    return _fixed(
        [random_integral_case_geometry(rng, max_dim=64) for _ in range(100)]
    )


@functools.cache
def binding_geometry_set():
    """Shared set of 200 integral geometries whose sum cap binds
    (dsum < d1 + d2), inside and outside the zero-forcing case conditions."""
    rng = random.Random(11)
    out = []
    while len(out) < 200:
        g, _ = integer_rescale(_case_candidate(rng))
        if not is_rectangular(g) and 0 < max_space_dim(g) <= 64:
            out.append(g)
    return _fixed(out)


@functools.cache
def criterion_2_geometries():
    """The 10^4 geometries of acceptance criterion 2."""
    rng = random.Random(20260810)
    return _fixed(
        [random_geometry(rng, max_fragments=3, den=64) for _ in range(10_000)]
    )


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
def fractions_st(draw, lo: int, hi: int, max_denominator: int):
    """The values of ``st.fractions(lo, hi, max_denominator=...)`` on
    integer bounds, drawn as a denominator and then a numerator, at a
    fraction of the cost of hypothesis's strategy."""
    den = draw(st.integers(1, max_denominator))
    return Fraction(draw(st.integers(lo * den, hi * den)), den)


_angles = fractions_st(0, 180, max_denominator=7)
_angle_pairs = st.lists(st.tuples(_angles, _angles), max_size=3)


@st.composite
def angle_sets(draw):
    """Angle-domain supports: non-grid 12-digit cosine endpoints."""
    pairs = draw(_angle_pairs)
    return DirectionSet.from_angles([sorted(pair) for pair in pairs])


_fine_points = st.lists(
    fractions_st(-1, 1, max_denominator=1000), max_size=6, unique=True
)


@st.composite
def fine_sets(draw):
    """Endpoints with unrelated denominators."""
    points = sorted(draw(_fine_points))
    return DirectionSet(zip(points[::2], points[1::2]))


_mixed_sets = st.one_of(direction_sets(), angle_sets(), fine_sets())
_mixed_lengths = st.one_of(
    lengths_st, st.just(Fraction(0)), fractions_st(0, 8, max_denominator=99)
)


@st.composite
def mixed_geometries(draw):
    """Grid, angle-domain and fine supports; grid, zero and non-integral
    lengths (with denominators up to 99)."""
    return ScatteringGeometry(
        *(draw(_mixed_sets) for _ in range(6)),
        lengths=ArrayHalfLengths(*(draw(_mixed_lengths) for _ in range(4))),
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
