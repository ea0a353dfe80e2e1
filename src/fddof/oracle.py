"""Randomized finite-dimensional oracle for the operator-dimension identities.

Each signal space is identified with coordinates over one orthonormal basis
function per resolvable direction: a refinement atom of width w under an
array of half-length L contributes exactly 2*L*w basis functions, which must
be an integer (apply integer_rescale first if it is not).  Atoms, their
dimensions and their support masks are computed exactly on integer
endpoints over one denominator per space.  The scattering operators become
complex matrices whose support is exactly the product of the receive and
transmit scattering intervals, with free entries drawn from a standard
complex normal so that every fully-supported submatrix has maximal rank
with probability one.  The zero-forcing corner gives flow 2 the transmit
subspace ker(U1^H s12), U1 an orthonormal basis of range(s11), with its
rank threshold relative to the spectral norm of s12.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

# numpy is imported inside the functions that touch a matrix, so importing
# this module (and the package, and the CLI) leaves it unloaded until the
# first oracle call
from .intervals import DirectionSet, scaled_atoms
from .regions import ScatteringGeometry, link_products

DEFAULT_RANK_TOL = 1e-9

# relative interference leakage the zero-forcing construction must beat
LEAKAGE_TOL = 1e-8

# Largest signal space the oracle will sample, in basis functions.  Each of
# the three channel matrices is at most this square in complex128, so they
# take at most 3 * 2048**2 * 16 B = 192 MiB together.
MAX_SPACE_DIM = 2048


class QuantizationError(ValueError):
    """A refinement atom carries a non-integer number of basis functions."""

    def __init__(self, space: str, atom: DirectionSet, dim: Fraction,
                 total: Fraction, suggested_scale: int):
        self.space = space
        self.atom = atom
        self.dim = dim
        self.total = total
        self.suggested_scale = suggested_scale
        lo, hi = atom.intervals[0]
        super().__init__(
            f"space {space}: atom [{lo}, {hi}) has non-integral dimension "
            f"{dim} (space total {total}); scaling all array lengths by "
            f"{suggested_scale} makes every atom dimension integral"
        )


class DimensionBudgetError(ValueError):
    """A signal space needs more basis functions than MAX_SPACE_DIM."""

    def __init__(self, space: str, total: int | Fraction):
        self.space = space
        self.total = total
        super().__init__(
            f"space {space} needs {total} basis functions, above the budget "
            f"of {MAX_SPACE_DIM} per space"
        )


class RankToleranceWarning(UserWarning):
    """A singular value sits near the rank threshold; rank is unreliable."""


def _rank(svals: np.ndarray, threshold: float) -> int:
    """Count the singular values, sorted descending, above ``threshold``.

    Warns when any of them lies within a decade of the threshold: the
    spectral gap should be many orders of magnitude wide here, so a
    near-threshold value means the draw is ill-conditioned and a reseed is
    advisable.  Only the smallest kept and the largest dropped value can
    lie that close if any does.
    """
    import numpy as np

    rank = int(np.count_nonzero(svals > threshold))
    if (rank and svals[rank - 1] < threshold * 10) or (
        rank < svals.size and svals[rank] > threshold / 10
    ):
        near = np.sum((svals > threshold / 10) & (svals < threshold * 10))
        warnings.warn(
            f"{int(near)} singular value(s) within a decade of the rank "
            f"threshold {threshold:.3e}; rank decision is ill-conditioned, "
            "resample with a different seed",
            RankToleranceWarning,
            stacklevel=3,
        )
    return rank


def numerical_rank(matrix: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rank_tol relative to the largest,
    warning as ``_rank`` does."""
    import numpy as np

    if matrix.size == 0:
        return 0
    svals = np.linalg.svd(matrix, compute_uv=False)
    return _rank(svals, rank_tol * float(svals[0]))


@dataclass(frozen=True)
class SpaceAllocation:
    """Basis-function counts per refinement atom of one signal space.

    Atom i is the interval [lo / den, hi / den) for (lo, hi) = bounds[i],
    left to right, and carries dims[i] basis functions; bit j of
    members[i] is set when member j of the space's family covers it.
    """

    label: str
    length: Fraction
    den: int
    bounds: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    members: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.dims)

    def mask(self, member: int) -> np.ndarray:
        """Boolean per basis function: True when family member ``member``
        covers its atom."""
        import numpy as np

        flags = [bool(m >> member & 1) for m in self.members]
        return np.repeat(np.asarray(flags, dtype=bool), self.dims)


@dataclass(frozen=True)
class BasisAllocation:
    t1: SpaceAllocation
    t2: SpaceAllocation
    r1: SpaceAllocation
    r2: SpaceAllocation


def _scaled_spaces(g: ScatteringGeometry):
    """Per signal space t1, t2, r1, r2: its label, its array half-length
    and the ``scaled_atoms`` of the supports it unites."""
    L = g.lengths
    return [
        ("t1", L.l_t1, *scaled_atoms([g.t11])),
        ("t2", L.l_t2, *scaled_atoms([g.t22, g.t12])),
        ("r1", L.l_r1, *scaled_atoms([g.r11, g.r12])),
        ("r2", L.l_r2, *scaled_atoms([g.r22])),
    ]


def _scale(spaces) -> int:
    scale = 1
    for _, length, den, bounds, _ in spaces:
        unit = length.denominator * den
        twice = 2 * length.numerator
        for lo, hi in bounds:
            scale = math.lcm(scale, unit // math.gcd(twice * (hi - lo), unit))
    return scale


def integer_scale(g: ScatteringGeometry) -> int:
    """Least positive integer length multiplier making all atom dims integral."""
    return _scale(_scaled_spaces(g))


def integer_rescale(g: ScatteringGeometry) -> tuple[ScatteringGeometry, int]:
    """Scale all four array lengths so every atom dimension is an integer.

    Dimension caps scale linearly with array length, so results on the
    scaled geometry translate back by dividing by the returned factor.
    """
    scale = integer_scale(g)
    return (g if scale == 1 else g.scaled(scale)), scale


def allocate_basis(g: ScatteringGeometry) -> BasisAllocation:
    """Integer basis allocation per refinement atom for all four spaces.

    The transmit space of each node spans its forward support united with
    its backscatter support; the totals therefore equal 2L times the union
    measure.  Raises QuantizationError naming the first offending atom when
    a dimension is non-integral, together with the smallest integer length
    scale that repairs the whole geometry.
    """
    spaces = _scaled_spaces(g)
    alloc = {}
    for label, length, den, bounds, members in spaces:
        # an atom of width (hi - lo) / den carries 2 * length * width
        # basis functions: an integer over unit
        unit = length.denominator * den
        twice = 2 * length.numerator
        dims = []
        for lo, hi in bounds:
            dim, rest = divmod(twice * (hi - lo), unit)
            if rest:
                total = twice * sum(b - a for a, b in bounds)
                raise QuantizationError(
                    label,
                    DirectionSet._from_scaled([(lo, hi)], den),
                    Fraction(twice * (hi - lo), unit),
                    Fraction(total, unit),
                    _scale(spaces),
                )
            dims.append(dim)
        alloc[label] = SpaceAllocation(
            label, length, den, tuple(bounds), tuple(dims), tuple(members)
        )
    return BasisAllocation(**alloc)


@dataclass(frozen=True)
class DiscretizedChannel:
    """Finite stand-in for the three scattering operators.

    Rows index receive basis functions over the full receive space of the
    corresponding receiver, columns index transmit basis functions over the
    full transmit space; entries outside the operator's scattering support
    are structurally zero.  Deterministic given (geometry, seed), and
    records that geometry; construction refuses matrices whose shapes
    differ from the allocation's space totals.
    """

    s11: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    allocation: BasisAllocation
    geometry: ScatteringGeometry
    seed: int
    rank_tol: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        a = self.allocation
        shapes = ((a.r1, a.t1), (a.r1, a.t2), (a.r2, a.t2))
        for mat, (rows, cols) in zip((self.s11, self.s12, self.s22), shapes):
            if mat.shape != (rows.total, cols.total):
                raise ValueError("matrix shapes differ from the space totals")


def _support_masks(alloc: BasisAllocation):
    """Row and column support masks of each operator, in draw order: its
    receive and transmit supports are members of those spaces' families."""
    return {
        "s11": (alloc.r1.mask(0), alloc.t1.mask(0)),  # r11 x t11
        "s12": (alloc.r1.mask(1), alloc.t2.mask(1)),  # r12 x t12
        "s22": (alloc.r2.mask(0), alloc.t2.mask(0)),  # r22 x t22
    }


def _sample_block(rng, row_mask, col_mask):
    import numpy as np

    out = np.zeros((row_mask.size, col_mask.size), dtype=np.complex128)
    rows = np.flatnonzero(row_mask)
    cols = np.flatnonzero(col_mask)
    if rows.size and cols.size:
        shape = (rows.size, cols.size)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        out[np.ix_(rows, cols)] = block / np.sqrt(2)
    return out


def _check_geometry(ch: DiscretizedChannel, g: ScatteringGeometry) -> None:
    if ch.geometry != g:
        raise ValueError("channel was not sampled from this geometry")


def check_dimension_budget(g: ScatteringGeometry) -> None:
    """Raise DimensionBudgetError when a space exceeds MAX_SPACE_DIM.

    Reads the closed-form space totals, so it allocates nothing and holds
    for a non-integral geometry too: an integer rescale only multiplies
    the totals, so such a geometry cannot be brought under the budget.
    """
    # 2L times the measure of each space's union of supports, times k
    k, a, b, c, d, _, _, _, _, _, _, u, v = link_products(g)
    totals = (2 * a, 2 * (c + v), 2 * (b + u), 2 * d)
    for label, total in zip(("t1", "t2", "r1", "r2"), totals):
        if total > MAX_SPACE_DIM * k:
            raise DimensionBudgetError(label, Fraction(total, k))


def sample_channel(
    g: ScatteringGeometry, seed: int, rank_tol: float = DEFAULT_RANK_TOL
) -> DiscretizedChannel:
    """Draw the three block-supported matrices for an integral geometry.

    The matrices are drawn in a fixed order from one generator, so a given
    seed reproduces them bit for bit.  Raises DimensionBudgetError, before
    anything is allocated, when a space exceeds MAX_SPACE_DIM.
    """
    alloc = allocate_basis(g)
    for space in (alloc.t1, alloc.t2, alloc.r1, alloc.r2):
        if space.total > MAX_SPACE_DIM:
            raise DimensionBudgetError(space.label, space.total)
    import numpy as np

    rng = np.random.default_rng(seed)
    s11, s12, s22 = (
        _sample_block(rng, rows, cols)
        for rows, cols in _support_masks(alloc).values()
    )
    return DiscretizedChannel(s11, s12, s22, alloc, g, seed, rank_tol)


def corrupt_support(
    ch: DiscretizedChannel, g: ScatteringGeometry
) -> DiscretizedChannel:
    """Negative-control hook: move one matrix's rank off its identity by one.

    A supported block of r rows and c columns has generic rank min(r, c):
    an empty block gets one entry, otherwise one supported column (c <= r)
    or row (c > r) is zeroed.  Raises ValueError when ``ch`` was not
    sampled from ``g``.
    """
    import numpy as np

    _check_geometry(ch, g)
    masks = _support_masks(ch.allocation)
    for name in ("s12", "s11", "s22"):
        mat = getattr(ch, name)
        if mat.size == 0:
            continue
        rows, cols = (np.flatnonzero(mask) for mask in masks[name])
        patched = mat.copy()
        if not (rows.size and cols.size):
            patched[0, 0] = 1.0
        elif cols.size <= rows.size:
            patched[:, cols[0]] = 0.0
        else:
            patched[rows[0], :] = 0.0
        return replace(ch, **{name: patched})
    raise ValueError("all matrices are empty; nothing to corrupt")


@dataclass(frozen=True)
class DimCheck:
    name: str
    expected: int
    observed: int

    @property
    def ok(self) -> bool:
        return self.expected == self.observed

    def __str__(self) -> str:
        verdict = "pass" if self.ok else "FAIL"
        return (
            f"{self.name}: expected {self.expected}, "
            f"observed {self.observed} [{verdict}]"
        )


@dataclass(frozen=True)
class OperatorDimReport:
    checks: tuple[DimCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def _as_int(x: int, k: int) -> int:
    """x / k, which must be an integer."""
    if x % k:
        raise ValueError(f"expected integral dimension, got {Fraction(x, k)}")
    return x // k


def verify_operator_dims(
    ch: DiscretizedChannel, g: ScatteringGeometry
) -> OperatorDimReport:
    """Compare numerical rank, nullity and column-space codimension with
    the closed forms.

    Rank of each operator is twice the smaller of its two length-weighted
    support widths; the nullity of the self-interference operator and the
    codimension of the uplink operator's range follow from the support
    overlaps.  All comparisons are integer equalities.  Raises ValueError
    when ``ch`` was not sampled from ``g``.
    """
    _check_geometry(ch, g)
    k, a, b, c, d, e, f, p, _, _, _, u, _ = link_products(g)
    tol = ch.rank_tol
    rank11 = numerical_rank(ch.s11, tol)
    rank12 = numerical_rank(ch.s12, tol)
    rank22 = numerical_rank(ch.s22, tol)

    exp_rank11 = _as_int(2 * min(a, b), k)
    exp_rank12 = _as_int(2 * min(e, f), k)
    exp_rank22 = _as_int(2 * min(c, d), k)
    exp_null12 = _as_int(2 * p + 2 * max(e - f, 0), k)
    exp_codim11 = _as_int(2 * u + 2 * max(b - a, 0), k)

    checks = (
        DimCheck("rank(s11)", exp_rank11, rank11),
        DimCheck("rank(s12)", exp_rank12, rank12),
        DimCheck("rank(s22)", exp_rank22, rank22),
        DimCheck("nullity(s12)", exp_null12, ch.s12.shape[1] - rank12),
        DimCheck("codim range(s11)", exp_codim11, ch.s11.shape[0] - rank11),
    )
    return OperatorDimReport(checks)


@dataclass(frozen=True)
class ZeroForcingResult:
    """Outcome of the corner-achieving zero-forcing construction."""

    d1: int
    d2: int
    p12_dim: int
    max_leakage: float

    @property
    def corner(self) -> tuple[int, int]:
        return (self.d1, self.d2)


def zero_forcing_corner(
    ch: DiscretizedChannel, g: ScatteringGeometry
) -> ZeroForcingResult:
    """Corner point achieved by transmitter-side spatial isolation.

    Flow 1 takes its full dimension, d1 = rank(s11), on U1, an orthonormal
    basis of range(s11).  Flow 2 then signals only where its
    self-interference misses that space: on P, an orthonormal basis of
    ker(U1^H s12), read from the right singular vectors of U1^H s12 whose
    singular values fall below rank_tol times the spectral norm of s12.
    d2 is the rank of s22 restricted to P, which caps it by the downlink
    receive dimension automatically.

    The leakage figure is measured, not read back from the singular
    values: the largest column norm of U1^H s12 P, relative to the
    spectral norm of s12.  Raises ValueError when ``ch`` was not sampled
    from ``g``.
    """
    import numpy as np

    _check_geometry(ch, g)
    tol = ch.rank_tol
    u11, sv11, _ = np.linalg.svd(ch.s11, full_matrices=False)
    d1 = _rank(sv11, tol * sv11.max(initial=0.0))
    # the interference flow 2 deposits on flow 1's receive space
    m = u11[:, :d1].conj().T @ ch.s12
    # relative to s12 itself: m may hold nothing but round-off
    norm12 = np.linalg.svd(ch.s12, compute_uv=False).max(initial=0.0)
    _, svm, vmh = np.linalg.svd(m)
    p12 = vmh[_rank(svm, tol * norm12):, :].conj().T
    d2 = numerical_rank(ch.s22 @ p12, tol)

    leak = np.linalg.norm(m @ p12, axis=0).max(initial=0.0)
    # p12 columns are orthonormal, so per-column norms are already
    # relative to the transmit vector norm
    max_leakage = float(leak / norm12) if norm12 else 0.0
    return ZeroForcingResult(
        d1=d1, d2=d2, p12_dim=p12.shape[1], max_leakage=max_leakage
    )


def zf_case_applies(g: ScatteringGeometry) -> bool:
    """True when the single-case corner construction is provably exact.

    The construction reaches the p' corner whenever flow 1 is limited at
    its own transmitter, the T2 end of the backscatter link dominates the
    R1 end, the forward/backscatter overlap at T2 is wide enough to absorb
    the residual interference budget, and the downlink receiver can carry
    the resulting dimension count.  Outside these conditions the
    construction is still a valid inner point but may sit strictly below
    the corner.
    """
    _, a, b, _, d, e, f, p, q, _, _, u, _ = link_products(g)
    if a < b or e < f:
        return False
    if q < 2 * (max(e - f, 0) + u):
        return False
    d_t2 = 2 * p + 2 * min(q, max(e - f, 0) + u)
    return d_t2 <= 2 * d
