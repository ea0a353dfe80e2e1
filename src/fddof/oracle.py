"""Randomized finite-dimensional oracle for the operator-dimension identities.

Each signal space is identified with coordinates over one orthonormal basis
function per resolvable direction: a refinement atom of width w under an
array of half-length L contributes exactly 2*L*w basis functions, which must
be an integer (apply integer_rescale first if it is not).  Atoms, their
dimensions and their support masks are computed exactly on the geometry's
integer form: every endpoint over one denominator, every length over
another.  The scattering operators become complex matrices whose support
is exactly the product of the receive and transmit scattering intervals.
Their free entries are drawn from a standard complex normal, so every
fully-supported submatrix has maximal rank with probability one.

The zero-forcing corner gives flow 2 the transmit subspace ker(U1^H s12),
where U1 is an orthonormal basis of range(s11).  Its rank threshold is
relative to the spectral norm of s12.

Seeds are drawn and factored as stacks, one SVD per operator per chunk;
each channel is read-only and keeps its slice of the factors, which both
checks read.  Per-geometry facts (each operator's shape and supported rows
and columns, and the link products cached in ``regions``) are computed
once per geometry; a channel's shapes are checked against its plan.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from fractions import Fraction

# numpy is imported inside the functions that touch a matrix, so importing
# this module (and the package, and the CLI) leaves it unloaded until the
# first oracle call
from .intervals import DirectionSet, integer_atoms
from .regions import ScatteringGeometry, _integer_form, link_products

DEFAULT_RANK_TOL = 1e-9

# relative interference leakage the zero-forcing construction must beat
LEAKAGE_TOL = 1e-8

# Largest signal space the oracle will sample, in basis functions.  Each of
# the three channel matrices, and the left singular vectors of s11, is at
# most this square in complex128, so a live channel holds at most
# 4 * 2048**2 * 16 B = 256 MiB; a chunk of seeds drawn together holds more
# (stacks of those and the draws) only within _CHUNK_BYTES, 1 MiB.  That
# bounds the channel, not the process: the SVD of s11 adds LAPACK
# workspace and copies of the same order, and ``verify`` on spaces 1024
# wide peaked at 241 MiB RSS, so about 0.9 GiB at 2048 (extrapolated).  The
# per-geometry plan cache keeps at most 128 plans of 6 read-only index
# arrays of at most this length in int64, plus three shape tuples, so at
# most 128 * 6 * 2048 * 8 B = 12 MiB of arrays.  The plan holds no link
# products: those sit in regions.link_products's own cache, which, like
# the plan's, keeps at most 128 geometries alive.
MAX_SPACE_DIM = 2048
_CHUNK_BYTES = 1 << 20


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


def _rank(svals: np.ndarray, rank_tol: float, scale: float | None = None) -> int:
    """Count the singular values, sorted descending, above ``rank_tol``
    times ``scale``, by default the largest of them.

    Warns when any of them lies within a decade of the threshold: the
    spectral gap should be many orders of magnitude wide here, so a
    near-threshold value means the draw is ill-conditioned and a reseed is
    advisable.  Only the smallest kept and the largest dropped value can
    lie that close if any does.
    """
    import numpy as np

    if svals.size == 0:
        return 0
    threshold = rank_tol * (svals[0] if scale is None else scale)
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


def _svals(matrix: np.ndarray) -> np.ndarray:
    """Singular values of ``matrix``, or of each matrix of a stack,
    descending; none, and no LAPACK call, for empty ones."""
    import numpy as np

    if matrix.size == 0:
        return np.zeros((*matrix.shape[:-2], 0))
    return np.linalg.svd(matrix, compute_uv=False)


def numerical_rank(matrix: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rank_tol relative to the largest,
    warning as ``_rank`` does."""
    return _rank(_svals(matrix), rank_tol)


@dataclass(frozen=True)
class SpaceAllocation:
    """Basis-function counts per refinement atom of one signal space.

    Atom i, left to right, carries dims[i] basis functions; bit j of
    members[i] is set when member j of the space's family covers it.
    """

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
    """``den``, ``k`` and, per signal space t1, t2, r1, r2 of the integer
    form: its label, its array's span 2L over ``scale``, and the
    ``integer_atoms`` of the supports it unites, over ``den``.  An atom
    (lo, hi) then carries span * (hi - lo) / k basis functions."""
    den, scale, sets, (lt1, lr1, lt2, lr2) = _integer_form(g)
    t11, r11, t22, r22, t12, r12 = sets
    return den, den * scale, [
        ("t1", 2 * lt1, *integer_atoms([t11])),
        ("t2", 2 * lt2, *integer_atoms([t22, t12])),
        ("r1", 2 * lr1, *integer_atoms([r11, r12])),
        ("r2", 2 * lr2, *integer_atoms([r22])),
    ]


def _scale(k: int, spaces) -> int:
    scale = 1
    for _, span, bounds, _ in spaces:
        for lo, hi in bounds:
            scale = math.lcm(scale, k // math.gcd(span * (hi - lo), k))
    return scale


def integer_rescale(g: ScatteringGeometry) -> tuple[ScatteringGeometry, int]:
    """Scale all four array lengths so every atom dimension is an integer.

    Dimension caps scale linearly with array length, so results on the
    scaled geometry translate back by dividing by the returned factor, the
    least positive multiplier that makes every atom dimension integral.
    """
    _, k, spaces = _scaled_spaces(g)
    scale = _scale(k, spaces)
    return (g if scale == 1 else g.scaled(scale)), scale


def allocate_basis(g: ScatteringGeometry) -> BasisAllocation:
    """Integer basis allocation per refinement atom for all four spaces.

    The transmit space of each node spans its forward support united with
    its backscatter support; the totals therefore equal 2L times the union
    measure.  Raises QuantizationError naming the first offending atom when
    a dimension is non-integral, together with the smallest integer length
    scale that repairs the whole geometry.
    """
    den, k, spaces = _scaled_spaces(g)
    alloc = {}
    for label, span, bounds, members in spaces:
        dims = []
        for lo, hi in bounds:
            dim, rest = divmod(span * (hi - lo), k)
            if rest:
                raise QuantizationError(
                    label,
                    DirectionSet._from_scaled([(lo, hi)], den),
                    Fraction(span * (hi - lo), k),
                    Fraction(span * sum(b - a for a, b in bounds), k),
                    _scale(k, spaces),
                )
            dims.append(dim)
        alloc[label] = SpaceAllocation(tuple(dims), tuple(members))
    return BasisAllocation(**alloc)


@dataclass(frozen=True)
class DiscretizedChannel:
    """Finite stand-in for the three scattering operators.

    Rows index receive basis functions over the full receive space of the
    corresponding receiver, columns index transmit basis functions over the
    full transmit space; entries outside the operator's scattering support
    are structurally zero.  Deterministic given (geometry, seed), and
    records that geometry; construction refuses matrices whose shapes
    differ from the ones ``_plan`` gives that geometry, and marks the
    matrices read-only so that their factors stay theirs.
    """

    s11: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    geometry: ScatteringGeometry
    # a class attribute, not a field: every channel decides ranks alike
    rank_tol = DEFAULT_RANK_TOL

    def __post_init__(self):
        mats = (self.s11, self.s12, self.s22)
        for mat, (shape, _, _) in zip(mats, _plan(self.geometry)):
            if mat.shape != shape:
                raise ValueError("matrix shapes differ from the space totals")
        for mat in mats:
            mat.flags.writeable = False

    @cached_property
    def _factors(self) -> tuple[np.ndarray, ...]:
        """``_factor`` on a stack of one, unless ``_sampled`` set it."""
        stacks = _factor(self.s11[None], self.s12[None], self.s22[None])
        return tuple(f[0] for f in stacks)


@lru_cache(maxsize=128)
def _plan(g: ScatteringGeometry):
    """What every channel of ``g`` shares: per operator s11, s12, s22, in
    draw order, its matrix shape and its supported row and column indices
    (as read-only arrays).

    Raises DimensionBudgetError, from the closed-form space totals, and
    then QuantizationError, both before any array is built and on every
    call: ``lru_cache`` stores no exception.
    """
    check_dimension_budget(g)
    a = allocate_basis(g)
    import numpy as np

    plan = []
    # each operator's receive and transmit supports are members of those
    # spaces' families
    for (rows, i), (cols, j) in (
        ((a.r1, 0), (a.t1, 0)),  # s11: r11 x t11
        ((a.r1, 1), (a.t2, 1)),  # s12: r12 x t12
        ((a.r2, 0), (a.t2, 0)),  # s22: r22 x t22
    ):
        support = np.flatnonzero(rows.mask(i)), np.flatnonzero(cols.mask(j))
        for index in support:
            index.flags.writeable = False
        plan.append(((rows.total, cols.total), *support))
    return tuple(plan)


def _chunk_seeds(plan) -> int:
    """Seeds per chunk: as many as keep the stacks of the three matrices, U
    of s11 and each block's draws within _CHUNK_BYTES, and at least one."""
    (rows, cols), _, _ = plan[0]
    entries = rows * min(rows, cols) + sum(
        r * c + rs.size * cs.size for (r, c), rs, cs in plan)
    return max(1, _CHUNK_BYTES // (16 * entries or 1))


def _factor(s11, s12, s22) -> tuple[np.ndarray, ...]:
    """U and singular values of each s11's thin SVD, and those of s12 and
    s22: one LAPACK call per stack, and none for an empty one."""
    import numpy as np

    if s11.size:
        u11, sv11, _ = np.linalg.svd(s11, full_matrices=False)
    else:
        u11, sv11 = np.zeros((*s11.shape[:-1], 0), np.complex128), _svals(s11)
    return u11, sv11, _svals(s12), _svals(s22)


def _sampled(g: ScatteringGeometry, plan, seeds) -> list[DiscretizedChannel]:
    """One chunk of ``seeds``: each seed's generator fills one row of draws,
    the real, then the imaginary part of each supported block, s11's first."""
    import numpy as np

    blocks = [(rows.size, cols.size) for _, rows, cols in plan]
    draws = np.empty((len(seeds), 2 * sum(r * c for r, c in blocks)))
    for i, seed in enumerate(seeds):
        if draws.size:  # no generator when there is nothing to draw
            np.random.default_rng(seed).standard_normal(out=draws[i])
    stacks, at = [], 0
    for (shape, rows, cols), (r, c) in zip(plan, blocks):
        stacks.append(np.zeros((len(seeds), *shape), dtype=np.complex128))
        if r * c:
            parts = draws[:, at:at + 2 * r * c].reshape(-1, 2, r, c)
            stacks[-1][:, rows[:, None], cols] = (
                parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2)
            at += 2 * r * c
    draws = parts = None  # not live while the chunk is factored
    (s11, s12, s22), (u11, sv11, sv12, sv22) = stacks, _factor(*stacks)
    channels = []
    for i in range(len(seeds)):
        channels.append(DiscretizedChannel(s11[i], s12[i], s22[i], g))
        vars(channels[-1])["_factors"] = (u11[i], sv11[i], sv12[i], sv22[i])
    return channels


def _channels(g: ScatteringGeometry, seeds):
    """The channels of ``g`` for ``seeds``, ``_sampled`` a chunk at a time:
    read-only views of the chunk's stacks, with slices of its factors."""
    plan = _plan(g)
    size = _chunk_seeds(plan)
    for start in range(0, len(seeds), size):
        yield from _sampled(g, plan, seeds[start:start + size])


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


def sample_channel(g: ScatteringGeometry, seed: int) -> DiscretizedChannel:
    """Draw and factor the three block-supported matrices for an integral
    geometry: ``_sampled`` on one seed, so a seed reproduces them bit for
    bit.  Before anything is allocated, raises DimensionBudgetError when a
    space exceeds MAX_SPACE_DIM, and otherwise QuantizationError when an
    atom dimension is non-integral.
    """
    return _sampled(g, _plan(g), (seed,))[0]


def corrupt_support(
    ch: DiscretizedChannel, g: ScatteringGeometry
) -> DiscretizedChannel:
    """Negative-control hook: move one matrix's rank off its identity by one.

    A supported block of r rows and c columns has generic rank min(r, c):
    an empty block gets one entry, otherwise one supported column (c <= r)
    or row (c > r) is zeroed.  Raises ValueError when ``ch`` was not
    sampled from ``g``.
    """
    _check_geometry(ch, g)
    plan = dict(zip(("s11", "s12", "s22"), _plan(g)))
    for name in ("s12", "s11", "s22"):
        mat = getattr(ch, name)
        if mat.size == 0:
            continue
        _, rows, cols = plan[name]
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


@dataclass(frozen=True)
class OperatorDimReport:
    checks: tuple[DimCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _as_int(x: int, k: int) -> int:
    """x / k, which must be an integer."""
    if x % k:
        raise ValueError(f"expected integral dimension, got {Fraction(x, k)}")
    return x // k


def verify_operator_dims(
    ch: DiscretizedChannel, g: ScatteringGeometry
) -> OperatorDimReport:
    """Compare the numerical rank of s11, s12 and s22 with the closed forms.

    Rank of each operator is twice the smaller of its two length-weighted
    support widths, an integer equality.  The paper's nullity of s12 and
    codimension of range(s11) are each a fixed shape, checked when the
    channel is built, minus one of these ranks, so they are decided here
    too.  Raises ValueError when ``ch`` was not sampled from ``g``.
    """
    _check_geometry(ch, g)
    k, a, b, c, d, e, f, *_ = link_products(g)
    tol = ch.rank_tol
    _, sv11, sv12, sv22 = ch._factors
    return OperatorDimReport((
        DimCheck("rank(s11)", _as_int(2 * min(a, b), k), _rank(sv11, tol)),
        DimCheck("rank(s12)", _as_int(2 * min(e, f), k), _rank(sv12, tol)),
        DimCheck("rank(s22)", _as_int(2 * min(c, d), k), _rank(sv22, tol)),
    ))


@dataclass(frozen=True)
class ZeroForcingResult:
    """Outcome of the corner-achieving zero-forcing construction."""

    d1: int
    d2: int
    p12_dim: int
    max_leakage: float


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
    receive dimension automatically.  When d1 = 0 there is nothing to
    miss: P is the whole transmit space, d2 = rank(s22), and no SVD runs
    beyond the channel's own factors.

    The leakage figure is measured, not read back from the singular
    values: the largest column norm of U1^H s12 P, relative to the
    spectral norm of s12.  P keeps only directions whose singular value
    was dropped, so ``max_leakage <= rank_tol`` by construction.  Raises
    ValueError when ``ch`` was not sampled from ``g``.
    """
    import numpy as np

    _check_geometry(ch, g)
    tol = ch.rank_tol
    u11, sv11, sv12, sv22 = ch._factors
    d1 = _rank(sv11, tol)
    if not d1:
        # nothing to miss: P is the whole transmit space and s22 P is s22
        return ZeroForcingResult(
            d1=0, d2=_rank(sv22, tol), p12_dim=ch.s12.shape[1],
            max_leakage=0.0,
        )
    # the interference flow 2 deposits on flow 1's receive space
    m = u11[:, :d1].conj().T @ ch.s12
    # relative to s12 itself: m may hold nothing but round-off
    norm12 = sv12.max(initial=0.0)
    _, svm, vmh = np.linalg.svd(m)
    p12 = vmh[_rank(svm, tol, norm12):, :].conj().T
    d2 = _rank(_svals(ch.s22 @ p12), tol)

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
