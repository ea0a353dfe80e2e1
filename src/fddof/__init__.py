"""Degrees-of-freedom regions for three-node full-duplex wireless links.

A base station serves an uplink user and a downlink user at the same time
in the same band; the only self-interference countermeasure is spatial
isolation.  This package computes the achievable (d1, d2) region from the
array sizes and the scattering-interval geometry, compares it against
half-duplex time division, and verifies every closed form against a
randomized finite-dimensional operator oracle.
"""

from .intervals import (
    DirectionSet,
    DomainError,
    MalformedIntervalError,
    cos_degrees,
    refine,
)
from .oracle import (
    DimensionBudgetError,
    DiscretizedChannel,
    QuantizationError,
    RankToleranceWarning,
    ZeroForcingResult,
    allocate_basis,
    corrupt_support,
    integer_rescale,
    numerical_rank,
    sample_channel,
    verify_operator_dims,
    zero_forcing_corner,
    zf_case_applies,
)
from .regions import (
    ArrayHalfLengths,
    CornerPoints,
    DegenerateGeometryError,
    DofRegion,
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
from .scenario import (
    Scenario,
    SchemaError,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayHalfLengths",
    "CornerPoints",
    "DegenerateGeometryError",
    "DimensionBudgetError",
    "DirectionSet",
    "DiscretizedChannel",
    "DofRegion",
    "DomainError",
    "MalformedIntervalError",
    "QuantizationError",
    "RankToleranceWarning",
    "RegionRelation",
    "Scenario",
    "ScatteringGeometry",
    "SchemaError",
    "ZeroForcingResult",
    "allocate_basis",
    "cap_corners",
    "corner_points",
    "corrupt_support",
    "cos_degrees",
    "fd_caps",
    "fd_region",
    "genie_expand",
    "hd_region",
    "integer_rescale",
    "is_rectangular",
    "link_products",
    "load_scenario",
    "make_fully_spread",
    "make_symmetric",
    "numerical_rank",
    "parse_scenario",
    "refine",
    "region_relate",
    "sample_channel",
    "verify_operator_dims",
    "zero_forcing_corner",
    "zf_case_applies",
]
