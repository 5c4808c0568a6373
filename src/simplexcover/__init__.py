"""Exact covers of right d-simplices by unit right simplices.

Construction, deterministic point-location witnesses, exact-rational
verification campaigns, and d=2 SVG figures.
"""

from .arith import (
    ParseError,
    Permutation,
    Point,
    Rational,
    point_format,
    point_parse,
    rat_floor,
    rat_format,
    rat_parse,
)
from .cover import CoverElement, CoverSpec, build_cover, cover_count, delta, iter_cover
from .simplex import (
    KuhnSimplex,
    contains,
    contains_oracle,
    gram_squared_length,
    unit_volume,
    vertices,
)
from .triangulation import (
    enumerate_base_slab,
    enumerate_cube_triangulation,
    enumerate_simplex_triangulation,
    is_admissible,
)
from .verifier import (
    CoverageReport,
    PartitionReport,
    boundary_suite,
    bruteforce_containing,
    coverage_report,
    lattice_samples,
    partition_check,
    random_samples,
)
from .witness import (
    UncoveredPointError,
    WitnessResult,
    in_domain,
    witness,
)

__all__ = [
    "CoverElement",
    "CoverSpec",
    "CoverageReport",
    "KuhnSimplex",
    "ParseError",
    "PartitionReport",
    "Permutation",
    "Point",
    "Rational",
    "UncoveredPointError",
    "WitnessResult",
    "boundary_suite",
    "bruteforce_containing",
    "build_cover",
    "contains",
    "contains_oracle",
    "cover_count",
    "coverage_report",
    "delta",
    "enumerate_base_slab",
    "enumerate_cube_triangulation",
    "enumerate_simplex_triangulation",
    "gram_squared_length",
    "in_domain",
    "is_admissible",
    "iter_cover",
    "lattice_samples",
    "partition_check",
    "point_format",
    "point_parse",
    "random_samples",
    "rat_floor",
    "rat_format",
    "rat_parse",
    "unit_volume",
    "vertices",
    "witness",
]

__version__ = "0.1.0"
