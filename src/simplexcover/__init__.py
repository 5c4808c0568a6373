"""Exact covers of right d-simplices by unit right simplices.

Construction, deterministic point-location witnesses, exact-rational
verification campaigns, and d=2 SVG figures.
"""

from .arith import (
    ParseError,
    Permutation,
    Point,
    point_format,
    point_parse,
    rat_format,
    rat_parse,
)
from .cover import CoverElement, CoverSpec, build_cover, cover_count, delta, iter_cover
from .samplers import boundary_suite, in_domain, lattice_samples, random_samples
from .simplex import KuhnSimplex, contains, contains_oracle, vertices
from .triangulation import (
    enumerate_base_slab,
    enumerate_simplex_triangulation,
    is_admissible,
)
from .verifier import (
    CoverageReport,
    UncoveredPointError,
    WitnessResult,
    coverage_report,
    witness,
)

__all__ = [
    "CoverElement",
    "CoverSpec",
    "CoverageReport",
    "KuhnSimplex",
    "ParseError",
    "Permutation",
    "Point",
    "UncoveredPointError",
    "WitnessResult",
    "boundary_suite",
    "build_cover",
    "contains",
    "contains_oracle",
    "cover_count",
    "coverage_report",
    "delta",
    "enumerate_base_slab",
    "enumerate_simplex_triangulation",
    "in_domain",
    "is_admissible",
    "iter_cover",
    "lattice_samples",
    "point_format",
    "point_parse",
    "random_samples",
    "rat_format",
    "rat_parse",
    "vertices",
    "witness",
]

__version__ = "0.1.0"
