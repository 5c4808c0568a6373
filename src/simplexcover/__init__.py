"""Exact covers of right d-simplices by unit right simplices.

Construction, deterministic point-location witnesses, exact-rational
verification campaigns, and d=2 SVG figures.

Each public name resolves on first use: reading it imports its home module
(PEP 562) and binds the name here.  So ``import simplexcover`` loads no
submodule, ``build_cover`` loads only the construction (``cover`` and the
``arith``, ``simplex`` and ``triangulation`` it builds on), ``witness`` adds
point location (``locate``) alone, and the campaign stack (``verifier``,
``samplers``) is loaded by the first name that needs it.
"""

from importlib import import_module as _import_module

# each public name, by the module that defines it
_HOMES = {
    name: module
    for module, names in {
        "arith": "ParseError Permutation Point point_format point_parse rat_format rat_parse",
        "cover": "CoverElement CoverSpec ExplicitCover build_cover cover_count delta iter_cover",
        "locate": "UncoveredPointError WitnessResult witness",
        "samplers": "boundary_suite in_domain lattice_samples random_samples",
        "simplex": "KuhnSimplex contains contains_oracle vertices",
        "triangulation": "enumerate_base_slab enumerate_simplex_triangulation is_admissible",
        "verifier": "CoverageReport coverage_report",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
