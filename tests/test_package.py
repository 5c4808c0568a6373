import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import simplexcover
from simplexcover.cover import CoverSpec

PUBLIC = {
    "CoverElement",
    "CoverSpec",
    "CoverageReport",
    "ExplicitCover",
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
}

# Test-only oracles (now in tests/oracles.py) and names nothing used.
NOT_SHIPPED = (
    "PartitionReport",
    "partition_check",
    "_generic_candidate",
    "generic_interior_simplex_samples",
    "generic_interior_cube_samples",
    "bruteforce_containing",
    "tie_respecting_perms_filtered",
    "enumerate_cube_triangulation",
    "gram_squared_length",
    "unit_volume",
    "Rational",
    "rat_floor",
    "make_element",
    "strictly_contains",
    "rank_descending",
    "_to_plane",
    "_locate",
)


def test_package_surface():
    assert all(hasattr(simplexcover, name) for name in simplexcover.__all__)
    assert len(simplexcover.__all__) == len(PUBLIC) == 30
    assert set(simplexcover.__all__) == PUBLIC

    modules = [simplexcover] + [
        importlib.import_module(f"simplexcover.{info.name}")
        for info in pkgutil.iter_modules(simplexcover.__path__)
    ]
    for module in modules:
        for name in NOT_SHIPPED:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(CoverSpec, "kind_counts")

    # A fresh interpreter that could import oracles (tests/ is on its path)
    # must not do so when it imports the package and its CLI.
    src = Path(simplexcover.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    probe = "import sys, simplexcover, simplexcover.cli; print('oracles' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(tests)))},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_each_submodule_attribute_is_the_module():
    # a package name that shadows a submodule (a function re-exported under the
    # module's name) makes ``import simplexcover.<name> as m`` bind the wrong object
    for info in pkgutil.iter_modules(simplexcover.__path__):
        module = importlib.import_module(f"simplexcover.{info.name}")
        assert getattr(simplexcover, info.name) is module, info.name
