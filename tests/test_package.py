import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import simplexcover
from simplexcover.cover import CoverSpec

# each public name and the module that defines it
PUBLIC = {
    "CoverElement": "cover",
    "CoverSpec": "cover",
    "CoverageReport": "verifier",
    "ExplicitCover": "cover",
    "KuhnSimplex": "simplex",
    "ParseError": "arith",
    "Permutation": "arith",
    "Point": "arith",
    "UncoveredPointError": "locate",
    "WitnessResult": "locate",
    "boundary_suite": "samplers",
    "build_cover": "cover",
    "contains": "simplex",
    "contains_oracle": "simplex",
    "cover_count": "cover",
    "coverage_report": "verifier",
    "delta": "cover",
    "enumerate_base_slab": "triangulation",
    "enumerate_simplex_triangulation": "triangulation",
    "in_domain": "samplers",
    "is_admissible": "triangulation",
    "iter_cover": "cover",
    "lattice_samples": "samplers",
    "point_format": "arith",
    "point_parse": "arith",
    "random_samples": "samplers",
    "rat_format": "arith",
    "rat_parse": "arith",
    "vertices": "simplex",
    "witness": "locate",
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


def fresh_interpreter(code, *paths):
    """Run ``code`` in a fresh interpreter that imports the package from its
    source tree, and ``paths`` after it; returns its stdout."""
    src = Path(simplexcover.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": os.pathsep.join((str(src), *map(str, paths)))},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout


def test_package_surface():
    assert all(hasattr(simplexcover, name) for name in simplexcover.__all__)
    assert len(simplexcover.__all__) == len(PUBLIC) == 30
    assert set(simplexcover.__all__) == set(PUBLIC)

    modules = [simplexcover] + [
        importlib.import_module(f"simplexcover.{info.name}")
        for info in pkgutil.iter_modules(simplexcover.__path__)
    ]
    for module in modules:
        for name in NOT_SHIPPED:
            assert not hasattr(module, name), (module.__name__, name)
    assert not hasattr(CoverSpec, "kind_counts")

    # A fresh interpreter that could import oracles (tests/ is on its path)
    # must not do so when it imports the package and its CLI, every public
    # name and every submodule.
    probe = (
        "import importlib, pkgutil, sys, simplexcover, simplexcover.cli\n"
        "for name in simplexcover.__all__: getattr(simplexcover, name)\n"
        "for info in pkgutil.iter_modules(simplexcover.__path__):\n"
        "    importlib.import_module('simplexcover.' + info.name)\n"
        "print('simplexcover.verifier' in sys.modules, 'oracles' in sys.modules)"
    )
    assert fresh_interpreter(probe, Path(__file__).resolve().parent).split() == ["True", "False"]


def test_each_public_name_is_its_home_modules_object():
    for name, home in PUBLIC.items():
        module = importlib.import_module(f"simplexcover.{home}")
        assert getattr(simplexcover, name) is getattr(module, name), name
        assert name in vars(simplexcover), name  # bound on first use


def test_namespace_lists_and_star_imports_exactly_the_public_names():
    assert set(PUBLIC) <= set(dir(simplexcover))
    namespace = {}
    exec("from simplexcover import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__", *NOT_SHIPPED])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(simplexcover, name)


# printed last by a probe: the package's modules it loaded
LOADED = "; import json, sys; print(json.dumps([m for m in sys.modules if m.startswith('simplexcover')]))"
SETUP = {
    "simplexcover",
    "simplexcover.arith",
    "simplexcover.cover",
    "simplexcover.simplex",
    "simplexcover.triangulation",
}
LOCATE = {"simplexcover.locate"}
CAMPAIGN = {"simplexcover.verifier", "simplexcover.samplers"}
RENDER = {"simplexcover.render"}


def test_build_cover_loads_only_the_construction():
    # the set-up each `count`, `cover` and `render` pays: the cover, and what
    # it is built from; no point location and no campaign
    loaded = fresh_interpreter("import simplexcover; simplexcover.build_cover(5, 10)" + LOADED)
    assert set(json.loads(loaded)) == SETUP


@pytest.mark.parametrize(
    "argv,loads,never",
    [
        (["count", "--d", "5", "--n", "2"], set(), LOCATE | CAMPAIGN | RENDER),
        (["cover", "--d", "3", "--n", "3", "--out", "{out}"], set(), LOCATE | CAMPAIGN | RENDER),
        (["render", "--n", "4", "--out", "{out}"], RENDER, LOCATE | CAMPAIGN),
        (["witness", "--d", "5", "--n", "10", "--point", "7/2,3,2,1,1/3"], LOCATE, CAMPAIGN | RENDER),
        (["verify", "--d", "3", "--n", "2", "--samples", "50"], LOCATE | CAMPAIGN, RENDER),
    ],
    ids=["count", "cover", "render", "witness", "verify"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, loads, never):
    argv = [arg.format(out=tmp_path / "out") for arg in argv]
    code = f"from simplexcover import cli; assert cli.main({argv!r}) == 0" + LOADED
    loaded = set(json.loads(fresh_interpreter(code).splitlines()[-1]))
    assert SETUP | {"simplexcover.cli"} | loads <= loaded
    assert not loaded & never, sorted(loaded & never)


def test_each_submodule_attribute_is_the_module():
    # a package name that shadows a submodule (a function re-exported under the
    # module's name) makes ``import simplexcover.<name> as m`` bind the wrong object
    for info in pkgutil.iter_modules(simplexcover.__path__):
        module = importlib.import_module(f"simplexcover.{info.name}")
        assert getattr(simplexcover, info.name) is module, info.name
