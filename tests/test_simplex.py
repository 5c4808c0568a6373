import random
from fractions import Fraction
from math import factorial

import pytest

from oracles import gram_squared_length, strictly_contains, unit_volume
from simplexcover.simplex import KuhnSimplex, barycentric, contains, contains_oracle, vertices

F = Fraction


def unit(anchor, perm):
    return KuhnSimplex(anchor=tuple(F(a) for a in anchor), perm=perm)


def test_vertices_are_anchor_plus_path_sums():
    s = unit((0, 0), (1, 2))
    assert vertices(s) == (
        (F(0), F(0)),
        (F(1), F(0)),
        (F(1), F(1)),
    )
    t = unit((2, 1), (2, 1))
    assert vertices(t) == (
        (F(2), F(1)),
        (F(2), F(2)),
        (F(3), F(2)),
    )


def test_invalid_perm_rejected():
    with pytest.raises(ValueError):
        KuhnSimplex(anchor=(F(0), F(0)), perm=(1, 1))
    with pytest.raises(ValueError):
        KuhnSimplex(anchor=(F(0), F(0)), perm=(1,))


def test_contains_chain_examples():
    s = unit((0, 0), (1, 2))
    assert contains(s, (F(1, 2), F(1, 4)))
    assert contains(s, (F(1), F(1)))  # vertex
    assert contains(s, (F(1, 2), F(1, 2)))  # on the diagonal face
    assert not contains(s, (F(1, 4), F(1, 2)))  # wrong order
    assert not contains(s, (F(3, 2), F(1, 2)))  # above 1
    assert not contains(s, (F(1, 2), F(-1, 4)))


def test_contains_strict_excludes_boundary():
    s = unit((0, 0), (1, 2))
    assert not strictly_contains(s, (F(1, 2), F(1, 2)))
    assert not strictly_contains(s, (F(0), F(0)))
    assert strictly_contains(s, (F(1, 2), F(1, 4)))


def test_barycentric_on_vertices_and_centroid():
    s = unit((3, 1, 0), (2, 3, 1))
    verts = vertices(s)
    for i, vtx in enumerate(verts):
        lam = barycentric(s, vtx)
        expected = tuple(F(int(k == i)) for k in range(len(verts)))
        assert lam == expected
    centroid = tuple(
        sum(vtx[k] for vtx in verts) / len(verts) for k in range(s.dim)
    )
    assert barycentric(s, centroid) == tuple([F(1, len(verts))] * len(verts))


def test_barycentric_sums_to_one_off_simplex():
    s = unit((0, 0), (2, 1))
    lam = barycentric(s, (F(5), F(-3)))
    assert sum(lam) == 1
    assert any(c < 0 for c in lam)


def random_rational_point(rng, d, span):
    return tuple(F(rng.randint(-span, span), rng.randint(1, 64)) for _ in range(d))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_contains_matches_oracle(d):
    rng = random.Random(1201 + d)
    perms = [tuple(rng.sample(range(1, d + 1), d)) for _ in range(3)]
    for perm in perms:
        anchor = tuple(F(rng.randint(-2, 2)) for _ in range(d))
        s = KuhnSimplex(anchor=anchor, perm=perm)
        agree = 0
        for _ in range(400):
            x = random_rational_point(rng, d, 3)
            assert contains(s, x) == contains_oracle(s, x)
            agree += 1
        assert agree == 400


def test_unit_volume():
    assert unit_volume(2) == F(1, 2)
    assert unit_volume(5) == F(1, factorial(5))
    with pytest.raises(ValueError):
        unit_volume(1)


def test_gram_lengths_model_equilateral_unit_triangle():
    # Edge vectors of any unit Kuhn triangle: e1, e2, e1+e2.
    assert gram_squared_length((F(1), F(0))) == 1
    assert gram_squared_length((F(0), F(1))) == 1
    assert gram_squared_length((F(1), F(1))) == 1


def test_gram_scales_quadratically():
    assert gram_squared_length((F(3, 2), F(3, 2))) == F(9, 4)
    with pytest.raises(ValueError):
        gram_squared_length((F(1), F(1), F(1)))
