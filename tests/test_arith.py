import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import rank_descending
from simplexcover.arith import (
    ParseError,
    is_permutation,
    point_format,
    point_parse,
    rat_format,
    rat_parse,
)


def test_rat_parse_examples():
    assert rat_parse("1/4") == Fraction(1, 4)
    assert rat_parse("2/4") == Fraction(1, 2)
    assert rat_format(rat_parse("9/4")) == "9/4"
    assert rat_parse("-1/2") == Fraction(-1, 2)
    assert rat_parse("3") == Fraction(3)


# The interpreter's limit on int() digits (0 or absent: no limit).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize(
    "bad",
    [
        "", "1.5", "1/0", "a/b", "1/ 2", "+3", "1/-2", "--1", "\u0661/\u0662", "\u0663",
        pytest.param(
            "1" * (DIGIT_LIMIT + 1),
            id="over-digit-limit",
            marks=pytest.mark.skipif(not DIGIT_LIMIT, reason="no int() digit limit"),
        ),
    ],
)
def test_rat_parse_rejects(bad):
    with pytest.raises(ParseError):
        rat_parse(bad)


@given(st.fractions(), st.fractions())
def test_exact_addition_roundtrip(a, b):
    assert (a + b) - b == a


@given(st.fractions())
def test_rat_format_parse_roundtrip(r):
    assert rat_parse(rat_format(r)) == r


def test_point_parse_examples():
    assert point_parse("9/4,1/2", 2) == (Fraction(9, 4), Fraction(1, 2))
    assert point_parse("1,1,1", 3) == (Fraction(1), Fraction(1), Fraction(1))
    with pytest.raises(ParseError):
        point_parse("1/2", 2)


@given(st.lists(st.fractions(), min_size=1, max_size=6))
def test_point_roundtrip(coords):
    p = tuple(coords)
    assert point_parse(point_format(p), len(p)) == p


def test_perm_helpers():
    assert is_permutation((2, 3, 1), 3)
    assert not is_permutation((2, 3, 1), 4)
    assert not is_permutation((7, 7, 7), 3)


def test_rank_descending_breaks_ties_by_index():
    w = [Fraction(1, 2), Fraction(3, 4), Fraction(1, 2)]
    assert rank_descending(w) == (2, 1, 3)
    assert rank_descending([Fraction(0)] * 4 ) == (1, 2, 3, 4)
    # the integer witness sorts numerators over a common denominator
    assert rank_descending([2, 3, 2]) == (2, 1, 3)
    assert rank_descending([0] * 4) == (1, 2, 3, 4)


@given(
    st.one_of(
        st.lists(st.fractions(max_denominator=20), min_size=1, max_size=7),
        st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=7),
        st.lists(st.integers(0, 3), min_size=1, max_size=7),
    )
)
def test_rank_descending_sorts(values):
    perm = rank_descending(values)
    ordered = [values[j - 1] for j in perm]
    assert ordered == sorted(values, reverse=True)
    for a, b in zip(perm, perm[1:]):
        if values[a - 1] == values[b - 1]:
            assert a < b


def _rank_descending_negated(values):
    """The earlier definition: a stable ascending sort on the negated values."""
    return tuple(sorted(range(1, len(values) + 1), key=lambda j: -values[j - 1]))


@given(
    st.one_of(
        st.lists(st.integers(0, 2), min_size=1, max_size=9),
        st.lists(st.integers(-1, 1).map(lambda k: k * 10**30), min_size=1, max_size=9),
        st.lists(
            st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(2, 6), Fraction(-1, 2)]),
            min_size=1,
            max_size=9,
        ),
    )
)
def test_rank_descending_matches_the_negated_sort(values):
    # heavily tied vectors: a reverse sort must keep ties in ascending index order
    assert rank_descending(values) == _rank_descending_negated(values)
