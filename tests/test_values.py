"""The package's six value classes compare, hash, print and replace as the
dataclasses they were: five frozen, ``CoverageReport`` mutable.  Their fields
are ``__match_args__``, in order."""

import json
from fractions import Fraction as F

import pytest

from oracles import replace
from simplexcover import cli
from simplexcover.cover import CoverElement, CoverSpec, ExplicitCover, build_cover, iter_cover
from simplexcover.locate import WitnessResult, witness
from simplexcover.simplex import KuhnSimplex
from simplexcover.verifier import CoverageReport

X = (F(1, 2), F(1, 3))
ORIGIN_BASE_A = (
    "CoverElement(kind='base_a', v=(0, 0), perm=(1, 2), anchor=(Fraction(0, 1), Fraction(0, 1)))"
)

# each class: a maker of equal values, its repr, a change that gives an
# unequal value, and whether it is frozen
VALUES = {
    CoverElement: (
        lambda: CoverElement("top", (0, 0), (1, 2), (F(5, 4), F(5, 4))),
        "CoverElement(kind='top', v=(0, 0), perm=(1, 2), anchor=(Fraction(5, 4), Fraction(5, 4)))",
        {"perm": (2, 1)},
        True,
    ),
    CoverSpec: (lambda: CoverSpec(5, 4), "CoverSpec(d=5, n=4)", {"n": 5}, True),
    ExplicitCover: (
        lambda: ExplicitCover(2, 1, iter_cover(2, 1)),
        f"ExplicitCover(d=2, n=1, elements=({ORIGIN_BASE_A}, "
        "CoverElement(kind='base_a', v=(1, 0), perm=(1, 2), anchor=(Fraction(2, 3), Fraction(0, 1))), "
        "CoverElement(kind='base_b', v=(1, 0), perm=(2, 1), anchor=(Fraction(1, 1), Fraction(1, 3)))))",
        {"n": 2},
        True,
    ),
    KuhnSimplex: (
        lambda: KuhnSimplex((F(1, 2), F(0)), (2, 1)),
        "KuhnSimplex(anchor=(Fraction(1, 2), Fraction(0, 1)), perm=(2, 1))",
        {"perm": (1, 2)},
        True,
    ),
    WitnessResult: (
        lambda: witness(X, 2, 1, build_cover(2, 1)),
        f"WitnessResult(element={ORIGIN_BASE_A}, route='base_a', "
        "x=(Fraction(1, 2), Fraction(1, 3)), delta=Fraction(1, 3), fallback_reason=None)",
        {"fallback_reason": "missing"},
        True,
    ),
    CoverageReport: (
        lambda: CoverageReport(3, 2, {"top": 2}, ((F(1), F(0)),), 7),
        "CoverageReport(total=3, covered=2, routes={'top': 2}, "
        "failures=((Fraction(1, 1), Fraction(0, 1)),), elapsed_ms=7, "
        "sliver_violations=(), fallback_reasons={})",
        {"elapsed_ms": 0},
        False,
    ),
}
CLASSES = list(VALUES)
TOP = VALUES[CoverElement][0]()
FROZEN = [cls for cls in CLASSES if VALUES[cls][3]]


def fields(value):
    return tuple(getattr(value, name) for name in type(value).__match_args__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_only_to_a_value_of_its_own_class(cls):
    make, _, change, _ = VALUES[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != replace(a, **change) and replace(a, **change) != a
    assert a != fields(a) and a.__eq__(fields(a)) is NotImplemented
    other = VALUES[CLASSES[CLASSES.index(cls) - 1]][0]()
    assert a != other and a.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_value_hashes_its_fields(cls):
    a, b = VALUES[cls][0](), VALUES[cls][0]()
    assert hash(a) == hash(b) == hash(fields(a))
    assert {a: 1}[b] == 1


def test_a_report_has_no_hash():
    with pytest.raises(TypeError):
        hash(VALUES[CoverageReport][0]())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_repr_shows_each_field_in_order(cls):
    make, text, _, _ = VALUES[cls]
    assert repr(make()) == text


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_a_frozen_value_refuses_assignment(cls):
    a = VALUES[cls][0]()
    before = fields(a)
    for name in (*cls.__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, cls.__match_args__[0])
    assert fields(a) == before


def test_a_report_takes_assignment():
    report = VALUES[CoverageReport][0]()
    report.elapsed_ms = 0
    assert report == replace(VALUES[CoverageReport][0](), elapsed_ms=0)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_replace_changes_only_the_fields_named(cls):
    make, _, change, _ = VALUES[cls]
    a = make()
    assert replace(a) == a and replace(a) is not a
    changed = replace(a, **change)
    for name, value in zip(cls.__match_args__, fields(changed)):
        assert value == change.get(name, getattr(a, name))
    with pytest.raises(TypeError):
        replace(a, no_such_field=1)


def test_a_canonical_cover_replaces_no_elements():
    with pytest.raises(TypeError):
        replace(build_cover(2, 2), elements=build_cover(2, 2).elements)


@pytest.mark.parametrize(
    "cls,change",
    [
        (CoverElement, {"kind": "x"}),
        (CoverSpec, {"n": 0}),
        (CoverSpec, {"d": 1}),
        (ExplicitCover, {"d": 3}),
        (KuhnSimplex, {"perm": (1, 1)}),
    ],
    ids=lambda x: getattr(x, "__name__", str(x)),
)
def test_replace_checks_the_new_value(cls, change):
    with pytest.raises(ValueError):
        replace(VALUES[cls][0](), **change)


def test_each_report_has_its_own_fallback_reasons():
    one, two = VALUES[CoverageReport][0](), VALUES[CoverageReport][0]()
    assert one.fallback_reasons == two.fallback_reasons == {}
    one.fallback_reasons["missing"] = 1
    assert two.fallback_reasons == {} and one != two


def test_a_read_residual_leaves_a_witness_equal():
    read, unread = VALUES[WitnessResult][0](), VALUES[WitnessResult][0]()
    assert read.w == (F(1, 2), F(1, 3))
    assert "w" in read.__dict__ and "w" not in unread.__dict__
    assert read == unread and hash(read) == hash(unread) and repr(read) == repr(unread)


def _canonical_elements():
    return list(build_cover(2, 2).elements)


def _streamed():
    return list(iter_cover(2, 2))


def _member():
    return [build_cover(2, 2).member(("base_b", (1, 0), (2, 1)))]


def _parsed():
    record = {"kind": "top", "v": [0, 0], "pi": [2, 1], "anchor": ["5/4", "5/4"]}
    return [cli.parse_cover_record(json.dumps(record))]


def _replaced():
    return [replace(TOP, perm=(2, 1))]


@pytest.mark.parametrize("make", [_canonical_elements, _streamed, _member, _parsed, _replaced])
def test_every_way_of_making_an_element_runs_its_check(monkeypatch, make):
    # count_made and the benchmark's element count rely on this: an element
    # made without its __post_init__ would go uncounted
    made = []
    monkeypatch.setattr(CoverElement, "__post_init__", lambda el: made.append(el))
    elements = make()
    assert elements and all(type(el) is CoverElement for el in elements)
    assert len(made) == len(elements) and all(a is b for a, b in zip(made, elements))
