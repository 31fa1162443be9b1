import json
from fractions import Fraction

import pytest

from conftest import MALFORMED_POINTS
from pathcrystal import (
    BElement,
    TropPoint,
    ValidationError,
    XPoint,
    brute_epsilon,
    epsilon_total,
    make_shape,
    point_from_json,
    point_to_json,
    sample_belement,
    sample_point,
)


def test_smallest_shape_index_sets():
    shape = make_shape(2, 1)
    assert shape.l1_indices == ((1, 1), (1, 2))
    assert shape.l2_indices == ((1, 0), (1, 1))


def test_index_sets_enumerated_by_hand():
    # (3,2): solve 1 <= l <= 2 < l+m <= 4 and 1 <= l <= 2 <= l+m <= 3
    shape = make_shape(3, 2)
    assert set(shape.l1_indices) == {(1, 2), (1, 3), (2, 1), (2, 2)}
    assert set(shape.l2_indices) == {(1, 1), (1, 2), (2, 0), (2, 1)}
    # the array: rows 1..k, columns j..j+k' with k' = n+1-k = 2
    assert shape.b_indices == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (2, 4))


@pytest.mark.parametrize("n,k", [(2, 3), (1, 1), (3, 0), (2, -1), (3, True), (True, 1)])
def test_bad_shapes_rejected(n, k):
    with pytest.raises(ValidationError):
        make_shape(n, k)


def test_cardinality_formula():
    for n in range(2, 9):
        for k in range(1, n + 1):
            shape = make_shape(n, k)
            assert len(shape.l1_indices) == k * (n + 1 - k)
            assert len(shape.l2_indices) == k * (n + 1 - k)


def test_x_get_on_and_off_domain():
    shape = make_shape(2, 1)
    x = XPoint(shape, {(1, 1): 2, (1, 2): 3})
    assert x.get(1, 1) == 2
    assert x.get(2, 0) == 1
    assert x.get(0, 5) == 1


def test_trop_get_off_domain_is_zero():
    shape = make_shape(2, 1)
    x = TropPoint(shape, {(1, 1): 0, (1, 2): 5})
    assert x.get(1, 2) == 5
    assert x.get(2, 1) == 0
    assert x.get(1, 0) == 0


def test_point_validation():
    shape = make_shape(2, 1)
    with pytest.raises(ValidationError):
        XPoint(shape, {(1, 1): 2})  # missing entry
    with pytest.raises(ValidationError):
        XPoint(shape, {(1, 1): 2, (1, 2): 0})  # nonpositive
    with pytest.raises(ValidationError):
        XPoint(shape, {(1, 1): 2, (1, 2): 3, (9, 9): 1})  # extra key
    with pytest.raises(ValidationError):
        TropPoint(shape, {(1, 1): 0, (1, 2): "5"})  # non-integer
    with pytest.raises(ValidationError):
        TropPoint(shape, {(1, 1): 0, (1, 2): True})  # bool is not an integer entry


def test_points_are_frozen():
    # path tables are memoized per point; a mutated entry would make them stale
    x = sample_point(make_shape(4, 2), 3, 16, kind="x")
    assert epsilon_total(x) == brute_epsilon(x)
    with pytest.raises(TypeError):
        x.entries[(2, 1)] = 7
    assert epsilon_total(x) == brute_epsilon(x)
    b = BElement(make_shape(2, 1), {(1, 1): 0, (1, 2): 5, (1, 3): -5})
    with pytest.raises(TypeError):
        b.entries[(1, 1)] = 1
    # the tables above were built for (4,2); no point may be moved to another shape
    with pytest.raises(AttributeError):
        x.shape = make_shape(5, 2)
    assert epsilon_total(x) == brute_epsilon(x)
    pairs = [(sample_point(x.shape, 3, 16, kind=kind), sample_point(x.shape, 3, 16, kind=kind))
             for kind in ("x", "y", "trop")]
    pairs.append((b, BElement(b.shape, dict(b.entries))))
    for p, q in pairs:
        assert p is not q and p == q and hash(p) == hash(q)
        assert len({p, q}) == 1
        with pytest.raises(AttributeError):
            p.shape = make_shape(2, 1)


def test_sampling_is_deterministic(shape):
    a = sample_point(shape, 7, 16, kind="x")
    b = sample_point(shape, 7, 16, kind="x")
    assert a == b
    assert sample_point(shape, 7, 16, kind="trop") == sample_point(shape, 7, 16, kind="trop")
    assert sample_point(shape, 8, 16, kind="x") != a


def test_sampling_positivity_and_bounds(shape):
    x = sample_point(shape, 1, 10, kind="x")
    assert all(v > 0 for v in x.entries.values())
    z = sample_point(shape, 1, 10, kind="trop")
    assert all(-10 <= v <= 10 for v in z.entries.values())


def test_sample_shape_3_2_inspected():
    # frozen from one inspected draw: four entries, numerators and
    # denominators within the bound
    x = sample_point(make_shape(3, 2), 1, 10, kind="x")
    assert len(x.entries) == 4
    for v in x.entries.values():
        # drawn as num/den with both in [1, 10]; reduction only shrinks them
        assert 1 <= v.numerator <= 10
        assert 1 <= v.denominator <= 10


def test_json_round_trip(shape):
    # one codec for every kind; a decoded point equals and hashes like the original
    points = [sample_point(shape, 3, 9, kind=kind) for kind in ("x", "y", "trop")]
    for p in points + [sample_belement(shape, 3, 9)]:
        data = json.loads(json.dumps(point_to_json(p)))
        assert data["kind"] == p.kind
        again = point_from_json(data)
        assert again == p and hash(again) == hash(p)


def test_json_rationals_in_lowest_terms():
    shape = make_shape(2, 1)
    x = XPoint(shape, {(1, 1): Fraction(4, 2), (1, 2): Fraction(9, 3)})
    data = point_to_json(x)
    assert data["entries"] == {"1,1": "2/1", "1,2": "3/1"}


def test_json_schema_violations():
    with pytest.raises(ValidationError):
        point_from_json({"n": 2, "k": 1, "kind": "nope", "entries": {}})
    with pytest.raises(ValidationError):
        point_from_json({"n": 2, "k": 1, "kind": "x", "entries": {"bad": "1/1"}})
    with pytest.raises(ValidationError):
        point_from_json({"n": 2, "k": 1, "kind": "trop", "entries": {"1,1": "5", "1,2": 0}})
    for data in MALFORMED_POINTS:
        with pytest.raises(ValidationError):
            point_from_json(data)
