import json
import re
from fractions import Fraction

import pytest

from conftest import MALFORMED_POINTS
from pathcrystal.bkinf import sample_belement
from pathcrystal.errors import ValidationError
from pathcrystal.lattice import (
    ARRAY_ENTRY_CAP,
    BElement,
    SplitMix64,
    TropPoint,
    XPoint,
    YPoint,
    make_shape,
    parse_rational,
    point_from_json,
    point_to_json,
    sample_point,
)
from pathcrystal.paths import brute_partial_sum, epsilon_total


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


def test_shape_past_the_array_entry_cap_is_rejected():
    # k*(k'+1) array entries: 1 * 100000 at (99999, 1) is the cap itself
    assert len(make_shape(99999, 1).b_indices) == ARRAY_ENTRY_CAP == 100_000
    with pytest.raises(ValidationError, match=r"shape \(100000, 1\) has 100001 array entries"):
        make_shape(100000, 1)
    # about 4*10**8 entries: rejected before any index set is built
    with pytest.raises(ValidationError, match="has 400040000 array entries, more than 100000"):
        make_shape(40000, 20000)


def test_cardinality_formula():
    for n in range(2, 9):
        for k in range(1, n + 1):
            shape = make_shape(n, k)
            assert len(shape.l1_indices) == k * (n + 1 - k)
            assert len(shape.l2_indices) == k * (n + 1 - k)


def test_columns_are_the_index_set_columns():
    # the first lattice's columns are 1..n, the second's 0..n-1
    for n in range(2, 9):
        for k in range(1, n + 1):
            shape = make_shape(n, k)
            for side, first in ((1, 1), (2, 0)):
                domain = shape.domain(side)
                assert {m for _, m in domain} == set(range(first, first + n))
                for i in range(first, first + n):
                    a, b = shape.column(side, i)
                    assert sorted(l for l, m in domain if m == i) == list(range(a, b + 1))


@pytest.mark.parametrize(
    "side,bad,allowed", [(1, (-1, 0, 4, 99), "1..n"), (2, (-1, 3, 4, 99), "0..n-1")]
)
def test_column_rejects_an_index_outside_its_lattice(side, bad, allowed):
    shape = make_shape(3, 2)
    for i in bad:
        message = "index i must be in %s, got %d" % (allowed, i)
        with pytest.raises(ValidationError, match=re.escape(message) + "$"):
            shape.column(side, i)


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


@pytest.mark.parametrize("cls", [XPoint, YPoint])
def test_rational_kinds_own_their_values(cls):
    shape = make_shape(2, 1)
    low, high = shape.indices(cls.side)
    for bad in (True, False, 0.5, 2.0):
        with pytest.raises(ValidationError):
            cls(shape, {low: bad, high: 1})
    with pytest.raises(ValidationError, match=re.escape("entry at %r must be positive, got -1/2" % (high,))):
        cls(shape, {low: 1, high: "-1/2"})
    # a Fraction, an int or "p/q", read exactly
    point = cls(shape, {low: "3/6", high: 2})
    assert point.entries == {low: Fraction(1, 2), high: Fraction(2)}
    assert all(type(v) is Fraction for v in point.entries.values())


# (kind, fill, key, bad entry, message) on shape (3, 2): the bad entry fails the
# one-pass check, so the entries go through the per-entry path
ONE_PASS_REJECTIONS = [
    (TropPoint, 1, (2, 1), True, "trop entry at (2, 1) must be an integer"),
    (BElement, 0, (1, 3), True, "b entry at (1, 3) must be an integer"),
    (TropPoint, 1, (1, 2), 1.0, "trop entry at (1, 2) must be an integer"),
    (XPoint, Fraction(1), (1, 3), 0.5,
     "entry at (1, 3): bad rational 0.5: expected an integer or 'p/q'"),
    (XPoint, Fraction(1), (1, 3), Fraction(0), "entry at (1, 3) must be positive, got 0"),
    (XPoint, Fraction(1), (2, 2), Fraction(-1, 3), "entry at (2, 2) must be positive, got -1/3"),
]


@pytest.mark.parametrize("cls, fill, key, bad, message", ONE_PASS_REJECTIONS)
def test_one_pass_check_rejects_with_the_per_entry_message(cls, fill, key, bad, message):
    shape = make_shape(3, 2)
    entries = dict.fromkeys(shape.indices(cls.side), fill)
    valid = cls(shape, entries)
    with pytest.raises(ValidationError) as per_entry:
        valid.value(bad, key)
    entries[key] = bad
    with pytest.raises(ValidationError) as built:
        cls(shape, entries)
    assert str(built.value) == str(per_entry.value) == message


def test_one_pass_check_accepts_what_the_per_entry_path_converts():
    shape = make_shape(3, 2)
    raw = {(1, 2): "6/4", (1, 3): 2, (2, 1): Fraction(1, 3), (2, 2): "5"}
    x = XPoint(shape, raw)
    assert x.entries == {key: x.value(v, key) for key, v in raw.items()}
    assert x.entries == {(1, 2): Fraction(3, 2), (1, 3): Fraction(2),
                         (2, 1): Fraction(1, 3), (2, 2): Fraction(5)}
    assert all(type(v) is Fraction for v in x.entries.values())
    assert XPoint(shape, x.entries) == x
    t = TropPoint(shape, {(1, 2): -3, (1, 3): 0, (2, 1): 10 ** 30, (2, 2): 7})
    assert all(type(v) is int for v in t.entries.values())


@pytest.mark.parametrize("bad_rows, message", [
    ({(2, 3): 1, (2, 4): 1}, "row 2 sums to 2, expected 0"),
    ({(1, 1): 1, (2, 3): -1}, "row 1 sums to 1, expected 0"),
])
def test_array_row_sum_names_the_first_bad_row(bad_rows, message):
    shape = make_shape(3, 2)
    entries = dict.fromkeys(shape.b_indices, 0)
    assert BElement(shape, entries).entries == entries
    entries.update(bad_rows)
    with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
        BElement(shape, entries)


def test_parse_rational_reads_only_integers_and_p_over_q():
    assert parse_rational(7) == Fraction(7)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert parse_rational("+5") == Fraction(5)
    for bad in ("1_000/3", " 3 / 4 ", " 3/4", "1.5", "1/-2", "", "/3", "\u0663", 0.5, 2.0, True, None):
        with pytest.raises(ValidationError, match="bad rational"):
            parse_rational(bad)
    for bad in ("1/0", "1" * 5000):
        with pytest.raises(ValidationError, match="bad rational"):
            parse_rational(bad)


@pytest.mark.parametrize("cls", [XPoint, YPoint])
def test_rational_rejection_names_the_entry(cls):
    shape = make_shape(2, 1)
    low, high = shape.indices(cls.side)
    with pytest.raises(ValidationError, match=re.escape("entry at %r: bad rational 0.5" % (high,))):
        cls(shape, {low: 1, high: 0.5})
    with pytest.raises(ValidationError, match=re.escape("entry at %r: bad rational '1_000/3'" % (low,))):
        cls(shape, {low: "1_000/3", high: 1})


def test_points_are_frozen():
    # path tables are memoized per point; a mutated entry would make them stale
    x = sample_point(make_shape(4, 2), 3, 16, kind="x")
    assert epsilon_total(x) == brute_partial_sum(x, "X", x.shape.k, 1)
    with pytest.raises(TypeError):
        x.entries[(2, 1)] = 7
    assert epsilon_total(x) == brute_partial_sum(x, "X", x.shape.k, 1)
    b = BElement(make_shape(2, 1), {(1, 1): 0, (1, 2): 5, (1, 3): -5})
    with pytest.raises(TypeError):
        b.entries[(1, 1)] = 1
    # the tables above were built for (4,2); no point may be moved to another shape
    with pytest.raises(AttributeError):
        x.shape = make_shape(5, 2)
    assert epsilon_total(x) == brute_partial_sum(x, "X", x.shape.k, 1)
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


def test_randint_rejects_a_range_wider_than_one_draw():
    # one 64-bit draw covers at most 2**64 values; rejection sampling on a wider span never ends
    for lo, hi in [(0, 2**64), (-(10**20), 10**20)]:
        with pytest.raises(ValidationError, match=r"wider than 2\*\*64"):
            SplitMix64(1).randint(lo, hi)
    # the widest range accepted keeps its stream: the draw itself, shifted by lo
    assert SplitMix64(1).randint(-(2**63), 2**63 - 1) == SplitMix64(1).next64() - 2**63


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


@pytest.mark.parametrize("entries", [
    {"1,1": "2/1", "01,2": "3/1"},             # one entry under a second spelling
    {"1,1": "2/1", "1,2": "3/1", "01,2": "5/1"},
    {"1,1": "2/1", " 1,2": "3/1"},
    {"1,1": "2/1", "1,+2": "3/1"},
    {"1,1": "2/1", "1_0,2": "3/1"},
    {"1,1": "2/1", "1,2,": "3/1"},
])
def test_json_reads_only_canonical_entry_keys(entries):
    with pytest.raises(ValidationError):
        point_from_json({"n": 2, "k": 1, "kind": "x", "entries": entries})


def _refuse_shape(n, k):
    raise AssertionError("a wrong entry count must be rejected before the shape is built")


@pytest.mark.parametrize("kind,size", [("x", 4), ("y", 4), ("trop", 4), ("b", 6)])
def test_json_entry_count_is_checked_before_the_shape_is_built(monkeypatch, kind, size):
    # k*k' entries on the lattices and k*(k'+1) in the array: 4 and 6 at (3, 2)
    shape = make_shape(3, 2)
    point = sample_belement(shape, 1, 3) if kind == "b" else sample_point(shape, 1, 3, kind=kind)
    data = point_to_json(point)
    assert len(data["entries"]) == size
    del data["entries"][min(data["entries"])]
    monkeypatch.setattr("pathcrystal.lattice.make_shape", _refuse_shape)
    with pytest.raises(ValidationError, match="has %d entries, got %d" % (size, size - 1)):
        point_from_json(data)
    # about 62.5 billion index pairs at (500000, 250000), never built
    huge = 250000 * (250001 + (kind == "b"))
    with pytest.raises(ValidationError, match="has %d entries, got 0" % huge):
        point_from_json({"n": 500000, "k": 250000, "kind": kind, "entries": {}})


def test_mismatched_entries_name_a_few_keys_and_their_counts():
    shape = make_shape(40, 20)
    with pytest.raises(ValidationError) as info:
        XPoint(shape, {(0, m): 1 for m in range(420)})
    message = str(info.value)
    assert "420 missing, first [(1, 20), (1, 21), (1, 22), (1, 23)]" in message
    assert "420 extra, first [(0, 0), (0, 1), (0, 2), (0, 3)]" in message
    assert len(message) < 200
