from fractions import Fraction
from math import comb

import pytest

from pathcrystal import paths
from pathcrystal.errors import ValidationError
from pathcrystal.lattice import TropPoint, XPoint, make_shape, sample_point
from pathcrystal.paths import (
    PATH_CAP,
    brute_partial_sum,
    brute_regions,
    enumerate_paths,
    epsilon_total,
    full_path_endpoints,
    partial_sum,
    path_weight,
    region_sums,
)
from pathcrystal.semiring import RATIONAL
from pathcrystal.suites import run_suite

S21 = make_shape(2, 1)
S32 = make_shape(3, 2)
X21 = XPoint(S21, {(1, 1): 2, (1, 2): 3})
X32 = XPoint(S32, {(2, 1): 1, (2, 2): 2, (1, 2): 3, (1, 3): 4})


def test_path_step_validation():
    assert path_weight(X32, ((2, 1), (2, 2), (1, 3))) == Fraction(1, 2)
    assert path_weight(X32, ((2, 1),)) == 1
    with pytest.raises(ValidationError, match="at least one point"):
        path_weight(X32, ())
    # every point is on the lattice, so only the step check can reject these
    x42 = sample_point(make_shape(4, 2), 1, 5)
    x43 = sample_point(make_shape(4, 3), 1, 5)
    bad = [
        (X32, ((2, 1), (1, 3))),  # two columns at once, down a row
        (x42, ((1, 2), (1, 4))),  # two columns at once, along a row
        (x42, ((1, 2), (2, 3))),  # up a row
        (x43, ((3, 2), (1, 3))),  # down two rows
        (X32, ((2, 2), (1, 2))),  # straight up
        (X32, ((2, 2), (2, 2))),  # standing still
        (X32, ((1, 3), (1, 2))),  # a column left
    ]
    for point, path in bad:
        assert set(path) <= point.shape.domain(1)
        with pytest.raises(ValidationError, match="illegal step"):
            path_weight(point, path)


def test_path_weight_rejects_off_lattice_points():
    for path in [((1, 2), (1, 4)), ((2, 1), (2, 0)), ((3, 1),)]:
        with pytest.raises(ValidationError, match="off lattice"):
            path_weight(X32, path)


def test_enumerate_single_edge():
    assert len(enumerate_paths(S21, 1, (1, 1), (1, 2))) == 1


def test_enumerate_two_paths_on_inner_square():
    assert len(enumerate_paths(S32, 1, (2, 1), (1, 3))) == 2


def test_enumerate_full_count_is_binomial():
    shape = make_shape(5, 3)
    src, dst = full_path_endpoints(shape, 1)
    assert len(enumerate_paths(shape, 1, src, dst)) == comb(4, 2) == 6
    for n, k in [(2, 1), (3, 2), (4, 2), (5, 2)]:
        sh = make_shape(n, k)
        src, dst = full_path_endpoints(sh, 1)
        assert len(enumerate_paths(sh, 1, src, dst)) == comb(n - 1, k - 1)


def test_enumerate_takes_list_endpoints():
    expected = enumerate_paths(S32, 1, (2, 1), (1, 3))
    assert len(expected) == 2
    assert enumerate_paths(S32, 1, [2, 1], [1, 3]) == expected
    assert enumerate_paths(S32, 1, (2, 1), [1, 3]) == expected


def test_enumerated_paths_are_every_lattice_path_once():
    # every pair of nodes on both lattices, every shape with n <= 6
    for n in range(2, 7):
        for k in range(1, n + 1):
            sh = make_shape(n, k)
            for side, kind in ((1, "x"), (2, "y")):
                point = sample_point(sh, 3, 7, kind=kind)
                nodes = sh.indices(side)
                for src in nodes:
                    for dst in nodes:
                        paths = enumerate_paths(sh, side, src, dst)
                        drop, advance = src[0] - dst[0], dst[1] - src[1]
                        count = comb(advance, drop) if 0 <= drop <= advance else 0
                        assert len(paths) == count
                        assert all(a < b for a, b in zip(paths, paths[1:]))
                        for p in paths:
                            assert (p[0], p[-1]) == (src, dst)
                            path_weight(point, p)


def test_enumerate_rejects_more_paths_than_the_cap():
    shape = make_shape(21, 10)
    src, dst = full_path_endpoints(shape, 1)
    assert comb(20, 9) > PATH_CAP
    with pytest.raises(ValidationError, match="paths"):
        enumerate_paths(shape, 1, src, dst)


def test_enumerate_unreachable_is_empty():
    assert enumerate_paths(S32, 1, (1, 2), (2, 2)) == []
    assert enumerate_paths(S32, 1, (1, 3), (1, 2)) == []


def test_enumerate_rejects_off_lattice_endpoints():
    for src in [(3, 1), (2.0, 1), (2, True), (2, 1, 0)]:
        with pytest.raises(ValidationError):
            enumerate_paths(S32, 1, src, (1, 3))


def test_path_weight_single_horizontal_strip():
    (p,) = enumerate_paths(S21, 1, (1, 1), (1, 2))
    assert path_weight(X21, p) == Fraction(2, 3)


def test_path_weight_tropical_is_difference():
    t = TropPoint(S21, {(1, 1): 0, (1, 2): 5})
    (p,) = enumerate_paths(S21, 1, (1, 1), (1, 2))
    assert path_weight(t, p) == -5


def test_vertical_only_path_weighs_one():
    (p,) = enumerate_paths(S32, 1, (2, 2), (1, 3))
    assert path_weight(X32, p) == 1


def test_path_weight_side_mismatch():
    y = sample_point(S32, 0, 5, kind="y")
    (p,) = enumerate_paths(S32, 1, (2, 2), (1, 3))
    with pytest.raises(ValidationError):
        path_weight(y, p)


def test_partial_sums_worked_example():
    # brute-forced over the two paths from (2,1): 1/2 + 3/4
    assert partial_sum(X32, "X", 2, 1) == Fraction(5, 4)
    assert partial_sum(X32, "X", 1, 2) == Fraction(3, 4)
    assert partial_sum(X32, "X", 2, 2) == 1


def test_partial_sum_left_column_convention():
    assert partial_sum(X21, "X", 1, 0) == Fraction(1, 3)


def test_partial_sum_row_conventions():
    assert partial_sum(X21, "X", 2, 1) == 1
    assert partial_sum(X21, "X", 0, 2) == 0
    y = sample_point(S32, 4, 7, kind="y")
    assert partial_sum(y, "Ystar", 0, 2) == 1 / y.get(2, 0)
    assert partial_sum(y, "Ystar", 1, 3) == 1  # one column past the right edge
    assert partial_sum(y, "Ystar", 3, 0) == 0


def test_partial_sum_outside_closure_raises():
    with pytest.raises(ValidationError):
        partial_sum(X21, "X", 1, 9)
    with pytest.raises(ValidationError):
        partial_sum(X21, "Q", 1, 1)
    y = sample_point(S21, 0, 5, kind="y")
    with pytest.raises(ValidationError):
        partial_sum(y, "X", 1, 1)


@pytest.mark.parametrize("l, m", [(1.5, 2), ("1", 2), (1.0, 1), (1, 2.0), (True, 1), (1, False)])
def test_engine_coordinates_must_be_integers(l, m):
    # checked before any lookup, also with every table built: (1.0, 1) hashes
    # like (1, 1), and 1.5 is no row
    x, y = (sample_point(S21, 0, 5, kind=kind) for kind in ("x", "y"))
    for node in S21.indices(1):
        region_sums(x, *node)
        partial_sum(x, "X", *node)
    for node in S21.indices(2):
        partial_sum(y, "Y", *node)
    for call in (lambda: region_sums(x, l, m), lambda: partial_sum(x, "X", l, m),
                 lambda: partial_sum(y, "Y", l, m)):
        with pytest.raises(ValidationError, match="coordinates must be integers, got"):
            call()
    for node in S21.indices(2):
        with pytest.raises(ValidationError, match="region_sums needs a side-1 point"):
            region_sums(y, *node)


@pytest.mark.parametrize("kind", ["x", "y"])
def test_each_step_weight_is_one_ratio(monkeypatch, kind):
    # both sweep directions read one step table, so building both sum tables
    # divides once per weighted step
    shape = make_shape(4, 2)
    point = sample_point(shape, 3, 9, kind=kind)
    drop = 0 if kind == "x" else 1  # the row change of a weighted step
    domain = shape.domain(point.side)
    weighted = [(l, m) for (l, m) in domain if (l - drop, m + 1) in domain]
    calls = []
    ratio = RATIONAL.ratio
    monkeypatch.setattr(RATIONAL, "ratio", lambda a, b: calls.append(1) or ratio(a, b))
    first = min(domain)
    for sums in ("X", "Xstar") if kind == "x" else ("Y", "Ystar"):
        partial_sum(point, sums, *first)
    assert len(calls) == len(weighted) > 0


def test_path_weight_reads_no_step_table():
    # the oracle computes its own strip weights: a corrupted step table moves
    # the DP and leaves every path weight as it was
    x = sample_point(S32, 4, 9)
    clean = {p: path_weight(x, p) for p in enumerate_paths(S32, 1, (2, 1), (1, 3))}
    x._tables["steps"] = dict.fromkeys(x.shape.domain(1), Fraction(1))
    assert partial_sum(x, "X", 2, 1) != brute_partial_sum(x, "X", 2, 1)
    assert {p: path_weight(x, p) for p in clean} == clean


def test_epsilon_total_examples():
    assert epsilon_total(X21) == Fraction(2, 3)
    assert epsilon_total(X32) == Fraction(5, 4)
    t = TropPoint(S21, {(1, 1): 0, (1, 2): 5})
    assert epsilon_total(t) == -5


def test_region_sums_worked_example():
    upper, lower, through = region_sums(X21, 1, 1)
    assert (region_sums(X21, 0, 1)[0], lower, through) == (Fraction(2, 3), 0, Fraction(2, 3))
    assert region_sums(X21, 1, 1)[0] == 0
    assert region_sums(X21, 2, 1)[1] == Fraction(2, 3)


def test_region_bottom_is_semiring_specific():
    t = TropPoint(S21, {(1, 1): 0, (1, 2): 5})
    upper, lower, through = region_sums(t, 1, 1)
    assert upper is None and lower is None
    assert through == -5


@pytest.mark.parametrize("kind", ["x", "trop"])
def test_dp_matches_enumeration_side1(shape, kind):
    for t in range(3):
        p = sample_point(shape, 50 + t, 9, kind=kind)
        for (l, m) in shape.l1_indices:
            for sums in ("X", "Xstar"):
                assert partial_sum(p, sums, l, m) == brute_partial_sum(p, sums, l, m)
        # the oracle's table covers rows 0..k+1 and columns 0..n+1
        for (l, m), triple in brute_regions(p).items():
            assert region_sums(p, l, m) == triple
        assert epsilon_total(p) == brute_partial_sum(p, "X", p.shape.k, 1)


def test_region_oracle_enumerates_once(monkeypatch):
    # one enumeration and one weight per full path, however many cells
    shape = make_shape(5, 3)
    p = sample_point(shape, 3, 9)
    calls = {"enumerate_paths": 0, "path_weight": 0}

    def counted(name):
        original = getattr(paths, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(paths, name, counted(name))
    table = brute_regions(p)
    assert calls == {"enumerate_paths": 1, "path_weight": comb(shape.n - 1, shape.k - 1)}
    assert sorted(table) == [(l, m) for l in range(shape.k + 2) for m in range(shape.n + 2)]


def test_regions_relation_catches_swapped_cell(monkeypatch):
    # a DP table with U and V swapped at one cell fails the paths suite there
    build = paths._build_regions

    def swapped(point):
        table = build(point)
        upper, lower, through = table[(1, 1)]
        table[(1, 1)] = lower, upper, through
        return table

    monkeypatch.setattr(paths, "_build_regions", swapped)
    checks = {c.name: c for c in run_suite("paths", S32, 1, 0)}
    assert checks["partial-sums"].ok
    regions = checks["regions"]
    assert (regions.passes, regions.fails) == (22, 2)
    assert [(w["l"], w["m"]) for w in regions.witnesses] == [(1, 1), (1, 1)]


def test_dp_matches_enumeration_side2(shape):
    for t in range(3):
        y = sample_point(shape, 70 + t, 9, kind="y")
        for (l, m) in shape.l2_indices:
            for sums in ("Y", "Ystar"):
                assert partial_sum(y, sums, l, m) == brute_partial_sum(y, sums, l, m)


def test_dp_matches_enumeration_every_small_shape():
    # the full invariant: every shape with n <= 6, both semirings
    for n in range(2, 7):
        for k in range(1, n + 1):
            sh = make_shape(n, k)
            for kind in ("x", "trop"):
                p = sample_point(sh, 5, 7, kind=kind)
                for (l, m) in sh.l1_indices:
                    for sums in ("X", "Xstar"):
                        assert partial_sum(p, sums, l, m) == brute_partial_sum(p, sums, l, m)
                for (l, m), triple in brute_regions(p).items():
                    assert region_sums(p, l, m) == triple
                assert epsilon_total(p) == brute_partial_sum(p, "X", p.shape.k, 1)
            y = sample_point(sh, 6, 7, kind="y")
            for (l, m) in sh.l2_indices:
                for sums in ("Y", "Ystar"):
                    assert partial_sum(y, sums, l, m) == brute_partial_sum(y, sums, l, m)


@pytest.mark.parametrize("kind", ["x", "trop"])
def test_forward_recursions_hold(shape, kind):
    # X_l^m = X_(l-1)^(m+1) + (x_l^(m) / x_l^(m+1)) X_l^(m+1), both semirings
    p = sample_point(shape, 11, 9, kind=kind)
    sr = p.semiring
    for (l, m) in shape.l1_indices:
        if l + m == shape.n + 1:
            continue
        step = sr.ratio(p.get(l, m), p.get(l, m + 1))
        expect = sr.add(
            partial_sum(p, "X", l - 1, m + 1), sr.mul(step, partial_sum(p, "X", l, m + 1))
        )
        assert partial_sum(p, "X", l, m) == expect


@pytest.mark.parametrize("kind", ["x", "trop"])
def test_backward_recursions_hold(shape, kind):
    # X*_l^(m+1) = X*_(l+1)^m + (x_l^(m) / x_l^(m+1)) X*_l^m
    p = sample_point(shape, 12, 9, kind=kind)
    sr = p.semiring
    for (l, m) in shape.l1_indices:
        if (l, m + 1) not in shape.domain(1):
            continue
        step = sr.ratio(p.get(l, m), p.get(l, m + 1))
        expect = sr.add(
            partial_sum(p, "Xstar", l + 1, m), sr.mul(step, partial_sum(p, "Xstar", l, m))
        )
        assert partial_sum(p, "Xstar", l, m + 1) == expect


def test_side2_recursions_hold(shape):
    y = sample_point(shape, 13, 9, kind="y")
    for (l, m) in shape.l2_indices:
        if (l, m + 1) in shape.domain(2):
            expect = partial_sum(y, "Y", l, m + 1)
            if (l - 1, m + 1) in shape.domain(2) or l - 1 < 1:
                expect += (y.get(l - 1, m + 1) / y.get(l, m)) * partial_sum(y, "Y", l - 1, m + 1)
            assert partial_sum(y, "Y", l, m) == expect
        if (l, m - 1) in shape.domain(2):
            expect = partial_sum(y, "Ystar", l, m - 1)
            expect += (y.get(l, m) / y.get(l + 1, m - 1)) * partial_sum(y, "Ystar", l + 1, m - 1)
            assert partial_sum(y, "Ystar", l, m) == expect


@pytest.mark.parametrize("kind", ["x", "trop"])
def test_region_partition_and_product(shape, kind):
    p = sample_point(shape, 14, 9, kind=kind)
    sr = p.semiring
    eps = epsilon_total(p)
    for (l, m) in shape.l1_indices:
        upper, lower, through = region_sums(p, l, m)
        assert sr.add(sr.add(upper, lower), through) == eps
        assert through == sr.mul(
            partial_sum(p, "Xstar", l, m), partial_sum(p, "X", l, m)
        )
        up_next, _, _ = region_sums(p, l - 1, m)
        assert up_next == sr.add(upper, through)
        _, low_next, _ = region_sums(p, l + 1, m)
        assert low_next == sr.add(lower, through)


@pytest.mark.parametrize("kind", ["x", "trop"])
def test_region_difference_identities(shape, kind):
    # the three triangular-decomposition identities relating U, V to X*, X
    p = sample_point(shape, 15, 9, kind=kind)
    sr = p.semiring
    for (l, m) in shape.l1_indices:
        u_here = region_sums(p, l - 1, m)[0]
        u_right = region_sums(p, l - 1, m + 1)[0]
        cross = sr.mul(partial_sum(p, "Xstar", l, m), partial_sum(p, "X", l - 1, m + 1))
        assert u_here == sr.add(u_right, cross)
        if (l + 1, m) in shape.domain(1) and (l + 1, m + 1) in shape.domain(1):
            u1 = region_sums(p, l, m + 1)[0]
            u2 = region_sums(p, l + 1, m)[0]
            step = sr.ratio(p.get(l + 1, m), p.get(l + 1, m + 1))
            cross = sr.mul(
                sr.mul(partial_sum(p, "Xstar", l + 1, m), partial_sum(p, "X", l + 1, m + 1)),
                step,
            )
            assert u1 == sr.add(u2, cross)
        if (l, m + 1) in shape.domain(1):
            v_right = region_sums(p, l + 1, m + 1)[1]
            v_here = region_sums(p, l + 1, m)[1]
            cross = sr.mul(partial_sum(p, "Xstar", l + 1, m), partial_sum(p, "X", l, m + 1))
            assert v_right == sr.add(v_here, cross)
