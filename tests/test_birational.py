from fractions import Fraction

import pytest

from pathcrystal.birational import sigma_map, xi_map
from pathcrystal.bkinf import b_infinity
from pathcrystal.errors import ValidationError
from pathcrystal.geom import act_e
from pathcrystal.lattice import TropPoint, XPoint, YPoint, make_shape, sample_point
from pathcrystal.paths import enumerate_paths, partial_sum

S21 = make_shape(2, 1)
S32 = make_shape(3, 2)
X21 = XPoint(S21, {(1, 1): 2, (1, 2): 3})
X32 = XPoint(S32, {(2, 1): 1, (2, 2): 2, (1, 2): 3, (1, 3): 4})


def test_forward_map_smallest_shape():
    y = sigma_map(X21)
    assert y.entries == {(1, 0): Fraction(1, 3), (1, 1): Fraction(2, 3)}


def test_forward_map_worked_example():
    # frozen from brute-forced path sums: X_2^1 = 5/4, X_1^1 = 1/4, X_1^2 = 3/4
    y = sigma_map(X32)
    assert y.entries == {
        (2, 0): Fraction(1, 4),
        (2, 1): Fraction(5, 4),
        (1, 1): Fraction(1, 5),
        (1, 2): Fraction(3, 2),
    }


def test_forward_map_top_row_is_path_sum():
    y = sigma_map(X32)
    for m in range(0, S32.kprime):
        assert y.get(2, m) == partial_sum(X32, "X", 2, m)
    assert y.get(2, 0) == 1 / X32.get(1, 3)


def test_all_ones_point_counts_paths():
    shape = make_shape(5, 3)
    x = XPoint(shape, {key: 1 for key in shape.l1_indices})
    y = sigma_map(x)

    def count(l, m):
        # at the all-ones point every path weighs 1, so sums count paths
        if l > shape.k:
            return 1
        return len(enumerate_paths(shape, 1, (l, m), (1, shape.n)))

    for (l, m) in shape.l2_indices:
        if l + m > shape.k:  # interior columns, where both sums are counts
            assert y.get(l, m) == Fraction(count(l, m), count(l + 1, m))


def test_round_trip_on_worked_examples():
    assert xi_map(sigma_map(X21)) == X21
    assert xi_map(sigma_map(X32)) == X32


def test_round_trips_random(shape):
    for t in range(8):
        x = sample_point(shape, 100 + t, 12, kind="x")
        assert xi_map(sigma_map(x)) == x
        y = sample_point(shape, 200 + t, 12, kind="y")
        assert sigma_map(xi_map(y)) == y


def test_coordinate_factorization(shape):
    # every x coordinate splits as X * Y*(image); dual statement on y
    for t in range(4):
        x = sample_point(shape, 300 + t, 12, kind="x")
        y = sigma_map(x)
        for (l, m) in shape.l1_indices:
            assert x.get(l, m) == partial_sum(x, "X", l, m) * partial_sum(y, "Ystar", l - 1, m)
        yr = sample_point(shape, 400 + t, 12, kind="y")
        xr = xi_map(yr)
        for (l, m) in shape.l2_indices:
            assert yr.get(l, m) == partial_sum(yr, "Ystar", l, m) * partial_sum(xr, "X", l, m)


def test_bi_positivity(shape):
    for t in range(4):
        x = sample_point(shape, 500 + t, 12, kind="x")
        assert all(v > 0 for v in sigma_map(x).entries.values())
        y = sample_point(shape, 600 + t, 12, kind="y")
        assert all(v > 0 for v in xi_map(y).entries.values())


def test_chart_maps_reject_kinds_without_an_image():
    z = TropPoint(S32, {(1, 2): -1, (1, 3): -2, (2, 1): 2, (2, 2): 1})
    for point in (z, b_infinity(S32)):
        for chart_map in (sigma_map, xi_map):
            with pytest.raises(ValidationError):
                chart_map(point)


class _MarkedX(XPoint):
    pass


class _MarkedY(YPoint):
    pass


_MarkedX.chart_image, _MarkedY.chart_image = _MarkedY, _MarkedX


def test_chart_maps_build_the_image_from_the_input_kind():
    # a kind pair outside the library keeps its classes through both maps
    # and the actions on either chart
    x = _MarkedX(S32, X32.entries)
    y = sigma_map(x)
    assert type(y) is _MarkedY
    assert y.entries == sigma_map(X32).entries
    back = xi_map(y)
    assert type(back) is _MarkedX and back == x
    for i in range(S32.n + 1):
        assert type(act_e(x, i, Fraction(2, 3))) is _MarkedX
    for i in range(S32.n):
        assert type(act_e(y, i, Fraction(2, 3))) is _MarkedY
