from fractions import Fraction

import pytest

from pathcrystal import (
    CartanA1n,
    ValidationError,
    XPoint,
    act_e,
    act_e0_via_sigma,
    dval,
    epsilon,
    gamma,
    make_shape,
    sample_point,
    sigma_map,
    weyl_s,
    weyl_s_def,
)
from pathcrystal.lattice import SplitMix64, sample_rational
from pathcrystal.reporting import all_ok
from pathcrystal.suites import run_suite

S21 = make_shape(2, 1)
S32 = make_shape(3, 2)
X21 = XPoint(S21, {(1, 1): 2, (1, 2): 3})
X32 = XPoint(S32, {(2, 1): 1, (2, 2): 2, (1, 2): 3, (1, 3): 4})


def test_cartan_matrix():
    cart = CartanA1n(4)
    assert cart.a(2, 2) == 2
    assert cart.a(0, 1) == cart.a(1, 0) == -1
    assert cart.a(0, 4) == -1  # wrap-around adjacency
    assert cart.a(1, 3) == 0
    small = CartanA1n(2)
    assert all(small.a(i, j) == -1 for i in range(3) for j in range(3) if i != j)


def test_dval_examples():
    assert dval(X21, 1, 1) == Fraction(2, 3)
    assert dval(X32, 2, 1) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        dval(X32, 1, 1)  # row below the moved range


def test_dval_consecutive_ratio_identity(shape):
    from pathcrystal.geom import bounds_row1

    x = sample_point(shape, 21, 9, kind="x")
    for i in range(1, shape.n + 1):
        a, b = bounds_row1(shape, i)
        for l in range(a, b):
            expect = (
                dval(x, l, i)
                * x.get(l + 1, i - 1)
                * x.get(l, i + 1)
                / (x.get(l, i) * x.get(l + 1, i))
            )
            assert dval(x, l + 1, i) == expect


def test_gamma_examples():
    assert gamma(X21, 1) == Fraction(4, 3)
    assert gamma(X21, 0) == Fraction(1, 6)


def test_epsilon_examples():
    assert epsilon(X21, 1) == Fraction(3, 2)
    assert epsilon(X21, 0) == 2


def test_act_examples():
    assert act_e(X21, 1, 5).entries == {(1, 1): Fraction(10), (1, 2): Fraction(3)}
    assert act_e(X21, 0, 2).entries == {(1, 1): Fraction(1), (1, 2): Fraction(3, 2)}
    assert act_e0_via_sigma(X21, 2) == act_e(X21, 0, 2)


def test_act_identity_and_group_law(shape):
    x = sample_point(shape, 31, 9, kind="x")
    for i in range(shape.n + 1):
        assert act_e(x, i, 1) == x
        assert act_e(act_e(x, i, Fraction(3, 2)), i, Fraction(4, 5)) == act_e(
            x, i, Fraction(6, 5)
        )


def test_act_rejects_nonpositive_parameter():
    with pytest.raises(ValidationError):
        act_e(X21, 1, 0)
    with pytest.raises(ValidationError):
        act_e(X21, 1, Fraction(-2, 3))


def test_gamma_scaling_all_pairs(shape):
    cart = CartanA1n(shape.n)
    x = sample_point(shape, 32, 9, kind="x")
    c = Fraction(7, 3)
    for i in range(shape.n + 1):
        moved = act_e(x, i, c)
        for j in range(shape.n + 1):
            assert gamma(moved, j) == c ** cart.a(i, j) * gamma(x, j)


def test_epsilon_scaling(shape):
    x = sample_point(shape, 33, 9, kind="x")
    c = Fraction(5, 2)
    for i in range(shape.n + 1):
        assert epsilon(act_e(x, i, c), i) == epsilon(x, i) / c


def test_mirror_structure_smallest_shape():
    y = sigma_map(X21)
    assert epsilon(y, 0) == y.get(1, 1) / y.get(1, 0)
    assert act_e(y, 0, 1) == y
    assert gamma(y, 0) == gamma(X21, 0)


def test_intertwining_inner_indices(shape):
    rng = SplitMix64(9)
    for t in range(3):
        x = sample_point(shape, 600 + t, 9, kind="x")
        y = sigma_map(x)
        c = sample_rational(rng, 9, avoid_one=True)
        for i in range(1, shape.n):
            assert sigma_map(act_e(x, i, c)) == act_e(y, i, c)
            assert gamma(x, i) == gamma(y, i)
            assert epsilon(x, i) == epsilon(y, i)


def test_zero_route_equality(shape):
    rng = SplitMix64(10)
    for t in range(3):
        x = sample_point(shape, 700 + t, 9, kind="x")
        c = sample_rational(rng, 9, avoid_one=True)
        assert act_e(x, 0, c) == act_e0_via_sigma(x, c)
        y = sigma_map(x)
        assert gamma(x, 0) == gamma(y, 0)
        assert epsilon(x, 0) == epsilon(y, 0)


def test_weyl_examples():
    assert weyl_s(X21, 1).entries == {(1, 1): Fraction(3, 2), (1, 2): Fraction(3)}
    assert weyl_s(X21, 0).entries == {(1, 1): Fraction(1, 3), (1, 2): Fraction(1, 2)}


def test_weyl_closed_form_and_involution(shape):
    for t in range(3):
        x = sample_point(shape, 800 + t, 9, kind="x")
        for i in range(shape.n + 1):
            assert weyl_s(x, i) == weyl_s_def(x, i)
            assert weyl_s(weyl_s(x, i), i) == x


def test_weyl_braid_and_commutation(shape):
    cart = CartanA1n(shape.n)
    x = sample_point(shape, 900, 9, kind="x")
    for i in range(shape.n + 1):
        for j in range(i + 1, shape.n + 1):
            if cart.a(i, j) == 0:
                assert weyl_s(weyl_s(x, i), j) == weyl_s(weyl_s(x, j), i)
            else:
                lhs = weyl_s(weyl_s(weyl_s(x, i), j), i)
                rhs = weyl_s(weyl_s(weyl_s(x, j), i), j)
                assert lhs == rhs


def test_axiom_suite_passes():
    checks = run_suite("axioms", make_shape(4, 2), 5, 3)
    assert all_ok(checks)
    names = {c.name for c in checks}
    assert "verma" in names and "commutation" in names


def test_axiom_suite_smallest_shape_all_pairs_adjacent():
    checks = {c.name: c for c in run_suite("axioms", make_shape(2, 1), 4, 5)}
    assert checks["verma"].passes > 0
    assert checks["commutation"].passes == 0  # no orthogonal pairs when n = 2
    assert all_ok(checks.values())
