from fractions import Fraction

import pytest

from pathcrystal.birational import sigma_map, xi_map
from pathcrystal.errors import ValidationError
from pathcrystal.geom import act_e, dval, epsilon, gamma, weyl_s, weyl_s_def
from pathcrystal.lattice import (
    SplitMix64,
    TropPoint,
    XPoint,
    make_shape,
    sample_point,
    sample_rational,
)
from pathcrystal.paths import region_sums
from pathcrystal.reporting import all_ok
from pathcrystal.suites import run_suite

S21 = make_shape(2, 1)
S32 = make_shape(3, 2)
X21 = XPoint(S21, {(1, 1): 2, (1, 2): 3})
X32 = XPoint(S32, {(2, 1): 1, (2, 2): 2, (1, 2): 3, (1, 3): 4})


def test_cartan_matrix():
    cart = make_shape(4, 2).cartan
    assert cart(2, 2) == 2
    assert cart(0, 1) == cart(1, 0) == -1
    assert cart(0, 4) == -1  # wrap-around adjacency
    assert cart(1, 3) == 0
    small = make_shape(2, 1).cartan
    assert all(small(i, j) == -1 for i in range(3) for j in range(3) if i != j)
    # affine type: symmetric, and every row sums to zero, at every k
    for n in range(2, 9):
        for k in range(1, n + 1):
            cart = make_shape(n, k).cartan
            index_set = range(n + 1)
            assert all(cart(i, j) == cart(j, i) for i in index_set for j in index_set)
            assert all(sum(cart(i, j) for j in index_set) == 0 for i in index_set)


def test_dval_examples():
    assert dval(X21, 1, 1) == Fraction(2, 3)
    assert dval(X32, 2, 1) == Fraction(1, 2)
    with pytest.raises(ValidationError):
        dval(X32, 1, 1)  # row below the moved range


def test_dval_consecutive_ratio_identity(shape):
    x = sample_point(shape, 21, 9, kind="x")
    for i in range(1, shape.n + 1):
        a, b = shape.column(1, i)
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
    assert xi_map(act_e(sigma_map(X21), 0, 2)) == act_e(X21, 0, 2)


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


def test_action_parameter_is_read_by_the_point_kind():
    z = TropPoint(S32, {(1, 2): -1, (1, 3): -2, (2, 1): 2, (2, 2): 1})
    with pytest.raises(ValidationError, match="the action parameter must be an integer"):
        act_e(z, 1, "3")
    with pytest.raises(ValidationError, match="the action parameter must be an integer"):
        act_e(z, 1, 2.5)
    for bad in (0.1, 2.0, True, " 3 / 4 "):
        with pytest.raises(ValidationError, match="the action parameter: bad rational"):
            act_e(X21, 1, bad)
    assert act_e(X21, 1, "5/1") == act_e(X21, 1, 5) == act_e(X21, 1, Fraction(5))


def test_gamma_scaling_all_pairs(shape):
    x = sample_point(shape, 32, 9, kind="x")
    c = Fraction(7, 3)
    for i in range(shape.n + 1):
        moved = act_e(x, i, c)
        for j in range(shape.n + 1):
            assert gamma(moved, j) == c ** shape.cartan(i, j) * gamma(x, j)


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
        assert act_e(x, 0, c) == xi_map(act_e(sigma_map(x), 0, c))
        y = sigma_map(x)
        assert gamma(x, 0) == gamma(y, 0)
        assert epsilon(x, 0) == epsilon(y, 0)


def test_weyl_examples():
    assert weyl_s(X21, 1).entries == {(1, 1): Fraction(3, 2), (1, 2): Fraction(3)}
    assert weyl_s(X21, 0).entries == {(1, 1): Fraction(1, 3), (1, 2): Fraction(1, 2)}


def test_weyl_closed_form_and_involution(shape):
    for kind, top in (("x", shape.n), ("y", shape.n - 1)):
        for t in range(3):
            x = sample_point(shape, 800 + t, 9, kind=kind)
            for i in range(top + 1):
                assert weyl_s(x, i) == weyl_s_def(x, i)
                assert weyl_s(weyl_s(x, i), i) == x
    with pytest.raises(ValidationError):
        weyl_s(x, shape.n)  # the y-chart has no index n


def test_weyl_braid_and_commutation(shape):
    x = sample_point(shape, 900, 9, kind="x")
    for i in range(shape.n + 1):
        for j in range(i + 1, shape.n + 1):
            if shape.cartan(i, j) == 0:
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


# ---------------------------------------------------------------------------
# the linear-time kernel against the defining sums, transcribed term by term

KERNEL_SHAPES = [(n, k) for n in range(2, 7) for k in range(1, n + 1)] + [(12, 6)]


def _moved_by_sums(x, i, lower, upper):
    """Column i times num_l / den_l, each sum built from scratch for every row l."""
    sr = x.semiring
    a, b = x.shape.column(x.side, i)
    entries = dict(x.entries)
    for l in range(a, b + 1):
        num = sr.add_all([lower[p] for p in range(a, l)] + [upper[p] for p in range(l, b + 1)])
        den = sr.add_all(
            [lower[p] for p in range(a, l + 1)] + [upper[p] for p in range(l + 1, b + 1)]
        )
        entries[(l, i)] = sr.mul(x.get(l, i), sr.ratio(num, den))
    return type(x)(x.shape, entries)


def _inv_dvals_by_definition(x, i):
    sr = x.semiring
    a, b = x.shape.column(x.side, i)
    return {p: sr.inv(dval(x, p, i)) for p in range(a, b + 1)}


def _act_by_definition(x, i, c):
    sr, shape = x.semiring, x.shape
    if x.side == 1 and i == 0:
        def alpha(l, m):
            return sr.add(region_sums(x, l - 1, m)[0], sr.mul(c, region_sums(x, l, m)[1]))

        entries = {
            (l, m): sr.mul(x.get(l, m), sr.ratio(alpha(l, m), alpha(l + 1, m)))
            for (l, m) in shape.l1_indices
        }
        entries[(1, shape.n)] = sr.ratio(x.get(1, shape.n), c)
        return type(x)(shape, entries)
    terms = _inv_dvals_by_definition(x, i)
    return _moved_by_sums(x, i, terms, {p: sr.mul(c, t) for p, t in terms.items()})


def _reflect_by_definition(x, i):
    sr = x.semiring
    g = gamma(x, i)
    if x.side == 1 and i == 0:
        return _act_by_definition(x, 0, sr.inv(g))
    fvals = {p: sr.ratio(g, dval(x, p, i)) for p in _inv_dvals_by_definition(x, i)}
    return _moved_by_sums(x, i, fvals, _inv_dvals_by_definition(x, i))


@pytest.mark.parametrize("nk", KERNEL_SHAPES, ids=lambda nk: "n%dk%d" % nk)
def test_kernel_matches_defining_sums(nk):
    shape = make_shape(*nk)
    rational = [Fraction(2, 3), Fraction(5), Fraction(7, 11)]
    for kind, params in (("x", rational), ("y", rational), ("trop", [-3, 2, 5])):
        pt = sample_point(shape, 40 + shape.n, 9, kind=kind)
        top = shape.n if pt.side == 1 else shape.n - 1
        for i in range(top + 1):
            for c in params:
                assert act_e(pt, i, c) == _act_by_definition(pt, i, c)
            assert weyl_s(pt, i) == _reflect_by_definition(pt, i)
            if pt.side == 2 or i > 0:  # the first chart's epsilon_0 is a path sum
                assert epsilon(pt, i) == pt.semiring.add_all(
                    _inv_dvals_by_definition(pt, i).values()
                )
