from fractions import Fraction
from math import comb

import pytest

from pathcrystal import (
    ValidationError,
    XPoint,
    apply_gen,
    basis_keys,
    chart_vector,
    make_shape,
    proportionality_probe,
    sample_point,
)
from pathcrystal.fundrep import (
    FundVector,
    highest_u1,
    highest_u2,
    unit_vector,
)
from pathcrystal.birational import sigma_map
from pathcrystal.bkinf import b_infinity

S21 = make_shape(2, 1)
X21 = XPoint(S21, {(1, 1): 2, (1, 2): 3})


def unit(shape, key):
    return unit_vector(shape, key)


def test_basis_dimension(shape):
    assert len(basis_keys(shape)) == comb(shape.n + 1, shape.k)


def test_lowering_chain_smallest_shape():
    v = unit(S21, (1,))
    assert apply_gen(v, "f", 1).coeffs == {(2,): 1}
    assert apply_gen(unit(S21, (2,)), "f", 2).coeffs == {(3,): 1}
    assert apply_gen(unit(S21, (3,)), "f", 0).coeffs == {(1,): 1}


def test_zero_index_rules():
    shape = make_shape(3, 2)
    v = unit(shape, (2, 4))
    assert apply_gen(v, "f", 0).coeffs == {(1, 2): 1}
    assert apply_gen(v, "e", 0).is_zero()  # needs 1 in the key
    w = unit(shape, (1, 3))
    assert apply_gen(w, "e", 0).coeffs == {(3, 4): 1}
    assert apply_gen(w, "f", 0).is_zero()


def test_torus_weights():
    assert apply_gen(unit(S21, (1,)), "alpha", 1, c=Fraction(5)).coeffs == {(1,): 5}
    assert apply_gen(unit(S21, (2,)), "alpha", 1, c=Fraction(5)).coeffs == {(2,): Fraction(1, 5)}
    assert apply_gen(unit(S21, (3,)), "alpha", 1, c=Fraction(5)).coeffs == {(3,): 1}
    with pytest.raises(ValidationError):
        apply_gen(unit(S21, (1,)), "alpha", 1)


def test_operator_nilpotence(shape):
    for i in range(shape.n + 1):
        for key in basis_keys(shape):
            v = unit(shape, key)
            for gen in ("e", "f"):
                assert apply_gen(apply_gen(v, gen, i), gen, i).is_zero()


def test_highest_weight_annihilation(shape):
    u1 = unit(shape, highest_u1(shape))
    u2 = unit(shape, highest_u2(shape))
    for i in range(1, shape.n + 1):
        assert apply_gen(u1, "e", i).is_zero()
    assert not apply_gen(u1, "e", 0).is_zero()
    for i in range(0, shape.n):
        assert apply_gen(u2, "e", i).is_zero()
    assert not apply_gen(u2, "e", shape.n).is_zero()


def test_v1_worked_example():
    v = chart_vector(X21)
    assert v.coeffs == {(1,): 2, (2,): 3, (3,): 1}


def test_v2_worked_example():
    y = sigma_map(X21)
    v = chart_vector(y)
    assert v.coeffs == {(1,): y.get(1, 1), (2,): 1, (3,): y.get(1, 0)}


def test_dimension_cap():
    # binomial(17, 8) = 24310 basis vectors: the suite and the probe share one cap
    big = make_shape(16, 8)
    with pytest.raises(ValidationError):
        basis_keys(big)
    with pytest.raises(ValidationError, match="probe limited to dimension at most 10000"):
        proportionality_probe(sample_point(big, 1, 3, kind="x"))
    assert len(basis_keys(make_shape(14, 7))) == comb(15, 7)


def test_chart_vector_rejects_integer_kinds():
    for point in (sample_point(S21, 1, 3, kind="trop"), b_infinity(S21)):
        with pytest.raises(ValidationError):
            chart_vector(point)


def test_vector_coefficients_positive(shape):
    x = sample_point(shape, 11, 9, kind="x")
    v = chart_vector(x)
    assert all(c > 0 for c in v.coeffs.values())
    assert v.coeffs[highest_u1(shape)] > 0
    y = sample_point(shape, 12, 9, kind="y")
    w = chart_vector(y)
    assert all(c > 0 for c in w.coeffs.values())


def test_probe_smallest_shape():
    result = proportionality_probe(X21)
    assert result["proportional"] is True
    assert result["ratio"] == Fraction(1, 3)


def test_probe_observed_scalar_at_k1():
    for n in (2, 3, 4):
        shape = make_shape(n, 1)
        for t in range(5):
            x = sample_point(shape, 40 + t, 9, kind="x")
            result = proportionality_probe(x)
            assert result["proportional"] is True
            assert result["ratio"] == 1 / x.get(1, shape.n)


def test_probe_reports_without_asserting(shape):
    # the probe only reports; the conjecture suite gates the ratio
    x = sample_point(shape, 77, 9, kind="x")
    result = proportionality_probe(x)
    assert set(result) == {"proportional", "ratio"}


def test_probe_all_ones_smoke(shape):
    x = XPoint(shape, {key: 1 for key in shape.l1_indices})
    result = proportionality_probe(x)
    if result["proportional"]:
        assert result["ratio"] > 0


def test_vector_validation():
    with pytest.raises(ValidationError):
        FundVector(S21, {(0,): 1})
    with pytest.raises(ValidationError):
        FundVector(make_shape(3, 2), {(2, 2): 1})
