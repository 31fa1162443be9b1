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
from pathcrystal import fundrep
from pathcrystal.fundrep import (
    highest_u1,
    highest_u2,
    unit_vector,
)
from pathcrystal.birational import sigma_map
from pathcrystal.bkinf import b_infinity
from pathcrystal.suites import run_suite

S21 = make_shape(2, 1)
S32 = make_shape(3, 2)
X21 = XPoint(S21, {(1, 1): 2, (1, 2): 3})


def unit(shape, key):
    return unit_vector(shape, key)


def test_basis_dimension(shape):
    assert len(basis_keys(shape)) == comb(shape.n + 1, shape.k)


def test_lowering_chain_smallest_shape():
    v = unit(S21, (1,))
    assert apply_gen(S21, v, "f", 1) == {(2,): 1}
    assert apply_gen(S21, unit(S21, (2,)), "f", 2) == {(3,): 1}
    assert apply_gen(S21, unit(S21, (3,)), "f", 0) == {(1,): 1}


def test_zero_index_rules():
    v = unit(S32, (2, 4))
    assert apply_gen(S32, v, "f", 0) == {(1, 2): 1}
    assert not apply_gen(S32, v, "e", 0)  # needs 1 in the key
    w = unit(S32, (1, 3))
    assert apply_gen(S32, w, "e", 0) == {(3, 4): 1}
    assert not apply_gen(S32, w, "f", 0)


def test_lowering_pass_key_classes():
    # u1 = 12 is lowered at m = 2, 3, 1, 2 with c = 2, 3, 5, 7.  The first
    # three passes give {12: 2, 13: 15, 14: 5, 23: 3, 24: 1}.  In the last
    # (m = 2, c = 7) f_2 moves 12 and 24, which keep c*a while 13 and 34
    # gain a; e_2 moves 13, which keeps a/c; 14 and 23 keep a.
    x = XPoint(S32, {(1, 2): 2, (1, 3): 3, (2, 1): 5, (2, 2): 7})
    assert chart_vector(x) == {
        (1, 2): 7 * 2,
        (1, 3): Fraction(15, 7) + 2,
        (1, 4): 5,
        (2, 3): 3,
        (2, 4): 7 * 1,
        (3, 4): 1,
    }


@pytest.mark.parametrize("gen", ["alpha", "g", None])
def test_apply_gen_rejects_unknown_generators(gen):
    with pytest.raises(ValidationError, match="unknown generator"):
        apply_gen(S21, unit(S21, (1,)), gen, 1)


def test_operator_nilpotence(shape):
    for i in range(shape.n + 1):
        for key in basis_keys(shape):
            v = unit(shape, key)
            for gen in ("e", "f"):
                assert not apply_gen(shape, apply_gen(shape, v, gen, i), gen, i)


def test_highest_weight_annihilation(shape):
    u1 = unit(shape, highest_u1(shape))
    u2 = unit(shape, highest_u2(shape))
    for i in range(1, shape.n + 1):
        assert not apply_gen(shape, u1, "e", i)
    assert apply_gen(shape, u1, "e", 0)
    for i in range(0, shape.n):
        assert not apply_gen(shape, u2, "e", i)
    assert apply_gen(shape, u2, "e", shape.n)


def test_v1_worked_example():
    v = chart_vector(X21)
    assert v == {(1,): 2, (2,): 3, (3,): 1}


def test_v2_worked_example():
    y = sigma_map(X21)
    v = chart_vector(y)
    assert v == {(1,): y.get(1, 1), (2,): 1, (3,): y.get(1, 0)}


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
    assert all(c > 0 for c in v.values())
    assert v[highest_u1(shape)] > 0
    y = sample_point(shape, 12, 9, kind="y")
    w = chart_vector(y)
    assert all(c > 0 for c in w.values())


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


def test_unit_vector_validation():
    assert unit_vector(S32, [1, 3]) == {(1, 3): 1}
    with pytest.raises(ValidationError):
        unit_vector(S21, (0,))
    with pytest.raises(ValidationError):
        unit_vector(S32, (2, 2))
    with pytest.raises(ValidationError):
        unit_vector(S32, (1, 2, 3))
    for key in ((1.5, 3), (True, 3), ("1", 3)):
        with pytest.raises(ValidationError, match="integer entries"):
            unit_vector(S32, key)


def test_broken_key_rule_fails_a_relation(monkeypatch):
    # a rule that steps by two builds keys outside 1..n+1: a failed relation, not bad input
    def two_steps(shape, i):
        low = i or shape.n + 1
        return low, low % (shape.n + 1) + 2

    monkeypatch.setattr(fundrep, "_cycle_step", two_steps)
    failed = {c.name for c in run_suite("fundrep", S32, 1, 0) if not c.ok}
    assert "annihilation-u2" in failed
    failed = {c.name for c in run_suite("conjecture", make_shape(4, 2), 1, 0) if not c.ok}
    assert failed == {"chart-proportional"}
