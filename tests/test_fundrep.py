from fractions import Fraction
from math import comb

import pytest

from pathcrystal import fundrep
from pathcrystal.birational import sigma_map
from pathcrystal.bkinf import b_infinity, delta
from pathcrystal.errors import ValidationError
from pathcrystal.fundrep import (
    DIMENSION_CAP,
    apply_gen,
    basis_keys,
    chart_vector,
    highest_u1,
    highest_u2,
    unit_vector,
)
from pathcrystal.iso import pi_correspondence
from pathcrystal.lattice import XPoint, make_shape, point_to_json, sample_point
from pathcrystal.suites import conjecture_outcomes, run_suite

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
    # binomial(17, 8) = 24310 basis vectors: the basis and the chart vectors share one cap
    big = make_shape(16, 8)
    assert comb(17, 8) > DIMENSION_CAP == 10_000
    message = r"k-subset module limited to dimension at most 10000, got binomial\(17, 8\)"
    with pytest.raises(ValidationError, match=message):
        basis_keys(big)
    with pytest.raises(ValidationError, match=message):
        chart_vector(sample_point(big, 1, 3, kind="x"))
    assert len(basis_keys(make_shape(14, 7))) == comb(15, 7)


def test_chart_vector_checks_the_cap_before_it_builds_a_key(monkeypatch):
    def no_key(*args):
        raise AssertionError("a key was built past the dimension cap")

    for name in ("unit_vector", "apply_gen", "_moved"):
        monkeypatch.setattr(fundrep, name, no_key)
    for kind in ("x", "y"):
        with pytest.raises(ValidationError, match="dimension at most"):
            chart_vector(sample_point(make_shape(16, 8), 1, 3, kind=kind))


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


def test_chart_vectors_are_proportional_at_the_smallest_shape():
    v1, v2 = chart_vector(X21), chart_vector(sigma_map(X21))
    assert v1.keys() == v2.keys()
    assert {key: v2[key] / v1[key] for key in v1} == dict.fromkeys(v1, Fraction(1, 3))


def test_conjecture_outcomes_give_the_observed_scalar_at_k1():
    for n in (2, 3, 4):
        shape = make_shape(n, 1)
        for t, outcome in enumerate(conjecture_outcomes(shape, 5, 40, 9)):
            x = sample_point(shape, 40 + t, 9, kind="x")
            assert outcome["point"] == point_to_json(x)
            assert outcome["proportional"] is True
            assert Fraction(outcome["ratio"]) == 1 / x.get(1, shape.n)


def test_conjecture_outcomes_report_without_asserting(shape, monkeypatch):
    # the outcomes only report; the conjecture suite gates the ratio, so a
    # vector of other keys is recorded as not proportional, without a ratio
    (outcome,) = conjecture_outcomes(shape, 1, 77, 9)
    assert set(outcome) == {"point", "proportional", "ratio", "expected_ratio"}
    chart_vector = fundrep.chart_vector
    monkeypatch.setattr(
        fundrep, "chart_vector",
        lambda p: dict(chart_vector(p), extra=1) if p.kind == "y" else chart_vector(p),
    )
    (outcome,) = conjecture_outcomes(shape, 1, 77, 9)
    assert (outcome["proportional"], outcome["ratio"]) == (False, None)


def test_chart_vectors_agree_at_all_ones(shape):
    # the scalar 1/x_(1,n) is 1 there
    x = XPoint(shape, {key: 1 for key in shape.l1_indices})
    assert chart_vector(sigma_map(x)) == chart_vector(x)


def test_unit_vector_takes_any_sequence():
    assert unit_vector(S32, [1, 3]) == {(1, 3): 1}


# (what is wrong, a key at (3, 2), a tuple at (3, 2), the rule's message)
BAD_ENTRIES = [
    ("float", (1.5, 3), (1, 2.5, 4), "must be integers"),
    ("bool", (True, 3), (True, 2, 4), "must be integers"),
    ("string", ("1", 3), (1, "2", 4), "must be integers"),
    ("repeat", (2, 2), (1, 1, 4), "strictly increasing"),
    ("below-range", (0, 3), (0, 2, 4), r"lie in 1\.\.n\+1"),
    ("above-range", (3, 5), (1, 2, 5), r"lie in 1\.\.n\+1"),
    ("wrong-length", (1, 2, 3), (1, 4), "expected"),
]


@pytest.mark.parametrize("key,ctuple,message", [row[1:] for row in BAD_ENTRIES],
                         ids=[row[0] for row in BAD_ENTRIES])
def test_keys_and_tuples_are_checked_by_one_rule(key, ctuple, message):
    with pytest.raises(ValidationError, match=message):
        unit_vector(S32, key)
    with pytest.raises(ValidationError, match=message):
        delta(b_infinity(S32), ctuple)
    with pytest.raises(ValidationError, match=message):
        pi_correspondence(S32, ctuple)


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
