import pytest

from pathcrystal import (
    BElement,
    CTuple,
    ValidationError,
    all_ctuples,
    b_infinity,
    bk_e,
    bk_e_closed,
    delta,
    eps_phi,
    eps_phi_0,
    extremal_c,
    kashiwara,
    make_shape,
    point_from_json,
    point_to_json,
    weyl_s_tilde,
    zero_ops,
)
from pathcrystal import CartanA1n
from pathcrystal.bkinf import crystal_graph_dot, sample_belement, wt
from math import comb

S21 = make_shape(2, 1)
B21 = BElement(S21, {(1, 1): 0, (1, 2): 5, (1, 3): -5})


def test_element_validation():
    with pytest.raises(ValidationError):
        BElement(S21, {(1, 1): 1, (1, 2): 0, (1, 3): 0})  # row sum nonzero
    with pytest.raises(ValidationError):
        BElement(S21, {(1, 1): 0, (1, 2): 0})  # missing entry
    with pytest.raises(ValidationError):
        BElement(S21, {(1, 1): True, (1, 2): False, (1, 3): -1})  # bools are not integers
    assert B21.get(0, 1) == 0  # out-of-range reads are zero
    assert B21.get(1, 4) == 0


def test_eps_phi_example():
    eps, phi = eps_phi(B21, 1)
    assert eps == 5
    assert phi == 0


def test_zero_element_has_zero_data():
    b0 = b_infinity(S21)
    for i in (1, 2):
        assert eps_phi(b0, i) == (0, 0)
    assert eps_phi_0(b0) == (0, 0)


def test_weight_is_phi_minus_eps(shape):
    for t in range(5):
        b = sample_belement(shape, 20 + t, 8)
        for i in range(1, shape.n + 1):
            eps, phi = eps_phi(b, i)
            assert wt(b, i) == phi - eps
        eps0, phi0 = eps_phi_0(b)
        assert wt(b, 0) == phi0 - eps0 == -b.get(1, 1) + b.get(shape.k, shape.n + 1)


def test_kashiwara_example():
    up = kashiwara(B21, "e", 1)
    assert up.entries == {(1, 1): 1, (1, 2): 4, (1, 3): -5}
    assert kashiwara(up, "f", 1) == B21


def test_kashiwara_inverse_and_axioms(shape):
    cart = CartanA1n(shape.n)
    for t in range(5):
        b = sample_belement(shape, 30 + t, 8)
        for i in range(1, shape.n + 1):
            up = kashiwara(b, "e", i)
            assert kashiwara(up, "f", i) == b
            eps, phi = eps_phi(b, i)
            eps_up, phi_up = eps_phi(up, i)
            assert eps_up == eps - 1
            assert phi_up == phi + 1
            for j in range(1, shape.n + 1):
                assert wt(up, j) == wt(b, j) + cart.a(i, j)


def test_row_sums_preserved_by_all_operators(shape):
    b = sample_belement(shape, 44, 8)
    results = [kashiwara(b, "e", 1), zero_ops(b, "e"), zero_ops(b, "f")]
    results += [weyl_s_tilde(b, i) for i in range(shape.n + 1)]
    for out in results:
        for j in range(1, shape.k + 1):
            assert sum(out.get(j, i) for i in range(j, j + shape.kprime + 1)) == 0


def test_delta_examples():
    assert delta(B21, CTuple(S21, (1, 3))) == 5
    assert delta(b_infinity(S21), CTuple(S21, (1, 3))) == 0


def test_ctuple_family():
    assert [c.values for c in all_ctuples(S21)] == [(1, 3)]
    s32 = make_shape(3, 2)
    assert [c.values for c in all_ctuples(s32)] == [(1, 2, 4), (1, 3, 4)]
    for n, k in [(4, 2), (5, 3), (6, 3)]:
        assert len(all_ctuples(make_shape(n, k))) == comb(n - 1, k - 1)


def test_ctuple_validation():
    with pytest.raises(ValidationError):
        CTuple(S21, (2, 3))
    with pytest.raises(ValidationError):
        CTuple(S21, (1, 2))
    with pytest.raises(ValidationError):
        CTuple(make_shape(3, 2), (1, 1, 4))


def test_extremal_singleton_family():
    ce = extremal_c(B21, "e")
    cf = extremal_c(B21, "f")
    assert ce.values == cf.values == (1, 3)


def test_extremal_at_zero_element():
    s32 = make_shape(3, 2)
    b0 = b_infinity(s32)
    assert extremal_c(b0, "e").values == (1, 2, 4)  # coordinatewise minimum
    assert extremal_c(b0, "f").values == (1, 3, 4)


def test_extremal_brute_example():
    # frozen via exhaustive delta over the two tuples of shape (3,2)
    s32 = make_shape(3, 2)
    b = BElement(s32, {(1, 1): 1, (1, 2): 0, (1, 3): -1,
                       (2, 2): 0, (2, 3): 2, (2, 4): -2})
    vals = {c.values: delta(b, c) for c in all_ctuples(s32)}
    assert vals == {(1, 2, 4): 2, (1, 3, 4): 0}
    assert extremal_c(b, "e").values == (1, 3, 4)


def test_extremal_properties_random(shape):
    for t in range(20):
        b = sample_belement(shape, 50 + t, 9)
        ce = extremal_c(b, "e")
        cf = extremal_c(b, "f")
        assert delta(b, ce) == delta(b, cf) == min(delta(b, c) for c in all_ctuples(shape))


def test_zero_op_examples():
    assert eps_phi_0(B21)[0] == 0
    assert zero_ops(B21, "e").entries == {(1, 1): -1, (1, 2): 5, (1, 3): -4}
    other = BElement(S21, {(1, 1): 5, (1, 2): -5, (1, 3): 0})
    assert eps_phi_0(other)[0] == 5
    assert zero_ops(zero_ops(B21, "e"), "f") == B21


def test_zero_inverse_random(shape):
    for t in range(5):
        b = sample_belement(shape, 60 + t, 8)
        assert zero_ops(zero_ops(b, "e"), "f") == b
        assert zero_ops(zero_ops(b, "f"), "e") == b
        eps0, _ = eps_phi_0(b)
        assert eps_phi_0(zero_ops(b, "e"))[0] == eps0 - 1


def test_closed_step_equals_iteration(shape):
    for t in range(5):
        b = sample_belement(shape, 70 + t, 8)
        for i in range(shape.n + 1):
            for d in range(-3, 4):
                assert bk_e_closed(b, i, d) == bk_e(b, i, d)


def test_closed_reflection_equals_iteration_200_elements(shape):
    for t in range(200):
        b = sample_belement(shape, 7000 + t, 8)
        for i in range(shape.n + 1):
            assert weyl_s_tilde(b, i) == bk_e(b, i, -wt(b, i))


def test_weyl_example():
    assert wt(B21, 1) == -5
    assert weyl_s_tilde(B21, 1).entries == {(1, 1): 5, (1, 2): 0, (1, 3): -5}
    assert weyl_s_tilde(B21, 1) == bk_e(B21, 1, 5)


def test_weyl_fixes_zero_element(shape):
    b0 = b_infinity(shape)
    for i in range(shape.n + 1):
        assert weyl_s_tilde(b0, i) == b0


def test_weyl_involution_and_braid(shape):
    cart = CartanA1n(shape.n)
    b = sample_belement(shape, 80, 8)
    for i in range(shape.n + 1):
        assert weyl_s_tilde(weyl_s_tilde(b, i), i) == b
        for j in range(i + 1, shape.n + 1):
            if cart.a(i, j) == 0:
                assert weyl_s_tilde(weyl_s_tilde(b, i), j) == weyl_s_tilde(
                    weyl_s_tilde(b, j), i
                )
            else:
                lhs = weyl_s_tilde(weyl_s_tilde(weyl_s_tilde(b, i), j), i)
                rhs = weyl_s_tilde(weyl_s_tilde(weyl_s_tilde(b, j), i), j)
                assert lhs == rhs


def test_json_round_trip(shape):
    b = sample_belement(shape, 90, 8)
    assert point_from_json(point_to_json(b)) == b
    with pytest.raises(ValidationError):
        point_from_json({"n": shape.n, "k": shape.k, "kind": "x", "entries": {}})


def test_graph_export_structure():
    dot = crystal_graph_dot(b_infinity(S21), 1)
    assert dot.startswith("digraph crystal {")
    assert dot.rstrip().endswith("}")
    assert '"0,0,0"' in dot
    # arrows out of and into the center, labeled by indices 0..n
    assert '[label="0"]' in dot and '[label="1"]' in dot and '[label="2"]' in dot
    lines = [l for l in dot.splitlines() if "->" in l]
    assert len(lines) == 6  # lowering arrows touching the center, both directions
    zero_radius = crystal_graph_dot(b_infinity(S21), 0)
    assert "->" not in zero_radius
