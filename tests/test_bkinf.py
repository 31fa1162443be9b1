import json

import pytest

from pathcrystal import bkinf
from pathcrystal.bkinf import (
    all_ctuples,
    b_infinity,
    bk_e,
    bk_e_closed,
    bk_e_steps,
    brute_bk_e_closed,
    crystal_graph_dot,
    delta,
    eps_phi,
    eps_phi_0,
    extremal_c,
    kashiwara,
    sample_belement,
    weyl_s_tilde,
    wt,
)
from pathcrystal.cli import main
from pathcrystal.errors import CrystalFault, ValidationError
from pathcrystal.iso import omega, omega_inv
from pathcrystal.lattice import (
    PATH_CAP,
    BElement,
    make_shape,
    point_from_json,
    point_to_json,
    sample_point,
)
from pathcrystal.suites import DVALS, run_suite
from pathcrystal.tropical import trop_e, trop_eps, trop_weyl
from math import comb

from conftest import SHAPES

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
        for i in range(shape.n + 1):
            eps, phi = eps_phi(b, i)
            assert wt(b, i) == phi - eps
        assert wt(b, 0) == -b.get(1, 1) + b.get(shape.k, shape.n + 1)


def test_kashiwara_example():
    up = kashiwara(B21, "e", 1)
    assert up.entries == {(1, 1): 1, (1, 2): 4, (1, 3): -5}
    assert kashiwara(up, "f", 1) == B21


def test_kashiwara_inverse_and_axioms(shape):
    for t in range(5):
        b = sample_belement(shape, 30 + t, 8)
        for i in range(shape.n + 1):
            up = kashiwara(b, "e", i)
            assert kashiwara(up, "f", i) == b
            eps, phi = eps_phi(b, i)
            eps_up, phi_up = eps_phi(up, i)
            assert eps_up == eps - 1
            assert phi_up == phi + 1
            for j in range(shape.n + 1):
                assert wt(up, j) == wt(b, j) + shape.cartan(i, j)


def test_index_zero_takes_the_zero_operators(shape):
    b = sample_belement(shape, 35, 8)
    assert eps_phi(b, 0) == eps_phi_0(b)


def test_row_sums_preserved_by_all_operators(shape):
    b = sample_belement(shape, 44, 8)
    results = [kashiwara(b, "e", 1), kashiwara(b, "e", 0), kashiwara(b, "f", 0)]
    results += [weyl_s_tilde(b, i) for i in range(shape.n + 1)]
    for out in results:
        for j in range(1, shape.k + 1):
            assert sum(out.get(j, i) for i in range(j, j + shape.kprime + 1)) == 0


@pytest.mark.parametrize("bound", [1, 2, 10])
@pytest.mark.parametrize("nk", SHAPES + [(8, 4)], ids=lambda nk: "n%dk%d" % nk)
def test_derived_points_are_the_points_the_checks_would_build(nk, bound):
    # unit steps, the closed form at i >= 1, trop_e, omega and omega_inv skip the
    # constructor's checks; rebuilding each image through them must give it back
    shape = make_shape(*nk)
    x = sample_point(shape, 45, bound, kind="trop")
    b = sample_belement(shape, 45, bound)
    images = [omega(x), omega_inv(b)]
    for i in range(shape.n + 1):
        images += [kashiwara(a, op, i) for a in (b, images[0]) for op in "ef"]
        images += [trop_e(x, i, d) for d in DVALS]
        if i:
            images += [bk_e_closed(b, i, d) for d in DVALS]
    for out in images:
        checked = type(out)(out.shape, dict(out.entries))
        assert out == checked and hash(out) == hash(checked)


def test_delta_examples():
    assert delta(B21, (1, 3)) == 5
    assert delta(b_infinity(S21), (1, 3)) == 0


def test_ctuple_family():
    assert all_ctuples(S21) == [(1, 3)]
    s32 = make_shape(3, 2)
    assert all_ctuples(s32) == [(1, 2, 4), (1, 3, 4)]
    for n, k in [(4, 2), (5, 3), (6, 3)]:
        assert len(all_ctuples(make_shape(n, k))) == comb(n - 1, k - 1)


def _refuse(*args):
    raise AssertionError("a tuple family past the cap must be rejected before it is built")


def test_ctuple_family_past_the_path_cap_is_rejected_before_it_is_built(monkeypatch):
    # (28, 14) has 224 array entries and binomial(27, 13) = 20,058,300 tuples, one per full path
    shape = make_shape(28, 14)
    assert comb(27, 13) > PATH_CAP
    monkeypatch.setattr(bkinf, "combinations", _refuse)
    b = b_infinity(shape)
    cap = r"shape \(28, 14\) has binomial\(27, 13\) = 20058300 full paths, more than 100000"
    for call in (lambda: all_ctuples(shape), lambda: kashiwara(b, "e", 0),
                 lambda: extremal_c(b, "f")):
        with pytest.raises(ValidationError, match=cap):
            call()
    # the closed 0-operator and the 0-data read the DP, not the family
    assert weyl_s_tilde(b, 0) == b
    assert bk_e_closed(b, 0, 3).get(1, 1) == -3
    assert eps_phi_0(b) == (0, 0)


def test_extremal_singleton_family():
    ce = extremal_c(B21, "e")
    cf = extremal_c(B21, "f")
    assert ce == cf == (1, 3)


def test_extremal_at_zero_element():
    s32 = make_shape(3, 2)
    b0 = b_infinity(s32)
    assert extremal_c(b0, "e") == (1, 2, 4)  # coordinatewise minimum
    assert extremal_c(b0, "f") == (1, 3, 4)


def test_extremal_brute_example():
    # frozen via exhaustive delta over the two tuples of shape (3,2)
    s32 = make_shape(3, 2)
    b = BElement(s32, {(1, 1): 1, (1, 2): 0, (1, 3): -1,
                       (2, 2): 0, (2, 3): 2, (2, 4): -2})
    vals = {c: delta(b, c) for c in all_ctuples(s32)}
    assert vals == {(1, 2, 4): 2, (1, 3, 4): 0}
    assert extremal_c(b, "e") == (1, 3, 4)


def test_extremal_properties_random(shape):
    for t in range(20):
        b = sample_belement(shape, 50 + t, 9)
        ce = extremal_c(b, "e")
        cf = extremal_c(b, "f")
        assert delta(b, ce) == delta(b, cf) == min(delta(b, c) for c in all_ctuples(shape))


def test_zero_op_examples():
    assert eps_phi_0(B21)[0] == 0
    assert kashiwara(B21, "e", 0).entries == {(1, 1): -1, (1, 2): 5, (1, 3): -4}
    other = BElement(S21, {(1, 1): 5, (1, 2): -5, (1, 3): 0})
    assert eps_phi_0(other)[0] == 5
    assert kashiwara(kashiwara(B21, "e", 0), "f", 0) == B21


def test_zero_inverse_random(shape):
    for t in range(5):
        b = sample_belement(shape, 60 + t, 8)
        assert kashiwara(kashiwara(b, "e", 0), "f", 0) == b
        assert kashiwara(kashiwara(b, "f", 0), "e", 0) == b
        eps0, _ = eps_phi_0(b)
        assert eps_phi_0(kashiwara(b, "e", 0))[0] == eps0 - 1


def test_closed_step_equals_iteration(shape):
    for t in range(5):
        b = sample_belement(shape, 70 + t, 8)
        for i in range(shape.n + 1):
            for d in range(-3, 4):
                assert bk_e_closed(b, i, d) == bk_e_steps(b, i, d) == bk_e(b, i, d)


def test_many_fold_step_at_i_ge_1_takes_no_unit_step(monkeypatch):
    # e_i^d moves wt by d times the i-th Cartan row and eps_i by -d, here in O(rows)
    shape = make_shape(16, 8)
    b = sample_belement(shape, 3, 6)

    def no_unit_step(b, op, i):
        raise AssertionError("bk_e took a unit step at i=%d" % i)

    monkeypatch.setattr(bkinf, "kashiwara", no_unit_step)
    for i in range(1, shape.n + 1):
        for d in (10 ** 9, -10 ** 9):
            moved = bk_e(b, i, d)
            assert [wt(moved, j) for j in range(shape.n + 1)] == [
                wt(b, j) + d * shape.cartan(i, j) for j in range(shape.n + 1)
            ]
            assert eps_phi(moved, i)[0] == eps_phi(b, i)[0] - d


def test_array_closed_form_catches_a_closed_form_off_by_one(monkeypatch):
    # the suite walks the unit steps itself: were its left side bk_e, which
    # takes the closed form for |d| > 1, the mutant would agree with itself
    real = bkinf.bk_e_closed
    monkeypatch.setattr(bkinf, "bk_e_closed", lambda b, i, d: real(b, i, d + 1 if i else d))
    shape = make_shape(3, 2)
    by_name = {c.name: c for c in run_suite("weyl", shape, 2, 0)}
    closed = by_name["array-closed-form"]
    assert (closed.passes, closed.fails) == (2, 2 * shape.n)


def test_closed_reflection_equals_iteration_200_elements(shape):
    for t in range(200):
        b = sample_belement(shape, 7000 + t, 8)
        for i in range(shape.n + 1):
            assert weyl_s_tilde(b, i) == bk_e_steps(b, i, -wt(b, i))


# every shape with n <= 6, every k: the DP against the enumerated definition
SMALL_SHAPES = [(n, k) for n in range(2, 7) for k in range(1, n + 1)]
D_RANGE = list(range(-5, 6)) + [10**6, -10**6]


def _delta_by_get(b, c):
    # delta transcribed entry by entry, independent of the row lists
    return sum(
        b.get(j, i) for j in range(1, b.shape.k + 1) for i in range(c[j - 1] + 1, c[j])
    )


@pytest.mark.parametrize("nk", SMALL_SHAPES, ids=lambda nk: "n%dk%d" % nk)
def test_family_deltas_match_entrywise_delta(nk):
    shape = make_shape(*nk)
    for seed in range(3):
        for bound in (1, 4, 12):
            b = sample_belement(shape, 500 + seed, bound)
            expected = {c: _delta_by_get(b, c) for c in all_ctuples(shape)}
            assert bkinf._family_deltas(b) == expected, (seed, bound)


@pytest.mark.parametrize("nk", [(12, 6), (16, 8)], ids=lambda nk: "n%dk%d" % nk)
def test_family_deltas_match_entrywise_delta_wide_rows(nk):
    # 462 and 6,435 tuples, over rows of 14 and 18 columns
    shape = make_shape(*nk)
    b = sample_belement(shape, 510, 12)
    expected = {c: _delta_by_get(b, c) for c in all_ctuples(shape)}
    assert bkinf._family_deltas(b) == expected


def _minimizers_by_get(b):
    values = {c: _delta_by_get(b, c) for c in all_ctuples(b.shape)}
    best = min(values.values())
    return [c for c, v in values.items() if v == best]


def _assert_extremal_is_extreme_of(b, argmin):
    for which, pick in (("e", min), ("f", max)):
        expected = tuple(pick(c[j] for c in argmin) for j in range(b.shape.k + 1))
        assert extremal_c(b, which) == expected, (b, which)


@pytest.mark.parametrize("nk", SMALL_SHAPES, ids=lambda nk: "n%dk%d" % nk)
def test_extremal_is_coordinatewise_extreme_of_minimizers(nk):
    shape = make_shape(*nk)
    for seed in range(3):
        for bound in (1, 4, 12):
            b = sample_belement(shape, 600 + seed, bound)
            _assert_extremal_is_extreme_of(b, _minimizers_by_get(b))


@pytest.mark.parametrize("nk", [(12, 6), (16, 8)], ids=lambda nk: "n%dk%d" % nk)
def test_extremal_is_coordinatewise_extreme_of_minimizers_wide_rows(nk):
    b = sample_belement(make_shape(*nk), 600, 1)
    argmin = _minimizers_by_get(b)
    assert len(argmin) > 1  # ties, so the extreme differs from some minimizer
    _assert_extremal_is_extreme_of(b, argmin)


@pytest.mark.parametrize("nk", SMALL_SHAPES, ids=lambda nk: "n%dk%d" % nk)
def test_closed_zero_operator_matches_enumeration(nk):
    shape = make_shape(*nk)
    for seed in range(3):
        for bound in (1, 4, 12):
            b = sample_belement(shape, 300 + seed, bound)
            for d in D_RANGE:
                assert bk_e_closed(b, 0, d) == brute_bk_e_closed(b, d), (seed, bound, d)


@pytest.mark.parametrize("nk", SMALL_SHAPES, ids=lambda nk: "n%dk%d" % nk)
def test_closed_step_matches_tropical_at_saturating_d(nk):
    # |d| = 10**6 moves every cut of the split-minimum kernel to one side
    shape = make_shape(*nk)
    for seed in range(2):
        for bound in (1, 4, 12):
            b = sample_belement(shape, 800 + seed, bound)
            for i in range(1, shape.n + 1):
                for d in (10**6, -10**6):
                    expected = omega(trop_e(omega_inv(b), i, d))
                    assert bk_e_closed(b, i, d) == expected, (seed, bound, i, d)


def _refuse(*args):
    raise AssertionError("the closed 0-operator must not enumerate tuples")


def test_closed_zero_operator_scans_no_tuples(monkeypatch):
    # binomial(15, 7) = 6,435 tuples at (16,8): the closed form reads the array only
    b = sample_belement(make_shape(16, 8), 5, 10)
    expected = brute_bk_e_closed(b, 3), brute_bk_e_closed(b, -wt(b, 0))
    for name in ("all_ctuples", "delta", "_family_deltas"):
        monkeypatch.setattr(bkinf, name, _refuse)
    assert (bk_e_closed(b, 0, 3), weyl_s_tilde(b, 0)) == expected


@pytest.mark.parametrize("nk", SMALL_SHAPES, ids=lambda nk: "n%dk%d" % nk)
def test_zero_data_match_enumeration_and_weight(nk):
    shape = make_shape(*nk)
    for bound in (1, 4, 12):
        # the suite draws sample_belement(shape, 400 + t, bound) for t in 0..2
        checks = run_suite("extremal", shape, 3, 400, bound)
        assert all(c.ok and c.passes == 3 for c in checks), bound
        for seed in range(3):
            b = sample_belement(shape, 400 + seed, bound)
            eps0, phi0 = eps_phi_0(b)
            assert phi0 - eps0 == wt(b, 0), (seed, bound)


def test_zero_data_scan_no_tuples(monkeypatch):
    b = sample_belement(make_shape(16, 8), 6, 10)
    shape = b.shape
    delta_e, delta_f = delta(b, extremal_c(b, "e")), delta(b, extremal_c(b, "f"))
    expected = -b.get(shape.k, shape.n + 1) - delta_e, -b.get(1, 1) - delta_f
    for name in ("all_ctuples", "delta", "_family_deltas", "extremal_c"):
        monkeypatch.setattr(bkinf, name, _refuse)
    assert eps_phi_0(b) == expected


def test_zero_data_match_tropical_at_16_8():
    z = sample_point(make_shape(16, 8), 12, 10, kind="trop")
    assert trop_eps(z, 0) == eps_phi_0(omega(z))[0]


def test_closed_reflection_matches_tropical_at_16_8():
    z = sample_point(make_shape(16, 8), 11, 10, kind="trop")
    assert weyl_s_tilde(omega(z), 0) == omega(trop_weyl(z, 0))


def _assert_fault_replays(b, candidate, tmp_path, capsys):
    with pytest.raises(CrystalFault) as info:
        extremal_c(b, "e")
    witness = info.value.witness
    assert point_from_json(witness["point"]) == b
    assert tuple(witness["candidate"]) == candidate
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness["point"]))
    argv = ["act", "--side", "bkinf", "--op", "e", "--i", "0", "--d", "1", "--point", str(path)]
    assert main(argv) == 1
    assert "coordinatewise e of the minimizers" in capsys.readouterr().err


def test_extremal_fault_witness_replays(monkeypatch, tmp_path, capsys):
    b = sample_belement(make_shape(5, 3), 9, 5)
    # two incomparable minimizers: their coordinatewise minimum (1, 2, 4, 6) is not one
    minimizers = {(1, 2, 5, 6), (1, 3, 4, 6)}
    monkeypatch.setattr(
        bkinf, "_family_deltas",
        lambda b: {c: 0 if c in minimizers else 1 for c in bkinf.all_ctuples(b.shape)},
    )
    _assert_fault_replays(b, (1, 2, 4, 6), tmp_path, capsys)


def test_extremal_checks_table_against_delta(monkeypatch, tmp_path, capsys):
    b = sample_belement(make_shape(5, 3), 9, 5)
    true_deltas = bkinf._family_deltas
    table = true_deltas(b)
    best = min(table.values())
    lowered = max(table, key=table.get)
    assert table[lowered] > best
    # the true table with one non-minimal tuple lowered below the true minimum
    monkeypatch.setattr(
        bkinf, "_family_deltas", lambda b: {**true_deltas(b), lowered: best - 1}
    )
    _assert_fault_replays(b, lowered, tmp_path, capsys)


def test_weyl_example():
    assert wt(B21, 1) == -5
    assert weyl_s_tilde(B21, 1).entries == {(1, 1): 5, (1, 2): 0, (1, 3): -5}
    assert weyl_s_tilde(B21, 1) == bk_e_steps(B21, 1, 5)


def test_weight_rejects_index_outside_0_to_n():
    b = sample_belement(make_shape(3, 2), 5, 4)
    for i in (-1, 4, 7):
        with pytest.raises(ValidationError, match=r"0\.\.n"):
            wt(b, i)
        with pytest.raises(ValidationError, match=r"0\.\.n"):
            eps_phi(b, i)
        with pytest.raises(ValidationError, match=r"0\.\.n"):
            kashiwara(b, "e", i)


def test_weyl_fixes_zero_element(shape):
    b0 = b_infinity(shape)
    for i in range(shape.n + 1):
        assert weyl_s_tilde(b0, i) == b0


def test_weyl_involution_and_braid(shape):
    b = sample_belement(shape, 80, 8)
    for i in range(shape.n + 1):
        assert weyl_s_tilde(weyl_s_tilde(b, i), i) == b
        for j in range(i + 1, shape.n + 1):
            if shape.cartan(i, j) == 0:
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


@pytest.mark.parametrize("call", [kashiwara, lambda b, op, i: extremal_c(b, op)],
                         ids=["kashiwara", "extremal_c"])
def test_ops_other_than_e_and_f_rejected(call):
    with pytest.raises(ValidationError, match="must be 'e' or 'f', got 's'"):
        call(B21, "s", 0)


def test_graph_rejects_a_negative_radius():
    with pytest.raises(ValidationError, match="radius must be nonnegative"):
        crystal_graph_dot(B21, -1)


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
