from fractions import Fraction
from math import comb

import pytest

from pathcrystal import geom
from pathcrystal.errors import CrystalFault, ValidationError
from pathcrystal.lattice import PATH_CAP, SplitMix64, TropPoint, make_shape, sample_point
from pathcrystal.paths import epsilon_total
from pathcrystal.tropical import (
    _dbars,
    degree_of,
    probe_pairs,
    probe_bits,
    probe_point,
    trop_dbar,
    trop_e,
    trop_eps,
    trop_weyl,
    trop_wt,
    ud_degree_probe,
)

S21 = make_shape(2, 1)
T21 = TropPoint(S21, {(1, 1): 0, (1, 2): 5})
S32 = make_shape(3, 2)


def test_weight_examples():
    assert trop_wt(T21, 1) == -5
    assert trop_wt(T21, 0) == -5
    zeros = TropPoint(S21, {key: 0 for key in S21.l1_indices})
    assert all(trop_wt(zeros, i) == 0 for i in range(3))


def test_eps_examples():
    assert trop_eps(T21, 1) == 5
    assert trop_eps(T21, 0) == 0
    t32 = TropPoint(S32, {(2, 1): 4, (2, 2): 7, (1, 2): 1, (1, 3): -2})
    assert trop_eps(t32, 1) == trop_dbar(t32, 2, 1) == 7 - 4
    zeros = TropPoint(S32, {key: 0 for key in S32.l1_indices})
    assert all(trop_eps(zeros, i) == 0 for i in range(4))


def test_step_examples():
    assert trop_e(T21, 1, 1).entries == {(1, 1): 1, (1, 2): 5}
    assert trop_e(T21, 0, 1).entries == {(1, 1): -1, (1, 2): 4}
    assert trop_e(T21, 1, 0) == T21


def test_step_group_law(shape):
    x = sample_point(shape, 5, 10, kind="trop")
    for i in range(shape.n + 1):
        assert trop_e(trop_e(x, i, 2), i, -5) == trop_e(x, i, -3)
        assert trop_e(x, i, 0) == x


def test_step_scaling_laws(shape):
    x = sample_point(shape, 6, 10, kind="trop")
    for i in range(shape.n + 1):
        moved = trop_e(x, i, 3)
        assert trop_eps(moved, i) == trop_eps(x, i) - 3
        for j in range(shape.n + 1):
            assert trop_wt(moved, j) == trop_wt(x, j) + 3 * shape.cartan(i, j)


def test_weyl_examples():
    assert trop_weyl(T21, 1).entries == {(1, 1): 5, (1, 2): 5}
    zeros = TropPoint(S21, {key: 0 for key in S21.l1_indices})
    for i in range(3):
        assert trop_weyl(zeros, i) == zeros


@pytest.mark.parametrize("fn", [trop_wt, trop_eps, trop_weyl], ids=lambda fn: fn.__name__)
def test_index_outside_0_to_n_rejected(fn):
    # every tropical index operation takes i in 0..n, and the message says so
    for i in (-1, S21.n + 1):
        with pytest.raises(ValidationError, match=r"0\.\.n"):
            fn(T21, i)


def test_weyl_involution(shape):
    x = sample_point(shape, 7, 10, kind="trop")
    for i in range(shape.n + 1):
        assert trop_weyl(trop_weyl(x, i), i) == x


def test_closed_forms_equal_engine_route(shape):
    # the independent code path: semiring-generic evaluation on the
    # tropical point must reproduce every direct closed form
    for t in range(4):
        x = sample_point(shape, 100 + t, 10, kind="trop")
        for i in range(shape.n + 1):
            assert trop_wt(x, i) == geom.gamma(x, i)
            assert trop_eps(x, i) == geom.epsilon(x, i)
            for d in (-3, -1, 0, 2):
                assert trop_e(x, i, d) == geom.act_e(x, i, d)


@pytest.mark.parametrize(
    "nk", [(n, k) for n in range(2, 7) for k in range(1, n + 1)] + [(16, 8)],
    ids=lambda nk: "n%dk%d" % nk,
)
def test_one_pass_dbars_equal_the_definition(nk):
    shape = make_shape(*nk)
    for t in range(3):
        x = sample_point(shape, 40 + t, 10, kind="trop")
        for i in range(1, shape.n + 1):
            a, b = shape.column(1, i)
            assert _dbars(x, i, a, b) == [trop_dbar(x, l, i) for l in range(a, b + 1)]


def test_action_equals_engine_route_on_eight_row_columns():
    # columns of up to 8 rows, at tie-dense points: the prefix and suffix maxima matter
    shape = make_shape(16, 8)
    for x in (sample_point(shape, 3, 1, kind="trop"), sample_point(shape, 4, 10, kind="trop")):
        for i in range(1, shape.n + 1):
            for d in range(-3, 4):
                assert trop_e(x, i, d) == geom.act_e(x, i, d)


def test_degree_extraction_is_exact(shape):
    # a coefficient up to the shape's full-path count P either way rounds away
    bits = probe_bits(shape)
    paths = shape.check_full_paths()
    t = 1 << bits
    assert degree_of(Fraction(t ** 3, paths), bits) == 3
    assert degree_of(Fraction(paths, t ** 2), bits) == -2
    assert degree_of(Fraction(paths), bits) == 0
    assert degree_of(Fraction(1, paths), bits) == 0
    with pytest.raises(ValidationError):
        degree_of(Fraction(0), bits)


@pytest.mark.parametrize("nk, bits", [((2, 1), 8), ((5, 3), 16), ((20, 10), 72)])
def test_probe_bits_examples(nk, bits):
    assert probe_bits(make_shape(*nk)) == bits


def test_probe_bits_cover_every_shape_under_the_path_cap():
    # the module docstring's bound, as a formula: log2(P) + 1 <= bits // 4
    for n in range(2, 41):
        for k in range(1, n + 1):
            paths = comb(n - 1, k - 1)
            if paths > PATH_CAP:
                with pytest.raises(ValidationError, match="full paths"):
                    probe_bits(make_shape(n, k))
                continue
            bits = probe_bits(make_shape(n, k))
            assert 2 ** (bits // 4 - 1) >= paths


def test_coefficient_past_the_bound_faults(shape):
    # bit lengths read a coefficient c, or 1/c, as floor(log2 c) bits off
    # bits * deg: up to bits // 4 of them round away, one more faults
    bits = probe_bits(shape)
    t, lim = 1 << bits, 2 ** (bits // 4 + 1)
    assert degree_of(Fraction((lim - 1) * t ** 2), bits) == 2
    assert degree_of(Fraction(1, (lim - 1) * t), bits) == -1
    for value in (Fraction(lim * t ** 2), Fraction(1, lim * t), Fraction(lim)):
        with pytest.raises(CrystalFault, match="residual"):
            degree_of(value, bits)


def test_probe_examples():
    assert ud_degree_probe("epsilon", T21, 1) == 5
    assert ud_degree_probe("gamma", T21, 0) == -5
    zeros = TropPoint(S21, {key: 0 for key in S21.l1_indices})
    for i in range(3):
        assert ud_degree_probe("gamma", zeros, i) == 0


def test_probe_validation():
    bad = TropPoint(S21, {(1, 1): 9, (1, 2): 0})
    with pytest.raises(ValidationError):
        ud_degree_probe("gamma", bad, 1)
    with pytest.raises(ValidationError):
        ud_degree_probe("nope", T21, 1)


def test_probe_parameter_bound():
    # t**d has bits * |d| bits: d is bounded like the exponents
    for d in (9, -9):
        with pytest.raises(ValidationError, match="probe parameter d"):
            probe_pairs(T21, 1, d)
    for d in (8, -8):
        assert all(p == f for p, f in probe_pairs(T21, 1, d).values())


def test_probe_matches_tropical_forms(shape):
    rng = SplitMix64(8)
    for t in range(5):
        exponents = sample_point(shape, 200 + t, 8, kind="trop")
        for i in range(shape.n + 1):
            assert ud_degree_probe("gamma", exponents, i) == trop_wt(exponents, i)
            assert ud_degree_probe("epsilon", exponents, i) == trop_eps(exponents, i)
            d = rng.randint(-3, 3)
            assert ud_degree_probe("e", exponents, i, d) == trop_e(exponents, i, d)


def test_probe_pairs_match_fresh_probes(shape):
    # probe_pairs reads one memoized probe point for every i; each fresh
    # copy of z builds its own
    z = sample_point(shape, 300, 8, kind="trop")

    def fresh():
        return TropPoint(shape, z.entries)

    for i in range(shape.n + 1):
        d = i % 5 - 2
        pairs = probe_pairs(z, i, d)
        assert pairs["gamma"][0] == ud_degree_probe("gamma", fresh(), i)
        assert pairs["epsilon"][0] == ud_degree_probe("epsilon", fresh(), i)
        assert pairs["action"][0] == ud_degree_probe("e", fresh(), i, d)
    assert probe_point(z) is probe_point(z)


S2010 = make_shape(20, 10)
ZEROS2010 = TropPoint(S2010, dict.fromkeys(S2010.l1_indices, 0))


def test_path_cap_keeps_the_probe_exact():
    # the module docstring's bound at (20, 10): a ratio of sums of at most
    # PATH_CAP unit monomials reads within log2(PATH_CAP) + 1 bits of
    # bits * deg, within the fault threshold of bits // 4
    bits = probe_bits(S2010)
    t = 1 << bits
    assert 2 * PATH_CAP <= 2 ** (bits // 4)
    assert degree_of(Fraction(PATH_CAP * t ** 3), bits) == 3
    assert degree_of(Fraction(t ** 2, PATH_CAP), bits) == 2
    # the worst case: at the all-zero point every full path weighs 1
    assert epsilon_total(probe_point(ZEROS2010)) == comb(19, 9)


def test_probe_reads_exactly_at_every_all_zero_point():
    # every full path weighs 1 there, so each sum reaches its largest coefficient
    for n in range(2, 9):
        for k in range(1, n + 1):
            shape = make_shape(n, k)
            zeros = TropPoint(shape, dict.fromkeys(shape.l1_indices, 0))
            for i in range(n + 1):
                for d in (-8, i % 5 - 2, 8):
                    pairs = probe_pairs(zeros, i, d)
                    assert all(probe == form for probe, form in pairs.values()), (n, k, i, d)


@pytest.mark.parametrize("exponents", [ZEROS2010, sample_point(S2010, 7, 8, kind="trop")],
                         ids=["all-zero", "sampled"])
def test_probe_reads_exactly_at_twenty_ten(exponents):
    # binomial(19, 9) = 92,378 full paths, close to the cap
    for i in range(S2010.n + 1):
        pairs = probe_pairs(exponents, i, i % 5 - 2)
        assert all(probe == form for probe, form in pairs.values())
