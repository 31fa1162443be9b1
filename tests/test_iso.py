import pytest

from pathcrystal import bkinf
from pathcrystal.bkinf import (
    all_ctuples,
    b_infinity,
    bk_e,
    bk_e_closed,
    bk_e_steps,
    delta,
    eps_phi,
    eps_phi_0,
    sample_belement,
    weyl_s_tilde,
    wt,
)
from pathcrystal.errors import ValidationError
from pathcrystal.iso import omega, omega_inv, pi_correspondence
from pathcrystal.lattice import BElement, TropPoint, make_shape, sample_point
from pathcrystal.paths import enumerate_paths, full_path_endpoints, path_weight
from pathcrystal.reporting import all_ok
from pathcrystal.suites import run_suite
from pathcrystal.tropical import trop_e, trop_eps, trop_weyl, trop_wt

S21 = make_shape(2, 1)
S32 = make_shape(3, 2)
T21 = TropPoint(S21, {(1, 1): 0, (1, 2): 5})


def test_omega_smallest_shape():
    b = omega(T21)
    assert b.entries == {(1, 1): 0, (1, 2): 5, (1, 3): -5}


def test_omega_row_differences():
    t = TropPoint(S32, {(2, 1): 3, (2, 2): 7, (1, 2): -1, (1, 3): 4})
    b = omega(t)
    # row j=1 reads lattice row 2, row j=2 reads lattice row 1
    assert [b.get(1, i) for i in range(1, 4)] == [3, 4, -7]
    assert [b.get(2, i) for i in range(2, 5)] == [-1, 5, -4]


def test_omega_sends_zeros_to_zero_element(shape):
    zeros = TropPoint(shape, {key: 0 for key in shape.l1_indices})
    assert omega(zeros) == b_infinity(shape)
    assert omega_inv(b_infinity(shape)) == zeros


def test_omega_inverse_prefix_sums():
    b = BElement(S21, {(1, 1): 4, (1, 2): -1, (1, 3): -3})
    assert omega_inv(b).entries == {(1, 1): 4, (1, 2): 3}


def test_round_trip_random(shape):
    for t in range(10):
        x = sample_point(shape, 900 + t, 10, kind="trop")
        assert omega_inv(omega(x)) == x
        b = sample_belement(shape, 950 + t, 10)
        assert omega(omega_inv(b)) == b


def test_omega_requires_tropical_point():
    with pytest.raises(ValidationError):
        omega(sample_point(S21, 1, 5, kind="x"))


def test_omega_inv_requires_array():
    with pytest.raises(ValidationError, match="expects an array"):
        omega_inv(T21)


@pytest.mark.parametrize("d", [True, 1.5, "2"], ids=repr)
@pytest.mark.parametrize("act", [trop_e, bk_e, bk_e_steps, bk_e_closed],
                         ids=lambda fn: fn.__name__)
def test_step_count_must_be_an_integer(act, d):
    # the point kind reads d, as geom.act_e reads c: the routes compared accept the same input
    point = T21 if act is trop_e else omega(T21)
    for i in range(S21.n + 1):
        with pytest.raises(ValidationError, match="the action parameter must be an integer"):
            act(point, i, d)


def test_path_correspondence_singleton():
    (p,) = enumerate_paths(S21, 1, (1, 1), (1, 2))
    assert pi_correspondence(S21, (1, 3)) == p


@pytest.mark.parametrize("values", [(True, 2.0, 4), (1, 2.5, 4), (1, "2", 4), (1, False, 4)])
def test_path_correspondence_rejects_non_int_entries(values):
    with pytest.raises(ValidationError, match="integers"):
        pi_correspondence(S32, values)


def test_path_correspondence_rejects_bad_tuples():
    with pytest.raises(ValidationError):
        pi_correspondence(S21, (2, 3))
    with pytest.raises(ValidationError):
        pi_correspondence(S21, (1, 2))
    with pytest.raises(ValidationError):
        pi_correspondence(S32, (1, 1, 4))
    with pytest.raises(ValidationError):
        pi_correspondence(S32, (1, 4))


@pytest.mark.parametrize(
    "c", [(1, 9, 4), (3, 2, 1), (1, 2), (1, 2, 3, 4), (True, 2, 4), (1, 2.5, 4)]
)
def test_delta_and_correspondence_reject_the_same_tuples(c):
    # one tuple rule: delta gave a number, or a TypeError, for each of these
    b = sample_belement(S32, 1, 5)
    with pytest.raises(ValidationError):
        delta(b, c)
    with pytest.raises(ValidationError):
        pi_correspondence(S32, c)


def test_path_correspondence_worked_example():
    assert pi_correspondence(S32, (1, 2, 4)) == ((2, 1), (1, 2), (1, 3))


def test_path_correspondence_is_bijective(shape):
    src, dst = full_path_endpoints(shape, 1)
    all_paths = set(enumerate_paths(shape, 1, src, dst))
    images = {pi_correspondence(shape, c) for c in all_ctuples(shape)}
    assert images == all_paths


def test_delta_equals_negated_path_weight(shape):
    for t in range(5):
        x = sample_point(shape, 1000 + t, 10, kind="trop")
        b = omega(x)
        for c in all_ctuples(shape):
            assert delta(b, c) == -path_weight(x, pi_correspondence(shape, c))


def test_intertwining_worked_examples():
    assert omega(trop_e(T21, 0, 1)).entries == {(1, 1): -1, (1, 2): 5, (1, 3): -4}
    other = TropPoint(S21, {(1, 1): 5, (1, 2): 0})
    assert trop_eps(other, 0) == 5 == eps_phi_0(omega(other))[0]


def test_data_intertwining_random(shape):
    for t in range(5):
        x = sample_point(shape, 1100 + t, 10, kind="trop")
        b = omega(x)
        for i in range(shape.n + 1):
            assert trop_wt(x, i) == wt(b, i)
            assert trop_eps(x, i) == eps_phi(b, i)[0]
            for d in (-2, 1, 3):
                assert omega(trop_e(x, i, d)) == bk_e_steps(b, i, d)
            assert omega(trop_weyl(x, i)) == weyl_s_tilde(b, i)


def test_verify_iso_all_green(shape):
    checks = run_suite("iso", shape, 10, 77)
    assert all_ok(checks)
    by_name = {c.name: c for c in checks}
    assert by_name["round-trip"].passes == 20  # both directions, every trial
    assert by_name["step-intertwine"].fails == 0


def test_step_intertwine_catches_a_lowering_step_at_the_wrong_row(monkeypatch):
    # f_i at i >= 1 moves the first minimizing row instead of the last:
    # the unit-step walk must disagree with the tropical closed form
    real = bkinf.kashiwara

    def first_row_f(b, op, i):
        if op != "f" or i == 0:
            return real(b, op, i)
        raised = real(b, "e", i)
        return BElement(b.shape, {key: 2 * v - raised.get(*key) for key, v in b.entries.items()})

    monkeypatch.setattr(bkinf, "kashiwara", first_row_f)
    shape = make_shape(5, 3)
    by_name = {c.name: c for c in run_suite("iso", shape, 3, 0, bound=2)}
    step = by_name["step-intertwine"]
    assert (step.passes, step.fails) == (118, 8)
    assert step.passes + step.fails == 3 * (shape.n + 1) * 7
