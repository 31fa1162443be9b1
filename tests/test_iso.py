import pytest

from pathcrystal import bkinf
from pathcrystal.birational import sigma_map, xi_map
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
from pathcrystal.errors import ValidationError
from pathcrystal.fundrep import chart_vector
from pathcrystal.geom import act_e, dval, epsilon, gamma, weyl_s, weyl_s_def
from pathcrystal.iso import omega, omega_inv, pi_correspondence
from pathcrystal.lattice import BElement, TropPoint, make_shape, sample_point
from pathcrystal.paths import (
    brute_partial_sum,
    brute_regions,
    enumerate_paths,
    epsilon_total,
    full_path_endpoints,
    partial_sum,
    path_weight,
    region_sums,
)
from pathcrystal.reporting import all_ok
from pathcrystal.suites import run_suite
from pathcrystal.tropical import (
    probe_pairs,
    trop_dbar,
    trop_e,
    trop_eps,
    trop_weyl,
    trop_wt,
    ud_degree_probe,
)

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


# every integer-side entry point, the kind it takes, and one call of it
ENTRY_POINTS = [
    ("eps_phi", "b", lambda p: eps_phi(p, 1)),
    ("eps_phi_0", "b", eps_phi_0),
    ("wt", "b", lambda p: wt(p, 1)),
    ("kashiwara", "b", lambda p: kashiwara(p, "e", 1)),
    ("extremal_c", "b", lambda p: extremal_c(p, "e")),
    ("delta", "b", lambda p: delta(p, (1, 2, 4, 6))),
    ("bk_e", "b", lambda p: bk_e(p, 1, 2)),
    ("bk_e_steps", "b", lambda p: bk_e_steps(p, 1, 2)),
    ("bk_e_closed", "b", lambda p: bk_e_closed(p, 1, 2)),
    ("brute_bk_e_closed", "b", lambda p: brute_bk_e_closed(p, 2)),
    ("weyl_s_tilde", "b", lambda p: weyl_s_tilde(p, 1)),
    ("crystal_graph_dot", "b", lambda p: crystal_graph_dot(p, 1)),
    ("omega_inv", "b", omega_inv),
    ("omega", "trop", omega),
    ("trop_dbar", "trop", lambda p: trop_dbar(p, 3, 1)),
    ("trop_wt", "trop", lambda p: trop_wt(p, 1)),
    ("trop_eps", "trop", lambda p: trop_eps(p, 1)),
    ("trop_e", "trop", lambda p: trop_e(p, 1, 2)),
    ("trop_weyl", "trop", lambda p: trop_weyl(p, 1)),
    ("ud_degree_probe", "trop", lambda p: ud_degree_probe("gamma", p, 1)),
    ("probe_pairs", "trop", lambda p: probe_pairs(p, 1, 1)),
]

S53 = make_shape(5, 3)
POINTS = {
    "x": sample_point(S53, 1, 5, kind="x"),
    "y": sample_point(S53, 1, 5, kind="y"),
    "trop": sample_point(S53, 1, 5, kind="trop"),
    "b": sample_belement(S53, 1, 5),
}


NOUNS = {"x": "an x point", "y": "a y point", "trop": "a tropical point", "b": "an array"}


@pytest.mark.parametrize("name,kind,call,wrong", [
    pytest.param(name, kind, call, wrong, id="%s-%s" % (name, wrong))
    for name, kind, call in ENTRY_POINTS for wrong in POINTS if wrong != kind
])
def test_integer_entry_points_reject_other_point_kinds(name, kind, call, wrong):
    # wt, eps_phi and the tropical data returned numbers, kashiwara a KeyError
    point = POINTS[wrong]
    message = "^%s expects %s, got %s$" % (name, NOUNS[kind], NOUNS[wrong])
    with pytest.raises(ValidationError, match=message):
        call(point)


# every chart-side entry point, the kinds it takes, and one call of it
CHARTS = ("x", "y", "trop")
SIDE_1 = ("x", "trop")
CHART_ENTRY_POINTS = [
    *[(name, CHARTS, call) for i in (0, 1) for name, call in [
        ("act_e", lambda p, i=i: act_e(p, i, 2)),
        ("epsilon", lambda p, i=i: epsilon(p, i)),
        ("gamma", lambda p, i=i: gamma(p, i)),
        ("weyl_s", lambda p, i=i: weyl_s(p, i)),
    ]],
    *[("weyl_s_def", CHARTS, lambda p, i=i: weyl_s_def(p, i)) for i in (0, 1)],
    ("dval", CHARTS, lambda p: dval(p, 3, 1)),
    ("path_weight", CHARTS, lambda p: path_weight(p, [(1, 3)])),
    ("partial_sum X", SIDE_1, lambda p: partial_sum(p, "X", 1, 3)),
    ("partial_sum Xstar", SIDE_1, lambda p: partial_sum(p, "Xstar", 1, 3)),
    ("partial_sum Y", ("y",), lambda p: partial_sum(p, "Y", 1, 3)),
    ("partial_sum Ystar", ("y",), lambda p: partial_sum(p, "Ystar", 1, 3)),
    *[("brute_partial_sum " + kind, sides, lambda p, kind=kind: brute_partial_sum(p, kind, 1, 3))
      for kind, sides in [("X", SIDE_1), ("Xstar", SIDE_1), ("Y", ("y",)), ("Ystar", ("y",))]],
    ("region_sums", SIDE_1, lambda p: region_sums(p, 1, 3)),
    ("brute_regions", SIDE_1, brute_regions),
    ("epsilon_total", SIDE_1, epsilon_total),
    ("sigma_map", ("x",), sigma_map),
    ("xi_map", ("y",), xi_map),
    ("chart_vector", ("x", "y"), chart_vector),
]


def expected_nouns(kinds):
    *rest, last = [NOUNS[kind] for kind in kinds]
    return "%s or %s" % (", ".join(rest), last) if rest else last


@pytest.mark.parametrize("name,kinds,call,wrong", [
    pytest.param(name, kinds, call, wrong, id="%s-%d-%s" % (name, n, wrong))
    for n, (name, kinds, call) in enumerate(CHART_ENTRY_POINTS)
    for wrong in POINTS if wrong not in kinds
])
def test_chart_entry_points_reject_other_point_kinds(name, kinds, call, wrong):
    # gamma gave a number for an array at i = 0, and the checks below the
    # entry point named a partial sum or a side
    message = "^%s expects %s, got %s$" % (name, expected_nouns(kinds), NOUNS[wrong])
    with pytest.raises(ValidationError, match=message):
        call(POINTS[wrong])


def test_every_chart_entry_point_accepts_its_own_kinds():
    for name, kinds, call in CHART_ENTRY_POINTS:
        for kind in kinds:
            call(POINTS[kind])


@pytest.mark.parametrize("name,call", [
    pytest.param(name, call, id=name) for name, _, call in ENTRY_POINTS + CHART_ENTRY_POINTS
])
def test_anything_but_a_point_is_named_by_its_type(name, call):
    with pytest.raises(ValidationError, match="^%s expects .*, got dict$" % name):
        call({"kind": "x"})


def test_a_large_array_is_rejected_in_a_short_message():
    # the side test printed every entry: 934 characters at (16, 8)
    b = sample_belement(make_shape(16, 8), 1, 5)
    for call in (lambda: epsilon(b, 0), lambda: act_e(b, 0, 2), lambda: path_weight(b, [])):
        with pytest.raises(ValidationError) as info:
            call()
        assert len(str(info.value)) < 300


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
