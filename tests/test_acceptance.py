"""Acceptance criteria, one test per criterion, exact equality throughout.

Every criterion runs standalone over the shape battery
S = {(2,1), (3,1), (3,2), (4,2), (5,2), (5,3)} and prints one pass/fail
line (run pytest with -s to see them).  All comparisons are exact: rational
identities use arbitrary-precision rationals, tropical identities use
integers, and the degree probe rounds a base-2**128 logarithm that is
exact under its stated operating bounds.
"""

from math import comb

from conftest import SHAPES
from pathcrystal import make_shape
from pathcrystal.geom import verify_axioms
from pathcrystal.iso import verify_iso
from pathcrystal.suites import (
    conjecture_outcomes,
    suite_birational,
    suite_e0route,
    suite_extremal,
    suite_fundrep,
    suite_intertwine,
    suite_lemma44,
    suite_paths,
    suite_udprobe,
    suite_weyl,
)

SEED = 20260808


def _run(criterion, label, suite, trials, seed=SEED, bound=None):
    failures = []
    for n, k in SHAPES:
        shape = make_shape(n, k)
        checks = suite(shape, trials, seed) if bound is None else suite(
            shape, trials, seed, bound
        )
        for check in checks:
            if not check.ok:
                failures.append((n, k, check.name, check.fails, check.witnesses[:1]))
    status = "PASS" if not failures else "FAIL"
    print("criterion %2d %s: %s" % (criterion, status, label))
    assert not failures, failures


def test_c01_path_oracle_equivalence():
    _run(1, "DP path sums equal enumeration, both semirings, 20 pts/shape",
         suite_paths, 20)


def test_c02_birational_inverses():
    _run(2, "forward/backward chart maps invert exactly, 50 pts/shape",
         suite_birational, 50)


def test_c03_coordinate_factorization():
    _run(3, "coordinates factor through opposite-chart sums, 20 pts/shape",
         suite_lemma44, 20)


def test_c04_intertwining():
    _run(4, "chart change intertwines inner actions, 20 pts x 5 params",
         suite_intertwine, 20)


def test_c05_affine_axioms():
    def suite(shape, trials, seed):
        return verify_axioms(shape, trials, seed, params=5)

    _run(5, "full axiom suite incl. 0-n Verma relation, 20 pts x 5 params",
         suite, 20)


def test_c06_zero_route_equality():
    _run(6, "closed-form 0-action equals chart-conjugated route, 20 pts x 5",
         suite_e0route, 20)


def test_c07_iso_intertwines_everything():
    def suite(shape, trials, seed):
        return verify_iso(shape, trials, seed, bound=10, dvals=range(-3, 4))

    _run(7, "array bijection intertwines steps (d in -3..3), wt, eps; 200 pts",
         suite, 200)


def test_c08_degree_probe():
    _run(8, "base-2**128 degree probe matches tropical forms, 200 pts/shape",
         suite_udprobe, 200, bound=8)


def test_c09_weyl_relations():
    _run(9, "reflections: involution, braid, commutation, closed=route; 20 pts",
         suite_weyl, 20)


def test_c10_extremal_tuple_machinery():
    _run(10, "extremal tuples minimize and satisfy both inequalities, 200 els",
         suite_extremal, 200)


def test_c11_conjecture_probe_report_only():
    report_lines = []
    ratio_failures = []
    for n, k in SHAPES:
        shape = make_shape(n, k)
        assert comb(n + 1, k) <= 252
        outcomes = conjecture_outcomes(shape, 25, SEED)
        prop = sum(1 for o in outcomes if o["proportional"])
        report_lines.append("shape (%d,%d): %d/25 proportional" % (n, k, prop))
        if k == 1:
            for o in outcomes:
                if not (o["proportional"] and o["ratio"] == o["expected_k1_ratio"]):
                    ratio_failures.append((n, k, o))
    status = "PASS" if not ratio_failures else "FAIL"
    print("criterion 11 %s: proportionality probe logged; %s"
          % (status, "; ".join(report_lines)))
    assert not ratio_failures, ratio_failures


def test_c12_module_sanity():
    def suite(shape, trials, seed):
        return suite_fundrep(shape, trials, seed)

    _run(12, "operator nilpotence and highest-weight annihilation, exhaustive",
         suite, 1)
