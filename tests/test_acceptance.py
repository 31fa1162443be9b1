"""Acceptance criteria, one test per criterion, exact equality throughout.

Every criterion runs standalone over the shape battery
S = {(2,1), (3,1), (3,2), (4,2), (5,2), (5,3)} and prints one pass/fail
line (run pytest with -s to see them).  All comparisons are exact: rational
identities use arbitrary-precision rationals, tropical identities use
integers, and the degree probe rounds a base-2**bits logarithm, its base
sized to the shape, that is exact under its stated operating bounds.
"""

from conftest import SHAPES
from pathcrystal.lattice import make_shape
from pathcrystal.suites import run_suite

SEED = 20260808


def _run(criterion, label, suite, trials, bound=None):
    failures = []
    for n, k in SHAPES:
        shape = make_shape(n, k)
        for check in run_suite(suite, shape, trials, SEED, bound):
            if not check.ok:
                failures.append((n, k, check.name, check.fails, check.witnesses[:1]))
    status = "PASS" if not failures else "FAIL"
    print("criterion %2d %s: %s" % (criterion, status, label))
    assert not failures, failures


def test_c01_path_oracle_equivalence():
    _run(1, "DP path sums equal enumeration, both semirings, 20 pts/shape",
         "paths", 20)


def test_c02_birational_inverses():
    _run(2, "forward/backward chart maps invert exactly, 50 pts/shape",
         "birational", 50)


def test_c03_coordinate_factorization():
    _run(3, "coordinates factor through opposite-chart sums, 20 pts/shape",
         "lemma44", 20)


def test_c04_intertwining():
    # criterion 6 is the i = 0 case: the x-chart's closed form against the y-chart's action
    _run(4, "chart change intertwines actions 0..n-1, 20 pts x 5 params; criterion 6: "
            "closed-form 0-action equals chart-conjugated route", "intertwine", 20)


def test_c05_affine_axioms():
    _run(5, "full axiom suite incl. 0-n Verma relation, 20 pts x 5 params",
         "axioms", 20)


def test_c07_iso_intertwines_everything():
    _run(7, "array bijection intertwines steps (d in -3..3), wt, eps; 200 pts",
         "iso", 200, bound=10)


def test_c08_degree_probe():
    _run(8, "degree probe matches tropical forms, 200 pts/shape",
         "udprobe", 200, bound=8)


def test_c09_weyl_relations():
    _run(9, "reflections: involution, braid, commutation, closed=route; 20 pts",
         "weyl", 20)


def test_c10_extremal_tuple_machinery():
    _run(10, "extremal tuples minimize delta and give the DP's eps_0, phi_0; 200 els",
         "extremal", 200)


def test_c11_conjecture_probe_report_only():
    _run(11, "chart vectors proportional with ratio 1/x_(1,n) at every k, 25 pts/shape",
         "conjecture", 25)


def test_c12_module_sanity():
    _run(12, "operator nilpotence and highest-weight annihilation, exhaustive",
         "fundrep", 1)
