import random
from fractions import Fraction
from math import gcd

import pytest

from pathcrystal.lattice import make_shape
from pathcrystal.semiring import MAXPLUS, RATIONAL, _fraction
from pathcrystal.suites import run_suite

# values equal to an identity but not the instance's own object take the arithmetic
RATIONAL_GRID = [RATIONAL.one, RATIONAL.bottom, Fraction(1), Fraction(0),
                 Fraction(2, 3), Fraction(7, 5), Fraction(-1, 9), Fraction(10 ** 30, 3)]
MAXPLUS_GRID = [MAXPLUS.one, -3, 2, 5, 10 ** 30]


def _plain_rational(a, b):
    return {"add": a + b, "mul": a * b, "ratio": a / b if b else None}


def _plain_maxplus(a, b):
    return {"add": max(a, b), "mul": a + b, "ratio": a - b}


CASES = [(RATIONAL, RATIONAL_GRID, _plain_rational), (MAXPLUS, MAXPLUS_GRID, _plain_maxplus)]


@pytest.mark.parametrize("sr, grid, plain", CASES, ids=["rational", "maxplus"])
def test_identities_pass_through(sr, grid, plain):
    for v in grid + [sr.bottom]:
        assert sr.add(sr.bottom, v) is v
        assert sr.add(v, sr.bottom) is v
        assert sr.mul(sr.bottom, v) is sr.bottom
        assert sr.mul(v, sr.bottom) is sr.bottom
        assert sr.mul(sr.one, v) == v == sr.mul(v, sr.one)
        assert sr.ratio(v, sr.one) == v
        if sr is RATIONAL:  # by object, with no Fraction operation
            assert sr.mul(sr.one, v) is v and sr.mul(v, sr.one) is v
            assert sr.ratio(v, sr.one) is v


@pytest.mark.parametrize("sr, grid, plain", CASES, ids=["rational", "maxplus"])
def test_operations_equal_plain_arithmetic(sr, grid, plain):
    for a in grid:
        for b in grid:
            expected = plain(a, b)
            assert sr.add(a, b) == expected["add"]
            assert sr.mul(a, b) == expected["mul"]
            if expected["ratio"] is None:
                with pytest.raises(ZeroDivisionError):
                    sr.ratio(a, b)
            else:
                assert sr.ratio(a, b) == expected["ratio"]
            if sr is RATIONAL:
                assert all(type(sr_op(a, b)) is Fraction for sr_op in (sr.add, sr.mul))


def _kernel_operands(rng, count):
    """Seeded Fractions: signs mixed, up to 10**40, shared small factors, fresh 0s and 1s."""
    out = []
    for _ in range(count):
        if rng.random() < 0.1:
            out.append(rng.choice([Fraction(0), Fraction(1), Fraction(-1)]))
            continue
        size = 10 ** rng.randint(1, 40)
        num = rng.choice([1, 2, 6, 30, 210]) * rng.randint(-size, size)
        den = rng.choice([1, 2, 6, 30, 210]) * rng.randint(1, size)
        out.append(Fraction(num, den))
    return out


def test_rational_kernels_equal_the_fractions_operators():
    rng = random.Random(2016)
    lefts, rights = _kernel_operands(rng, 3000), _kernel_operands(rng, 3000)
    assert not any(v is RATIONAL.one or v is RATIONAL.bottom for v in lefts + rights)
    assert sum(v == 0 for v in rights) > 50 and sum(v == 1 for v in lefts) > 50
    for a, b in zip(lefts, rights):
        ops = [(RATIONAL.add, a + b), (RATIONAL.mul, a * b)]
        if b:
            ops.append((RATIONAL.ratio, a / b))
        else:
            with pytest.raises(ZeroDivisionError):
                RATIONAL.ratio(a, b)
        for op, expected in ops:
            r = op(a, b)
            assert type(r) is Fraction
            assert (r.numerator, r.denominator) == (expected.numerator, expected.denominator)
            assert gcd(r.numerator, r.denominator) == 1 and r.denominator > 0
            assert r == expected and hash(r) == hash(expected) and str(r) == str(expected)


@pytest.mark.parametrize("suite", ["axioms", "intertwine"])
def test_suites_catch_an_unreduced_product(monkeypatch, suite):
    # the suites' right-hand sides use the fractions operators, which reduce:
    # a product left unreduced compares unequal to its reduced twin
    shape = make_shape(3, 2)
    assert all(c.ok for c in run_suite(suite, shape, 2, 0))

    def unreduced_mul(a, b):
        return _fraction(a.numerator * b.numerator, a.denominator * b.denominator)

    monkeypatch.setattr(RATIONAL, "mul", unreduced_mul)
    assert sum(c.fails for c in run_suite(suite, shape, 2, 0)) > 0
