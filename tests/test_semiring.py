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


def _fused_rational(a, b, c):
    """add_mul(a, b, c) and mul_ratio(a, b, c) by the fractions operators.

    A zero divisor is marked by ``ZeroDivisionError``.
    """
    return {"add_mul": a + b * c, "mul_ratio": a * b / c if c else ZeroDivisionError}


def _fused_maxplus(a, b, c):
    """The same with None as -infinity: max(a, b + c) and a + b - c."""
    terms = [t for t in (a, None if None in (b, c) else b + c) if t is not None]
    return {
        "add_mul": max(terms, default=None),
        "mul_ratio": ZeroDivisionError if c is None else None if None in (a, b) else a + b - c,
    }


CASES = [
    (RATIONAL, RATIONAL_GRID, _plain_rational, _fused_rational),
    (MAXPLUS, MAXPLUS_GRID, _plain_maxplus, _fused_maxplus),
]


@pytest.mark.parametrize("sr, grid, plain, fused", CASES, ids=["rational", "maxplus"])
def test_identities_pass_through(sr, grid, plain, fused):
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
        for w in grid + [sr.bottom]:
            # a bottom factor leaves the sum as it was, and a bottom factor over a unit is bottom
            assert sr.add_mul(v, sr.bottom, w) is v and sr.add_mul(v, w, sr.bottom) is v
            assert sr.mul_ratio(sr.bottom, w, sr.one) is sr.bottom
            assert sr.mul_ratio(w, sr.bottom, sr.one) is sr.bottom
            assert sr.add_mul(sr.bottom, sr.one, w) == w == sr.mul_ratio(sr.one, w, sr.one)
            if sr is RATIONAL:
                assert sr.add_mul(sr.bottom, sr.one, w) is w
                assert sr.mul_ratio(sr.one, w, sr.one) is w


@pytest.mark.parametrize("sr, grid, plain, fused", CASES, ids=["rational", "maxplus"])
def test_operations_equal_plain_arithmetic(sr, grid, plain, fused):
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
    # the fused kernels, max-plus ones derived from add, mul and ratio, also at bottom
    operands = grid + [sr.bottom]
    for a, b, c in ((a, b, c) for a in operands for b in operands for c in operands):
        expected = fused(a, b, c)
        assert sr.add_mul(a, b, c) == expected["add_mul"]
        if expected["mul_ratio"] is ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                sr.mul_ratio(a, b, c)
        else:
            assert sr.mul_ratio(a, b, c) == expected["mul_ratio"]


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
    thirds = _kernel_operands(rng, 3000)
    assert not any(v is RATIONAL.one or v is RATIONAL.bottom for v in thirds)
    for a, b, c in zip(lefts, rights, thirds):
        ops = [(RATIONAL.add, (a, b), a + b), (RATIONAL.mul, (a, b), a * b),
               (RATIONAL.add_mul, (a, c, b), a + c * b)]
        if b:
            ops.append((RATIONAL.ratio, (a, b), a / b))
            ops.append((RATIONAL.mul_ratio, (a, c, b), a * c / b))
        else:
            with pytest.raises(ZeroDivisionError):
                RATIONAL.ratio(a, b)
            with pytest.raises(ZeroDivisionError):
                RATIONAL.mul_ratio(a, c, b)
        for op, args, expected in ops:
            r = op(*args)
            assert type(r) is Fraction
            assert (r.numerator, r.denominator) == (expected.numerator, expected.denominator)
            assert gcd(r.numerator, r.denominator) == 1 and r.denominator > 0
            assert r == expected and hash(r) == hash(expected) and str(r) == str(expected)


def _unreduced_mul(a, b):
    return _fraction(a.numerator * b.numerator, a.denominator * b.denominator)


def _unreduced_add_mul(a, c, b):
    num = a.numerator * c.denominator * b.denominator + c.numerator * b.numerator * a.denominator
    return _fraction(num, a.denominator * c.denominator * b.denominator)


def _unreduced_mul_ratio(a, b, c):
    sign = -1 if c.numerator < 0 else 1
    return _fraction(sign * a.numerator * b.numerator * c.denominator,
                     sign * a.denominator * b.denominator * c.numerator)


UNREDUCED = {"mul": _unreduced_mul, "add_mul": _unreduced_add_mul,
             "mul_ratio": _unreduced_mul_ratio}


@pytest.mark.parametrize("suite, kernel", [
    pytest.param(suite, kernel, id=suite if kernel == "mul" else suite + "-" + kernel)
    for kernel in UNREDUCED for suite in ("axioms", "intertwine")
])
def test_suites_catch_an_unreduced_product(monkeypatch, suite, kernel):
    # the suites' right-hand sides use the fractions operators, which reduce:
    # a result left unreduced compares unequal to its reduced twin
    shape = make_shape(3, 2)
    assert all(c.ok for c in run_suite(suite, shape, 2, 0))
    monkeypatch.setattr(RATIONAL, kernel, UNREDUCED[kernel])
    assert sum(c.fails for c in run_suite(suite, shape, 2, 0)) > 0
