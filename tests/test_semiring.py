from fractions import Fraction

import pytest

from pathcrystal.semiring import MAXPLUS, RATIONAL

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
