"""Commutative semirings shared by the path-sum engine.

Two instances are used throughout: exact rationals under (+, *) and the
max-plus integers under (max, +).  Swapping one for the other turns every
subtraction-free rational formula into its piecewise-linear counterpart,
which is how the tropical side of the library reuses the rational code.

The additive identity ("bottom") stands for an empty path set.  On the
rational side this is an honest 0; on the max-plus side it is -infinity,
represented by ``None`` and absorbed by ``mul``.
"""

from fractions import Fraction


class SemiringSpec:
    """A commutative semiring with division by invertible elements."""

    def __init__(self, name, one, bottom, add, mul, ratio):
        self.name = name
        self.one = one
        self.bottom = bottom
        self.add = add
        self.mul = mul
        self.ratio = ratio

    def inv(self, a):
        return self.ratio(self.one, a)

    def add_all(self, terms):
        """Sum of ``terms``, starting from the first; the bottom element for none."""
        terms = iter(terms)
        total = next(terms, self.bottom)
        for t in terms:
            total = self.add(total, t)
        return total

    def __repr__(self):
        return "SemiringSpec(%r)" % self.name


def _max_add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _max_mul(a, b):
    if a is None or b is None:
        return None
    return a + b


def _max_ratio(a, b):
    if b is None:
        raise ZeroDivisionError("division by the max-plus bottom element")
    if a is None:
        return None
    return a - b


RATIONAL = SemiringSpec(
    name="rational",
    one=Fraction(1),
    bottom=Fraction(0),
    add=lambda a, b: a + b,
    mul=lambda a, b: a * b,
    ratio=lambda a, b: a / b,
)

MAXPLUS = SemiringSpec(
    name="maxplus",
    one=0,
    bottom=None,
    add=_max_add,
    mul=_max_mul,
    ratio=_max_ratio,
)
