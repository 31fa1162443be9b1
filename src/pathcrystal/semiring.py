"""Commutative semirings shared by the path-sum engine.

Two instances are used throughout: exact rationals under (+, *) and the
max-plus integers under (max, +).  Swapping one for the other turns every
subtraction-free rational formula into its piecewise-linear counterpart,
which is how the tropical side of the library reuses the rational code.

The additive identity ("bottom") stands for an empty path set.  On the
rational side this is an honest 0; on the max-plus side it is -infinity,
represented by ``None``.  Both instances follow one identity rule:
``add`` with ``bottom`` returns the other operand and ``mul`` with
``bottom`` returns ``bottom``, with no arithmetic.  The rational side also
passes ``one`` through ``mul`` and ``ratio`` (a divisor), where it would
cost a ``Fraction`` operation; max-plus adds its ``0``.  The rational
identities are recognised by object, the instance's own ``one`` and
``bottom``, which are what the path tables, off-lattice reads and empty
sums produce; an operand that only equals one of them takes the plain
arithmetic, with the same result.

The rational ``add``, ``mul`` and ``ratio`` run the gcd steps of the
``fractions`` module's own ``+``, ``*`` and ``/`` (Henrici's algorithm,
Knuth TAOCP Vol. 2 section 4.5.1) directly on the operands' numerators and
denominators, without the operator dispatch and the constructor's checks.
Each result is built as an ordinary ``Fraction`` in lowest terms with a
positive denominator, so it compares, hashes and prints exactly like the
operator's result.  That is what lets the suites compare it with right-hand
sides that keep the operators, as a check independent of these kernels.
The kernels write the two slots of ``Fraction`` (``_numerator``,
``_denominator``); a Python that renames them fails with ``AttributeError``,
not with a wrong value.

Two fused kernels serve the path engine and the chart formulas, which
combine three values per entry: ``add_mul(a, c, b) = a + c*b`` and
``mul_ratio(a, b, c) = a*b/c``.  The rational ones form the numerator and
denominator from the cross products and reduce once, with one ``gcd``,
instead of once per operation; ``mul_ratio`` raises ``ZeroDivisionError``
on a zero divisor and moves the divisor's sign to the numerator.  They keep
the identity rule by object: ``add_mul`` returns ``a`` when ``c`` or ``b``
is ``bottom``, and is ``mul(c, b)`` when ``a`` is ``bottom`` and
``add(a, b)`` when ``c`` is ``one``; ``mul_ratio`` is ``mul(a, b)`` for a
``one`` divisor and returns ``bottom`` for a ``bottom`` factor.  An
instance that gives no fused kernels, as max-plus does, gets them from
``add``, ``mul`` and ``ratio``, as every instance gets ``inv``.
"""

from fractions import Fraction
from math import gcd


class SemiringSpec:
    """A commutative semiring with division by invertible elements.

    ``add_mul`` and ``mul_ratio`` are fused kernels; an instance that gives
    none gets them from ``add``, ``mul`` and ``ratio``, as it gets ``inv``.
    """

    def __init__(self, name, one, bottom, add, mul, ratio, add_mul=None, mul_ratio=None):
        self.name = name
        self.one = one
        self.bottom = bottom
        self.add = add
        self.mul = mul
        self.ratio = ratio
        if add_mul is not None:
            self.add_mul = add_mul
        if mul_ratio is not None:
            self.mul_ratio = mul_ratio

    def inv(self, a):
        return self.ratio(self.one, a)

    def add_mul(self, a, c, b):
        """a + c*b."""
        return self.add(a, self.mul(c, b))

    def mul_ratio(self, a, b, c):
        """a * b / c."""
        return self.mul(a, self.ratio(b, c))

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


_ONE = Fraction(1)
_ZERO = Fraction(0)


def _fraction(num, den):
    """A ``Fraction`` from a numerator and a positive denominator already in lowest terms."""
    q = object.__new__(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _rat_add(a, b):
    if a is _ZERO:
        return b
    if b is _ZERO:
        return a
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g = gcd(da, db)
    if g == 1:
        return _fraction(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _fraction(t, s * db)
    return _fraction(t // g2, s * (db // g2))


def _rat_mul(a, b):
    if a is _ONE or b is _ZERO:
        return b
    if b is _ONE or a is _ZERO:
        return a
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _fraction(na * nb, db * da)


def _rat_ratio(a, b):
    if b is _ONE:
        return a
    na, da = a._numerator, a._denominator
    nb, db = b._numerator, b._denominator
    if nb == 0:
        raise ZeroDivisionError("Fraction division by zero")
    g1 = gcd(na, nb)
    if g1 > 1:
        na //= g1
        nb //= g1
    g2 = gcd(db, da)
    if g2 > 1:
        da //= g2
        db //= g2
    if nb < 0:
        return _fraction(-na * db, -nb * da)
    return _fraction(na * db, nb * da)


def _rat_add_mul(a, c, b):
    if b is _ZERO or c is _ZERO:
        return a
    if a is _ZERO:
        return _rat_mul(c, b)
    if c is _ONE:
        return _rat_add(a, b)
    na, da = a._numerator, a._denominator
    den = c._denominator * b._denominator
    num = na * den + c._numerator * b._numerator * da
    den *= da
    g = gcd(num, den)
    if g == 1:
        return _fraction(num, den)
    return _fraction(num // g, den // g)


def _rat_mul_ratio(a, b, c):
    if c is _ONE:
        return _rat_mul(a, b)
    nc = c._numerator
    if nc == 0:
        raise ZeroDivisionError("Fraction division by zero")
    if a is _ZERO or b is _ZERO:
        return _ZERO
    num = a._numerator * b._numerator * c._denominator
    den = a._denominator * b._denominator * nc
    if nc < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g == 1:
        return _fraction(num, den)
    return _fraction(num // g, den // g)


RATIONAL = SemiringSpec(
    name="rational",
    one=_ONE,
    bottom=_ZERO,
    add=_rat_add,
    mul=_rat_mul,
    ratio=_rat_ratio,
    add_mul=_rat_add_mul,
    mul_ratio=_rat_mul_ratio,
)

MAXPLUS = SemiringSpec(
    name="maxplus",
    one=0,
    bottom=None,
    add=_max_add,
    mul=_max_mul,
    ratio=_max_ratio,
)
