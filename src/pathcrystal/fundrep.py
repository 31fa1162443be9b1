"""The minuscule-style module on k-subsets and the proportionality probe.

Basis vectors are strictly increasing k-tuples in {1..n+1} (one-column
tableaux); vectors are sparse rational combinations.  Generators act by
moving a single entry one step along the cycle 1 -> 2 -> ... -> n+1 -> 1,
the same rule at every index 0..n, so operators are applied rule-by-rule
instead of through matrices.

``proportionality_probe`` compares the vector built from the x-chart with
the one built from the mapped y-chart: whether they are exactly
proportional, and with which scalar.  The ``conjecture`` suite gates the
scalar ``1/x_(1,n)`` at every k.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .birational import sigma_map
from .errors import CrystalFault, ValidationError

PROBE_DIMENSION_CAP = 10_000


class FundVector:
    """Sparse vector keyed by strictly increasing k-tuples."""

    def __init__(self, shape, coeffs):
        self.shape = shape
        self.coeffs = {}
        for key, value in dict(coeffs).items():
            key = tuple(key)
            _validate_key(shape, key)
            value = Fraction(value)
            if value != 0:
                self.coeffs[key] = value

    def __eq__(self, other):
        return (
            isinstance(other, FundVector)
            and self.shape == other.shape
            and self.coeffs == other.coeffs
        )

    def is_zero(self):
        return not self.coeffs

    def scaled(self, factor):
        factor = Fraction(factor)
        return FundVector(self.shape, {k: v * factor for k, v in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, value in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + value
        return FundVector(self.shape, out)

    def __repr__(self):
        body = " + ".join(
            "%s*%s" % (v, "".join(map(str, k))) for k, v in sorted(self.coeffs.items())
        )
        return "FundVector(%s)" % (body or "0")


def _validate_key(shape, key):
    if len(key) != shape.k:
        raise ValidationError("basis key %r must have %d entries" % (key, shape.k))
    if any(not 1 <= v <= shape.n + 1 for v in key):
        raise ValidationError("basis key %r has entries outside 1..n+1" % (key,))
    if any(a >= b for a, b in zip(key, key[1:])):
        raise ValidationError("basis key %r must be strictly increasing" % (key,))


def _check_dimension(shape, what):
    """Reject a module of dimension binomial(n+1, k) above :data:`PROBE_DIMENSION_CAP`."""
    if comb(shape.n + 1, shape.k) > PROBE_DIMENSION_CAP:
        raise ValidationError("%s limited to dimension at most %d" % (what, PROBE_DIMENSION_CAP))


def basis_keys(shape):
    _check_dimension(shape, "k-subset basis")
    return [tuple(c) for c in combinations(range(1, shape.n + 2), shape.k)]


def highest_u1(shape):
    return tuple(range(1, shape.k + 1))


def highest_u2(shape):
    return tuple(range(1, shape.k)) + (shape.n + 1,)


def unit_vector(shape, key):
    return FundVector(shape, {tuple(key): Fraction(1)})


def _gen_key_image(shape, key, gen, i):
    """Image basis key under a raising/lowering generator, or None.

    f_i replaces entry i by i+1 and e_i does the reverse, with i = 0 read as
    n+1 on the affine cycle 1 -> 2 -> ... -> n+1 -> 1: f_0 turns n+1 into 1.
    """
    low = i or shape.n + 1
    high = low % (shape.n + 1) + 1
    old, new = (low, high) if gen == "f" else (high, low)
    members = set(key)
    if old in members and new not in members:
        return tuple(sorted(members - {old} | {new}))
    return None


def _alpha_exponent(shape, key, i):
    # weight +1 exactly when the lowering generator applies, -1 for raising
    if _gen_key_image(shape, key, "f", i) is not None:
        return 1
    if _gen_key_image(shape, key, "e", i) is not None:
        return -1
    return 0


def apply_gen(v, gen, i, c=None):
    """Apply e_i, f_i or the torus element at parameter c, linearly, at any i in 0..n."""
    shape = v.shape
    shape.check_index(i)
    if gen in ("e", "f"):
        out = {}
        for key, value in v.coeffs.items():
            image = _gen_key_image(shape, key, gen, i)
            if image is not None:
                out[image] = out.get(image, Fraction(0)) + value
        return FundVector(shape, out)
    if gen == "alpha":
        if c is None or Fraction(c) <= 0:
            raise ValidationError("the torus parameter must be positive")
        c = Fraction(c)
        return FundVector(
            shape,
            {key: value * c ** _alpha_exponent(shape, key, i) for key, value in v.coeffs.items()},
        )
    raise ValidationError("unknown generator %r" % (gen,))


def lowering_factor(v, i, c):
    """One product factor: torus at c followed by 1 + (1/c) f_i."""
    c = Fraction(c)
    scaled = apply_gen(v, "alpha", i, c)
    return scaled + apply_gen(scaled, "f", i).scaled(1 / c)


def chart_vector(point):
    """Vector attached to an x- or y-chart point.

    The highest vector of the point's side, lowered by one factor per
    coordinate in index order; on the y-chart index 0 participates.
    """
    if point.kind not in ("x", "y"):
        raise ValidationError("chart_vector takes an x or y point, got kind %r" % (point.kind,))
    shape = point.shape
    highest = highest_u1 if point.side == 1 else highest_u2
    v = unit_vector(shape, highest(shape))
    for l, m in shape.indices(point.side):
        v = lowering_factor(v, m, point.get(l, m))
    return v


def proportionality_probe(x):
    """Compare v2 of the mapped point against v1.

    Returns ``{"proportional": bool, "ratio": v2 / v1 or None}``.
    """
    _check_dimension(x.shape, "probe")
    v1 = chart_vector(x)
    v2 = chart_vector(sigma_map(x))
    if v1.is_zero() or v2.is_zero():
        raise CrystalFault("probe vectors must be nonzero for positive points")
    if set(v1.coeffs) == set(v2.coeffs):
        ratios = {v2.coeffs[key] / v1.coeffs[key] for key in v1.coeffs}
        if len(ratios) == 1:
            return {"proportional": True, "ratio": ratios.pop()}
    return {"proportional": False, "ratio": None}
