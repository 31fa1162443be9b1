"""The minuscule-style module on k-subsets and the proportionality probe.

Basis keys are strictly increasing k-tuples in {1..n+1} (one-column
tableaux); a vector is a plain dict ``{key: Fraction}``.  One key rule
(:func:`_cycle_step`) moves a single entry one step along the cycle
1 -> 2 -> ... -> n+1 -> 1, the same at every index 0..n: f_i moves it
forward and e_i back.  It serves :func:`apply_gen` and the lowering passes
of :func:`chart_vector` alike, so operators are applied rule-by-rule
instead of through matrices.  The library builds every key itself;
:func:`unit_vector` checks a key given from outside.

``proportionality_probe`` compares the vector built from the x-chart with
the one built from the mapped y-chart: whether they are exactly
proportional, and with which scalar.  The ``conjecture`` suite gates the
scalar ``1/x_(1,n)`` at every k.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .birational import sigma_map
from .errors import ValidationError

PROBE_DIMENSION_CAP = 10_000


def _validate_key(shape, key):
    if len(key) != shape.k:
        raise ValidationError("basis key %r must have %d entries" % (key, shape.k))
    if any(not isinstance(v, int) or isinstance(v, bool) for v in key):
        raise ValidationError("basis key %r must have integer entries" % (key,))
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
    """The basis vector of ``key``, the one check of a key given from outside."""
    key = tuple(key)
    _validate_key(shape, key)
    return {key: Fraction(1)}


def _cycle_step(shape, i):
    """The pair (low, high): f_i turns entry low into high, e_i does the reverse.

    Steps run along the cycle 1 -> 2 -> ... -> n+1 -> 1 with i = 0 read as
    n+1, so f_0 turns n+1 into 1.
    """
    low = i or shape.n + 1
    return low, low % (shape.n + 1) + 1


def _moved(key, old, new):
    return tuple(sorted(new if entry == old else entry for entry in key))


def apply_gen(shape, v, gen, i):
    """Apply e_i or f_i linearly to the vector ``v``, at any i in 0..n.

    Each generator is injective on the keys it moves (the other one undoes
    the move), so no two terms land on one key and nothing cancels.
    """
    shape.check_index(i)
    if gen not in ("e", "f"):
        raise ValidationError("unknown generator %r" % (gen,))
    low, high = _cycle_step(shape, i)
    old, new = (low, high) if gen == "f" else (high, low)
    return {_moved(key, old, new): a for key, a in v.items() if old in key and new not in key}


def chart_vector(point):
    """Vector attached to an x- or y-chart point.

    The highest vector of the point's side, lowered by one pass per
    coordinate c at index m in index order (on the y-chart index 0
    participates): the torus at c, then 1 + (1/c) f_m.  The torus weight is
    +1 exactly where f_m applies and -1 exactly where e_m applies, so a key
    that f_m moves keeps c*a and its image gains a, a key that e_m moves
    keeps a/c, and any other key keeps a.
    """
    if point.kind not in ("x", "y"):
        raise ValidationError("chart_vector takes an x or y point, got kind %r" % (point.kind,))
    shape = point.shape
    highest = highest_u1 if point.side == 1 else highest_u2
    v = unit_vector(shape, highest(shape))
    for l, m in shape.indices(point.side):
        c = point.get(l, m)
        low, high = _cycle_step(shape, m)
        out, images = {}, {}
        for key, a in v.items():
            if low in key and high not in key:
                out[key] = c * a
                images[_moved(key, low, high)] = a
            elif high in key and low not in key:
                out[key] = a / c
            else:
                out[key] = a
        for key, a in images.items():
            out[key] = out.get(key, 0) + a
        v = out
    return v


def proportionality_probe(x):
    """Compare v2 of the mapped point against v1.

    Returns ``{"proportional": bool, "ratio": v2 / v1 or None}``.
    """
    _check_dimension(x.shape, "probe")
    v1 = chart_vector(x)
    v2 = chart_vector(sigma_map(x))
    if v1.keys() == v2.keys():
        ratios = {v2[key] / v1[key] for key in v1}
        if len(ratios) == 1:
            return {"proportional": True, "ratio": ratios.pop()}
    return {"proportional": False, "ratio": None}
