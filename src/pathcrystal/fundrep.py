"""The k-subset module: a minuscule-style module on the k-subsets of 1..n+1.

Basis keys are strictly increasing k-tuples in {1..n+1} (one-column
tableaux); a vector is a plain dict ``{key: Fraction}``.  One key rule
(:func:`_cycle_step`) moves a single entry one step along the cycle
1 -> 2 -> ... -> n+1 -> 1, the same at every index 0..n: f_i moves it
forward and e_i back.  :func:`apply_gen` applies it, also in the lowering
passes of :func:`chart_vector`, so operators act rule by rule instead of
through matrices.  The library builds every key itself; :func:`unit_vector`
checks a key given from outside by the increasing-tuple rule of :mod:`.lattice`.

The module imports only :mod:`.errors` and :mod:`.lattice`: it is a route
of its own, beside the chart maps, the path engine and the geometric
actions it is compared with.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import ValidationError
from .lattice import _check_increasing

# basis vectors, binomial(n+1, k), of a module that is built
DIMENSION_CAP = 10_000


def _check_dimension(shape):
    """Reject a module of dimension binomial(n+1, k) above :data:`DIMENSION_CAP`."""
    if comb(shape.n + 1, shape.k) > DIMENSION_CAP:
        raise ValidationError(
            "k-subset module limited to dimension at most %d, got binomial(%d, %d)"
            % (DIMENSION_CAP, shape.n + 1, shape.k)
        )


def basis_keys(shape):
    _check_dimension(shape)
    return [tuple(c) for c in combinations(range(1, shape.n + 2), shape.k)]


def highest_u1(shape):
    return tuple(range(1, shape.k + 1))


def highest_u2(shape):
    return tuple(range(1, shape.k)) + (shape.n + 1,)


def unit_vector(shape, key):
    """The basis vector of ``key``, the one check of a key given from outside."""
    return {_check_increasing(shape, key, shape.k): Fraction(1)}


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
    that f_m moves keeps c*a, a key that e_m moves keeps a/c, any other key
    keeps a, and ``apply_gen(shape, v, "f", m)`` is added.  The module's
    dimension is capped before any key is built.
    """
    if point.kind not in ("x", "y"):
        raise ValidationError("chart_vector takes an x or y point, got kind %r" % (point.kind,))
    shape = point.shape
    _check_dimension(shape)
    highest = highest_u1 if point.side == 1 else highest_u2
    v = unit_vector(shape, highest(shape))
    for l, m in shape.indices(point.side):
        c = point.get(l, m)
        low, high = _cycle_step(shape, m)
        out = {}
        for key, a in v.items():
            if low in key and high not in key:
                out[key] = c * a
            elif high in key and low not in key:
                out[key] = a / c
            else:
                out[key] = a
        for key, a in apply_gen(shape, v, "f", m).items():
            out[key] = out[key] + a if key in out else a
        v = out
    return v
