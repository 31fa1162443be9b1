"""Piecewise-linear crystal operations on integer points.

These are the closed forms of the ultra-discretized structure, written
directly in integer arithmetic.  For everything indexed 1..n they are an
independent second route beside the semiring-generic code in
:mod:`pathcrystal.geom` (same formulas, different code path); the 0-indexed
operations lean on the max-plus path engine for their region maxima.  The
closed forms call nothing in ``geom``; like it, they read the moved rows
from ``shape.column``.  Only the degree probe below calls ``geom``.

Row a+r of a column the action moves changes by ``alpha_r - alpha_(r+1)``.
At i >= 1 only column i moves, with
``alpha_r = max(max(dbar[:r]), d + max(dbar[r:]))``: :func:`_dbars` gives
every ``trop_dbar`` of the column in one pass from its last row b down to
its first row a, from a running tail of sums, and :func:`_maxima` their
prefix and suffix maxima.  At i = 0 every column m moves, with
``alpha_r = max(U(a+r-1, m), d + V(a+r, m))`` over the region sums of the
max-plus path engine (:func:`_region_pairs`).  :func:`trop_dbar` is the
per-row definition, which the tests compare with that pass; the hot paths
do not call it.

A point keeps what does not depend on d, once per index, in the store of
:func:`.lattice._table`, under keys that start with ``"tropical"``: the
maxima of each column i >= 1, the region pairs of every column, and
``trop_wt`` at each index.  Each is an integer or a tuple of at most
2 * entries integers.  So :func:`trop_eps` at i >= 1 is one lookup, and
:func:`trop_e` combines the kept data with d in O(rows) integer operations
at i >= 1 and O(entries) at i = 0, where rows is the number of entries the
index moves.  Nothing that depends on d is kept.  :func:`probe_point`
keeps its rational point in the same store.

Every function here rejects a point that is not tropical before it reads
one.  :func:`trop_e` builds its image unchecked (``TropPoint._derived``):
it is integer arithmetic on the entries of a checked tropical point and
the checked parameter d, on the keys copied from the input.

``ud_degree_probe`` ties the tropical side back to the rational one: it
evaluates a named rational quantity at coordinates ``t**exponent`` with
``t = 2**bits`` and extracts the leading exponent, which must equal the
tropical closed form.  The base is sized to the shape: with P its number
of full paths (``shape.check_full_paths``, at most ``PATH_CAP``),
``bits = probe_bits(shape) = 4 * (P.bit_length() + 1)``.  Each probed
quantity is a monomial times a ratio of subtraction-free sums of at most
P monomials in t, each with coefficient 1, so its value lies within a
factor P of ``t**deg`` either way.  The bit lengths of a reduced
fraction's numerator and denominator are each within one bit of their
logarithms, so their difference stays below log2(P) + 1 <= bits / 4 from
``bits * deg``: :func:`degree_of` rounds it exactly, and a residual past
``bits // 4`` is a fault, not an input to round.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate

from .errors import CrystalFault, ValidationError, brief
from .lattice import TropPoint, XPoint, _check_kind, _table
from .paths import epsilon_total, region_sums
from .semiring import RATIONAL
from . import geom

PROBE_MAX_EXPONENT = 8


def trop_dbar(x, l, i):
    """Negated ultra-discretization of the diagonal product at (l, i)."""
    _check_kind(x, TropPoint, "trop_dbar")
    a, b = x.shape.column(1, i)
    if not a <= l <= b:
        raise ValidationError("row %d outside [%d, %d] for i=%d" % (l, a, b, i))
    return (
        -x.get(l, i)
        - 2 * sum(x.get(j, i) for j in range(l + 1, b + 1))
        + sum(x.get(j, i - 1) for j in range(l + 1, b + 2))
        + sum(x.get(j, i + 1) for j in range(l, b + 1))
    )


def _dbars(x, i, a, b):
    """``[trop_dbar(x, l, i) for l in a..b]``, in one pass from row b down.

    With the running tail ``T(b) = x(b+1, i-1)`` and
    ``T(l-1) = T(l) + x(l, i-1) + x(l, i+1) - 2 x(l, i)``,
    ``dbar(l) = T(l) - x(l, i) + x(l, i+1)``.
    """
    get = x._entries.get
    tail = get((b + 1, i - 1), 0)
    out = []
    for l in range(b, a - 1, -1):
        here, right = get((l, i), 0), get((l, i + 1), 0)
        out.append(tail - here + right)
        tail += get((l, i - 1), 0) + right - 2 * here
    return out[::-1]


def _weight(x, i):
    """``trop_wt(x, i)``, from the entries."""
    shape = x.shape
    if i == 0:
        return -x.get(1, shape.n) - x.get(shape.k, 1)
    a, b = shape.column(1, i)
    return (
        2 * sum(x.get(j, i) for j in range(a, b + 1))
        - sum(x.get(j, i - 1) for j in range(a, b + 2))
        - sum(x.get(j, i + 1) for j in range(a - 1, b + 1))
    )


def _maxima(x, i):
    """Prefix and suffix maxima of :func:`_dbars` over column i >= 1."""
    dbar = _dbars(x, i, *x.shape.column(1, i))
    return tuple(accumulate(dbar, max)), tuple(accumulate(reversed(dbar), max))[::-1]


@cache
def _column_keys(shape):
    """The keys (a, m)..(b, m) of each column m in 1..n of the first lattice, once per shape."""
    columns = []
    for m in range(1, shape.n + 1):
        a, b = shape.column(1, m)
        columns.append(tuple((l, m) for l in range(a, b + 1)))
    return tuple(columns)


def _region_pairs(x):
    """Per column m in 1..n with rows a..b: ``U(a-1..b-1, m)`` and ``V(a+1..b+1, m)``.

    Each is read once from the region table.  ``V(a, m)`` and ``U(b, m)``
    are empty: no node of column m lies below row a or above row b.
    """
    return tuple(
        (
            tuple(region_sums(x, l - 1, m)[0] for l, m in column),
            tuple(region_sums(x, l + 1, m)[1] for l, m in column),
        )
        for column in _column_keys(x.shape)
    )


def trop_wt(x, i):
    _check_kind(x, TropPoint, "trop_wt")
    x.shape.check_index(i)
    return _table(x, ("tropical", "wt", i), _weight, i)


def trop_eps(x, i):
    _check_kind(x, TropPoint, "trop_eps")
    shape = x.shape
    shape.check_index(i)
    if i == 0:
        return x.get(1, shape.n) + epsilon_total(x)
    return _table(x, ("tropical", "maxima", i), _maxima, i)[0][-1]


def trop_e(x, i, d):
    """The d-th power of the i-th piecewise-linear action (d may be negative).

    Each moved column's alphas come from the data of index i the point
    keeps; see the module docstring.
    """
    _check_kind(x, TropPoint, "trop_e")
    shape = x.shape
    shape.check_index(i)
    d = x.value(d)
    entries = dict(x._entries)
    keys = _column_keys(shape)
    if i == 0:
        regions = _table(x, ("tropical", "regions"), _region_pairs)
        moves = [
            (column, [above[0], *[max(u, d + v) for u, v in zip(above[1:], below)], d + below[-1]])
            for column, (above, below) in zip(keys, regions)
        ]
    else:
        prefix, suffix = _table(x, ("tropical", "maxima", i), _maxima, i)
        inner = [max(p, d + s) for p, s in zip(prefix, suffix[1:])]
        moves = [(keys[i - 1], [d + suffix[0], *inner, prefix[-1]])]
    for column, alpha in moves:
        for key, num, den in zip(column, alpha, alpha[1:]):
            entries[key] += num - den
    # integer arithmetic on x's entries and the checked d, on the keys copied from x
    return TropPoint._derived(shape, entries)


def trop_weyl(x, i):
    """Piecewise-linear simple reflection."""
    _check_kind(x, TropPoint, "trop_weyl")
    return trop_e(x, i, -trop_wt(x, i))


# ---------------------------------------------------------------------------
# degree probe


def probe_bits(shape):
    """Bits of the probe base at ``shape``: 4 * (P.bit_length() + 1), P its full paths.

    Rejects a shape with more than ``PATH_CAP`` full paths.
    """
    return 4 * (shape.check_full_paths().bit_length() + 1)


def _power(exp, bits):
    """``t**exp`` for ``t = 2**bits``; the semiring's own one at exponent 0."""
    if exp > 0:
        return Fraction(1 << (bits * exp))
    if exp < 0:
        return Fraction(1, 1 << (bits * -exp))
    return RATIONAL.one


def _build_probe(exponents):
    bits = probe_bits(exponents.shape)
    for key, e in exponents.entries.items():
        if abs(e) > PROBE_MAX_EXPONENT:
            raise ValidationError(
                "probe exponent at %s is %s, outside [-%d, %d]"
                % (brief(key), brief(e), PROBE_MAX_EXPONENT, PROBE_MAX_EXPONENT)
            )
    return XPoint(
        exponents.shape, {key: _power(e, bits) for key, e in exponents.entries.items()}
    )


def probe_point(exponents):
    """The rational point with coordinates t**exponent.

    Memoized on the (frozen) exponents point, so every probe of one point
    reads the same rational point and its path tables.
    """
    _check_kind(exponents, TropPoint, "probe_point")
    return _table(exponents, ("tropical", "probe"), _build_probe)


def degree_of(value, bits):
    """Rounded base-``2**bits`` logarithm of a positive rational, via bit lengths."""
    num, den = value.numerator, value.denominator
    if num <= 0:
        raise ValidationError("degree probe needs a positive value")
    diff = num.bit_length() - den.bit_length()
    deg = (diff + bits // 2) // bits
    if abs(diff - bits * deg) > bits // 4:
        raise CrystalFault(
            "degree probe residual too large (bit-length difference %d, deg %d, base 2**%d)"
            % (diff, deg, bits),
            witness={"diff": diff, "deg": deg, "bits": bits},
        )
    return deg


def ud_degree_probe(name, exponents, i, d=0):
    """Leading exponent of a named rational quantity at a power point.

    ``name`` is one of ``"gamma"``, ``"epsilon"`` or ``"e"``; for ``"e"``
    the result is the point of leading exponents of the action at
    parameter ``t**d``, one coordinate per entry.  ``d`` is bounded like
    the exponents, since ``t**d`` has ``bits * |d|`` bits.
    """
    _check_kind(exponents, TropPoint, "ud_degree_probe")
    if abs(d) > PROBE_MAX_EXPONENT:
        bound = PROBE_MAX_EXPONENT
        raise ValidationError(
            "probe parameter d is %s, outside [-%d, %d]" % (brief(d), bound, bound)
        )
    big = probe_point(exponents)
    bits = probe_bits(exponents.shape)
    if name == "gamma":
        return degree_of(geom.gamma(big, i), bits)
    if name == "epsilon":
        return degree_of(geom.epsilon(big, i), bits)
    if name == "e":
        moved = geom.act_e(big, i, _power(d, bits))
        return TropPoint(
            exponents.shape, {key: degree_of(v, bits) for key, v in moved.entries.items()}
        )
    raise ValidationError("unknown probe quantity %s" % brief(name))


def probe_pairs(exponents, i, d):
    """(probe, tropical form) for gamma, epsilon and the action at ``t**d``."""
    _check_kind(exponents, TropPoint, "probe_pairs")
    return {
        "gamma": (ud_degree_probe("gamma", exponents, i), trop_wt(exponents, i)),
        "epsilon": (ud_degree_probe("epsilon", exponents, i), trop_eps(exponents, i)),
        "action": (ud_degree_probe("e", exponents, i, d), trop_e(exponents, i, d)),
    }
