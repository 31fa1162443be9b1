"""Piecewise-linear crystal operations on integer points.

These are the closed forms of the ultra-discretized structure, written
directly in integer arithmetic.  For everything indexed 1..n they are an
independent second route beside the semiring-generic code in
:mod:`pathcrystal.geom` (same formulas, different code path); the 0-indexed
operations lean on the max-plus path engine for their region maxima.  The
closed forms call nothing in ``geom``; like it, they read the moved rows
from ``shape.column``.  Only the degree probe below calls ``geom``.

At i >= 1, :func:`trop_eps` and :func:`trop_e` cost O(rows) integer
operations, where rows is the number of entries the index moves.
:func:`_dbars` gives every ``trop_dbar`` of the column in one pass from its
last row b down to its first row a, from a running tail of sums, and :func:`trop_e` takes
``num_r = max(max(dbar[:r]), d + max(dbar[r:]))`` from one prefix and one
suffix maximum.  :func:`trop_dbar` is the per-row definition, which the
tests compare with that pass; the hot paths do not call it.

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
from itertools import accumulate

from .errors import CrystalFault, ValidationError, brief
from .lattice import TropPoint, XPoint
from .paths import _table, epsilon_total, region_sums
from .semiring import MAXPLUS, RATIONAL
from . import geom

PROBE_MAX_EXPONENT = 8


def trop_dbar(x, l, i):
    """Negated ultra-discretization of the diagonal product at (l, i)."""
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


def trop_wt(x, i):
    shape = x.shape
    shape.check_index(i)
    if i == 0:
        return -x.get(1, shape.n) - x.get(shape.k, 1)
    a, b = shape.column(1, i)
    return (
        2 * sum(x.get(j, i) for j in range(a, b + 1))
        - sum(x.get(j, i - 1) for j in range(a, b + 2))
        - sum(x.get(j, i + 1) for j in range(a - 1, b + 1))
    )


def trop_eps(x, i):
    shape = x.shape
    shape.check_index(i)
    if i == 0:
        return x.get(1, shape.n) + epsilon_total(x)
    return max(_dbars(x, i, *shape.column(1, i)))


def trop_e(x, i, d):
    """The d-th power of the i-th piecewise-linear action (d may be negative)."""
    shape = x.shape
    shape.check_index(i)
    d = x.value(d)
    entries = dict(x._entries)
    if i == 0:
        for (l, m) in shape.l1_indices:
            if (l, m) == (1, shape.n):
                entries[(l, m)] = x.get(l, m) - d
                continue
            up_hi, _, _ = region_sums(x, l - 1, m)
            up_lo, lo_hi, _ = region_sums(x, l, m)
            _, lo_lo, _ = region_sums(x, l + 1, m)
            num = MAXPLUS.add(up_hi, MAXPLUS.mul(d, lo_hi))
            den = MAXPLUS.add(up_lo, MAXPLUS.mul(d, lo_lo))
            entries[(l, m)] = x.get(l, m) + num - den
    else:
        a, b = shape.column(1, i)
        dbar = _dbars(x, i, a, b)
        # num_r = max(max(dbar[:r]), d + max(dbar[r:])); row a+r moves by num_r - num_(r+1)
        prefix = list(accumulate(dbar, max))
        suffix = list(accumulate(reversed(dbar), max))[::-1]
        nums = [d + suffix[0]] + [max(p, d + s) for p, s in zip(prefix, suffix[1:])] + prefix[-1:]
        for l, num, den in zip(range(a, b + 1), nums, nums[1:]):
            entries[(l, i)] += num - den
    return TropPoint(shape, entries)


def trop_weyl(x, i):
    """Piecewise-linear simple reflection."""
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
                "probe exponent at %r is %s, outside [-%d, %d]"
                % (key, brief(e), PROBE_MAX_EXPONENT, PROBE_MAX_EXPONENT)
            )
    return XPoint(
        exponents.shape, {key: _power(e, bits) for key, e in exponents.entries.items()}
    )


def probe_point(exponents):
    """The rational point with coordinates t**exponent.

    Memoized on the (frozen) exponents point, so every probe of one point
    reads the same rational point and its path tables.
    """
    return _table(exponents, "probe", _build_probe)


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
    raise ValidationError("unknown probe quantity %r" % (name,))


def probe_pairs(exponents, i, d):
    """(probe, tropical form) for gamma, epsilon and the action at ``t**d``."""
    return {
        "gamma": (ud_degree_probe("gamma", exponents, i), trop_wt(exponents, i)),
        "epsilon": (ud_degree_probe("epsilon", exponents, i), trop_eps(exponents, i)),
        "action": (ud_degree_probe("e", exponents, i, d), trop_e(exponents, i, d)),
    }
