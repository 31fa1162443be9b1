"""Bijection between integer points and the array crystal.

The map takes successive differences along each row (reading off-lattice
coordinates as 0), its inverse takes prefix sums; row sums vanish by
telescoping.  The companion correspondence sends each increasing tuple to
the full lattice path whose row runs are delimited by the tuple, under
which the column functional of an image array equals the negated tropical
path weight.  Tuples and paths are plain tuples, so this module imports
neither the array crystal nor the path engine, and the ``iso`` suite's
``delta-path`` (``bkinf.delta`` against ``paths.path_weight`` of this
correspondence) compares modules that do not import one another.
:func:`pathcrystal.suites.suite_iso` checks that the bijection intertwines
all crystal data.
"""

from .errors import ValidationError
from .lattice import BElement, TropPoint, _check_ctuple


def omega(x):
    """Row-difference map onto the array crystal."""
    if not isinstance(x, TropPoint):
        raise ValidationError("omega expects a tropical point")
    shape = x.shape
    get = x._entries.get
    top = shape.k + 1
    return BElement(shape, {
        (j, i): get((top - j, i), 0) - get((top - j, i - 1), 0) for (j, i) in shape.b_indices
    })


def omega_inv(b):
    """Prefix-sum inverse of :func:`omega`: one running sum along each row."""
    if not isinstance(b, BElement):
        raise ValidationError("omega_inv expects an array")
    shape = b.shape
    values = b._entries
    entries = {}
    for l in range(1, shape.k + 1):
        row = shape.k - l + 1
        total = 0
        for m in range(row, shape.n + 2 - l):
            total += values[(row, m)]
            entries[(l, m)] = total
    return TropPoint(shape, entries)


def pi_correspondence(shape, c):
    """Full path, as a tuple of points, whose run on each row is delimited by ``c``.

    ``c`` is a strictly increasing tuple of k+1 integers from 1 to n+1.
    """
    c = _check_ctuple(shape, c)
    return tuple(
        (shape.k - j + 1, m) for j in range(1, shape.k + 1) for m in range(c[j - 1], c[j])
    )
