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
    entries = {}
    for (j, i) in shape.b_indices:
        row = shape.k - j + 1
        entries[(j, i)] = x.get(row, i) - x.get(row, i - 1)
    return BElement(shape, entries)


def omega_inv(b):
    """Prefix-sum inverse of :func:`omega`."""
    shape = b.shape
    entries = {}
    for (l, m) in shape.l1_indices:
        row = shape.k - l + 1
        entries[(l, m)] = sum(b.get(row, s) for s in range(row, m + 1))
    return TropPoint(shape, entries)


def pi_correspondence(shape, c):
    """Full path, as a tuple of points, whose run on each row is delimited by ``c``.

    ``c`` is a strictly increasing tuple of k+1 integers from 1 to n+1.
    """
    c = _check_ctuple(shape, c)
    return tuple(
        (shape.k - j + 1, m) for j in range(1, shape.k + 1) for m in range(c[j - 1], c[j])
    )
