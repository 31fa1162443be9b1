"""Bijection between integer points and the array crystal.

The map takes successive differences along each row (reading off-lattice
coordinates as 0), its inverse takes prefix sums; row sums vanish by
telescoping.  The companion correspondence sends each increasing tuple to
the full lattice path whose row runs are delimited by the tuple, under
which the column functional of an image array equals the negated tropical
path weight.  :func:`pathcrystal.suites.suite_iso` checks that the
bijection intertwines all crystal data.
"""

from .bkinf import BElement, CTuple
from .errors import ValidationError
from .lattice import TropPoint
from .paths import Path


def omega(x):
    """Row-difference map onto the array crystal."""
    if not isinstance(x, TropPoint):
        raise ValidationError("omega expects a tropical point")
    shape = x.shape
    entries = {}
    for (j, i) in BElement.domain(shape):
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
    """Full path whose run on each row is delimited by the tuple entries."""
    if not isinstance(c, CTuple):
        c = CTuple(shape, c)
    points = []
    for j in range(1, shape.k + 1):
        row = shape.k - j + 1
        for m in range(c[j - 1], c[j]):
            points.append((row, m))
    return Path(tuple(points))
