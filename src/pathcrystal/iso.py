"""Bijection between integer points and the array crystal.

The map takes successive differences along each row (reading off-lattice
coordinates as 0), its inverse takes prefix sums; row sums vanish by
telescoping.  Both check their input's kind and build their images
unchecked (``_derived``): differences and sums of integers are integers,
on exactly the array's keys one way and the first lattice's the other.
The companion correspondence sends each increasing tuple to the full
lattice path whose row runs are delimited by the tuple, under which the
column functional of an image array equals the negated tropical path
weight.  Tuples and paths are plain tuples, so this module imports
neither the array crystal nor the path engine, and the ``iso`` suite's
``delta-path`` (``bkinf.delta`` against ``paths.path_weight`` of this
correspondence) compares modules that do not import one another.
:func:`pathcrystal.suites.suite_iso` checks that the bijection intertwines
all crystal data.
"""

from functools import cache

from .lattice import BElement, TropPoint, _check_ctuple, _check_kind


@cache
def _omega_keys(shape):
    """(array key, lattice key, left key) per array entry, built once per shape.

    ``b(j, i) = x(k+1-j, i) - x(k+1-j, i-1)``.
    """
    top = shape.k + 1
    return tuple(((j, i), (top - j, i), (top - j, i - 1)) for (j, i) in shape.b_indices)


def omega(x):
    """Row-difference map onto the array crystal."""
    _check_kind(x, TropPoint, "omega")
    shape = x.shape
    get = x._entries.get
    # row j telescopes to 0: its end columns j-1 and j+k' are off the lattice, so read 0
    return BElement._derived(shape, {
        key: get(here, 0) - get(left, 0) for key, here, left in _omega_keys(shape)
    })


def omega_inv(b):
    """Prefix-sum inverse of :func:`omega`: one running sum along each row."""
    _check_kind(b, BElement, "omega_inv")
    shape = b.shape
    values = b._entries
    entries = {}
    for l in range(1, shape.k + 1):
        row = shape.k - l + 1
        total = 0
        for m in range(row, shape.n + 2 - l):
            total += values[(row, m)]
            entries[(l, m)] = total
    # the keys are exactly l1_indices: row l runs over m = k-l+1..n+1-l
    return TropPoint._derived(shape, entries)


def pi_correspondence(shape, c):
    """Full path, as a tuple of points, whose run on each row is delimited by ``c``.

    ``c`` is a strictly increasing tuple of k+1 integers from 1 to n+1.
    """
    c = _check_ctuple(shape, c)
    return tuple(
        (shape.k - j + 1, m) for j in range(1, shape.k + 1) for m in range(c[j - 1], c[j])
    )
