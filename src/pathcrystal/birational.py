"""The mutually inverse positive birational maps between the two charts.

Both maps are quotients of partial path sums, so positivity of the output
is automatic for positive input.  All boundary special cases live inside
:func:`pathcrystal.paths.partial_sum`.  :func:`sigma_map` takes an x point
and :func:`xi_map` a y point (:func:`.lattice._check_kind`); the image is
built as the input's ``chart_image``.
"""

from .lattice import XPoint, YPoint, _check_kind
from .paths import partial_sum


def sigma_map(x):
    """Forward map x -> y; the image satisfies y_k^(m) = X_k^m."""
    _check_kind(x, XPoint, "sigma_map")
    shape, sr = x.shape, x.semiring
    entries = {}
    for (l, m) in shape.l2_indices:
        entries[(l, m)] = sr.mul_ratio(
            x.get(l + 1, m), partial_sum(x, "X", l, m), partial_sum(x, "X", l + 1, m)
        )
    return x.chart_image(shape, entries)


def xi_map(y):
    """Inverse map y -> x."""
    _check_kind(y, YPoint, "xi_map")
    shape, sr = y.shape, y.semiring
    entries = {}
    for (l, m) in shape.l1_indices:
        entries[(l, m)] = sr.mul_ratio(
            y.get(l, m), partial_sum(y, "Ystar", l - 1, m), partial_sum(y, "Ystar", l, m)
        )
    return y.chart_image(shape, entries)
