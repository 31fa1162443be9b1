"""The mutually inverse positive birational maps between the two charts.

Both maps are quotients of partial path sums, so positivity of the output
is automatic for positive input.  All boundary special cases live inside
:func:`pathcrystal.paths.partial_sum`.  The image is built as the input's
``chart_image``, which integer kinds lack.
"""

from .errors import ValidationError
from .paths import partial_sum


def _image_class(point):
    """The kind the chart maps send ``point`` to."""
    if point.chart_image is None:
        raise ValidationError("no chart image for a point of kind %r" % (point.kind,))
    return point.chart_image


def sigma_map(x):
    """Forward map x -> y; the image satisfies y_k^(m) = X_k^m."""
    image = _image_class(x)
    shape, sr = x.shape, x.semiring
    entries = {}
    for (l, m) in shape.l2_indices:
        entries[(l, m)] = sr.mul_ratio(
            x.get(l + 1, m), partial_sum(x, "X", l, m), partial_sum(x, "X", l + 1, m)
        )
    return image(shape, entries)


def xi_map(y):
    """Inverse map y -> x."""
    image = _image_class(y)
    shape, sr = y.shape, y.semiring
    entries = {}
    for (l, m) in shape.l1_indices:
        entries[(l, m)] = sr.mul_ratio(
            y.get(l, m), partial_sum(y, "Ystar", l - 1, m), partial_sum(y, "Ystar", l, m)
        )
    return image(shape, entries)
