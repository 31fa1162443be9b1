"""Crystal structure on both charts: actions, invariants, Weyl reflections.

The chart carrying x-coordinates has actions indexed by 1..n plus an
induced 0-action; the chart carrying y-coordinates has actions indexed by
0..n-1.  Together they assemble the full affine family, whose defining
relations :func:`pathcrystal.suites.suite_axioms` checks at random points.
:func:`dval`, :func:`gamma`, :func:`epsilon` and :func:`act_e`
take a point of either chart: both use the same diagonal-product formulas
and differ only in the rows an index moves (:func:`bounds_row1` or
:func:`bounds_row2`, chosen by the point's ``side``); only the x-chart's
0-action has formulas of its own.

Everything indexed by 1..n is written against the generic semiring of the
point, so the same code yields the exact rational action on an
:class:`~pathcrystal.lattice.XPoint` and the piecewise-linear action on a
:class:`~pathcrystal.lattice.TropPoint`; the closed-form integer versions in
:mod:`pathcrystal.tropical` are the independent second route.
"""

from fractions import Fraction

from .birational import sigma_map, xi_map
from .errors import ValidationError
from .paths import epsilon_total, region_sums


class CartanA1n:
    """Cartan data of the affine family on index set {0, ..., n}."""

    def __init__(self, n):
        if n < 2:
            raise ValidationError("the Cartan matrix needs n >= 2")
        self.n = n

    def a(self, i, j):
        if i == j:
            return 2
        if (i - j) % (self.n + 1) in (1, self.n):
            return -1
        return 0

    @property
    def entries(self):
        size = self.n + 1
        return [[self.a(i, j) for j in range(size)] for i in range(size)]


def bounds_row1(shape, i):
    """Row range of the entries moved by the i-th action on the x-chart."""
    if not 1 <= i <= shape.n:
        raise ValidationError("index i must be in 1..n, got %r" % (i,))
    return max(shape.k - i + 1, 1), min(shape.k, shape.n - i + 1)


def bounds_row2(shape, i):
    """Row range of the entries moved by the i-th action on the y-chart."""
    if not 0 <= i <= shape.n - 1:
        raise ValidationError("index i must be in 0..n-1, got %r" % (i,))
    return max(shape.k - i, 1), min(shape.k, shape.n - i)


def _bounds(x, i):
    """Row range of the entries moved by the i-th action on the chart of x."""
    if x.side == 1:
        return bounds_row1(x.shape, i)
    return bounds_row2(x.shape, i)


def _x_zero(x, i):
    """True for the induced 0-action of the x-chart; checks i on that chart."""
    if x.side == 2:
        return False
    x.shape.check_index(i)
    return i == 0


def _prod(sr, factors):
    out = sr.one
    for f in factors:
        out = sr.mul(out, f)
    return out


def dval(x, l, i):
    """Diagonal product at row l in column i (off-lattice factors read as 1)."""
    sr = x.semiring
    a, b = _bounds(x, i)
    if not a <= l <= b:
        raise ValidationError("row %d outside [%d, %d] for i=%d" % (l, a, b, i))
    num = _prod(sr, [x.get(j, i) for j in range(l + 1, b + 1)])
    num = sr.mul(x.get(l, i), sr.mul(num, num))
    den = sr.mul(
        _prod(sr, [x.get(j, i - 1) for j in range(l + 1, b + 2)]),
        _prod(sr, [x.get(j, i + 1) for j in range(l, b + 1)]),
    )
    return sr.ratio(num, den)


def gamma(x, i):
    """Multiplier character of the i-th action."""
    shape, sr = x.shape, x.semiring
    if _x_zero(x, i):
        return sr.inv(sr.mul(x.get(1, shape.n), x.get(shape.k, 1)))
    a, b = _bounds(x, i)
    num = _prod(sr, [x.get(j, i) for j in range(a, b + 1)])
    num = sr.mul(num, num)
    den = sr.mul(
        _prod(sr, [x.get(j, i - 1) for j in range(a, b + 2)]),
        _prod(sr, [x.get(j, i + 1) for j in range(a - 1, b + 1)]),
    )
    return sr.ratio(num, den)


def epsilon(x, i):
    shape, sr = x.shape, x.semiring
    if _x_zero(x, i):
        return sr.mul(x.get(1, shape.n), epsilon_total(x))
    a, b = _bounds(x, i)
    return sr.add_all(sr.inv(dval(x, l, i)) for l in range(a, b + 1))


def _alpha(x, l, m, c):
    """U_(l-1) + c * V_l, the region combination driving the 0-action."""
    sr = x.semiring
    upper, _, _ = region_sums(x, l - 1, m)
    _, lower, _ = region_sums(x, l, m)
    return sr.add(upper, sr.mul(c, lower))


def act_e(x, i, c):
    """The i-th one-parameter action on either chart (rational or tropical)."""
    shape, sr = x.shape, x.semiring
    zero = _x_zero(x, i)
    if sr.name == "rational":
        c = Fraction(c)
        if c <= 0:
            raise ValidationError("the action parameter must be positive")
    entries = dict(x.entries)
    if zero:
        for (l, m) in shape.l1_indices:
            if (l, m) == (1, shape.n):
                entries[(l, m)] = sr.ratio(x.get(l, m), c)
            else:
                ratio = sr.ratio(_alpha(x, l, m, c), _alpha(x, l + 1, m, c))
                entries[(l, m)] = sr.mul(x.get(l, m), ratio)
    else:
        a, b = _bounds(x, i)
        terms = {p: sr.inv(dval(x, p, i)) for p in range(a, b + 1)}
        for l in range(a, b + 1):
            num = sr.add_all(
                [terms[p] for p in range(a, l)]
                + [sr.mul(c, terms[p]) for p in range(l, b + 1)]
            )
            den = sr.add_all(
                [terms[p] for p in range(a, l + 1)]
                + [sr.mul(c, terms[p]) for p in range(l + 1, b + 1)]
            )
            entries[(l, i)] = sr.mul(x.get(l, i), sr.ratio(num, den))
    return type(x)(shape, entries)


def act_e0_via_sigma(x, c):
    """0-action routed through the chart change; must match act_e(x, 0, c)."""
    return xi_map(act_e(sigma_map(x), 0, c))


# ---------------------------------------------------------------------------
# Weyl group


def _fval(x, p, i, a):
    """Companion product to dval entering the closed reflection formula.

    Equals gamma_i divided by the diagonal product at row p; the
    denominator ranges start one step earlier than dval's so that the
    boundary factors cancel correctly for every i, not just i = k.
    """
    sr = x.semiring
    num = _prod(sr, [x.get(j, i) for j in range(a, p)])
    num = sr.mul(x.get(p, i), sr.mul(num, num))
    den = sr.mul(
        _prod(sr, [x.get(j, i - 1) for j in range(a, p + 1)]),
        _prod(sr, [x.get(j, i + 1) for j in range(a - 1, p)]),
    )
    return sr.ratio(num, den)


def weyl_s(x, i):
    """Simple reflection, in closed form; equals act_e(x, i, 1/gamma_i(x))."""
    shape, sr = x.shape, x.semiring
    shape.check_index(i)
    entries = dict(x.entries)
    if i == 0:
        scale = sr.mul(x.get(1, shape.n), x.get(shape.k, 1))
        for (l, m) in shape.l1_indices:
            if (l, m) == (1, shape.n):
                entries[(l, m)] = sr.inv(x.get(shape.k, 1))
            else:
                ratio = sr.ratio(_alpha(x, l, m, scale), _alpha(x, l + 1, m, scale))
                entries[(l, m)] = sr.mul(x.get(l, m), ratio)
    else:
        a, b = bounds_row1(shape, i)
        fvals = {p: _fval(x, p, i, a) for p in range(a, b + 1)}
        dinvs = {p: sr.inv(dval(x, p, i)) for p in range(a, b + 1)}
        for l in range(a, b + 1):
            num = sr.add_all(
                [fvals[p] for p in range(a, l)] + [dinvs[p] for p in range(l, b + 1)]
            )
            den = sr.add_all(
                [fvals[p] for p in range(a, l + 1)] + [dinvs[p] for p in range(l + 1, b + 1)]
            )
            entries[(l, i)] = sr.mul(x.get(l, i), sr.ratio(num, den))
    return type(x)(shape, entries)


def weyl_s_def(x, i):
    """Definitional route for the reflection: the action at parameter 1/gamma."""
    return act_e(x, i, x.semiring.inv(gamma(x, i)))
