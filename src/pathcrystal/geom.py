"""Crystal structure on both charts: actions, invariants, Weyl reflections.

The chart carrying x-coordinates has actions indexed by 1..n plus an
induced 0-action; the chart carrying y-coordinates has actions indexed by
0..n-1.  Together they assemble the full affine family, whose defining
relations :func:`pathcrystal.suites.suite_axioms` checks at random points.
:func:`dval`, :func:`gamma`, :func:`epsilon`, :func:`act_e` and
:func:`weyl_s` take a point of either chart or a tropical point, checked
first at every index (:func:`.lattice._check_kind`): they use the same
diagonal-product formulas and differ only in the rows an index moves,
which the shape gives as ``shape.column(x.side, i)``; only the x-chart's
0-action has formulas of its own.  The Cartan matrix is ``shape.cartan``.

Everything indexed by 1..n is written against the generic semiring of the
point, so the same code yields the exact rational action on an ``x`` point
and the piecewise-linear action on a ``trop`` point, whose ``value`` check
reads the action parameter; the closed-form integer versions in
:mod:`pathcrystal.tropical` are the independent second route.

Every action, reflection and epsilon that the diagonal-product formulas
define costs O(rows) semiring operations, where rows is the number of
entries the index moves; :func:`dval` is the per-row definition, and the
hot paths never call it.
Consecutive diagonal products differ by one factor,
``dval(l) = dval(l+1) * x(l,i) x(l+1,i) / (x(l+1,i-1) x(l,i+1))``, so one
pass from the top moved row b down to the bottom one a gives every
``t_p = 1/dval(p)``.  With ``num_l = sum_{p<l} t_p + c * sum_{p>=l} t_p``,
the action moves row l by ``num_l / num_(l+1)``; one prefix and one suffix
sum give every num_l (:func:`_nums`), with ``add`` only, as max-plus has no
subtraction, and each moved entry is one ``mul_ratio(x, num_l, num_(l+1))``.
The reflection's ``f(p) = gamma_i / dval(p)`` use the same factor the
other way, ``f(p) = f(p-1) * x(p,i) x(p-1,i) / (x(p,i-1) x(p-1,i+1))``.
The x-chart's 0-action instead builds, for every moved entry, two region
combinations ``alpha_l = add_mul(U_(l-1), c, V_l)`` (:func:`_alpha`) from
four reads of the memoized :func:`region_sums`, and writes the entry as
``mul_ratio(x(l, m), alpha_l, alpha_(l+1))``; the x-chart's 0-reflection is
that action at ``1/gamma_0``.

These pairs are compared by the suites and stay independent routes:
:func:`weyl_s` against :func:`weyl_s_def` (the action at 1/gamma) at
i = 1..n, where the closed form keeps its own f-values and never calls
:func:`act_e`; :func:`act_e` on integer points against
:func:`pathcrystal.tropical.trop_e` at i = 1..n (the ``udprobe`` suite's
``maxplus-action``); and the x-chart's 0-action against the y-chart's
through the chart change (the ``intertwine`` suite at i = 0), so this
module never calls the chart maps.
"""

from functools import reduce
from itertools import accumulate

from .errors import ValidationError
from .lattice import TropPoint, XPoint, YPoint, _check_kind
from .paths import epsilon_total, region_sums


def _x_zero(x, i, what):
    """True for the induced 0-action of the x-chart; checks the kind, and i on that chart."""
    _check_kind(x, (XPoint, YPoint, TropPoint), what)
    if x.side == 2:
        return False
    x.shape.check_index(i)
    return i == 0


def _prod(sr, factors):
    """Semiring product of a list, starting from its first factor; the unit for none."""
    return reduce(sr.mul, factors) if factors else sr.one


def dval(x, l, i):
    """Diagonal product at row l in column i (off-lattice factors read as 1)."""
    _check_kind(x, (XPoint, YPoint, TropPoint), "dval")
    sr = x.semiring
    a, b = x.shape.column(x.side, i)
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
    zero = _x_zero(x, i, "gamma")
    shape, sr = x.shape, x.semiring
    if zero:
        return sr.inv(sr.mul(x.get(1, shape.n), x.get(shape.k, 1)))
    a, b = shape.column(x.side, i)
    num = _prod(sr, [x.get(j, i) for j in range(a, b + 1)])
    num = sr.mul(num, num)
    den = sr.mul(
        _prod(sr, [x.get(j, i - 1) for j in range(a, b + 2)]),
        _prod(sr, [x.get(j, i + 1) for j in range(a - 1, b + 1)]),
    )
    return sr.ratio(num, den)


def _row_steps(x, i, a, b):
    """dval(p - 1, i) / dval(p, i) for p in a+1..b: the factor between consecutive rows."""
    sr = x.semiring
    return [
        sr.ratio(
            sr.mul(x.get(p, i), x.get(p - 1, i)),
            sr.mul(x.get(p, i - 1), x.get(p - 1, i + 1)),
        )
        for p in range(a + 1, b + 1)
    ]


def _inv_dvals(x, i, b, steps):
    """1 / dval(p, i) for p in a..b, by one pass from row b down over ``steps``."""
    sr = x.semiring
    last = sr.ratio(sr.mul(x.get(b + 1, i - 1), x.get(b, i + 1)), x.get(b, i))
    return list(accumulate(reversed(steps), sr.ratio, initial=last))[::-1]


def _nums(sr, lower, upper):
    """num(j) = sum(lower[:j]) + sum(upper[j:]) for j in 0..r.

    One prefix and one suffix pass, with ``add`` only: max-plus has no
    subtraction.
    """
    prefix = list(accumulate(lower, sr.add))
    suffix = list(accumulate(reversed(upper), sr.add))[::-1]
    return suffix[:1] + [sr.add(p, s) for p, s in zip(prefix, suffix[1:])] + prefix[-1:]


def _move_rows(x, entries, i, a, nums):
    """Row l of column i becomes x(l, i) * num_l / num_(l+1), for l from a on."""
    mul_ratio = x.semiring.mul_ratio
    for l, num, den in zip(range(a, a + len(nums) - 1), nums, nums[1:]):
        entries[(l, i)] = mul_ratio(x.get(l, i), num, den)


def epsilon(x, i):
    zero = _x_zero(x, i, "epsilon")
    shape, sr = x.shape, x.semiring
    if zero:
        return sr.mul(x.get(1, shape.n), epsilon_total(x))
    a, b = shape.column(x.side, i)
    return sr.add_all(_inv_dvals(x, i, b, _row_steps(x, i, a, b)))


def _alpha(x, l, m, c):
    """U_(l-1) + c * V_l, the region combination driving the 0-action."""
    upper, _, _ = region_sums(x, l - 1, m)
    _, lower, _ = region_sums(x, l, m)
    return x.semiring.add_mul(upper, c, lower)


def act_e(x, i, c):
    """The i-th one-parameter action on either chart; the point's kind reads ``c``."""
    zero = _x_zero(x, i, "act_e")
    shape, sr = x.shape, x.semiring
    c = x.value(c)
    entries = dict(x.entries)
    if zero:
        for (l, m) in shape.l1_indices:
            if (l, m) == (1, shape.n):
                entries[(l, m)] = sr.ratio(x.get(l, m), c)
            else:
                entries[(l, m)] = sr.mul_ratio(
                    x.get(l, m), _alpha(x, l, m, c), _alpha(x, l + 1, m, c)
                )
    else:
        a, b = shape.column(x.side, i)
        terms = _inv_dvals(x, i, b, _row_steps(x, i, a, b))
        _move_rows(x, entries, i, a, _nums(sr, terms, [sr.mul(c, t) for t in terms]))
    return type(x)(shape, entries)


# ---------------------------------------------------------------------------
# Weyl group


def weyl_s(x, i):
    """Simple reflection, in closed form; equals act_e(x, i, 1/gamma_i(x)).

    The x-chart's 0-reflection is that action itself: its closed form would
    only put ``1/gamma_0 = x(1,n) x(k,1)`` into the 0-action's formulas.
    """
    if _x_zero(x, i, "weyl_s"):
        return act_e(x, i, x.semiring.inv(gamma(x, i)))
    sr = x.semiring
    entries = dict(x.entries)
    a, b = x.shape.column(x.side, i)
    steps = _row_steps(x, i, a, b)
    # f(p) = gamma_i / dval(p, i), one step per row up from row a
    first = sr.ratio(x.get(a, i), sr.mul(x.get(a, i - 1), x.get(a - 1, i + 1)))
    fvals = list(accumulate(steps, sr.mul, initial=first))
    _move_rows(x, entries, i, a, _nums(sr, fvals, _inv_dvals(x, i, b, steps)))
    return type(x)(x.shape, entries)


def weyl_s_def(x, i):
    """Definitional route for the reflection: the action at parameter 1/gamma."""
    _check_kind(x, (XPoint, YPoint, TropPoint), "weyl_s_def")
    return act_e(x, i, x.semiring.inv(gamma(x, i)))
