"""Semiring-generic shortest-path weight engine on the two lattices.

All quantities are sums, over monotone lattice paths, of products of strip
weights.  Everything is computed twice in this library: once by dynamic
programming (the functions below) and once by explicit path enumeration
(the ``brute_*`` oracles), and the two must agree exactly in both
semirings.  The enumeration oracle is part of the shipped API, not a
test-only helper.

Boundary conventions of the partial sums (one layer only; point reads have
their own off-lattice convention in :mod:`.lattice`):

* ``X``  : 1 for rows above the lattice, ``1/x_1^(n)`` on the column left
  of the lattice, empty-sum bottom below row 1.
* ``X*`` : bottom outside the lattice (no path reaches those points).
* ``Y``  : mirror of ``X`` without the special column.
* ``Y*`` : ``1/y_k^(0)`` on row 0, 1 on the column right of the lattice,
  bottom above row k.

The ``Y*`` right-column value is forced by the inverse map: composing the
two birational maps reads ``Y*`` one column past the lattice, and the
round trip is the identity exactly when that read is 1.
"""

from dataclasses import dataclass

from .errors import ValidationError

PATH_CAP = 100_000


@dataclass(frozen=True)
class Path:
    """A monotone shortest path, stored as its full point sequence."""

    points: tuple

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValidationError("a path needs at least one point")
        for (l0, m0), (l1, m1) in zip(self.points, self.points[1:]):
            horizontal = (l1, m1) == (l0, m0 + 1)
            vertical = (l1, m1) == (l0 - 1, m0 + 1)
            if not (horizontal or vertical):
                raise ValidationError(
                    "illegal step (%d,%d) -> (%d,%d)" % (l0, m0, l1, m1)
                )

    @property
    def src(self):
        return self.points[0]

    @property
    def dst(self):
        return self.points[-1]

    def rows_at(self, l):
        """m-indices of the path's points on row l."""
        return [m for (r, m) in self.points if r == l]

    def to_json(self):
        return [[l, m] for (l, m) in self.points]


def _membership(shape, side):
    if side == 1:
        return shape.in_l1
    if side == 2:
        return shape.in_l2
    raise ValidationError("side must be 1 or 2, got %r" % (side,))


def enumerate_paths(shape, side, src, dst):
    """All monotone shortest paths from src to dst, each exactly once."""
    member = _membership(shape, side)
    if not member(*src):
        raise ValidationError("source %r not on lattice L%d" % (src, side))
    if not member(*dst):
        raise ValidationError("destination %r not on lattice L%d" % (dst, side))
    drop = src[0] - dst[0]
    advance = dst[1] - src[1]
    if drop < 0 or advance < 0 or drop > advance:
        return []
    out = []
    stack = [(src,)]
    while stack:
        prefix = stack.pop()
        l, m = prefix[-1]
        if (l, m) == dst:
            out.append(Path(prefix))
            if len(out) > PATH_CAP:
                raise ValidationError("more than %d paths" % PATH_CAP)
            continue
        if m >= dst[1]:
            continue
        for nxt in ((l, m + 1), (l - 1, m + 1)):
            if member(*nxt) and nxt[0] >= dst[0] and nxt[0] - dst[0] <= dst[1] - nxt[1]:
                stack.append(prefix + (nxt,))
    out.sort(key=lambda p: p.points)
    return out


def full_path_endpoints(shape, side):
    """Source and sink of the full paths on the requested lattice."""
    if side == 1:
        return (shape.k, 1), (1, shape.n)
    if side == 2:
        return (shape.k, 0), (1, shape.n - 1)
    raise ValidationError("side must be 1 or 2, got %r" % (side,))


def _point_side(point):
    side = getattr(point, "side", None)
    if side is None:
        raise ValidationError("not a lattice point: %r" % (point,))
    return side


def path_weight(point, path):
    """Semiring product of the strip weights of ``path`` under ``point``."""
    side = _point_side(point)
    member = _membership(point.shape, side)
    for pt in path.points:
        if not member(*pt):
            raise ValidationError("path point %r is off lattice L%d" % (pt, side))
    sr = point.semiring
    weight = sr.one
    for (l0, m0), (l1, m1) in zip(path.points, path.points[1:]):
        if side == 1:
            if l1 == l0:  # horizontal strips carry the coordinate ratio
                weight = sr.mul(weight, sr.ratio(point.get(l0, m0), point.get(l0, m0 + 1)))
        else:
            if l1 == l0 - 1:  # vertical strips carry the ratio on this side
                weight = sr.mul(weight, sr.ratio(point.get(l0 - 1, m0 + 1), point.get(l0, m0)))
    return weight


# ---------------------------------------------------------------------------
# dynamic-programming tables, memoized per point


def _table(point, name, builder):
    if name not in point._tables:
        point._tables[name] = builder(point)
    return point._tables[name]


def _build_x(point):
    shape, sr = point.shape, point.semiring
    n = shape.n
    table = {}
    for l, m in sorted(shape.l1_indices, key=lambda lm: -lm[1]):
        if l + m == n + 1:
            table[(l, m)] = sr.one
            continue
        above = table.get((l - 1, m + 1), sr.bottom) if shape.in_l1(l - 1, m + 1) else sr.bottom
        step = sr.ratio(point.get(l, m), point.get(l, m + 1))
        table[(l, m)] = sr.add(above, sr.mul(step, table[(l, m + 1)]))
    return table


def _build_xstar(point):
    shape, sr = point.shape, point.semiring
    k = shape.k
    table = {}
    for l, m in sorted(shape.l1_indices, key=lambda lm: lm[1]):
        if (l, m) == (k, 1):
            table[(l, m)] = sr.one
            continue
        vert = table.get((l + 1, m - 1), sr.bottom) if shape.in_l1(l + 1, m - 1) else sr.bottom
        if shape.in_l1(l, m - 1):
            step = sr.ratio(point.get(l, m - 1), point.get(l, m))
            horiz = sr.mul(step, table[(l, m - 1)])
        else:
            horiz = sr.bottom
        table[(l, m)] = sr.add(vert, horiz)
    return table


def _build_y(point):
    shape, sr = point.shape, point.semiring
    n = shape.n
    table = {}
    for l, m in sorted(shape.l2_indices, key=lambda lm: -lm[1]):
        if (l, m) == (1, n - 1):
            table[(l, m)] = sr.one
            continue
        horiz = table.get((l, m + 1), sr.bottom) if shape.in_l2(l, m + 1) else sr.bottom
        if shape.in_l2(l - 1, m + 1):
            step = sr.ratio(point.get(l - 1, m + 1), point.get(l, m))
            vert = sr.mul(step, table[(l - 1, m + 1)])
        else:
            vert = sr.bottom
        table[(l, m)] = sr.add(horiz, vert)
    return table


def _build_ystar(point):
    shape, sr = point.shape, point.semiring
    k = shape.k
    table = {}
    for l, m in sorted(shape.l2_indices, key=lambda lm: lm[1]):
        if (l, m) == (k, 0):
            table[(l, m)] = sr.one
            continue
        horiz = table.get((l, m - 1), sr.bottom) if shape.in_l2(l, m - 1) else sr.bottom
        if shape.in_l2(l + 1, m - 1):
            step = sr.ratio(point.get(l, m), point.get(l + 1, m - 1))
            vert = sr.mul(step, table[(l + 1, m - 1)])
        else:
            vert = sr.bottom
        table[(l, m)] = sr.add(horiz, vert)
    return table


def _require_side(point, side, what):
    if _point_side(point) != side:
        raise ValidationError("%s needs a side-%d point, got kind %r" % (what, side, point.kind))


def partial_sum(point, kind, l, m):
    """Partial path sum of the requested kind at (l, m), conventions included."""
    shape, sr = point.shape, point.semiring
    n, k = shape.n, shape.k
    if kind in ("X", "Xstar"):
        _require_side(point, 1, kind)
    elif kind in ("Y", "Ystar"):
        _require_side(point, 2, kind)
    else:
        raise ValidationError("unknown partial-sum kind %r" % (kind,))

    if kind == "X":
        if l < 1:
            return sr.bottom
        if l > k:
            return sr.one
        if l + m == k:
            return sr.inv(point.get(1, n))
        if shape.in_l1(l, m):
            return _table(point, "X", _build_x)[(l, m)]
    elif kind == "Xstar":
        if l < 1 or l > k:
            return sr.bottom
        if l + m == k:
            return sr.bottom
        if shape.in_l1(l, m):
            return _table(point, "Xstar", _build_xstar)[(l, m)]
    elif kind == "Y":
        if l < 1:
            return sr.bottom
        if l > k:
            return sr.one
        if shape.in_l2(l, m):
            return _table(point, "Y", _build_y)[(l, m)]
    else:
        if l == 0:
            return sr.inv(point.get(k, 0))
        if l > k:
            return sr.bottom
        if 1 <= l <= k and l + m == n + 1:
            return sr.one
        if shape.in_l2(l, m):
            return _table(point, "Ystar", _build_ystar)[(l, m)]
    raise ValidationError("(%d, %d) outside the closed %s region" % (l, m, kind))


def epsilon_total(point):
    """Total weight of all full paths on the first lattice."""
    _require_side(point, 1, "epsilon_total")
    return partial_sum(point, "X", point.shape.k, 1)


def _through_weight(point, l, m):
    shape, sr = point.shape, point.semiring
    if not shape.in_l1(l, m):
        return sr.bottom
    star = _table(point, "Xstar", _build_xstar)[(l, m)]
    rest = _table(point, "X", _build_x)[(l, m)]
    return sr.mul(star, rest)


def _build_regions(point):
    """(U, V, R) at every row 1..k of every column 1..n.

    Per column, V is the running sum of the through-weights of the rows
    below and U that of the rows above.  Max-plus has no subtraction, so
    the two directions are summed separately, with ``add`` only.
    """
    shape, sr = point.shape, point.semiring
    k = shape.k
    table = {}
    for m in range(1, shape.n + 1):
        # indexed by row; rows 0 and k + 1 are off the lattice, so bottom
        through = [_through_weight(point, l, m) for l in range(k + 2)]
        lower = [sr.bottom] * (k + 2)
        for l in range(2, k + 1):
            lower[l] = sr.add(lower[l - 1], through[l - 1])
        upper = [sr.bottom] * (k + 2)
        for l in range(k - 1, 0, -1):
            upper[l] = sr.add(upper[l + 1], through[l + 1])
        for l in range(1, k + 1):
            table[(l, m)] = (upper[l], lower[l], through[l])
    return table


def region_sums(point, l, m):
    """Triple (U, V, R): full-path sums above, below and through (l, m).

    Row indices 0 and k+1 are legal and make the above/below conditions
    vacuous; empty regions come back as the semiring bottom.
    """
    _require_side(point, 1, "region_sums")
    shape, sr = point.shape, point.semiring
    n, k = shape.n, shape.k
    if not 0 <= l <= k + 1:
        raise ValidationError("row %d outside [0, %d]" % (l, k + 1))
    if 1 <= l <= k and 1 <= m <= n:
        return _table(point, "regions", _build_regions)[(l, m)]
    eps = epsilon_total(point)
    if l <= 0 or l >= k + 1:
        return eps, eps, sr.bottom
    if m > n:
        return sr.bottom, eps, sr.bottom
    return eps, sr.bottom, sr.bottom


# ---------------------------------------------------------------------------
# enumeration oracles


def brute_epsilon(point):
    side = _point_side(point)
    src, dst = full_path_endpoints(point.shape, side)
    sr = point.semiring
    return sr.add_all(path_weight(point, p) for p in enumerate_paths(point.shape, side, src, dst))


def brute_partial_sum(point, kind, l, m):
    """Oracle for :func:`partial_sum` on genuine lattice nodes."""
    shape = point.shape
    sr = point.semiring
    if kind == "X":
        paths = enumerate_paths(shape, 1, (l, m), (1, shape.n))
    elif kind == "Xstar":
        paths = enumerate_paths(shape, 1, (shape.k, 1), (l, m))
    elif kind == "Y":
        paths = enumerate_paths(shape, 2, (l, m), (1, shape.n - 1))
    elif kind == "Ystar":
        paths = enumerate_paths(shape, 2, (shape.k, 0), (l, m))
    else:
        raise ValidationError("unknown partial-sum kind %r" % (kind,))
    return sr.add_all(path_weight(point, p) for p in paths)


def brute_region_sums(point, l, m):
    shape = point.shape
    sr = point.semiring
    src, dst = full_path_endpoints(shape, 1)
    upper = sr.bottom
    lower = sr.bottom
    through = sr.bottom
    for p in enumerate_paths(shape, 1, src, dst):
        w = path_weight(point, p)
        rows = p.rows_at(l)
        if all(j > m for j in rows):
            upper = sr.add(upper, w)
        if all(j < m for j in rows):
            lower = sr.add(lower, w)
        if (l, m) in p.points:
            through = sr.add(through, w)
    return upper, lower, through
