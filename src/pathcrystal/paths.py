"""Semiring-generic shortest-path weight engine on the two lattices.

All quantities are sums, over monotone lattice paths, of products of strip
weights.  Everything is computed twice in this library: once by dynamic
programming (the functions below) and once by explicit path enumeration
(the ``brute_*`` oracles), and the two must agree exactly in both
semirings.  The enumeration oracle is part of the shipped API, not a
test-only helper.  It builds each path, a plain tuple of points, from its
choice of crossing steps (:func:`enumerate_paths`); the region oracle
(:func:`brute_regions`) builds one table per point from one enumeration.

A path steps one column right, either along its row, (l, m) -> (l, m+1),
or across to the next row down, (l, m) -> (l-1, m+1).  One step kind per
lattice carries a weight: on the first lattice the step along a row weighs
``x_l^(m) / x_l^(m+1)``; on the second the step across rows weighs
``y_(l-1)^(m+1) / y_l^(m)``.  One sweep builds every dynamic-programming
table, on both lattices and in both directions: toward the sink (``X``,
``Y``) it runs over the columns from the sink leftwards, from the source
(``X*``, ``Y*``) from the source rightwards, and each node adds its two
neighbours one column nearer the start.  Both directions read one step
table per point, each weighted step's weight keyed by the step's left
node, so each weight is one ``ratio`` per point, and each node's sum is
one ``add_mul`` of its two neighbours.  The sweep never calls
:func:`path_weight`, which computes its own weights: that function belongs
to the oracle, and sharing the table with it would make the comparison a
tautology.  The region table holds (U, V, R) at every row 0..k+1 of every
column 1..n, each node's R the product of its two sum tables, so
:func:`region_sums` answers every row the 0-actions read with one lookup.
It and :func:`partial_sum` check that the coordinates are of type ``int``
and the point is of the right side, then read the memoized table; only a
call that fails that, or that reads off the table or before it is built,
takes the full checks, whose errors do not depend on which tables exist.

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

from itertools import combinations
from math import comb

from .errors import ValidationError, brief
from .lattice import PATH_CAP, _is_int


def _check_side(side):
    if side not in (1, 2):
        raise ValidationError("side must be 1 or 2, got %r" % (side,))


def enumerate_paths(shape, side, src, dst):
    """All monotone shortest paths from src to dst, each once, in increasing order.

    A path is the tuple of its points.  It is fixed by which of its steps
    cross to the next row down, so the paths are the choices of ``drop``
    crossing steps among ``advance``, built in the order of
    ``itertools.combinations``, which is the order of the point tuples.
    Each one stays on the lattice: along a path l never rises and l + m
    never falls, and each lattice is a range in l and a range in l + m.
    """
    _check_side(side)
    domain = shape.domain(side)
    src, dst = tuple(src), tuple(dst)
    for name, node in (("source", src), ("destination", dst)):
        if not (all(map(_is_int, node)) and node in domain):
            raise ValidationError("%s %r not on lattice L%d" % (name, node, side))
    l, m = src
    drop = l - dst[0]
    advance = dst[1] - m
    if not 0 <= drop <= advance:
        return []
    if comb(advance, drop) > PATH_CAP:
        raise ValidationError("more than %d paths" % PATH_CAP)
    out = []
    for crossings in combinations(range(advance), drop):
        row = l
        points = [src]
        for step in range(advance):
            if step in crossings:
                row -= 1
            points.append((row, m + step + 1))
        out.append(tuple(points))
    return out


def full_path_endpoints(shape, side):
    """Source and sink of the full paths on the requested lattice."""
    _check_side(side)
    if side == 1:
        return (shape.k, 1), (1, shape.n)
    return (shape.k, 0), (1, shape.n - 1)


def _point_side(point):
    side = getattr(point, "side", None)
    if side not in (1, 2):
        raise ValidationError("not a lattice point: %r" % (point,))
    return side


def path_weight(point, path):
    """Semiring product of the strip weights of ``path`` under ``point``.

    ``path`` is a sequence of (l, m) points: at least one, each on the
    point's lattice, and each step one column right, along its row or to
    the next row down.  This is the one check of a path given from outside.
    """
    side = _point_side(point)
    domain = point.shape.domain(side)
    if not path:
        raise ValidationError("a path needs at least one point")
    for pt in path:
        if pt not in domain:
            raise ValidationError("path point %r is off lattice L%d" % (pt, side))
    sr = point.semiring
    weight = sr.one
    for (l0, m0), (l1, m1) in zip(path, path[1:]):
        if m1 != m0 + 1 or l1 not in (l0, l0 - 1):
            raise ValidationError("illegal step (%d,%d) -> (%d,%d)" % (l0, m0, l1, m1))
        if side == 1:
            if l1 == l0:  # horizontal strips carry the coordinate ratio
                weight = sr.mul(weight, sr.ratio(point.get(l0, m0), point.get(l0, m0 + 1)))
        else:
            if l1 == l0 - 1:  # vertical strips carry the ratio on this side
                weight = sr.mul(weight, sr.ratio(point.get(l0 - 1, m0 + 1), point.get(l0, m0)))
    return weight


# ---------------------------------------------------------------------------
# dynamic-programming tables, memoized per point


def _table(point, name, builder, *args):
    if name not in point._tables:
        point._tables[name] = builder(point, *args)
    return point._tables[name]


def _build_steps(point):
    """Weight of every weighted step, keyed by the step's left node.

    Both sweep directions read it, so each weight is computed once per
    point.
    """
    sr, side, entries = point.semiring, point.side, point._entries
    domain, ratio = point.shape.domain(side), sr.ratio
    steps = {}
    for (l, m), value in entries.items():
        if side == 1:  # along the row: x_l^(m) / x_l^(m+1)
            right = (l, m + 1)
            if right in domain:
                steps[(l, m)] = ratio(value, entries[right])
        else:  # across to the row below: y_(l-1)^(m+1) / y_l^(m)
            right = (l - 1, m + 1)
            if right in domain:
                steps[(l, m)] = ratio(entries[right], value)
    return steps


def _build_sums(point, forward):
    """Path sums toward the sink (``forward``) or from the source, at every node.

    The sweep described in the module docstring; the step weights come
    from the step table.
    """
    shape, sr, side = point.shape, point.semiring, point.side
    add_mul = sr.add_mul
    domain, bottom = shape.domain(side), sr.bottom
    steps = _table(point, "steps", _build_steps)
    src, dst = full_path_endpoints(shape, side)
    s = 1 if forward else -1
    order = sorted(shape.indices(side), key=lambda lm: lm[1], reverse=forward)
    # the endpoint is alone in the first column swept
    table = {dst if forward else src: sr.one}
    for node in order[1:]:
        l, m = node
        row, cross = (l, m + s), (l - s, m + s)
        plain, weighted = (cross, row) if side == 1 else (row, cross)
        total = table[plain] if plain in domain else bottom
        if weighted in domain:
            # the step's left node is this one toward the sink, the neighbour from the source
            step = steps[node if forward else weighted]
            total = add_mul(total, step, table[weighted])
        table[node] = total
    return table


def _require_side(point, side, what):
    if _point_side(point) != side:
        raise ValidationError("%s needs a side-%d point, got kind %r" % (what, side, point.kind))


# partial-sum kind -> (lattice side, True for sums toward the sink)
_KINDS = {"X": (1, True), "Xstar": (1, False), "Y": (2, True), "Ystar": (2, False)}


def _sums(point, forward):
    return _table(point, ("sums", forward), _build_sums, forward)


def partial_sum(point, kind, l, m):
    """Partial path sum of the requested kind at (l, m), conventions included.

    A lattice node with int coordinates on a point of the kind's side is
    one lookup in the memoized sum table once it is built; any other call
    takes the checks of :func:`_partial_sum_checked`.
    """
    spec = _KINDS.get(kind)
    if spec and type(l) is type(m) is int and getattr(point, "side", None) == spec[0]:
        sums = point._tables.get(("sums", spec[1]))
        if sums is not None and (l, m) in sums:
            return sums[(l, m)]
    return _partial_sum_checked(point, kind, l, m)


def _partial_sum_checked(point, kind, l, m):
    """:func:`partial_sum` with every argument checked, boundary conventions included."""
    if kind not in _KINDS:
        raise ValidationError("unknown partial-sum kind %r" % (kind,))
    side, forward = _KINDS[kind]
    _require_side(point, side, kind)
    _check_coordinates(l, m)
    shape, sr = point.shape, point.semiring
    if (l, m) in shape.domain(side):
        return _sums(point, forward)[(l, m)]
    n, k = shape.n, shape.k
    if kind == "X":
        if l < 1:
            return sr.bottom
        if l > k:
            return sr.one
        if l + m == k:
            return sr.inv(point.get(1, n))
    elif kind == "Xstar":
        if l < 1 or l > k or l + m == k:
            return sr.bottom
    elif kind == "Y":
        if l < 1:
            return sr.bottom
        if l > k:
            return sr.one
    else:
        if l == 0:
            return sr.inv(point.get(k, 0))
        if l > k:
            return sr.bottom
        if 1 <= l <= k and l + m == n + 1:
            return sr.one
    raise ValidationError("(%d, %d) outside the closed %s region" % (l, m, kind))


def epsilon_total(point):
    """Total weight of all full paths on the first lattice."""
    _require_side(point, 1, "epsilon_total")
    return partial_sum(point, "X", point.shape.k, 1)


def _build_regions(point):
    """(U, V, R) at every row 0..k+1 of every column 1..n.

    Per column, R is a node's through-weight, the product of its two sum
    tables, V the running sum of R over the rows below and U that over
    the rows above.  Max-plus has no subtraction, so the two directions
    are summed separately, with ``add`` only.  Rows 0 and k+1 are off the
    lattice: their above/below conditions are vacuous, so they hold
    (total, total, bottom).
    """
    shape, sr = point.shape, point.semiring
    add, mul, bottom = sr.add, sr.mul, sr.bottom
    k = shape.k
    toward, source = _sums(point, True), _sums(point, False)
    eps = epsilon_total(point)
    table = {}
    for m in range(1, shape.n + 1):
        # indexed by row; rows off the lattice carry no through-weight
        through = [bottom] * (k + 2)
        for l in range(1, k + 1):
            if (l, m) in toward:
                through[l] = mul(source[(l, m)], toward[(l, m)])
        lower = [bottom] * (k + 2)
        for l in range(2, k + 1):
            lower[l] = add(lower[l - 1], through[l - 1])
        upper = [bottom] * (k + 2)
        for l in range(k - 1, 0, -1):
            upper[l] = add(upper[l + 1], through[l + 1])
        for l in range(1, k + 1):
            table[(l, m)] = (upper[l], lower[l], through[l])
        table[(0, m)] = table[(k + 1, m)] = (eps, eps, bottom)
    return table


def _check_coordinates(l, m):
    """Reject a coordinate that is not an int, bools included, before any lookup.

    The check comes first because 1.0 finds the key 1.
    """
    if not (_is_int(l) and _is_int(m)):
        raise ValidationError("coordinates must be integers, got %s" % brief((l, m)))


def region_sums(point, l, m):
    """Triple (U, V, R): full-path sums above, below and through (l, m).

    Row indices 0 and k+1 are legal and make the above/below conditions
    vacuous; empty regions come back as the semiring bottom.  Every row
    0..k+1 of the columns 1..n is one lookup in the memoized region table.
    The 0-actions read it in their inner loop, so the side and coordinate
    checks run only when the coordinates are not of type ``int`` or the
    point is not of side 1.
    """
    if not (type(l) is type(m) is int and getattr(point, "side", None) == 1):
        _require_side(point, 1, "region_sums")
        _check_coordinates(l, m)
    regions = point._tables.get("regions")
    if regions is None:
        regions = _table(point, "regions", _build_regions)
    triple = regions.get((l, m))
    if triple is not None:
        return triple
    sr, k = point.semiring, point.shape.k
    if not 0 <= l <= k + 1:
        raise ValidationError("row %d outside [0, %d]" % (l, k + 1))
    eps = epsilon_total(point)
    if l == 0 or l == k + 1:
        return eps, eps, sr.bottom
    if m > point.shape.n:
        return sr.bottom, eps, sr.bottom
    return eps, sr.bottom, sr.bottom


# ---------------------------------------------------------------------------
# enumeration oracles


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


def brute_regions(point):
    """Oracle for :func:`region_sums`: the table {(l, m): (U, V, R)}.

    It holds every row 0..k+1 of every column 0..n+1.  The full paths are
    enumerated once and each is weighed once.  A path's weight joins U at
    (l, m) when its points on row l all lie right of column m, V when they
    all lie left of it, and R when it passes (l, m).
    """
    shape, sr = point.shape, point.semiring
    cells = [(l, m) for l in range(shape.k + 2) for m in range(shape.n + 2)]
    upper, lower, through = (dict.fromkeys(cells, sr.bottom) for _ in range(3))
    for p in enumerate_paths(shape, 1, *full_path_endpoints(shape, 1)):
        w = path_weight(point, p)
        for l in range(shape.k + 2):
            columns = [j for (r, j) in p if r == l]
            for m in range(shape.n + 2):
                if all(j > m for j in columns):
                    upper[(l, m)] = sr.add(upper[(l, m)], w)
                if all(j < m for j in columns):
                    lower[(l, m)] = sr.add(lower[(l, m)], w)
                if (l, m) in p:
                    through[(l, m)] = sr.add(through[(l, m)], w)
    return {cell: (upper[cell], lower[cell], through[cell]) for cell in cells}
