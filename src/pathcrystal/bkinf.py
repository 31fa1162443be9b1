"""The combinatorial crystal on integer arrays with vanishing row sums.

Elements (:class:`.lattice.BElement`) are arrays ``b[j][i]`` for rows
1..k and columns j..j+k' whose rows sum to zero; reads outside that range
return 0.  At every index i in 0..n the crystal data follow one rule: take
the least value of a functional over a candidate set, then e_i acts at the
first minimizer and f_i at the last.  At i >= 1 the candidates are the rows
that can move a unit between columns i and i+1 (:func:`_moved_sums`); at
i = 0 they are the increasing tuples, valued by :func:`delta`, and units
move along the extremal tuple.  :func:`eps_phi` and :func:`kashiwara` take
every index; at i = 0 :func:`eps_phi` is :func:`eps_phi_0`.

The increasing tuples are taken with first entry 1 and last entry n+1
fixed, which makes their count match the number of full lattice paths and
keeps the 0-operators compatible with the tropical side.

The d-fold operator has two routes: the unit steps (:func:`bk_e_steps`)
and the closed form (:func:`bk_e_closed`), which reads one split-minimum
kernel (:func:`_cut_peaks`) at every index.  The ``weyl`` suite's
``array-closed-form`` compares them, and ``iso`` compares the unit steps
and the closed reflection with the tropical side.  :func:`bk_e`, the
operator users call, takes the closed form at i >= 1 for |d| > 1 and the
unit steps otherwise, so at i = 0 it still takes |d| steps.  At i = 0 the
kernel reads a min-plus DP over the states (row j, column c[j]) that never
touches the tropical path engine; :func:`eps_phi_0` reads the least delta
off the DP's forward pass.

The unit 0-steps and :func:`extremal_c` keep the enumerated definition over
all binomial(n-1, k-1) tuples.  Each enumerating call builds one table
``{c: delta(b, c)}`` over the family of plain tuples (:func:`all_ctuples`)
from the rows' prefix sums.  :func:`extremal_c` returns the coordinatewise
extreme of the table's minimizers, which is again a tuple of the family and
comparable with every minimizer, so its one check is whether that tuple
minimizes.  It reads the tuple's value from the body of :func:`delta`,
whose row-slice sum the table does not share, so every call checks the
table against the definition at the tuple it returns, faulting with a
replayable witness on a mismatch.  :func:`brute_bk_e_closed` (each peak
once, a direct min over the table) is the closed form from the same
enumeration, the DP's oracle; it does not call the kernel.  The ``extremal``
suite checks :func:`eps_phi_0` against delta at the enumerated extremal
tuples.  :func:`delta` and :func:`.iso.pi_correspondence` check a tuple
given from outside, by one rule in :mod:`.lattice`.

An array keeps what its operators read again, in the store of
:func:`.lattice._table`, under keys that start with ``"bkinf"``: its rows
(:func:`_rows`), which :func:`delta`, the tuple table and the DP read;
the DP's forward minima (:func:`_ahead`), which :func:`eps_phi_0` and
:func:`_peak_table` share; and at each i >= 1 the running sums of
:func:`_moved_sums`, which :func:`eps_phi`, :func:`kashiwara` and
:func:`bk_e_closed` read.  Each is a tuple of O(k*n) values.  The tuple
table and the family are never kept: they have binomial(n-1, k-1)
entries, and an array that lives long (a node of
:func:`crystal_graph_dot`) would hold them all.

Every public function rejects a point that is not an array before it
reads one.  :func:`kashiwara` and :func:`bk_e_closed` at i >= 1 only move
units within rows, between keys their input already has, so they build
their images unchecked (``BElement._derived``); the 0-operator's closed
form (:func:`_apply_peaks`) writes every entry from the DP's peak table,
so its zero row sums are checked on each call.
"""

from itertools import accumulate, combinations
from operator import getitem

from .errors import CrystalFault, ValidationError, brief
from .lattice import (
    BElement,
    SplitMix64,
    _check_ctuple,
    _check_kind,
    _mix_tag,
    _table,
    point_to_json,
)

GRAPH_NODE_CAP = 10_000


def b_infinity(shape):
    return BElement(shape, dict.fromkeys(shape.b_indices, 0))


def sample_belement(shape, seed, bound):
    """Deterministic random element; last column balances each row."""
    rng = SplitMix64(_mix_tag(seed, shape.n, shape.k, bound, 0xB))
    entries = {}
    for j in range(1, shape.k + 1):
        acc = 0
        for i in range(j, j + shape.kprime):
            v = rng.randint(-bound, bound)
            entries[(j, i)] = v
            acc += v
        entries[(j, j + shape.kprime)] = -acc
    return BElement(shape, entries)


def all_ctuples(shape):
    """The full tuple family as plain tuples, binomial(n-1, k-1) of them.

    The tuples are in bijection with the full paths, so a shape with more
    than :data:`~pathcrystal.lattice.PATH_CAP` full paths is rejected before
    any tuple is built.
    """
    shape.check_full_paths()
    first, last = (1,), (shape.n + 1,)
    return [first + middle + last for middle in combinations(range(2, shape.n + 1), shape.k - 1)]


def _moved_sums(b, i):
    """The first row the i-th unit steps can move, and the running sums S, kept on ``b``.

    ``S[m]`` sums ``b(j, i) - b(j+1, i+1)`` over the rows j = beta..beta+m,
    beta = max(0, i - k'), up to the last row min(k, i).  ``S[:-1]`` is
    indexed by the movable rows beta+1..min(k, i), and ``S[-1]`` is wt_i.
    """
    return _table(b, ("bkinf", "moved", i), _build_moved_sums, i)


def _build_moved_sums(b, i):
    get = b._entries.get
    beta = max(0, i - b.shape.kprime)
    rows = range(beta, min(b.shape.k, i) + 1)
    return beta + 1, tuple(accumulate(get((j, i), 0) - get((j + 1, i + 1), 0) for j in rows))


def eps_phi(b, i):
    """The pair (eps_i, phi_i) for i in 0..n; at i = 0 it is :func:`eps_phi_0`.

    At i >= 1, eps_i = -min S[:-1] and phi_i = eps_i + S[-1] for the
    running sums S of :func:`_moved_sums`.
    """
    _check_kind(b, BElement, "eps_phi")
    b.shape.check_index(i)
    if i == 0:
        return eps_phi_0(b)
    _, sums = _moved_sums(b, i)
    eps = -min(sums[:-1])
    return eps, eps + sums[-1]


def kashiwara(b, op, i):
    """Single raising (e) or lowering (f) step for i in 0..n.

    At i = 0 one unit moves in every row j between columns c[j-1] and c[j]
    of the extremal tuple ``c = extremal_c(b, op)``: forward for e_0, back
    for f_0.  At i >= 1, e_i moves one unit from column i+1 to column i in
    the first row attaining min S[:-1], and f_i moves it back in the last
    such row.
    """
    _check_kind(b, BElement, "kashiwara")
    if op not in ("e", "f"):
        raise ValidationError("op must be 'e' or 'f', got %s" % brief(op))
    b.shape.check_index(i)
    step = 1 if op == "e" else -1
    entries = dict(b._entries)
    if i == 0:
        c = extremal_c(b, op)
        for j in range(1, b.shape.k + 1):
            entries[(j, c[j - 1])] -= step
            entries[(j, c[j])] += step
    else:
        first, sums = _moved_sums(b, i)
        lowest = min(sums[:-1])
        rows = [first + r for r, v in enumerate(sums[:-1]) if v == lowest]
        row = rows[0] if op == "e" else rows[-1]
        entries[(row, i)] += step
        entries[(row, i + 1)] -= step
    # one unit moves within each row it touches, between keys b already has
    return BElement._derived(b.shape, entries)


def _between(row, u, v):
    """A row's entries strictly between columns u and v."""
    return sum(row[u + 1:v])


def delta(b, c):
    """Sum of the row entries strictly between consecutive tuple columns.

    ``c`` is checked as a tuple of the family; :func:`extremal_c` checks its
    own candidate through the unchecked body :func:`_delta`.
    """
    _check_kind(b, BElement, "delta")
    return _delta(b, _check_ctuple(b.shape, c))


def _delta(b, c):
    return sum(map(_between, _rows(b), c, c[1:]))


def _family_deltas(b):
    """``{c: delta(b, c)}`` over the whole tuple family, from the rows' prefix sums.

    With ``P = [0, row[0], row[0] + row[1], ...]``, row j's share between
    consecutive entries u < v is ``P[v] - P[u+1]``, so each tuple costs two
    sums of k lookups.  The table is built on every call and never kept.
    """
    prefixes = [list(accumulate(row, initial=0)) for row in _rows(b)]
    shifted = [prefix[1:] for prefix in prefixes]
    return {
        c: sum(map(getitem, prefixes, c[1:])) - sum(map(getitem, shifted, c))
        for c in all_ctuples(b.shape)
    }


def extremal_c(b, which):
    """Coordinatewise-extremal minimizer of the column functional, as a plain tuple.

    The coordinatewise min (``"e"``) or max (``"f"``) of the minimizers is
    again a tuple of the family, comparable with every minimizer, so the
    one check that can fail is whether it minimizes.  Its value is read
    from the body of :func:`delta`, not from the table, so a mismatch with
    the table's minimum raises :class:`CrystalFault` with a replayable
    witness.
    """
    _check_kind(b, BElement, "extremal_c")
    if which not in ("e", "f"):
        raise ValidationError("which must be 'e' or 'f', got %s" % brief(which))
    values = _family_deltas(b)
    best = min(values.values())
    argmin = [c for c, v in values.items() if v == best]
    pick = min if which == "e" else max
    candidate = tuple(map(pick, zip(*argmin)))
    if _delta(b, candidate) != best:
        raise CrystalFault(
            "coordinatewise %s of the minimizers is not a minimizer" % which,
            witness={"point": point_to_json(b), "candidate": candidate},
        )
    return candidate


def eps_phi_0(b):
    """The pair (eps_0, phi_0) from the least delta over all tuples.

    Both extremal tuples attain ``min_c delta(b, c)``, which is the forward
    min-plus pass's value at its sink state (row k, column n+1): O(k*n)
    integer operations that read only the array.
    """
    _check_kind(b, BElement, "eps_phi_0")
    shape = b.shape
    least = _ahead(b)[shape.k][shape.n + 1]
    return -b.get(shape.k, shape.n + 1) - least, -b.get(1, 1) - least


def wt(b, i):
    _check_kind(b, BElement, "wt")
    shape = b.shape
    shape.check_index(i)
    if i == 0:
        return -b.get(1, 1) + b.get(shape.k, shape.n + 1)
    get = b._entries.get
    rows = range(max(0, i - shape.kprime), min(shape.k, i) + 1)
    return sum(get((j, i), 0) - get((j + 1, i + 1), 0) for j in rows)


def bk_e(b, i, d):
    """d-fold raising (negative d lowers).

    At i >= 1 a move of more than one unit is :func:`bk_e_closed`, in
    O(rows) whatever d; every other call is :func:`bk_e_steps`.
    """
    _check_kind(b, BElement, "bk_e")
    b.shape.check_index(i)
    d = b.value(d)
    if i and abs(d) > 1:
        return bk_e_closed(b, i, d)
    return bk_e_steps(b, i, d)


def bk_e_steps(b, i, d):
    """d-fold raising (negative d lowers), one :func:`kashiwara` step at a time.

    The definition that :func:`bk_e_closed` is checked against.
    """
    _check_kind(b, BElement, "bk_e_steps")
    b.shape.check_index(i)
    d = b.value(d)
    step = "e" if d >= 0 else "f"
    out = b
    for _ in range(abs(d)):
        out = kashiwara(out, step, i)
    return out


def _least(a, b):
    """min(a, b) where None stands for an empty side."""
    return b if a is None else a if b is None else min(a, b)


def _cut_peaks(values, d):
    """``-min(min(values[:c]) - d, min(values[c:]))`` at every cut c in 0..len(values).

    The split-minimum kernel of both closed forms; None marks an empty side
    (or, in :func:`_peak_table`, an unreachable state).
    """
    left = [None] + list(accumulate(values, _least))
    right = list(accumulate(reversed(values), _least))[::-1] + [None]
    return [-_least(None if lo is None else lo - d, hi) for lo, hi in zip(left, right)]


def _forward_minima(rows):
    """``table[j][v]``: the least delta of a tuple's first j rows when c[j] = v.

    ``rows[j-1][i]`` is row j's entry in column i, for i in 0..n+1.  Row j's
    share of delta between consecutive entries u < v is ``P(v-1) - P(u)``
    for the row's prefix sums P, so one running minimum of
    ``table[j-1][u] - P(u)`` over u < v gives the row in O(n).  Unreachable
    states hold None.
    """
    table = [[None] * len(rows[0]) for _ in range(len(rows) + 1)]
    table[0][1] = 0
    for j, row in enumerate(rows, 1):
        prefix = list(accumulate(row))
        run = None
        for v in range(1, len(row)):
            prev = table[j - 1][v - 1]
            if prev is not None:
                run = _least(run, prev - prefix[v - 1])
            if run is not None:
                table[j][v] = prefix[v - 1] + run
    return table


def _ahead(b):
    """:func:`_forward_minima` of the array's rows, as a tuple of row tuples kept on ``b``."""
    return _table(b, ("bkinf", "ahead"), lambda b: tuple(map(tuple, _forward_minima(_rows(b)))))


def _rows(b):
    """``rows[j-1][i]``: row j's entry in column i, for i in 0..n+1, kept on ``b``."""
    return _table(b, ("bkinf", "rows"), _build_rows)


def _build_rows(b):
    get = b._entries.get
    columns = range(b.shape.n + 2)
    return tuple(tuple(get((j, i), 0) for i in columns) for j in range(1, b.shape.k + 1))


def _turned(row):
    """Column i becomes column n+2-i (column 0 stays in front)."""
    return row[:1] + row[:0:-1]


def _peak_table(b, d):
    """``peak[j][col] = -min over tuples c of delta(b, c) - (d if c[j] <= col else 0)``.

    A min-plus DP over the states (row j, entry c[j]) that reads only the
    array: the forward pass, and the same pass on the array turned around
    (row j -> k+1-j, column i -> n+2-i), give the least delta over the
    tuples through each state.  :func:`_cut_peaks` then splits the tuples at
    c[j] <= col, the cut after column col.
    """
    k = b.shape.k
    ahead = _ahead(b)
    behind = _forward_minima([_turned(row) for row in reversed(_rows(b))])
    return [
        _cut_peaks([
            None if f is None or g is None else f + g
            for f, g in zip(ahead[j], _turned(behind[k - j]))
        ], d)[1:]
        for j in range(k + 1)
    ]


def _apply_peaks(b, peak):
    """The 0-operator's image from the peak table, by inclusion-exclusion."""
    return BElement(b.shape, {
        (j, col): b.get(j, col)
        + peak[j][col] - peak[j - 1][col] - peak[j][col - 1] + peak[j - 1][col - 1]
        for (j, col) in b.shape.b_indices
    })


def brute_bk_e_closed(b, d):
    """Oracle for ``bk_e_closed(b, 0, d)``: each peak once, over the full tuple family.

    ``peak[j][col] = -min(min over c[j] > col, (min over c[j] <= col) - d)``.
    """
    _check_kind(b, BElement, "brute_bk_e_closed")
    values = _family_deltas(b).items()
    return _apply_peaks(b, [
        [-min(v - d if c[j] <= col else v for c, v in values) for col in range(b.shape.n + 2)]
        for j in range(b.shape.k + 1)
    ])


def bk_e_closed(b, i, d):
    """Closed form of the d-fold operator; must agree with iteration.

    At i = 0 it costs O(k*n) integer operations (see :func:`_peak_table`).
    At i >= 1, row first+r moves by the change of :func:`_cut_peaks` over
    S[:-1] between cuts r and r+1, in O(rows).
    """
    _check_kind(b, BElement, "bk_e_closed")
    b.shape.check_index(i)
    d = b.value(d)
    if i == 0:
        return _apply_peaks(b, _peak_table(b, d))
    first, sums = _moved_sums(b, i)
    peaks = _cut_peaks(sums[:-1], d)
    entries = dict(b._entries)
    for row, (lo, hi) in enumerate(zip(peaks, peaks[1:]), first):
        entries[(row, i)] += hi - lo
        entries[(row, i + 1)] -= hi - lo
    # each row moves hi - lo between two keys b already has, so its sum stays 0
    return BElement._derived(b.shape, entries)


def weyl_s_tilde(b, i):
    """Piecewise-linear simple reflection on the array crystal."""
    _check_kind(b, BElement, "weyl_s_tilde")
    return bk_e_closed(b, i, -wt(b, i))


def _node_id(b):
    return ";".join(
        ",".join(str(b.get(j, i)) for i in range(j, j + b.shape.kprime + 1))
        for j in range(1, b.shape.k + 1)
    )


def crystal_graph_dot(center, radius):
    """DOT digraph of the lowering/raising neighborhood out to ``radius``.

    Arrows follow the lowering operators and are labeled by the index; the
    raising operators are their reversals, so one arrow family carries the
    whole local structure.  Before each level is expanded, the ball plus
    every neighbor its frontier could add (2(n+1) each) must stay within
    :data:`GRAPH_NODE_CAP` nodes, so the walk and the DOT text are bounded
    for every legal radius.
    """
    _check_kind(center, BElement, "crystal_graph_dot")
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    shape = center.shape
    ids = {center: _node_id(center)}  # each node's DOT id, built once
    frontier = [center]
    edges = set()
    for dist in range(radius):
        if len(ids) + 2 * (shape.n + 1) * len(frontier) > GRAPH_NODE_CAP:
            raise ValidationError(
                "graph radius %s: level %d could take the ball past %d nodes"
                % (brief(radius), dist + 1, GRAPH_NODE_CAP)
            )
        nxt = []
        for b in frontier:
            for i in range(shape.n + 1):
                for d in (-1, 1):
                    neighbor = bk_e(b, i, d)
                    if neighbor not in ids:
                        ids[neighbor] = _node_id(neighbor)
                        nxt.append(neighbor)
                    lo, hi = (b, neighbor) if d < 0 else (neighbor, b)
                    edges.add((ids[lo], ids[hi], i))
        frontier = nxt
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for node in sorted(ids.values()):
        lines.append('  "%s";' % node)
    for src, dst, i in sorted(edges):
        lines.append('  "%s" -> "%s" [label="%d"];' % (src, dst, i))
    lines.append("}")
    return "\n".join(lines)


# the benchmark's cli workload (perfbench/workloads.py) is the only caller
to_json = point_to_json
