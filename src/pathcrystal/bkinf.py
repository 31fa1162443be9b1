"""The combinatorial crystal on integer arrays with vanishing row sums.

Elements (:class:`.lattice.BElement`) are arrays ``b[j][i]`` for rows
1..k and columns j..j+k' whose rows sum to zero; reads outside that range
return 0.  The operators indexed 1..n move one unit between adjacent
columns of a selected row; the 0-indexed operators move units along an
extremal increasing tuple chosen by minimizing a column functional.

The increasing tuples are taken with first entry 1 and last entry n+1
fixed, which makes their count match the number of full lattice paths and
keeps the 0-operators compatible with the tropical side; the extremal
tuple construction re-verifies its defining inequalities on every call and
faults loudly if the convention were ever wrong.
"""

from itertools import combinations

from .errors import CrystalFault, ValidationError
from .lattice import BElement, SplitMix64, _mix_tag, point_to_json


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


class CTuple:
    """Strictly increasing tuple from 1 to n+1 selecting one column per row."""

    def __init__(self, shape, values):
        values = tuple(values)
        if len(values) != shape.k + 1:
            raise ValidationError("expected %d entries, got %d" % (shape.k + 1, len(values)))
        if values[0] != 1 or values[-1] != shape.n + 1:
            raise ValidationError("tuple must run from 1 to n+1, got %r" % (values,))
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValidationError("tuple must be strictly increasing, got %r" % (values,))
        self.shape = shape
        self.values = values

    def __getitem__(self, idx):
        return self.values[idx]

    def __len__(self):
        return len(self.values)

    def __eq__(self, other):
        return isinstance(other, CTuple) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __le__(self, other):
        return all(a <= b for a, b in zip(self.values, other.values))

    def __repr__(self):
        return "CTuple%r" % (self.values,)


def all_ctuples(shape):
    """The full tuple family, of size binomial(n-1, k-1)."""
    inner = range(2, shape.n + 1)
    return [
        CTuple(shape, (1,) + middle + (shape.n + 1,))
        for middle in combinations(inner, shape.k - 1)
    ]


def _col_range(shape, i):
    beta = max(0, i - shape.kprime)
    gamma_row = min(shape.k, i)
    return beta, gamma_row


def _gamma_profile(b, i):
    """Partial alternating sums indexed by rows beta+1..gamma."""
    beta, gamma_row = _col_range(b.shape, i)
    profile = {}
    acc = 0
    for c in range(beta + 1, gamma_row + 1):
        profile[c] = acc
        acc += b.get(c, i) - b.get(c + 1, i + 1)
    return profile


def eps_phi(b, i):
    """The pair (eps_i, phi_i) for i in 1..n."""
    if not 1 <= i <= b.shape.n:
        raise ValidationError("index i must be in 1..n, got %r" % (i,))
    beta, gamma_row = _col_range(b.shape, i)
    c0, c1 = _argmin_rows(b, i)
    eps = sum(b.get(j + 1, i + 1) - b.get(j, i) for j in range(beta, c0))
    phi = sum(b.get(j, i) - b.get(j + 1, i + 1) for j in range(c1, gamma_row + 1))
    return eps, phi


def _argmin_rows(b, i):
    profile = _gamma_profile(b, i)
    lowest = min(profile.values())
    rows = [c for c, v in profile.items() if v == lowest]
    return min(rows), max(rows)


def kashiwara(b, op, i):
    """Single raising (e) or lowering (f) step for i in 1..n."""
    if op not in ("e", "f"):
        raise ValidationError("op must be 'e' or 'f', got %r" % (op,))
    if not 1 <= i <= b.shape.n:
        raise ValidationError("index i must be in 1..n, got %r" % (i,))
    c0, c1 = _argmin_rows(b, i)
    entries = dict(b.entries)
    if op == "e":
        entries[(c0, i)] += 1
        entries[(c0, i + 1)] -= 1
    else:
        entries[(c1, i)] -= 1
        entries[(c1, i + 1)] += 1
    return BElement(b.shape, entries)


def delta(b, c):
    """Sum of the row entries strictly between consecutive tuple columns."""
    total = 0
    for j in range(1, b.shape.k + 1):
        for i in range(c[j - 1] + 1, c[j]):
            total += b.get(j, i)
    return total


def extremal_c(b, which):
    """Coordinatewise-extremal minimizer of the column functional.

    The returned tuple is re-checked against the defining inequalities on
    every call; a violation raises :class:`CrystalFault` since it would
    mean the tuple family convention is wrong.
    """
    if which not in ("e", "f"):
        raise ValidationError("which must be 'e' or 'f', got %r" % (which,))
    family = all_ctuples(b.shape)
    values = {c: delta(b, c) for c in family}
    best = min(values.values())
    argmin = [c for c in family if values[c] == best]
    pick = min if which == "e" else max
    candidate = CTuple(
        b.shape,
        tuple(pick(c[j] for c in argmin) for j in range(b.shape.k + 1)),
    )
    if values.get(candidate) != best:
        raise CrystalFault(
            "coordinatewise %s of the minimizers is not a minimizer" % which,
            witness={"b": repr(b), "candidate": candidate.values},
        )
    for c in family:
        comparable = candidate <= c if which == "e" else c <= candidate
        if comparable and not best <= values[c]:
            raise CrystalFault("minimality violated", witness={"c": c.values})
        if not comparable and not best < values[c]:
            raise CrystalFault(
                "strict minimality violated against incomparable tuple",
                witness={"b": repr(b), "candidate": candidate.values, "c": c.values},
            )
    return candidate


def eps_phi_0(b):
    shape = b.shape
    ce = extremal_c(b, "e")
    cf = extremal_c(b, "f")
    eps = -b.get(shape.k, shape.n + 1) - delta(b, ce)
    phi = -b.get(1, 1) - delta(b, cf)
    return eps, phi


def zero_ops(b, op):
    """Raising/lowering step along the extremal tuple (the 0-operators)."""
    if op not in ("e", "f"):
        raise ValidationError("op must be 'e' or 'f', got %r" % (op,))
    entries = dict(b.entries)
    if op == "e":
        ce = extremal_c(b, "e")
        for j in range(1, b.shape.k + 1):
            entries[(j, ce[j - 1])] -= 1
            entries[(j, ce[j])] += 1
    else:
        cf = extremal_c(b, "f")
        for j in range(1, b.shape.k + 1):
            entries[(j, cf[j])] -= 1
            entries[(j, cf[j - 1])] += 1
    return BElement(b.shape, entries)


def wt(b, i):
    shape = b.shape
    if i == 0:
        return -b.get(1, 1) + b.get(shape.k, shape.n + 1)
    beta, gamma_row = _col_range(shape, i)
    return sum(b.get(j, i) - b.get(j + 1, i + 1) for j in range(beta, gamma_row + 1))


def bk_e(b, i, d):
    """d-fold raising (negative d lowers), one unit step at a time."""
    if not 0 <= i <= b.shape.n:
        raise ValidationError("index i must be in 0..n, got %r" % (i,))
    step = "e" if d >= 0 else "f"
    out = b
    for _ in range(abs(d)):
        out = zero_ops(out, step) if i == 0 else kashiwara(out, step, i)
    return out


def bk_e_closed(b, i, d):
    """Closed form of the d-fold operator; must agree with iteration."""
    shape = b.shape
    if not 0 <= i <= shape.n:
        raise ValidationError("index i must be in 0..n, got %r" % (i,))
    entries = dict(b.entries)
    if i == 0:
        family = all_ctuples(shape)
        values = {c: delta(b, c) for c in family}

        def peak(j, col):
            # -min(min over c[j] > col, (min over c[j] <= col) - d)
            return -min(values[c] - d if c[j] <= col else values[c] for c in family)

        for (j, col) in shape.b_indices:
            entries[(j, col)] = (
                b.get(j, col)
                + peak(j, col)
                - peak(j - 1, col)
                - peak(j, col - 1)
                + peak(j - 1, col - 1)
            )
    else:
        beta, gamma_row = _col_range(shape, i)
        profile = _gamma_profile(b, i)

        def cut_min(cut):
            # min(min over rows >= cut, (min over rows < cut) - d)
            return min(v - d if p < cut else v for p, v in profile.items())

        for l in range(beta + 1, gamma_row + 1):
            shift = cut_min(l + 1) - cut_min(l)
            entries[(l, i)] -= shift
            entries[(l, i + 1)] += shift
    return BElement(shape, entries)


def weyl_s_tilde(b, i):
    """Piecewise-linear simple reflection on the array crystal."""
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
    whole local structure.
    """
    if radius < 0:
        raise ValidationError("radius must be nonnegative")
    shape = center.shape
    seen = {center: 0}
    frontier = [center]
    edges = set()
    for dist in range(radius):
        nxt = []
        for b in frontier:
            for i in range(shape.n + 1):
                for d in (-1, 1):
                    neighbor = bk_e(b, i, d)
                    if neighbor not in seen:
                        seen[neighbor] = dist + 1
                        nxt.append(neighbor)
                    lo, hi = (b, neighbor) if d < 0 else (neighbor, b)
                    edges.add((_node_id(lo), _node_id(hi), i))
        frontier = nxt
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for node in sorted(_node_id(b) for b in seen):
        lines.append('  "%s";' % node)
    for src, dst, i in sorted(edges):
        lines.append('  "%s" -> "%s" [label="%d"];' % (src, dst, i))
    lines.append("}")
    return "\n".join(lines)


# the benchmark's cli workload (perfbench/workloads.py) is the only caller
to_json = point_to_json
