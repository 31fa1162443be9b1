"""Index bookkeeping, the four point kinds, seeded sampling and the JSON codec.

Coordinates follow the convention that ``(l, m)`` sits on the l-th
horizontal line from the bottom and the (l+m-k)-th vertical line from the
left.  The first lattice carries the x-coordinates, the second the
y-coordinates, and tropical points reuse the first index set with integer
entries.  Elements of the array crystal (kind ``b``) are integer arrays
``b[j][i]`` for rows 1..k and columns j..j+k' whose rows sum to zero.

Each kind owns its values: ``x`` and ``y`` take a Fraction, an int or
``"p/q"`` and require it to be positive, ``trop`` and ``b`` take integers,
and floats and bools are rejected by both.  A point checks its entries in
one pass over the values (all positive Fractions, or all exact ints); only
a point that fails it converts and checks entry by entry, which is also
where every error message is written.

The integer results the library derives from a checked point of the
right kind (the unit steps, the d-fold array operator at i >= 1, the
tropical action, :func:`.iso.omega` and its inverse) are built by
``_BasePoint._derived``, which skips the checks their input already
implies; each such function first rejects a point of another kind
(:func:`_check_kind`).  Sampling, the codec, the array 0-operator's
closed form and the whole rational side keep the checked constructor.

Off-lattice reads return the multiplicative identity of the active
semiring (1 for rational points, 0 for the integer kinds).  The special
boundary values used by the partial path sums live in :mod:`.paths`, not
here.
"""

import re
from fractions import Fraction
from math import comb
from operator import attrgetter
from types import MappingProxyType

from .errors import ValidationError, brief
from .semiring import MAXPLUS, RATIONAL

PRNG_ID = "splitmix64"

# the array's k*(k'+1) entries, the largest index set of a shape; (630, 315) fits
ARRAY_ENTRY_CAP = 100_000
# paths enumerated between two nodes, and full paths, which are in bijection
# with the increasing tuples; the degree probe's base grows with the count
# (see pathcrystal.tropical.probe_bits)
PATH_CAP = 100_000

_M64 = (1 << 64) - 1

_num_of = attrgetter("numerator")


class SplitMix64:
    """Deterministic 64-bit generator; identical streams on every platform."""

    def __init__(self, seed):
        self._state = seed & _M64

    def next64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _M64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
        return z ^ (z >> 31)

    def randint(self, lo, hi):
        """Uniform integer in [lo, hi], by rejection to avoid modulo bias.

        One draw covers at most 2**64 values, so a wider range is rejected.
        """
        span = hi - lo + 1
        if span <= 0:
            raise ValidationError("empty range [%s, %s]" % (brief(lo), brief(hi)))
        if span > 1 << 64:
            raise ValidationError("range [%s, %s] is wider than 2**64" % (brief(lo), brief(hi)))
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            r = self.next64()
            if r < limit:
                return lo + r % span


def _mix_tag(*parts):
    rng = SplitMix64(0)
    acc = 0
    for p in parts:
        rng._state ^= (p & _M64)
        acc = rng.next64()
    return acc


class LatticeShape:
    """The pair (n, k): the index sets of both lattices and the array, and the index rules."""

    def __init__(self, n, k):
        _check_shape(n, k)
        if k * (n + 2 - k) > ARRAY_ENTRY_CAP:
            raise ValidationError(
                "shape (%s, %s) has %s array entries, more than %d"
                % (brief(n), brief(k), brief(k * (n + 2 - k)), ARRAY_ENTRY_CAP)
            )
        self.n = n
        self.k = k
        self.kprime = n + 1 - k
        self.l1_indices = tuple(
            (l, m) for l in range(1, k + 1) for m in range(k - l + 1, n + 2 - l)
        )
        self.l2_indices = tuple(
            (l, m) for l in range(1, k + 1) for m in range(k - l, n + 1 - l)
        )
        self.b_indices = tuple(
            (j, i) for j in range(1, k + 1) for i in range(j, j + self.kprime + 1)
        )
        self._indices = {1: self.l1_indices, 2: self.l2_indices, "b": self.b_indices}
        self._domains = {side: frozenset(keys) for side, keys in self._indices.items()}

    def indices(self, side):
        """Index set of the first (1) or second (2) lattice, or of the array ("b")."""
        return self._indices[side]

    def domain(self, side):
        """The index set of :meth:`indices` as a frozenset, built once per shape."""
        return self._domains[side]

    def check_index(self, i):
        """Reject a crystal index outside 0..n."""
        if not 0 <= i <= self.n:
            raise ValidationError("index i must be in 0..n, got %s" % brief(i))

    def check_full_paths(self):
        """The count of full paths (so increasing tuples); rejects more than PATH_CAP."""
        count = comb(self.n - 1, self.k - 1)
        if count > PATH_CAP:
            raise ValidationError(
                "shape (%d, %d) has binomial(%d, %d) = %d full paths, more than %d"
                % (self.n, self.k, self.n - 1, self.k - 1, count, PATH_CAP)
            )
        return count

    def column(self, side, i):
        """Rows (a, b) of the entries (l, i) the i-th action moves on lattice 1 or 2.

        Column i of the first lattice (1..n) has the rows of column i-1 of the second (0..n-1).
        The array (side "b") has no such column, so it is rejected like any other side.
        """
        if side == 1:
            j, where = i - 1, "1..n"
        elif side == 2:
            j, where = i, "0..n-1"
        else:
            raise ValidationError("side must be 1 or 2, got %s" % brief(side))
        if not 0 <= j <= self.n - 1:
            raise ValidationError("index i must be in %s, got %s" % (where, brief(i)))
        return max(self.k - j, 1), min(self.k, self.n - j)

    def cartan(self, i, j):
        """Entry (i, j) of the Cartan matrix of the affine family on 0..n."""
        if i == j:
            return 2
        return -1 if (i - j) % (self.n + 1) in (1, self.n) else 0

    def __eq__(self, other):
        return isinstance(other, LatticeShape) and (self.n, self.k) == (other.n, other.k)

    def __hash__(self):
        return hash((self.n, self.k))

    def __repr__(self):
        return "LatticeShape(n=%d, k=%d)" % (self.n, self.k)


def _check_shape(n, k):
    if not _is_int(n) or not _is_int(k):
        raise ValidationError("n and k must be integers")
    if n < 2:
        raise ValidationError("n must be at least 2, got %s" % brief(n))
    if not 1 <= k <= n:
        raise ValidationError(
            "k must satisfy 1 <= k <= n, got k=%s with n=%s" % (brief(k), brief(n))
        )


def _is_int(value):
    """True for a Python integer; JSON ``true``/``false`` decode to bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_increasing(shape, c, length):
    """``c`` as a tuple, checked to be ``length`` strictly increasing integers in 1..n+1."""
    c = tuple(c)
    if len(c) != length:
        raise ValidationError("expected %d entries, got %d" % (length, len(c)))
    if not all(map(_is_int, c)):
        raise ValidationError("entries must be integers, got %s" % brief(c))
    if any(a >= b for a, b in zip(c, c[1:])):
        raise ValidationError("entries must be strictly increasing, got %s" % brief(c))
    if c[0] < 1 or c[-1] > shape.n + 1:
        raise ValidationError("entries must lie in 1..n+1, got %s" % brief(c))
    return c


def _check_ctuple(shape, c):
    """``c`` as a tuple, checked to be k+1 strictly increasing integers from 1 to n+1."""
    c = _check_increasing(shape, c, shape.k + 1)
    if c[0] != 1 or c[-1] != shape.n + 1:
        raise ValidationError("tuple must run from 1 to n+1, got %s" % brief(c))
    return c


def make_shape(n, k):
    return LatticeShape(n, k)


class _BasePoint:
    """A point of one kind; ``side`` names its index set (1, 2 or "b").

    ``value`` is the kind's one check of an entry or of an action parameter
    (``key=None``); ``_all_final`` is true when every value already has the
    form ``value`` returns.  ``chart_image`` is the kind the chart maps send
    it to.

    ``shape`` and ``entries`` are read-only: data derived from the entries
    are kept on the point (:func:`_table`), so a point must not change
    after construction.  Equal points hash equal.

    The constructor checks every entry and the key set (and, for arrays,
    the row sums).  :meth:`_derived` checks nothing: the library calls it
    only where the result's invariants follow from a checked input of the
    right kind, and says which at each call site.  ``noun`` names the kind
    in every wrong-kind message, which :func:`_check_kind` writes.
    """

    kind = None
    side = None
    noun = None
    semiring = None
    chart_image = None

    def __init__(self, shape, entries):
        self._build(shape, entries)

    @classmethod
    def _derived(cls, shape, entries):
        """A point on ``entries``, a fresh dict the caller hands over, with no check at all."""
        point = cls.__new__(cls)
        point._shape = shape
        point._entries = entries
        point._tables = {}
        return point

    def _build(self, shape, entries):
        self._shape = shape
        entries = dict(entries)
        if not self._all_final(entries.values()):
            value = self.value
            entries = {key: value(v, key) for key, v in entries.items()}
        self._entries = entries
        self._tables = {}
        self._validate()

    @property
    def shape(self):
        return self._shape

    @property
    def entries(self):
        return MappingProxyType(self._entries)

    def _validate(self):
        domain = self.shape.domain(self.side)
        if self._entries.keys() != domain:
            found = set(self._entries)
            missing = sorted(domain - found)
            extra = sorted(found - domain)
            # a few keys of each, so the message stays short at any shape
            raise ValidationError(
                "%s entries do not match the index set (%d missing, first %s; %d extra, first %s)"
                % (type(self).__name__, len(missing), brief(missing[:4]),
                   len(extra), brief(extra[:4]))
            )

    def get(self, l, m):
        """Entry at (l, m); the semiring unit when (l, m) is off the lattice."""
        return self._entries.get((l, m), self.semiring.one)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.shape == other.shape
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.shape, frozenset(self._entries.items())))

    def __repr__(self):
        body = ", ".join("(%d,%d): %s" % (l, m, v) for (l, m), v in sorted(self._entries.items()))
        return "%s(%r, {%s})" % (type(self).__name__, self.shape, body)


class _RationalPoint(_BasePoint):
    """Positive rational coordinates."""

    semiring = RATIONAL

    @staticmethod
    def _all_final(values):
        return (
            set(map(type, values)) <= {Fraction}
            and min(map(_num_of, values), default=1) > 0
        )

    def value(self, v, key=None):
        """A Fraction, an int or ``"p/q"``, as a positive Fraction."""
        if type(v) is not Fraction:
            try:
                v = parse_rational(v)
            except ValidationError as exc:
                where = "the action parameter" if key is None else "entry at %s" % brief(key)
                raise ValidationError("%s: %s" % (where, exc)) from None
        if v.numerator > 0:
            return v
        if key is None:
            raise ValidationError("the action parameter must be positive")
        raise ValidationError("entry at %s must be positive, got %s" % (brief(key), brief(v)))


class XPoint(_RationalPoint):
    """Positive rational coordinates on the first lattice."""

    kind = "x"
    side = 1
    noun = "an x point"


class YPoint(_RationalPoint):
    """Positive rational coordinates on the second lattice."""

    kind = "y"
    side = 2
    noun = "a y point"


XPoint.chart_image, YPoint.chart_image = YPoint, XPoint


class _IntPoint(_BasePoint):
    """Integer entries, read in the max-plus semiring."""

    semiring = MAXPLUS

    @staticmethod
    def _all_final(values):
        # exact types: a bool is an int subclass, and value rejects it
        return set(map(type, values)) <= {int}

    def value(self, v, key=None):
        """An integer, not a bool."""
        if _is_int(v):
            return v
        if key is None:
            raise ValidationError("the action parameter must be an integer")
        raise ValidationError("%s entry at %s must be an integer" % (self.kind, brief(key)))

    def get(self, l, m):
        # the literal max-plus unit: the array 0-operators read entries in their inner loop
        return self._entries.get((l, m), 0)


class TropPoint(_IntPoint):
    """Integer coordinates on the first lattice (the ultra-discretized chart)."""

    kind = "trop"
    side = 1
    noun = "a tropical point"


class BElement(_IntPoint):
    """Element of the array crystal: an integer array with zero row sums."""

    kind = "b"
    side = "b"
    noun = "an array"

    def __init__(self, shape, entries):
        # not through _BasePoint.__init__: the benchmark counts its calls as
        # lattice.points_built, which perfbench/README.md defines as x, y and
        # tropical points only
        self._build(shape, entries)
        # b_indices runs row by row, kprime + 1 entries a row
        values = list(map(self._entries.__getitem__, shape.b_indices))
        width = shape.kprime + 1
        for j in range(shape.k):
            row_sum = sum(values[j * width:(j + 1) * width])
            if row_sum != 0:
                raise ValidationError("row %d sums to %s, expected 0" % (j + 1, brief(row_sum)))


def _table(point, key, build, *args):
    """``build(point, *args)``, kept on the point under ``key`` from the first call on.

    ``point._tables`` is the one store of data derived from a point's
    entries: the path engine's DP tables under its plain names, and, under
    tuple keys that start with the module's name, the degree probe's
    rational point and the per-index data of :mod:`.tropical` and
    :mod:`.bkinf`.  Per-index data are integers or tuples, never lists, so
    no reader can change them in place, and each holds O(entries) values.
    Every point starts with an empty store, the images of
    :meth:`_BasePoint._derived` included.
    """
    tables = point._tables
    if key not in tables:
        tables[key] = build(point, *args)
    return tables[key]


_KIND_CLASSES = {cls.kind: cls for cls in (XPoint, YPoint, TropPoint, BElement)}


def _check_kind(point, cls, what):
    """The one kind check: reject all but a ``cls`` point (class or tuple) before ``what``."""
    if not isinstance(point, cls):
        *rest, last = [c.noun for c in (cls if isinstance(cls, tuple) else (cls,))]
        expected = "%s or %s" % (", ".join(rest), last) if rest else last
        got = point.noun if isinstance(point, _BasePoint) else type(point).__name__
        raise ValidationError("%s expects %s, got %s" % (what, expected, got))


def sample_point(shape, seed, bound, kind="x"):
    """Deterministic random point; a pure function of (shape, seed, bound, kind).

    Rational entries have numerator and denominator uniform in [1, bound];
    tropical entries are uniform in [-bound, bound].
    """
    if bound < 1:
        raise ValidationError("bound must be at least 1")
    if kind not in ("x", "y", "trop"):  # arrays: bkinf.sample_belement
        raise ValidationError("unknown point kind %s" % brief(kind))
    tag = _mix_tag(seed, shape.n, shape.k, bound, sum(ord(ch) for ch in kind))
    rng = SplitMix64(tag)
    cls = _KIND_CLASSES[kind]
    entries = {}
    for key in sorted(shape.indices(cls.side)):
        if kind == "trop":
            entries[key] = rng.randint(-bound, bound)
        else:
            num = rng.randint(1, bound)
            den = rng.randint(1, bound)
            entries[key] = Fraction(num, den)
    return cls(shape, entries)


def sample_rational(rng, bound, avoid_one=False):
    """Random positive rational from an existing stream.

    With ``avoid_one`` the numerator and denominator are forced distinct, so
    the value cannot collapse to 1 and pass a relation degenerately.
    """
    num = rng.randint(1, bound)
    den = rng.randint(1, bound)
    if avoid_one and num == den:
        den = den + 1 if den < bound else den - 1
        if den == 0:
            den = num + 1
    return Fraction(num, den)


def format_rational(q):
    """A Fraction or an int as ``"p/q"``."""
    return "%d/%d" % (q.numerator, q.denominator)


_RATIONAL_TEXT = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text):
    """An int, or a string ``"p"`` or ``"p/q"`` of decimal digits, as an exact Fraction.

    Anything else (floats, bools, ``"1_000/3"``, ``" 3 / 4 "``) raises
    :class:`ValidationError`.
    """
    if _is_int(text):
        return Fraction(text)
    if isinstance(text, str) and _RATIONAL_TEXT.fullmatch(text):
        num, _, den = text.partition("/")
        try:
            return Fraction(int(num), int(den or 1))
        except (ValueError, ZeroDivisionError) as exc:  # too many digits, or q = 0
            raise ValidationError("bad rational %s: %s" % (brief(text), exc)) from None
    raise ValidationError("bad rational %s: expected an integer or 'p/q'" % brief(text))


def point_to_json(point):
    """JSON-ready mapping: {"n", "k", "kind", "entries": {"l,m": value}}.

    Encodes every kind; rational entries are written ``"p/q"``, integer
    entries as JSON integers.
    """
    rational = point.semiring is RATIONAL
    entries = {
        "%d,%d" % key: format_rational(value) if rational else value
        for key, value in sorted(point.entries.items())
    }
    return {"n": point.shape.n, "k": point.shape.k, "kind": point.kind, "entries": entries}


def point_from_json(data):
    """Decode a point of any kind: ``x``, ``y``, ``trop`` or the array kind ``b``."""
    try:
        n, k, kind, raw = data["n"], data["k"], data["kind"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("point object must carry n, k, kind, entries: %s" % exc)
    cls = _KIND_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError("unknown point kind %s" % brief(kind))
    if not isinstance(raw, dict):
        raise ValidationError("entries must be an object with 'l,m' keys")
    # the count before the shape: building the index sets costs O(n*k)
    _check_shape(n, k)
    kprime = n + 1 - k
    size = k * (kprime + 1 if cls.side == "b" else kprime)
    if len(raw) != size:
        raise ValidationError(
            "%s point at n=%s, k=%s has %s entries, got %d"
            % (kind, brief(n), brief(k), brief(size), len(raw))
        )
    entries = {}
    for key, value in raw.items():
        try:
            l_s, m_s = key.split(",")
            lm = (int(l_s), int(m_s))
        except ValueError:
            lm = None
        # only point_to_json's spelling, so no two keys ("1,2", "01,2", " 1,2") name one entry
        if lm is None or "%d,%d" % lm != key:
            raise ValidationError("bad entry key %s, expected 'l,m'" % brief(key))
        entries[lm] = value
    return cls(make_shape(n, k), entries)
