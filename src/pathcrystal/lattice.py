"""Index bookkeeping for the two weighted lattices and seeded point sampling.

Coordinates follow the convention that ``(l, m)`` sits on the l-th
horizontal line from the bottom and the (l+m-k)-th vertical line from the
left.  The first lattice carries the x-coordinates, the second the
y-coordinates, and tropical points reuse the first index set with integer
entries.

Off-lattice reads return the multiplicative identity of the active
semiring (1 for rational points, 0 for tropical ones).  The special
boundary values used by the partial path sums live in :mod:`.paths`, not
here.
"""

from fractions import Fraction
from types import MappingProxyType

from .errors import ValidationError
from .semiring import MAXPLUS, RATIONAL

PRNG_ID = "splitmix64"

_M64 = (1 << 64) - 1


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
        """Uniform integer in [lo, hi], by rejection to avoid modulo bias."""
        span = hi - lo + 1
        if span <= 0:
            raise ValidationError("empty range [%d, %d]" % (lo, hi))
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
    """The pair (n, k) together with both derived index sets."""

    def __init__(self, n, k):
        if not _is_int(n) or not _is_int(k):
            raise ValidationError("n and k must be integers")
        if n < 2:
            raise ValidationError("n must be at least 2, got %r" % (n,))
        if not 1 <= k <= n:
            raise ValidationError("k must satisfy 1 <= k <= n, got k=%r with n=%r" % (k, n))
        self.n = n
        self.k = k
        self.kprime = n + 1 - k
        self.l1_indices = tuple(
            (l, m) for l in range(1, k + 1) for m in range(k - l + 1, n + 2 - l)
        )
        self.l2_indices = tuple(
            (l, m) for l in range(1, k + 1) for m in range(k - l, n + 1 - l)
        )
        self._domains = {1: frozenset(self.l1_indices), 2: frozenset(self.l2_indices)}

    def indices(self, side):
        """Index set of the first (side 1) or second (side 2) lattice."""
        return self.l1_indices if side == 1 else self.l2_indices

    def domain(self, side):
        """The index set of :meth:`indices` as a frozenset, built once per shape."""
        return self._domains[side]

    def in_l1(self, l, m):
        return 1 <= l <= self.k and self.k < l + m <= self.n + 1

    def in_l2(self, l, m):
        return 1 <= l <= self.k and self.k <= l + m <= self.n

    def __eq__(self, other):
        return isinstance(other, LatticeShape) and (self.n, self.k) == (other.n, other.k)

    def __hash__(self):
        return hash((self.n, self.k))

    def __repr__(self):
        return "LatticeShape(n=%d, k=%d)" % (self.n, self.k)


def _is_int(value):
    """True for a Python integer; JSON ``true``/``false`` decode to bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def make_shape(n, k):
    return LatticeShape(n, k)


class _BasePoint:
    """A point on one lattice; ``side`` names the lattice (1 or 2).

    ``entries`` is a read-only view: path tables are memoized per point, so
    a point must not change after construction.
    """

    kind = None
    side = None
    semiring = None

    def __init__(self, shape, entries):
        self.shape = shape
        self._entries = dict(entries)
        self._tables = {}
        self._validate()

    @property
    def entries(self):
        return MappingProxyType(self._entries)

    def _validate(self):
        domain = self.shape.domain(self.side)
        if self._entries.keys() != domain:
            found = set(self._entries)
            missing = sorted(domain - found)
            extra = sorted(found - domain)
            raise ValidationError(
                "%s entries do not match the index set (missing %r, extra %r)"
                % (type(self).__name__, missing, extra)
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

    def __repr__(self):
        body = ", ".join("(%d,%d): %s" % (l, m, v) for (l, m), v in sorted(self._entries.items()))
        return "%s(%r, {%s})" % (type(self).__name__, self.shape, body)


class _RationalPoint(_BasePoint):
    """Positive rational coordinates."""

    semiring = RATIONAL

    def __init__(self, shape, entries):
        entries = {
            key: value if type(value) is Fraction else Fraction(value)
            for key, value in dict(entries).items()
        }
        super().__init__(shape, entries)
        for key, value in self._entries.items():
            if value <= 0:
                raise ValidationError("entry at %r must be positive, got %s" % (key, value))


class XPoint(_RationalPoint):
    """Positive rational coordinates on the first lattice."""

    kind = "x"
    side = 1


class YPoint(_RationalPoint):
    """Positive rational coordinates on the second lattice."""

    kind = "y"
    side = 2


class TropPoint(_BasePoint):
    """Integer coordinates on the first lattice (the ultra-discretized chart)."""

    kind = "trop"
    side = 1
    semiring = MAXPLUS

    def __init__(self, shape, entries):
        entries = dict(entries)
        for key, value in entries.items():
            if not _is_int(value):
                raise ValidationError("tropical entry at %r must be an integer" % (key,))
        super().__init__(shape, entries)


_KIND_CLASSES = {"x": XPoint, "y": YPoint, "trop": TropPoint}


def sample_point(shape, seed, bound, kind="x"):
    """Deterministic random point; a pure function of (shape, seed, bound, kind).

    Rational entries have numerator and denominator uniform in [1, bound];
    tropical entries are uniform in [-bound, bound].
    """
    if bound < 1:
        raise ValidationError("bound must be at least 1")
    if kind not in _KIND_CLASSES:
        raise ValidationError("unknown point kind %r" % (kind,))
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
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


def parse_rational(text):
    if _is_int(text):
        return Fraction(text)
    s = str(text).strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        try:
            return Fraction(int(num_s), int(den_s))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError("bad rational %r: %s" % (text, exc))
    try:
        return Fraction(int(s))
    except ValueError as exc:
        raise ValidationError("bad rational %r: %s" % (text, exc))


def point_to_json(point):
    """JSON-ready mapping: {"n", "k", "kind", "entries": {"l,m": value}}."""
    entries = {}
    for (l, m), value in sorted(point.entries.items()):
        key = "%d,%d" % (l, m)
        entries[key] = value if point.kind == "trop" else format_rational(value)
    return {"n": point.shape.n, "k": point.shape.k, "kind": point.kind, "entries": entries}


def point_from_json(data):
    """Decode a point of any kind: ``x``, ``y``, ``trop`` or the array kind ``b``."""
    try:
        n, k, kind, raw = data["n"], data["k"], data["kind"], data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("point object must carry n, k, kind, entries: %s" % exc)
    if kind == "b":
        from .bkinf import BElement  # bkinf imports this module

        cls = BElement
    elif isinstance(kind, str) and kind in _KIND_CLASSES:
        cls = _KIND_CLASSES[kind]
    else:
        raise ValidationError("unknown point kind %r" % (kind,))
    if not isinstance(raw, dict):
        raise ValidationError("entries must be an object with 'l,m' keys")
    shape = make_shape(n, k)
    entries = {}
    for key, value in raw.items():
        try:
            l_s, m_s = key.split(",")
            lm = (int(l_s), int(m_s))
        except ValueError:
            raise ValidationError("bad entry key %r, expected 'l,m'" % (key,))
        # integer kinds are checked by their own constructors
        entries[lm] = parse_rational(value) if kind in ("x", "y") else value
    return cls(shape, entries)
