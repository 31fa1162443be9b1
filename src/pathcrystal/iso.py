"""Bijection between integer points and the array crystal, plus its checker.

The map takes successive differences along each row (reading off-lattice
coordinates as 0), its inverse takes prefix sums; row sums vanish by
telescoping.  The companion correspondence sends each increasing tuple to
the full lattice path whose row runs are delimited by the tuple, under
which the column functional of an image array equals the negated tropical
path weight.
"""

from .bkinf import (
    BElement,
    CTuple,
    all_ctuples,
    bk_e,
    delta,
    eps_phi,
    eps_phi_0,
    weyl_s_tilde,
    wt,
)
from .errors import ValidationError
from .lattice import TropPoint, point_to_json, sample_point
from .paths import Path, path_weight
from .reporting import RelationCheck
from .tropical import trop_e, trop_eps, trop_weyl, trop_wt


def omega(x):
    """Row-difference map onto the array crystal."""
    if not isinstance(x, TropPoint):
        raise ValidationError("omega expects a tropical point")
    shape = x.shape
    entries = {}
    for (j, i) in BElement.domain(shape):
        row = shape.k - j + 1
        entries[(j, i)] = x.get(row, i) - x.get(row, i - 1)
    return BElement(shape, entries)


def omega_inv(b):
    """Prefix-sum inverse of :func:`omega`."""
    shape = b.shape
    entries = {}
    for (l, m) in shape.l1_indices:
        row = shape.k - l + 1
        entries[(l, m)] = sum(b.get(row, s) for s in range(row, m + 1))
    return TropPoint(shape, entries)


def pi_correspondence(shape, c):
    """Full path whose run on each row is delimited by the tuple entries."""
    if not isinstance(c, CTuple):
        c = CTuple(shape, c)
    points = []
    for j in range(1, shape.k + 1):
        row = shape.k - j + 1
        for m in range(c[j - 1], c[j]):
            points.append((row, m))
    return Path(tuple(points))


def verify_iso(shape, trials, seed, bound=10, dvals=range(-3, 4)):
    """Randomized check that the bijection intertwines all crystal data."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    names = (
        "round-trip",
        "weight-match",
        "eps-match",
        "step-intertwine",
        "reflection-intertwine",
        "delta-path",
    )
    checks = {name: RelationCheck(name) for name in names}
    family = all_ctuples(shape)
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="trop")
        b = omega(x)
        checks["round-trip"].record(
            omega_inv(b) == x and omega(omega_inv(b)) == b,
            {"point": point_to_json(x)},
        )
        for c in family:
            checks["delta-path"].record(
                delta(b, c) == -path_weight(x, pi_correspondence(shape, c)),
                {"point": point_to_json(x), "c": c.values},
            )
        for i in range(shape.n + 1):
            eps_b = eps_phi_0(b)[0] if i == 0 else eps_phi(b, i)[0]
            checks["weight-match"].record(
                trop_wt(x, i) == wt(b, i),
                {"point": point_to_json(x), "i": i},
            )
            checks["eps-match"].record(
                trop_eps(x, i) == eps_b,
                {"point": point_to_json(x), "i": i},
            )
            for d in dvals:
                checks["step-intertwine"].record(
                    omega(trop_e(x, i, d)) == bk_e(b, i, d),
                    {"point": point_to_json(x), "i": i, "d": d},
                )
            checks["reflection-intertwine"].record(
                omega(trop_weyl(x, i)) == weyl_s_tilde(b, i),
                {"point": point_to_json(x), "i": i},
            )
    return list(checks.values())
