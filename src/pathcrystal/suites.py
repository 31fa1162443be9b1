"""Named verification suites behind the command-line ``verify`` entry point.

Each suite draws seeded random points, checks a family of exact identities
and returns :class:`~pathcrystal.reporting.RelationCheck` records.  The
acceptance tests run these same functions at the sample sizes fixed there;
the CLI exposes them at user-chosen sizes.
"""

from fractions import Fraction

from . import bkinf, fundrep, geom, iso, tropical
from .birational import sigma_map, xi_map
from .errors import CrystalFault, ValidationError
from .lattice import (
    SplitMix64,
    _mix_tag,
    format_rational,
    point_to_json,
    sample_point,
    sample_rational,
)
from .paths import (
    brute_epsilon,
    brute_partial_sum,
    brute_region_sums,
    epsilon_total,
    partial_sum,
    region_sums,
)
from .reporting import RelationCheck


def suite_paths(shape, trials, seed, bound=16):
    """Dynamic programming against enumeration, all nodes, both semirings."""
    checks = {
        name: RelationCheck(name)
        for name in ("partial-sums", "regions", "total-weight")
    }
    for t in range(trials):
        points = [
            sample_point(shape, seed + t, bound, kind="x"),
            sample_point(shape, seed + t, bound, kind="trop"),
        ]
        ypoint = sample_point(shape, seed + t, bound, kind="y")
        for point in points:
            wit = {"point": point_to_json(point)}
            for kind in ("X", "Xstar"):
                for (l, m) in shape.l1_indices:
                    checks["partial-sums"].record(
                        partial_sum(point, kind, l, m) == brute_partial_sum(point, kind, l, m),
                        dict(wit, kind=kind, l=l, m=m),
                    )
            for l in range(0, shape.k + 2):
                for m in range(1, shape.n + 1):
                    checks["regions"].record(
                        region_sums(point, l, m) == brute_region_sums(point, l, m),
                        dict(wit, l=l, m=m),
                    )
            checks["total-weight"].record(
                epsilon_total(point) == brute_epsilon(point), wit
            )
        wit = {"point": point_to_json(ypoint)}
        for kind in ("Y", "Ystar"):
            for (l, m) in shape.l2_indices:
                checks["partial-sums"].record(
                    partial_sum(ypoint, kind, l, m) == brute_partial_sum(ypoint, kind, l, m),
                    dict(wit, kind=kind, l=l, m=m),
                )
    return list(checks.values())


def suite_birational(shape, trials, seed, bound=16):
    checks = {
        name: RelationCheck(name) for name in ("inverse-on-x", "inverse-on-y", "positivity")
    }
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sample_point(shape, seed + 7919 + t, bound, kind="y")
        image = sigma_map(x)
        checks["inverse-on-x"].record(xi_map(image) == x, {"point": point_to_json(x)})
        checks["inverse-on-y"].record(
            sigma_map(xi_map(y)) == y, {"point": point_to_json(y)}
        )
        checks["positivity"].record(
            all(v > 0 for v in image.entries.values())
            and all(v > 0 for v in xi_map(y).entries.values()),
            {"point": point_to_json(x)},
        )
    return list(checks.values())


def suite_lemma44(shape, trials, seed, bound=16):
    """Coordinates factor through the opposite chart's partial sums."""
    checks = {name: RelationCheck(name) for name in ("factor-on-x", "factor-on-y")}
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sigma_map(x)
        for (l, m) in shape.l1_indices:
            lhs = x.get(l, m)
            rhs = partial_sum(x, "X", l, m) * partial_sum(y, "Ystar", l - 1, m)
            checks["factor-on-x"].record(
                lhs == rhs, {"point": point_to_json(x), "l": l, "m": m}
            )
        yr = sample_point(shape, seed + 104729 + t, bound, kind="y")
        xr = xi_map(yr)
        for (l, m) in shape.l2_indices:
            lhs = yr.get(l, m)
            rhs = partial_sum(yr, "Ystar", l, m) * partial_sum(xr, "X", l, m)
            checks["factor-on-y"].record(
                lhs == rhs, {"point": point_to_json(yr), "l": l, "m": m}
            )
    return list(checks.values())


def suite_intertwine(shape, trials, seed, bound=16, params=5):
    """The chart change commutes with the shared actions (indices 1..n-1)."""
    checks = {
        name: RelationCheck(name)
        for name in ("action-intertwine", "gamma-transport", "epsilon-transport")
    }
    rng = SplitMix64(_mix_tag(seed, 0x51))
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sigma_map(x)
        for i in range(1, shape.n):
            checks["gamma-transport"].record(
                geom.gamma(x, i) == geom.gamma(y, i),
                {"point": point_to_json(x), "i": i},
            )
            checks["epsilon-transport"].record(
                geom.epsilon(x, i) == geom.epsilon(y, i),
                {"point": point_to_json(x), "i": i},
            )
            for _ in range(params):
                c = sample_rational(rng, bound, avoid_one=True)
                checks["action-intertwine"].record(
                    sigma_map(geom.act_e(x, i, c)) == geom.act_e(y, i, c),
                    {"point": point_to_json(x), "i": i, "c": format_rational(c)},
                )
    return list(checks.values())


def suite_axioms(shape, trials, seed, bound=16, params=5):
    return geom.verify_axioms(shape, trials, seed, bound, params=params)


def suite_e0route(shape, trials, seed, bound=16, params=5):
    """Closed-form 0-action equals the chart-conjugated route."""
    checks = {
        name: RelationCheck(name)
        for name in ("e0-route", "gamma0-route", "epsilon0-route")
    }
    rng = SplitMix64(_mix_tag(seed, 0xE0))
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sigma_map(x)
        checks["gamma0-route"].record(
            geom.gamma(x, 0) == geom.gamma(y, 0), {"point": point_to_json(x)}
        )
        checks["epsilon0-route"].record(
            geom.epsilon(x, 0) == geom.epsilon(y, 0), {"point": point_to_json(x)}
        )
        for _ in range(params):
            c = sample_rational(rng, bound, avoid_one=True)
            checks["e0-route"].record(
                geom.act_e(x, 0, c) == geom.act_e0_via_sigma(x, c),
                {"point": point_to_json(x), "c": format_rational(c)},
            )
    return list(checks.values())


def suite_iso(shape, trials, seed, bound=10):
    return iso.verify_iso(shape, trials, seed, bound)


def suite_udprobe(shape, trials, seed, bound=8):
    """Degree probe of the rational quantities against the tropical forms."""
    checks = {
        name: RelationCheck(name)
        for name in ("probe-gamma", "probe-epsilon", "probe-action")
    }
    rng = SplitMix64(_mix_tag(seed, 0xDE))
    bound = min(bound, tropical.PROBE_MAX_EXPONENT)
    for t in range(trials):
        exponents = sample_point(shape, seed + t, bound, kind="trop")
        wit = {"point": point_to_json(exponents)}
        for i in range(shape.n + 1):
            checks["probe-gamma"].record(
                tropical.ud_degree_probe("gamma", exponents, i)
                == tropical.trop_wt(exponents, i),
                dict(wit, i=i),
            )
            checks["probe-epsilon"].record(
                tropical.ud_degree_probe("epsilon", exponents, i)
                == tropical.trop_eps(exponents, i),
                dict(wit, i=i),
            )
            d = rng.randint(-3, 3)
            moved = tropical.trop_e(exponents, i, d)
            checks["probe-action"].record(
                all(
                    tropical.ud_degree_probe("e", exponents, i, d=d, coord=lm)
                    == moved.get(*lm)
                    for lm in shape.l1_indices
                ),
                dict(wit, i=i, d=d),
            )
    return list(checks.values())


def suite_weyl(shape, trials, seed, bound=16):
    """Reflection relations on all three realizations, closed vs defining."""
    cartan = geom.CartanA1n(shape.n)
    names = (
        "geometric-closed-form",
        "geometric-involution",
        "geometric-braid",
        "geometric-commute",
        "tropical-involution",
        "tropical-braid",
        "tropical-commute",
        "array-closed-form",
        "array-involution",
        "array-braid",
        "array-commute",
    )
    checks = {name: RelationCheck(name) for name in names}
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        z = sample_point(shape, seed + t, bound, kind="trop")
        b = bkinf.sample_belement(shape, seed + t, bound)
        wx = {"point": point_to_json(x)}
        wz = {"point": point_to_json(z)}
        wb = {"element": bkinf.to_json(b)}
        for i in range(shape.n + 1):
            checks["geometric-closed-form"].record(
                geom.weyl_s(x, i) == geom.weyl_s_def(x, i), dict(wx, i=i)
            )
            checks["geometric-involution"].record(
                geom.weyl_s(geom.weyl_s(x, i), i) == x, dict(wx, i=i)
            )
            checks["tropical-involution"].record(
                tropical.trop_weyl(tropical.trop_weyl(z, i), i) == z, dict(wz, i=i)
            )
            checks["array-closed-form"].record(
                bkinf.weyl_s_tilde(b, i) == bkinf.bk_e(b, i, -bkinf.wt(b, i)),
                dict(wb, i=i),
            )
            checks["array-involution"].record(
                bkinf.weyl_s_tilde(bkinf.weyl_s_tilde(b, i), i) == b, dict(wb, i=i)
            )
            for j in range(i + 1, shape.n + 1):
                if cartan.a(i, j) == 0:
                    checks["geometric-commute"].record(
                        geom.weyl_s(geom.weyl_s(x, i), j)
                        == geom.weyl_s(geom.weyl_s(x, j), i),
                        dict(wx, i=i, j=j),
                    )
                    checks["tropical-commute"].record(
                        tropical.trop_weyl(tropical.trop_weyl(z, i), j)
                        == tropical.trop_weyl(tropical.trop_weyl(z, j), i),
                        dict(wz, i=i, j=j),
                    )
                    checks["array-commute"].record(
                        bkinf.weyl_s_tilde(bkinf.weyl_s_tilde(b, i), j)
                        == bkinf.weyl_s_tilde(bkinf.weyl_s_tilde(b, j), i),
                        dict(wb, i=i, j=j),
                    )
                else:
                    checks["geometric-braid"].record(
                        _braid(geom.weyl_s, x, i, j), dict(wx, i=i, j=j)
                    )
                    checks["tropical-braid"].record(
                        _braid(tropical.trop_weyl, z, i, j), dict(wz, i=i, j=j)
                    )
                    checks["array-braid"].record(
                        _braid(bkinf.weyl_s_tilde, b, i, j), dict(wb, i=i, j=j)
                    )
    return list(checks.values())


def _braid(refl, value, i, j):
    lhs = refl(refl(refl(value, i), j), i)
    rhs = refl(refl(refl(value, j), i), j)
    return lhs == rhs


def suite_extremal(shape, trials, seed, bound=10):
    """Extremal-tuple machinery: minimality, inequalities, equal minima."""
    checks = {name: RelationCheck(name) for name in ("extremal-tuples", "equal-minima")}
    for t in range(trials):
        b = bkinf.sample_belement(shape, seed + t, bound)
        wit = {"element": bkinf.to_json(b)}
        try:
            ce = bkinf.extremal_c(b, "e")
            cf = bkinf.extremal_c(b, "f")
        except CrystalFault as fault:
            checks["extremal-tuples"].record(False, dict(wit, fault=str(fault)))
            continue
        checks["extremal-tuples"].record(True, wit)
        checks["equal-minima"].record(
            bkinf.delta(b, ce) == bkinf.delta(b, cf), dict(wit, ce=ce.values, cf=cf.values)
        )
    return list(checks.values())


def suite_fundrep(shape, trials, seed, bound=16):
    """Exhaustive operator nilpotence and highest-weight annihilation."""
    checks = {
        name: RelationCheck(name)
        for name in ("nilpotence", "annihilation-u1", "annihilation-u2")
    }
    keys = fundrep.basis_keys(shape)
    for i in range(shape.n + 1):
        for key in keys:
            v = fundrep.unit_vector(shape, key)
            ok = all(
                fundrep.apply_gen(fundrep.apply_gen(v, gen, i), gen, i).is_zero()
                for gen in ("e", "f")
            )
            checks["nilpotence"].record(ok, {"i": i, "key": list(key)})
    u1 = fundrep.unit_vector(shape, fundrep.highest_u1(shape))
    u2 = fundrep.unit_vector(shape, fundrep.highest_u2(shape))
    for i in range(1, shape.n + 1):
        checks["annihilation-u1"].record(fundrep.apply_gen(u1, "e", i).is_zero(), {"i": i})
    for i in range(0, shape.n):
        checks["annihilation-u2"].record(fundrep.apply_gen(u2, "e", i).is_zero(), {"i": i})
    return list(checks.values())


def _require_trials(trials):
    # a run over zero trials checks nothing and must not pass
    if trials < 1:
        raise ValidationError("trials must be >= 1, got %r" % (trials,))


def conjecture_outcomes(shape, trials, seed, bound=16):
    """Raw probe outcomes for the proportionality experiment."""
    _require_trials(trials)
    outcomes = []
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        result = fundrep.proportionality_probe(x)
        record = {
            "point": point_to_json(x),
            "proportional": result["proportional"],
            "ratio": format_rational(result["ratio"]) if result["ratio"] is not None else None,
        }
        if shape.k == 1:
            record["expected_k1_ratio"] = format_rational(
                Fraction(1) / x.get(1, shape.n)
            )
        outcomes.append(record)
    return outcomes


def suite_conjecture(shape, trials, seed, bound=16):
    """Report-only probe; only the k=1 scalar identity gates."""
    checks = {name: RelationCheck(name) for name in ("probe-runs", "k1-ratio")}
    for record in conjecture_outcomes(shape, trials, seed, bound):
        checks["probe-runs"].record(True)
        if shape.k == 1:
            checks["k1-ratio"].record(
                record["proportional"] and record["ratio"] == record["expected_k1_ratio"],
                record,
            )
    return list(checks.values())


SUITES = {
    "paths": suite_paths,
    "birational": suite_birational,
    "lemma44": suite_lemma44,
    "intertwine": suite_intertwine,
    "axioms": suite_axioms,
    "e0route": suite_e0route,
    "iso": suite_iso,
    "udprobe": suite_udprobe,
    "weyl": suite_weyl,
    "extremal": suite_extremal,
    "fundrep": suite_fundrep,
    "conjecture": suite_conjecture,
}

DEFAULT_BOUNDS = {"iso": 10, "udprobe": 8, "extremal": 10}


def suite_bound(name, bound=None):
    if bound is not None:
        return bound
    return DEFAULT_BOUNDS.get(name, 16)


def run_suite(name, shape, trials, seed, bound=None):
    if name not in SUITES:
        raise ValidationError(
            "unknown suite %r (known: %s)" % (name, ", ".join(sorted(SUITES)))
        )
    _require_trials(trials)
    return SUITES[name](shape, trials, seed, suite_bound(name, bound))
