"""Named verification suites behind the command-line ``verify`` entry point.

Each suite draws seeded random points, checks a family of exact identities
and returns :class:`~pathcrystal.reporting.RelationCheck` records.  The
acceptance tests run these same functions at the sample sizes fixed there;
the CLI exposes them at user-chosen sizes.

The proportionality experiment (``conjecture``) compares the chart vectors
of a point and of its image under ``sigma_map`` here, so that
:mod:`.fundrep` stays a route that does not import the chart change.
"""

from fractions import Fraction

from . import bkinf, fundrep, geom, iso, tropical
from .birational import sigma_map, xi_map
from .errors import CrystalFault, ValidationError, brief
from .lattice import (
    SplitMix64,
    _mix_tag,
    format_rational,
    point_to_json,
    sample_point,
    sample_rational,
)
from .paths import (
    brute_partial_sum,
    brute_regions,
    partial_sum,
    path_weight,
    region_sums,
)
from .reporting import RelationCheck

# parameter draws per sampled point in the one-parameter action suites
PARAMS = 5
# step counts checked by the array bijection's step intertwining
DVALS = range(-3, 4)
# partial-sum kinds on each lattice
PARTIAL_SUMS = {1: ("X", "Xstar"), 2: ("Y", "Ystar")}


def _checks(*names):
    return {name: RelationCheck(name) for name in names}


def suite_paths(shape, trials, seed, bound):
    """Dynamic programming against enumeration, all nodes, both semirings."""
    checks = _checks("partial-sums", "regions")
    for t in range(trials):
        for kind in ("x", "trop", "y"):
            point = sample_point(shape, seed + t, bound, kind=kind)
            for sum_kind in PARTIAL_SUMS[point.side]:
                for (l, m) in shape.indices(point.side):
                    checks["partial-sums"].record(
                        partial_sum(point, sum_kind, l, m)
                        == brute_partial_sum(point, sum_kind, l, m),
                        point, kind=sum_kind, l=l, m=m,
                    )
            if point.side == 2:
                continue
            oracle = brute_regions(point)
            for l in range(0, shape.k + 2):
                for m in range(1, shape.n + 1):
                    checks["regions"].record(
                        region_sums(point, l, m) == oracle[(l, m)], point, l=l, m=m
                    )
    return list(checks.values())


def suite_birational(shape, trials, seed, bound):
    checks = _checks("inverse-on-x", "inverse-on-y")
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sample_point(shape, seed + 7919 + t, bound, kind="y")
        checks["inverse-on-x"].record(xi_map(sigma_map(x)) == x, x)
        checks["inverse-on-y"].record(sigma_map(xi_map(y)) == y, y)
    return list(checks.values())


def suite_lemma44(shape, trials, seed, bound):
    """Coordinates factor through the opposite chart's partial sums."""
    checks = _checks("factor-on-x", "factor-on-y")
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sigma_map(x)
        for (l, m) in shape.l1_indices:
            lhs = x.get(l, m)
            rhs = partial_sum(x, "X", l, m) * partial_sum(y, "Ystar", l - 1, m)
            checks["factor-on-x"].record(lhs == rhs, x, l=l, m=m)
        yr = sample_point(shape, seed + 104729 + t, bound, kind="y")
        xr = xi_map(yr)
        for (l, m) in shape.l2_indices:
            lhs = yr.get(l, m)
            rhs = partial_sum(yr, "Ystar", l, m) * partial_sum(xr, "X", l, m)
            checks["factor-on-y"].record(lhs == rhs, yr, l=l, m=m)
    return list(checks.values())


def suite_intertwine(shape, trials, seed, bound):
    """The chart change commutes with the shared actions (indices 0..n-1).

    At i = 0 this compares the x-chart's closed-form 0-action, gamma and
    epsilon with the y-chart's generic ones through the chart change.
    """
    checks = _checks("action-intertwine", "gamma-transport", "epsilon-transport")
    rng = SplitMix64(_mix_tag(seed, 0x51))
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sigma_map(x)
        for i in range(shape.n):
            checks["gamma-transport"].record(geom.gamma(x, i) == geom.gamma(y, i), x, i=i)
            checks["epsilon-transport"].record(geom.epsilon(x, i) == geom.epsilon(y, i), x, i=i)
            for _ in range(PARAMS):
                c = sample_rational(rng, bound, avoid_one=True)
                checks["action-intertwine"].record(
                    sigma_map(geom.act_e(x, i, c)) == geom.act_e(y, i, c), x, i=i, c=c
                )
    return list(checks.values())


def suite_axioms(shape, trials, seed, bound):
    """Every defining relation of the affine structure, incl. the 0-n Verma relation.

    Each sampled point is tested with :data:`PARAMS` draws of the
    parameter pair (c, d); ``identity-at-1`` takes no parameter and runs
    once per (point, i).
    """
    act_e, epsilon, gamma = geom.act_e, geom.epsilon, geom.gamma
    index_set = range(shape.n + 1)
    checks = _checks(
        "identity-at-1", "parameter-group-law", "gamma-scaling", "epsilon-scaling",
        "epsilon-invariance", "commutation", "verma",
    )
    rng = SplitMix64(seed ^ 0xA1F1)
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        for i in index_set:
            checks["identity-at-1"].record(act_e(x, i, Fraction(1)) == x, x, i=i)
        for p in range(PARAMS):
            c = sample_rational(rng, bound, avoid_one=(p % 2 == 0))
            d = sample_rational(rng, bound, avoid_one=(p % 2 == 1))
            for i in index_set:
                xi = act_e(x, i, c)
                checks["parameter-group-law"].record(
                    act_e(xi, i, d) == act_e(x, i, c * d), x, i=i, c=c, d=d
                )
                checks["epsilon-scaling"].record(epsilon(xi, i) == epsilon(x, i) / c, x, i=i, c=c)
                for j in index_set:
                    checks["gamma-scaling"].record(
                        gamma(xi, j) == c ** shape.cartan(i, j) * gamma(x, j), x, i=i, j=j, c=c
                    )
                for j in range(i + 1, shape.n + 1):
                    if shape.cartan(i, j) == 0:
                        checks["commutation"].record(
                            act_e(act_e(x, j, d), i, c) == act_e(act_e(x, i, c), j, d),
                            x, i=i, j=j, c=c, d=d,
                        )
                        checks["epsilon-invariance"].record(
                            epsilon(act_e(x, j, c), i) == epsilon(x, i), x, i=i, j=j, c=c
                        )
                    else:
                        lhs = act_e(act_e(act_e(x, i, d), j, c * d), i, c)
                        rhs = act_e(act_e(act_e(x, j, c), i, c * d), j, d)
                        checks["verma"].record(lhs == rhs, x, i=i, j=j, c=c, d=d)
    return list(checks.values())


def suite_iso(shape, trials, seed, bound):
    """The array bijection intertwines all crystal data."""
    checks = _checks(
        "round-trip", "weight-match", "eps-match", "step-intertwine",
        "reflection-intertwine", "delta-path",
    )
    family = bkinf.all_ctuples(shape)
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="trop")
        b = iso.omega(x)
        checks["round-trip"].record(iso.omega_inv(b) == x, x)
        # the other direction from an array of its own: omega(omega_inv(omega(x))) is omega(x)
        a = bkinf.sample_belement(shape, seed + t, bound)
        checks["round-trip"].record(iso.omega(iso.omega_inv(a)) == a, a)
        for c in family:
            checks["delta-path"].record(
                bkinf.delta(b, c) == -path_weight(x, iso.pi_correspondence(shape, c)),
                x, c=c,
            )
        for i in range(shape.n + 1):
            checks["weight-match"].record(tropical.trop_wt(x, i) == bkinf.wt(b, i), x, i=i)
            checks["eps-match"].record(tropical.trop_eps(x, i) == bkinf.eps_phi(b, i)[0], x, i=i)
            # the unit-step side: one walk each way from b, so walk[d] is |d| kashiwara
            # steps (bk_e_steps's route) and each step is taken once for all of DVALS
            walk = {0: b}
            for d in range(1, max(DVALS) + 1):
                walk[d] = bkinf.kashiwara(walk[d - 1], "e", i)
            for d in range(-1, min(DVALS) - 1, -1):
                walk[d] = bkinf.kashiwara(walk[d + 1], "f", i)
            for d in DVALS:
                checks["step-intertwine"].record(
                    iso.omega(tropical.trop_e(x, i, d)) == walk[d], x, i=i, d=d
                )
            checks["reflection-intertwine"].record(
                iso.omega(tropical.trop_weyl(x, i)) == bkinf.weyl_s_tilde(b, i), x, i=i
            )
    return list(checks.values())


def suite_udprobe(shape, trials, seed, bound):
    """Degree probe of the rational quantities against the tropical forms.

    A witness names one probe call: replaying its point through
    ``map --map ud-probe --i I --d D`` reports all three pairs.
    ``maxplus-action`` compares that tropical action with ``geom.act_e`` on the
    integer point at i = 1..n (at i = 0 both read the max-plus path engine).
    """
    checks = _checks("probe-gamma", "probe-epsilon", "probe-action", "maxplus-action")
    rng = SplitMix64(_mix_tag(seed, 0xDE))
    for t in range(trials):
        exponents = sample_point(shape, seed + t, bound, kind="trop")
        for i in range(shape.n + 1):
            d = rng.randint(-3, 3)
            pairs = tropical.probe_pairs(exponents, i, d)
            for quantity, (probe, form) in pairs.items():
                checks["probe-" + quantity].record(probe == form, exponents, i=i, d=d)
            if i:
                checks["maxplus-action"].record(
                    geom.act_e(exponents, i, d) == pairs["action"][1], exponents, i=i, d=d
                )
    return list(checks.values())


def suite_weyl(shape, trials, seed, bound):
    """Reflection relations on all three realizations, closed vs defining."""
    checks = _checks(
        "geometric-closed-form", "geometric-involution", "geometric-braid", "geometric-commute",
        "tropical-involution", "tropical-braid", "tropical-commute",
        "array-closed-form", "array-involution", "array-braid", "array-commute",
    )
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        z = sample_point(shape, seed + t, bound, kind="trop")
        b = bkinf.sample_belement(shape, seed + t, bound)
        realizations = (
            ("geometric", geom.weyl_s, x),
            ("tropical", tropical.trop_weyl, z),
            ("array", bkinf.weyl_s_tilde, b),
        )
        for i in range(shape.n + 1):
            if i:  # at i = 0, weyl_s is weyl_s_def's own route: the action at 1/gamma
                checks["geometric-closed-form"].record(
                    geom.weyl_s(x, i) == geom.weyl_s_def(x, i), x, i=i
                )
            checks["array-closed-form"].record(
                bkinf.weyl_s_tilde(b, i) == bkinf.bk_e_steps(b, i, -bkinf.wt(b, i)), b, i=i
            )
            for label, refl, value in realizations:
                checks[label + "-involution"].record(refl(refl(value, i), i) == value, value, i=i)
                for j in range(i + 1, shape.n + 1):
                    if shape.cartan(i, j) == 0:
                        ok = refl(refl(value, i), j) == refl(refl(value, j), i)
                        checks[label + "-commute"].record(ok, value, i=i, j=j)
                    else:
                        ok = refl(refl(refl(value, i), j), i) == refl(refl(refl(value, j), i), j)
                        checks[label + "-braid"].record(ok, value, i=i, j=j)
    return list(checks.values())


def suite_extremal(shape, trials, seed, bound):
    """Extremal-tuple machinery: both extremal tuples attain the least delta.

    ``extremal-tuples`` fails when an :func:`~pathcrystal.bkinf.extremal_c`
    call faults: each checks its tuple's delta against the same table's
    minimum.  ``eps-phi-from-tuples`` compares the DP's 0-data with delta
    at the enumerated extremal tuples.
    """
    checks = _checks("extremal-tuples", "eps-phi-from-tuples")
    for t in range(trials):
        b = bkinf.sample_belement(shape, seed + t, bound)
        try:
            ce = bkinf.extremal_c(b, "e")
            cf = bkinf.extremal_c(b, "f")
        except CrystalFault as fault:
            checks["extremal-tuples"].record(False, b, fault=str(fault))
            continue
        checks["extremal-tuples"].record(True)
        delta_e, delta_f = bkinf.delta(b, ce), bkinf.delta(b, cf)
        from_tuples = (-b.get(shape.k, shape.n + 1) - delta_e, -b.get(1, 1) - delta_f)
        checks["eps-phi-from-tuples"].record(bkinf.eps_phi_0(b) == from_tuples, b, ce=ce, cf=cf)
    return list(checks.values())


def suite_fundrep(shape, trials, seed, bound):
    """Exhaustive operator nilpotence and highest-weight annihilation."""
    checks = _checks("nilpotence", "annihilation-u1", "annihilation-u2")
    keys = fundrep.basis_keys(shape)
    for i in range(shape.n + 1):
        for key in keys:
            v = fundrep.unit_vector(shape, key)
            ok = all(
                not fundrep.apply_gen(shape, fundrep.apply_gen(shape, v, gen, i), gen, i)
                for gen in ("e", "f")
            )
            checks["nilpotence"].record(ok, i=i, key=list(key))
    u1 = fundrep.unit_vector(shape, fundrep.highest_u1(shape))
    u2 = fundrep.unit_vector(shape, fundrep.highest_u2(shape))
    for i in range(1, shape.n + 1):
        checks["annihilation-u1"].record(not fundrep.apply_gen(shape, u1, "e", i), i=i)
    for i in range(0, shape.n):
        checks["annihilation-u2"].record(not fundrep.apply_gen(shape, u2, "e", i), i=i)
    return list(checks.values())


def _require_trials(trials):
    # a run over zero trials checks nothing and must not pass
    if trials < 1:
        raise ValidationError("trials must be >= 1, got %s" % brief(trials))


def _conjecture_runs(shape, trials, seed, bound):
    """(point, outcome) per trial of the proportionality experiment.

    The vector v2 of the mapped point is proportional to v1 when both have
    the same keys and every ratio v2/v1 is one scalar.
    """
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        v1, v2 = fundrep.chart_vector(x), fundrep.chart_vector(sigma_map(x))
        ratios = {v2[key] / v1[key] for key in v1} if v1.keys() == v2.keys() else set()
        proportional = len(ratios) == 1
        outcome = {
            "point": point_to_json(x),
            "proportional": proportional,
            "ratio": format_rational(ratios.pop()) if proportional else None,
            "expected_ratio": format_rational(1 / x.get(1, shape.n)),
        }
        yield x, outcome


def conjecture_outcomes(shape, trials, seed, bound=16):
    """Raw probe outcomes for the proportionality experiment."""
    _require_trials(trials)
    return [outcome for _, outcome in _conjecture_runs(shape, trials, seed, bound)]


def ratio_holds(outcome):
    """The gated identity: proportional, with ratio 1/x_(1,n)."""
    return outcome["proportional"] and outcome["ratio"] == outcome["expected_ratio"]


def suite_conjecture(shape, trials, seed, bound):
    """v2(sigma(x)) = v1(x) / x_(1,n): the two chart vectors are proportional at every k."""
    checks = _checks("chart-proportional")
    for x, outcome in _conjecture_runs(shape, trials, seed, bound):
        checks["chart-proportional"].record(
            ratio_holds(outcome), x,
            ratio=outcome["ratio"], expected_ratio=outcome["expected_ratio"],
        )
    return list(checks.values())


SUITES = {
    "paths": suite_paths,
    "birational": suite_birational,
    "lemma44": suite_lemma44,
    "intertwine": suite_intertwine,
    "axioms": suite_axioms,
    "iso": suite_iso,
    "udprobe": suite_udprobe,
    "weyl": suite_weyl,
    "extremal": suite_extremal,
    "fundrep": suite_fundrep,
    "conjecture": suite_conjecture,
}

DEFAULT_BOUNDS = {"iso": 10, "extremal": 10}


def suite_bound(name, bound=None):
    """The sampling bound a suite runs at, as its report states it.

    ``None`` selects the suite's default; the degree probe clamps to the
    largest exponent it can read exactly.  A bound below 1 is rejected for
    every suite, including those that sample no point.
    """
    if bound is None:
        bound = DEFAULT_BOUNDS.get(name, 16)
    if bound < 1:
        raise ValidationError("bound must be at least 1, got %s" % brief(bound))
    if name == "udprobe":
        bound = min(bound, tropical.PROBE_MAX_EXPONENT)
    return bound


def run_suite(name, shape, trials, seed, bound=None):
    if name not in SUITES:
        raise ValidationError(
            "unknown suite %s (known: %s)" % (brief(name), ", ".join(sorted(SUITES)))
        )
    _require_trials(trials)
    return SUITES[name](shape, trials, seed, suite_bound(name, bound))
