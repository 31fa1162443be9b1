"""Named verification suites behind the command-line ``verify`` entry point.

Each suite draws seeded random points and yields its trials as records
``(relation, point, params, holds)``; :func:`run_suite` alone calls ``holds()``
and counts the answers.  A check that raises is a failed trial of its
relation, with ``error: "<Type>: <message>"`` in its witness; a value that
several checks read is built by the first of them (:func:`_lazy`), and a
fault in it fails each reader.  ``axioms`` shares gamma and epsilon at the
sampled point per trial and the actions at c and at d per parameter draw;
``weyl`` shares each realization's first reflection at each index.  The
second route a check compares against (``weyl_s_def``, ``bk_e_steps``) is
never shared, so no check compares a value with itself.  A suite checks its
shape's limits before its first record, so a shape past a cap stays bad
usage.  The acceptance tests run these same functions at the sample sizes
fixed there; the CLI exposes them at user-chosen sizes.

The proportionality experiment (``conjecture``) compares the chart vectors
of a point and of its image under ``sigma_map`` here, so that
:mod:`.fundrep` stays a route that does not import the chart change.
"""

from fractions import Fraction

from . import bkinf, fundrep, geom, iso, tropical
from .birational import sigma_map, xi_map
from .errors import ValidationError, brief
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

SUITES = {}  # suite name -> its trial generator
RELATIONS = {}  # suite name -> its relation names, in report order
DEFAULT_BOUNDS = {}  # suite name -> the sampling bound it runs at by default


def _suite(name, *relations, bound=16):
    """Register a trial generator as suite ``name``, reporting ``relations`` in this order."""
    def register(generate):
        SUITES[name], RELATIONS[name], DEFAULT_BOUNDS[name] = generate, relations, bound
        return generate
    return register


def _lazy(build, *args):
    """``build(*args)`` as a zero-argument call, built on first use; an exception is kept."""
    built, failed = [], []

    def value():
        if built:
            return built[0]
        if not failed:
            try:
                built.append(build(*args))
                return built[0]
            except Exception as exc:
                failed.append(exc)
        raise failed[0]
    return value


@_suite("paths", "partial-sums", "regions")
def suite_paths(shape, trials, seed, bound):
    """Dynamic programming against enumeration, all nodes, both semirings."""
    shape.check_full_paths()
    for t in range(trials):
        for kind in ("x", "trop", "y"):
            point = sample_point(shape, seed + t, bound, kind=kind)
            for sums in PARTIAL_SUMS[point.side]:
                for (l, m) in shape.indices(point.side):
                    yield "partial-sums", point, {"kind": sums, "l": l, "m": m}, lambda: (
                        partial_sum(point, sums, l, m) == brute_partial_sum(point, sums, l, m)
                    )
            if point.side == 2:
                continue
            oracle = _lazy(brute_regions, point)
            for l in range(0, shape.k + 2):
                for m in range(1, shape.n + 1):
                    yield "regions", point, {"l": l, "m": m}, (
                        lambda: region_sums(point, l, m) == oracle()[(l, m)])


@_suite("birational", "inverse-on-x", "inverse-on-y")
def suite_birational(shape, trials, seed, bound):
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = sample_point(shape, seed + 7919 + t, bound, kind="y")
        yield "inverse-on-x", x, {}, lambda: xi_map(sigma_map(x)) == x
        yield "inverse-on-y", y, {}, lambda: sigma_map(xi_map(y)) == y


@_suite("lemma44", "factor-on-x", "factor-on-y")
def suite_lemma44(shape, trials, seed, bound):
    """Coordinates factor through the opposite chart's partial sums."""
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = _lazy(sigma_map, x)
        for (l, m) in shape.l1_indices:
            yield "factor-on-x", x, {"l": l, "m": m}, lambda: (
                x.get(l, m) == partial_sum(x, "X", l, m) * partial_sum(y(), "Ystar", l - 1, m)
            )
        yr = sample_point(shape, seed + 104729 + t, bound, kind="y")
        xr = _lazy(xi_map, yr)
        for (l, m) in shape.l2_indices:
            yield "factor-on-y", yr, {"l": l, "m": m}, lambda: (
                yr.get(l, m) == partial_sum(yr, "Ystar", l, m) * partial_sum(xr(), "X", l, m)
            )


@_suite("intertwine", "action-intertwine", "gamma-transport", "epsilon-transport")
def suite_intertwine(shape, trials, seed, bound):
    """The chart change commutes with the shared actions (indices 0..n-1).

    At i = 0 this compares the x-chart's closed-form 0-action, gamma and
    epsilon with the y-chart's generic ones through the chart change.
    """
    rng = SplitMix64(_mix_tag(seed, 0x51))
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        y = _lazy(sigma_map, x)
        for i in range(shape.n):
            yield "gamma-transport", x, {"i": i}, lambda: geom.gamma(x, i) == geom.gamma(y(), i)
            yield "epsilon-transport", x, {"i": i}, (
                lambda: geom.epsilon(x, i) == geom.epsilon(y(), i))
            for _ in range(PARAMS):
                c = sample_rational(rng, bound, avoid_one=True)
                yield "action-intertwine", x, {"i": i, "c": c}, (
                    lambda: sigma_map(geom.act_e(x, i, c)) == geom.act_e(y(), i, c))


@_suite(
    "axioms", "identity-at-1", "parameter-group-law", "gamma-scaling", "epsilon-scaling",
    "epsilon-invariance", "commutation", "verma",
)
def suite_axioms(shape, trials, seed, bound):
    """Every defining relation of the affine structure, incl. the 0-n Verma relation.

    Each sampled point is tested with :data:`PARAMS` draws of the
    parameter pair (c, d); ``identity-at-1`` takes no parameter and runs
    once per (point, i).
    """
    act_e, epsilon, gamma = geom.act_e, geom.epsilon, geom.gamma
    index_set = range(shape.n + 1)
    rng = SplitMix64(seed ^ 0xA1F1)
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        gx = [_lazy(gamma, x, j) for j in index_set]
        ex = [_lazy(epsilon, x, i) for i in index_set]
        for i in index_set:
            yield "identity-at-1", x, {"i": i}, lambda: act_e(x, i, Fraction(1)) == x
        for p in range(PARAMS):
            c = sample_rational(rng, bound, avoid_one=(p % 2 == 0))
            d = sample_rational(rng, bound, avoid_one=(p % 2 == 1))
            xc = [_lazy(act_e, x, i, c) for i in index_set]
            xd = [_lazy(act_e, x, i, d) for i in index_set]
            for i in index_set:
                yield "parameter-group-law", x, {"i": i, "c": c, "d": d}, (
                    lambda: act_e(xc[i](), i, d) == act_e(x, i, c * d))
                yield "epsilon-scaling", x, {"i": i, "c": c}, (
                    lambda: epsilon(xc[i](), i) == ex[i]() / c)
                for j in index_set:
                    yield "gamma-scaling", x, {"i": i, "j": j, "c": c}, (
                        lambda: gamma(xc[i](), j) == c ** shape.cartan(i, j) * gx[j]())
                for j in range(i + 1, shape.n + 1):
                    if shape.cartan(i, j) == 0:
                        yield "commutation", x, {"i": i, "j": j, "c": c, "d": d}, (
                            lambda: act_e(xd[j](), i, c) == act_e(xc[i](), j, d))
                        yield "epsilon-invariance", x, {"i": i, "j": j, "c": c}, (
                            lambda: epsilon(xc[j](), i) == ex[i]())
                    else:
                        yield "verma", x, {"i": i, "j": j, "c": c, "d": d}, lambda: (
                            act_e(act_e(xd[i](), j, c * d), i, c)
                            == act_e(act_e(xc[j](), i, c * d), j, d)
                        )


def _unit_walk(b, i):
    """{d: b after |d| kashiwara steps at i, e up and f down}: each step of DVALS taken once."""
    walk = {0: b}
    for d in range(1, max(DVALS) + 1):  # DVALS is symmetric about 0
        walk[d] = bkinf.kashiwara(walk[d - 1], "e", i)
        walk[-d] = bkinf.kashiwara(walk[1 - d], "f", i)
    return walk


@_suite(
    "iso", "round-trip", "weight-match", "eps-match", "step-intertwine",
    "reflection-intertwine", "delta-path", bound=10,
)
def suite_iso(shape, trials, seed, bound):
    """The array bijection intertwines all crystal data."""
    family = bkinf.all_ctuples(shape)  # rejects a shape past the path cap
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="trop")
        b = _lazy(iso.omega, x)
        yield "round-trip", x, {}, lambda: iso.omega_inv(b()) == x
        # the other direction from an array of its own: omega(omega_inv(omega(x))) is omega(x)
        a = bkinf.sample_belement(shape, seed + t, bound)
        yield "round-trip", a, {}, lambda: iso.omega(iso.omega_inv(a)) == a
        for c in family:
            yield "delta-path", x, {"c": c}, (
                lambda: bkinf.delta(b(), c) == -path_weight(x, iso.pi_correspondence(shape, c)))
        for i in range(shape.n + 1):
            yield "weight-match", x, {"i": i}, lambda: tropical.trop_wt(x, i) == bkinf.wt(b(), i)
            yield "eps-match", x, {"i": i}, (
                lambda: tropical.trop_eps(x, i) == bkinf.eps_phi(b(), i)[0])
            walk = _lazy(lambda: _unit_walk(b(), i))
            for d in DVALS:
                yield "step-intertwine", x, {"i": i, "d": d}, (
                    lambda: iso.omega(tropical.trop_e(x, i, d)) == walk()[d])
            yield "reflection-intertwine", x, {"i": i}, (
                lambda: iso.omega(tropical.trop_weyl(x, i)) == bkinf.weyl_s_tilde(b(), i))


@_suite("udprobe", "probe-gamma", "probe-epsilon", "probe-action", "maxplus-action")
def suite_udprobe(shape, trials, seed, bound):
    """Degree probe of the rational quantities against the tropical forms.

    A witness names one probe call: replaying its point through
    ``map --map ud-probe --i I --d D`` reports all three pairs.
    ``maxplus-action`` compares that tropical action with ``geom.act_e`` on the
    integer point at i = 1..n (at i = 0 both read the max-plus path engine).
    """
    shape.check_full_paths()
    rng = SplitMix64(_mix_tag(seed, 0xDE))
    for t in range(trials):
        exponents = sample_point(shape, seed + t, bound, kind="trop")
        for i in range(shape.n + 1):
            d = rng.randint(-3, 3)
            pairs = _lazy(tropical.probe_pairs, exponents, i, d)
            for quantity in ("gamma", "epsilon", "action"):
                yield "probe-" + quantity, exponents, {"i": i, "d": d}, (
                    lambda: pairs()[quantity][0] == pairs()[quantity][1])
            if i:
                yield "maxplus-action", exponents, {"i": i, "d": d}, (
                    lambda: geom.act_e(exponents, i, d) == pairs()["action"][1])


@_suite(
    "weyl", "geometric-closed-form", "geometric-involution", "geometric-braid",
    "geometric-commute", "tropical-involution", "tropical-braid", "tropical-commute",
    "array-closed-form", "array-involution", "array-braid", "array-commute",
)
def suite_weyl(shape, trials, seed, bound):
    """Reflection relations on all three realizations, closed vs defining."""
    shape.check_full_paths()
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        z = sample_point(shape, seed + t, bound, kind="trop")
        b = bkinf.sample_belement(shape, seed + t, bound)
        realizations = (
            ("geometric", geom.weyl_s, x),
            ("tropical", tropical.trop_weyl, z),
            ("array", bkinf.weyl_s_tilde, b),
        )
        # each realization's first reflection at each index; never the closed forms' second route
        first = {
            label: [_lazy(refl, value, i) for i in range(shape.n + 1)]
            for label, refl, value in realizations
        }
        for i in range(shape.n + 1):
            if i:  # at i = 0, weyl_s is weyl_s_def's own route: the action at 1/gamma
                yield "geometric-closed-form", x, {"i": i}, (
                    lambda: first["geometric"][i]() == geom.weyl_s_def(x, i))
            yield "array-closed-form", b, {"i": i}, (
                lambda: first["array"][i]() == bkinf.bk_e_steps(b, i, -bkinf.wt(b, i)))
            for label, refl, value in realizations:
                s = first[label]
                yield label + "-involution", value, {"i": i}, lambda: refl(s[i](), i) == value
                for j in range(i + 1, shape.n + 1):
                    if shape.cartan(i, j) == 0:
                        yield label + "-commute", value, {"i": i, "j": j}, (
                            lambda: refl(s[i](), j) == refl(s[j](), i))
                    else:
                        yield label + "-braid", value, {"i": i, "j": j}, lambda: (
                            refl(refl(s[i](), j), i) == refl(refl(s[j](), i), j)
                        )


@_suite("extremal", "extremal-tuples", "eps-phi-from-tuples", bound=10)
def suite_extremal(shape, trials, seed, bound):
    """Extremal-tuple machinery: both extremal tuples attain the least delta.

    ``extremal-tuples`` holds when both :func:`~pathcrystal.bkinf.extremal_c`
    calls return: each faults unless its tuple's delta is the same table's
    minimum.  ``eps-phi-from-tuples`` compares the DP's 0-data with delta
    at those tuples, which its witness names ``ce`` and ``cf``.
    """
    shape.check_full_paths()
    for t in range(trials):
        b = bkinf.sample_belement(shape, seed + t, bound)
        tuples = _lazy(lambda: (bkinf.extremal_c(b, "e"), bkinf.extremal_c(b, "f")))
        yield "extremal-tuples", b, {}, lambda: tuples() is not None
        found = {}  # the witness names the tuples once a check has them

        def zero_data():
            ce, cf = tuples()
            found.update(ce=ce, cf=cf)
            delta_e, delta_f = bkinf.delta(b, ce), bkinf.delta(b, cf)
            from_tuples = (-b.get(shape.k, shape.n + 1) - delta_e, -b.get(1, 1) - delta_f)
            return bkinf.eps_phi_0(b) == from_tuples

        yield "eps-phi-from-tuples", b, found, zero_data


@_suite("fundrep", "nilpotence", "annihilation-u1", "annihilation-u2")
def suite_fundrep(shape, trials, seed, bound):
    """Exhaustive operator nilpotence and highest-weight annihilation."""
    keys = fundrep.basis_keys(shape)  # rejects a module past the dimension cap
    apply_gen, unit_vector = fundrep.apply_gen, fundrep.unit_vector
    for i in range(shape.n + 1):
        for key in keys:
            v = _lazy(unit_vector, shape, key)
            yield "nilpotence", None, {"i": i, "key": list(key)}, lambda: all(
                not apply_gen(shape, apply_gen(shape, v(), gen, i), gen, i) for gen in ("e", "f")
            )
    u1 = _lazy(unit_vector, shape, fundrep.highest_u1(shape))
    u2 = _lazy(unit_vector, shape, fundrep.highest_u2(shape))
    for i in range(1, shape.n + 1):
        yield "annihilation-u1", None, {"i": i}, lambda: not apply_gen(shape, u1(), "e", i)
    for i in range(0, shape.n):
        yield "annihilation-u2", None, {"i": i}, lambda: not apply_gen(shape, u2(), "e", i)


def _require_trials(trials):
    # a run over zero trials checks nothing and must not pass
    if trials < 1:
        raise ValidationError("trials must be >= 1, got %s" % brief(trials))


def _conjecture_outcome(x):
    """The proportionality experiment at one point.

    The vector v2 of the mapped point is proportional to v1 when both have
    the same keys and every ratio v2/v1 is one scalar.
    """
    v1, v2 = fundrep.chart_vector(x), fundrep.chart_vector(sigma_map(x))
    ratios = {v2[key] / v1[key] for key in v1} if v1.keys() == v2.keys() else set()
    proportional = len(ratios) == 1
    return {
        "point": point_to_json(x),
        "proportional": proportional,
        "ratio": format_rational(ratios.pop()) if proportional else None,
        "expected_ratio": format_rational(1 / x.get(1, x.shape.n)),
    }


def conjecture_outcomes(shape, trials, seed, bound):
    """Raw probe outcomes for the proportionality experiment."""
    _require_trials(trials)
    points = (sample_point(shape, seed + t, bound, kind="x") for t in range(trials))
    return [_conjecture_outcome(x) for x in points]


def ratio_holds(outcome):
    """The gated identity: proportional, with ratio 1/x_(1,n)."""
    return outcome["proportional"] and outcome["ratio"] == outcome["expected_ratio"]


@_suite("conjecture", "chart-proportional")
def suite_conjecture(shape, trials, seed, bound):
    """v2(sigma(x)) = v1(x) / x_(1,n): the two chart vectors are proportional at every k."""
    fundrep._check_dimension(shape)
    for t in range(trials):
        x = sample_point(shape, seed + t, bound, kind="x")
        ratios = {}  # the witness names the ratio found and the one expected

        def proportional():
            outcome = _conjecture_outcome(x)
            ratios.update(ratio=outcome["ratio"], expected_ratio=outcome["expected_ratio"])
            return ratio_holds(outcome)

        yield "chart-proportional", x, ratios, proportional


def suite_bound(name, bound=None):
    """The sampling bound a suite runs at, as its report states it.

    ``None`` selects the suite's default; the degree probe clamps to the
    largest exponent it can read exactly.  A bound below 1 is rejected for
    every suite, including those that sample no point.
    """
    if bound is None:
        bound = DEFAULT_BOUNDS[name]
    if bound < 1:
        raise ValidationError("bound must be at least 1, got %s" % brief(bound))
    if name == "udprobe":
        bound = min(bound, tropical.PROBE_MAX_EXPONENT)
    return bound


def run_suite(name, shape, trials, seed, bound=None):
    """One :class:`RelationCheck` per relation of suite ``name``, in declared order.

    Each record is checked before the next is drawn: ``holds`` closes over
    the suite's loop variables, and may add what it derived to ``params``.
    Only a check's ``Exception`` is caught; an error while drawing passes through.
    """
    if name not in SUITES:
        raise ValidationError(
            "unknown suite %s (known: %s)" % (brief(name), ", ".join(sorted(SUITES)))
        )
    _require_trials(trials)
    checks = {relation: RelationCheck(relation) for relation in RELATIONS[name]}
    records = SUITES[name](shape, trials, seed, suite_bound(name, bound))
    for relation, point, params, holds in records:
        try:
            if holds():
                checks[relation].passes += 1
                continue
        except Exception as exc:
            params = {**params, "error": "%s: %s" % (type(exc).__name__, brief(exc))}
        checks[relation].record(False, point, **params)
    return list(checks.values())
