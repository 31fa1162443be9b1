"""The benchmark's workloads.

Each workload is a builder ``build(seed, workdir) -> [unit, ...]`` that
makes its inputs from the seed.  A unit is a callable returning
``(ok, facts)``: ``ok`` is the unit's verdict and ``facts`` a small dict
of deterministic results (check counts, exit code, output size) that a
traced and an untraced run must reproduce exactly.  Units are run one
after another by a single caller (a closed loop).

Units carrying ``known_defect`` are expected to fail on the current
library; they still count as failed, but do not make the run incorrect.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

# the acceptance battery of tests/test_acceptance.py
BATTERY_SHAPES = ((2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3))
# trials per suite and shape in one pass; c07 (iso), c08 (udprobe) and c10
# (extremal) run ten times as many.  Several trials of the heavy suites
# (axioms, weyl) keep one seed's draws from setting the pass time.
BATTERY_TRIALS = 3
TEN_FOLD_SUITES = ("iso", "udprobe", "extremal")

CLI_POINTS = 3  # point-file sets per battery shape

SCALING_SHAPES = ((8, 4), (12, 6), (16, 8))
SCALING_POINTS = 4  # sampled points per shape and pass
# the 0-operators on arrays cost |d| unit steps; a fixed |d| keeps the work
# per unit the same for every seed
SCALING_ZERO_STEPS = 3


class Unit:
    known_defect = None

    def __call__(self):
        raise NotImplementedError

    def verify(self):
        """Checks made after the timed phase; True when there is nothing to check."""
        return True


# ---------------------------------------------------------------------------
# battery: the acceptance suites, one trial per unit


class SuiteUnit(Unit):
    def __init__(self, suites, name, shape, seed):
        self.suites = suites
        self.suite = name
        self.shape = shape
        self.seed = seed
        self.name = "%s(%d,%d)" % (name, shape.n, shape.k)

    def __call__(self):
        checks = self.suites.run_suite(self.suite, self.shape, 1, self.seed)
        facts = {
            "suites.checks": sum(c.passes + c.fails for c in checks),
            "suites.witnesses_kept": sum(len(c.witnesses) for c in checks),
        }
        return all(c.ok for c in checks), facts


def build_battery(seed, workdir):
    from pathcrystal import lattice, suites

    rng = random.Random(seed)
    units = []
    for name in sorted(suites.SUITES):
        trials = BATTERY_TRIALS * (10 if name in TEN_FOLD_SUITES else 1)
        for n, k in BATTERY_SHAPES:
            shape = lattice.make_shape(n, k)
            for _ in range(trials):
                units.append(SuiteUnit(suites, name, shape, rng.randrange(1 << 31)))
    return units


# ---------------------------------------------------------------------------
# scaling: single operations on large shapes, each against its second route


class CheckUnit(Unit):
    """One operation on one sample; the values of its routes must agree.

    ``routes(*sample)`` returns the values computed by the independent
    routes; one check is one equality between two of them.
    """

    def __init__(self, name, routes, sample=()):
        self.name = name
        self.routes = routes
        self.sample = sample

    def __call__(self):
        values = self.routes(*self.sample)
        return all(v == values[0] for v in values[1:]), {"checks": len(values) - 1}


def build_scaling(seed, workdir):
    from pathcrystal import lattice

    rng = random.Random(seed)
    units = []
    for n, k in SCALING_SHAPES:
        shape = lattice.make_shape(n, k)
        for _ in range(SCALING_POINTS):
            x = lattice.sample_point(shape, rng.randrange(1 << 31), 16, kind="x")
            z = lattice.sample_point(shape, rng.randrange(1 << 31), 10, kind="trop")
            d0 = rng.choice((-1, 1)) * SCALING_ZERO_STEPS
            d = rng.choice((-3, -2, -1, 1, 2, 3))
            # the inner index is k, whose actions move the most rows
            sample = (x, z, k, d0, d)
            for label, routes in _scaling_routes():
                units.append(CheckUnit("%s(%d,%d)" % (label, n, k), _on_copies(routes), sample))
    return units


def _on_copies(routes):
    """Runs ``routes`` on fresh copies of the sampled points.

    A point memoizes its path tables; a copy makes every call build them,
    as a user's single call on a point read from a file does.
    """

    def run(x, z, *rest):
        return routes(type(x)(x.shape, x.entries), type(z)(z.shape, z.entries), *rest)

    return run


def _scaling_routes():
    """(label, routes(x, z, i, d0, d)) for each operation of the sweep."""
    from pathcrystal import birational, bkinf, geom, iso, tropical

    return (
        ("chart", lambda x, z, i, d0, d: [birational.xi_map(birational.sigma_map(x)), x]),
        ("weyl-0", lambda x, z, i, d0, d: [geom.weyl_s(x, 0), geom.weyl_s_def(x, 0)]),
        ("weyl-i", lambda x, z, i, d0, d: [geom.weyl_s(x, i), geom.weyl_s_def(x, i)]),
        ("maxplus-act-0", lambda x, z, i, d0, d: [geom.act_e(z, 0, d0), tropical.trop_e(z, 0, d0)]),
        ("bk-closed-0", lambda x, z, i, d0, d: [
            iso.omega(tropical.trop_e(z, 0, d0)), bkinf.bk_e_closed(iso.omega(z), 0, d0)]),
        ("bk-iter-0", lambda x, z, i, d0, d: [
            iso.omega(tropical.trop_e(z, 0, d0)), bkinf.bk_e(iso.omega(z), 0, d0)]),
        ("bk-i", lambda x, z, i, d0, d: [
            iso.omega(tropical.trop_e(z, i, d)),
            bkinf.bk_e(iso.omega(z), i, d),
            bkinf.bk_e_closed(iso.omega(z), i, d)]),
        ("eps-0", lambda x, z, i, d0, d: [tropical.trop_eps(z, 0), bkinf.eps_phi_0(iso.omega(z))[0]]),
        ("eps-i", lambda x, z, i, d0, d: [tropical.trop_eps(z, i), bkinf.eps_phi(iso.omega(z), i)[0]]),
    )


# ---------------------------------------------------------------------------
# cli: in-process command-line calls on point files written during set-up


class CliUnit(Unit):
    """One ``pathcrystal.cli.main(argv)`` call; the verdict is the exit code.

    ``expect`` maps the captured stdout to True when it is the right
    answer; it runs after the timed phase, against the library called
    directly.
    """

    def __init__(self, cli, argv, code=0, expect=None, known_defect=None):
        self.cli = cli
        self.argv = list(argv)
        self.code = code
        self.expect = expect
        self.known_defect = known_defect
        self.name = " ".join(self.argv[:5])
        self.output = None
        self.unstable = False

    def __call__(self):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(self.argv)
        text = out.getvalue()
        if self.output is None:
            self.output = text
        elif text != self.output:
            self.unstable = True
        return code == self.code, {"exit": code, "cli.bytes_out": len(text.encode())}

    def verify(self):
        """True when every call printed the same, correct output."""
        if self.unstable:
            return False
        if self.expect is None or self.output is None:
            return True
        return self.expect(self.output)


def build_cli(seed, workdir):
    from pathcrystal import bkinf, cli, lattice, suites

    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    units = []

    def call(*argv, code=0, expect=None, known_defect=None):
        units.append(CliUnit(cli, argv, code, expect, known_defect))

    def write(name, data):
        path = workdir / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    inputs = {}
    for (n, k), copy in ((nk, j) for nk in BATTERY_SHAPES for j in range(CLI_POINTS)):
        shape = lattice.make_shape(n, k)
        tag = "%d_%d_%d" % (n, k, copy)
        x = lattice.sample_point(shape, rng.randrange(1 << 31), 16, kind="x")
        y = lattice.sample_point(shape, rng.randrange(1 << 31), 16, kind="y")
        # the degree probe accepts exponents in [-8, 8]
        t = lattice.sample_point(shape, rng.randrange(1 << 31), 8, kind="trop")
        b = bkinf.sample_belement(shape, rng.randrange(1 << 31), 10)
        files = (
            write("x_%s.json" % tag, lattice.point_to_json(x)),
            write("y_%s.json" % tag, lattice.point_to_json(y)),
            write("t_%s.json" % tag, lattice.point_to_json(t)),
            write("b_%s.json" % tag, bkinf.to_json(b)),
        )
        inputs[(n, k)] = files, b
        i = rng.randint(1, n - 1)
        c = Fraction(rng.randint(1, 16), rng.randint(1, 16))
        d = rng.choice((-3, -2, -1, 1, 2, 3))
        _shape_calls(call, files, x, y, t, b, i, c, d)

    radius = rng.randint(1, 2)
    b_inf = bkinf.b_infinity(lattice.make_shape(3, 2))
    call("graph", "--n", "3", "--k", "2", "--radius", str(radius),
         expect=_same_text(lambda: bkinf.crystal_graph_dot(b_inf, radius) + "\n"))
    (_, _, _, fb), b = inputs[(4, 2)]
    call("graph", "--n", "4", "--k", "2", "--center", fb, "--radius", "1",
         expect=_same_text(lambda: bkinf.crystal_graph_dot(b, 1) + "\n"))
    for n, k in ((3, 1), (4, 2)):
        call("conjecture", "--json", "--n", str(n), "--k", str(k), "--trials", "3",
             "--seed", str(rng.randrange(1 << 20)),
             expect=_conjecture_outcomes(suites, lattice.make_shape(n, k), 3))

    # malformed or out-of-contract input: exit code 2, no traceback
    fx, _, ft, _ = inputs[(3, 2)][0]
    call("map", "--map", "sigma", "--point", str(workdir / "missing.json"), code=2)
    call("map", "--map", "sigma", "--point", write("bad.json", "{not json"), code=2)
    call("act", "--side", "geom", "--op", "e", "--i", "0", "--c", "2/1", "--point", ft, code=2)
    call("act", "--side", "geom", "--op", "e", "--i", "0", "--c", "1/0", "--point", fx, code=2)
    call("act", "--side", "trop", "--op", "e", "--i", "99", "--point", ft, code=2)
    call("verify", "--suite", "nope", "--n", "3", "--k", "2", code=2)
    # the exit-contract defects of the current library, kept as failing units
    key_one = {"n": 2, "k": 1, "kind": "b", "entries": {"1": 0, "1,2": 5, "1,3": -5}}
    call("act", "--side", "bkinf", "--op", "e", "--i", "1",
         "--point", write("b_key_one.json", key_one), code=2,
         known_defect="a b-file key without a comma escapes as a traceback")
    bool_entry = {"n": 2, "k": 1, "kind": "trop", "entries": {"1,1": True, "1,2": 0}}
    call("act", "--side", "trop", "--op", "e", "--i", "1",
         "--point", write("t_bool.json", bool_entry), code=2,
         known_defect="JSON true is accepted as an integer entry")
    call("verify", "--suite", "birational", "--n", "3", "--k", "2", "--trials", "0", code=2,
         known_defect="verify --trials 0 checks nothing and reports ok")
    # legal, but iterated one unit step at a time: runs into the time limit
    call("act", "--json", "--side", "bkinf", "--op", "e", "--i", "0", "--d", "3000000",
         "--point", inputs[(5, 3)][0][3],
         known_defect="bk_e at i=0 takes one step per unit of d (ROADMAP item 3)")
    return units


def _same_json(expected):
    return lambda text: json.loads(text) == json.loads(json.dumps(expected()))


def _same_text(expected):
    return lambda text: text == expected()


def _conjecture_outcomes(suites, shape, trials):
    def check(text):
        report = json.loads(text)
        expected = suites.conjecture_outcomes(shape, trials, report["seed"], 16)
        return report["outcomes"] == json.loads(json.dumps(expected))

    return check


def _shape_calls(call, files, x, y, t, b, i, c, d):
    """The act and map calls on one shape's point files."""
    from pathcrystal import birational, bkinf, geom, iso, lattice, tropical

    fx, fy, ft, fb = files
    enc, benc = lattice.point_to_json, bkinf.to_json
    cs, si, sd, up = lattice.format_rational(c), str(i), str(d), abs(d)
    act = ("act", "--json", "--point")
    call(*act, fx, "--side", "geom", "--op", "e", "--i", "0", "--c", cs,
         expect=_same_json(lambda: enc(geom.act_e(x, 0, c))))
    call(*act, fx, "--side", "geom", "--op", "e", "--i", si, "--c", cs,
         expect=_same_json(lambda: enc(geom.act_e(x, i, c))))
    call(*act, fx, "--side", "geom", "--op", "s", "--i", si,
         expect=_same_json(lambda: enc(geom.weyl_s(x, i))))
    call(*act, ft, "--side", "trop", "--op", "e", "--i", "0", "--d", sd,
         expect=_same_json(lambda: enc(tropical.trop_e(t, 0, d))))
    call(*act, ft, "--side", "trop", "--op", "e", "--i", si, "--d", sd,
         expect=_same_json(lambda: enc(tropical.trop_e(t, i, d))))
    call(*act, ft, "--side", "trop", "--op", "s", "--i", si,
         expect=_same_json(lambda: enc(tropical.trop_weyl(t, i))))
    call(*act, fb, "--side", "bkinf", "--op", "e", "--i", "0", "--d", str(up),
         expect=_same_json(lambda: benc(bkinf.bk_e(b, 0, up))))
    call(*act, fb, "--side", "bkinf", "--op", "f", "--i", si, "--d", str(up),
         expect=_same_json(lambda: benc(bkinf.bk_e(b, i, -up))))
    call(*act, fb, "--side", "bkinf", "--op", "s", "--i", "0",
         expect=_same_json(lambda: benc(bkinf.weyl_s_tilde(b, 0))))
    mp = ("map", "--json", "--point")
    call(*mp, fx, "--map", "sigma", expect=_same_json(lambda: enc(birational.sigma_map(x))))
    call(*mp, fy, "--map", "xi", expect=_same_json(lambda: enc(birational.xi_map(y))))
    call(*mp, ft, "--map", "omega", expect=_same_json(lambda: benc(iso.omega(t))))
    call(*mp, fb, "--map", "omega-inv", expect=_same_json(lambda: enc(iso.omega_inv(b))))
    for probe_i in ("0", si, str(x.shape.n)):
        call(*mp, ft, "--map", "ud-probe", "--i", probe_i, "--d", sd,
             expect=lambda text: json.loads(text)["match"] is True)


WORKLOADS = {
    "battery": build_battery,
    "scaling": build_scaling,
    "cli": build_cli,
}
