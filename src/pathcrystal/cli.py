"""Command-line entry point.

Subcommands: ``verify`` (run a named relation suite), ``act`` (apply a
crystal operation to a point file), ``map`` (chart changes, the array
bijection, the degree probe), ``conjecture`` (the proportionality
experiment) and ``graph`` (DOT export of an array-crystal neighborhood).

Exit codes: 0 all checks pass, 1 verification or domain failure, 2 bad
usage or malformed input.  Reports are deterministic given the seed; the
wall-time field is the only exception.
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import bkinf, tropical
from .birational import sigma_map, xi_map
from .errors import CrystalFault, ValidationError
from .geom import act_e, weyl_s
from .iso import omega, omega_inv
from .lattice import (
    PRNG_ID,
    make_shape,
    parse_rational,
    point_from_json,
    point_to_json,
)
from .reporting import all_ok
from .suites import SUITES, conjecture_outcomes, k1_ratio_holds, run_suite, suite_bound

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunReport:
    """One verification run: suite, shape, seeds and per-relation results."""

    suite: str
    n: int
    k: int
    seed: int
    trials: int
    bound: int
    checks: list = field(default_factory=list)
    elapsed_s: float = 0.0
    prng: str = PRNG_ID

    @property
    def ok(self):
        return all_ok(self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "prng": self.prng,
            "trials": self.trials,
            "bound": self.bound,
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
            "elapsed_s": self.elapsed_s,
        }

    def render_text(self):
        lines = [
            "suite=%s shape=(%d,%d) seed=%d trials=%d bound=%d prng=%s"
            % (self.suite, self.n, self.k, self.seed, self.trials, self.bound, self.prng)
        ]
        for c in self.checks:
            status = "pass" if c.ok else "FAIL"
            lines.append("  [%s] %-28s passes=%d fails=%d" % (status, c.name, c.passes, c.fails))
            for w in c.witnesses:
                lines.append("    witness: %s" % json.dumps(w, sort_keys=True))
        lines.append("result: %s (%.3fs)" % ("ok" if self.ok else "FAILED", self.elapsed_s))
        return "\n".join(lines)


def _load_point(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValidationError("malformed JSON in %s: %s" % (path, exc))
    return point_from_json(data)


def _emit(obj, as_json):
    if as_json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def cmd_verify(args):
    shape = make_shape(args.n, args.k)
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in suites:
        start = time.monotonic()
        bound = suite_bound(name, args.bound)
        checks = run_suite(name, shape, args.trials, args.seed, bound)
        report = RunReport(
            suite=name,
            n=shape.n,
            k=shape.k,
            seed=args.seed,
            trials=args.trials,
            bound=bound,
            checks=checks,
        )
        report.elapsed_s = round(time.monotonic() - start, 6)
        reports.append(report)
    if args.json:
        payload = [r.to_json() for r in reports]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, sort_keys=True))
    else:
        for r in reports:
            print(r.render_text())
    return EXIT_OK if all(r.ok for r in reports) else EXIT_FAIL


def _parameter(args):
    if args.c is None:
        raise ValidationError("op e needs --c P/Q")
    return parse_rational(args.c)


# (side, op) -> (kind of the input point, operation on it and the parsed options)
ACTIONS = {
    ("geom", "e"): ("x", lambda x, args: act_e(x, args.i, _parameter(args))),
    ("geom", "s"): ("x", lambda x, args: weyl_s(x, args.i)),
    ("trop", "e"): ("trop", lambda z, args: tropical.trop_e(z, args.i, args.d)),
    ("trop", "s"): ("trop", lambda z, args: tropical.trop_weyl(z, args.i)),
    ("bkinf", "e"): ("b", lambda b, args: bkinf.bk_e(b, args.i, args.d)),
    ("bkinf", "f"): ("b", lambda b, args: bkinf.bk_e(b, args.i, -args.d)),
    ("bkinf", "s"): ("b", lambda b, args: bkinf.weyl_s_tilde(b, args.i)),
}

# map -> (kind of the input point, function of it); the degree probe prints
# a report instead of a point.  As in ACTIONS, a function is looked up by name
# when called, so a tool that rebinds module names (perfbench's tracer) sees it.
MAPS = {
    "sigma": ("x", lambda x: sigma_map(x)),
    "xi": ("y", lambda y: xi_map(y)),
    "omega": ("trop", lambda z: omega(z)),
    "omega-inv": ("b", lambda b: omega_inv(b)),
    "ud-probe": ("trop", None),
}


def _require_kind(path, kind, what):
    point = _load_point(path)
    if point.kind != kind:
        raise ValidationError("%s expects a point of kind %r, got %r" % (what, kind, point.kind))
    return point


def _emit_point(point, args):
    _emit(point_to_json(point), args.json)
    return EXIT_OK


def cmd_act(args):
    if (args.side, args.op) not in ACTIONS:
        ops = sorted(op for side, op in ACTIONS if side == args.side)
        raise ValidationError("side %s supports ops %s" % (args.side, ", ".join(ops)))
    kind, operation = ACTIONS[args.side, args.op]
    point = _require_kind(args.point, kind, "side " + args.side)
    return _emit_point(operation(point, args), args)


def cmd_map(args):
    kind, function = MAPS[args.map]
    point = _require_kind(args.point, kind, "map " + args.map)
    if function is None:
        return _probe_report(point, args)
    return _emit_point(function(point), args)


def _probe_report(exponents, args):
    i = args.i
    if i is None:
        raise ValidationError("ud-probe needs --i")
    pairs = tropical.probe_pairs(exponents, i, args.d)
    report = {"i": i, "d": args.d}
    for quantity in ("gamma", "epsilon"):
        probe, form = pairs[quantity]
        report[quantity] = {"probe": probe, "tropical": form}
    probe, form = pairs["action"]
    report["action"] = {
        "%d,%d" % lm: {"probe": probe.get(*lm), "tropical": form.get(*lm)}
        for lm in exponents.shape.l1_indices
    }
    report["match"] = all(p == f for p, f in pairs.values())
    _emit(report, args.json)
    return EXIT_OK if report["match"] else EXIT_FAIL


def cmd_conjecture(args):
    shape = make_shape(args.n, args.k)
    outcomes = conjecture_outcomes(shape, args.trials, args.seed, args.bound)
    ratio_ok = all(map(k1_ratio_holds, outcomes)) if shape.k == 1 else None
    report = {
        "n": shape.n,
        "k": shape.k,
        "seed": args.seed,
        "prng": PRNG_ID,
        "trials": args.trials,
        "proportional_count": sum(1 for o in outcomes if o["proportional"]),
        "outcomes": outcomes,
        "k1_ratio_ok": ratio_ok,
    }
    _emit(report, args.json)
    return EXIT_OK if ratio_ok in (None, True) else EXIT_FAIL


def cmd_graph(args):
    shape = make_shape(args.n, args.k)
    if args.center == "b_inf":
        center = bkinf.b_infinity(shape)
    else:
        center = _require_kind(args.center, "b", "graph center")
        if center.shape != shape:
            raise ValidationError("center shape does not match --n/--k")
    print(bkinf.crystal_graph_dot(center, args.radius))
    return EXIT_OK


def build_parser(argv=None):
    """The parser for the call ``argv``; ``None`` gives the parser for any call.

    Every subcommand is listed, so help and usage errors read the same, but
    only those named in ``argv`` get their options and ``-h``: argparse
    parses with one subcommand, and adding options takes most of a short
    call's time.
    """
    parser = argparse.ArgumentParser(
        prog="pathcrystal",
        description="Exact verification of the lattice-path crystal construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help_text):
        called = argv is None or name in argv
        p = sub.add_parser(name, help=help_text, add_help=called)
        return p if called else None

    p_verify = subcommand("verify", "run a verification suite")
    if p_verify:
        p_verify.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
        p_verify.add_argument("--n", type=int, required=True)
        p_verify.add_argument("--k", type=int, required=True)
        p_verify.add_argument("--trials", type=int, default=20)
        p_verify.add_argument("--seed", type=int, default=0)
        p_verify.add_argument("--bound", type=int, default=None)
        p_verify.add_argument("--json", action="store_true")
        p_verify.set_defaults(func=cmd_verify)

    p_act = subcommand("act", "apply a crystal operation to a point file")
    if p_act:
        p_act.add_argument("--side", required=True, choices=["geom", "trop", "bkinf"])
        p_act.add_argument("--op", required=True, choices=["e", "f", "s"])
        p_act.add_argument("--i", type=int, required=True)
        p_act.add_argument("--c", type=str, default=None, help="rational parameter P/Q")
        p_act.add_argument("--d", type=int, default=1, help="integer step count")
        p_act.add_argument("--point", required=True)
        p_act.add_argument("--json", action="store_true")
        p_act.set_defaults(func=cmd_act)

    p_map = subcommand("map", "apply a chart change or probe")
    if p_map:
        p_map.add_argument("--map", required=True, choices=list(MAPS))
        p_map.add_argument("--point", required=True)
        p_map.add_argument("--i", type=int, default=None)
        p_map.add_argument("--d", type=int, default=0)
        p_map.add_argument("--json", action="store_true")
        p_map.set_defaults(func=cmd_map)

    p_conj = subcommand("conjecture", "run the proportionality experiment")
    if p_conj:
        p_conj.add_argument("--n", type=int, required=True)
        p_conj.add_argument("--k", type=int, required=True)
        p_conj.add_argument("--trials", type=int, default=25)
        p_conj.add_argument("--seed", type=int, default=0)
        p_conj.add_argument("--bound", type=int, default=16)
        p_conj.add_argument("--json", action="store_true")
        p_conj.set_defaults(func=cmd_conjecture)

    p_graph = subcommand("graph", "DOT export of an array-crystal ball")
    if p_graph:
        p_graph.add_argument("--n", type=int, required=True)
        p_graph.add_argument("--k", type=int, required=True)
        p_graph.add_argument("--center", default="b_inf")
        p_graph.add_argument("--radius", type=int, default=1)
        p_graph.set_defaults(func=cmd_graph)

    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CrystalFault as exc:
        print("fault: %s" % exc, file=sys.stderr)
        if exc.witness is not None:
            print("witness: %s" % json.dumps(exc.witness, sort_keys=True, default=str), file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
