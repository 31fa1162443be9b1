"""Command-line entry point.

Subcommands: ``verify`` (run a named relation suite), ``act`` (apply a
crystal operation to a point file), ``map`` (chart changes, the array
bijection, the degree probe), ``conjecture`` (the proportionality
experiment) and ``graph`` (DOT export of an array-crystal neighborhood).

Exit codes: 0 all checks pass, 1 verification or domain failure, 2 bad
usage or malformed input.  Reports are deterministic given the seed; the
wall-time field is the only exception.

Each call builds only the parser it needs (:func:`parse_args`).  When the
first argument names a subcommand, the parser has that subcommand's
options alone; any other call gets the full parser (:func:`build_parser`).
Adding every subcommand's options took most of a short call's time.  No
parser is cached: a ``pathcrystal`` process makes one call, so a cache
would help only in-process callers, as state shared by all of them.
"""

import argparse
import json
import sys
import time

from . import bkinf, tropical
from .birational import sigma_map, xi_map
from .errors import CrystalFault, ValidationError
from .geom import act_e, weyl_s
from .iso import omega, omega_inv
from .lattice import (
    PRNG_ID,
    make_shape,
    point_from_json,
    point_to_json,
)
from .reporting import all_ok
from .suites import SUITES, conjecture_outcomes, ratio_holds, run_suite, suite_bound

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _load_point(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc))
    # JSONDecodeError, an integer literal past int()'s digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ValidationError("malformed JSON in %s: %s" % (path, exc))
    return point_from_json(data)


def _emit(obj, as_json):
    if as_json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _verify_text(report):
    """The text view of one suite's JSON report."""
    lines = [
        "suite=%(suite)s shape=(%(n)d,%(k)d) seed=%(seed)d trials=%(trials)d bound=%(bound)d"
        " prng=%(prng)s" % report
    ]
    for c in report["checks"]:
        status = "vacuous" if c["vacuous"] else "FAIL" if c["fails"] else "pass"
        lines.append(
            "  [%s] %-28s passes=%d fails=%d" % (status, c["relation"], c["passes"], c["fails"])
        )
        for w in c["witnesses"]:
            lines.append("    witness: %s" % json.dumps(w, sort_keys=True))
    lines.append("result: %s (%.3fs)" % ("ok" if report["ok"] else "FAILED", report["elapsed_s"]))
    return "\n".join(lines)


def cmd_verify(args):
    shape = make_shape(args.n, args.k)
    suites = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = []
    for name in suites:
        start = time.monotonic()
        bound = suite_bound(name, args.bound)
        checks = run_suite(name, shape, args.trials, args.seed, bound)
        elapsed = round(time.monotonic() - start, 6)
        reports.append({
            "suite": name,
            "n": shape.n,
            "k": shape.k,
            "seed": args.seed,
            "prng": PRNG_ID,
            "trials": args.trials,
            "bound": bound,
            "ok": all_ok(checks),
            "checks": [c.to_json() for c in checks],
            "elapsed_s": elapsed,
        })
    if args.json:
        print(json.dumps(reports[0] if len(reports) == 1 else reports, sort_keys=True))
    else:
        for r in reports:
            print(_verify_text(r))
    return EXIT_OK if all(r["ok"] for r in reports) else EXIT_FAIL


def _parameter(args):
    if args.c is None:
        raise ValidationError("op e needs --c P/Q")
    return args.c  # read by the point's kind, like any action parameter


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
    ratio_ok = all(map(ratio_holds, outcomes))
    report = {
        "n": shape.n,
        "k": shape.k,
        "seed": args.seed,
        "prng": PRNG_ID,
        "trials": args.trials,
        "proportional_count": sum(1 for o in outcomes if o["proportional"]),
        "outcomes": outcomes,
        "ratio_ok": ratio_ok,
    }
    _emit(report, args.json)
    return EXIT_OK if ratio_ok else EXIT_FAIL


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


def _verify_options(p):
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)


def _act_options(p):
    p.add_argument("--side", required=True, choices=["geom", "trop", "bkinf"])
    p.add_argument("--op", required=True, choices=["e", "f", "s"])
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--c", type=str, default=None, help="rational parameter P/Q")
    p.add_argument("--d", type=int, default=1, help="integer step count")
    p.add_argument("--point", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_act)


def _map_options(p):
    p.add_argument("--map", required=True, choices=list(MAPS))
    p.add_argument("--point", required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_map)


def _conjecture_options(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bound", type=int, default=16)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_conjecture)


def _graph_options(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--center", default="b_inf")
    p.add_argument("--radius", type=int, default=1)
    p.set_defaults(func=cmd_graph)


# subcommand -> (help line, function adding its options); each of those sets
# ``func`` to the module's ``cmd_*`` name as it is bound when the parser is
# built, so a tool that rebinds module names (perfbench's tracer) sees the call
SUBCOMMANDS = {
    "verify": ("run a verification suite", _verify_options),
    "act": ("apply a crystal operation to a point file", _act_options),
    "map": ("apply a chart change or probe", _map_options),
    "conjecture": ("run the proportionality experiment", _conjecture_options),
    "graph": ("DOT export of an array-crystal ball", _graph_options),
}


def build_parser():
    """The parser with every subcommand and all their options.

    A call gets this parser only when its first argument names no
    subcommand (no arguments, ``-h``, ``--help act``, ``--``, an unknown
    or abbreviated command), or when the called subcommand meets arguments
    it does not know; a call naming a subcommand first is parsed by that
    subcommand's parser alone (:func:`parse_args`).  Help and usage errors
    read the same either way.  The parser is built afresh for each call
    and never cached, since a ``pathcrystal`` process makes one call.
    """
    parser = argparse.ArgumentParser(
        prog="pathcrystal",
        description="Exact verification of the lattice-path crystal construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options) in SUBCOMMANDS.items():
        add_options(sub.add_parser(name, help=help_text))
    return parser


def parse_args(argv):
    """Parse one call as :func:`build_parser`'s parser would.

    When ``argv[0]`` names a subcommand, only that subcommand's parser is
    built, as ``pathcrystal <name>``, and it parses ``argv[1:]`` into a
    namespace that already holds ``command``.  Any other ``argv``, or
    arguments the subcommand does not know, go to the full parser, which
    words the error.
    """
    name = argv[0] if argv else None
    if name in SUBCOMMANDS:
        parser = argparse.ArgumentParser(prog="pathcrystal " + name)
        SUBCOMMANDS[name][1](parser)
        args, unknown = parser.parse_known_args(argv[1:], argparse.Namespace(command=name))
        if not unknown:
            return args
    return build_parser().parse_args(argv)


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parse_args(argv)
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
