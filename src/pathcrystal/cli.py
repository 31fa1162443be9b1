"""Command-line entry point.

Exit codes: 0 all checks pass, 1 verification or domain failure, 2 bad
usage or malformed input.  A reader that closes stdout early (``| head``)
changes none of them.  Reports are deterministic given the seed; the
wall-time field is the only exception.

One option table, :data:`COMMANDS`, lists the subcommands and their
options.  It parses every call (:func:`parse_args`) and writes every usage
line and ``-h`` text.
"""

import json
import os
import sys
import time
from types import SimpleNamespace

from . import bkinf, tropical
from .birational import sigma_map, xi_map
from .errors import CrystalFault, ValidationError, brief
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
    except OSError as exc:  # str(exc) would quote the path a second time
        raise ValidationError("cannot read %s: %s" % (brief(path), exc.strerror))
    # JSONDecodeError, an integer literal past int()'s digit limit, or nesting past the stack
    except (ValueError, RecursionError) as exc:
        raise ValidationError("malformed JSON in %s: %s" % (brief(path), exc))
    return point_from_json(data)


def _dumps(obj, as_json):
    if as_json:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return json.dumps(obj, sort_keys=True, indent=2)


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
        text = json.dumps(reports[0] if len(reports) == 1 else reports, sort_keys=True)
    else:
        text = "\n".join(map(_verify_text, reports))
    return EXIT_OK if all(r["ok"] for r in reports) else EXIT_FAIL, text


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


def cmd_act(args):
    if (args.side, args.op) not in ACTIONS:
        ops = sorted(op for side, op in ACTIONS if side == args.side)
        raise ValidationError("side %s supports ops %s" % (args.side, ", ".join(ops)))
    kind, operation = ACTIONS[args.side, args.op]
    point = _require_kind(args.point, kind, "side " + args.side)
    return EXIT_OK, _dumps(point_to_json(operation(point, args)), args.json)


def cmd_map(args):
    kind, function = MAPS[args.map]
    point = _require_kind(args.point, kind, "map " + args.map)
    if function is None:
        return _probe_report(point, args)
    return EXIT_OK, _dumps(point_to_json(function(point)), args.json)


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
    return EXIT_OK if report["match"] else EXIT_FAIL, _dumps(report, args.json)


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
    return EXIT_OK if ratio_ok else EXIT_FAIL, _dumps(report, args.json)


def cmd_graph(args):
    shape = make_shape(args.n, args.k)
    if args.center == "b_inf":
        center = bkinf.b_infinity(shape)
    else:
        center = _require_kind(args.center, "b", "graph center")
        if center.shape != shape:
            raise ValidationError("center shape does not match --n/--k")
    return EXIT_OK, bkinf.crystal_graph_dot(center, args.radius)


FLAG = "flag"  # the converter of an option that takes no value: given, it reads True
REQUIRED = object()  # the default of an option that every call must give

# option -> (converter or FLAG, default or REQUIRED, choices or None, help text)
_SHAPE = {"n": (int, REQUIRED, None, "shape parameter n >= 2"),
          "k": (int, REQUIRED, None, "shape parameter k, 1 <= k <= n")}

# subcommand -> (help line, name of its cmd_* function, options); main looks
# the function up by name at each call, so a tool that rebinds module names
# (perfbench's tracer) sees the call
COMMANDS = {
    "verify": ("run a verification suite", "cmd_verify", {
        "suite": (str, REQUIRED, sorted(SUITES) + ["all"], "suite to run, or all of them"),
        **_SHAPE,
        "trials": (int, 20, None, "random points per relation"),
        "seed": (int, 0, None, "seed of the point sampler"),
        "bound": (int, None, None, "sampling bound (default: the suite's own)"),
        "json": (FLAG, False, None, "print the report as JSON"),
    }),
    "act": ("apply a crystal operation to a point file", "cmd_act", {
        "side": (str, REQUIRED, ["geom", "trop", "bkinf"], "geometric, tropical or array crystal"),
        "op": (str, REQUIRED, ["e", "f", "s"], "action e, lowering f or reflection s"),
        "i": (int, REQUIRED, None, "index of the operation"),
        "c": (str, None, None, "rational parameter P/Q of geom e"),
        "d": (int, 1, None, "integer step count"),
        "point": (str, REQUIRED, None, "JSON point file"),
        "json": (FLAG, False, None, "print compact JSON"),
    }),
    "map": ("apply a chart change or probe", "cmd_map", {
        "map": (str, REQUIRED, list(MAPS), "map to apply"),
        "point": (str, REQUIRED, None, "JSON point file"),
        "i": (int, None, None, "index of the degree probe"),
        "d": (int, 0, None, "action exponent of the degree probe"),
        "json": (FLAG, False, None, "print compact JSON"),
    }),
    "conjecture": ("run the proportionality experiment", "cmd_conjecture", {
        **_SHAPE,
        "trials": (int, 25, None, "random points"),
        "seed": (int, 0, None, "seed of the point sampler"),
        "bound": (int, 16, None, "sampling bound"),
        "json": (FLAG, False, None, "print compact JSON"),
    }),
    "graph": ("DOT export of an array-crystal ball", "cmd_graph", {
        **_SHAPE,
        "center": (str, "b_inf", None, "b_inf, or an array point file"),
        "radius": (int, 1, None, "steps from the center"),
    }),
}


def _spelling(name, option):
    """How an option is written: ``--i I``, ``--op {e,f,s}`` or ``--json``."""
    convert, _, choices, _ = option
    if convert is FLAG:
        return "--" + name
    return "--%s %s" % (name, "{%s}" % ",".join(choices) if choices else name.upper())


def _usage(command):
    if command is None:
        return "usage: pathcrystal [-h] {%s} ..." % ",".join(COMMANDS)
    words = [("%s" if option[1] is REQUIRED else "[%s]") % _spelling(name, option)
             for name, option in COMMANDS[command][2].items()]
    return "usage: pathcrystal %s [-h] %s" % (command, " ".join(words))


def _help(command):
    """The ``-h`` text of a subcommand, or of the program for ``None``."""
    if command is None:
        head = ["Exact verification of the lattice-path crystal construction.", "", "commands:"]
        rows = [(name, entry[0]) for name, entry in COMMANDS.items()]
    else:
        head = [COMMANDS[command][0], "", "options:"]
        rows = [("-h, --help", "show this help and exit")] + [
            (_spelling(name, option), option[3] + " (required)" * (option[1] is REQUIRED))
            for name, option in COMMANDS[command][2].items()
        ]
    return "\n".join([_usage(command), ""] + head + ["  %-22s  %s" % row for row in rows])


def parse_args(argv):
    """Parse one call by :data:`COMMANDS`: a namespace, or the help text.

    ``argv[0]`` names the subcommand; each later word is ``--name value``,
    ``--name=value`` or a flag.  A value option takes the next word even
    when it starts with ``-``, a repeated option keeps its last value, and
    names match exactly.  ``-h`` or ``--help`` anywhere asks for help.  Any
    other bad call raises :class:`ValidationError`, ending in the usage line.
    """
    command = argv[0] if argv and argv[0] in COMMANDS else None
    if "-h" in argv or "--help" in argv:
        return _help(command)
    try:
        if command is None:
            raise ValidationError(
                "unknown subcommand %s" % brief(argv[0]) if argv else "no subcommand"
            )
        options = COMMANDS[command][2]
        values = {name: option[1] for name, option in options.items()}
        words = iter(argv[1:])
        for word in words:
            name, inline, text = word[2:].partition("=")
            if not word.startswith("--") or name not in options:
                raise ValidationError("unrecognized argument %s" % brief(word))
            convert, _, choices, _ = options[name]
            if convert is FLAG:
                if inline:
                    raise ValidationError("--%s takes no value" % name)
                values[name] = True
                continue
            text = text if inline else next(words, None)
            if text is None:
                raise ValidationError("--%s needs a value" % name)
            try:
                values[name] = convert(text)
            except ValueError:
                raise ValidationError(
                    "--%s: invalid %s value %s" % (name, convert.__name__, brief(text))
                )
            if choices is not None and values[name] not in choices:
                raise ValidationError(
                    "--%s: %s is not one of %s" % (name, brief(text), ", ".join(choices))
                )
        missing = ["--" + name for name, value in values.items() if value is REQUIRED]
        if missing:
            raise ValidationError("missing %s" % ", ".join(missing))
    except ValidationError as exc:
        raise ValidationError("%s\n%s" % (exc, _usage(command)))
    return SimpleNamespace(command=command, **values)


def _finish(code, text):
    """Print a command's text and return its exit code.

    Each ``cmd_*`` returns ``(code, text)``, so this is the one place that
    writes a command's output.  A reader that has closed stdout
    (``pathcrystal ... | head``) does not turn a verdict into a failure:
    fd 1 is pointed at the null device, so the interpreter's last flush
    stays quiet, and ``code`` stands.
    """
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # the help text
            return _finish(EXIT_OK, args)
        return _finish(*globals()[COMMANDS[args.command][1]](args))
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
