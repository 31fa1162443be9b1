"""pathcrystal benchmark: time to a verdict, and per-layer counts.

Usage (from the repository root):

    python3 perfbench/run.py --workload battery|scaling|cli --seed N \\
        --seconds S --trace 0|1

Set-up imports the package from ``src/`` and builds the workload's units
from the seed (several times; the median is ``setup_s``).  The timed phase
then runs passes over the same units, one caller and one unit at a time,
and starts another pass only while it is expected to end within
``--seconds``.  Every unit runs under a time limit of ``UNIT_LIMIT_S``; a
unit over it is stopped and counts as failed.

All reported times are in reference-host seconds: each measured time is
divided by the host slowdown measured around it (see :class:`HostClock`).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the outside-in tracer installed, checks
that both phases give identical verdicts, and prints the per-layer
metrics of a traced pass (medians over traced passes) together with the
tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import bisect
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import tracer as tracing
from workloads import WORKLOADS

UNIT_LIMIT_S = 5.0  # reference-host seconds
SETUP_REPS = 9

# Time of reference_s() on an uncontended host: a 2-core Xeon VM at
# 2.1 GHz with Python 3.11.  Only fixes the scale of the reported times.
REFERENCE_NOMINAL_S = 0.020
REFERENCE_EVERY_S = 0.5
REFERENCE_WINDOW_S = 1.0
MIN_TRACED_PASSES = 2

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("units_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = tuple(
    [(layer + ".calls", "count") for layer in tracing.LAYERS]
    + [(layer + ".self_s", "s") for layer in tracing.LAYERS]
    + [
        ("semiring.rational.ops", "count"),
        ("semiring.maxplus.ops", "count"),
        ("lattice.points_built", "count"),
        ("paths.region_sums_calls", "count"),
        ("paths.partial_sum_calls", "count"),
        ("geom.act_e_calls", "count"),
        ("tropical.probe_calls", "count"),
        ("bkinf.extremal_c_calls", "count"),
        ("bkinf.tuples_scanned", "count"),
        ("suites.checks", "count"),
        ("suites.witnesses_built", "count"),
        ("suites.witness_use_ratio", "ratio"),
        ("cli.bytes_out", "B"),
        ("trace.overhead_cpu_s", "s"),
    ]
)

# per-layer names read from one traced function's call count
CALL_COUNTS = {
    "paths.region_sums_calls": "fn:paths.region_sums",
    "paths.partial_sum_calls": "fn:paths.partial_sum",
    "geom.act_e_calls": "fn:geom.act_e",
    "tropical.probe_calls": "fn:tropical.ud_degree_probe",
    "bkinf.extremal_c_calls": "fn:bkinf.extremal_c",
}

# counts that must repeat exactly for the same inputs
DETERMINISTIC = (
    "suites.checks",
    "semiring.rational.ops",
    "semiring.maxplus.ops",
    "lattice.points_built",
    "paths.region_sums_calls",
    "suites.witnesses_built",
)

# unit facts summed per pass
FACT_TOTALS = ("suites.checks", "suites.witnesses_kept", "cli.bytes_out")


class UnitTimeout(BaseException):
    """Raised by the interval timer inside a unit that ran over the limit.

    A BaseException, so no ``except Exception`` in the library swallows it.
    """


def _on_alarm(signum, frame):
    raise UnitTimeout()


def reference_s():
    """Seconds taken by a fixed loop of standard-library work.

    The loop exercises what the library spends its time on (``Fraction``
    arithmetic, dict and tuple building) without using the library, so a
    change to the program cannot move it.  On a shared VM the host's speed
    changes by up to 1.8x, in spells of seconds to minutes; times divided by
    the slowdown this loop measures next to them keep their spread between
    runs close to the spread of the program's own work.  Collection is off
    so that the program's heap does not enter the measurement.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for i in range(1, 1400):
            a = Fraction(i % 13 + 1, i % 7 + 1)
            b = Fraction(i % 5 + 2, i % 11 + 1)
            {(i, j): a * b + a / b for j in range(3)}
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Host slowdown (reference time / nominal) sampled every REFERENCE_EVERY_S.

    One ~20 ms reference sample jitters by about a tenth, so a span of work
    is divided by the median of every sample taken within
    REFERENCE_WINDOW_S of it rather than by its neighbours alone.
    """

    def __init__(self):
        self.times = []
        self.slowdowns = []
        self.tick()

    @property
    def slowdown(self):
        return self.slowdowns[-1]

    def due(self):
        return perf_counter() - self.times[-1] >= REFERENCE_EVERY_S

    def tick(self):
        slowdown = reference_s() / REFERENCE_NOMINAL_S
        self.times.append(perf_counter())
        self.slowdowns.append(slowdown)

    def around(self, start, end):
        lo = bisect.bisect_left(self.times, start - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + REFERENCE_WINDOW_S)
        return statistics.median(self.slowdowns[lo:hi])


def run_unit(unit, tracer, limit):
    """(ok, facts, wall seconds, cpu seconds) for one unit under a wall-clock limit."""
    wall0, cpu0 = perf_counter(), process_time()
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        try:
            ok, facts = unit()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except UnitTimeout:
        ok, facts = False, {"error": "timeout"}
    except Exception as exc:  # a unit that raises has failed; keep running
        ok, facts = False, {"error": "%s: %s" % (type(exc).__name__, exc)}
    wall, cpu = perf_counter() - wall0, process_time() - cpu0
    if not ok and tracer is not None:
        tracer.abort()
    return ok, facts, wall0, wall, cpu


class Pass:
    """One run over every unit.

    :meth:`normalize` turns the raw unit times into reference-host seconds:
    each unit's wall and CPU time is divided by the host slowdown around it.
    A unit stopped by the limit counts as ``UNIT_LIMIT_S``: the limit, not
    the host, set its length.
    """

    def __init__(self, units, clock, tracer=None):
        self.raw = []  # (start, wall, cpu, stopped by the limit)
        self.verdicts = []
        self.failures = []
        self.totals = dict.fromkeys(FACT_TOTALS, 0)
        for unit in units:
            ok, facts, start, wall, cpu = run_unit(unit, tracer, UNIT_LIMIT_S * clock.slowdown)
            self.raw.append((start, wall, cpu, facts.get("error") == "timeout"))
            self.verdicts.append((ok, sorted(facts.items())))
            if not ok:
                self.failures.append((unit, facts))
            for name in FACT_TOTALS:
                self.totals[name] += facts.get(name, 0)
            if clock.due():
                clock.tick()
        clock.tick()
        self.raw_wall = sum(wall for _, wall, _, _ in self.raw)
        self.layers = tracer.collect() if tracer is not None else None

    def normalize(self, clock):
        self.latencies = []
        self.cpus = []
        for start, wall, cpu, limited in self.raw:
            slowdown = clock.around(start, start + wall)
            self.latencies.append(UNIT_LIMIT_S if limited else wall / slowdown)
            self.cpus.append(UNIT_LIMIT_S if limited else cpu / slowdown)
        self.wall = sum(self.latencies)
        self.cpu = sum(self.cpus)
        self.slowdown = self.raw_wall / self.wall


def run_passes(units, seconds, tracer=None, minimum=1):
    clock = HostClock()
    passes = []
    start = perf_counter()
    while len(passes) < minimum or perf_counter() - start + passes[-1].raw_wall <= seconds:
        passes.append(Pass(units, clock, tracer))
    clock.tick()
    for p in passes:
        p.normalize(clock)
    return passes


def setup(build, seed, workdir):
    """Median time of importing the package and building the units."""
    clock = HostClock()
    spans = []
    for _ in range(SETUP_REPS):
        for name in [m for m in sys.modules if m == "pathcrystal" or m.startswith("pathcrystal.")]:
            del sys.modules[name]
        t0 = perf_counter()
        __import__("pathcrystal")
        units = build(seed, workdir)
        spans.append((t0, perf_counter() - t0))
        clock.tick()
    return statistics.median(t / clock.around(t0, t0 + t) for t0, t in spans), units


def end_to_end(setup_s, passes):
    latencies = [t for p in passes for t in p.latencies]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "units_per_s": len(latencies) / sum(p.wall for p in passes),
        "unit_p50_ms": 1e3 * statistics.median(latencies),
        "unit_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_values(p):
    """Per-layer values of one traced pass, derived metrics excluded."""
    values = dict(p.layers)
    values.update(p.totals)
    for name, key in CALL_COUNTS.items():
        values[name] = values[key]
    for layer in tracing.LAYERS:
        values[layer + ".self_s"] /= p.slowdown
    return values


def per_layer(plain, traced):
    rows = [layer_values(p) for p in traced]
    values = {
        name: statistics.median_low(row[name] for row in rows)
        for name, _ in PER_LAYER
        if name in rows[0]
    }
    built = values["suites.witnesses_built"]
    kept = statistics.median_low(row["suites.witnesses_kept"] for row in rows)
    values["suites.witness_use_ratio"] = kept / built if built else 0.0
    values["trace.overhead_cpu_s"] = statistics.median(
        p.cpu for p in traced
    ) - statistics.median(p.cpu for p in plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def trace_mismatches(plain, traced):
    """Differences between traced and untraced verdicts, and between traced passes."""
    problems = []
    if any(p.verdicts != plain[0].verdicts for p in traced):
        problems.append("traced verdicts differ from the untraced run")
    rows = [layer_values(p) for p in traced]
    for name in DETERMINISTIC:
        if any(row[name] != rows[0][name] for row in rows):
            problems.append("%s differs between traced passes" % name)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "pathcrystal" / "__init__.py").is_file():
        print("perfbench: no pathcrystal sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = root / ".perfbench_work" / str(os.getpid())
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setup_s, units = setup(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            plain = run_passes(units, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_passes(units, args.seconds / 2, tracer, MIN_TRACED_PASSES)
            finally:
                tracer.uninstall()
            passes = plain + traced
            problems = trace_mismatches(plain, traced)
            metrics = per_layer(plain, traced)
        else:
            passes = run_passes(units, args.seconds)
            problems = []
            metrics = end_to_end(setup_s, passes)
        problems += ["wrong output: %s" % u.name for u in units if not u.verify()]
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    unexpected = [(u, f) for p in passes for u, f in p.failures if u.known_defect is None]
    for unit, facts in unexpected[:5]:
        problems.append("unit failed: %s %s" % (unit.name, facts))
    for line in problems:
        print("perfbench: %s" % line, file=sys.stderr)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(
        "workload=%s seed=%d passes=%d units=%d failed=%d fail_frac=%.4f"
        " raw_wall_s=%.4f host_slowdown=%.3f"
        % (
            args.workload, args.seed, len(passes), attempted, failed, failed / attempted,
            statistics.median(p.raw_wall for p in passes),
            statistics.median(p.slowdown for p in passes),
        )
    )
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
