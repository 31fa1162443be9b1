"""Tests for the outside-in tracer and the benchmark runner.

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import pathcrystal  # noqa: E402
import pathcrystal.cli  # noqa: E402
from pathcrystal import bkinf, geom, lattice, paths, semiring, suites, tropical  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def holders():
    """{(container id, key): object} for every module attribute and dict value."""
    out = {}
    for mod in tracing.package_modules():
        for name, value in vars(mod).items():
            out[id(vars(mod)), name] = value
            if type(value) is dict:
                for key, item in value.items():
                    out[id(value), key] = item
    return out


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


@pytest.fixture
def alarm():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def semiring_and_point_bindings():
    ops = [getattr(spec, op) for spec in (semiring.RATIONAL, semiring.MAXPLUS)
           for op in tracing.SEMIRING_OPS]
    return ops + [lattice._BasePoint.__dict__["__init__"]]


def test_install_rebinds_every_holder_and_uninstall_restores():
    originals = [fn for _, fn in tracing.public_functions()]
    region_sums = paths.region_sums
    before = holders()
    before_counted = semiring_and_point_bindings()
    t = tracing.Tracer()
    t.install()
    try:
        held = holders()
        for fn in originals:
            assert not any(value is fn for value in held.values()), fn.__qualname__
        # one name, bound separately in four modules
        for mod in (paths, geom, tropical, suites):
            assert mod.region_sums.__wrapped__ is region_sums
        # a module-level dict holds the same wrapper as the module attribute
        assert all(f is getattr(suites, f.__name__) for f in suites.SUITES.values())
        counted = semiring_and_point_bindings()
        assert not any(a is b for a, b in zip(counted, before_counted))
    finally:
        t.uninstall()
    after = holders()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(a is b for a, b in zip(semiring_and_point_bindings(), before_counted))


def test_calls_through_every_binding_are_counted(tracer):
    x = lattice.sample_point(lattice.make_shape(3, 2), 1, 9, kind="x")
    geom.act_e(x, 0, 2)
    layers = tracer.collect()
    # act_e reaches region_sums through geom's own binding of the name
    assert layers["fn:geom.act_e"] == 1
    assert layers["fn:paths.region_sums"] == 4 * (len(x.shape.l1_indices) - 1)
    assert layers["semiring.rational.ops"] > 0
    assert layers["lattice.points_built"] == 2  # the sample and the result
    assert all(layers[layer + ".self_s"] >= 0 for layer in tracing.LAYERS)
    assert tracer.collect()["fn:geom.act_e"] == 0


def small_battery(seed):
    units = workloads.build_battery(seed, None)
    return [u for u in units if (u.shape.n, u.shape.k) == (3, 2)][::3]


def test_traced_and_untraced_verdicts_and_counts_agree():
    units = small_battery(5)
    clock = run.HostClock()
    plain = run.Pass(units, clock)
    t = tracing.Tracer()
    t.install()
    try:
        traced = [run.Pass(units, clock, t), run.Pass(small_battery(5), clock, t)]
    finally:
        t.uninstall()
    for p in [plain] + traced:
        p.normalize(clock)
    assert plain.verdicts == traced[0].verdicts == traced[1].verdicts
    assert plain.totals["suites.checks"] > 0
    assert not run.trace_mismatches([plain], traced)
    first, second = (run.layer_values(p) for p in traced)
    for name in run.DETERMINISTIC:
        assert first[name] == second[name], name
    assert first["suites.witnesses_built"] > 0


def test_timeout_stops_the_unit_and_leaves_no_open_span(tracer, alarm):
    b = bkinf.b_infinity(lattice.make_shape(3, 2))
    endless = workloads.CheckUnit("endless", lambda: [bkinf.bk_e(b, 0, 10 ** 9)])
    ok, facts, _, wall, _ = run.run_unit(endless, tracer, 0.2)
    assert not ok and facts == {"error": "timeout"}
    assert 0.2 <= wall < 1.0
    layers = tracer.collect()
    assert layers["fn:bkinf.bk_e"] == 1
    assert layers["fn:bkinf.extremal_c"] > 0


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
