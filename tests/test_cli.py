import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import MALFORMED_POINTS, SHAPES
from pathcrystal import bkinf, cli, fundrep, geom, suites, tropical
from pathcrystal.birational import sigma_map
from pathcrystal.bkinf import crystal_graph_dot, sample_belement
from pathcrystal.cli import ACTIONS, COMMANDS, MAPS, REQUIRED, main
from pathcrystal.errors import CrystalFault, ValidationError, brief
from pathcrystal.geom import act_e
from pathcrystal.lattice import make_shape, point_from_json, point_to_json
from pathcrystal.reporting import RelationCheck, all_ok
from pathcrystal.suites import PARAMS, SUITES, run_suite

X21 = {"n": 2, "k": 1, "kind": "x", "entries": {"1,1": "2/1", "1,2": "3/1"}}
Y21 = {"n": 2, "k": 1, "kind": "y", "entries": {"1,0": "1/3", "1,1": "2/3"}}
T21 = {"n": 2, "k": 1, "kind": "trop", "entries": {"1,1": 0, "1,2": 5}}
B21 = {"n": 2, "k": 1, "kind": "b", "entries": {"1,1": 0, "1,2": 5, "1,3": -5}}
POINTS = {"x": X21, "y": Y21, "trop": T21, "b": B21}


@pytest.fixture
def point_file(tmp_path):
    def write(data, name="point.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_birational_passes(capsys):
    code, out = run(
        capsys, "verify", "--suite", "birational", "--n", "4", "--k", "2",
        "--trials", "5", "--seed", "1", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["prng"] == "splitmix64"


def test_verify_axioms_passes(capsys):
    code, out = run(
        capsys, "verify", "--suite", "axioms", "--n", "2", "--k", "1",
        "--trials", "3", "--seed", "7",
    )
    assert code == 0
    assert "verma" in out


def test_vacuous_relations_are_flagged(capsys):
    # at n = 2 every pair of indices is adjacent, so two relations run no trial
    argv = ("verify", "--suite", "axioms", "--n", "2", "--k", "1", "--trials", "2")
    code, out = run(capsys, *argv)
    assert code == 0
    assert "[vacuous] epsilon-invariance" in out and "[vacuous] commutation" in out
    assert "[pass] verma" in out and out.rstrip().splitlines()[-1].startswith("result: ok")
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    assert code == 0 and report["ok"] is True
    flagged = {c["relation"] for c in report["checks"] if c["vacuous"]}
    assert flagged == {"epsilon-invariance", "commutation"}


def test_all_vacuous_run_is_not_ok(capsys, monkeypatch):
    nothing = [RelationCheck("commutation"), RelationCheck("epsilon-invariance")]
    assert not all_ok(nothing) and not all_ok([])
    assert all_ok(nothing + [RelationCheck("verma", passes=1)])
    monkeypatch.setattr(cli, "run_suite", lambda *args: [RelationCheck("commutation")])
    code, out = run(capsys, "verify", "--suite", "axioms", "--n", "2", "--k", "1", "--trials", "1")
    assert code == 1
    assert "[vacuous] commutation" in out and "result: FAILED" in out


def test_verify_rejects_bad_shape(capsys):
    code, _ = run(capsys, "verify", "--suite", "iso", "--n", "9", "--k", "0")
    assert code == 2


def test_verify_fundrep_dimension_cap(capsys):
    # binomial(17, 8) basis vectors: over the cap the probe already has
    code, _ = run(capsys, "verify", "--suite", "fundrep", "--n", "16", "--k", "8", "--trials", "1")
    assert code == 2


def test_verify_rejects_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "--suite", "nope", "--n", "2", "--k", "1")
    assert code == 2
    with pytest.raises(ValidationError, match="unknown suite 'nope'"):
        run_suite("nope", make_shape(2, 1), 1, 0)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_vacuous_runs_rejected(capsys, trials):
    # zero trials check nothing, so they must not report ok
    code, _ = run(capsys, "verify", "--suite", "birational", "--n", "3", "--k", "2",
                  "--trials", trials)
    assert code == 2
    code, _ = run(capsys, "conjecture", "--n", "3", "--k", "1", "--trials", trials)
    assert code == 2


def test_reports_are_deterministic(capsys):
    args = ("verify", "--suite", "iso", "--n", "3", "--k", "2",
            "--trials", "4", "--seed", "3", "--json")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k != "elapsed_s"}
    assert strip(first) == strip(second)


def test_act_geom_zero_action(capsys, point_file):
    code, out = run(
        capsys, "act", "--side", "geom", "--op", "e", "--i", "0",
        "--c", "2/1", "--point", point_file(X21), "--json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": "1/1", "1,2": "3/2"}


def test_float_parameters_and_entries_rejected(capsys, point_file):
    act = ["act", "--side", "geom", "--op", "e", "--i", "0"]
    assert main(act + ["--c", "0.5", "--point", point_file(X21)]) == 2
    assert "the action parameter: bad rational '0.5'" in capsys.readouterr().err
    floated = dict(X21, entries={"1,1": 0.5, "1,2": "3/1"})
    assert main(act + ["--c", "2/1", "--point", point_file(floated)]) == 2
    assert "entry at (1, 1): bad rational 0.5" in capsys.readouterr().err


def test_act_geom_reflection(capsys, point_file):
    code, out = run(
        capsys, "act", "--side", "geom", "--op", "s", "--i", "0",
        "--point", point_file(X21), "--json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": "1/3", "1,2": "1/2"}


def test_act_requires_parameter(capsys, point_file):
    code, _ = run(
        capsys, "act", "--side", "geom", "--op", "e", "--i", "0",
        "--point", point_file(X21),
    )
    assert code == 2


def test_act_trop_and_bkinf(capsys, point_file):
    code, out = run(
        capsys, "act", "--side", "trop", "--op", "e", "--i", "0", "--d", "1",
        "--point", point_file(T21), "--json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": -1, "1,2": 4}
    code, out = run(
        capsys, "act", "--side", "bkinf", "--op", "e", "--i", "1", "--d", "1",
        "--point", point_file(B21), "--json",
    )
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": 1, "1,2": 4, "1,3": -5}


@pytest.mark.parametrize("argv", [
    ("--op", "e", "--i", "99", "--d", "0"),
    ("--op", "f", "--i", "-4", "--d", "0"),
], ids=" ".join)
def test_act_bkinf_rejects_index_out_of_range(capsys, point_file, argv):
    # zero steps still name an operator, so the index is checked
    code, out = run(capsys, "act", "--side", "bkinf", *argv, "--point", point_file(B21))
    assert code == 2 and out == ""


@pytest.mark.parametrize("i", ["-1", "3"])
def test_act_trop_reflection_rejects_index_outside_0_to_n(capsys, point_file, i):
    # the reflection takes i in 0..n, so the message names that range
    code = main(["act", "--side", "trop", "--op", "s", "--i", i, "--point", point_file(T21)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "index i must be in 0..n" in captured.err


def act_argv(side, op, path):
    return ["act", "--side", side, "--op", op, "--i", "1", "--d", "1", "--c", "2/1",
            "--point", path]


def map_argv(name, path):
    return ["map", "--map", name, "--i", "1", "--point", path]


def test_act_side_kind_mismatch(capsys, point_file):
    # every table entry accepts its own kind and rejects the other three
    for (side, op), (kind, _) in sorted(ACTIONS.items()):
        assert run(capsys, *act_argv(side, op, point_file(POINTS[kind])))[0] == 0, (side, op)
        for other in sorted(set(POINTS) - {kind}):
            code, _ = run(capsys, *act_argv(side, op, point_file(POINTS[other])))
            assert code == 2, (side, op, other)


@pytest.mark.parametrize("name", sorted(MAPS))
def test_every_map_checks_its_kind(capsys, point_file, name):
    kind = MAPS[name][0]
    assert run(capsys, *map_argv(name, point_file(POINTS[kind])))[0] == 0
    for other in sorted(set(POINTS) - {kind}):
        assert run(capsys, *map_argv(name, point_file(POINTS[other])))[0] == 2, other


@pytest.mark.parametrize("argv,point,message", [
    (["map", "--map", "sigma", "--point"], T21, "map sigma expects an x point, got a tropical point"),
    (["act", "--side", "geom", "--op", "e", "--i", "0", "--c", "2", "--point"], B21,
     "side geom expects an x point, got an array"),
    (["graph", "--n", "2", "--k", "1", "--center"], Y21,
     "graph center expects an array, got a y point"),
], ids=["map", "act", "graph"])
def test_a_wrong_kind_is_named_as_the_library_names_it(capsys, point_file, argv, point, message):
    # one message form for a wrong kind: the CLI's check is lattice._check_kind
    assert main(argv + [point_file(point)]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


SIDE_KINDS = {side: kind for (side, _), (kind, _) in ACTIONS.items()}
MISSING_ACTIONS = [(side, op) for side in sorted(SIDE_KINDS) for op in "efs"
                   if (side, op) not in ACTIONS]


@pytest.mark.parametrize("side,op", MISSING_ACTIONS, ids="-".join)
def test_actions_outside_the_table_rejected(capsys, point_file, side, op):
    path = point_file(POINTS[SIDE_KINDS[side]])
    assert run(capsys, *act_argv(side, op, path)) == (2, "")


def test_map_sigma_and_omega(capsys, point_file):
    code, out = run(capsys, "map", "--map", "sigma", "--point", point_file(X21), "--json")
    assert code == 0
    assert json.loads(out)["entries"] == {"1,0": "1/3", "1,1": "2/3"}
    code, out = run(capsys, "map", "--map", "omega", "--point", point_file(T21), "--json")
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": 0, "1,2": 5, "1,3": -5}
    code, out = run(capsys, "map", "--map", "omega-inv", "--point", point_file(B21), "--json")
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": 0, "1,2": 5}


@pytest.mark.parametrize("d,code", [("9", 2), ("-9", 2), ("8", 0), ("-8", 0)])
def test_map_ud_probe_parameter_bound(capsys, point_file, d, code):
    t32 = {"n": 3, "k": 2, "kind": "trop",
           "entries": {"1,2": -1, "1,3": -2, "2,1": 2, "2,2": 1}}
    got, _ = run(capsys, "map", "--map", "ud-probe", "--point", point_file(t32),
                 "--i", "1", "--d", d, "--json")
    assert got == code


def test_map_ud_probe(capsys, point_file):
    code, out = run(
        capsys, "map", "--map", "ud-probe", "--point", point_file(T21),
        "--i", "1", "--d", "2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["match"] is True
    assert report["gamma"]["probe"] == report["gamma"]["tropical"] == -5


def test_map_malformed_json(capsys, tmp_path, point_file):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run(capsys, "map", "--map", "sigma", "--point", str(bad))
    assert code == 2
    for data in MALFORMED_POINTS:
        code, _ = run(capsys, "map", "--map", "sigma", "--point", point_file(data))
        assert code == 2, data


def test_map_rejects_a_second_spelling_of_an_entry_key(capsys, point_file):
    x21 = {"n": 2, "k": 1, "kind": "x", "entries": {"1,1": "2/1", "1,2": "3/1", "01,2": "5/1"}}
    code, out = run(capsys, "map", "--map", "sigma", "--point", point_file(x21))
    assert (code, out) == (2, "")


def test_map_rejects_a_short_file_for_a_large_shape_briefly(capsys, point_file):
    big = {"n": 300, "k": 150, "kind": "x", "entries": {}}
    assert main(["map", "--map", "sigma", "--point", point_file(big)]) == 2
    err = capsys.readouterr().err
    assert "has 22650 entries, got 0" in err
    assert len(err) < 200


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits") or sys.get_int_max_str_digits() == 0,
    reason="no int-string digit limit in this interpreter",
)
def test_overlong_integer_literal_is_malformed_json(capsys, tmp_path):
    # 5,000 digits: past int()'s default digit limit, so json.load raises a plain ValueError
    big = tmp_path / "big.json"
    big.write_text('{"n": 2, "k": 1, "kind": "trop", "entries": {"1,1": %s, "1,2": 5}}' % ("7" * 5000))
    argv = ["act", "--side", "trop", "--op", "e", "--i", "1", "--d", "1", "--point", str(big)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "malformed JSON in %s" % brief(str(big)) in err
    assert "Traceback" not in err


def test_deeply_nested_point_file_is_malformed_json(capsys, tmp_path):
    # nesting past the interpreter's stack makes json.load raise RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["map", "--map", "sigma", "--point", str(deep)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON in %s" % brief(str(deep)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [["verify", "--suite", "birational"], ["conjecture"]],
                         ids=lambda c: c[0])
def test_bound_wider_than_one_draw_exits_2(capsys, command):
    argv = command + ["--n", "3", "--k", "2", "--trials", "1", "--bound", str(10**20)]
    assert main(argv) == 2
    assert "wider than 2**64" in capsys.readouterr().err


def test_conjecture_report(capsys):
    code, out = run(
        capsys, "conjecture", "--n", "2", "--k", "1", "--trials", "4",
        "--seed", "2", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ratio_ok"] is True
    assert len(report["outcomes"]) == 4
    assert all(o["proportional"] for o in report["outcomes"])
    # the bound comes from suite_bound, as verify's does
    assert report["bound"] == 16
    code, out = run(capsys, "conjecture", "--n", "2", "--k", "1", "--trials", "1", "--bound", "9",
                    "--json")
    assert json.loads(out)["bound"] == 9


def test_conjecture_gates_the_ratio_at_every_k(capsys, monkeypatch):
    # twice the y-chart vector doubles the scalar: the suite and the subcommand fail at k = 2
    chart_vector = fundrep.chart_vector

    def doubled(point):
        v = chart_vector(point)
        return {key: 2 * a for key, a in v.items()} if point.kind == "y" else v

    monkeypatch.setattr(fundrep, "chart_vector", doubled)
    code, out = run(capsys, "verify", "--suite", "conjecture", "--n", "3", "--k", "2",
                    "--trials", "3", "--json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["relation"] == "chart-proportional" and check["fails"] == 3
    assert set(check["witnesses"][0]) == {"point", "ratio", "expected_ratio"}
    code, out = run(capsys, "conjecture", "--n", "3", "--k", "2", "--trials", "3", "--json")
    assert code == 1
    assert json.loads(out)["ratio_ok"] is False


def test_intertwine_catches_a_wrong_closed_zero_action(capsys, monkeypatch, point_file):
    # with 1/c in the 0-action's region combination, only i = 0 fails, and
    # replaying the witness through `act` shows the two routes apart
    alpha = geom._alpha
    monkeypatch.setattr(geom, "_alpha", lambda x, l, m, c: alpha(x, l, m, x.semiring.inv(c)))
    trials = 4
    for n, k in SHAPES:
        checks = {c.name: c for c in run_suite("intertwine", make_shape(n, k), trials, 0)}
        assert checks["gamma-transport"].ok and checks["epsilon-transport"].ok
        action = checks["action-intertwine"]
        assert action.fails == trials * PARAMS
        assert action.passes == trials * PARAMS * (n - 1)
        assert {w["i"] for w in action.witnesses} == {0}
    witness = action.witnesses[0]
    code, out = run(
        capsys, "act", "--side", "geom", "--op", "e", "--i", "0",
        "--c", witness["c"], "--point", point_file(witness["point"]), "--json",
    )
    assert code == 0
    x = point_from_json(witness["point"])
    c = Fraction(witness["c"])
    assert sigma_map(point_from_json(json.loads(out))) != act_e(sigma_map(x), 0, c)


def test_graph_export(capsys):
    code, out = run(capsys, "graph", "--n", "3", "--k", "2", "--center", "b_inf", "--radius", "2")
    assert code == 0
    assert out.startswith("digraph crystal {")
    assert '[label="0"]' in out and '[label="3"]' in out


def test_graph_ball_past_the_node_cap_exits_2(capsys):
    # at (8,4), radius 4 would already hold 9,412 nodes and radius 5 50,002
    code = main(["graph", "--n", "8", "--k", "4", "--radius", "6"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "level 4 could take the ball past 10000 nodes" in captured.err


def test_graph_past_the_array_entry_cap_exits_2(capsys):
    # (700, 350) has 123,200 array entries: rejected before its index sets are built
    code = main(["graph", "--n", "700", "--k", "350", "--radius", "0"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "has 123200 array entries, more than 100000" in captured.err


def test_array_zero_step_past_the_tuple_cap_exits_2(capsys, point_file):
    # (28, 14) has 224 array entries but binomial(27, 13) = 20,058,300 increasing tuples
    zero = point_to_json(bkinf.b_infinity(make_shape(28, 14)))
    act = ["act", "--side", "bkinf", "--i", "0", "--point", point_file(zero)]
    code = main(act + ["--op", "e"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "shape (28, 14) has binomial(27, 13) = 20058300 full paths, more than 100000" in captured.err
    # the reflection reads the closed form's DP, not the tuple family
    code, out = run(capsys, *act, "--op", "s", "--json")
    assert code == 0 and json.loads(out) == zero


DIGITS = "7" * 5000


def _long_values(write, tmp_path):
    """(argv, what the error line must say) per rejected value of thousands of characters."""
    x, t = write(X21, "x.json"), write(T21, "t.json")
    act = ["act", "--side", "geom", "--op", "e", "--i", "0"]
    negative = dict(X21, entries={"1,1": "-" + DIGITS[:4000], "1,2": "3/1"})
    long_n = {"n": int(DIGITS[:4000]), "k": 1, "kind": "x", "entries": {}}
    # k*(k'+1) has about 8,000 digits, more than str() prints
    long_nk = {"n": int(DIGITS[:4000]), "k": int(DIGITS[:3999]), "kind": "b", "entries": {}}
    return {
        "c": (act + ["--c", DIGITS + "/1", "--point", x], "the action parameter: bad rational"),
        "d": (["act", "--side", "trop", "--op", "e", "--i", "0", "--d", DIGITS, "--point", t],
              "--d: invalid int value"),
        "suite": (["verify", "--suite", "s" * 3004, "--n", "3", "--k", "2"],
                  "--suite: 'sssss"),
        "point": (["map", "--map", "sigma", "--point", str(tmp_path / ("p" * 3000))],
                  "ppppp' (%d characters): File name too long" % (len(str(tmp_path)) + 3003)),
        "entry": (act + ["--c", "2/1", "--point", write(negative, "entry.json")],
                  "entry at (1, 1) must be positive, got -7777"),
        "n": (["map", "--map", "sigma", "--point", write(long_n, "n.json")],
              "x point at n=7777"),
        "n-and-k": (["graph", "--n", "3", "--k", "2", "--center", write(long_nk, "nk.json")],
                    "has <a number too long to print> entries, got 0"),
        "i": (["act", "--side", "trop", "--op", "e", "--i", DIGITS[:4000], "--point", t],
              "index i must be in 0..n, got 7777"),
        "bound": (["verify", "--suite", "birational", "--n", "3", "--k", "2",
                   "--bound", DIGITS[:4000]], "is wider than 2**64"),
        "trials": (["conjecture", "--n", "3", "--k", "2", "--trials", "-" + DIGITS[:4000]],
                   "trials must be >= 1, got -7777"),
        "subcommand": ([DIGITS], "unknown subcommand '7777"),
        "argument": (["verify", "--" + DIGITS], "unrecognized argument '--777"),
    }


LONG_VALUES = ["c", "d", "suite", "point", "entry", "n", "n-and-k", "i", "bound", "trials",
               "subcommand", "argument"]


@pytest.mark.parametrize("case", LONG_VALUES)
def test_an_error_line_quotes_a_long_value_briefly(capsys, tmp_path, point_file, case):
    argv, says = _long_values(point_file, tmp_path)[case]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert lines[0].startswith("error: ") and says in lines[0]
    assert max(map(len, lines)) <= 300


def test_witness_replay_through_act(capsys, point_file):
    # a kept failure encodes its point and parameters; replaying the point
    # through `act` must reproduce the recorded relation (here: the x-chart's
    # 0-action intertwines with the y-chart's, so the replayed output matches
    # the direct call)
    check = RelationCheck("action-intertwine")
    check.record(False, point_from_json(X21), i=0, c=Fraction(7, 3))
    (witness,) = check.witnesses
    assert witness == {"point": X21, "i": 0, "c": "7/3"}
    x = point_from_json(witness["point"])
    direct = act_e(x, witness["i"], Fraction(7, 3))
    assert sigma_map(direct) == act_e(sigma_map(x), witness["i"], Fraction(7, 3))
    code, out = run(
        capsys, "act", "--side", "geom", "--op", "e", "--i", str(witness["i"]),
        "--c", witness["c"], "--point", point_file(witness["point"]), "--json",
    )
    assert code == 0
    assert json.loads(out) == json.loads(json.dumps(point_to_json(direct)))


def test_array_witness_decodes():
    b = point_from_json(B21)
    check = RelationCheck("array-involution")
    check.record(True, b, i=0)
    check.record(False, b, i=1)
    (witness,) = check.witnesses
    assert witness == {"point": B21, "i": 1}
    assert point_from_json(witness["point"]) == b


def test_verify_all_reports_bounds_used(capsys):
    code, out = run(
        capsys, "verify", "--suite", "all", "--n", "3", "--k", "2", "--trials", "1", "--json",
    )
    assert code == 0
    bounds = {report["suite"]: report["bound"] for report in json.loads(out)}
    assert len(bounds) == 11
    assert bounds.pop("iso") == bounds.pop("extremal") == 10
    assert bounds.pop("udprobe") == 8
    assert set(bounds.values()) == {16}
    # the degree probe cannot sample past its exponent limit, and says so
    code, out = run(
        capsys, "verify", "--suite", "udprobe", "--n", "3", "--k", "2", "--trials", "1",
        "--bound", "100", "--json",
    )
    assert code == 0
    assert json.loads(out)["bound"] == 8


# every command that samples, and every suite, including those that sample no point
BOUND_COMMANDS = [["conjecture"]] + [["verify", "--suite", s] for s in [*sorted(SUITES), "all"]]


@pytest.mark.parametrize("bound", ["0", "-2"])
@pytest.mark.parametrize("command", BOUND_COMMANDS, ids=lambda c: "-".join(c[::2]))
def test_bound_below_one_exits_2(capsys, command, bound):
    argv = command + ["--n", "3", "--k", "2", "--trials", "1", "--bound", bound]
    assert main(argv) == 2
    assert "bound must be at least 1, got %s" % bound in capsys.readouterr().err


# one call per subcommand that gives every option, with the values it parses to
FULL_CALLS = {
    "verify": {"suite": "iso", "n": 3, "k": 2, "trials": 4, "seed": 5, "bound": 6, "json": True},
    "act": {"side": "geom", "op": "e", "i": 0, "c": "2/1", "d": 2, "point": "p.json", "json": True},
    "map": {"map": "ud-probe", "point": "p.json", "i": 2, "d": 3, "json": True},
    "conjecture": {"n": 3, "k": 1, "trials": 3, "seed": 2, "bound": 9, "json": True},
    "graph": {"n": 3, "k": 2, "center": "b.json", "radius": 2},
}
# what an option a call leaves out reads; every other option is required
DEFAULTS = {
    "verify": {"trials": 20, "seed": 0, "bound": None, "json": False},
    "act": {"c": None, "d": 1, "json": False},
    "map": {"i": None, "d": 0, "json": False},
    "conjecture": {"trials": 25, "seed": 0, "bound": None, "json": False},
    "graph": {"center": "b_inf", "radius": 1},
}


def option_words(values):
    return [word for name, value in values.items()
            for word in (["--" + name] if value is True else ["--" + name, str(value)])]


def option_cases():
    """(argv, expected) for every option of every subcommand."""
    for command, values in FULL_CALLS.items():
        parsed = dict(values, command=command)
        yield [command, *option_words(values)], parsed
        for name, value in values.items():
            rest = option_words({other: v for other, v in values.items() if other != name})
            if name in DEFAULTS[command]:
                yield [command, *rest], dict(parsed, **{name: DEFAULTS[command][name]})
            else:
                yield [command, *rest], "error: missing --" + name
            if value is True:
                yield [command, *rest, "--%s=1" % name], "error: --%s takes no value" % name
            else:
                yield [command, *rest, "--%s=%s" % (name, value)], parsed
            word = "--" + name
            if type(value) is int:
                yield [command, *rest, word, "x"], "error: %s: invalid int value 'x'" % word
            if COMMANDS[command][2][name][2] is not None:
                yield [command, *rest, word, "nope"], "error: %s: 'nope' is not one of" % word
            if len(name) > 1:
                abbreviated = option_words({name[:-1]: value})
                yield [command, *rest, *abbreviated], "error: unrecognized argument %r" % word[:-1]


# argv -> the values it parses to, the start of its help text, or its error line
PARSE_CASES = [
    ([], "error: no subcommand"),
    (["--help"], "usage: pathcrystal [-h] {verify,act,map,conjecture,graph}"),
    (["nope"], "error: unknown subcommand 'nope'"),
    (["verify", "--help"], "usage: pathcrystal verify [-h] --suite"),
    (["verify", "--suite", "iso", "--n", "3"], "error: missing --k"),
    (["verify", "--suite", "iso", "--n", "3", "--k", "2", "--bound", "x"],
     "error: --bound: invalid int value 'x'"),
    (["verify", "--suite", "iso", "--n", "3", "--k", "2"],
     {"command": "verify", "suite": "iso", "n": 3, "k": 2, **DEFAULTS["verify"]}),
    (["act", "--help"], "usage: pathcrystal act [-h] --side"),
    (["act", "--side", "geom", "--op", "e", "--i", "7"], "error: missing --point"),
    (["act", "--side", "geom", "--op", "e", "--i", "0", "--c", "2/1", "--point", "p.json"],
     {"command": "act", "side": "geom", "op": "e", "i": 0, "c": "2/1", "d": 1, "point": "p.json",
      "json": False}),
    (["map", "--help"], "usage: pathcrystal map [-h] --map"),
    (["map", "--map", "ud-probe", "--point", "p.json", "--i", "1", "--d", "2", "--json"],
     {"command": "map", "map": "ud-probe", "point": "p.json", "i": 1, "d": 2, "json": True}),
    (["map", "--map", "nope", "--point", "p.json"], "error: --map: 'nope' is not one of"),
    (["conjecture", "--help"], "usage: pathcrystal conjecture [-h] --n"),
    (["conjecture", "--n", "3", "--k", "1", "--json"],
     {"command": "conjecture", "n": 3, "k": 1, **DEFAULTS["conjecture"], "json": True}),
    (["graph", "--help"], "usage: pathcrystal graph [-h] --n"),
    (["graph", "--n", "3", "--k", "2", "--radius", "1"],
     {"command": "graph", "n": 3, "k": 2, "center": "b_inf", "radius": 1}),
    (["act", "--point", "verify"], "error: missing --side, --op, --i"),
    (["--help", "act"], "usage: pathcrystal [-h] {verify"),
    (["-h"], "usage: pathcrystal [-h] {verify"),
    (["ac"], "error: unknown subcommand 'ac'"),
    (["act", "-h"], "usage: pathcrystal act [-h]"),
    (["verify"], "error: missing --suite, --n, --k"),
    (["act", "--sid", "geom"], "error: unrecognized argument '--sid'"),
    (["--", "act"], "error: unknown subcommand '--'"),
    (["graph", "--radius"], "error: --radius needs a value"),
    # a value option takes the next word, even one that looks like an option
    (["act", "--d", "-3", "--side", "trop", "--op", "e", "--i", "1", "--point", "-p.json"],
     {"command": "act", "side": "trop", "op": "e", "i": 1, "c": None, "d": -3,
      "point": "-p.json", "json": False}),
    (["map", "--map", "omega", "--d", "-3", "--point", "--json"],
     {"command": "map", "map": "omega", "point": "--json", "i": None, "d": -3, "json": False}),
    # a repeated option keeps its last value; help wins wherever it stands
    (["graph", "--n", "9", "--k", "2", "--n", "3", "--radius=0"],
     {"command": "graph", "n": 3, "k": 2, "center": "b_inf", "radius": 0}),
    (["graph", "--sid", "--help"], "usage: pathcrystal graph [-h]"),
    (["act", "--side", "geom", "extra"], "error: unrecognized argument 'extra'"),
    (["act", "-s", "geom"], "error: unrecognized argument '-s'"),
    *option_cases(),
]


def test_the_full_calls_give_every_option_in_the_table():
    assert {command: list(values) for command, values in FULL_CALLS.items()} == {
        command: list(entry[2]) for command, entry in COMMANDS.items()
    }


@pytest.mark.parametrize("argv,expected", PARSE_CASES, ids=[" ".join(a) for a, _ in PARSE_CASES])
def test_the_table_parses_a_call(capsys, monkeypatch, argv, expected):
    # main looks each cmd_* up by name, so a stand-in sees the parsed values
    seen = []

    def stand_in(args):
        seen.append(vars(args))
        return 0, "ran"

    for _, function, _ in COMMANDS.values():
        monkeypatch.setattr(cli, function, stand_in)
    code = main(list(argv))
    printed = capsys.readouterr()
    if isinstance(expected, dict):
        assert (code, printed.out, printed.err, seen) == (0, "ran\n", "", [expected])
    elif expected.startswith("usage: pathcrystal"):
        assert (code, printed.err, seen) == (0, "", [])
        assert printed.out.startswith(expected)
    else:
        assert (code, printed.out, seen) == (2, "", [])
        reason, usage = printed.err.rstrip("\n").split("\n")
        assert reason.startswith(expected) and usage.startswith("usage: pathcrystal")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_every_option_with_its_help_text(capsys, command):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    for name, (_, default, _, text) in COMMANDS[command][2].items():
        rows = [line for line in out.splitlines() if line.startswith("  --%s " % name)]
        assert len(rows) == 1 and rows[0].endswith(text + " (required)" * (default is REQUIRED))


def test_a_parameter_that_starts_with_a_dash_reaches_the_library(capsys, point_file):
    argv = ["act", "--side", "geom", "--op", "e", "--i", "0", "--c", "-1/2"]
    assert main(argv + ["--point", point_file(X21)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the action parameter must be positive\n"


def test_a_point_file_whose_name_starts_with_a_dash(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-x.json").write_text(json.dumps(X21))
    code, out = run(capsys, "act", "--side", "geom", "--op", "e", "--i", "0", "--c", "2/1",
                    "--point", "-x.json", "--json")
    assert code == 0
    assert json.loads(out)["entries"] == {"1,1": "1/1", "1,2": "3/2"}


# a child whose stdout pipe has no reader: its first flush fails with EPIPE
CLOSED_STDOUT_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from pathcrystal import cli
from pathcrystal.reporting import RelationCheck
if sys.argv[2] == "vacuous":
    cli.run_suite = lambda *args: [RelationCheck("commutation")]
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("mode,argv,code", [
    ("plain", ["verify", "--suite", "all", "--n", "4", "--k", "2", "--trials", "2", "--json"], 0),
    ("plain", ["graph", "--n", "3", "--k", "2", "--radius", "2"], 0),
    ("plain", ["--help"], 0),
    ("vacuous", ["verify", "--suite", "axioms", "--n", "2", "--k", "1", "--trials", "1"], 1),
])
def test_closed_stdout_keeps_the_exit_code(mode, argv, code):
    src = str(Path(cli.__file__).parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts, so no write can race a reader
    try:
        child = subprocess.run(
            [sys.executable, "-S", "-c", CLOSED_STDOUT_CHILD, src, mode, *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (code, "")


def test_unreadable_point_file_exits_2(capsys, tmp_path):
    # a directory opens with IsADirectoryError, an OSError like a missing file
    code = main(["map", "--map", "sigma", "--point", str(tmp_path)])
    assert code == 2
    assert "cannot read %s: Is a directory" % brief(str(tmp_path)) in capsys.readouterr().err


def test_text_report_prints_each_witness(capsys, monkeypatch):
    check = RelationCheck("commutation")
    check.record(False, point_from_json(B21), i=0)
    monkeypatch.setattr(cli, "run_suite", lambda *args: [check])
    code, out = run(capsys, "verify", "--suite", "axioms", "--n", "2", "--k", "1", "--trials", "1")
    assert code == 1
    assert "[FAIL] commutation" in out
    assert "    witness: %s" % json.dumps({"i": 0, "point": B21}, sort_keys=True) in out


def test_ud_probe_needs_an_index(capsys, point_file):
    code = main(["map", "--map", "ud-probe", "--point", point_file(T21), "--d", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "ud-probe needs --i" in captured.err


def test_graph_around_a_center_file(capsys, point_file):
    b = sample_belement(make_shape(4, 2), 3, 5)
    center = point_file(point_to_json(b))
    code, out = run(capsys, "graph", "--n", "4", "--k", "2", "--center", center, "--radius", "1")
    assert (code, out) == (0, crystal_graph_dot(b, 1) + "\n")
    code = main(["graph", "--n", "5", "--k", "2", "--center", center, "--radius", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "center shape does not match --n/--k" in captured.err


def test_extremal_fault_fails_the_suite(capsys, monkeypatch):
    calls = []

    def faulty(b, which):
        calls.append(which)
        raise CrystalFault("planted fault at %s" % which)

    monkeypatch.setattr(bkinf, "extremal_c", faulty)
    code, out = run(capsys, "verify", "--suite", "extremal", "--n", "3", "--k", "2",
                    "--trials", "2", "--json")
    assert code == 1
    checks = {c["relation"]: c for c in json.loads(out)["checks"]}
    # both relations read the extremal tuples, so the fault fails each at every trial
    for relation in ("extremal-tuples", "eps-phi-from-tuples"):
        check = checks[relation]
        assert (check["passes"], check["fails"]) == (0, 2)
        assert check["witnesses"][0]["error"] == "CrystalFault: planted fault at e"
        assert set(check["witnesses"][0]) == {"error", "point"}
    # the failed build is kept, not retried by the second relation
    assert calls == ["e", "e"]


def test_a_check_that_raises_is_a_failed_trial_of_its_relation(capsys, monkeypatch):
    epsilon = geom.epsilon

    def broken(x, i):
        if i == 1:
            raise TypeError("planted at i = 1")
        return epsilon(x, i)

    monkeypatch.setattr(geom, "epsilon", broken)
    code, out = run(capsys, "verify", "--suite", "all", "--n", "3", "--k", "2", "--trials", "1",
                    "--json")
    assert code == 1
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == sorted(SUITES)
    failed = {
        (r["suite"], c["relation"]): (c["fails"], {tuple(sorted(w)) for w in c["witnesses"]})
        for r in reports for c in r["checks"] if c["fails"]
    }
    # every relation that reads epsilon at i = 1, once per trial at i = 1 (and per parameter
    # draw, and per index j that commutes with 1); udprobe's four relations all read one
    # probe_pairs value, and the degree probe's epsilon is part of it
    probe = (1, {("d", "error", "i", "point")})
    assert failed == {
        ("intertwine", "epsilon-transport"): (1, {("error", "i", "point")}),
        ("axioms", "epsilon-scaling"): (PARAMS, {("c", "error", "i", "point")}),
        ("axioms", "epsilon-invariance"): (PARAMS, {("c", "error", "i", "j", "point")}),
        ("udprobe", "probe-gamma"): probe,
        ("udprobe", "probe-epsilon"): probe,
        ("udprobe", "probe-action"): probe,
        ("udprobe", "maxplus-action"): probe,
    }
    witnesses = [w for r in reports for c in r["checks"] for w in c["witnesses"]]
    assert all(w["i"] == 1 and w["error"] == "TypeError: planted at i = 1" for w in witnesses)
    # the same relations pass at every other index
    passed = {(r["suite"], c["relation"]) for r in reports for c in r["checks"] if c["passes"]}
    assert set(failed) <= passed


def test_only_exceptions_become_failed_trials(monkeypatch):
    def interrupted(x, i):
        raise KeyboardInterrupt

    monkeypatch.setattr(geom, "epsilon", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite("intertwine", make_shape(3, 2), 1, 0)


def test_intertwine_maps_each_point_once_for_its_transports(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return sigma_map(x)

    monkeypatch.setattr(suites, "sigma_map", counted)
    trials = 3
    for n, k in SHAPES:
        calls.clear()
        assert all(c.ok for c in run_suite("intertwine", make_shape(n, k), trials, 0))
        # one image of the point, shared by every transport, and one per action tested
        assert len(calls) == trials * (1 + n * PARAMS)


def counted_calls(monkeypatch, *holders):
    """{name: calls so far} for each ``(module, name)``, counted through a wrapper."""
    calls = {}
    for module, name in holders:
        def counted(*args, _call=getattr(module, name), _name=name):
            calls[_name] += 1
            return _call(*args)
        calls[name] = 0
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("suite,nk,expected", [
    # a shared operand per (trial, index) for gamma and epsilon at x, and per (draw, index)
    # for the actions at c and at d (234/160/60 and 501/360/150 when each check built its own)
    ("axioms", (3, 2), [(geom, "act_e", 184), (geom, "gamma", 84), (geom, "epsilon", 34)]),
    ("axioms", (5, 3), [(geom, "act_e", 336), (geom, "gamma", 186), (geom, "epsilon", 81)]),
    # one first reflection per index and realization (89/84/90 when each check built its own);
    # the closed forms' second routes stay one call per check: n for weyl_s_def, n+1 for bk_e_steps
    ("weyl", (5, 3), [
        (geom, "weyl_s", 54), (tropical, "trop_weyl", 54), (bkinf, "weyl_s_tilde", 54),
        (geom, "weyl_s_def", 5), (bkinf, "bk_e_steps", 6),
    ]),
])
def test_axioms_and_weyl_compute_each_shared_operand_once_per_trial(
    monkeypatch, suite, nk, expected
):
    calls = counted_calls(monkeypatch, *((module, name) for module, name, _ in expected))
    assert all(c.ok for c in run_suite(suite, make_shape(*nk), 1, 0))
    assert calls == {name: count for _, name, count in expected}


@pytest.mark.parametrize("suite,module,name,expected", [
    ("axioms", geom, "act_e", {
        "identity-at-1": (10, 2), "parameter-group-law": (50, 10), "gamma-scaling": (300, 60),
        "epsilon-scaling": (50, 10), "epsilon-invariance": (90, 0), "commutation": (60, 30),
        "verma": (40, 20),
    }),
    ("weyl", geom, "weyl_s", {
        "geometric-closed-form": (8, 2), "geometric-involution": (10, 2),
        "geometric-braid": (8, 4), "geometric-commute": (12, 6), "tropical-involution": (12, 0),
        "tropical-braid": (12, 0), "tropical-commute": (18, 0), "array-closed-form": (12, 0),
        "array-involution": (12, 0), "array-braid": (12, 0), "array-commute": (18, 0),
    }),
])
def test_a_shared_operand_that_raises_fails_every_relation_that_reads_it(
    monkeypatch, suite, module, name, expected
):
    # (passes, fails) as when each check made its own call: a kept exception is raised
    # again for every later reader, and no relation that reads index 1 passes there
    call = getattr(module, name)

    def broken(x, i, *args):
        if i == 1:
            raise TypeError("planted at i = 1")
        return call(x, i, *args)

    monkeypatch.setattr(module, name, broken)
    checks = run_suite(suite, make_shape(5, 3), 2, 0)
    assert {c.name: (c.passes, c.fails) for c in checks} == expected
    witnesses = [w for c in checks for w in c.witnesses]
    assert witnesses and all(w["error"] == "TypeError: planted at i = 1" for w in witnesses)
    assert all(1 in (w["i"], w.get("j")) for w in witnesses)


PATH_CAPPED = "shape (24, 12) has binomial(23, 11) = 1352078 full paths, more than 100000"
DIMENSION_CAPPED = "k-subset module limited to dimension at most 10000, got binomial(17, 8)"


@pytest.mark.parametrize("suite,nk,message", [
    ("paths", (24, 12), PATH_CAPPED),
    ("iso", (24, 12), PATH_CAPPED),
    ("weyl", (24, 12), PATH_CAPPED),
    ("extremal", (24, 12), PATH_CAPPED),
    ("udprobe", (24, 12), PATH_CAPPED),
    ("fundrep", (16, 8), DIMENSION_CAPPED),
    ("conjecture", (16, 8), DIMENSION_CAPPED),
])
def test_a_suite_past_its_cap_is_refused_before_its_first_trial(
    capsys, monkeypatch, suite, nk, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("no point may be sampled past the cap")

    monkeypatch.setattr(suites, "sample_point", refuse)
    monkeypatch.setattr(bkinf, "sample_belement", refuse)
    n, k = map(str, nk)
    code = main(["verify", "--suite", suite, "--n", n, "--k", k, "--trials", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


def test_udprobe_past_its_path_cap_exits_2(capsys, monkeypatch):
    # binomial(20, 9) = 167,960 full paths at (21, 10), past PATH_CAP

    def refuse(*args):
        raise AssertionError("no probe point may be built past the path cap")

    monkeypatch.setattr(tropical, "XPoint", refuse)
    code = main(["verify", "--suite", "udprobe", "--n", "21", "--k", "10", "--trials", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "shape (21, 10) has binomial(20, 9) = 167960 full paths, more than 100000" in captured.err
