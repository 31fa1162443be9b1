import json
import sys

import pytest

from conftest import MALFORMED_POINTS, SHAPES
from pathcrystal import cli
from pathcrystal.cli import ACTIONS, MAPS, build_parser, main, parse_args
from pathcrystal.reporting import RelationCheck, all_ok
from pathcrystal.suites import SUITES

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
    assert "malformed JSON in %s" % big in err
    assert "Traceback" not in err


def test_deeply_nested_point_file_is_malformed_json(capsys, tmp_path):
    # nesting past the interpreter's stack makes json.load raise RecursionError
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["map", "--map", "sigma", "--point", str(deep)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON in %s" % deep in err
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


def test_conjecture_gates_the_ratio_at_every_k(capsys, monkeypatch):
    # a probe reporting twice the scalar must fail the suite and the subcommand at k = 2
    from pathcrystal import fundrep

    probe = fundrep.proportionality_probe

    def doubled(x):
        result = probe(x)
        return dict(result, ratio=2 * result["ratio"])

    monkeypatch.setattr(fundrep, "proportionality_probe", doubled)
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
    from fractions import Fraction

    from pathcrystal import act_e, geom, make_shape, point_from_json, sigma_map
    from pathcrystal.suites import PARAMS, run_suite

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


def test_witness_replay_through_act(capsys, point_file):
    # a kept failure encodes its point and parameters; replaying the point
    # through `act` must reproduce the recorded relation (here: the x-chart's
    # 0-action intertwines with the y-chart's, so the replayed output matches
    # the direct call)
    from fractions import Fraction

    from pathcrystal import act_e, point_from_json, point_to_json, sigma_map

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
    from pathcrystal import point_from_json
    from pathcrystal.reporting import RelationCheck

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
    assert "bound must be at least 1" in capsys.readouterr().err


PARSE_CASES = [
    [],
    ["--help"],
    ["nope"],
    ["verify", "--help"],
    ["verify", "--suite", "iso", "--n", "3"],
    ["verify", "--suite", "iso", "--n", "3", "--k", "2", "--bound", "x"],
    ["verify", "--suite", "iso", "--n", "3", "--k", "2"],
    ["act", "--help"],
    ["act", "--side", "geom", "--op", "e", "--i", "7"],
    ["act", "--side", "geom", "--op", "e", "--i", "0", "--c", "2/1", "--point", "p.json"],
    ["map", "--help"],
    ["map", "--map", "ud-probe", "--point", "p.json", "--i", "1", "--d", "2", "--json"],
    ["map", "--map", "nope", "--point", "p.json"],
    ["conjecture", "--help"],
    ["conjecture", "--n", "3", "--k", "1", "--json"],
    ["graph", "--help"],
    ["graph", "--n", "3", "--k", "2", "--radius", "1"],
    ["act", "--point", "verify"],
    ["--help", "act"],
    ["-h"],
    ["ac"],
    ["act", "-h"],
    ["verify"],
    ["act", "--sid", "geom"],
    ["--", "act"],
    ["graph", "--radius"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_parser_for_a_call_parses_like_the_full_parser(capsys, monkeypatch, argv):
    # main's route builds only the called subcommand's parser when argv[0] names one
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at the terminal width

    def parse(parse_call):
        try:
            result = vars(parse_call(argv)), None
        except SystemExit as exc:
            result = None, exc.code
        return result, capsys.readouterr()

    full = parse(build_parser().parse_args)
    assert parse(parse_args) == full
    (namespace, code), printed = full
    if namespace is not None:
        assert namespace["command"] == argv[0]
    if {"-h", "--help"} & set(argv):
        assert code == 0 and printed.out.startswith("usage: pathcrystal")
