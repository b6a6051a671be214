import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wronski import cli, combinat, electro, fuchs, nets, poly, tracker
from wronski.electro import ChargeConfig
from wronski.errors import InvalidInput, WronskiError

SCHEMA = json.load(open(os.path.join(os.path.dirname(cli.__file__),
                                     "schema.json")))


def run_cli(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    r = subprocess.run([sys.executable, "-m", "wronski.cli", *args],
                       capture_output=True, text=True, env=e)
    return r.returncode, r.stdout


def test_count():
    code, out = run_cli("count", "--d", "4")
    assert code == 0
    assert json.loads(out) == {"command": "count", "d": 4, "u": 5}


def test_kostka():
    code, out = run_cli("kostka", "--content", "1,1,1,1")
    assert code == 0
    assert json.loads(out)["kostka"] == 2


def test_solve_closed_form():
    code, out = run_cli("solve", "--points", "-1,1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 1
    cls = doc["classes"][0]
    assert cls["wronskian_roots"] == [-1.0, 1.0]
    assert cls["residues_x"] == [-1.0, 1.0]
    assert cls["s"] == 1
    assert list(cls["diagnostics"]) == ["residual"]
    pc, = tracker.solve_all([-1.0, 1.0], 2)
    assert pc.q1.dtype == pc.q2.dtype == np.float64


def test_solve_duplicate_points_exit2():
    code, out = run_cli("solve", "--points", "-1,-1")
    assert code == 2
    doc = json.loads(out)
    assert "distinct" in doc["error"] and doc["kind"] == "InvalidInput"


def test_invalid_command_exit2():
    code, out = run_cli("frobnicate")
    assert code == 2
    assert json.loads(out)["kind"] == "InvalidInput"


def test_bethe_command():
    code, out = run_cli("bethe", "--points", "-1,1", "--starts", "1000")
    assert code == 0
    doc = json.loads(out)
    assert sorted(s["s"] for s in doc["solutions"]) == [1, 3]


def test_equilibrium_command():
    code, out = run_cli("equilibrium", "--points", "-1,1", "--m", "1",
                        "--starts", "1000")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["equilibria"]) == 1
    (z,), = [e["z"] for e in doc["equilibria"]]
    assert abs(z[0]) < 1e-9 and abs(z[1]) < 1e-9


@pytest.mark.parametrize("args", [
    ("solve", "--points", "nan,1"),
    ("solve", "--points", "-1,inf"),
    ("net", "--points", "nan,1"),
    ("verify", "--points", "nan,1"),
    ("bethe", "--points", "-1,nan"),
    ("equilibrium", "--points", "-1,nan,2,3", "--m", "1"),
])
def test_non_finite_points_exit2(args):
    code, text = cli.run(list(args))
    assert code == 2
    assert json.loads(text) == {"error": "points must be finite",
                                "kind": "InvalidInput"}


@pytest.mark.parametrize("args", [
    ("solve", "--points", "1,2,3"),
    ("solve", "--points", "1,2", "--d", "3"),
    # 1e-13 apart, within 1e-12 of max|p|: not distinct
    ("solve", "--points", "0.5,0.5000000000001"),
    ("net", "--points", "1,1"),
    ("verify", "--points", "-0.0,0.0"),
    ("bethe", "--points", "1,1"),
    ("equilibrium", "--points", "1,1", "--m", "0"),
    ("equilibrium", "--points", "-1,1"),
    ("count", "--d", "1"),
    ("kostka", "--content", "1,1,4"),
    ("kostka", "--content", "1,2"),
    ("solve", "--points", "1,x"),
])
def test_invalid_input_exit2(args):
    code, text = cli.run(list(args))
    assert code == 2
    assert json.loads(text)["kind"] == "InvalidInput"


def test_equilibrium_bad_m_exit2():
    code, out = run_cli("equilibrium", "--points", "-1,1", "--m", "5")
    assert code == 2
    assert json.loads(out)["kind"] == "InvalidInput"


def test_net_command_with_artifacts(tmp_path):
    svg = tmp_path / "net.svg"
    csv_path = tmp_path / "arcs.csv"
    code, out = run_cli("net", "--points", "-2,-1,1,2",
                        "--svg", str(svg), "--csv", str(csv_path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nets"]) == 2
    files = sorted(p.name for p in tmp_path.glob("net*.svg"))
    assert files == ["net-1.svg", "net-2.svg"]
    assert "<svg" in (tmp_path / "net-1.svg").read_text()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "net,arc_lo,arc_hi,re,im"
    assert len(lines) > 10


def test_solve_far_from_the_origin_keeps_the_leading_coefficient():
    # Near 1000 the Wronskian's leading 1 is 1e-12 of its largest
    # coefficient, and still its leading coefficient.
    classes = tracker.solve_all([1000.0, 1001.0, 1002.0, 1003.0], 3)
    assert [pc.wronskian().size for pc in classes] == [5, 5]
    code, text = cli.run(["solve", "--points", "1000,1001,1002,1003"])
    assert code == 0, text
    assert [len(cls["wronskian_roots"])
            for cls in json.loads(text)["classes"]] == [4, 4]


def test_net_far_from_the_origin():
    # The tracer's steps follow the gap of 2, not the distance 1e7 from 0.
    code, text = cli.run(["net", "--points", "10000000,10000002"])
    assert code == 0, text
    assert [net["matching"] for net in json.loads(text)["nets"]] == [[[1, 2]]]


def test_solve_too_close_to_carry_back_is_stuck():
    # alpha**2 overflows when the classes are carried back onto the points.
    code, text = cli.run(["solve", "--points", "1e-300,2e-300"])
    assert code == 1
    assert json.loads(text)["kind"] == "PathStuck"


@pytest.mark.parametrize("points", [
    "-1e308,1e308",     # the gap overflows
    "-5e-324,5e-324",   # the map into the build interval overflows
    "1e-150,2e-150,3e-150,4e-150",  # the polish's row weights underflow
])
def test_extreme_valid_points_fail_without_a_warning(points):
    # The suite turns a RuntimeWarning into an error.
    for cmd in (["solve"], ["net"], ["verify"], ["bethe"],
                ["equilibrium", "--m", "1"]):
        code, text = cli.run([*cmd, "--points=" + points])
        assert code in (0, 1), (cmd, text)


@st.composite
def affine_point_sets(draw):
    """beta + alpha u for n in {2, 4, 6} points u 1e-3 to 1 apart, with
    |alpha| in [1e-8, 1e8] and |beta| <= 1e8."""
    n = draw(st.sampled_from([2, 4, 6]))
    u = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=n,
                                max_size=n)))
    alpha = draw(st.sampled_from([-1.0, 1.0])) \
        * 10.0 ** draw(st.floats(-8.0, 8.0))
    beta = draw(st.floats(-1e8, 1e8))
    return [beta + alpha * float(t) for t in u]


@given(affine_point_sets())
# a packed-right layout of the solve-clustered benchmark at d=5
@example([-3.288655, -3.287983, 4.480525, 4.48079, 4.773124, 4.773329,
          4.999556, 5.000444])
# residues at a pair 2e-12 apart are far off; s comes from the degrees
@example([1.0, 1.000000000002])
@settings(max_examples=60, deadline=None, derandomize=True)
def test_valid_points_never_exit_2(points):
    """Points that distinct_points accepts are valid input: every command
    exits 0, or 1 for a numerical failure, and never 2."""
    try:
        tracker.distinct_points(points)
    except InvalidInput:
        return
    arg = "--points=" + ",".join(map(repr, points))
    for cmd in (["solve"], ["net"], ["verify"], ["bethe"],
                ["equilibrium", "--m", "1"]):
        code, text = cli.run([*cmd, arg])
        assert code in (0, 1), (cmd, text)
        if cmd == ["solve"] and code == 0:
            # every class has the degree pair (d - 1, d)
            assert {cls["s"] for cls in json.loads(text)["classes"]} == {1}


def test_points_echoed_at_full_precision():
    # 12 significant digits would print both points as 1.0
    for cmd, key in (("solve", "points"), ("bethe", "a")):
        code, text = cli.run([cmd, "--points=1,1.000000000002"])
        assert code == 0, text
        assert json.loads(text)[key] == [1.0, 1.000000000002]


def test_verify_command():
    code, out = run_cli("verify", "--points", "-2,-1,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["round_trip_ok"] and doc["nets_distinct"]
    assert doc["classes"] == 2


def test_deterministic_output():
    a = run_cli("solve", "--points", "-2,-0.5,0.5,2", "--seed", "7")
    b = run_cli("solve", "--points", "-2,-0.5,0.5,2", "--seed", "7")
    assert a == b


@pytest.mark.parametrize("args", [
    ("bethe", "--points", "-2,-1,0.5,2"),
    ("equilibrium", "--points", "-2,-1,0.5,2", "--m", "2"),
    # 0 is one of the points, so the polish chart base cannot be 0
    ("solve", "--points", "-1,0,1,2"),
])
def test_starts_is_ignored(monkeypatch, args):
    bare = cli.run(list(args))
    assert bare[0] == 0
    assert cli.run([*args, "--starts", "500"]) == bare
    assert cli.run([*args, "--seed", "9"]) == bare
    monkeypatch.setenv("WRONSKI_SEED", "9")
    assert cli.run(list(args)) == bare
    doc = json.loads(bare[1])
    for cls in doc.get("classes", []):
        assert np.abs(np.array(doc["points"]) - cls["chart_base"]).min() \
            >= 1e-2


def test_single_point():
    code, out = run_cli("bethe", "--points", "0.5")
    assert code == 0
    assert out == '{"a":[0.5],"command":"bethe","solutions":[{"degrees":' \
        '[2,0],"qstar":0.0,"s":2,"x":[0.0]}]}\n'
    code, _ = run_cli("equilibrium", "--points", "0.5", "--m", "0")
    assert code == 0


@pytest.mark.parametrize("args", [
    ("count", "--d", "3", "--json", "{}/x.json"),
    ("net", "--points", "-1,1", "--svg", "{}/x.svg"),
    ("net", "--points", "-1,1", "--csv", "{}/x.csv"),
])
def test_unwritable_output_path_exit2(tmp_path, args):
    missing = tmp_path / "missing"
    code, text = cli.run([a.format(missing) for a in args])
    assert code == 2
    doc = json.loads(text)
    assert doc["kind"] == "InvalidInput" and "cannot write" in doc["error"]
    assert not missing.exists()


@pytest.mark.parametrize("flag", ["--svg", "--csv"])
def test_unwritable_net_output_fails_before_solving(tmp_path, monkeypatch,
                                                    flag):
    def solve_all(*args, **kwargs):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(tracker, "solve_all", solve_all)
    code, text = cli.run(["net", "--points", "-2,-1,1,2", flag,
                          str(tmp_path / "missing" / f"x.{flag[2:]}")])
    assert code == 2
    assert "cannot write" in json.loads(text)["error"]


def test_verify_checks_nets_against_ballots(monkeypatch):
    code, text = cli.run(["verify", "--points", "-2,-1,1,2"])
    assert code == 0
    doc = json.loads(text)
    assert doc["nets_match_ballot"] and doc["ok"]
    # A labelling that swaps the two words' nets must fail the check.
    swapped = {"1122": "1212", "1212": "1122"}
    predict = nets.net_from_ballot
    monkeypatch.setattr(nets, "net_from_ballot",
                        lambda w, pts: predict(swapped[w], pts))
    doc = json.loads(cli.run(["verify", "--points", "-2,-1,1,2"])[1])
    assert not doc["nets_match_ballot"] and not doc["ok"]


def test_json_file_output(tmp_path):
    path = tmp_path / "out.json"
    code, out = run_cli("count", "--d", "3", "--json", str(path))
    assert code == 0
    assert path.read_text() == out


def test_jobs_flag():
    code, out = run_cli("solve", "--points", "-2,-1,1,2", "--jobs", "2")
    assert code == 2
    assert json.loads(out)["kind"] == "InvalidInput"


@pytest.mark.parametrize("args", [
    ("count", "--d", "3"),
    ("kostka", "--content", "2,2"),
    ("solve", "--points", "-1,1"),
    ("bethe", "--points", "-1,1", "--starts", "500"),
    ("equilibrium", "--points", "-1,1", "--m", "0"),
    ("net", "--points", "-1,1"),
    ("verify", "--points", "-1,1"),
    ("solve", "--points", "-1,-1"),
])
def test_schema_validates_every_command(args):
    _, out = run_cli(*args)
    jsonschema.validate(json.loads(out), SCHEMA)


def test_run_in_process():
    code, text = cli.run(["count", "--d", "5"])
    assert code == 0 and json.loads(text)["u"] == 14


NUMERICAL_KINDS = {"PathStuck", "CountMismatch", "TraceLost",
                   "ChartDegenerate", "NotASolution"}


def _raiser(error):
    def raise_error():
        raise error("boom")
    return raise_error


# Every input error the library raised under its own class before they all
# became InvalidInput, by that class's name, with a call that raises it.
INPUT_ERRORS = {
    "Collision": lambda: electro.equilibrium_residual(
        ChargeConfig([-1, 1], [1 + 1e-14j])),
    "DegeneratePair": lambda: fuchs.ode_from_pair(
        (np.array([0.0, 1.0]), np.array([0.0, 2.0]))),
    "DuplicatePoints": lambda: fuchs.bethe_residual([1, 1], [1, 1]),
    "IndexOutOfRange": lambda: nets.degree_drop_edge(
        nets.net_from_ballot("1212", (-2, -1, 1, 2)), 4),
    "InvalidBallot": lambda: combinat.ballot_to_matching("2211"),
    "InvalidContent": lambda: combinat.kostka((1, 1, 1), 3),
    "LengthMismatch": lambda: fuchs.bethe_residual([1, 1, 1], [-1, 1]),
    "NegativeParameter": lambda: tracker.apply_F(
        1, -1.0, tracker.initial_pair(3)),
    "NonRealInput": lambda: nets.trace_net([tracker.PairClass(
        q1=np.array([1j, 1]), q2=np.array([1, 0, 1], dtype=complex),
        chart=tracker.Chart(0.0, 2), ballot="")], [-1, 1])[0],
    "NonzeroResidue": lambda: electro.second_solution([-1.0, 0.0, 1.0],
                                                      [-0.5, 1.0]),
    "NotPermitted": lambda: tracker.apply_F(2, 0.1,
                                            tracker.initial_pair(3)),
    "SharedRoot": lambda: electro.second_solution([-1.0, 0.0, 1.0],
                                                  [-1.0, 1.0]),
    "ZeroPolynomial": lambda: poly.roots([0.0, 0.0]),
}
ERROR_CASES = {cls.__name__: _raiser(cls)
               for cls in WronskiError.__subclasses__()}
ERROR_CASES.update(INPUT_ERRORS)


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_exit_code_from_error_class(monkeypatch, name):
    with pytest.raises(WronskiError) as info:
        ERROR_CASES[name]()
    kind = type(info.value).__name__
    assert kind == ("InvalidInput" if name in INPUT_ERRORS else name)

    monkeypatch.setattr(tracker, "solve_all",
                        lambda *args, **kwargs: ERROR_CASES[name]())
    code, text = cli.run(["solve", "--points", "-1,1"])
    assert code == (1 if kind in NUMERICAL_KINDS else 2)
    assert json.loads(text) == {"error": str(info.value), "kind": kind}
