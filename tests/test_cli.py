import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from wronski import cli, tracker
from wronski.errors import WronskiError

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
    assert "distinct" in json.loads(out)["error"]


def test_invalid_command_exit2():
    code, _ = run_cli("frobnicate")
    assert code == 2


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
    assert json.loads(text)["error"] == "points must be finite"


def test_equilibrium_bad_m_exit2():
    code, _ = run_cli("equilibrium", "--points", "-1,1", "--m", "5")
    assert code == 2


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


def test_json_file_output(tmp_path):
    path = tmp_path / "out.json"
    code, out = run_cli("count", "--d", "3", "--json", str(path))
    assert code == 0
    assert path.read_text() == out


def test_jobs_flag():
    code, out = run_cli("solve", "--points", "-2,-1,1,2", "--jobs", "2")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 2


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
                   "ChartDegenerate", "MultipleRoot", "NotASolution"}


@pytest.mark.parametrize("error", sorted(WronskiError.__subclasses__(),
                                         key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_exit_code_from_error_class(monkeypatch, error):
    def solve_all(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(tracker, "solve_all", solve_all)
    code, text = cli.run(["solve", "--points", "-1,1"])
    assert code == (1 if error.__name__ in NUMERICAL_KINDS else 2)
    assert json.loads(text) == {"error": "boom", "kind": error.__name__}
