import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rslab
from rslab.cli import main
from rslab.graphs import from_graph6
from rslab.patterns import PatternSpec, realize_pattern


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_folded_cube_graph6(capsys):
    code, out = run(capsys, "construct", "folded-cube", "--ell", "5", "--format", "graph6")
    assert code == 0
    g = from_graph6(out.strip())
    assert g.n == 8
    assert set(g.degrees()) == {4}


def test_construct_broom_gadget_json(capsys):
    code, out = run(capsys, "construct", "broom-gadget", "--m", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 9
    assert len(data["edges"]) == 9
    assert len(set(data["colours"])) == 4


def test_construct_star_forest_edge_count(capsys):
    code, out = run(capsys, "construct", "star-forest", "--n", "10", "--k", "4")
    assert code == 0
    assert "8 edges" in out


def test_construct_double_star(capsys):
    code, out = run(capsys, "construct", "double-star", "--n", "10", "--t", "2",
                    "--s", "1", "--variant", "sat", "--format", "graph6")
    assert code == 0
    assert from_graph6(out.strip()).n == 10


def test_construct_caterpillar_dot(capsys):
    code, out = run(capsys, "construct", "caterpillar", "--n", "28", "--k", "6",
                    "--ell", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")


def test_construct_invalid_parameter_exits_2(capsys):
    code, _ = run(capsys, "construct", "folded-cube", "--ell", "3")
    assert code == 2


@pytest.mark.parametrize("argv, flag", [
    (["folded-cube"], "--ell"),
    (["broom-gadget"], "--m"),
    (["broom-saturated", "--n", "9"], "--m"),
    (["caterpillar", "--n", "28", "--k", "6"], "--ell"),
    (["star-forest", "--k", "4"], "--n"),
    (["double-star", "--n", "10", "--s", "1"], "--t"),
])
def test_construct_missing_parameter_exits_2(capsys, argv, flag):
    code = main(["construct", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["oracle", "--n", "5", "--pattern", "P4", "--quantity", "prsat"],
    ["verify", "-", "--pattern", "P4"],
    ["reproduce", "lemma4"],
])
def test_budget_zero_rejected_not_replaced_by_default(capsys, argv):
    code = main([*argv, "--budget", "0"])
    assert code == 2
    assert "budget must be positive" in capsys.readouterr().err


def test_negative_edge_cap_exits_2(tmp_path, capsys):
    code = main(["oracle", "--quantity", "prsat", "--n", "5", "--pattern", "P4",
                 "--edge-cap", "-1", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "edge cap must be non-negative" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_verify_star_forest_prsat(tmp_path, capsys):
    path = tmp_path / "sf.g6"
    code, out = run(capsys, "construct", "star-forest", "--n", "10", "--k", "4",
                    "--format", "graph6")
    path.write_text(out)
    code, out = run(capsys, "verify", str(path), "--pattern", "P4", "--mode", "prsat",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "established"


def test_verify_tree_refuted_exits_1(tmp_path, capsys):
    path = tmp_path / "p7.g6"
    path.write_text(realize_pattern(PatternSpec.path(7)).to_graph6() + "\n")
    code, out = run(capsys, "verify", str(path), "--pattern", "P6", "--mode", "prsat",
                    "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "refuted"


def test_verify_budget_one_exits_3(tmp_path, capsys):
    path = tmp_path / "sf.g6"
    _, out = run(capsys, "construct", "star-forest", "--n", "10", "--k", "4",
                 "--format", "graph6")
    path.write_text(out)
    code, _ = run(capsys, "verify", str(path), "--pattern", "P4", "--budget", "1")
    assert code == 3


def test_verify_sat_mode(tmp_path, capsys):
    path = tmp_path / "g.json"
    _, out = run(capsys, "construct", "double-star", "--n", "8", "--t", "1", "--s", "1",
                 "--format", "json")
    path.write_text(out)
    code, out = run(capsys, "verify", str(path), "--pattern", "P4", "--mode", "sat",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_verify_garbage_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("%%% not a graph\n")
    code, _ = run(capsys, "verify", str(path), "--pattern", "P4")
    assert code == 2


def test_unparseable_arguments_exit_2(capsys):
    assert main(["bogus-command"]) == 2


@pytest.mark.parametrize("name, content, where", [
    ("empty.txt", "", "pattern"),
    ("empty.txt", "\n  \n", "graph"),
    ("no-edges.json", '{"n": 4}', "graph"),
    ("no-edges.json", '{"n": 4}', "pattern"),
    ("bad-pair.json", '{"n": 4, "edges": [[0, 1, 2]]}', "graph"),
    ("list.json", '{"n": 4, "edges": 3}', "graph"),
    ("truncated.json", '{"n": 4, "edges": [[0, 1]', "graph"),
    ("float-end.json", '{"n": 3, "edges": [[0.5, 1]]}', "graph"),
    ("bool-n.json", '{"n": true, "edges": []}', "graph"),
    ("float-n.json", '{"n": 3.5, "edges": []}', "graph"),
    ("string-n.json", '{"n": "4", "edges": []}', "graph"),
    ("missing.g6", None, "graph"),
])
def test_bad_graph_input_exits_2(tmp_path, capsys, name, content, where):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    good = tmp_path / "p3.g6"
    good.write_text(realize_pattern(PatternSpec.path(3)).to_graph6())
    if where == "graph":
        argv = ["verify", str(path), "--pattern", "P3"]
    else:
        argv = ["verify", str(good), "--pattern", f"@{path}"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(realize_pattern(PatternSpec.path(3)).to_graph6()))
    code, out = run(capsys, "verify", "-", "--pattern", "P3", "--mode", "sat",
                    "--format", "json")
    assert code == 1
    assert json.loads(out)["holds"] is False


@pytest.mark.parametrize("argv", [
    ["verify", "-", "--pattern", "P4", "--threads", "2"],
    ["verify", "-", "--pattern", "P4", "--cache-dir", "d"],
    ["verify", "-", "--pattern", "P4", "--format", "dot"],
    ["construct", "folded-cube", "--ell", "4", "--force"],
    ["construct", "folded-cube", "--ell", "4", "--threads", "2"],
    ["oracle", "--n", "5", "--pattern", "P4", "--quantity", "sat", "--allow-unknown"],
    ["oracle", "--n", "5", "--pattern", "P4", "--quantity", "sat", "--format", "graph6"],
    ["oracle", "--n", "5", "--pattern", "P4", "--quantity", "prsat", "--threads", "2"],
    ["reproduce", "lemma4", "--force"],
    ["reproduce", "census", "--threads", "2"],
])
def test_subcommands_refuse_options_they_do_not_read(capsys, argv):
    assert main(argv) == 2


def test_import_starts_no_process_machinery():
    # A census runs in one process, so importing the package and its CLI
    # should load neither multiprocessing nor the process pool executor.
    src = str(Path(rslab.__file__).resolve().parents[1])
    code = ("import sys, rslab, rslab.cli\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith(('multiprocessing', 'concurrent.futures')))\n"
            "assert not loaded, loaded\n")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_oracle_writes_cache(tmp_path, capsys):
    code, out = run(capsys, "oracle", "--n", "5", "--pattern", "P4", "--quantity", "ssat",
                    "--cache-dir", str(tmp_path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3
    assert (tmp_path / "census-ssat.jsonl").exists()


def test_oracle_prsat_json(capsys):
    code, out = run(capsys, "oracle", "--n", "5", "--pattern", "P4",
                    "--quantity", "prsat", "--budget", "1000000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4 and data["exact"] is True


def test_reproduce_lemma4_ell4(capsys):
    code, out = run(capsys, "reproduce", "lemma4", "--ell", "4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_reproduce_json_output(capsys):
    code, out = run(capsys, "reproduce", "lemma4", "--ell", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(r["status"] == "PASS" for r in rows)


def test_construct_roundtrip_reverifies(tmp_path, capsys):
    # emit, re-parse, verify: same verdict as the library call
    _, out = run(capsys, "construct", "broom-saturated", "--n", "9", "--m", "1",
                 "--format", "graph6")
    path = tmp_path / "b.g6"
    path.write_text(out)
    code, out = run(capsys, "verify", str(path), "--pattern", "B4,1", "--mode", "prsat",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "established"
