import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rslab
from rslab import cli, constructions, graphs, patterns
from rslab.cli import main
from rslab.graphs import from_graph6
from rslab.patterns import PatternSpec


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


def test_construct_double_star_past_float_range_exits_2(capsys):
    code = main(["construct", "double-star", "--n", "10", "--t", "1" + "0" * 400, "--s", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


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


def test_broom_saturated_refuses_a_remainder_past_the_census_before_any_census(
        monkeypatch, capsys):
    # n = 21, m = 2 leaves r = 21 mod 12 = 9 vertices, more than a prsat
    # census takes; the refusal names the n the user asked for.
    asked = []
    monkeypatch.setattr(constructions.oracle, "prsat_number", lambda *a, **k: asked.append(a))
    code = main(["construct", "broom-saturated", "--n", "21", "--m", "2"])
    err = capsys.readouterr().err
    assert code == 2 and asked == []
    assert all(part in err for part in ("n=21", "m=2", "r=9")) and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["star-forest", "--n", "100000000000", "--k", "4"],
    ["folded-cube", "--ell", "40"],
    ["caterpillar", "--n", "5", "--k", "20000", "--ell", "15000"],
])
def test_construction_graph6_cannot_write_exits_2_before_building(monkeypatch, capsys, argv):
    def built(*args):
        raise AssertionError("a graph was built past the graph6 bound")

    monkeypatch.setattr(constructions, "build_graph", built)
    monkeypatch.setattr(constructions, "disjoint_union", built)
    code = main(["construct", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "258047" in err and "Traceback" not in err


def test_pattern_graph6_cannot_write_exits_2_before_building(monkeypatch, capsys):
    def built(*args):
        raise AssertionError("a pattern was built past the graph6 bound")

    monkeypatch.setattr(patterns, "build_graph", built)
    code = main(["oracle", "--n", "5", "--pattern", "P99999999999999999999", "--quantity", "sat"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "258047" in err and "Traceback" not in err


@pytest.mark.parametrize("mode", ["sat", "ssat"])
def test_json_graph_past_the_graph6_bound_exits_2_before_building(
        tmp_path, monkeypatch, capsys, mode):
    def built(*args):
        raise AssertionError("a graph was built past the graph6 bound")

    monkeypatch.setattr(graphs, "build_graph", built)
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000000000, "edges": []}')
    code = main(["verify", str(path), "--pattern", "T5star", "--mode", mode])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "258047" in err and "Traceback" not in err


@pytest.mark.parametrize("token, field", [
    ("cat:ell=x;leaves=1", "ell"),
    ("cat:leaves=1,x", "leaves"),
    ("cat:ell=;leaves=1", "ell"),
])
def test_caterpillar_token_with_a_non_integer_field_exits_2(capsys, token, field):
    code = main(["oracle", "--n", "5", "--quantity", "sat", "--pattern", token])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and repr(field) in err and "Traceback" not in err


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
    path.write_text(PatternSpec.path(7).graph.to_graph6() + "\n")
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
    assert json.loads(out) == {"status": "established", "certificate": None,
                               "nodes_explored": 0, "budget": None}


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
    good.write_text(PatternSpec.path(3).graph.to_graph6())
    if where == "graph":
        argv = ["verify", str(path), "--pattern", "P3"]
    else:
        argv = ["verify", str(good), "--pattern", f"@{path}"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(PatternSpec.path(3).graph.to_graph6()))
    code, out = run(capsys, "verify", "-", "--pattern", "P3", "--mode", "sat",
                    "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "refuted"


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


@pytest.mark.parametrize("where", ["file", "under-file", "file-is-dir", "env"])
def test_unusable_cache_exits_2(tmp_path, monkeypatch, capsys, where):
    # a cache dir that is a file, lies under a file, or holds a directory
    # in place of its cache file is a bad input, named in the message
    (tmp_path / "F").write_text("")
    (tmp_path / "D" / "census-sat.jsonl").mkdir(parents=True)
    cache, bad = {"file": ("F", "F"), "under-file": ("F/sub", "F/sub"),
                  "file-is-dir": ("D", "D/census-sat.jsonl"), "env": (None, "F")}[where]
    argv = ["oracle", "--quantity", "sat", "--n", "5", "--pattern", "P4"]
    if cache is None:
        monkeypatch.setenv("RSLAB_CACHE", str(tmp_path / "F"))
    else:
        argv += ["--cache-dir", str(tmp_path / cache)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(tmp_path / bad) in err and "Traceback" not in err


@pytest.mark.parametrize("quantity", ["sat", "ssat", "prsat"])
def test_a_pattern_larger_than_every_host_compiles_no_matcher(capsys, quantity):
    # P2000 fits in no graph on 5 vertices, so only K5, with no non-edge,
    # qualifies; compiling its matcher would take minutes
    code, out = run(capsys, "oracle", "--n", "5", "--pattern", "P2000",
                    "--quantity", quantity, "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 10


def test_oracle_prsat_json(capsys):
    code, out = run(capsys, "oracle", "--n", "5", "--pattern", "P4",
                    "--quantity", "prsat", "--budget", "1000000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4 and data["exact"] is True


def test_reproduce_lemma4_checks_both_ells(capsys):
    code, out = run(capsys, "reproduce", "lemma4")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "K4 is properly rainbow P4" in out and "F4 is properly rainbow P5" in out
    code = main(["reproduce", "lemma4", "--ell", "4"])
    assert code == 2 and "--ell" in capsys.readouterr().err


def test_reproduce_json_output(capsys):
    code, out = run(capsys, "reproduce", "lemma4", "--format", "json")
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


# The fuzz test draws a command line of valid values, then perhaps puts a
# malformed token in place of one of them.  Half the patterns it draws are
# malformed, the caterpillar tokens with a non-integer field among them.
# Census orders stop at 7 and the reproduce suites at the quick ones, so
# that each call takes well under two seconds.
_INT = st.integers(min_value=-2, max_value=12).map(str)
_FORMAT = st.sampled_from(["text", "json"])
_QUANTITY = st.sampled_from(["sat", "ssat", "prsat"])
_CACHE = st.just("{root}/cache")
_PATTERN = st.sampled_from(["P3", "P4", "P6", "K1,3", "T5star", "S3,2", "B4,1",
                            "cat:ell=4;leaves=1,0,0,1"]) | st.sampled_from(
    ["Q17", "g6:~~", "@no-such-file", "cat:ell=x;leaves=1", "cat:leaves=1,x",
     "cat:ell=;leaves=1"])
# For each subcommand: its positional argument, its required options and
# its other options, each with the values drawn for it (None for a flag).
_COMMANDS = {
    "construct": (st.sampled_from(sorted(cli._FAMILIES)), {}, {
        **{f"--{p}": _INT for p in ("n", "k", "m", "t", "s", "ell")},
        "--variant": st.sampled_from(["sat", "prsat"]), "--cache-dir": _CACHE,
        "--format": _FORMAT | st.sampled_from(["graph6", "dot"])}),
    "verify": (st.sampled_from(["{root}/p4.g6", "{root}/forest.json", "{root}/garbage.txt"]),
               {"--pattern": _PATTERN},
               {"--mode": _QUANTITY, "--budget": _INT, "--format": _FORMAT}),
    "oracle": (None, {"--n": st.integers(min_value=-2, max_value=7).map(str),
                      "--pattern": _PATTERN, "--quantity": _QUANTITY},
               {"--budget": _INT, "--edge-cap": _INT, "--cache-dir": _CACHE, "--force": None,
                "--format": _FORMAT}),
    "reproduce": (st.sampled_from(["formulas", "lemma4"]), {},
                  {"--budget": _INT, "--cache-dir": _CACHE,
                   "--allow-unknown": None, "--format": _FORMAT}),
}


@given(st.data())
@settings(max_examples=100, derandomize=True, deadline=2000)
def test_cli_fuzz_exits_with_a_code_and_no_exception(tmp_path_factory, data):
    root = tmp_path_factory.getbasetemp() / "cli-fuzz"
    if not root.exists():
        root.mkdir()
        (root / "p4.g6").write_text("Ch")
        (root / "forest.json").write_text('{"n": 6, "edges": [[0, 1], [0, 2], [3, 4], [3, 5]]}')
        (root / "garbage.txt").write_text("%%%")
    name = data.draw(st.sampled_from(sorted(_COMMANDS)))
    positional, required, optional = _COMMANDS[name]
    options = {**required, **optional}
    argv = [name] + ([data.draw(positional)] if positional is not None else [])
    for option in [*required, *data.draw(st.lists(st.sampled_from(sorted(optional)),
                                                  unique=True))]:
        argv += [option] if options[option] is None else [option, data.draw(options[option])]
    at = data.draw(st.integers(min_value=1, max_value=3 * len(argv)))
    if at < len(argv):  # one token malformed, or none
        argv[at] = data.draw(st.sampled_from(["", "x", "1.5", "-", "--", "--n"]))
    argv = [a.replace("{root}", str(root)) for a in argv]
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.delenv("RSLAB_CACHE", raising=False)
        mp.setattr("sys.stdin", io.StringIO(""))
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
