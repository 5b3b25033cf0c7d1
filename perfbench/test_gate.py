"""The benchmark's gate: a wrong answer fails the run, and a checkout without
the program's sources gives no result.

Run from the root of a checkout (about 20 s):

    python3 -m pytest perfbench/test_gate.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns("__pycache__")


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=SKIP)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=SKIP)
    return tmp_path


def _run(cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_tampered_reference_fails_the_run(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    path = root / "perfbench" / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8"))
    ref["census"]["prsat(7,P4)"]["value"] = 4
    # Same value and count, another class: only the isomorphism check sees it.
    ref["census"]["sat(9,S3,2)"]["witnesses"] = ref["census"]["sat(9,P6)"]["witnesses"]
    path.write_text(json.dumps(ref), encoding="utf-8")

    p = _run(root)

    assert p.returncode == 1, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["metrics"] == {}
    assert "WRONG: cold prsat(7,P4)" in p.stdout
    assert "WRONG: cold sat(9,S3,2): witnesses are not the reference classes" in p.stdout


def test_without_sources_prints_no_result(tmp_path):
    p = _run(_checkout(tmp_path, with_sources=False))

    assert p.returncode == 2
    assert p.stdout == ""
    assert "cannot import rslab" in p.stderr
