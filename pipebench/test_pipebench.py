"""Self-test of the pipeline benchmark at tiny scale.

Run from the repository root::

    python3 -m pytest -q pipebench

Each workload runs once untraced and once traced. Every metric
``BENCHMARK.json`` names must be present with its unit, and the output
checks must pass. The checks themselves are shown to catch a wrong
plan and a wrong read.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )


def tree_state() -> dict:
    """Every file outside the benchmark's output and bytecode caches."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", ".out", "__pycache__")]
        for name in filenames:
            path = Path(dirpath, name)
            st = path.stat()
            state[str(path.relative_to(ROOT))] = (st.st_size, st.st_mtime_ns)
    return state


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    before = tree_state()
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0.01", "--trace", str(trace),
                     "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    assert tree_state() == before, "the run wrote outside pipebench/.out"


def test_bare_directory_exits_nonzero(tmp_path):
    """Without the program's sources the benchmark fails and prints no
    result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def ladders():
    wl = workloads.make("table7", workloads.TINY, 5, HERE / ".out" / "t")
    wl.setup()
    return wl, wl.run(0.0)


def test_hybrid_check_catches_a_wrong_plan(ladders):
    wl, done = ladders
    assert wl.check(done) == []
    lad = done[0]
    lad.choice = dataclasses.replace(lad.choice, cr=lad.choice.cr * 1.01)
    assert len(wl.check(done)) == 1


def test_convert_check_catches_a_wrong_read(tmp_path):
    wl = workloads.make("convert", workloads.TINY, 5, tmp_path / "work")
    wl.setup()
    try:
        units = wl.run(0.0)
        assert wl.check(units) == []
        next(u for u in units if u.key).digest = "corrupt"
        assert len(wl.check(units)) == 1
    finally:
        wl.cleanup()
