"""Selected benchmarks run end-to-end at tiny scale inside tier-1.

The ``REPRO_*`` scale knobs shrink each benchmark from minutes to
seconds — small enough to smoke-test the whole gate (timings, metrics,
tables, the ``BENCH_*.json`` record) on every test run, so a benchmark
cannot rot between baseline refreshes.  ``REPRO_RESULTS_DIR`` and
``REPRO_BENCH_DIR`` point at ``tmp_path`` so a tiny run never clobbers
the committed bench-scale artifacts.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TINY = {
    "REPRO_NE": "3",
    "REPRO_NLEV": "4",
    "REPRO_MEMBERS": "21",
    "REPRO_WORKERS": "2",
}


def test_stream_throughput_bench_smokes(tmp_path):
    env = dict(os.environ, **TINY)
    env["PYTHONPATH"] = str(REPO / "src")
    # Keep the tiny run's record and history out of the real gate data.
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_BENCH_HISTORY"] = str(tmp_path / "history")
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "benchmarks" / "bench_stream_throughput.py")],
        cwd=REPO / "benchmarks", env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"benchmark smoke failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
    record = tmp_path / "BENCH_stream_throughput.json"
    assert record.exists(), "tiny run wrote no bench record"
    for name in ("stream_throughput.txt", "stream_throughput.csv",
                 "stream_rss.txt", "stream_transfer.txt"):
        assert (tmp_path / "results" / name).exists(), \
            f"tiny run rendered no {name}"


def test_codec_zoo_bench_smokes(tmp_path):
    env = dict(os.environ, **TINY)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_BENCH_HISTORY"] = str(tmp_path / "history")
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    env["REPRO_SKIP_BIAS"] = "1"  # the 101-member regression is not tiny
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "benchmarks" / "bench_codec_zoo.py")],
        cwd=REPO / "benchmarks", env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"benchmark smoke failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
    assert (tmp_path / "BENCH_codec_zoo.json").exists(), \
        "tiny run wrote no bench record"
    assert (tmp_path / "results" / "table7_codec_zoo.txt").exists(), \
        "tiny run rendered no extended Table 7"


def test_obs_overhead_bench_smokes(tmp_path):
    env = dict(os.environ, **TINY)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_BENCH_DIR"] = str(tmp_path)
    env["REPRO_BENCH_HISTORY"] = str(tmp_path / "history")
    env["REPRO_RESULTS_DIR"] = str(tmp_path / "results")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(REPO / "benchmarks" / "bench_obs_overhead.py")],
        cwd=REPO / "benchmarks", env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (
        f"benchmark smoke failed\n--- stdout ---\n{proc.stdout}"
        f"\n--- stderr ---\n{proc.stderr}"
    )
    record = tmp_path / "BENCH_obs_overhead.json"
    assert record.exists(), "tiny run wrote no bench record"
    assert (tmp_path / "results" / "obs_overhead.txt").exists(), \
        "tiny run rendered no overhead table"
