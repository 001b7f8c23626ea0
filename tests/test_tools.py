"""Smoke tests of the timing script ``tools/n6_times.py``, which the n = 6
and n = 7 measurements rest on: it must run all three jobs, name the
engine's stages as the report does and hash the report as it is written,
and refuse a rank above the hard cap before it times anything.  Also
``tools/bench_pairs.py``, which must not hide a crashed benchmark run."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from springerloc.cli import report_to_json
from springerloc.springer import springer_compute
from springerloc.symgroup import Partition

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SCRIPT = TOOLS / "n6_times.py"


def n6_times(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=120)


def test_n6_times_prints_one_line_with_every_stage():
    proc = n6_times("engine", "oracle", "equivariance", "2,1")
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.splitlines()
    row = json.loads(line)
    assert list(row) == ["shape", "engine", "oracle", "equivariance"]
    assert row["shape"] == "2,1"
    rep = springer_compute(Partition([2, 1]))
    assert list(row["engine"]["stages_s"]) == [name for name, _ in
                                               rep.timings_ms]
    # the report's hash: its JSON with sorted keys, without the timings
    data = report_to_json(rep)
    del data["timings_ms"]
    assert row["engine"]["report_sha256"] == hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert all(job["total_s"] >= 0 and job["max_rss_mb"] > 0
               for job in (row["engine"], row["oracle"], row["equivariance"]))


def test_n6_times_refuses_a_rank_above_the_cap_before_timing():
    proc = n6_times("engine", "2,1", "3,3,3")
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "3,3,3 is a partition of 9, above the hard cap 8" in proc.stderr


def test_bench_pairs_reports_a_crashed_run_with_its_stderr(tmp_path):
    # run.py exits 1 on an uncaught exception and prints no result line
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "raise RuntimeError('the workload crashed')\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TOOLS / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.bench_run(tmp_path, "echelon", 1, 0.1, 0)
    message = str(exc.value.code)
    assert "perfbench/run.py --workload echelon" in message
    assert "exited 1" in message
    assert "RuntimeError: the workload crashed" in message
