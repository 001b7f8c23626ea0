"""The benchmark's own tests: smoke runs on n <= 3 shapes of every code path,
golden tampering, metric names, repeatable counts, refusal without src, and
the machine-speed probe.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "perfbench"))

import speed  # noqa: E402


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def copy_benchmark(dest):
    """``BENCHMARK.json`` and the files under its paths, without outputs."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, dest / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))


def names(section):
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", ["smoke", "smoke-oracle"])
def test_smoke_end_to_end(workload):
    code, result = run(workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert result["metrics"]["certified_frac"]["value"] == 1.0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        names("end_to_end")


@pytest.mark.parametrize("workload", ["smoke", "smoke-oracle"])
def test_smoke_traced(workload):
    code, result = run(workload, 1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        names("per_layer")
    if workload == "smoke":
        # (2,1) takes the echelon path and (1,1,1) the syzygy-free one.
        assert metrics["exactalg.echelon_insert_calls"] > 0
        assert metrics["straighten.nf_calls"] > 0
        assert metrics["locengine.product_rows"] > 0
        assert metrics["gporacle.ideal_rows"] == 0
    else:
        assert metrics["gporacle.ideal_rows"] > 0
        assert metrics["flagmodel.generators"] > 0
        assert metrics["locengine.product_rows"] == 0
        assert metrics["straighten.nf_calls"] == 0


def test_counts_repeat_exactly():
    first, second = run("smoke", 1)[1], run("smoke", 1)[1]
    counts = [k for k, v in first["metrics"].items()
              if v["unit"] in ("count", "ratio") and k != "trace.overhead_frac"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_tampered_golden_fails(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    tampered = tmp_path / "perfbench" / "golden.json"
    golden = json.loads(tampered.read_text())
    golden["shapes"]["2,1"]["character"][1][0] = "3"
    tampered.write_text(json.dumps(golden))
    code, result = run("smoke", 0, cwd=tmp_path)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["certified_frac"]["value"] < 1.0


def test_refuses_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    code, result = run("echelon", 0, cwd=tmp_path)
    assert code != 0
    assert result is None


def test_speed_probe_samples_and_scales():
    probe = speed.SpeedProbe()
    probe.start()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        pass
    probe.stop()
    # About six timer ticks in 0.3 s, topped up to the minimum after stop.
    assert len(probe.samples) >= speed.MIN_SAMPLES
    assert 0 < probe.total_s < 0.3
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert probe.scale(2.0) == pytest.approx(2 * probe.scale(1.0))
    assert probe.scale(1.0) == pytest.approx(
        speed.REFERENCE_S / probe.snippet_s)
