"""Time the engine and the Tanisaki oracle on partitions of 6.

Usage::

    python3 tools/n6_times.py [SHAPE ...]

``SHAPE`` is a partition of 6 written as comma-separated parts, e.g.
``2,1,1,1,1``; the default is all eleven.  For each shape it runs
``springer_compute`` and ``gp_graded_character``, each in a fresh interpreter
on the ``src/`` beside this script, and prints one JSON line per shape: the
engine's total and stage seconds, the oracle's seconds, and each run's max
RSS in MB from ``resource.getrusage``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter: argv[1] is "engine" or "oracle", argv[2] a shape
CHILD = """
import json, resource, sys, time
from springerloc.gporacle import gp_graded_character
from springerloc.springer import springer_compute
from springerloc.symgroup import Partition
job, shape = sys.argv[1], Partition.from_string(sys.argv[2])
t0 = time.perf_counter()
out = {}
if job == "engine":
    out["stages_s"] = {name: round(ms / 1000, 3)
                       for name, ms in springer_compute(shape).timings_ms}
else:
    gp_graded_character(shape)
out["total_s"] = round(time.perf_counter() - t0, 3)
out["max_rss_mb"] = round(
    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
print(json.dumps(out))
"""


def timed(job: str, shape: str) -> dict:
    """One run of ``job`` on ``shape`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, job, shape], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{job} on {shape} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from springerloc.symgroup import Partition, partitions_of

    shapes = ([Partition.from_string(s) for s in sys.argv[1:]]
              or partitions_of(6))
    for lam in shapes:
        if lam.n != 6:
            raise SystemExit(f"{lam.to_string()} is not a partition of 6")
        shape = lam.to_string()
        print(json.dumps({"shape": shape, "engine": timed("engine", shape),
                          "oracle": timed("oracle", shape)}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
