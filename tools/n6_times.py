"""Time the engine and the Tanisaki oracle, on partitions of 6 by default.

Usage::

    python3 tools/n6_times.py [JOB ...] [SHAPE ...]

``JOB`` is ``engine`` (``springer_compute``), ``oracle``
(``gp_graded_character``) or ``equivariance`` (``equivariance_check``, the
other half of ``verify``); the default is all three.  ``SHAPE`` is a
partition of any n up to the library's hard cap, written as comma-separated
parts, e.g. ``2,1,1,1,1`` or ``3,2,1,1``; the default is all eleven
partitions of 6.  Each job runs on each shape in a fresh interpreter
on the ``src/`` beside this script, and one JSON line per shape gives each
job's seconds (and the engine's stage seconds) and max RSS in MB from
``resource.getrusage``.  The engine's line also carries ``report_sha256``,
the sha256 of its report as ``cli.report_to_json`` writes it, keys sorted
and ``timings_ms`` dropped, and the oracle's line ``character_sha256``, the
sha256 of its graded character's values as a JSON list of rows of strings,
so two checkouts can be shown to give the same report and the same oracle
character.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

JOBS = ("engine", "oracle", "equivariance")

# run in a fresh interpreter: argv[1] is one of JOBS, argv[2] a shape
CHILD = """
import hashlib, json, resource, sys, time
from springerloc.cli import report_to_json
from springerloc.gporacle import gp_graded_character
from springerloc.springer import equivariance_check, springer_compute
from springerloc.symgroup import Partition
job, shape = sys.argv[1], Partition.from_string(sys.argv[2])
t0 = time.perf_counter()
out = {}
if job == "engine":
    rep = springer_compute(shape)
    out["stages_s"] = {name: round(ms / 1000, 3)
                       for name, ms in rep.timings_ms}
    data = report_to_json(rep)
    del data["timings_ms"]
    out["report_sha256"] = hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()
elif job == "oracle":
    char = gp_graded_character(shape)
    out["character_sha256"] = hashlib.sha256(json.dumps(
        [[str(v) for v in row] for row in char.values]).encode()).hexdigest()
elif not equivariance_check(shape).passed:
    sys.exit("equivariance check failed")
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
    from springerloc.errors import MalformedInputError
    from springerloc.symgroup import HARD_MAX_N, Partition, partitions_of

    jobs = [a for a in sys.argv[1:] if a in JOBS] or JOBS
    shapes = []
    for arg in sys.argv[1:]:  # every argument is checked before any timing
        if arg not in JOBS:
            try:
                shapes.append(Partition.from_string(arg))
            except MalformedInputError as exc:
                raise SystemExit(f"{arg!r} is neither a job "
                                 f"({', '.join(JOBS)}) nor a partition: "
                                 f"{exc}") from None
    shapes = shapes or partitions_of(6)
    for lam in shapes:
        if lam.n > HARD_MAX_N:
            raise SystemExit(f"{lam.to_string()} is a partition of "
                             f"{lam.n}, above the hard cap {HARD_MAX_N}")
    for lam in shapes:
        shape = lam.to_string()
        print(json.dumps({"shape": shape,
                          **{job: timed(job, shape) for job in jobs}}),
              flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
