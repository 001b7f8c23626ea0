"""The springerloc benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload echelon|regular|oracle --seed N \\
        --seconds S --trace 0|1

Each workload is a closed loop: one client, one process, one thread, running
the workload's shapes one after another in the order the seed fixes.  Every
pass starts a fresh interpreter (``one_pass.py``), because every
``springerloc`` invocation pays its imports and fills its caches from empty.

``--trace 0`` runs whole passes as long as the next one is expected to end
within ``--seconds``, and at least one.  It reports the end-to-end metrics:
the medians over the passes of ``setup_s``, ``wall_s`` and ``cpu_s`` (each
scaled to the reference machine speed, see ``speed.py``) and
``peak_rss_mb``, and ``certified_frac``, the share of attempted shapes whose
result was certified and equal to the golden reference.  The raw times of
every pass go to stderr.

``--trace 1`` runs one plain pass and one traced pass, and reports the
per-layer metrics of the traced pass (see ``tracing.py``) plus
``trace.overhead_frac``, the traced pass's wall time over the plain one's,
less one.  Its spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every shape passed, 1 when one failed, and 2, with no result printed,
when the benchmark cannot run at all (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from workloads import HERE, WORKLOADS, shape_order

# A run must end within 180 s; no single interpreter may outlast this.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark could not run (not a failed shape)."""


def run_pass(path: str, shapes: list[str], deadline: float,
             *flags: str) -> dict:
    """One fresh interpreter running ``one_pass.py``; its JSON result."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--path", path,
           "--t0", repr(t0), *flags, *shapes]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("a pass ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"a pass exited with {proc.returncode}:\n"
                             f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


def end_to_end(path: str, shapes: list[str], seconds: float,
               deadline: float) -> tuple[dict, list[dict]]:
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        result = run_pass(path, shapes, deadline)
        passes.append(result)
        log(f"pass {len(passes)}: wall {result['wall_s']:.3f} s, "
            f"cpu {result['cpu_s']:.3f} s at reference speed; raw wall "
            f"{result['raw_wall_s']:.3f} s, snippet "
            f"{result['snippet_s'] * 1e6:.0f} us, setup "
            f"{result['raw_setup_s']:.3f} s; "
            f"failures {len(result['failures'])}")
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    def median(key: str) -> float:
        return statistics.median(p[key] for p in passes)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (median("setup_s"), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "certified_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, passes


def per_layer(path: str, shapes: list[str], workload: str, seed: int,
              deadline: float) -> tuple[dict, list[dict]]:
    plain = run_pass(path, shapes, deadline)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-{seed}.json"
    traced = run_pass(path, shapes, deadline, "--trace", str(spans))
    log(f"plain wall {plain['raw_wall_s']:.3f} s, traced wall "
        f"{traced['raw_wall_s']:.3f} s; spans in {spans}")
    metrics = {name: tuple(pair) for name, pair in traced["layers"].items()}
    metrics["trace.overhead_frac"] = (
        traced["raw_wall_s"] / plain["raw_wall_s"] - 1.0, "ratio")
    return metrics, [plain, traced]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.perf_counter() + DEADLINE_S
    path = WORKLOADS[args.workload][0]
    shapes = shape_order(args.workload, args.seed)
    log(f"workload {args.workload} ({path}), seed {args.seed}: "
        f"{' '.join(shapes)}")
    try:
        if args.trace:
            metrics, passes = per_layer(path, shapes, args.workload,
                                        args.seed, deadline)
        else:
            metrics, passes = end_to_end(path, shapes, args.seconds,
                                         deadline)
    except BenchmarkError as exc:
        log(f"benchmark error: {exc}")
        return 2

    failures = [f for p in passes for f in p["failures"]]
    for failure in failures:
        log(f"FAILED {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
