"""Steadiness report: how much each end-to-end metric moves between runs.

Runs ``run.py`` once per seed (1, 2, ...) on each workload, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and gives per workload and metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, next to the metric's bound.  The bounds in
``BENCHMARK.json`` are set from this report: every spread should stay below
a third of its bound.

Usage, from the repository root::

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]
        [--out FILE]

The report is printed and, with ``--out``, also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import HERE

ROOT = HERE.parent


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict[str, dict] = {}
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {name: summarize(v) for name, v in values.items()}
        print(f"{workload} ({args.runs} runs)")
        for name, s in report[workload].items():
            ok = s["spread"] < bounds[name] / 3
            steady &= ok
            print(f"  {name:15s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}"
                  f"  q3 {s['q3']:10.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}  {'ok' if ok else 'WIDE'}",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
