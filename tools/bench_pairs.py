"""Compare two checkouts on the benchmark and write a BENCH file.

Usage::

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed N \\
        --out BENCH_<tag>.json

``DIR`` is the root of a checkout (the directory holding ``BENCHMARK.json``
and ``perfbench/``).  For each of ``PAIRS`` pairs, and each workload of the
change's ``BENCHMARK.json``, it runs ``python3 perfbench/run.py --trace 0``
for the benchmark's ``run_seconds`` once in each checkout, alternating which
side runs first.  Then it makes one ``--trace 1`` run per side and workload
for the per-layer counts.

The JSON written holds, per workload and end-to-end metric, every run of
each side with its median and quartiles, and the number of pairs the change
won (ties count for neither side); and per workload the per-layer metrics of
each side's traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# A gain is claimed only when the change wins at least 9 of 10 pairs.
PAIRS = 10


def bench_run(root: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``; its result line.  A run
    must exit 0, or 1 when some shape failed, and print its result line;
    otherwise the comparison ends with the run's command, exit code and
    stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in sides} for w in workloads}
    for i in range(PAIRS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                runs[w][side].append(bench_run(sides[side], w, args.seed,
                                               seconds, 0))
            print(f"pair {i + 1}/{PAIRS} {w} done", file=sys.stderr,
                  flush=True)

    end_to_end = {}
    for w in workloads:
        per_metric = {}
        for metric in spec["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in runs[w][side]]
                      for side in sides}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            per_metric[name] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "change_wins": wins,
                **{side: summary(values[side]) for side in sides}}
        end_to_end[w] = {
            "failed": {side: sum(r["failed"] for r in runs[w][side])
                       for side in sides},
            "attempted": {side: sum(r["attempted"] for r in runs[w][side])
                          for side in sides},
            "metrics": per_metric}

    traced = {w: {side: bench_run(sides[side], w, args.seed, seconds,
                                  1)["metrics"]
                  for side in sides}
              for w in workloads}

    args.out.write_text(json.dumps({
        "command": "python3 perfbench/run.py --workload W --seed "
                   f"{args.seed} --seconds {seconds:g} --trace 0|1",
        "pairs": PAIRS,
        "end_to_end": end_to_end,
        "traced": traced,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
