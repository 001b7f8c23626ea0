"""One pass of a workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this once per pass, so every pass pays the import of
``springerloc`` and fills the ``symgroup`` caches from empty, as every
``springerloc`` invocation does.  The pass receives only the code path and
the shapes, runs them one after another, checks each result against the
golden reference, and reports:

* ``raw_setup_s`` — from ``--t0`` (the parent's clock reading just before
  it started this process) to the first shape call: interpreter start,
  import, shape list;
* ``raw_wall_s`` — wall time over all shapes, golden checks included, less
  the time of the speed probe;
* without ``--trace``: ``setup_s``, ``wall_s`` and ``cpu_s`` (process CPU
  time over the same interval), scaled to the reference machine speed by
  ``speed.py``, whose probe runs during the shapes; ``snippet_s``, the
  probe's time;
* ``peak_rss_mb`` — ``ru_maxrss`` of this process at the end;
* ``attempted`` and ``failures`` (one line per failed shape);
* with ``--trace SPANS``: ``layers``, the per-layer metrics of
  ``tracing.py``; the spans are written to the file ``SPANS``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from contextlib import nullcontext

from speed import SpeedProbe
from workloads import (SRC, encode_character, encode_report, load_golden,
                       oracle_view)


def no_span(_name):
    return nullcontext()


def check_springer(shape, expected, span, modules) -> str | None:
    springer, cli = modules
    with span("springer.compute"):
        rep = springer.springer_compute(shape)
    failed = [name for name, ok in rep.certificates + rep.conventions
              if not ok]
    if failed:
        return f"failed {', '.join(failed)}"
    with span("cli.envelope"):
        back = cli.report_from_json(cli.report_to_json(rep))
    got = encode_report(rep)
    if encode_report(back) != got:
        return "changed by the JSON envelope round trip"
    if got != expected:
        return "differs from the golden result"
    return None


def check_oracle(shape, expected, span, modules) -> str | None:
    springer, gporacle = modules
    char = gporacle.gp_graded_character(shape)
    with span("springer.equivariance"):
        equivariant = springer.equivariance_check(shape).passed
    if not equivariant:
        return "failed the equivariance check"
    if encode_character(char) != oracle_view(expected):
        return "differs from the golden result"
    return None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--path", choices=("springer", "oracle"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", metavar="SPANS",
                        help="trace the pass; write its spans to SPANS")
    parser.add_argument("shapes", nargs="+")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from springerloc import cli, gporacle, springer
    from springerloc.symgroup import Partition

    shapes = [Partition.from_string(s) for s in args.shapes]
    setup_s = time.perf_counter() - args.t0

    golden = load_golden()
    if args.path == "springer":
        check, modules = check_springer, (springer, cli)
    else:
        check, modules = check_oracle, (springer, gporacle)
    tracer = probe = None
    span = no_span
    if args.trace:
        from tracing import Tracer, install, layer_metrics
        tracer = Tracer()
        install(tracer)
        span = tracer.span
        tracemalloc.start()
    else:
        probe = SpeedProbe()
        probe.start()
    peak = 0

    failures = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for i, shape in enumerate(shapes):
        key = shape.to_string()
        if tracer is not None:
            tracer.shape = i
            tracemalloc.reset_peak()
        try:
            problem = check(shape, golden.get(key), span, modules)
        except Exception as exc:  # a shape that raises is a failed shape
            problem = f"raised {type(exc).__name__}: {exc}"
        if tracer is not None:
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        if problem:
            failures.append(f"{key}: {problem}")
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if probe is not None:
        probe.stop()
        wall_s -= probe.total_s
        cpu_s -= probe.total_s

    out = {
        "raw_setup_s": setup_s,
        "raw_wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": len(shapes),
        "failures": failures,
    }
    if probe is not None:
        out.update(setup_s=probe.scale(setup_s), wall_s=probe.scale(wall_s),
                   cpu_s=probe.scale(cpu_s), snippet_s=probe.snippet_s)
    if tracer is not None:
        tracemalloc.stop()
        out["layers"] = layer_metrics(tracer, peak / 2**20)
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump({"shapes": args.shapes,
                       "fields": ["name", "start", "end", "parent", "shape"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
