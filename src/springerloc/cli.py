"""Command-line interface.

Subcommands::

    springerloc compute --lambda 2,1 [--format json|csv|text] [--out FILE]
                        [--no-cache] [--max-n N]
    springerloc verify  [--n-max N] [--format json|text]
    springerloc table   --n N [--format json|csv|text] [--out FILE]
                        [--max-n N]

The degree bound is n(λ), and the input picks the engine's build.  ``--max-n``
(default 6, at least 1) cannot exceed the hard cap 8.

Exit codes: 0 success; 1 a verification or certificate failure (a structured
diagnostic naming the failing stage, and degree when known, goes to stderr),
or standard output closed by its reader (a broken pipe ends quietly);
2 malformed usage or input, including an ``--out`` path that cannot be
written; 3 a guardrail refusal.

Reports are wrapped in an envelope carrying ``schema_version``, the echoed
invocation, per-stage timings in milliseconds, and a cache flag.  A report
states each fact once, under the keys ``shape``, ``poincare``, ``character``
(``classes`` and ``values``, one row per degree), ``multiplicities``,
``certificates``, ``conventions`` and ``timings_ms``.  Rational numbers
serialize as strings ("3/2"); characters are keyed by cycle-type strings
("2,1").  Envelopes are cached under ``$SPRINGER_CACHE_DIR`` (default
``~/.cache/springerloc``) keyed by shape, release and schema version; writes
are atomic (temp file then rename), and a cache that cannot be written is
skipped.  A cache hit wraps the cached report and timings in this
invocation's envelope.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import (CertificateError, ConventionError, GuardrailError,
                     MalformedInputError, SpringerlocError, StabilityError)
from .gporacle import oracle_cross_check
from .locengine import GradedCharacter
from .springer import (HARD_MAX_N, SpringerReport, equivariance_check,
                       kostka_foulkes_table, springer_compute)
from .symgroup import Partition, partitions_of

SCHEMA_VERSION = "5"
SOFT_MAX_N = 6


# ---------------------------------------------------------------------------
# Serialization (rationals as strings, shapes and classes as "3,2,1" strings).
# ---------------------------------------------------------------------------

def report_to_json(rep: SpringerReport) -> dict:
    ch = rep.character
    return {
        "shape": rep.shape.to_string(),
        "poincare": list(rep.poincare),
        "character": {
            "classes": [ct.to_string() for ct in ch.cycle_types],
            "values": [[str(v) for v in row] for row in ch.values],
        },
        "multiplicities": [
            {mu.to_string(): m for mu, m in row} for row in rep.multiplicities
        ],
        "certificates": {name: ok for name, ok in rep.certificates},
        "conventions": {name: ok for name, ok in rep.conventions},
        "timings_ms": {name: round(ms, 3) for name, ms in rep.timings_ms},
    }


def report_from_json(data: dict) -> SpringerReport:
    """Parse ``report_to_json``; the fixed-word count, the degree bound and
    the character's degrees and dimensions are derived, not stored."""
    shape = Partition.from_string(data["shape"])
    poincare = tuple(int(c) for c in data["poincare"])
    values = tuple(tuple(Fraction(v) for v in row)
                   for row in data["character"]["values"])
    if len(values) != len(poincare):
        raise ValueError("the character needs one row per degree")
    return SpringerReport(
        shape=shape,
        fixed_point_count=sum(poincare),
        degree_bound=len(poincare) - 1,
        poincare=poincare,
        character=GradedCharacter(
            shape, tuple(range(len(values))),
            tuple(Partition.from_string(s)
                  for s in data["character"]["classes"]),
            values, poincare),
        multiplicities=tuple(
            tuple((Partition.from_string(mu), int(m))
                  for mu, m in row.items())
            for row in data["multiplicities"]),
        certificates=tuple((k, bool(v))
                           for k, v in data["certificates"].items()),
        conventions=tuple((k, bool(v))
                          for k, v in data["conventions"].items()),
        timings_ms=tuple((k, float(v))
                         for k, v in data["timings_ms"].items()),
    )


def _poly_str(coeffs) -> str:
    bits = []
    for d, c in enumerate(coeffs):
        if not c:
            continue
        if d == 0:
            bits.append(str(c))
        else:
            q = "q" if d == 1 else f"q^{d}"
            bits.append(q if c == 1 else f"{c}{q}")
    return " + ".join(bits) if bits else "0"


# ---------------------------------------------------------------------------
# Cache.
# ---------------------------------------------------------------------------

def cache_directory() -> Path:
    return Path(os.environ.get("SPRINGER_CACHE_DIR",
                               os.path.expanduser("~/.cache/springerloc")))


def _cache_path(shape: Partition) -> Path:
    key = shape.to_string().replace(",", "_")
    name = f"compute-{key}-{__version__}-v{SCHEMA_VERSION}.json"
    return cache_directory() / name


def _envelope(report: dict, total: float) -> dict:
    """The compute envelope of a serialised report and its wall time."""
    return {
        "schema_version": SCHEMA_VERSION,
        "invocation": {"command": "compute", "lambda": report["shape"]},
        "report": report,
        "timings_ms": {**report["timings_ms"], "total": total},
    }


def _not_json(constant: str) -> None:
    raise ValueError(f"{constant} is not JSON")


def _cache_load(path: Path, shape: Partition) -> dict | None:
    """The envelope of the cached report, or None when the file is missing,
    stale or corrupt, its report is not its own re-serialisation or is one
    of another shape or failure, or its timings are not the report's stage
    timings plus a numeric total, all finite and >= 0.  Every key of a
    report is parsed and written again, so an edited value that parsing
    coerces, or a key the report does not have, fails the re-serialisation.
    Nothing else of the file is echoed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            envelope = json.load(fh, parse_constant=_not_json)
    except (OSError, ValueError):
        return None
    if (not isinstance(envelope, dict)
            or envelope.get("schema_version") != SCHEMA_VERSION):
        return None
    try:
        cached = report_from_json(envelope["report"])
    except (LookupError, TypeError, AttributeError, ValueError):
        return None
    report = report_to_json(cached)
    timings = envelope.get("timings_ms")
    total = timings.get("total") if isinstance(timings, dict) else None
    # compared as JSON text, where true != 1, 2.0 != 2 and key order counts
    if (json.dumps(report) != json.dumps(envelope["report"])
            or cached.shape != shape
            or not all(ok for _, ok in cached.certificates)
            or type(total) not in (int, float)
            or json.dumps(timings) != json.dumps(
                {**report["timings_ms"], "total": total})
            or not all(0 <= t < math.inf for t in timings.values())):
        return None
    return _envelope(report, total)


def _cache_store(path: Path, envelope: dict) -> None:
    """Write the envelope atomically; a cache that cannot be written is
    skipped."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(envelope, fh, indent=2)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def _render_compute_text(rep: SpringerReport) -> str:
    lines = [
        f"shape            {rep.shape.to_string()}   (n = {rep.shape.n})",
        f"fixed words      {rep.fixed_point_count}",
        f"Poincare polynomial  {_poly_str(rep.poincare)}",
        "graded character (rows: degree; columns: cycle type):",
    ]
    ch = rep.character
    header = "  deg | " + "  ".join(f"{ct.to_string():>8}" for ct in ch.cycle_types)
    lines.append(header)
    for d in ch.degrees:
        row = "  ".join(f"{str(v):>8}" for v in ch.values[d])
        lines.append(f"  {d:>3} | {row}")
    lines.append("irreducible multiplicities by degree:")
    for d, row in enumerate(rep.multiplicities):
        inside = ", ".join(f"{mu.to_string()}: {m}" for mu, m in row) or "-"
        lines.append(f"  degree {d}: {inside}")
    lines.append("certificates: " + ", ".join(
        f"{name}={'ok' if ok else 'FAILED'}" for name, ok in rep.certificates))
    return "\n".join(lines)


def _render_compute_csv(rep: SpringerReport) -> str:
    lines = ["degree,cycle_type,trace"]
    ch = rep.character
    for d in ch.degrees:
        for ct, v in zip(ch.cycle_types, ch.values[d]):
            lines.append(f"{d},\"{ct.to_string()}\",{v}")
    return "\n".join(lines)


def _render_table_text(table) -> str:
    lines = [f"graded multiplicity table for n = {table.n}", table.note, ""]
    width = max(len(_poly_str(c)) for row in table.entries for c in row)
    width = max(width, max(len(s.to_string()) for s in table.row_shapes))
    header = " " * (width + 2) + "| " + " | ".join(
        f"{lam.to_string():>{width}}" for lam in table.column_shapes)
    lines.append(header)
    lines.append("-" * len(header))
    for mu, row in zip(table.row_shapes, table.entries):
        cells = " | ".join(f"{_poly_str(c):>{width}}" for c in row)
        lines.append(f"{mu.to_string():>{width}}  | {cells}")
    return "\n".join(lines)


def _table_to_json(table) -> dict:
    by_row = {mu.to_string(): {lam.to_string(): list(table.entry(mu, lam))
                               for lam in table.column_shapes}
              for mu in table.row_shapes}
    by_col = {lam.to_string(): {mu.to_string(): list(table.entry(mu, lam))
                                for mu in table.row_shapes}
              for lam in table.column_shapes}
    return {"schema_version": SCHEMA_VERSION, "n": table.n, "note": table.note,
            "by_row_shape": by_row, "by_column_shape": by_col}


def _render_table_csv(table) -> str:
    head = "mu\\lambda," + ",".join(f"\"{lam.to_string()}\""
                                    for lam in table.column_shapes)
    lines = [head]
    for mu, row in zip(table.row_shapes, table.entries):
        cells = ",".join(f"\"{_poly_str(c)}\"" for c in row)
        lines.append(f"\"{mu.to_string()}\",{cells}")
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise MalformedInputError(
                f"cannot write --out {out!r}: {exc.strerror or exc}") from exc
    else:
        print(text)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _check_rank(n: int, max_n: int) -> None:
    """Refuse a rank above ``--max-n`` or above the library's hard cap."""
    if max_n < 1:
        raise MalformedInputError(f"--max-n must be at least 1, not {max_n}")
    limit = min(max_n, HARD_MAX_N)
    if n > limit:
        raise GuardrailError("rank n", n, limit)


def _cmd_compute(args: argparse.Namespace) -> int:
    shape = Partition.from_string(args.shape)
    _check_rank(shape.n, args.max_n)
    if shape.n > SOFT_MAX_N:
        print(f"warning: n = {shape.n} exceeds the well-tested range "
              f"(n <= {SOFT_MAX_N}); expect long runtimes", file=sys.stderr)

    cache_file = _cache_path(shape)
    envelope = None if args.no_cache else _cache_load(cache_file, shape)
    cache_hit = envelope is not None
    if envelope is None:
        t0 = time.perf_counter()
        rep = springer_compute(shape)
        wall = (time.perf_counter() - t0) * 1000.0
        envelope = _envelope(report_to_json(rep), round(wall, 3))
        if not args.no_cache:
            _cache_store(cache_file, envelope)
    rep = report_from_json(envelope["report"])

    if args.format == "json":
        shown = dict(envelope)
        shown["cache_hit"] = cache_hit
        _emit(json.dumps(shown, indent=2, sort_keys=True), args.out)
    elif args.format == "csv":
        _emit(_render_compute_csv(rep), args.out)
    else:
        _emit(_render_compute_text(rep), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise MalformedInputError(f"--n-max must be at least 1, not {args.n_max}")
    # every rank is checked against the guardrail before any shape is computed
    shapes = [lam for n in range(1, args.n_max + 1) for lam in partitions_of(n)]
    results = []
    failed = False
    for lam in shapes:
        t0 = time.perf_counter()
        cross = oracle_cross_check(lam)
        equi = equivariance_check(lam)
        ms = (time.perf_counter() - t0) * 1000.0
        ok = cross.passed and equi.passed
        failed = failed or not ok
        results.append({
            "shape": lam.to_string(),
            "passed": ok,
            "oracle_match": cross.passed,
            "equivariance": equi.passed,
            "dims": list(cross.engine_dims),
            "mismatches": list(cross.mismatches)[:5],
            "ms": round(ms, 1),
        })
    if args.format == "json":
        print(json.dumps({"schema_version": SCHEMA_VERSION,
                          "invocation": {"command": "verify",
                                         "n_max": args.n_max},
                          "passed": not failed, "results": results},
                         indent=2, sort_keys=True))
    else:
        for r in results:
            flag = "PASS" if r["passed"] else "FAIL"
            print(f"{flag}  shape={r['shape']:<12} dims={r['dims']} "
                  f"oracle={'ok' if r['oracle_match'] else 'MISMATCH'} "
                  f"equivariance={'ok' if r['equivariance'] else 'BROKEN'} "
                  f"({r['ms']:.0f} ms)")
            for m in r["mismatches"]:
                print(f"      {m}")
        print(("all shapes verified" if not failed else
               "verification FAILED"), f"through n = {args.n_max}")
    return 0 if not failed else 1


def _cmd_table(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise MalformedInputError(f"--n must be at least 1, not {args.n}")
    _check_rank(args.n, args.max_n)
    table = kostka_foulkes_table(args.n)
    if args.format == "json":
        _emit(json.dumps(_table_to_json(table), indent=2, sort_keys=True),
              args.out)
    elif args.format == "csv":
        _emit(_render_table_csv(table), args.out)
    else:
        _emit(_render_table_text(table), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="springerloc",
        description="Springer Weyl-group representations by fixed-point "
                    "localization, with an independent Tanisaki-ideal oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="graded character and certificates for one shape")
    p_compute.add_argument("--lambda", dest="shape", required=True,
                           metavar="PARTS",
                           help="partition as comma-separated parts, e.g. 2,1")
    p_compute.add_argument("--format", choices=("json", "csv", "text"),
                           default="text")
    p_compute.add_argument("--out", default=None, help="write output to file")
    p_compute.add_argument("--no-cache", action="store_true")
    p_compute.add_argument("--max-n", type=int, default=SOFT_MAX_N,
                           help="refuse shapes of larger rank (exit 3)")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser(
        "verify", help="cross-check engine against the oracle on all shapes")
    p_verify.add_argument("--n-max", type=int, default=5)
    p_verify.add_argument("--format", choices=("json", "text"),
                          default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser(
        "table", help="graded multiplicity (Kostka-Foulkes) table for rank n")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", choices=("json", "csv", "text"),
                         default="text")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--max-n", type=int, default=SOFT_MAX_N)
    p_table.set_defaults(func=_cmd_table)
    return parser


def _diagnostic(exc: SpringerlocError) -> dict:
    info: dict = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CertificateError):
        info["stage"] = exc.stage
        if exc.degree is not None:
            info["degree"] = exc.degree
        if exc.partial is not None:
            info["partial_dims"] = list(exc.partial)
    if isinstance(exc, GuardrailError):
        info.update({"what": exc.what, "value": exc.value, "limit": exc.limit})
    return info


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at the null device so
        # the flush at interpreter exit has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except GuardrailError as exc:
        print(json.dumps(_diagnostic(exc)), file=sys.stderr)
        return 3
    except MalformedInputError as exc:
        print(json.dumps(_diagnostic(exc)), file=sys.stderr)
        return 2
    except (CertificateError, ConventionError, StabilityError,
            SpringerlocError) as exc:
        print(json.dumps(_diagnostic(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
