"""Spans and counters around the public calls into each springerloc module.

Only the traced pass imports this.  ``install`` replaces module functions
and class methods with wrappers that time each call; nothing under ``src/``
changes.  A span is ``(name, start, end, parent, shape)``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``shape`` the index of the
workload shape being computed.  The elimination-kernel, normal-form,
restriction and decomposition calls are too many to keep one by one, so they
are *aggregated*: they add to the per-name call counts and times, and to
their parent's child time, but store no span.

A layer is the module part of a span name (``exactalg.echelon_insert`` is in
``exactalg``).  A span's self time is its duration minus the durations of
its direct children, so the self times of all layers add up to the traced
wall time of the shape calls.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("exactalg", "locengine", "straighten", "gporacle", "flagmodel",
          "symgroup", "springer", "cli")


class Tracer:
    """In-memory spans, per-name totals and named counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.nf_exponents: set[tuple[int, tuple[int, ...]]] = set()
        self.shape = -1
        # open frames: [name, start, child seconds, span index or None]
        self._stack: list[list] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> list:
        index = None
        if keep:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._parent(), self.shape))
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            _, _, _, parent, shape = self.spans[index]
            self.spans[index] = (name, start, end, parent, shape)

    def _parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return -1

    @contextmanager
    def span(self, name: str):
        """Record one kept span around the body of a ``with`` block."""
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(frame)

    def inside(self, name: str) -> bool:
        return bool(self._stack) and self._stack[-1][0] == name

    # -- wrappers ------------------------------------------------------------

    def timed(self, fn, name: str, *, keep: bool = True, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.timed(getattr(owner, attr), name, **kw))

    # -- results ---------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every springerloc module the workloads use."""
    from springerloc import exactalg, flagmodel, gporacle, springer, straighten
    from springerloc.exactalg import monomial_count

    count = tracer.counts

    # exactalg: the two echelon classes.  A reduce made inside an insert is
    # part of that insert, so only reduces from outside the kernel count as
    # reduce calls.
    def after_insert(raised, _args):
        count["exactalg.echelon_insert_pivots"] += bool(raised)

    tracer.wrap(exactalg.SparseEchelon, "insert", "exactalg.echelon_insert",
                keep=False, after=after_insert)
    reduce_ = exactalg.SparseEchelon.reduce
    timed_reduce = tracer.timed(reduce_, "exactalg.echelon_reduce", keep=False)

    def reduce(self, vec):
        if tracer.inside("exactalg.echelon_insert"):
            return reduce_(self, vec)
        return timed_reduce(self, vec)

    exactalg.SparseEchelon.reduce = reduce
    tracer.wrap(exactalg.TrackedEchelon, "insert", "exactalg.tracked_insert",
                keep=False)
    tracer.wrap(exactalg.TrackedEchelon, "solve", "exactalg.tracked_solve",
                keep=False)

    # locengine: the stages springer_compute calls, by the names it imported.
    def after_build(M, _args):
        count["locengine.generators"] += len(M.gens)
        count["locengine.lifts"] += sum(M.q_dims)
        if M.mode == "echelon":
            count["locengine.product_rows"] += sum(
                M.q_dims[e] * monomial_count(M.k, d - e)
                for d in range(M.degree_bound + 1) for e in range(d))

    def after_stability(report, _args):
        count["locengine.lifts_checked"] += report.checked_lifts
        count["locengine.fully_expanded"] += report.fully_expanded

    tracer.wrap(springer, "build_image_module", "locengine.build",
                after=after_build)
    tracer.wrap(springer, "augmentation_quotient", "locengine.quotient")
    tracer.wrap(springer, "freeness_certificate", "locengine.freeness")
    tracer.wrap(springer, "verify_w_stability", "locengine.stability",
                after=after_stability)
    tracer.wrap(springer, "graded_character", "locengine.character")

    # straighten: tower construction, the relations certificate, and the
    # expression provider built on nf_monomial.  nf_monomial is counted on
    # every call, recursion included, but not timed.
    reducer = straighten.StaircaseReducer
    tracer.wrap(reducer, "__init__", "straighten.tower")
    tracer.wrap(reducer, "relations_vanish_on", "straighten.relations")
    nf_ = reducer.nf_monomial

    def nf_monomial(self, yexps):
        count["straighten.nf_calls"] += 1
        tracer.nf_exponents.add((tracer.shape, yexps))
        return nf_(self, yexps)

    reducer.nf_monomial = nf_monomial
    make_provider = springer.make_expression_provider

    def make_expression_provider(*args):
        return tracer.timed(make_provider(*args), "straighten.nf", keep=False)

    springer.make_expression_provider = make_expression_provider

    # gporacle: generators, and the rows and rank of every ideal span.
    ideal_echelon_ = gporacle._ideal_echelon

    def ideal_echelon(*args):
        before = tracer.calls["exactalg.echelon_insert"]
        ech = ideal_echelon_(*args)
        count["gporacle.ideal_rows"] += (
            tracer.calls["exactalg.echelon_insert"] - before)
        count["gporacle.ideal_rank"] += ech.rank
        return ech

    gporacle._ideal_echelon = ideal_echelon
    tracer.wrap(gporacle, "tanisaki_generators", "gporacle.generators")
    tracer.wrap(gporacle, "gp_graded_character", "gporacle.character")

    # flagmodel: restriction of staircase classes (in the pipeline and in the
    # equivariance check) and the equivariance check itself.
    restrict = tracer.timed(flagmodel.springer_restriction,
                            "flagmodel.restrict", keep=False)
    flagmodel.springer_restriction = restrict
    springer.springer_restriction = restrict
    tracer.wrap(springer, "equivariance_failures", "flagmodel.equivariance")

    # symgroup: fixed-point words and class-function decomposition.
    def after_fixed_points(P, _args):
        count["symgroup.words"] += P.size

    tracer.wrap(springer, "fixed_point_set", "symgroup.fixed_points",
                after=after_fixed_points)
    tracer.wrap(springer, "decompose_class_function", "symgroup.decompose",
                keep=False)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, tracemalloc_peak_mb: float,
                  ) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced pass except the trace overhead,
    as ``name -> (value, unit)``; times are sums over the pass."""
    calls, total, count = tracer.calls, tracer.total_s, tracer.counts
    out = {
        "exactalg.echelon_insert_calls": (calls["exactalg.echelon_insert"],
                                          "count"),
        "exactalg.echelon_insert_s": (total["exactalg.echelon_insert"], "s"),
        "exactalg.echelon_reduce_calls": (calls["exactalg.echelon_reduce"],
                                          "count"),
        "exactalg.echelon_reduce_s": (total["exactalg.echelon_reduce"], "s"),
        "exactalg.tracked_solve_calls": (calls["exactalg.tracked_solve"],
                                         "count"),
        "exactalg.tracked_solve_s": (total["exactalg.tracked_solve"], "s"),
        "exactalg.tracked_insert_s": (total["exactalg.tracked_insert"], "s"),
        "exactalg.insert_pivot_ratio": (_ratio(
            count["exactalg.echelon_insert_pivots"],
            calls["exactalg.echelon_insert"]), "ratio"),
        "locengine.build_s": (total["locengine.build"], "s"),
        "locengine.quotient_s": (total["locengine.quotient"], "s"),
        "locengine.freeness_s": (total["locengine.freeness"], "s"),
        "locengine.stability_s": (total["locengine.stability"], "s"),
        "locengine.character_s": (total["locengine.character"], "s"),
        "locengine.product_rows": (count["locengine.product_rows"], "count"),
        "locengine.lifts_checked": (count["locengine.lifts_checked"],
                                    "count"),
        "locengine.fully_expanded": (count["locengine.fully_expanded"],
                                     "count"),
        "locengine.lift_ratio": (_ratio(count["locengine.lifts"],
                                        count["locengine.generators"]),
                                 "ratio"),
        "straighten.tower_s": (total["straighten.tower"], "s"),
        "straighten.relations_s": (total["straighten.relations"], "s"),
        "straighten.nf_s": (total["straighten.nf"], "s"),
        "straighten.nf_calls": (count["straighten.nf_calls"], "count"),
        "straighten.nf_hit_ratio": (1.0 - _ratio(
            len(tracer.nf_exponents), count["straighten.nf_calls"])
            if count["straighten.nf_calls"] else 0.0, "ratio"),
        "gporacle.generators_s": (total["gporacle.generators"], "s"),
        "gporacle.character_s": (total["gporacle.character"], "s"),
        "gporacle.ideal_rows": (count["gporacle.ideal_rows"], "count"),
        "gporacle.ideal_rank_ratio": (_ratio(count["gporacle.ideal_rank"],
                                             count["gporacle.ideal_rows"]),
                                      "ratio"),
        "flagmodel.restrict_s": (total["flagmodel.restrict"], "s"),
        "flagmodel.equivariance_s": (total["flagmodel.equivariance"], "s"),
        "flagmodel.generators": (calls["flagmodel.restrict"], "count"),
        "symgroup.fixed_points_s": (total["symgroup.fixed_points"], "s"),
        "symgroup.decompose_s": (total["symgroup.decompose"], "s"),
        "symgroup.words": (count["symgroup.words"], "count"),
        "springer.compute_s": (total["springer.compute"], "s"),
        "springer.tracemalloc_peak_mb": (tracemalloc_peak_mb, "MB"),
        "cli.envelope_s": (total["cli.envelope"], "s"),
    }
    for layer, seconds in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out
