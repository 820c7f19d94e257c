"""Run-time tracing of matgraph from the benchmark's side.

``Tracer.install`` replaces functions of the library's modules with wrappers
and ``Tracer.uninstall`` puts the originals back; nothing inside ``src/``
changes.  A module that did ``from .linalg import rank`` holds its
own binding of the name, so each binding is wrapped separately.

Three kinds of wrapper:

* span: one record per call (name, start, end, parent span, job id), kept in
  memory.  Spans nest; a span's self time is its duration minus the time of
  its child spans.  Generator functions get a span whose busy time is the
  sum of the time spent inside each resume.
* timer: per-matrix ranks and eliminations, called up to a million times a
  pass.  Calls and time are accumulated, outermost call of the group only,
  and no record is kept.  Their time is not subtracted from the caller's
  self time, so a caller's self time includes the ranks it computes.
* counter: hot field operations and matrix construction; a count only.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, pass, job, name, start, end)
        self.stack: list[list] = []  # open frames: [span id, child time]
        self.job: str | None = None
        self.pass_id: int | None = None
        self._ids = 0
        self._patches: list[tuple[object, str, Any]] = []
        self._cells: dict[str, list] = {}  # counters and timers, one cell each
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.extra: dict[str, float] = defaultdict(int)  # derived by after-hooks

    # -- per-pass accumulators ---------------------------------------------

    def reset(self) -> None:
        for table in (self.busy, self.self_time, self.calls, self.extra):
            table.clear()
        for cell in self._cells.values():
            cell[0] = 0

    def cell(self, name: str) -> list:
        return self._cells.setdefault(name, [0])

    def value(self, name: str) -> float:
        return self._cells[name][0] if name in self._cells else 0

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def span(
        self,
        owner: object,
        attr: str,
        name: str,
        group: str | None = None,
        after: Callable | None = None,
    ) -> None:
        """Record a span per call.  ``group`` accumulates busy time of the
        outermost call among functions sharing it; ``after(args, kwargs,
        result, error, seconds)`` derives counts from the call."""
        fn = getattr(owner, attr)
        depth = self.cell(f"depth:{group}") if group else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer._ids += 1
            frame = [tracer._ids, 0.0]
            tracer.stack.append(frame)
            outer = depth is not None and depth[0] == 0
            if depth is not None:
                depth[0] += 1
            result = error = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = perf()
                tracer.stack.pop()
                if depth is not None:
                    depth[0] -= 1
                dur = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += dur
                tracer.busy[name] += dur
                tracer.self_time[name] += dur - frame[1]
                tracer.calls[name] += 1
                if outer:
                    tracer.busy[group] += dur
                tracer.spans.append(
                    (frame[0], parent, tracer.pass_id, tracer.job, name, start, end)
                )
                if after is not None:
                    after(args, kwargs, result, error, dur)

        self._patch(owner, attr, wrapper)

    def gen_span(self, owner: object, attr: str, name: str, items: str) -> None:
        """Span for a generator function: busy time is summed over resumes,
        and every yielded item is counted under ``items``."""
        fn = getattr(owner, attr)
        count = self.cell(items)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer._ids += 1
            sid = tracer._ids
            first = last = None
            try:
                while True:
                    frame = [sid, 0.0]
                    tracer.stack.append(frame)
                    start = perf()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = perf()
                        tracer.stack.pop()
                        dur = end - start
                        if tracer.stack:
                            tracer.stack[-1][1] += dur
                        tracer.busy[name] += dur
                        tracer.self_time[name] += dur - frame[1]
                        if first is None:
                            first = start
                        last = end
                    count[0] += 1
                    yield item
            finally:
                if first is not None:
                    tracer.spans.append(
                        (sid, parent, tracer.pass_id, tracer.job, name, first, last)
                    )

        self._patch(owner, attr, wrapper)

    def timer(self, owner: object, attr: str, group: str, unless: str | None = None) -> None:
        """Count and time the outermost call of ``group``; calls made while
        a call of group ``unless`` is open pass straight through."""
        fn = getattr(owner, attr)
        depth = self.cell(f"depth:{group}")
        blocker = self.cell(f"depth:{unless}") if unless else [0]
        calls = self.cell(f"{group}.calls")
        secs = self.cell(f"{group}.s")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[0] or blocker[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                secs[0] += perf() - start
                calls[0] += 1
                depth[0] = 0

        self._patch(owner, attr, wrapper)

    def counter(self, owner: object, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        calls = self.cell(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    # -- the library's layers ----------------------------------------------

    def install(self) -> None:
        from matgraph import bounds, cli, codes, coloring, gftower, graph, linalg

        extra = self.extra

        def bfs_levels(args, kwargs, result, error, secs):
            if result is not None:
                extra["graph.bfs_levels"] += int(result.max())

        def verified_pairs(args, kwargs, result, error, secs):
            extra["graph.pairs"] += args[0].order ** 2

        def restarts(args, kwargs, result, error, secs):
            if result is not None:
                extra["coloring.restarts"] += result.restarts_used
                extra["coloring.verified"] += int(result.verified)
            elif isinstance(error, coloring.SearchExhaustedError):
                extra["coloring.restarts"] += error.restarts

        def verify_mode(args, kwargs, result, error, secs):
            pairwise = kwargs.get("pairwise", args[3] if len(args) > 3 else False)
            extra["coloring.pairwise_s" if pairwise else "coloring.kernel_verify_s"] += secs

        def colored(args, kwargs, result, error, secs):
            if result is not None:
                extra["coloring.vertices"] += len(result)

        self.span(gftower.FieldTower, "__init__", "gftower.build_tower")
        self.counter(gftower.ExtField, "mul", "gftower.ext_mul_calls")
        self.counter(gftower.ExtField, "inv", "gftower.ext_inv_calls")

        self.counter(linalg.MatFq, "__post_init__", "linalg.matfq_built")
        for owner in (linalg, graph):
            self.timer(owner, "rank", "linalg.rank")
        for owner in (linalg, codes, coloring):
            self.timer(owner, "column_rank", "linalg.rank")
        for owner in (linalg, coloring):
            self.timer(owner, "_rank_bits", "linalg.rank")
        for owner in (linalg, codes):
            self.timer(owner, "row_reduce", "linalg.row_reduce", unless="linalg.rank")

        self.span(graph, "neighbor_index_table", "graph.neighbor_table")
        self.span(graph, "rank_table", "graph.rank_table")
        self.span(graph, "bfs_distances", "graph.bfs", after=bfs_levels)
        self.span(graph, "verify_distance_equals_rank", "graph.verify", after=verified_pairs)
        self.span(graph, "eccentricity_of_zero", "graph.eccentricity_of_zero")
        self.span(graph, "is_bipartite", "graph.is_bipartite")
        self.span(graph, "graph_distance_bfs", "graph.pair_bfs")

        self.span(codes, "gabidulin", "codes.gabidulin")
        self.span(codes, "rank_spectrum", "codes.rank_spectrum")
        self.span(codes, "min_rank_distance", "codes.min_rank_distance")
        self.gen_span(codes, "enumerate_span", "codes.enumerate_span", items="codes.code_words")
        self.gen_span(coloring, "enumerate_span", "codes.enumerate_span", items="coloring.kernel_words")

        self.span(coloring, "d_distance_coloring", "coloring.d_distance_coloring")
        self.span(coloring, "exact_d_coloring", "coloring.exact_d_coloring")
        self.span(coloring, "search_forbidden_H", "coloring.search", after=restarts)
        self.span(coloring, "kernel_rank_spectrum", "coloring.kernel_rank_spectrum")
        self.span(coloring, "find_violation", "coloring.find_violation", after=verify_mode)
        self.span(coloring, "color_table", "coloring.color_table", after=colored)
        self.span(coloring, "realized_colors", "coloring.realized_colors")

        self.span(bounds, "table1", "bounds.table1", group="bounds.busy")
        self.span(bounds, "bounds_row", "bounds.bounds_row", group="bounds.busy")

        self.span(cli, "main", "cli.main")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values accumulated since the last ``reset``."""
        busy, extra = self.busy, self.extra

        def rate(num: float, secs: float) -> float:
            return num / secs if secs > 0 else 0.0

        span_words = self.value("codes.code_words") + self.value("coloring.kernel_words")
        restarts = extra["coloring.restarts"]
        return {
            "gftower.build_tower_s": busy["gftower.build_tower"],
            "gftower.ext_mul_calls": self.value("gftower.ext_mul_calls"),
            "gftower.ext_inv_calls": self.value("gftower.ext_inv_calls"),
            "linalg.rank_calls": self.value("linalg.rank.calls"),
            "linalg.rank_s": self.value("linalg.rank.s"),
            "linalg.row_reduce_calls": self.value("linalg.row_reduce.calls"),
            "linalg.row_reduce_s": self.value("linalg.row_reduce.s"),
            "linalg.matfq_built": self.value("linalg.matfq_built"),
            "graph.neighbor_table_s": busy["graph.neighbor_table"],
            "graph.rank_table_s": busy["graph.rank_table"],
            "graph.bfs_s": busy["graph.bfs"],
            "graph.bfs_calls": self.calls["graph.bfs"],
            "graph.bfs_levels": extra["graph.bfs_levels"],
            "graph.verify_self_s": self.self_time["graph.verify"],
            "graph.pairs_per_s": rate(extra["graph.pairs"], busy["graph.verify"]),
            "graph.pair_bfs_s": busy["graph.pair_bfs"],
            "graph.pair_bfs_calls": self.calls["graph.pair_bfs"],
            "codes.gabidulin_s": busy["codes.gabidulin"],
            "codes.span_words": span_words,
            "codes.span_s": busy["codes.enumerate_span"],
            "codes.rank_spectrum_self_s": self.self_time["codes.rank_spectrum"],
            "codes.words_per_s": rate(span_words, busy["codes.enumerate_span"]),
            "coloring.search_s": busy["coloring.search"],
            "coloring.restarts": restarts,
            "coloring.restarts_per_s": rate(restarts, busy["coloring.search"]),
            "coloring.restart_yield": rate(extra["coloring.verified"], restarts),
            "coloring.kernel_words": self.value("coloring.kernel_words"),
            "coloring.kernel_verify_s": extra["coloring.kernel_verify_s"],
            "coloring.pairwise_s": extra["coloring.pairwise_s"],
            "coloring.color_table_s": busy["coloring.color_table"],
            "coloring.vertices_colored_per_s": rate(
                extra["coloring.vertices"], busy["coloring.color_table"]
            ),
            "bounds.busy_s": busy["bounds.busy"],
        }
