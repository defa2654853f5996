"""Spans and counts recorded around calls into racegroups' layers.

Nothing inside the package is edited.  ``Tracer.install`` replaces the
public functions and methods each layer offers with wrappers, in this
process only, and ``uninstall`` puts the originals back.  A wrapper
records a span (name, start, end, parent span, run id) and, where the
call's arguments or result carry one, a count.  Spans stay in memory
until ``write`` is called.

Layers are named after the package's modules: io, grouping, evolution,
patterns, longterm, pipeline and cli.  A layer's self time is the time
its spans cover minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import racegroups.cli as cli
import racegroups.evolution as evolution
import racegroups.grouping as grouping
import racegroups.io as rio
import racegroups.longterm as longterm
import racegroups.patterns as patterns
import racegroups.pipeline as pipeline

START, END, PARENT = 1, 2, 3  # fields of a span record


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.run_id][name] += n

    def wrap(self, name: str, fn, on_result=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.run_id]
            open_.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                open_.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def _wrap_engine(self, name: str, fn):
        """ingest_many / finalize_all: the on_finish callback becomes a
        pipeline span, and accepted/rejected events are counted."""
        wrapped = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(engine, *args, on_finish=None):
            if on_finish is not None:
                on_finish = self.wrap("pipeline.on_finish", on_finish, _count_finished)
            accepted, rejected = engine.events_accepted, engine.events_rejected
            try:
                return wrapped(engine, *args, on_finish=on_finish)
            finally:
                self.count("grouping.events_accepted", engine.events_accepted - accepted)
                self.count("grouping.events_rejected", engine.events_rejected - rejected)

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, owners, attr: str, name: str, on_result=None) -> None:
        """A module-level function, also where other modules imported it
        by name."""
        wrapped = self.wrap(name, getattr(owners[0], attr), on_result)
        for owner in owners:
            self._patch(owner, attr, wrapped)

    def _patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        self._patch(cls, attr, self.wrap(name, getattr(cls, attr), on_result))

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        engine = grouping.GroupingEngine
        for attr in ("ingest_many", "finalize_all"):
            self._patch(engine, attr, self._wrap_engine(f"grouping.{attr}", getattr(engine, attr)))

        self._patch_function((rio, cli), "read_events", "io.read_events", _count_rows)
        self._patch_function((rio, cli), "read_course", "io.read_course")

        stack = evolution.GraphStack
        self._patch_method(stack, "on_group", "evolution.on_group", _count_edges)
        self._patch_method(stack, "on_failed_component", "evolution.on_failed_component")

        self._patch_function((patterns, pipeline), "detect_patterns", "patterns.detect", _count_detected)
        tracker = patterns.PatternTracker
        self._patch_method(tracker, "on_group", "patterns.tracker")
        self._patch_method(tracker, "snapshot", "patterns.snapshot")
        self._patch_method(tracker, "seal", "patterns.seal", _count_sealed)

        self._patch_function((longterm, pipeline), "build_global", "longterm.build", _count_graph)
        self._patch_function((longterm, pipeline), "compute_labels", "longterm.labels")
        self._patch_function((longterm, pipeline), "longest_all", "longterm.longest")

        self._patch_function((pipeline, cli), "run", "pipeline.run")
        analysis = pipeline.RaceAnalysis
        self._patch_method(analysis, "ingest", "pipeline.ingest")
        self._patch_method(analysis, "finalize", "pipeline.finalize", _count_state)
        for attr in ("pattern_sets", "global_graph", "anomalies"):
            self._patch_method(analysis, attr, f"pipeline.{attr}")
        self._patch_method(analysis, "group_stats", "pipeline.group_stats", _count_crossed)
        self._patch_method(analysis, "athlete_status", "pipeline.status")

        self._patch(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict[int, dict[str, float]]:
        """Per run id: ``self:<layer>`` self time, ``total:<span>`` time
        of all spans of that name (no wrapped function recurses), and
        the counts."""
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(spans):
            name, start, end, _, run = span
            agg = out[run]
            agg[f"self:{name.split('.', 1)[0]}"] += end - start - child[i]
            agg[f"total:{name}"] += end - start
        for run, counts in self.counts.items():
            out[run].update(counts)
        return {run: dict(agg) for run, agg in out.items()}

    def write(self, path: str) -> None:
        """One JSON object per span, in the order spans were opened."""
        with open(path, "w") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )


# -- counts taken from a call's arguments or result ------------------------


def _count_finished(tracer: Tracer, args, _result) -> None:
    (finished,) = args
    if finished.group is not None:
        tracer.count("grouping.groups")
    else:
        tracer.count("on_finish.failed")
        tracer.count("grouping.outlier_athletes", len(finished.members))


def _count_rows(tracer: Tracer, _args, result) -> None:
    events, issues = result
    tracer.count("io.rows", len(events))
    tracer.count("io.issues", len(issues))


def _count_edges(tracer: Tracer, args, result) -> None:
    group = args[1]
    if group.cp > 0:
        tracer.count("evolution.members_scanned", group.size)
    tracer.count("evolution.edges_added", sum(len(edges) for _, edges in result))


def _count_detected(tracer: Tracer, _args, result) -> None:
    tracer.count("patterns.records", len(result.records))
    tracer.count("patterns.flags", len(result.flags))


def _count_sealed(tracer: Tracer, _args, result) -> None:
    for pattern_set in result.values():
        _count_detected(tracer, None, pattern_set)


def _count_graph(tracer: Tracer, _args, graph) -> None:
    tracer.count("longterm.vertices", graph.n_vertices())
    tracer.count("longterm.edges", len(graph.fwd) + len(graph.bwd))


def _count_state(tracer: Tracer, args, _result) -> None:
    """After the broom wagon: every component is finished and every
    relation edge is in place."""
    analysis = args[0]
    tracer.count("grouping.components", sum(analysis.engine.component_counts.values()))
    tracer.count(
        "state.relation_edges",
        sum(len(p.fwd) + len(p.bwd) for p in analysis.stack.pairs.values()),
    )


def _count_crossed(tracer: Tracer, _args, stats) -> None:
    tracer.count("state.crossed", sum(s.crossed for s in stats))
