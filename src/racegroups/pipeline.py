"""One race, end to end: stream events through the grouping engine,
keep the evolution graphs current, classify every control-point pair,
sweep the long-term labels, and answer questions about the result.

The analysis object wires the layers: the engine invokes a callback
each time a component is decreed finished, and for a group that
callback feeds the group and its shared-member counts to the graph
stack and, online, the graph changes to the pattern tracker.
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .core import Params, _Frozen, _integer
from .evolution import GraphStack, PairGraph
from .grouping import (
    ABSENT,
    ANOMALY_PACE,
    OUTLIER,
    PENDING,
    AnomalyRecord,
    GroupingEngine,
)
from .longterm import (
    LONGTERM_KINDS,
    GlobalGraph,
    LongestResult,
    LongTermLabels,
    build_global,
    compute_labels,
    longest_all,
)
from .patterns import (
    KINDS,
    IncompletePairError,
    PatternSet,
    PatternTracker,
    _pattern_set,
    classify_target,
    detect_patterns,
)

MODE_FINALIZED = "finalized"
MODE_ONLINE = "online"
MODES = (MODE_FINALIZED, MODE_ONLINE)

DEFAULT_PACE_FACTOR = Fraction(3, 2)


class _Course(dict):
    """A RunConfig's own copy of its course: read as a dict, printed as
    one, equal to one, and refusing every change, so the checks made
    when the config was built keep holding."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a RunConfig's course is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _Course, (dict(self),)


class RunConfig(_Frozen):
    __slots__ = _fields = ("params", "mode", "course", "pace_factor")

    def __init__(
        self,
        params: Params,
        mode: str = MODE_FINALIZED,
        course: dict[int, int] | None = None,  # cp -> meters from the start
        # kept as an exact ratio; a float is read as its shortest repr,
        # so 1.1 means 11/10
        pace_factor: Fraction = DEFAULT_PACE_FACTOR,
    ) -> None:
        if course is not None:
            course = _Course(course)
        self._set(params, mode, course, pace_factor)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        factor = self.pace_factor
        factor = Fraction(repr(factor) if isinstance(factor, float) else factor)
        if factor <= 1:
            raise ValueError("pace factor must exceed 1")
        object.__setattr__(self, "pace_factor", factor)
        if self.course is not None:
            for cp, distance in self.course.items():
                _integer("course control point", cp)
                _integer(f"course distance at control point {cp}", distance)
                if cp < 0:
                    raise ValueError(f"course control point {cp} is negative")
            meters = [m for _, m in sorted(self.course.items())]
            if any(b <= a for a, b in zip(meters, meters[1:])):
                raise ValueError("course distances must increase with the index")


class StageTimings(NamedTuple):
    """Wall-clock seconds per stage of run(), which starts from parsed
    and sorted events."""

    grouping_s: float = 0.0
    patterns_s: float = 0.0
    longterm_s: float = 0.0
    events: int = 0

    def throughput(self) -> float:
        """Events per second through the streaming stage."""
        return self.events / self.grouping_s if self.grouping_s > 0 else 0.0


class AthleteStatus(NamedTuple):
    """Where one athlete stands, accurate up to their last crossing."""

    athlete: int
    last_cp: int
    last_time: int
    position: int  # 1-based; by progress, then last crossing time
    segment_pace: float | None  # min/km over the latest segment
    average_pace: float | None  # min/km over the whole crossed span
    history: tuple[str, ...]  # one token per cp: g<cp>.<ordinal>, solo, absent


class GroupStats(NamedTuple):
    cp: int
    n_components: int
    n_groups: int
    n_outliers: int
    largest_group: int
    crossed: int


class RaceAnalysis:
    """Streaming state plus finished-race reports."""

    def __init__(self, config: RunConfig) -> None:
        self.config = config
        self.engine = GroupingEngine(config.params)
        self.stack = GraphStack(config.params.mu)
        self.tracker = PatternTracker() if config.mode == MODE_ONLINE else None
        self._sealed_sets: dict[int, PatternSet] | None = None

    # -- streaming ----------------------------------------------------

    def _dispatch(self, finished) -> None:
        group = finished.group
        if group is not None:
            updates = self.stack.on_group(group, finished.before, finished.after)
            if self.tracker is not None:
                self.tracker.on_group(group, updates)

    def ingest(self, events) -> None:
        self.engine.ingest_many(events, on_finish=self._dispatch)

    def finalize(self) -> None:
        self.engine.finalize_all(on_finish=self._dispatch)

    # -- graphs and patterns -------------------------------------------

    def pairs(self) -> list[PairGraph]:
        """One pair per consecutive control-point step, contiguous, the
        step after the last control point excluded."""
        cps = self.engine.known_cps()
        if len(cps) < 2:
            return []
        return [self.stack.pair(cp) for cp in range(min(cps), max(cps))]

    def pattern_sets(self) -> dict[int, PatternSet]:
        """Final classification per pair, keyed by left control point.

        Online mode reads the tracker's sealed state; finalized mode
        classifies from the finished graphs.  Both agree.  Before
        finalize() it raises IncompletePairError.
        """
        if not self.engine._finalized:
            raise IncompletePairError(
                "pattern sets are final only after finalize(); "
                "snapshot(left_cp) gives the transitory records"
            )
        pairs = self.pairs()
        if self.tracker is not None:
            if self._sealed_sets is None:
                self._sealed_sets = self.tracker.seal(pairs)
            return self._sealed_sets
        return {pair.left_cp: detect_patterns(pair) for pair in pairs}

    def snapshot(self, left_cp: int) -> PatternSet:
        """The records of the pair (left_cp, left_cp + 1) as it stands,
        classified when read, in either mode.  They are final, and the
        set says so, once the race is finalized; a pair with no group
        yet reads empty and is not created."""
        pair = self.stack.pairs.get(left_cp)
        if pair is None:
            pair = PairGraph(left_cp, self.stack.mu)
        return _pattern_set(
            pair,
            (classify_target(pair, r) for r in range(len(pair.right_sizes))),
            finalized=self.engine._finalized,
        )

    def global_graph(self) -> GlobalGraph:
        """The pairs as one graph.  A race seen at one control point
        has no pair but still one vertex per group there, which the
        stack holds as the left side of the pair after it."""
        cps = self.engine.known_cps()
        if len(cps) == 1:
            (cp,) = cps
            return GlobalGraph((), cp, [len(self.stack.pair(cp).left_sizes)])
        return build_global(self.pairs())

    def group_stats(self) -> list[GroupStats]:
        engine = self.engine
        stats = []
        for cp in engine.known_cps():
            # read in place: groups_at returns a copy
            sizes = [len(g.members) for g in engine.groups.get(cp, ())]
            stats.append(
                GroupStats(
                    cp=cp,
                    n_components=engine.n_components_at(cp),
                    n_groups=len(sizes),
                    n_outliers=engine.outlier_counts.get(cp, 0),
                    largest_group=max(sizes, default=0),
                    crossed=engine.n_crossed_at(cp),
                )
            )
        return stats

    # -- athlete-facing reports ----------------------------------------

    def athlete_status(self, athlete: int) -> AthleteStatus:
        engine = self.engine
        codes, times = engine.history(athlete)
        segment_pace = average_pace = None
        course = self.config.course
        if course is not None:
            span = [
                (cp, times[cp])
                for cp in sorted(course)
                if cp < len(codes) and codes[cp] != ABSENT
            ]
            if len(span) >= 2:
                (c0, t0), (c_prev, t_prev), (c_last, t_last) = span[0], span[-2], span[-1]
                average_pace = _pace(t_last - t0, course[c_last] - course[c0])
                segment_pace = _pace(t_last - t_prev, course[c_last] - course[c_prev])
        return AthleteStatus(
            athlete=athlete,
            # the trailing entry is always a real crossing: absences
            # are only backfilled when a later crossing arrives
            last_cp=len(codes) - 1,
            last_time=times[-1],
            position=engine.position(athlete),
            segment_pace=segment_pace,
            average_pace=average_pace,
            history=tuple(_history_token(cp, code) for cp, code in enumerate(codes)),
        )

    def anomalies(self) -> list[AnomalyRecord]:
        """Stream irregularities plus pace jumps, one record per
        (athlete, cp, kind); the pace jumps come last, by athlete id
        and then control point."""
        out = list(self.engine.anomalies)
        if self.config.course is not None:
            out.extend(self._pace_jumps())
        return out

    def _pace_jumps(self) -> list[AnomalyRecord]:
        """Each step between course points whose pace dt/dd leaves the
        running average dt_avg/dd_avg over everything before it by more
        than the factor p/q, either way, cross-multiplied in integers
        (distances increase, so dd > 0): a jump iff
        q * dt * dd_avg > p * dt_avg * dd or p * dt * dd_avg < q * dt_avg * dd.

        A row that crossed every course point it reached has its steps
        at fixed distances, so their distance factors are computed once
        per race; a row with a jump, or with a skipped course point,
        goes through _series_jumps, which makes the records."""
        course = self.config.course
        factor = self.config.pace_factor
        p, q = factor.numerator, factor.denominator
        cps = sorted(course)
        meters = [course[cp] for cp in cps]
        # per step k >= 2 of a full row: dd_avg = d[k-1] - d[0] and
        # dd = d[k] - d[k-1]
        dd_avg = [d - meters[0] for d in meters[1:-1]]
        dd = [b - a for a, b in zip(meters[1:], meters[2:])]
        q_dd_avg, p_dd_avg = [q * d for d in dd_avg], [p * d for d in dd_avg]
        p_dd, q_dd = [p * d for d in dd], [q * d for d in dd]
        jumps: list[AnomalyRecord] = []
        for athlete, passed, times, codes in self.engine.crossing_rows(cps):
            reached = bisect_left(cps, passed)
            if ABSENT in codes:  # a skipped course point
                series = [
                    (cp, t)
                    for cp, t, code in zip(cps[:reached], times, codes)
                    if code != ABSENT
                ]
            else:
                t0 = times[0]
                for t_prev, t, a, b, c, d in zip(
                    times[1:], times[2:reached], q_dd_avg, p_dd, p_dd_avg, q_dd
                ):
                    dt, dt_avg = t - t_prev, t_prev - t0
                    # a, b, c, d: q * dd_avg, p * dd, p * dd_avg, q * dd
                    if dt * a > dt_avg * b or dt * c < dt_avg * d:
                        break
                else:
                    continue
                series = list(zip(cps, times[:reached]))
            if len(series) >= 3:  # the first segment has no history to average
                jumps.extend(_series_jumps(athlete, series, course, factor))
        # a stable sort: each athlete's jumps are already in cp order
        jumps.sort(key=attrgetter("athlete"))
        return jumps


def _series_jumps(
    athlete: int,
    series: list[tuple[int, int]],
    course: dict[int, int],
    factor: Fraction,
) -> list[AnomalyRecord]:
    """The pace jumps along one athlete's (cp, time) crossings at
    course points, at least three, one step at a time."""
    p, q = factor.numerator, factor.denominator
    jumps = []
    (c0, t0), (c_prev, t_prev) = series[0], series[1]
    d0, d_prev = course[c0], course[c_prev]
    # a pace key is new here: cps increase along a series and the
    # engine records no pace jumps
    for c_cur, t_cur in series[2:]:
        d_cur = course[c_cur]
        seg_x = (t_cur - t_prev) * (d_prev - d0)  # dt * dd_avg
        avg_x = (t_prev - t0) * (d_cur - d_prev)  # dt_avg * dd
        if q * seg_x > p * avg_x or p * seg_x < q * avg_x:
            seg = _pace(t_cur - t_prev, d_cur - d_prev)
            avg = _pace(t_prev - t0, d_prev - d0)
            jumps.append(
                AnomalyRecord(
                    athlete,
                    ANOMALY_PACE,
                    c_cur,
                    f"segment pace {seg:.2f} min/km vs running "
                    f"average {avg:.2f} (factor {float(factor):g})",
                )
            )
        t_prev, d_prev = t_cur, d_cur
    return jumps


def _pace(delta_ms: int, delta_m: int) -> float:
    """Minutes per kilometer."""
    return (delta_ms / 60000.0) / (delta_m / 1000.0)


def _history_token(cp: int, code: int) -> str:
    if code >= 0:
        return f"g{cp}.{code}"
    if code == OUTLIER:
        return "solo"
    if code == PENDING:
        return "pending"
    return "absent"


class RunResult(NamedTuple):
    analysis: RaceAnalysis
    pattern_sets: dict[int, PatternSet]
    labels: LongTermLabels
    longest: dict[str, LongestResult]
    stats: list[GroupStats]
    timings: StageTimings

    def pattern_totals(self) -> dict[str, int]:
        totals = dict.fromkeys(KINDS, 0)
        for pattern_set in self.pattern_sets.values():
            for kind, n in pattern_set.counts().items():
                totals[kind] += n
        return totals

    def longterm_maxima(self) -> dict[str, int]:
        """Longest length per long-term kind, in control points."""
        return {kind: self.longest[kind].length_cps for kind in LONGTERM_KINDS}


def run(events, config: RunConfig) -> RunResult:
    """The whole pipeline over an already sorted event stream."""
    analysis = RaceAnalysis(config)

    t0 = _time.perf_counter()
    analysis.ingest(events)
    analysis.finalize()
    t1 = _time.perf_counter()
    pattern_sets = analysis.pattern_sets()
    t2 = _time.perf_counter()
    graph = analysis.global_graph()
    labels = compute_labels(graph)
    longest = longest_all(graph, labels)
    t3 = _time.perf_counter()

    return RunResult(
        analysis=analysis,
        pattern_sets=pattern_sets,
        labels=labels,
        longest=longest,
        stats=analysis.group_stats(),
        timings=StageTimings(
            grouping_s=t1 - t0,
            patterns_s=t2 - t1,
            longterm_s=t3 - t2,
            events=analysis.engine.events_accepted,
        ),
    )


class SweepRow(NamedTuple):
    epsilon: int
    component_counts: tuple[tuple[int, int], ...]  # (cp, components)
    pattern_totals: tuple[tuple[str, int], ...]  # kind -> records, KINDS order
    longterm_maxima: tuple[tuple[str, int], ...]  # kind -> cps


def epsilon_sweep(events, config: RunConfig, epsilons) -> list[SweepRow]:
    """Re-run the pipeline per epsilon over the shared sorted stream.

    The rows hold only final totals, which both modes agree on, so
    every re-run is finalized whatever config.mode says."""
    rows = []
    for epsilon in epsilons:
        params = Params(
            epsilon=epsilon, m=config.params.m, mu=config.params.mu
        )
        result = run(events, RunConfig(params=params))
        components = tuple(
            (stat.cp, stat.n_components) for stat in result.stats
        )
        totals = result.pattern_totals()
        rows.append(
            SweepRow(
                epsilon=epsilon,
                component_counts=components,
                pattern_totals=tuple((kind, totals[kind]) for kind in KINDS),
                longterm_maxima=tuple(
                    sorted(result.longterm_maxima().items())
                ),
            )
        )
    return rows
