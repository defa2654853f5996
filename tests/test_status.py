"""Athlete-facing readers and per-cp stats against a rebuild.

Positions, histories, last crossings, the default ranking and pace
jumps are read off the engine's columns; oracles.py rebuilds every
athlete's history from the definitions and scans it.  The per-cp
stats are rebuilt from the accepted crossings alone.  The streams are
messy on purpose: duplicate crossings, skipped and backfilled control
points, times that do not increase and equal timestamps, fed in random
ingest() batches, in both modes.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from racegroups.core import Event, Mu, Params
from racegroups.grouping import ABSENT, ANOMALY_PACE, OUTLIER, PENDING
from racegroups.oracles import oracle_histories, oracle_pace_jumps, oracle_position
from racegroups.pipeline import MODES, GroupStats, RaceAnalysis, RunConfig


def _token(cp: int, code: int) -> str:
    if code >= 0:
        return f"g{cp}.{code}"
    return {OUTLIER: "solo", PENDING: "pending"}.get(code, "absent")


def _paces(codes, times, course):
    """Minutes per kilometer from the first and from the second-to-last
    crossed course point to the last one."""
    series = [
        (times[cp], meters)
        for cp, meters in sorted((course or {}).items())
        if cp < len(codes) and codes[cp] != ABSENT
    ]
    if len(series) < 2:
        return None, None
    (t0, d0), (t_prev, d_prev), (t, d) = series[0], series[-2], series[-1]
    return (
        pytest.approx(float(Fraction(t - t0, 60 * (d - d0)))),
        pytest.approx(float(Fraction(t - t_prev, 60 * (d - d_prev)))),
    )


@st.composite
def messy_races(draw):
    """A time-ordered stream, its batch cuts, parameters, a course over
    some of its control points and a mode.  Each athlete walks the
    course mostly one control point at a time, at a drawn pace per
    step; a step may also repeat its point (a duplicate, or a time that
    does not increase), skip one or go back to one already passed."""
    n_cps = 6
    events = []
    for athlete in range(draw(st.integers(1, 10))):
        cp = draw(st.integers(0, 1))
        t = draw(st.integers(0, 8))
        steps = draw(
            st.lists(
                st.tuples(st.sampled_from([1, 1, 1, 1, 0, 2, -1]), st.integers(0, 8)),
                max_size=n_cps + 1,
            )
        )
        for d_cp, d_t in [(0, 0)] + steps:
            cp, t = max(0, cp + d_cp), t + d_t
            events.append(Event(athlete, cp, t * 700))  # ties are common
    # a stable sort: equal times keep the athletes' order
    events.sort(key=lambda e: e.time)
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=4)))
    params = Params(
        epsilon=draw(st.sampled_from([0, 700, 1400, 2000])),
        m=draw(st.integers(1, 4)),
        mu=Mu(7, 10),
    )
    n_points = 2 * n_cps + 2  # far enough for any walk
    on_course = draw(st.lists(st.booleans(), min_size=n_points, max_size=n_points))
    steps = draw(st.lists(st.integers(1, 3000), min_size=n_points, max_size=n_points))
    course = {cp: m for cp, m in enumerate(accumulate(steps)) if on_course[cp]}
    factor = draw(st.sampled_from([Fraction(3, 2), Fraction(11, 10), Fraction(3)]))
    mode = draw(st.sampled_from(MODES))
    return events, cuts, RunConfig(params, mode, course or None, factor)


def _check(analysis: RaceAnalysis, fed: list[Event], finalized: bool) -> None:
    config = analysis.config
    histories = oracle_histories(fed, config.params, finalized)
    engine = analysis.engine
    assert engine.n_athletes() == len(histories)
    for athlete, (codes, times) in histories.items():
        assert engine.history(athlete) == (codes, times)
        status = analysis.athlete_status(athlete)
        assert status.position == oracle_position(histories, athlete)
        assert (status.last_cp, status.last_time) == (len(codes) - 1, times[-1])
        assert status.history == tuple(_token(cp, c) for cp, c in enumerate(codes))
        assert (status.average_pace, status.segment_pace) == _paces(
            codes, times, config.course
        )
    ranked = sorted(
        histories,
        key=lambda a: (-(len(histories[a][0]) - 1), histories[a][1][-1], a),
    )
    assert engine.leaders(3) == ranked[:3]
    # read off the ranking leaders() just made
    for athlete in ranked[:3]:
        assert engine.position(athlete) == oracle_position(histories, athlete)
    pace = [(r.athlete, r.cp) for r in analysis.anomalies() if r.kind == ANOMALY_PACE]
    if config.course is None:
        assert pace == []
    else:
        assert pace == oracle_pace_jumps(histories, config.course, config.pace_factor)


def _walks(walks: dict[int, list[tuple[int, int]]], course: dict[int, int]):
    """A race from each athlete's (cp, time) crossings, cut once, with
    the default pace factor 3/2."""
    events = sorted(
        (Event(a, cp, t) for a, walk in walks.items() for cp, t in walk),
        key=lambda e: e.time,
    )
    return events, [len(events) // 2], RunConfig(Params(700, 1, Mu(7, 10)), course=course)


def _course(n_points: int) -> dict[int, int]:
    return {cp: 1000 * cp for cp in range(n_points)}


@given(race=messy_races())
# every athlete crosses every course point; athlete 1 jumps at cp 3
@example(
    race=_walks(
        {
            0: [(0, 0), (1, 1000), (2, 2000), (3, 3000)],
            1: [(0, 0), (1, 1000), (2, 2000), (3, 5000)],
            2: [(0, 0), (1, 1100), (2, 2200), (3, 3300)],
        },
        _course(4),
    )
)
# segments at exactly the factor times the average and exactly the
# average over the factor: neither is a jump
@example(
    race=_walks(
        {
            0: [(0, 0), (1, 1000), (2, 2000), (3, 3500)],
            1: [(0, 0), (1, 1500), (2, 3000), (3, 4000)],
        },
        _course(4),
    )
)
# athlete 1 stops after a jump at cp 2 and athlete 0 speeds up at cp 4;
# nobody reaches course point 5
@example(
    race=_walks(
        {
            0: [(0, 0), (1, 1000), (2, 2000), (3, 3000), (4, 3300)],
            1: [(0, 0), (1, 1000), (2, 2600)],
        },
        _course(6),
    )
)
# athlete 0 skips course point 1 and jumps at cp 4
@example(
    race=_walks(
        {
            0: [(0, 0), (2, 2000), (3, 3000), (4, 3300)],
            1: [(0, 0), (1, 1000), (2, 2000), (3, 3000), (4, 4000)],
        },
        _course(5),
    )
)
@example(
    # a skipped cp, a backfill of it, a duplicate and a time that does
    # not increase, all for athlete 0; the course skips cp 1
    race=(
        [
            Event(0, 0, 0),
            Event(1, 0, 0),
            Event(0, 2, 700),
            Event(0, 1, 1400),
            Event(1, 1, 1400),
            Event(0, 2, 2100),
            Event(1, 2, 2100),
            Event(0, 3, 2100),
            Event(1, 3, 9100),
            Event(0, 3, 9800),
        ],
        [3, 7],
        RunConfig(Params(700, 1, Mu(7, 10)), course={0: 0, 2: 900, 3: 1000}),
    )
)
@settings(max_examples=150, deadline=None)
def test_readers_match_per_athlete_rebuild(race):
    events, cuts, config = race
    analysis = RaceAnalysis(config)
    start = 0
    for cut in cuts + [len(events)]:
        analysis.ingest(events[start:cut])
        start = max(start, cut)
        _check(analysis, events[:start], finalized=False)
    analysis.finalize()
    _check(analysis, events, finalized=True)


def _expected_stats(fed: list[Event], params: Params, finalized: bool) -> list[GroupStats]:
    """Per control point with a crossing: the accepted crossings (those
    oracle_histories does not mark ABSENT), sorted by time and split
    into runs at gaps over epsilon.  Every run is a component; all but
    the last have finished, and the last too once finalized.  A finished
    run of at least m is a group, a shorter one's athletes are outliers."""
    at_cp: dict[int, list[int]] = defaultdict(list)
    for codes, times in oracle_histories(fed, params, finalized).values():
        for cp, (code, t) in enumerate(zip(codes, times)):
            if code != ABSENT:
                at_cp[cp].append(t)
    stats = []
    for cp, crossings in sorted(at_cp.items()):
        runs: list[list[int]] = []
        for t in sorted(crossings):
            if not runs or t - runs[-1][-1] > params.epsilon:
                runs.append([])
            runs[-1].append(t)
        done = [len(run) for run in (runs if finalized else runs[:-1])]
        groups = [size for size in done if size >= params.m]
        stats.append(
            GroupStats(
                cp=cp,
                n_components=len(runs),
                n_groups=len(groups),
                n_outliers=sum(done) - sum(groups),
                largest_group=max(groups, default=0),
                crossed=len(crossings),
            )
        )
    return stats


@given(race=messy_races())
@settings(max_examples=100, deadline=None)
def test_group_stats_match_runs_of_accepted_crossings(race):
    events, cuts, config = race
    for mode in MODES:
        analysis = RaceAnalysis(RunConfig(config.params, mode))
        start = 0
        for cut in cuts + [len(events)]:
            analysis.ingest(events[start:cut])
            start = max(start, cut)
            fed = events[:start]
            assert analysis.group_stats() == _expected_stats(fed, config.params, False)
        analysis.finalize()
        assert analysis.group_stats() == _expected_stats(events, config.params, True)
