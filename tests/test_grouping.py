"""Streaming engine: components, groups, histories, anomaly handling."""

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pair_from_memberships
from racegroups.core import Event, Mu, Params
from racegroups.evolution import PairGraph
from racegroups.grouping import (
    _SLOT_BLOCK,
    ABSENT,
    OUTLIER,
    PENDING,
    AnomalyRecord,
    Group,
    GroupingEngine,
    StreamOrderError,
)
from racegroups.oracles import oracle_groups, oracle_histories, oracle_position
from racegroups.pipeline import RaceAnalysis, RunConfig


def params(epsilon=2000, m=3, mu=Mu(7, 10)):
    return Params(epsilon=epsilon, m=m, mu=mu)


def outliers_at(eng, cp):
    """The athletes whose code at cp reads OUTLIER, in first-seen order."""
    return [a for a, _, _, codes in eng.crossing_rows([cp]) if codes[0] == OUTLIER]


def seconds_stream(cp, times_s, first_athlete=0):
    return [
        Event(first_athlete + i, cp, t * 1000) for i, t in enumerate(times_s)
    ]


class TestIngest:
    def test_three_second_gap_splits_two_groups(self):
        eng = GroupingEngine(params(epsilon=2000, m=3))
        outs = []
        eng.ingest_many(seconds_stream(0, [0, 1, 2, 5, 6, 7]), on_finish=outs.append)
        eng.finalize_all(on_finish=outs.append)
        assert [o.group.members for o in outs if o.group] == [(0, 1, 2), (3, 4, 5)]
        # one member tuple per component, shared with its group
        assert all(o.group.members is o.members for o in outs)
        assert [g.id for g in eng.groups_at(0)] == [(0, 0), (0, 1)]

    def test_below_threshold_component_marks_outliers(self):
        eng = GroupingEngine(params(epsilon=2000, m=7))
        outs = []
        eng.ingest_many(seconds_stream(0, [0, 1, 2, 3, 4, 5]), on_finish=outs.append)
        eng.finalize_all(on_finish=outs.append)
        assert outs[0].group is None
        assert eng.groups_at(0) == []
        assert sorted(outliers_at(eng, 0)) == [0, 1, 2, 3, 4, 5]
        for a in range(6):
            assert eng.history(a)[0] == [OUTLIER]

    def test_epsilon_zero_groups_same_clock_second(self):
        # second-resolution input: crossings within the same clock second
        # share a timestamp, so epsilon=0 still connects them
        eng = GroupingEngine(params(epsilon=0, m=2))
        eng.ingest_many(
            [Event(0, 0, 5000), Event(1, 0, 5000), Event(2, 0, 6000)]
        )
        eng.finalize_all()
        assert [g.members for g in eng.groups_at(0)] == [(0, 1)]
        assert outliers_at(eng, 0) == [2]

    def test_boundary_gap_exactly_epsilon_connects(self):
        eng = GroupingEngine(params(epsilon=2000, m=2))
        eng.ingest_many([Event(0, 0, 0), Event(1, 0, 2000)])
        eng.finalize_all()
        assert len(eng.groups_at(0)) == 1

    def test_stream_order_enforced(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 1000)])
        with pytest.raises(StreamOrderError):
            eng.ingest_many([Event(1, 0, 999)])

    def test_negative_control_point_raises(self):
        eng = GroupingEngine(params())
        # an athlete never seen: no history is left behind
        with pytest.raises(ValueError, match=r"-1 for athlete 1 at time 5"):
            eng.ingest_many([Event(1, -1, 5)])
        assert eng.n_athletes() == 0
        with pytest.raises(KeyError):
            eng.history(1)
        # an athlete seen once: neither misfiled as a duplicate crossing
        # nor counted, and the events before it in the batch are kept
        eng.ingest_many([Event(1, 0, 7)])
        with pytest.raises(ValueError, match=r"-1 for athlete 1 at time 9"):
            eng.ingest_many([Event(2, 0, 8), Event(1, -1, 9)])
        assert eng.anomalies == []
        assert (eng.events_accepted, eng.events_rejected) == (2, 0)
        assert eng.history(1) == ([PENDING], [7])
        assert eng.history(2) == ([PENDING], [8])
        eng.ingest_many([Event(3, 0, 10)])
        eng.finalize_all()
        assert [g.members for g in eng.groups_at(0)] == [(1, 2, 3)]

    def test_raising_callback_leaves_a_sound_state(self):
        # the third event finishes the first component and the callback
        # raises: the event still counts, stream time still advances and
        # the finished component is not finished again
        def fail(finished):
            raise RuntimeError("callback failed")

        eng = GroupingEngine(params(epsilon=10, m=2))
        with pytest.raises(RuntimeError):
            eng.ingest_many(
                [Event(1, 0, 0), Event(2, 0, 5), Event(3, 0, 100)], on_finish=fail
            )
        assert (eng.events_accepted, eng.events_rejected) == (3, 0)
        with pytest.raises(StreamOrderError):
            eng.ingest_many([Event(4, 0, 50)])
        eng.finalize_all()
        assert [g.members for g in eng.groups_at(0)] == [(1, 2)]
        assert outliers_at(eng, 0) == [3]
        assert eng.n_components_at(0) == 2

    def test_equal_timestamps_processed_in_input_order(self):
        eng = GroupingEngine(params(epsilon=0, m=2))
        eng.ingest_many([Event(5, 0, 100), Event(3, 0, 100)])
        eng.finalize_all()
        assert eng.groups_at(0)[0].members == (5, 3)


class TestAnomalies:
    def test_duplicate_event_rejected(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 0), Event(0, 1, 1000), Event(0, 1, 2000)])
        kinds = [(a.kind, a.cp) for a in eng.anomalies]
        assert ("duplicate-event", 1) in kinds
        assert eng.events_rejected == 1
        assert eng.events_accepted == 2

    def test_repeated_rejection_recorded_once(self):
        eng = GroupingEngine(params())
        crossing = Event(0, 0, 0)
        eng.ingest_many([crossing, crossing])
        eng.ingest_many([crossing])
        details = "event at t=0 after cp 0 was recorded"
        assert eng.anomalies == [AnomalyRecord(0, "duplicate-event", 0, details)]
        assert eng.events_rejected == 2
        assert eng.events_accepted == 1

    def test_skipped_cp_recorded_once(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 0), Event(0, 2, 1000)])
        assert eng.anomalies == [
            AnomalyRecord(0, "skipped-cp", 1, "no crossing recorded")
        ]
        assert eng.history(0)[0][1] == ABSENT

    def test_backfilling_a_skipped_cp_is_an_order_violation(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 0), Event(0, 2, 1000), Event(0, 1, 2000)])
        kinds = [(a.kind, a.cp) for a in eng.anomalies]
        assert ("order-violation", 1) in kinds
        assert eng.history(0)[0][1] == ABSENT  # rejected, entry untouched

    def test_non_increasing_athlete_time_rejected(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 1000), Event(1, 0, 1000), Event(0, 1, 1000)])
        assert [a.kind for a in eng.anomalies] == ["order-violation"]
        assert eng.history(0)[0] == [PENDING]  # cp 1 never recorded

    def test_rejected_events_do_not_touch_components(self):
        eng = GroupingEngine(params(epsilon=1000, m=2))
        eng.ingest_many([Event(0, 0, 0), Event(1, 0, 500), Event(0, 0, 900)])
        eng.finalize_all()
        assert eng.groups_at(0)[0].members == (0, 1)


class TestHistories:
    def test_group_then_outlier(self):
        eng = GroupingEngine(params(epsilon=2000, m=3))
        events = seconds_stream(0, [0, 1, 2]) + [
            Event(0, 1, 100_000),
            Event(1, 1, 101_000),
            Event(2, 1, 110_000),  # isolated at cp 1
            Event(0, 2, 200_000),
            Event(1, 2, 201_000),
            Event(2, 2, 202_000),
        ]
        eng.ingest_many(events)
        eng.finalize_all()
        assert eng.history(2)[0] == [0, OUTLIER, 0]

    def test_pending_while_component_active(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(7, 0, 0)])
        # one entry: cp 1 is not crossed yet
        assert eng.history(7)[0] == [PENDING]

    def test_absent_for_skipped(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 0), Event(0, 2, 1000)])
        assert eng.history(0)[0] == [PENDING, ABSENT, PENDING]

    def test_unknown_athlete(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 0)])
        with pytest.raises(KeyError):
            eng.history(99)


class TestFinalizeAll:
    def test_single_component_at_threshold(self):
        eng = GroupingEngine(params(m=3))
        eng.ingest_many(seconds_stream(0, [0, 1, 2]))
        outs = []
        eng.finalize_all(on_finish=outs.append)
        assert len(outs) == 1 and outs[0].group is not None
        assert outs[0].group.size == 3

    def test_empty_state(self):
        outs = []
        GroupingEngine(params()).finalize_all(on_finish=outs.append)
        assert outs == []

    def test_one_notification_per_active_cp(self):
        eng = GroupingEngine(params())
        eng.ingest_many([Event(0, 0, 0), Event(0, 1, 1000), Event(0, 2, 2000)])
        outs = []
        eng.finalize_all(on_finish=outs.append)
        assert [o.cp for o in outs] == [0, 1, 2]

    def test_raising_callback_finishes_nothing_twice(self):
        def fail(finished):
            raise RuntimeError("callback failed")

        eng = GroupingEngine(params(epsilon=10, m=2))
        eng.ingest_many([Event(1, 0, 0), Event(2, 0, 5), Event(1, 1, 1000)])
        with pytest.raises(RuntimeError):
            eng.finalize_all(on_finish=fail)
        outs = []
        eng.finalize_all(on_finish=outs.append)
        # cp 0 was finished before the callback raised; only cp 1 is left
        assert [o.cp for o in outs] == [1]
        assert [g.members for g in eng.groups_at(0)] == [(1, 2)]
        assert eng.n_components_at(0) == 1

    def test_no_ingest_after_broom_wagon(self):
        eng = GroupingEngine(params())
        eng.finalize_all()
        with pytest.raises(StreamOrderError):
            eng.ingest_many([Event(0, 0, 0)])


class TestAccessors:
    def test_empty_cp(self):
        eng = GroupingEngine(params())
        assert eng.groups_at(5) == []
        assert eng.n_components_at(5) == 0
        assert eng.n_crossed_at(5) == 0

    def test_components_include_active(self):
        eng = GroupingEngine(params(epsilon=1000, m=2))
        eng.ingest_many([Event(0, 0, 0), Event(1, 0, 100), Event(2, 0, 5000)])
        assert eng.n_components_at(0) == 2
        assert eng.n_crossed_at(0) == 3

    def test_second_finisher_counts_the_shared_members(self):
        eng = GroupingEngine(params(epsilon=1000, m=2))
        outs = []
        eng.ingest_many(
            [
                Event(0, 0, 0),
                Event(1, 0, 100),
                Event(0, 1, 5000),
                Event(1, 1, 5100),
                Event(2, 0, 9000),  # finishes group 0.0
                Event(2, 1, 20000),  # finishes group 1.0
                Event(3, 1, 30000),
                Event(4, 1, 30100),
                Event(3, 2, 30200),
                Event(4, 2, 30300),
                Event(5, 2, 40000),  # finishes group 2.0 while 1.1 is open
            ],
            on_finish=outs.append,
        )
        eng.finalize_all(on_finish=outs.append)
        reports = [
            (o.group.id, o.before, o.after) for o in outs if o.group is not None
        ]
        assert reports == [
            ((0, 0), {}, {}),  # athletes 0 and 1 still open at cp 1
            ((1, 0), {0: 2}, {}),
            ((2, 0), {}, {}),  # athletes 3 and 4 still open at cp 1
            ((1, 1), {}, {0: 2}),
        ]
        # athletes 2 and 5 were outliers: a failed component counts nothing
        failed = [(o.before, o.after) for o in outs if o.group is None]
        assert failed == [({}, {})] * 3

    def test_leader_positions_last_until_the_next_crossing(self):
        eng = GroupingEngine(params(epsilon=100, m=1))
        seen = []

        def on_finish(_):
            seen.append((eng.position(0), eng.position(1)))
            eng.leaders(2)

        eng.ingest_many(
            [
                Event(0, 0, 0),
                Event(1, 0, 1000),  # finishes {0} at cp 0
                Event(1, 1, 2000),  # 1 overtakes 0
                Event(2, 0, 3000),  # finishes {1} at cp 0
            ],
            on_finish=on_finish,
        )
        assert seen == [(1, 2), (2, 1)]
        assert eng.leaders(2) == [1, 0]
        eng.ingest_many([Event(0, 1, 4000), Event(0, 2, 5000)])
        assert (eng.position(0), eng.position(1), eng.position(2)) == (1, 2, 3)

    def test_group_count_bounded_by_n_over_m(self):
        eng = GroupingEngine(params(epsilon=0, m=2))
        events = [Event(i, 0, i * 10_000) for i in range(10)]
        eng.ingest_many(events)
        eng.finalize_all()
        assert len(eng.groups_at(0)) <= 10 // 2


class TestGroupValue:
    def test_repr_and_derived_fields(self):
        group = Group((3, 1), (7, 2, 9), 1000, 2500)
        # the benchmark's output digest hashes reprs like this one
        assert repr(group) == (
            "Group(id=(3, 1), members=(7, 2, 9), t_first=1000, t_last=2500)"
        )
        assert (group.cp, group.ordinal, group.size) == (3, 1, 3)
        assert group.member_set() == frozenset({2, 7, 9})
        assert group == Group((3, 1), (7, 2, 9), 1000, 2500)
        assert group != Group((3, 1), (7, 2, 9), 1000, 2600)


# -- spare column capacity against the per-athlete rebuild --------------


def _late_field():
    """A field of 1,100 athletes, past the columns' first two capacity
    blocks.  The first half crosses cps 0-7 from t=0; the second half is
    first seen at t=3,000,000 ms, when the first has passed cps 0-5, some
    of it first at cp 3, so its slots grow the columns.  A fifth of the
    second half then skips cp 8 and crosses cp 9: both columns are first
    made after the last growth.  Every athlete skips about one cp in
    twenty."""
    rng = random.Random(12)
    n = 1100
    events = []
    for athlete in range(n):
        late = athlete >= n // 2
        start = 3_000_000 if late else 0
        first_cp = rng.choice((0, 0, 0, 3)) if late else 0
        last_cp = 9 if late and athlete % 5 == 0 else 7
        offset = start + rng.randrange(400_000)
        for cp in range(first_cp, last_cp + 1):
            if cp == 8 or (cp > first_cp and rng.random() < 0.05):
                continue
            events.append(Event(athlete, cp, offset + cp * 500_000 + rng.randrange(3000)))
    events.sort(key=lambda e: e.time)
    return events


def _expected_pairs(histories, mu):
    """Per left cp, the pair graph of the finished groups in the
    histories."""
    members = defaultdict(lambda: defaultdict(set))  # cp -> ordinal -> set
    for athlete, (codes, _) in histories.items():
        for cp, code in enumerate(codes):
            if code >= 0:
                members[cp][code].add(athlete)
    lefts = set(members) | {cp - 1 for cp in members if cp > 0}
    expected = {}
    for cp in lefts:
        left = [members[cp][o] for o in range(len(members[cp]))]
        right = [members[cp + 1][r] for r in range(len(members[cp + 1]))]
        expected[cp] = pair_from_memberships(cp, left, right, mu)
    return expected


def _check_readers(analysis, fed, finalized):
    engine = analysis.engine
    histories = oracle_histories(fed, analysis.config.params, finalized)
    assert engine.n_athletes() == len(histories)
    for athlete, history in histories.items():
        assert engine.history(athlete) == history
    # a sample: each position call scans the whole field
    for athlete in list(histories)[::23] + list(histories)[-5:]:
        assert engine.position(athlete) == oracle_position(histories, athlete)
    ranked = sorted(
        histories,
        key=lambda a: (-(len(histories[a][0]) - 1), histories[a][1][-1], a),
    )
    assert engine.leaders(10) == ranked[:10]
    for athlete in ranked[:10]:
        assert engine.position(athlete) == oracle_position(histories, athlete)
    cps = range(0, 11, 2)
    n_columns = max(len(codes) for codes, _ in histories.values())
    present = [cp for cp in cps if cp < n_columns]
    rows = list(engine.crossing_rows(cps))
    assert [(athlete, passed) for athlete, passed, _, _ in rows] == [
        (athlete, len(codes)) for athlete, (codes, _) in histories.items()
    ]
    for athlete, passed, row_times, row_codes in rows:
        codes, times = histories[athlete]
        assert len(row_times) == len(row_codes) == len(present)
        for cp, t, code in zip(present, row_times, row_codes):
            crossed = cp < passed and code != ABSENT
            if cp < len(codes) and codes[cp] != ABSENT:
                assert (crossed, t, code) == (True, times[cp], codes[cp])
            else:
                assert (crossed, t) == (False, -1)
    mu = analysis.config.params.mu
    expected = _expected_pairs(histories, mu)
    for cp in set(expected) | set(analysis.stack.pairs):
        got = analysis.stack.pairs.get(cp) or PairGraph(cp, mu)
        want = expected.get(cp) or PairGraph(cp, mu)
        assert (got.left_sizes, got.right_sizes) == (want.left_sizes, want.right_sizes)
        assert (got.fwd, got.bwd) == (want.fwd, want.bwd)
        for ins in ("fwd_in", "bwd_in"):
            assert {k: sorted(v) for k, v in getattr(got, ins).items()} == {
                k: sorted(v) for k, v in getattr(want, ins).items()
            }


def test_spare_column_capacity_stays_invisible():
    events = _late_field()
    analysis = RaceAnalysis(RunConfig(Params(epsilon=2000, m=3, mu=Mu(7, 10))))
    cuts = sorted(random.Random(5).sample(range(1, len(events)), 8))
    start = 0
    for cut in cuts + [len(events)]:
        analysis.ingest(events[start:cut])
        start = cut
        _check_readers(analysis, events[:cut], finalized=False)
    analysis.finalize()
    _check_readers(analysis, events, finalized=True)
    # the field outgrew the first blocks, and cps 8 and 9 were made after
    assert analysis.engine.n_athletes() > 2 * _SLOT_BLOCK
    assert analysis.engine.history(events[-1].athlete)[0][8] == ABSENT


# -- randomized equivalence with the brute-force oracle ---------------

event_streams = st.lists(
    st.tuples(
        st.integers(0, 30),  # athlete
        st.integers(0, 5),  # cp
        st.integers(0, 50),  # coarse time step
    ),
    min_size=0,
    max_size=120,
)


def _clean_stream(raw):
    """Deduplicate (athlete, cp), enforce per-athlete monotonicity, sort."""
    raw = sorted(set((t * 700, cp, a) for a, cp, t in raw))
    seen: dict[int, list] = {}
    events = []
    for t, cp, a in raw:
        state = seen.setdefault(a, [-1, -1])
        if cp <= state[0] or t <= state[1]:
            continue
        state[0], state[1] = cp, t
        events.append(Event(a, cp, t))
    events.sort(key=lambda e: (e.time, e.cp, e.athlete))
    return events


@given(raw=event_streams, eps=st.integers(0, 3000), m=st.integers(1, 6))
@settings(max_examples=300, deadline=None)
def test_streaming_matches_oracle(raw, eps, m):
    events = _clean_stream(raw)
    p = params(epsilon=eps, m=m)
    eng = GroupingEngine(p)
    eng.ingest_many(events)
    eng.finalize_all()
    expected = oracle_groups(events, p)
    for cp, exp_groups in expected.items():
        got = [
            (g.member_set(), g.t_first, g.t_last) for g in eng.groups_at(cp)
        ]
        assert got == exp_groups
    # streams may start an athlete mid-course (skipped-cp is fine) but
    # must never trip the duplicate/order rejections
    assert all(a.kind == "skipped-cp" for a in eng.anomalies)


@given(raw=event_streams, eps=st.integers(0, 3000), m=st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_partition_and_gap_law(raw, eps, m):
    events = _clean_stream(raw)
    p = params(epsilon=eps, m=m)
    eng = GroupingEngine(p)
    eng.ingest_many(events)
    eng.finalize_all()
    crossed: dict[int, set[int]] = {}
    for e in events:
        crossed.setdefault(e.cp, set()).add(e.athlete)
    for cp, everyone in crossed.items():
        in_groups = [a for g in eng.groups_at(cp) for a in g.members]
        assert len(in_groups) == len(set(in_groups))  # no double membership
        assert set(in_groups) | set(outliers_at(eng, cp)) == everyone
        for g in eng.groups_at(cp):
            times = sorted(eng.history(a)[1][cp] for a in g.members)
            assert all(b - a <= eps for a, b in zip(times, times[1:]))
        # consecutive groups are separated by more than epsilon
        gs = eng.groups_at(cp)
        for g1, g2 in zip(gs, gs[1:]):
            assert g2.t_first - g1.t_last > eps


@given(raw=event_streams, m=st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_component_count_nonincreasing_in_epsilon(raw, m):
    events = _clean_stream(raw)
    counts = []
    for eps in (0, 500, 1400, 2800, 5600):
        p = params(epsilon=eps, m=1)  # m=1: every component is a group
        eng = GroupingEngine(p)
        eng.ingest_many(events)
        eng.finalize_all()
        counts.append({cp: len(eng.groups_at(cp)) for cp in eng.known_cps()})
    for small, big in zip(counts, counts[1:]):
        for cp, n in big.items():
            assert n <= small[cp]


@given(raw=event_streams, eps=st.integers(0, 3000), m=st.integers(1, 6), cut=st.integers(0, 120))
@settings(max_examples=100, deadline=None)
def test_crossed_counts_every_accepted_crossing(raw, eps, m, cut):
    """n_crossed_at counts component sizes, the active component
    included: mid-stream and after the broom wagon it equals the
    crossings fed so far at each control point."""
    events = _clean_stream(raw)
    eng = GroupingEngine(params(epsilon=eps, m=m))

    def assert_counts(fed):
        for cp in eng.known_cps():
            assert eng.n_crossed_at(cp) == sum(1 for e in fed if e.cp == cp)

    eng.ingest_many(events[:cut])
    assert_counts(events[:cut])
    eng.ingest_many(events[cut:])
    assert_counts(events)
    eng.finalize_all()
    assert_counts(events)
