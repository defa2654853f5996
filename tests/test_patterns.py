"""Branch classification, corner diagnostics, the online tracker and
snapshots read on demand."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    cohort_streams,
    complete_pairs,
    overlapping_streams,
    run_stream,
    slow_tail_streams,
)
from racegroups.core import Event, Mu, Params
from racegroups.evolution import EdgeAdded, PairGraph
from racegroups.grouping import FinishedComponent, Group
from racegroups.oracles import oracle_patterns
from racegroups.patterns import (
    APPEARS,
    COHERES,
    DISAPPEARS,
    DISBANDS,
    EXPANDS,
    FLAG_DOUBLE_SOURCE,
    FLAG_DOUBLE_TARGET,
    FLAG_UNCLASSIFIED,
    MERGES,
    SHRINKS,
    SPLITS,
    SURVIVES,
    IncompletePairError,
    PatternRecord,
    PatternSet,
    _pattern_set,
    classify_target,
    detect_patterns,
)
from racegroups.pipeline import MODE_ONLINE, MODES, RaceAnalysis, RunConfig
from racegroups.synth import GeneratorConfig, generate

MU = Mu(7, 10)

# A left group S (17 athletes) survives as T: 12 of them reach cp 1
# together with all 5 of the group L that is still crossing cp 0; the
# other 5 of S cross cp 1 as a spawned group of their own.  L stays
# open until the broom wagon, so its forward edge into T - which adds
# L to the absorbed list of the Survives(S, T) record that the spawned
# group owns too - arrives after both cp 1 groups are classified.
ABSORBED_AFTER_SPAWNED = sorted(
    [Event(a, 0, 1000 + 10 * a) for a in range(17)]
    + [Event(a, 0, 10000 + a) for a in range(100, 105)]
    + [
        Event(a, 1, 50000 + 10 * i)
        for i, a in enumerate([*range(12), *range(100, 105)])
    ]
    + [Event(a, 1, 60000 + a) for a in range(12, 17)]
    + [Event(200, 1, 70000)],
    key=lambda e: e.time,
)


def pair_of(left_sets, right_sets, mu=MU, left_cp=0):
    return PairGraph.from_memberships(left_cp, left_sets, right_sets, mu)


def kinds_of(pattern_set):
    return sorted(rec.kind for rec in pattern_set.records)


class TestRecordValues:
    """Records are compared, hashed, sorted and printed by value; the
    benchmark's output digest hashes their repr."""

    def test_repr_names_every_field(self):
        rec = PatternRecord(
            SURVIVES,
            (1, 2),
            source=(1, 0),
            target=(2, 0),
            sources=((1, 3),),
            targets=((2, 4),),
            absorbed=((1, 1),),
            spawned=((2, 3), (2, 5)),
        )
        assert repr(rec) == (
            "PatternRecord(kind='survives', pair=(1, 2), source=(1, 0), "
            "target=(2, 0), sources=((1, 3),), targets=((2, 4),), "
            "absorbed=((1, 1),), spawned=((2, 3), (2, 5)))"
        )
        assert repr(PatternRecord(APPEARS, (0, 1), target=(1, 0))) == (
            "PatternRecord(kind='appears', pair=(0, 1), source=None, "
            "target=(1, 0), sources=(), targets=(), absorbed=(), spawned=())"
        )

    def test_records_differing_only_in_spawned_are_distinct(self):
        one = PatternRecord(
            SURVIVES, (1, 2), source=(1, 0), target=(2, 0), spawned=((2, 3),)
        )
        two = PatternRecord(
            SURVIVES, (1, 2), source=(1, 0), target=(2, 0), spawned=((2, 3), (2, 4))
        )
        assert one != two
        assert len({one, two}) == 2
        assert one == PatternRecord(
            SURVIVES, (1, 2), source=(1, 0), target=(2, 0), spawned=((2, 3),)
        )

    def test_sort_order(self):
        # by pair, then kind in KINDS order, then source(s), then target(s)
        recs = [
            PatternRecord(SPLITS, (1, 2), source=(1, 5), targets=((2, 6), (2, 7))),
            PatternRecord(APPEARS, (1, 2), target=(2, 5)),
            PatternRecord(SURVIVES, (1, 2), source=(1, 0), target=(2, 0)),
            PatternRecord(DISAPPEARS, (1, 2), source=(1, 4)),
            PatternRecord(MERGES, (1, 2), sources=((1, 2), (1, 3)), target=(2, 1)),
            PatternRecord(EXPANDS, (0, 1), source=(0, 0), target=(1, 0)),
            PatternRecord(APPEARS, (1, 2), target=(2, 2)),
            PatternRecord(DISAPPEARS, (1, 2), source=(1, 1)),
            PatternRecord(COHERES, (1, 2), sources=((1, 6), (1, 7)), target=(2, 4)),
        ]
        ordered = sorted(recs, key=PatternRecord.sort_key)
        assert ordered == [recs[i] for i in (5, 6, 1, 7, 3, 2, 4, 0, 8)]


class TestClassifyTarget:
    def test_isolated_appears(self):
        pair = pair_of([set(range(100, 110))], [set(range(10))])
        rec = classify_target(pair, 0)
        assert rec == PatternRecord(APPEARS, (0, 1), target=(1, 0))

    def test_plain_survives(self):
        # one athlete swapped out of ten: strong in both directions
        pair = pair_of([set(range(1, 11))], [set(range(1, 10)) | {11}])
        rec = classify_target(pair, 0)
        assert rec.kind == SURVIVES
        assert rec.source == (0, 0) and rec.target == (1, 0)
        assert rec.absorbed == () and rec.spawned == ()

    def test_splits_then_disbands_as_mu_tightens(self):
        s = set(range(1, 21))
        t1 = set(range(1, 9)) | {21}
        t2 = set(range(9, 17)) | {22}
        rec = classify_target(pair_of([s], [t1, t2]), 1)
        assert rec.kind == SPLITS
        assert rec.source == (0, 0)
        assert rec.targets == ((1, 0), (1, 1))
        # 8 of 9 still clears 17/20 but the union 16 of 20 no longer does
        rec = classify_target(pair_of([s], [t1, t2], mu=Mu(17, 20)), 1)
        assert rec.kind == DISBANDS
        assert rec.targets == ((1, 0), (1, 1))

    def test_survives_and_absorbs(self):
        s = set(range(12))
        a = set(range(20, 27))
        t = s | set(range(20, 25))  # 12 survivors plus 5 of the 7
        pair = pair_of([s, a], [t])
        rec = classify_target(pair, 0)
        assert rec.kind == SURVIVES
        assert rec.source == (0, 0)
        assert rec.absorbed == ((0, 1),)
        assert rec.spawned == ()

    def test_survives_folds_spawned_target(self):
        s = set(range(17))
        t1 = set(range(12))
        t2 = set(range(12, 17)) | {90, 91}
        pair = pair_of([s], [t1, t2])
        main = classify_target(pair, 0)
        side = classify_target(pair, 1)
        # both targets resolve to the one Survives record
        assert main == side
        assert main.kind == SURVIVES
        assert main.target == (1, 0)
        assert main.spawned == ((1, 1),)

    def test_expands(self):
        pair = pair_of([set(range(10))], [set(range(9)) | {20, 21, 22, 23}])
        rec = classify_target(pair, 0)
        assert rec.kind == EXPANDS
        assert (rec.source, rec.target) == ((0, 0), (1, 0))

    def test_shrinks(self):
        pair = pair_of([set(range(13))], [set(range(8))])
        rec = classify_target(pair, 0)
        assert rec.kind == SHRINKS
        assert (rec.source, rec.target) == ((0, 0), (1, 0))

    def test_merges_vs_coheres(self):
        a = set(range(1, 11))
        b = set(range(11, 21))
        merged = set(range(1, 9)) | set(range(11, 19))
        rec = classify_target(pair_of([a, b], [merged]), 0)
        assert rec.kind == MERGES
        assert rec.sources == ((0, 0), (0, 1))
        # pad the target with 14 strangers: the union covers only 16/30
        loose = merged | set(range(30, 44))
        rec = classify_target(pair_of([a, b], [loose]), 0)
        assert rec.kind == COHERES
        assert rec.sources == ((0, 0), (0, 1))


def disappeared(pattern_set):
    return [rec.source for rec in pattern_set.records if rec.kind == DISAPPEARS]


class TestClassifySource:
    def test_isolated_disappears(self):
        result = detect_patterns(pair_of([set(range(10))], [set(range(100, 110))]))
        assert PatternRecord(DISAPPEARS, (0, 1), source=(0, 0)) in result.records

    def test_forward_edge_means_not_disappeared(self):
        result = detect_patterns(pair_of([set(range(10))], [set(range(9)) | {20}]))
        assert disappeared(result) == []

    def test_backward_only_is_owned_elsewhere(self):
        # shrink source: no forward edge, one backward child
        result = detect_patterns(pair_of([set(range(13))], [set(range(8))]))
        assert disappeared(result) == []
        assert kinds_of(result) == [SHRINKS]


class TestDetectPatterns:
    def test_two_merge_one_splits_in_three(self):
        a = set(range(1, 11))
        b = set(range(11, 21))
        s = set(range(21, 51))
        merged = set(range(1, 9)) | set(range(11, 19))
        t1 = set(range(21, 30)) | {51}
        t2 = set(range(30, 39)) | {52}
        t3 = set(range(39, 48)) | {53}
        result = detect_patterns(pair_of([a, b, s], [merged, t1, t2, t3]))
        assert kinds_of(result) == [MERGES, SPLITS]
        assert result.flags == ()
        by_kind = {rec.kind: rec for rec in result.records}
        assert by_kind[MERGES].sources == ((0, 0), (0, 1))
        assert by_kind[SPLITS].targets == ((1, 1), (1, 2), (1, 3))
        assert result.counts()[MERGES] == 1

    def test_empty_pair(self):
        result = detect_patterns(pair_of([], []))
        assert result.records == ()
        assert result.flags == ()

    def test_all_isolated(self):
        result = detect_patterns(
            pair_of([set(range(10))], [set(range(50, 60))])
        )
        assert kinds_of(result) == [APPEARS, DISAPPEARS]


class TestCornerFlags:
    def test_unclassified_source(self):
        l = {0, 1, 2, 3, 4, 50, 51}
        s = set(range(5, 19)) | set(range(60, 67))
        u = set(range(20))
        result = detect_patterns(pair_of([l, s], [u]))
        assert kinds_of(result) == [EXPANDS]
        assert result.records[0].source == (0, 0)
        assert result.flags == ((FLAG_UNCLASSIFIED, (0, 1)),)

    def test_doubly_owned_source(self):
        s = set(range(20))
        t = set(range(14)) | set(range(70, 77))
        u = set(range(14, 19)) | {80, 81}
        result = detect_patterns(pair_of([s], [t, u]))
        assert kinds_of(result) == [EXPANDS, SHRINKS]
        assert result.flags == ((FLAG_DOUBLE_SOURCE, (0, 0)),)

    def test_doubly_owned_target(self):
        s = set(range(17))
        l = {90, 91}
        t1 = set(range(12))
        t2 = set(range(12, 17)) | {90, 91}
        result = detect_patterns(pair_of([s, l], [t1, t2]))
        assert kinds_of(result) == [EXPANDS, SURVIVES]
        by_kind = {rec.kind: rec for rec in result.records}
        assert by_kind[SURVIVES].spawned == ((1, 1),)
        assert by_kind[EXPANDS].target == (1, 1)
        assert result.flags == ((FLAG_DOUBLE_TARGET, (1, 1)),)


def coverage_check(pattern_set, n_left, n_right):
    """Every group owns exactly one record, except where a corner flag
    says otherwise (0 for unclassified sources, 2 for doubly owned)."""
    lcp, rcp = pattern_set.pair
    flags = set(pattern_set.flags)
    for r in range(n_right):
        gid = (rcp, r)
        owners = sum(
            1
            for rec in pattern_set.records
            if rec.target == gid or gid in rec.targets or gid in rec.spawned
        )
        expected = 2 if (FLAG_DOUBLE_TARGET, gid) in flags else 1
        assert owners == expected, (gid, owners, expected)
    for o in range(n_left):
        gid = (lcp, o)
        owners = sum(
            1
            for rec in pattern_set.records
            if rec.source == gid or gid in rec.sources or gid in rec.absorbed
        )
        if (FLAG_UNCLASSIFIED, gid) in flags:
            expected = 0
        elif (FLAG_DOUBLE_SOURCE, gid) in flags:
            expected = 2
        else:
            expected = 1
        assert owners == expected, (gid, owners, expected)


@st.composite
def membership_pairs(draw):
    """Correlated random partitions of up to 40 athletes into groups on
    both sides of one pair."""
    n = draw(st.integers(0, 40))
    k = draw(st.integers(1, 5))
    left_of = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    stay = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    fresh = draw(st.lists(st.integers(0, k), min_size=n, max_size=n))
    right_of = [l if s else f for l, s, f in zip(left_of, stay, fresh)]
    left = [
        frozenset(i for i in range(n) if left_of[i] == g) for g in range(k)
    ]
    right = [
        frozenset(i for i in range(n) if right_of[i] == g) for g in range(k)
    ]
    return [s for s in left if s], [s for s in right if s]


class TestOracleAgreement:
    @settings(max_examples=400, deadline=None)
    @given(membership_pairs())
    def test_detector_matches_oracle(self, sets):
        left, right = sets
        got = detect_patterns(pair_of(left, right, left_cp=4))
        want, violations = oracle_patterns(left, right, MU, left_cp=4)
        assert violations == []
        assert got.records == want.records
        assert got.flags == want.flags

    @settings(max_examples=400, deadline=None)
    @given(membership_pairs())
    def test_coverage_with_corners(self, sets):
        left, right = sets
        result = detect_patterns(pair_of(left, right))
        coverage_check(result, len(left), len(right))
        reference, _ = oracle_patterns(left, right, MU)
        coverage_check(reference, len(left), len(right))

    @settings(max_examples=300, deadline=None)
    @given(membership_pairs())
    def test_merges_union_is_strong(self, sets):
        from racegroups.core import weakly_related

        left, right = sets
        result = detect_patterns(pair_of(left, right))
        for rec in result.records:
            if rec.kind == MERGES:
                union = frozenset().union(*(left[g[1]] for g in rec.sources))
                target = right[rec.target[1]]
                assert weakly_related(target, union, MU)
                assert weakly_related(union, target, MU)


class TestOnlineTracker:
    def test_provisional_appears_then_revised(self):
        # cp 0 stays an open component until the broom wagon, so the
        # cp 1 group that finishes mid-stream can only report Appears
        events = []
        for a in range(10):
            events.append(Event(a, 0, 1000 + a))
            events.append(Event(a, 1, 50000 + a))
        for a in range(20, 27):
            events.append(Event(a, 1, 90000 + a))
        events.sort(key=lambda e: e.time)
        params = Params(epsilon=2000, m=7, mu=MU)

        analysis = RaceAnalysis(RunConfig(params=params, mode=MODE_ONLINE))
        analysis.ingest(events)
        pair = analysis.stack.pair(0)
        with pytest.raises(IncompletePairError):
            analysis.pattern_sets()
        mid = analysis.tracker.snapshot(pair)
        assert not mid.finalized
        assert kinds_of(mid) == [APPEARS]

        analysis.finalize()
        final = analysis.tracker.seal([pair])[0]
        assert final.finalized
        assert kinds_of(final) == [APPEARS, SURVIVES]
        by_kind = {rec.kind: rec for rec in final.records}
        assert by_kind[SURVIVES].source == (0, 0)
        assert by_kind[SURVIVES].target == (1, 0)
        assert by_kind[APPEARS].target == (1, 1)
        assert detect_patterns(pair) == final

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(overlapping_streams(), slow_tail_streams()))
    @example((ABSORBED_AFTER_SPAWNED, Params(epsilon=2000, m=3, mu=MU)))
    def test_snapshot_after_every_group_matches_pair(self, case):
        """After every finished group, each pair it touched snapshots,
        records and flags, to a fresh classification of that pair's
        current state, which RaceAnalysis.snapshot reads too."""
        events, params = case
        analysis = RaceAnalysis(RunConfig(params=params, mode=MODE_ONLINE))
        tracker = analysis.tracker
        on_group = tracker.on_group

        def on_group_then_check(group, updates):
            on_group(group, updates)
            for pair, _ in updates:
                fresh = _pattern_set(
                    pair,
                    (classify_target(pair, r) for r in range(len(pair.right_sizes))),
                    finalized=False,
                )
                assert tracker.snapshot(pair) == fresh
                assert analysis.snapshot(pair.left_cp) == fresh

        tracker.on_group = on_group_then_check
        analysis.ingest(events)
        analysis.finalize()

    @settings(max_examples=200, deadline=None)
    @given(cohort_streams())
    def test_online_equals_finalized(self, case):
        events, params = case
        engine, stack, tracker = run_stream(events, params)
        pairs = complete_pairs(engine, stack)
        sealed = tracker.seal(pairs)
        for pair in pairs:
            assert sealed[pair.left_cp] == detect_patterns(pair)

    @settings(max_examples=100, deadline=None)
    @given(cohort_streams())
    def test_streamed_coverage(self, case):
        events, params = case
        engine, stack, tracker = run_stream(events, params)
        for pair in complete_pairs(engine, stack):
            coverage_check(
                detect_patterns(pair),
                len(pair.left_sizes),
                len(pair.right_sizes),
            )


@st.composite
def batched_races(draw):
    """One of the three race strategies, cut into ingest() batches, in
    either mode."""
    events, params = draw(
        st.one_of(cohort_streams(), overlapping_streams(), slow_tail_streams())
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(events)), max_size=4)))
    return events, cuts, RunConfig(params=params, mode=draw(st.sampled_from(MODES)))


def feed(analysis, events, cuts):
    """Ingest events in the batches the cuts make; yields after each."""
    start = 0
    for cut in cuts + [len(events)]:
        analysis.ingest(events[start:cut])
        start = max(start, cut)
        yield


class TestSnapshot:
    @settings(max_examples=150, deadline=None)
    @given(batched_races())
    def test_snapshot_after_finalize_is_detect_patterns(self, race):
        events, cuts, config = race
        analysis = RaceAnalysis(config)
        for _ in feed(analysis, events, cuts):
            pass
        analysis.finalize()
        pairs = analysis.pairs()
        for pair in pairs:
            assert analysis.snapshot(pair.left_cp) == detect_patterns(pair)
        assert analysis.pattern_sets() == {
            pair.left_cp: analysis.snapshot(pair.left_cp) for pair in pairs
        }

    @staticmethod
    def check_absent_pair(analysis, finalized):
        beyond = max(analysis.stack.pairs, default=0) + 1
        assert analysis.snapshot(beyond) == PatternSet(
            (beyond, beyond + 1), (), (), finalized
        )
        assert beyond not in analysis.stack.pairs

    @settings(max_examples=50, deadline=None)
    @given(batched_races())
    def test_absent_pair_reads_empty(self, race):
        events, cuts, config = race
        analysis = RaceAnalysis(config)
        for _ in feed(analysis, events, cuts):
            self.check_absent_pair(analysis, finalized=False)
        analysis.finalize()
        self.check_absent_pair(analysis, finalized=True)


def assert_whole(record, cls):
    """A record built with tuple.__new__ is exactly its class, with
    every field: that shortcut checks neither."""
    assert type(record) is cls
    assert len(record) == len(cls._fields)


class TestShortcutConstruction:
    """Groups, engine reports, relation edges and pattern records are
    built with tuple.__new__ on the hot paths, and pattern sets sorted
    by one integer key per record."""

    @staticmethod
    def check_set(pattern_set):
        for rec in pattern_set.records:
            assert_whole(rec, PatternRecord)
        assert pattern_set.records == tuple(
            sorted(pattern_set.records, key=PatternRecord.sort_key)
        )

    @settings(max_examples=200, deadline=None)
    @given(batched_races())
    @example(
        (ABSORBED_AFTER_SPAWNED, [20], RunConfig(Params(2000, 3, MU), mode=MODE_ONLINE))
    )
    def test_records_are_whole_and_sorted(self, race):
        events, cuts, config = race
        analysis = RaceAnalysis(config)
        dispatch, on_group = analysis._dispatch, analysis.stack.on_group

        def checked_dispatch(finished):
            assert_whole(finished, FinishedComponent)
            dispatch(finished)

        def checked_on_group(group, before, after):
            updates = on_group(group, before, after)
            for _, edges in updates:
                for edge in edges:
                    assert_whole(edge, EdgeAdded)
            return updates

        analysis._dispatch = checked_dispatch
        analysis.stack.on_group = checked_on_group
        for _ in feed(analysis, events, cuts):
            for left_cp, pair in analysis.stack.pairs.items():
                self.check_set(analysis.snapshot(left_cp))
                if analysis.tracker is not None:
                    self.check_set(analysis.tracker.snapshot(pair))
        analysis.finalize()
        for groups in analysis.engine.groups.values():
            for group in groups:
                assert_whole(group, Group)
        for pattern_set in analysis.pattern_sets().values():
            self.check_set(pattern_set)


def corner_race(levels):
    """A race whose groups at each control point are the given member
    sets: members cross 10 ms apart, groups 10 s apart, control points
    1,000 s apart, so at epsilon 2 s each set is one component."""
    events = []
    for cp, groups in enumerate(levels):
        for g, members in enumerate(groups):
            t = cp * 1_000_000 + g * 10_000
            events += [Event(a, cp, t + 10 * i) for i, a in enumerate(sorted(members))]
    return sorted(events, key=lambda e: e.time)


# the three configurations of TestCornerFlags, as races
CORNER_RACES = [
    corner_race(levels)
    for levels in (
        [[{0, 1, 2, 3, 4, 50, 51}, set(range(5, 19)) | set(range(60, 67))], [set(range(20))]],
        [[set(range(20))], [set(range(14)) | set(range(70, 77)), set(range(14, 19)) | {80, 81}]],
        [[set(range(17)), {90, 91}], [set(range(12)), set(range(12, 17)) | {90, 91}]],
    )
]


class TestSharedIds:
    """Records, flags and pattern sets name groups and pairs through the
    engine's own Group.id tuples and each pair's key, and build no new
    ones: finalized, online, mid-race and after the broom wagon."""

    @staticmethod
    def check_set(analysis, pattern_set, named):
        pair = analysis.stack.pairs[pattern_set.pair[0]]
        groups = analysis.engine.groups
        assert pattern_set.pair is pair.key
        for rec in pattern_set.records:
            assert rec.pair is pair.key
            for field in ("source", "target"):
                group_id = getattr(rec, field)
                if group_id is not None:
                    assert group_id is groups[group_id[0]][group_id[1]].id
                    named.add(field)
            for field in ("sources", "targets", "absorbed", "spawned"):
                for group_id in getattr(rec, field):
                    assert group_id is groups[group_id[0]][group_id[1]].id
                    named.add(field)
        for flag, group_id in pattern_set.flags:
            assert group_id is groups[group_id[0]][group_id[1]].id
            named.add(flag)

    def test_records_name_engine_ids(self):
        params = Params(epsilon=2000, m=2, mu=MU)
        scripted, _ = generate(GeneratorConfig(n_athletes=200, n_cps=8, params=params, seed=4))
        named: set[str] = set()
        for events in [scripted, ABSORBED_AFTER_SPAWNED, *CORNER_RACES]:
            for mode in MODES:
                analysis = RaceAnalysis(RunConfig(params=params, mode=mode))
                analysis.ingest(events[: len(events) // 2])
                for left_cp, pair in analysis.stack.pairs.items():
                    self.check_set(analysis, analysis.snapshot(left_cp), named)
                    if analysis.tracker is not None:
                        self.check_set(analysis, analysis.tracker.snapshot(pair), named)
                analysis.ingest(events[len(events) // 2 :])
                analysis.finalize()
                for left_cp, pattern_set in analysis.pattern_sets().items():
                    self.check_set(analysis, pattern_set, named)
                    self.check_set(analysis, analysis.snapshot(left_cp), named)
        assert named == {
            "source",
            "target",
            "sources",
            "targets",
            "absorbed",
            "spawned",
            FLAG_UNCLASSIFIED,
            FLAG_DOUBLE_SOURCE,
            FLAG_DOUBLE_TARGET,
        }
