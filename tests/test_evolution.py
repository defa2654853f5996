"""Pair graph tests: promotion thresholds, either side finishing
second, the engine's shared-member counts, and the streaming
construction against a from-scratch rebuild."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    cohort_streams,
    complete_pairs,
    overlapping_streams,
    pair_from_memberships,
    run_stream,
    slow_tail_streams,
)
from racegroups.core import Event, Mu, Params
from racegroups.evolution import PairGraph
from racegroups.grouping import GroupingEngine
from racegroups.oracles import oracle_groups

MU = Mu(7, 10)


def make_pair(left_sizes, mu=MU):
    pair = PairGraph(0, mu)
    for o, size in enumerate(left_sizes):
        pair.add_left((0, o), size, {})
    return pair


class TestPromotion:
    def test_strong_pair_promotes_both_directions(self):
        pair = make_pair([10])
        added = pair.add_right((1, 0), 10, {0: 9})
        assert added == [(0, 0, True), (0, 0, False)]
        assert pair.fwd[0] == 0 and pair.fwd_in[0] == ((0, 9),)
        assert pair.bwd[0] == 0 and pair.bwd_in[0] == ((0, 9),)

    def test_containment_promotes_forward_only(self):
        # a 4-athlete group fully inside a 12-athlete group: 4/4 covers,
        # 4/12 does not
        pair = make_pair([4])
        added = pair.add_right((1, 0), 12, {0: 4})
        assert added == [(0, 0, True)]
        assert pair.bwd == {}

    def test_exact_threshold_counts(self):
        # 7 of 10 at mu=7/10 is a relation; 6 of 10 is not
        pair = make_pair([10, 10])
        assert pair.add_right((1, 0), 100, {0: 7}) == [(0, 0, True)]
        assert pair.add_right((1, 1), 100, {1: 6}) == []

    def test_strong_partner(self):
        pair = make_pair([10, 4])
        pair.add_right((1, 0), 10, {0: 9})
        pair.add_right((1, 1), 12, {1: 4})
        assert pair.strong_partner_of_left(0) == 0
        assert pair.strong_partner_of_left(1) is None  # forward only


class TestTentative:
    """A right group finishes while its left partner is still open: the
    relation stays undecided until the left group finishes and brings
    the shared count."""

    def test_materialize_promotes(self):
        pair = PairGraph(0, MU)
        assert pair.add_right((1, 0), 10, {}) == []
        added = pair.add_left((0, 0), 10, {0: 7})
        # 7/10 covers in both directions at mu=7/10
        assert added == [(0, 0, True), (0, 0, False)]
        assert pair.fwd == {0: 0} and pair.bwd == {0: 0}
        assert pair.fwd_in == {0: ((0, 7),)} and pair.bwd_in == {0: ((0, 7),)}

    def test_two_right_groups_share_one_component(self):
        pair = PairGraph(0, MU)
        pair.add_right((1, 0), 10, {})
        pair.add_right((1, 1), 8, {})
        pair.add_left((0, 0), 9, {0: 3, 1: 6})
        # 6 of 9 misses mu, 6 of 8 covers it: backward edge only
        assert pair.fwd == {}
        assert pair.bwd == {1: 0} and pair.bwd_in == {0: ((1, 6),)}


class TestFromMemberships:
    def test_weights_are_intersections(self):
        left = [{1, 2, 3, 4}, {5, 6, 7}]
        right = [{1, 2, 3, 9}, {5, 6, 7, 8}]
        pair = pair_from_memberships(2, left, right, MU)
        # each shared count, 3 of 3 or of 4, covers mu = 7/10 both ways
        assert pair.fwd == {0: 0, 1: 1}
        assert pair.bwd == {0: 0, 1: 1}
        assert pair.fwd_in == {0: ((0, 3),), 1: ((1, 3),)}
        assert pair.bwd_in == {0: ((0, 3),), 1: ((1, 3),)}
        assert pair.left_sizes == [4, 3]
        assert pair.right_sizes == [4, 4]
        assert pair.right_cp == 3
        assert pair.left_ids == [(2, 0), (2, 1)]
        assert pair.right_ids == [(3, 0), (3, 1)]
        assert pair.key == (2, 3)


class TestGroupIds:
    def test_ids_kept_as_given(self):
        pair = PairGraph(4, MU)
        left, right = (4, 0), (5, 0)
        pair.add_left(left, 10, {})
        pair.add_right(right, 10, {0: 9})
        assert pair.left_ids[0] is left and pair.right_ids[0] is right

    def test_wrong_control_point_refused(self):
        pair = PairGraph(4, MU)
        for add, group_id in (
            (pair.add_left, (5, 0)),
            (pair.add_left, (3, 0)),
            (pair.add_right, (4, 0)),
            (pair.add_right, (6, 0)),
        ):
            with pytest.raises(ValueError):
                add(group_id, 10, {})
        assert pair.left_ids == pair.right_ids == []
        assert pair.left_sizes == pair.right_sizes == []

    def test_ordinal_out_of_turn_refused(self):
        pair = PairGraph(4, MU)
        with pytest.raises(ValueError):
            pair.add_left((4, 1), 10, {})
        pair.add_left((4, 0), 10, {})
        with pytest.raises(ValueError):
            pair.add_right((5, 1), 10, {})


def expected_pair(left_cp, left_groups, right_groups, mu):
    return pair_from_memberships(
        left_cp,
        [members for members, _, _ in left_groups],
        [members for members, _, _ in right_groups],
        mu,
    )


def assert_pairs_equal(got: PairGraph, want: PairGraph):
    assert got.left_cp == want.left_cp
    assert got.left_sizes == want.left_sizes
    assert got.right_sizes == want.right_sizes
    assert got.fwd == want.fwd
    assert got.bwd == want.bwd
    # in-lists accumulate in finalization order, which differs between
    # the streaming build and the rebuild; compare them as sets
    assert {k: sorted(v) for k, v in got.fwd_in.items() if v} == {
        k: sorted(v) for k, v in want.fwd_in.items() if v
    }
    assert {k: sorted(v) for k, v in got.bwd_in.items() if v} == {
        k: sorted(v) for k, v in want.bwd_in.items() if v
    }


def assert_stored_forms_agree(pair: PairGraph):
    # every out-map entry tail -> head has exactly one (tail, w) in the
    # in-list of head, and no in-list entry lacks its out-map entry
    for out, ins in ((pair.fwd, pair.fwd_in), (pair.bwd, pair.bwd_in)):
        stored = [(tail, head) for head, edges in ins.items() for tail, _ in edges]
        assert sorted(stored) == sorted(out.items())


def any_streams():
    return st.one_of(cohort_streams(), overlapping_streams(), slow_tail_streams())


# Right group 1.0 = {1, 2, 3, 4} finishes at t=5000 while 1 and 2 are
# still in the open component at cp 0.  That component fails, then
# {6, 7, 8} becomes group 0.0.  Nothing is shared: at mu = 3/5, a
# leftover count of 2 credited to 0.0 would make an edge (2 of 3).
FAILED_LEFT_COMPONENT = (
    [Event(1, 0, 0), Event(2, 0, 1000)]
    + [Event(a, 1, 1000 + 100 * a) for a in (1, 2, 3, 4)]
    + [Event(5, 1, 5000)]
    + [Event(a, 0, 5400 + 100 * a) for a in (6, 7, 8)],
    Params(epsilon=2000, m=3, mu=Mu(3, 5)),
)


class TestStreamingStack:
    def test_small_stream_matches_rebuild(self):
        # ten athletes cross cp 0 together; seven of them cross cp 1
        # together while the other three drift off with two newcomers
        events = []
        for a in range(10):
            events.append((a, 0, 1000 + a))
        for i, a in enumerate(range(7)):
            events.append((a, 1, 50000 + i))
        for i, a in enumerate([7, 8, 9, 10, 11]):
            events.append((a, 1, 60000 + i))
        params = Params(epsilon=2000, m=5, mu=MU)
        stream = sorted((Event(*e) for e in events), key=lambda e: e.time)
        engine, stack, _ = run_stream(stream, params)
        reference = oracle_groups(stream, params)
        pairs = complete_pairs(engine, stack)
        assert len(pairs) == 1
        assert_pairs_equal(
            pairs[0], expected_pair(0, reference[0], reference[1], MU)
        )
        # 7/10 forward, 7/7 backward: strong
        assert pairs[0].strong_partner_of_left(0) == 0

    @settings(max_examples=200, deadline=None)
    @given(any_streams())
    @example(FAILED_LEFT_COMPONENT)
    def test_streaming_matches_rebuild(self, case):
        events, params = case
        engine, stack, _ = run_stream(events, params)
        reference = oracle_groups(events, params)
        for pair in complete_pairs(engine, stack):
            want = expected_pair(
                pair.left_cp,
                reference.get(pair.left_cp, []),
                reference.get(pair.right_cp, []),
                params.mu,
            )
            assert_pairs_equal(pair, want)
            assert_stored_forms_agree(pair)

    @settings(max_examples=200, deadline=None)
    @given(any_streams())
    def test_out_degree_at_most_one(self, case):
        events, params = case
        engine, stack, _ = run_stream(events, params)
        for pair in complete_pairs(engine, stack):
            # fwd/bwd are dicts keyed by the single out-edge owner, so
            # count the stored edges in the in-lists instead: mu of a
            # group can fall inside at most one neighbor
            sources = [o for edges in pair.fwd_in.values() for o, _ in edges]
            assert len(sources) == len(set(sources))
            targets = [r for edges in pair.bwd_in.values() for r, _ in edges]
            assert len(targets) == len(set(targets))

    @settings(max_examples=150, deadline=None)
    @given(any_streams())
    # group 1.0 finishes while its member 5 is still pending at cp 0
    @example(
        (
            [Event(a, 0, 0) for a in (1, 2, 4)]
            + [Event(5, 0, 2001)]
            + [Event(a, 1, 1_000_000) for a in (1, 2, 4, 5)]
            + [Event(6, 1, 1_002_001)],
            Params(epsilon=2000, m=3, mu=MU),
        )
    )
    def test_weights_bounded_by_sizes(self, case):
        # groups at one control point are disjoint, so the weights into
        # one group sum to at most its size: the union tests read these
        events, params = case
        engine, stack, _ = run_stream(events, params)
        for pair in complete_pairs(engine, stack):
            for r, parents in pair.fwd_in.items():
                assert all(w >= 1 for _, w in parents)
                assert sum(w for _, w in parents) <= pair.right_sizes[r]
            for o, children in pair.bwd_in.items():
                assert all(w >= 1 for _, w in children)
                assert sum(w for _, w in children) <= pair.left_sizes[o]


class TestSharedCounts:
    @settings(max_examples=200, deadline=None)
    @given(any_streams())
    @example(FAILED_LEFT_COMPONENT)
    def test_each_shared_member_counted_once(self, case):
        # every nonzero |S ∩ S'| of groups S at c and S' at c+1 is
        # reported exactly once, in S'.before or S.after, and a report
        # names no group that shares no member: the rebuild comparison
        # sees only the weights that became edges, this one all of them
        events, params = case
        engine = GroupingEngine(params)
        reports = []
        engine.ingest_many(events, on_finish=reports.append)
        engine.finalize_all(on_finish=reports.append)
        counted = []  # (left cp, left ordinal, right ordinal, shared)
        for report in reports:
            if report.group is None:
                assert report.before == report.after == {}
                continue
            cp, ordinal = report.group.id
            counted += [(cp - 1, o, ordinal, n) for o, n in report.before.items()]
            counted += [(cp, ordinal, r, n) for r, n in report.after.items()]
        reference = oracle_groups(events, params)
        expected = [
            (cp, o, r, len(left & right))
            for cp, lefts in reference.items()
            for o, (left, _, _) in enumerate(lefts)
            for r, (right, _, _) in enumerate(reference.get(cp + 1, ()))
            if left & right
        ]
        assert sorted(counted) == sorted(expected)
