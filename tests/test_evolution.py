"""Pair graph tests: promotion thresholds, tentative edge lifecycle,
and the streaming construction against a from-scratch rebuild."""

from __future__ import annotations

from hypothesis import example, given, settings

from conftest import cohort_streams, complete_pairs, run_stream
from racegroups.core import Event, Mu, Params
from racegroups.evolution import PairGraph
from racegroups.oracles import oracle_groups

MU = Mu(7, 10)


def make_pair(left_sizes, right_sizes, mu=MU):
    pair = PairGraph(0, mu)
    for o, size in enumerate(left_sizes):
        pair.register_left(o, size)
    for r, size in enumerate(right_sizes):
        pair.register_right(r, size)
    return pair


class TestPromotion:
    def test_strong_pair_promotes_both_directions(self):
        pair = make_pair([10], [10])
        added = pair.update_precursor(0, {0: 9}, 0)
        assert {(e.forward) for e in added} == {True, False}
        assert pair.fwd[0] == (0, 9)
        assert pair.bwd[0] == (0, 9)

    def test_containment_promotes_forward_only(self):
        # a 4-athlete group fully inside a 12-athlete group: 4/4 covers,
        # 4/12 does not
        pair = make_pair([4], [12])
        added = pair.update_precursor(0, {0: 4}, 0)
        assert [e.forward for e in added] == [True]
        assert pair.bwd == {}

    def test_exact_threshold_counts(self):
        # 7 of 10 at mu=7/10 is a relation; 6 of 10 is not
        pair = make_pair([10, 10], [100, 100])
        assert [e.forward for e in pair.update_precursor(0, {0: 7}, 0)] == [True]
        assert pair.update_precursor(1, {1: 6}, 0) == []

    def test_strong_partner(self):
        pair = make_pair([10, 4], [10, 12])
        pair.update_precursor(0, {0: 9}, 0)
        pair.update_precursor(1, {1: 4}, 0)
        assert pair.strong_partner_of_left(0) == 0
        assert pair.strong_partner_of_left(1) is None  # forward only


class TestTentative:
    def test_materialize_promotes(self):
        pair = PairGraph(0, MU)
        pair.register_right(0, 10)
        assert pair.update_precursor(0, {}, 7) == []
        assert pair.tentative == {0: 7}
        pair.register_left(0, 10)
        added = pair.materialize_tentative(0)
        assert pair.tentative == {}
        # 7/10 covers in both directions at mu=7/10
        assert {e.forward for e in added} == {True, False}
        assert pair.fwd == {0: (0, 7)} and pair.bwd == {0: (0, 7)}

    def test_two_right_groups_share_one_component(self):
        pair = PairGraph(0, MU)
        pair.register_right(0, 10)
        pair.register_right(1, 8)
        pair.update_precursor(0, {}, 3)
        pair.update_precursor(1, {}, 6)
        pair.register_left(0, 9)
        pair.materialize_tentative(0)
        # 6 of 9 misses mu, 6 of 8 covers it: backward edge only
        assert pair.fwd == {}
        assert pair.bwd == {1: (0, 6)}

    def test_delete_tentative_is_idempotent(self):
        pair = PairGraph(0, MU)
        pair.register_right(0, 10)
        pair.update_precursor(0, {}, 9)
        pair.delete_tentative_edges()
        pair.delete_tentative_edges()
        pair.register_left(0, 9)
        assert pair.materialize_tentative(0) == []


class TestFromMemberships:
    def test_weights_are_intersections(self):
        left = [{1, 2, 3, 4}, {5, 6, 7}]
        right = [{1, 2, 3, 9}, {5, 6, 7, 8}]
        pair = PairGraph.from_memberships(2, left, right, MU)
        # each shared count, 3 of 3 or of 4, covers mu = 7/10 both ways
        assert pair.fwd == {0: (0, 3), 1: (1, 3)}
        assert pair.bwd == {0: (0, 3), 1: (1, 3)}
        assert pair.left_sizes == [4, 3]
        assert pair.right_sizes == [4, 4]
        assert pair.right_cp == 3


def expected_pair(left_cp, left_groups, right_groups, mu):
    return PairGraph.from_memberships(
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
    @given(cohort_streams())
    def test_streaming_matches_rebuild(self, case):
        events, params = case
        engine, stack, _ = run_stream(events, params)
        reference = oracle_groups(events, params)
        for pair in complete_pairs(engine, stack):
            assert pair.tentative == {}
            want = expected_pair(
                pair.left_cp,
                reference.get(pair.left_cp, []),
                reference.get(pair.right_cp, []),
                params.mu,
            )
            assert_pairs_equal(pair, want)

    @settings(max_examples=200, deadline=None)
    @given(cohort_streams())
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
    @given(cohort_streams())
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
