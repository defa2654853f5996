"""Global graph construction, label sweeps, longest-behavior queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cohort_streams,
    complete_pairs,
    overlapping_streams,
    pair_from_memberships,
    run_stream,
    slow_tail_streams,
)
from racegroups.core import Mu, Params
from racegroups.longterm import (
    KIND_BACKWARD,
    KIND_FORWARD,
    KIND_RELATED,
    KIND_SURVIVING,
    LONGTERM_KINDS,
    LongestResult,
    build_global,
    compute_labels,
    longest,
    longest_all,
)
from racegroups.oracles import oracle_longterm
from racegroups.pipeline import RunConfig, run
from racegroups.synth import GeneratorConfig, generate

MU = Mu(7, 10)


def chain_pairs(memberships, mu=MU, first_cp=0):
    """Pair graphs for consecutive membership levels."""
    return [
        pair_from_memberships(first_cp + i, left, right, mu)
        for i, (left, right) in enumerate(zip(memberships, memberships[1:]))
    ]


def strong_chain(n_cps, members=range(10)):
    return chain_pairs([[set(members)]] * n_cps)


def levels_of(graph):
    """The graph's groups, one list per control point, in ordinal order."""
    return [[(cp, o) for o in range(n)] for cp, n in graph.counts.items()]


def vertices(graph):
    return [v for level in levels_of(graph) for v in level]


def table(labels, graph, kind):
    """One kind's labels as a plain group-id dict, read through at()."""
    return {v: labels.at(kind, v) for v in vertices(graph)}


class TestBuildGlobal:
    def test_single_pair(self):
        graph = build_global(strong_chain(2))
        assert graph.counts == {0: 1, 1: 1}
        assert graph.fwd == {(0, 0): (1, 0)}
        assert graph.bwd == {(1, 0): (0, 0)}

    def test_gap_rejected(self):
        pairs = strong_chain(2) + [pair_from_memberships(5, [], [], MU)]
        with pytest.raises(ValueError):
            build_global(pairs)

    def test_inconsistent_counts_rejected(self):
        a = pair_from_memberships(0, [set(range(10))], [set(range(10))], MU)
        b = pair_from_memberships(1, [], [set(range(10))], MU)
        with pytest.raises(ValueError):
            build_global([a, b])

    def test_disjoint_levels_have_no_edges(self):
        pairs = chain_pairs(
            [[set(range(10))], [set(range(20, 30))], [set(range(40, 50))]]
        )
        graph = build_global(pairs)
        assert graph.fwd == {} and graph.bwd == {}
        assert graph.n_vertices() == 3


class TestViews:
    """Labels are read one group at a time through at(), edges through
    read-only group-id mappings over the pairs; first_cp 3 keeps cp and
    list index apart."""

    def _graph(self):
        # cp 3: groups a, b; cp 4: a alone (strong), b dropped; cp 5: a
        a, b = set(range(10)), set(range(20, 30))
        return build_global(chain_pairs([[a, b], [a], [a]], first_cp=3))

    def test_equal_to_plain_dicts_both_ways(self):
        graph = self._graph()
        labels = compute_labels(graph)
        want = {(3, 0): 0, (3, 1): 0, (4, 0): 1, (5, 0): 2}
        assert {v: labels.at(KIND_SURVIVING, v) for v in want} == want
        assert graph.fwd == {(3, 0): (4, 0), (4, 0): (5, 0)}
        assert {(4, 0): (3, 0), (5, 0): (4, 0)} == graph.bwd
        assert graph.fwd != {(3, 0): (4, 0)}
        assert {(4, 0): (3, 0), (5, 0): (4, 0), (6, 0): (5, 0)} != graph.bwd

    def test_len_and_order(self):
        graph = self._graph()
        labels = compute_labels(graph)
        order = [(3, 0), (3, 1), (4, 0), (5, 0)]
        assert vertices(graph) == order
        for kind in (KIND_SURVIVING, KIND_FORWARD, KIND_RELATED):
            assert [labels.at(kind, v) for v in order] == [0, 0, 1, 2]
        assert [labels.at(KIND_BACKWARD, v) for v in order] == [2, 0, 1, 0]
        assert len(graph.fwd) == len(graph.bwd) == 2
        assert list(graph.fwd) == [(3, 0), (4, 0)]
        assert list(graph.bwd.items()) == [((4, 0), (3, 0)), ((5, 0), (4, 0))]

    def test_out_of_range_keys_raise(self):
        graph = self._graph()
        labels = compute_labels(graph)
        # (3, -1) and (2, 0) would read another group's label if at()
        # indexed its lists as given
        bad = [(3, -1), (4, -1), (3, 2), (4, 1), (2, 0), (6, 0), (-1, 0), "3:0", (3,)]
        for kind in LONGTERM_KINDS:
            for key in bad:
                with pytest.raises(KeyError):
                    labels.at(kind, key)
        for kind in ("sideways", "lpS"):
            with pytest.raises(ValueError):
                labels.at(kind, (3, 0))
        for edges in (graph.fwd, graph.bwd):
            for key in bad:
                with pytest.raises(KeyError):
                    edges[key]
                assert key not in edges
                assert edges.get(key) is None
        # no edge out of the last level nor back from the first
        for key in ((5, 0), (3, 1)):
            assert key not in graph.fwd
        assert (3, 0) not in graph.bwd

    def test_read_only(self):
        graph = self._graph()
        with pytest.raises(TypeError):
            graph.fwd[(3, 0)] = (4, 1)
        copy = dict(graph.fwd)
        copy[(3, 0)] = (4, 1)
        assert graph.fwd[(3, 0)] == (4, 0)


class TestSweeps:
    def test_strong_chain_labels(self):
        graph = build_global(strong_chain(4))
        labels = compute_labels(graph)
        for kind in (KIND_SURVIVING, KIND_FORWARD, KIND_RELATED):
            assert [labels.at(kind, (cp, 0)) for cp in range(4)] == [0, 1, 2, 3]
        # strong edges are backward edges too, so lpB mirrors the chain
        assert [labels.at(KIND_BACKWARD, (cp, 0)) for cp in range(4)] == [3, 2, 1, 0]

    def test_isolated_group(self):
        graph = build_global(
            chain_pairs([[set(range(10))], [set(range(50, 60))]])
        )
        labels = compute_labels(graph)
        for kind in LONGTERM_KINDS:
            assert set(table(labels, graph, kind).values()) == {0}

    def test_diamond_takes_longer_forward_path(self):
        # lane one runs from cp 0, lane two only from cp 1; both feed
        # the final group, which must take the three-edge path
        lane1 = set(range(10))
        lane2 = set(range(20, 30))
        final = set(range(7)) | set(range(20, 27))
        pairs = chain_pairs(
            [[lane1], [lane1, lane2], [lane1, lane2], [final]]
        )
        graph = build_global(pairs)
        labels = compute_labels(graph)
        assert labels.at(KIND_FORWARD, (3, 0)) == 3
        result = longest(graph, labels, KIND_FORWARD)
        assert result.length_edges == 3
        assert result.witness == ((0, 0), (1, 0), (2, 0), (3, 0))

    def test_backward_only_chain(self):
        # each level keeps a shrinking core of the previous one, padded
        # with strangers so the earlier group never covers the later:
        # only backward edges form
        core = list(range(40))
        levels = [
            [set(core[:40])],
            [set(core[:20]) | set(range(200, 208))],
            [set(core[:14]) | set(range(300, 305))],
            [set(core[:10]) | set(range(400, 403))],
        ]
        graph = build_global(chain_pairs(levels))
        labels = compute_labels(graph)
        assert table(labels, graph, KIND_SURVIVING) == {v: 0 for v in vertices(graph)}
        assert labels.at(KIND_BACKWARD, (0, 0)) == 3
        assert labels.at(KIND_BACKWARD, (3, 0)) == 0


def fig3_pairs():
    """Five control points, one group each: a strong middle chain with
    a backward edge at the start and a forward edge at the end."""
    a = set(range(10))
    b = set(range(6)) | {20, 21}
    c = set(b)
    e = set(b)
    g = set(b) | set(range(30, 36))
    return chain_pairs([[a], [b], [c], [e], [g]])


class TestLongest:
    def test_fig3_shape(self):
        graph = build_global(fig3_pairs())
        results = longest_all(graph, compute_labels(graph))
        a, b, c, e, g = [(cp, 0) for cp in range(5)]
        assert results[KIND_SURVIVING].length_cps == 3
        assert results[KIND_SURVIVING].witness == (b, c, e)
        assert results[KIND_FORWARD].length_cps == 4
        assert results[KIND_FORWARD].witness == (b, c, e, g)
        assert results[KIND_BACKWARD].length_cps == 4
        assert results[KIND_BACKWARD].witness == (a, b, c, e)
        assert results[KIND_RELATED].length_cps == 5
        assert results[KIND_RELATED].witness == (a, b, c, e, g)
        assert all(r.length_edges == r.length_cps - 1 for r in results.values())

    def test_edgeless_graph(self):
        pairs = chain_pairs([[set(range(10))], [set(range(50, 60))]])
        graph = build_global(pairs)
        for kind, result in longest_all(graph, compute_labels(graph)).items():
            assert result.length_cps == 1
            assert result.length_edges == 0
            assert result.witness == ((0, 0),)  # earliest group wins ties

    def test_full_strong_chain(self):
        graph = build_global(strong_chain(5))
        for result in longest_all(graph, compute_labels(graph)).values():
            assert result.length_cps == 5

    def test_empty_graph(self):
        graph = build_global([])
        result = longest(graph, compute_labels(graph), KIND_SURVIVING)
        assert result == LongestResult(KIND_SURVIVING, 0, 0, ())

    def test_unknown_kind(self):
        graph = build_global([])
        with pytest.raises(ValueError):
            longest(graph, compute_labels(graph), "sideways")


def member_levels(engine, graph):
    """The member sets of the graph's groups, one list per control
    point in ordinal order, as the engine formed them: what
    oracle_longterm takes, with graph.first."""
    return [[frozenset(g.members) for g in engine.groups_at(cp)] for cp in graph.counts]


def _graph_of(events, params):
    engine, stack, _ = run_stream(events, params)
    return build_global(complete_pairs(engine, stack))


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(cohort_streams())
    def test_label_inequalities(self, case):
        events, params = case
        graph = _graph_of(events, params)
        labels = compute_labels(graph)
        first = min(graph.counts, default=0)
        s, f, b, r = (table(labels, graph, kind) for kind in LONGTERM_KINDS)
        for v in vertices(graph):
            assert f[v] >= s[v]
            assert r[v] >= f[v]
            assert s[v] <= v[0] - first
        if graph.n_vertices():
            assert max(r.values()) >= max(b.values())

    @settings(max_examples=150, deadline=None)
    @given(cohort_streams())
    def test_labels_match_oracle(self, case):
        events, params = case
        engine, stack, _ = run_stream(events, params)
        graph = build_global(complete_pairs(engine, stack))
        labels = compute_labels(graph)
        want, _ = oracle_longterm(member_levels(engine, graph), params.mu, graph.first)
        for kind in LONGTERM_KINDS:
            assert table(labels, graph, kind) == want[kind], kind

    @settings(max_examples=150, deadline=None)
    @given(cohort_streams())
    def test_witness_is_valid(self, case):
        events, params = case
        graph = _graph_of(events, params)
        labels = compute_labels(graph)
        for kind in LONGTERM_KINDS:
            result = longest(graph, labels, kind)
            assert len(result.witness) == result.length_cps
            for u, v in zip(result.witness, result.witness[1:]):
                assert v[0] == u[0] + 1
                if kind == KIND_SURVIVING:
                    assert graph.fwd.get(u) == v and graph.bwd.get(v) == u
                elif kind == KIND_FORWARD:
                    assert graph.fwd.get(u) == v
                elif kind == KIND_BACKWARD:
                    assert graph.bwd.get(v) == u
                else:
                    assert graph.fwd.get(u) == v or graph.bwd.get(v) == u


class TestWitnessWalk:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(overlapping_streams(), slow_tail_streams()))
    def test_walk_and_labels_match_oracles(self, case):
        # splits and merges give groups several in-edges: in a probe of
        # 300 examples, 157 had an in-degree above 1 and 123 a walk step
        # with two or more groups of the wanted label to choose from
        events, params = case
        engine, stack, _ = run_stream(events, params)
        graph = build_global(complete_pairs(engine, stack))
        labels = compute_labels(graph)
        want, want_longest = oracle_longterm(
            member_levels(engine, graph), params.mu, graph.first
        )
        assert longest_all(graph, labels) == want_longest
        for kind in LONGTERM_KINDS:
            assert table(labels, graph, kind) == want[kind], kind


class TestBuiltOnRead:
    def test_pipeline_builds_no_group_id_table(self):
        # the sweeps and the walk read the pair lists; the group-id
        # edge tables cost memory and are built only for a caller that
        # reads them
        params = Params(epsilon=2000, m=7, mu=MU)
        events, _ = generate(
            GeneratorConfig(n_athletes=200, n_cps=8, params=params, seed=1)
        )
        result = run(events, RunConfig(params=params))
        graph = result.analysis.global_graph()
        labels = compute_labels(graph)
        results = longest_all(graph, labels)
        assert results[KIND_RELATED].length_edges == 7
        for edges in ("fwd", "bwd"):
            assert edges not in vars(graph)
        assert graph.fwd is graph.fwd and "fwd" in vars(graph)
        assert "bwd" not in vars(graph)
