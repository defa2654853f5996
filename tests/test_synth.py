"""Generator tests: determinism, scripted scenarios, and agreement
between predicted ground truth and the actual analysis pipeline."""

from __future__ import annotations

import hashlib
import sys

import pytest

import racegroups.longterm
import racegroups.synth
from conftest import complete_pairs, run_stream
from racegroups.core import Event, Mu, Params
from racegroups.evolution import PairGraph
from racegroups.longterm import (
    KIND_BACKWARD,
    KIND_FORWARD,
    KIND_RELATED,
    KIND_SURVIVING,
    LONGTERM_KINDS,
    build_global,
    compute_labels,
)
from racegroups.patterns import (
    COHERES,
    DISBANDS,
    MERGES,
    SPLITS,
    SURVIVES,
    detect_patterns,
)
from racegroups.synth import (
    Behavior,
    GeneratorConfig,
    InfeasibleScriptError,
    course_points,
    generate,
    generate_field,
)

PARAMS = Params(epsilon=2000, m=7, mu=Mu(7, 10))


def constant_script(n_cps):
    return (Behavior.constant(),) * n_cps


def config(n_packs=4, n_cps=5, scripts=None, seed=0, pack_size=25, params=PARAMS):
    return GeneratorConfig(
        n_athletes=n_packs * pack_size,
        n_cps=n_cps,
        params=params,
        pack_size=pack_size,
        n_bands=3,
        seed=seed,
        scripts=scripts,
    )


def run_pipeline(events, params=PARAMS):
    engine, stack, tracker = run_stream(events, params)
    pairs = complete_pairs(engine, stack)
    sets = {pair.left_cp: detect_patterns(pair) for pair in pairs}
    labels = compute_labels(build_global(pairs))
    return engine, sets, labels


def label_values(engine, labels, kind):
    """One kind's label of every group the engine formed."""
    return [
        labels.at(kind, g.id)
        for cp in engine.known_cps()
        for g in engine.groups_at(cp)
    ]


class TestBehavior:
    def test_parse_round_trip(self):
        for text in ("constant", "explode", "divide:3", "divide:13/12"):
            assert str(Behavior.parse(text)) == text

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Behavior.parse("gallop")

    def test_balanced_sizes(self):
        assert Behavior.divide(2).chunk_sizes(25, 7) == (13, 12)
        assert Behavior.divide(3).chunk_sizes(25, 7) == (9, 8, 8)

    def test_balanced_below_threshold_is_infeasible(self):
        with pytest.raises(InfeasibleScriptError):
            Behavior.divide(4).chunk_sizes(25, 7)

    def test_constant_below_threshold_is_infeasible(self):
        with pytest.raises(InfeasibleScriptError):
            Behavior.constant().chunk_sizes(5, 7)

    def test_explicit_sizes_must_partition(self):
        with pytest.raises(InfeasibleScriptError):
            Behavior.divide((13, 13)).chunk_sizes(25, 7)
        assert Behavior.divide((18, 7)).chunk_sizes(25, 7) == (18, 7)
        # dust below the threshold is allowed on purpose
        assert Behavior.divide((8, 8) + (1,) * 40).chunk_sizes(56, 7)[:2] == (8, 8)


class TestConfigValidation:
    def test_pack_size_must_divide(self):
        with pytest.raises(InfeasibleScriptError):
            GeneratorConfig(n_athletes=26, n_cps=3, params=PARAMS).validate()

    def test_script_length_must_match(self):
        cfg = config(scripts=(constant_script(4),), n_cps=5)
        with pytest.raises(InfeasibleScriptError):
            cfg.validate()

    def test_course_points_end_at_finish(self):
        cfg = config()
        points = course_points(cfg.n_cps, cfg.course_length_m)
        assert len(points) == cfg.n_cps
        assert points[-1] == (cfg.n_cps - 1, cfg.course_length_m)
        assert all(a[1] < b[1] for a, b in zip(points, points[1:]))


class TestDeterminism:
    def test_identical_seed_identical_output(self):
        a_events, a_truth = generate(config(seed=11))
        b_events, b_truth = generate(config(seed=11))
        assert a_events == b_events
        assert a_truth.pair_counts == b_truth.pair_counts
        assert a_truth.longterm_edges == b_truth.longterm_edges

    def test_seed_changes_events(self):
        a_events, _ = generate(config(seed=1))
        b_events, _ = generate(config(seed=2))
        assert a_events != b_events

    def test_scripted_truth_ignores_seed(self):
        scripts = (
            (
                Behavior.constant(),
                Behavior.divide(2),
                Behavior.constant(),
                Behavior.explode(),
                Behavior.constant(),
            ),
        )
        _, a_truth = generate(config(scripts=scripts, seed=1))
        _, b_truth = generate(config(scripts=scripts, seed=99))
        assert a_truth.pair_counts == b_truth.pair_counts
        assert a_truth.longterm_edges == b_truth.longterm_edges
        assert a_truth.group_counts == b_truth.group_counts

    @pytest.mark.parametrize(
        "cfg, n_events, digest",
        [
            (
                config(n_packs=40, n_cps=30, seed=5),
                30000,
                "cabd529419f22da5ef31b8f88c9a42d225beff05d923d4628b66e80a0aae52db",
            ),
            (
                config(
                    n_packs=6,
                    n_cps=6,
                    seed=4,
                    scripts=(
                        (
                            Behavior.constant(),
                            Behavior.divide(2),
                            Behavior.constant(),
                            Behavior.divide((18, 7)),
                            Behavior.explode(),
                            Behavior.constant(),
                        ),
                        (
                            Behavior.constant(),
                            Behavior.divide(3),
                            Behavior.constant(),
                            Behavior.explode(),
                            Behavior.constant(),
                            Behavior.divide(2),
                        ),
                    ),
                ),
                900,
                "88d9ff31694eeaca0f084ccbe37b68db6066bfdccb22e364d07f0b5c8793f9c0",
            ),
        ],
        ids=["random", "scripted"],
    )
    def test_event_stream_pinned(self, cfg, n_events, digest):
        """The stream itself, not only its truth: one line per event,
        hashed, so that no change alters an event or their order
        unnoticed."""
        events, _ = generate(cfg)
        assert len(events) == n_events
        assert all(type(e) is Event for e in events)
        text = "".join(f"{a} {c} {t}\n" for a, c, t in events)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_events_sorted_and_strictly_increasing_per_athlete(self):
        events, _ = generate(config(seed=3))
        assert events == sorted(events, key=lambda e: (e.time, e.cp, e.athlete))
        last = {}
        for e in events:
            if e.athlete in last:
                assert e.time > last[e.athlete]
            last[e.athlete] = e.time


class TestScriptScenarios:
    def test_all_constant(self):
        n_packs, n_cps = 4, 6
        cfg = config(n_packs, n_cps, scripts=(constant_script(n_cps),))
        events, truth = generate(cfg)
        for counts in truth.pair_counts.values():
            assert counts[SURVIVES] == n_packs
            assert sum(counts.values()) == n_packs
        assert truth.longterm_edges == {
            kind: n_cps - 1 for kind in LONGTERM_KINDS
        }
        assert truth.longterm_cps() == {kind: n_cps for kind in LONGTERM_KINDS}

        engine, sets, labels = run_pipeline(events)
        for left_cp, pattern_set in sets.items():
            assert pattern_set.counts() == truth.pair_counts[(left_cp, left_cp + 1)]
        for kind in LONGTERM_KINDS:
            assert max(label_values(engine, labels, kind)) == n_cps - 1

    def test_split_then_merge(self):
        script = (
            Behavior.constant(),
            Behavior.divide(2),
            Behavior.constant(),
        )
        cfg = config(n_packs=3, n_cps=3, scripts=(script,))
        events, truth = generate(cfg)
        assert truth.pair_counts[(0, 1)][SPLITS] == 3
        assert sum(truth.pair_counts[(0, 1)].values()) == 3
        assert truth.pair_counts[(1, 2)][MERGES] == 3

        _, sets, _ = run_pipeline(events)
        assert sets[0].counts() == truth.pair_counts[(0, 1)]
        assert sets[1].counts() == truth.pair_counts[(1, 2)]

    def test_disband_then_cohere(self):
        # seven parts, five of them dust: rejoining is coherence, not a
        # merge, because the two surviving groups cover 16 of 56
        script = (
            Behavior.constant(),
            Behavior.divide((8, 8) + (1,) * 40),
            Behavior.constant(),
        )
        cfg = config(n_packs=2, n_cps=3, pack_size=56, scripts=(script,))
        events, truth = generate(cfg)
        assert truth.pair_counts[(0, 1)][DISBANDS] == 2
        assert truth.pair_counts[(1, 2)][COHERES] == 2

        _, sets, _ = run_pipeline(events)
        assert sets[0].counts() == truth.pair_counts[(0, 1)]
        assert sets[1].counts() == truth.pair_counts[(1, 2)]

    def test_absorb_and_spawn(self):
        script = (
            Behavior.divide((18, 7)),
            Behavior.constant(),
            Behavior.divide((18, 7)),
        )
        cfg = config(n_packs=1, n_cps=3, scripts=(script,))
        events, truth = generate(cfg)
        assert truth.pair_counts[(0, 1)] == dict.fromkeys(
            truth.pair_counts[(0, 1)], 0
        ) | {SURVIVES: 1}
        assert truth.pair_counts[(1, 2)][SURVIVES] == 1

        _, sets, _ = run_pipeline(events)
        (rec,) = sets[0].records
        assert rec.kind == SURVIVES and len(rec.absorbed) == 1
        (rec,) = sets[1].records
        assert rec.kind == SURVIVES and len(rec.spawned) == 1

    def test_explode_gap_appears_disappears(self):
        script = (
            Behavior.constant(),
            Behavior.explode(),
            Behavior.constant(),
        )
        cfg = config(n_packs=2, n_cps=3, scripts=(script,))
        events, truth = generate(cfg)
        from racegroups.patterns import APPEARS, DISAPPEARS

        assert truth.pair_counts[(0, 1)][DISAPPEARS] == 2
        assert truth.pair_counts[(1, 2)][APPEARS] == 2
        assert truth.group_counts == {0: 2, 1: 0, 2: 2}
        # the strong chain is cut by the gap
        assert truth.longterm_edges[KIND_SURVIVING] == 0
        assert truth.longterm_edges[KIND_FORWARD] == 0
        assert truth.longterm_edges[KIND_BACKWARD] == 0
        assert truth.longterm_edges[KIND_RELATED] == 0

    def test_groups_match_formations_exactly(self):
        scripts = (
            (
                Behavior.constant(),
                Behavior.divide(2),
                Behavior.divide(2),
                Behavior.divide((8, 8, 9)),
            ),
            (
                Behavior.constant(),
                Behavior.constant(),
                Behavior.explode(),
                Behavior.constant(),
            ),
        )
        cfg = config(n_packs=4, n_cps=4, scripts=scripts)
        events, truth = generate(cfg)
        engine, _, _ = run_pipeline(events)
        for cp in range(cfg.n_cps):
            groups = engine.groups_at(cp)
            assert len(groups) == truth.group_counts[cp]
        # pack 0 at cp 1 divides 13/12: exact memberships, pack order
        sets = [frozenset(g.members) for g in engine.groups_at(1)]
        assert frozenset(range(0, 13)) in sets
        assert frozenset(range(13, 25)) in sets


class TestPipelineAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_mode_matches_pipeline(self, seed):
        cfg = config(n_packs=5, n_cps=6, seed=seed)
        events, truth = generate(cfg)
        engine, sets, labels = run_pipeline(events)
        for (left, _right), expected in truth.pair_counts.items():
            assert sets[left].counts() == expected, f"pair {left}"
        for kind in LONGTERM_KINDS:
            got = max(label_values(engine, labels, kind), default=0)
            assert got == truth.longterm_edges[kind], kind
        for cp, n in truth.group_counts.items():
            assert len(engine.groups_at(cp)) == n

    def test_epsilon_zero_still_agrees(self):
        params = Params(epsilon=0, m=7, mu=Mu(7, 10))
        cfg = config(n_packs=3, n_cps=4, seed=5, params=params)
        events, truth = generate(cfg)
        engine, sets, labels = run_pipeline(events, params)
        for (left, _right), expected in truth.pair_counts.items():
            assert sets[left].counts() == expected
        for cp, n in truth.group_counts.items():
            assert len(engine.groups_at(cp)) == n

    def test_no_anomalies_emitted(self):
        events, _ = generate(config(seed=7))
        engine, _, _ = run_pipeline(events)
        assert engine.anomalies == []


class TestIndependentTruth:
    """The long-term truth comes from the member sets of the scripted
    formations, not from the sweeps it is checked against."""

    def test_truth_runs_no_analysis_layer(self, monkeypatch):
        scripted = config(
            n_packs=3,
            n_cps=6,
            scripts=(
                (
                    Behavior.constant(),
                    Behavior.divide(2),
                    Behavior.constant(),
                    Behavior.divide((18, 7)),
                    Behavior.explode(),
                    Behavior.constant(),
                ),
            ),
        )
        configs = (scripted, config(n_packs=5, n_cps=8, seed=3))
        want = [generate(cfg) for cfg in configs]

        def refuse(*args, **kwargs):
            raise AssertionError("the generator ran an analysis layer")

        for name in ("build_global", "compute_labels", "longest_all"):
            monkeypatch.setattr(racegroups.longterm, name, refuse)
            monkeypatch.setattr(racegroups.synth, name, refuse, raising=False)
        for name in ("add_left", "add_right"):
            monkeypatch.setattr(PairGraph, name, refuse)
        assert [generate(cfg) for cfg in configs] == want

    def test_no_depth_limit(self):
        # one constant pack over more control points than the
        # interpreter's recursion limit
        n_cps = 1200
        assert n_cps > sys.getrecursionlimit()
        _, truth = generate(config(n_packs=1, n_cps=n_cps, scripts=(constant_script(n_cps),)))
        assert truth.longterm_edges == dict.fromkeys(LONGTERM_KINDS, n_cps - 1)


class TestFieldGenerator:
    def test_deterministic(self):
        assert generate_field(200, 5, seed=4) == generate_field(200, 5, seed=4)
        assert generate_field(200, 5, seed=4) != generate_field(200, 5, seed=5)

    def test_shape_and_resolution(self):
        events = generate_field(150, 6, seed=1)
        assert len(events) == 150 * 6
        assert all(e.time % 1000 == 0 for e in events)
        per_athlete = {}
        for e in sorted(events, key=lambda e: (e.athlete, e.cp)):
            if e.athlete in per_athlete:
                assert e.time > per_athlete[e.athlete]
            per_athlete[e.athlete] = e.time

    def test_bunching_decays_with_epsilon(self):
        from racegroups.grouping import GroupingEngine

        events = generate_field(3000, 4, seed=2)
        counts = []
        for eps_s in (0, 5, 30):
            params = Params(epsilon=eps_s * 1000, m=7, mu=Mu(7, 10))
            engine = GroupingEngine(params)
            engine.ingest_many(events)
            engine.finalize_all()
            counts.append([engine.component_counts.get(c, 0) for c in range(4)])
        # growing the reach can only glue components together
        for narrow, wide in zip(counts, counts[1:]):
            assert all(w <= n for n, w in zip(narrow, wide))
        assert sum(counts[-1]) < sum(counts[0])
