"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test records a detail string; the terminal-summary hook in
conftest.py restates every criterion as a single PASS/FAIL line at the
end of the run, so the output reads as a checklist.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

from racegroups.core import Event, Mu, Params
from racegroups.evolution import GraphStack
from racegroups.grouping import GroupingEngine
from racegroups.longterm import KIND_SURVIVING, build_global, compute_labels, longest_all
from racegroups.oracles import oracle_groups, oracle_longterm, oracle_patterns
from racegroups.patterns import APPEARS, DISAPPEARS, detect_patterns
from racegroups.pipeline import RunConfig, epsilon_sweep, run
from racegroups.synth import Behavior, GeneratorConfig, generate, generate_field


# -- criterion 1 ----------------------------------------------------------


def _random_instance(seed: int):
    rng = random.Random(seed)
    n_athletes = rng.randint(20, 200)
    n_cps = rng.randint(2, 20)
    epsilon = rng.choice([0, 250, 1000, 2000, 4000])
    m = rng.randint(2, 10)
    den = rng.randint(3, 20)
    num = rng.randint(den // 2 + 1, den)
    params = Params(epsilon=epsilon, m=m, mu=Mu(num, den))
    events = []
    for cp in range(n_cps):
        t = cp * 10_000_000
        order = sorted(
            range(n_athletes), key=lambda a: (2 * a + rng.randint(-3, 3), a)
        )
        for athlete in order:
            if rng.random() < 0.08:
                continue  # skips this control point
            if rng.random() < 0.12:
                t += epsilon + 1 + rng.randint(0, 500)  # breaks the chain
            else:
                t += rng.randint(0, epsilon) if epsilon else 0
            events.append(Event(athlete, cp, t))
    events.sort(key=lambda e: (e.time, e.cp, e.athlete))
    return events, params


def _run_stack(events, params):
    engine = GroupingEngine(params)
    stack = GraphStack(params.mu)

    def dispatch(finished):
        if finished.group is not None:
            stack.on_group(finished.group, finished.before, finished.after)

    engine.ingest_many(events, on_finish=dispatch)
    engine.finalize_all(on_finish=dispatch)
    return engine, stack


def test_criterion_1_oracle_equivalence(record_property):
    started = time.perf_counter()
    n_instances = 120
    for seed in range(n_instances):
        events, params = _random_instance(seed)
        engine, stack = _run_stack(events, params)

        expected_groups = oracle_groups(events, params)
        for cp in range(max(engine.known_cps(), default=-1) + 1):
            got = [
                (frozenset(g.members), g.t_first, g.t_last)
                for g in engine.groups_at(cp)
            ]
            assert got == expected_groups.get(cp, []), f"groups seed={seed} cp={cp}"

        cps = engine.known_cps()
        pairs = [stack.pair(cp) for cp in range(min(cps), max(cps))]
        for pair in pairs:
            left_sets = [frozenset(g.members) for g in engine.groups_at(pair.left_cp)]
            right_sets = [frozenset(g.members) for g in engine.groups_at(pair.right_cp)]
            expected, violations = oracle_patterns(
                left_sets, right_sets, params.mu, left_cp=pair.left_cp
            )
            assert violations == [], f"seed={seed} pair={pair.left_cp}"
            got = detect_patterns(pair)
            assert got.records == expected.records, f"seed={seed} pair={pair.left_cp}"
            assert got.flags == expected.flags, f"seed={seed} pair={pair.left_cp}"

        first = min(cps)
        levels = [
            [frozenset(g.members) for g in engine.groups_at(cp)]
            for cp in range(first, max(cps) + 1)
        ]
        expected_labels, expected_longest = oracle_longterm(levels, params.mu, first)
        graph = build_global(pairs)
        labels = compute_labels(graph)
        for kind, expected in expected_labels.items():
            got = {v: labels.at(kind, v) for v in expected}
            assert got == expected, f"{kind} seed={seed}"
        assert longest_all(graph, labels) == expected_longest, f"seed={seed}"

    elapsed = time.perf_counter() - started
    record_property(
        "detail",
        f"{n_instances} seeded instances, groups+patterns+labels+witnesses exact, "
        f"{elapsed:.1f}s < 60s",
    )
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s, budget 60s"


# -- criterion 2 ----------------------------------------------------------


def test_criterion_2_scripted_reproduction(record_property):
    params = Params(epsilon=2000, m=7, mu=Mu(7, 10))
    steady = Behavior.constant()
    scripts = (
        (steady,) * 100,
        (steady, Behavior.divide(2)) * 50,
        tuple((steady, steady, steady, Behavior.explode()) * 25),
        (steady, Behavior.divide((18, 7))) * 50,
        tuple((steady, Behavior.divide((8, 8) + (1,) * 9), steady, steady) * 25),
    )
    config = GeneratorConfig(
        n_athletes=12_500,
        n_cps=100,
        params=params,
        pack_size=25,
        n_bands=50,
        seed=42,
        scripts=scripts,
    )
    events, truth = generate(config)
    assert len(events) == 1_250_000

    result = run(events, RunConfig(params=params))
    pipeline_s = (
        result.timings.grouping_s
        + result.timings.patterns_s
        + result.timings.longterm_s
    )

    count_mismatches = 0
    for (left, _right), expected in truth.pair_counts.items():
        if result.pattern_sets[left].counts() != expected:
            count_mismatches += 1
    maxima_ok = result.longterm_maxima() == truth.longterm_cps()
    record_property(
        "detail",
        f"12500x100, 99 pairs exact={count_mismatches == 0}, "
        f"long-term maxima exact={maxima_ok}, pipeline {pipeline_s:.1f}s < 60s",
    )
    assert count_mismatches == 0, f"{count_mismatches} pairs off"
    assert maxima_ok, (result.longterm_maxima(), truth.longterm_cps())
    assert pipeline_s < 60.0, f"pipeline took {pipeline_s:.1f}s"


# -- criterion 3 ----------------------------------------------------------


def test_criterion_3_strong_chain_labels(record_property):
    params = Params(epsilon=2000, m=7, mu=Mu(7, 10))
    config = GeneratorConfig(
        n_athletes=25,
        n_cps=4,
        params=params,
        seed=0,
        scripts=((Behavior.constant(),) * 4,),
    )
    events, _ = generate(config)
    result = run(events, RunConfig(params=params))
    got = [result.labels.at(KIND_SURVIVING, (cp, 0)) for cp in range(4)]
    surviving = result.longest[KIND_SURVIVING]
    record_property(
        "detail",
        f"lpS={got}, longest surviving {surviving.length_cps} cps / "
        f"{surviving.length_edges} edges",
    )
    assert got == [0, 1, 2, 3]
    assert surviving.length_cps == 4 and surviving.length_edges == 3
    assert surviving.witness == ((0, 0), (1, 0), (2, 0), (3, 0))


# -- criterion 4 ----------------------------------------------------------


def _benchmark_stream(n_packs: int):
    params = Params(epsilon=2000, m=7, mu=Mu(7, 10))
    steady = Behavior.constant()
    scripts = (
        (steady,) * 100,
        (steady, Behavior.divide(2)) * 50,
        (steady, Behavior.divide((18, 7))) * 50,
    )
    config = GeneratorConfig(
        n_athletes=n_packs * 25,
        n_cps=100,
        params=params,
        pack_size=25,
        n_bands=50,
        seed=7,
        scripts=scripts,
    )
    events, _ = generate(config)
    result = run(events, RunConfig(params=params))
    wall = (
        result.timings.grouping_s
        + result.timings.patterns_s
        + result.timings.longterm_s
    )
    return len(events), result.timings.throughput(), wall


def test_criterion_4_throughput_and_scaling(record_property):
    n_base, throughput, wall_base = _benchmark_stream(1000)
    assert n_base == 2_500_000
    n_double, _, wall_double = _benchmark_stream(2000)
    assert n_double == 5_000_000
    ratio = wall_double / wall_base
    record_property(
        "detail",
        f"{throughput:,.0f} events/s on 2.5M events; "
        f"2x events -> {ratio:.2f}x wall",
    )
    assert throughput >= 10_000, f"{throughput:,.0f} events/s"
    assert ratio <= 2.5, f"doubling ratio {ratio:.2f}"


# -- criterion 5 ----------------------------------------------------------


def test_criterion_5_epsilon_trends(record_property):
    events = generate_field(30_000, 12, seed=7)
    params = Params(epsilon=0, m=7, mu=Mu(7, 10))
    rows = epsilon_sweep(
        events,
        RunConfig(params=params),
        [s * 1000 for s in (0, 1, 2, 5, 10, 30, 100)],
    )
    monotone = True
    for narrow, wide in zip(rows, rows[1:]):
        narrow_counts = dict(narrow.component_counts)
        for cp, n in wide.component_counts:
            if n > narrow_counts[cp]:
                monotone = False
    def churn(row):
        totals = dict(row.pattern_totals)
        return totals[APPEARS] + totals[DISAPPEARS]

    churn_0, churn_100 = churn(rows[0]), churn(rows[-1])
    decayed = churn_100 < 0.10 * churn_0
    record_property(
        "detail",
        f"components nonincreasing per cp over 7 epsilons={monotone}; "
        f"appears+disappears {churn_0} -> {churn_100} at 100s "
        f"({churn_100 / churn_0:.1%} < 10%)",
    )
    assert monotone
    assert decayed, f"{churn_100} vs 10% of {churn_0}"


# -- criterion 6 ----------------------------------------------------------

INVARIANT_SUITES = (
    "tests/test_core.py::TestPropositions",
    "tests/test_evolution.py::TestStreamingStack::test_out_degree_at_most_one",
    "tests/test_grouping.py::test_partition_and_gap_law",
    "tests/test_patterns.py::TestOracleAgreement::test_coverage_with_corners",
    "tests/test_patterns.py::TestOnlineTracker::test_online_equals_finalized",
)


def test_criterion_6_invariant_suites_standalone(record_property):
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *INVARIANT_SUITES],
        capture_output=True,
        text=True,
    )
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "?"
    record_property(
        "detail",
        f"{len(INVARIANT_SUITES)} suites rerun standalone, pytest says: {tail}",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
