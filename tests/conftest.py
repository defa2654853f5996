"""Shared test helpers: race-shaped random streams and full wiring.

The hypothesis strategies here are deliberately structured, not
uniform noise.  A stable crossing order with bounded jitter, occasional
gaps above epsilon and per-cp absences yields streams whose groups
actually overlap across control points, so relation edges and patterns
fire.
"""

from __future__ import annotations

from itertools import accumulate

from hypothesis import Phase, settings
from hypothesis import strategies as st

from racegroups.core import Event, Mu, Params
from racegroups.evolution import PairGraph
from racegroups.pipeline import MODE_ONLINE, RaceAnalysis, RunConfig

# `pytest --hypothesis-profile=ci`: every example is still generated and
# checked, but a failure is reported as found, with a reproduce blob,
# instead of after a shrink that can run for minutes on a streamed race
settings.register_profile(
    "ci", phases=[phase for phase in Phase if phase is not Phase.shrink], print_blob=True
)


@st.composite
def cohort_streams(draw):
    n_ath = draw(st.integers(8, 24))
    n_cp = draw(st.integers(2, 5))
    m = draw(st.integers(3, 5))
    events: list[Event] = []
    for cp in range(n_cp):
        jitter = draw(st.lists(st.integers(-3, 3), min_size=n_ath, max_size=n_ath))
        gaps = draw(st.lists(st.integers(0, 3500), min_size=n_ath, max_size=n_ath))
        present = draw(st.lists(st.booleans(), min_size=n_ath, max_size=n_ath))
        order = sorted(range(n_ath), key=lambda a: (2 * a + jitter[a], a))
        # control points 1_000_000 ms apart dominate any jitter, so each
        # athlete's own times stay strictly increasing
        t = cp * 1_000_000
        for slot, athlete in enumerate(order):
            t += gaps[slot]
            if present[athlete]:
                events.append(Event(athlete, cp, t))
    events.sort(key=lambda e: e.time)
    return events, Params(epsilon=2000, m=m, mu=Mu(7, 10))


@st.composite
def overlapping_streams(draw):
    """Races whose control points overlap in time.  An athlete reaches
    the next control point one short leg after the last (1-8 s plus
    their own drift of up to 4 s), while the field takes far longer to
    cross one, so right groups finish while a left component is still
    open, and the left group counts the shared members, on most
    examples.  The drift splits,
    merges and reorders groups from one control point to the next."""
    n_ath = draw(st.integers(12, 30))
    n_cp = draw(st.integers(3, 6))
    m = draw(st.integers(3, 5))
    gaps = draw(st.lists(st.integers(0, 2800), min_size=n_ath, max_size=n_ath))
    times = list(accumulate(gaps))
    events: list[Event] = []
    for cp in range(n_cp):
        if cp:
            leg = draw(st.integers(1, 8000))
            drift = draw(
                st.lists(st.integers(0, 4000), min_size=n_ath, max_size=n_ath)
            )
            times = [t + leg + d for t, d in zip(times, drift)]
        # about one athlete in ten misses a control point
        present = draw(st.lists(st.integers(0, 9), min_size=n_ath, max_size=n_ath))
        events.extend(Event(a, cp, times[a]) for a in range(n_ath) if present[a])
    events.sort(key=lambda e: e.time)
    return events, Params(epsilon=2000, m=m, mu=Mu(7, 10))


@st.composite
def slow_tail_streams(draw):
    """Races with a slow tail at one control point.  A large pack runs
    ahead of a small one, with gaps of up to 1 s inside a pack; on each
    leg the large pack may split, everyone from some member on losing
    2.5-6 s.  At one control point three or four of the large pack's
    athletes cross after the whole field, each within epsilon of the
    last, and rejoin their pack at the next one.  Their component there
    stays open while the next control point's groups finish, so its
    edges reach right groups, and the splits of their source group,
    that were classified long before.  Control points lie 1,000,000 ms
    apart, so each athlete's own times stay increasing."""
    sizes = [draw(st.integers(20, 40)), draw(st.integers(3, 8))]
    n_ath = sum(sizes)
    n_cp = draw(st.integers(2, 4))
    gaps = draw(st.lists(st.integers(0, 1000), min_size=n_ath, max_size=n_ath))
    gaps[sizes[0]] += draw(st.integers(2001, 5000))  # the small pack's lead
    times = list(accumulate(gaps))
    slow_cp = draw(st.integers(0, n_cp - 2))
    n_slow = draw(st.integers(3, 4))
    first_slow = draw(st.integers(0, sizes[0] - n_slow))
    events: list[Event] = []
    for cp in range(n_cp):
        if cp:
            cut = draw(st.integers(0, sizes[0]))
            delay = draw(st.integers(2500, 6000))
            times = times[:cut] + [t + delay for t in times[cut:]]
        jitter = draw(st.lists(st.integers(0, 300), min_size=n_ath, max_size=n_ath))
        at = [cp * 1_000_000 + t + j for t, j in zip(times, jitter)]
        if cp == slow_cp:
            t = max(at) + draw(st.integers(2001, 5000))
            for athlete in range(first_slow, first_slow + n_slow):
                t += draw(st.integers(0, 1500))
                at[athlete] = t
        # about one athlete in twenty misses a control point
        present = draw(st.lists(st.integers(0, 19), min_size=n_ath, max_size=n_ath))
        events.extend(Event(a, cp, at[a]) for a in range(n_ath) if present[a])
    events.sort(key=lambda e: e.time)
    return events, Params(epsilon=2000, m=3, mu=Mu(7, 10))


def pair_from_memberships(left_cp, left_sets, right_sets, mu):
    """A finalized pair built from explicit member sets, through the
    same add_left/add_right calls as the streaming construction: every
    left group first, then each right group with its shared counts."""
    left = [set(s) for s in left_sets]
    right = [set(s) for s in right_sets]
    pair = PairGraph(left_cp, mu)
    for o, s in enumerate(left):
        pair.add_left((left_cp, o), len(s), {})
    for r, s in enumerate(right):
        counts = {}
        for o, ls in enumerate(left):
            shared = len(ls & s)
            if shared:
                counts[o] = shared
        pair.add_right((left_cp + 1, r), len(s), counts)
    return pair


def run_stream(events, params):
    """A race streamed through the pipeline's own wiring in online
    mode.  Returns its engine, graph stack and tracker after the broom
    wagon."""
    analysis = RaceAnalysis(RunConfig(params=params, mode=MODE_ONLINE))
    analysis.ingest(events)
    analysis.finalize()
    return analysis.engine, analysis.stack, analysis.tracker


def complete_pairs(engine, stack):
    """The contiguous pair sequence of the observed race: one pair per
    consecutive control-point step, including steps with no groups on
    one or both sides.  The pair hanging off the last control point has
    no meaningful right side and is excluded."""
    cps = engine.known_cps()
    if not cps:
        return []
    return [stack.pair(cp) for cp in range(min(cps), max(cps))]


def pytest_terminal_summary(terminalreporter):
    """After an acceptance run, restate each criterion on its own
    PASS/FAIL line; the details are recorded by the tests themselves."""
    reports = []
    for key in ("passed", "failed", "error"):
        reports.extend(terminalreporter.stats.get(key, []))
    lines = []
    for rep in reports:
        if getattr(rep, "when", None) != "call":
            continue
        if "test_acceptance.py" not in rep.nodeid:
            continue
        name = rep.nodeid.split("::")[-1]
        if not name.startswith("test_criterion_"):
            continue
        parts = name.split("_")
        number = int(parts[2])
        label = " ".join(parts[3:])
        detail = dict(getattr(rep, "user_properties", ())).get("detail")
        verdict = "PASS" if rep.passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        lines.append((number, f"criterion {number} {label}: {verdict}{suffix}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
