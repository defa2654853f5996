"""Brute-force reference implementations used as test oracles.

Everything here trades speed for obviousness: direct definitions,
materialized sets, exhaustive enumeration.  The streaming engine, the
pattern detector and the label sweeps must agree with these on every
tested instance.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping, Sequence

from .core import Event, Mu, Params, strongly_related, weakly_related
from .grouping import ABSENT, OUTLIER, PENDING, GroupId
from .longterm import (
    KIND_BACKWARD,
    KIND_FORWARD,
    KIND_SURVIVING,
    LONGTERM_KINDS,
    LongestResult,
)
from .patterns import (
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
    PatternRecord,
    PatternSet,
)


def oracle_groups(
    events: Iterable[Event], params: Params
) -> dict[int, list[tuple[frozenset[int], int, int]]]:
    """Groups per control point, straight from the definition.

    Sorts each control point's crossings by time (stable, so equal
    timestamps keep input order), splits the sequence wherever a gap
    exceeds epsilon, and keeps the runs of at least m athletes.
    Returns {cp: [(member set, t_first, t_last), ...]} with groups in
    order of first crossing.
    """
    per_cp: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for athlete, cp, t in events:
        per_cp[cp].append((t, athlete))
    result: dict[int, list[tuple[frozenset[int], int, int]]] = {}
    for cp, crossings in per_cp.items():
        crossings.sort(key=lambda ta: ta[0])
        groups = []
        run: list[tuple[int, int]] = []
        for t, athlete in crossings:
            if run and t - run[-1][0] > params.epsilon:
                if len(run) >= params.m:
                    groups.append(
                        (frozenset(a for _, a in run), run[0][0], run[-1][0])
                    )
                run = []
            run.append((t, athlete))
        if len(run) >= params.m:
            groups.append((frozenset(a for _, a in run), run[0][0], run[-1][0]))
        result[cp] = groups
    return result


def oracle_patterns(
    left_sets: Sequence[frozenset[int]],
    right_sets: Sequence[frozenset[int]],
    mu: Mu,
    left_cp: int = 0,
) -> tuple[PatternSet, list[str]]:
    """Pattern classification recomputed from raw memberships.

    All weak relations are evaluated with real set arithmetic, union
    tests materialize the actual unions, and every emitted record is
    audited against the literal pattern definition it claims
    (returned as a list of violation strings, expected empty).
    """
    rcp = left_cp + 1
    nl, nr = len(left_sets), len(right_sets)
    fwd_rel = [
        [bool(l) and weakly_related(l, r, mu) for r in right_sets] for l in left_sets
    ]
    bwd_rel = [
        [bool(r) and weakly_related(r, l, mu) for l in left_sets] for r in right_sets
    ]
    f_out = [sum(fwd_rel[o]) for o in range(nl)]
    b_out = [sum(bwd_rel[r]) for r in range(nr)]
    assert all(d <= 1 for d in f_out), "forward out-degree exceeded 1"
    assert all(d <= 1 for d in b_out), "backward out-degree exceeded 1"
    fwd_to = [fwd_rel[o].index(True) if f_out[o] else None for o in range(nl)]
    bwd_to = [bwd_rel[r].index(True) if b_out[r] else None for r in range(nr)]
    children = [
        [r for r in range(nr) if bwd_to[r] == o] for o in range(nl)
    ]
    parents = [
        [o for o in range(nl) if fwd_to[o] == r] for r in range(nr)
    ]

    def strong_partner(o: int) -> int | None:
        r = fwd_to[o]
        if r is not None and bwd_to[r] == o:
            return r
        return None

    def survives(o: int, r: int) -> PatternRecord:
        return PatternRecord(
            SURVIVES,
            (left_cp, rcp),
            source=(left_cp, o),
            target=(rcp, r),
            absorbed=tuple((left_cp, p) for p in sorted(parents[r]) if p != o),
            spawned=tuple((rcp, c) for c in sorted(children[o]) if c != r),
        )

    records: set[PatternRecord] = set()
    for r in range(nr):
        if not parents[r]:
            if bwd_to[r] is None:
                records.add(PatternRecord(APPEARS, (left_cp, rcp), target=(rcp, r)))
                continue
            o = bwd_to[r]
            sp = strong_partner(o)
            if sp is not None:
                records.add(survives(o, sp))
                continue
            if len(children[o]) == 1:
                records.add(
                    PatternRecord(
                        SHRINKS, (left_cp, rcp), source=(left_cp, o), target=(rcp, r)
                    )
                )
                continue
            union = frozenset().union(*(right_sets[c] for c in children[o]))
            kind = SPLITS if weakly_related(left_sets[o], union, mu) else DISBANDS
            records.add(
                PatternRecord(
                    kind,
                    (left_cp, rcp),
                    source=(left_cp, o),
                    targets=tuple((rcp, c) for c in sorted(children[o])),
                )
            )
            continue
        o = bwd_to[r]
        if o is not None and fwd_to[o] == r:
            records.add(survives(o, r))
            continue
        if len(parents[r]) == 1:
            records.add(
                PatternRecord(
                    EXPANDS,
                    (left_cp, rcp),
                    source=(left_cp, parents[r][0]),
                    target=(rcp, r),
                )
            )
            continue
        union = frozenset().union(*(left_sets[p] for p in parents[r]))
        kind = MERGES if weakly_related(right_sets[r], union, mu) else COHERES
        records.add(
            PatternRecord(
                kind,
                (left_cp, rcp),
                sources=tuple((left_cp, p) for p in sorted(parents[r])),
                target=(rcp, r),
            )
        )
    for o in range(nl):
        if not f_out[o] and not children[o]:
            records.add(PatternRecord(DISAPPEARS, (left_cp, rcp), source=(left_cp, o)))

    def has_sd_record(o: int) -> bool:
        return strong_partner(o) is None and any(
            not parents[c] for c in children[o]
        )

    flags: list[tuple[str, GroupId]] = []
    for o in range(nl):
        if not f_out[o] and children[o] and not has_sd_record(o):
            flags.append((FLAG_UNCLASSIFIED, (left_cp, o)))
        if f_out[o] and strong_partner(o) is None and has_sd_record(o):
            flags.append((FLAG_DOUBLE_SOURCE, (left_cp, o)))
    for r in range(nr):
        if not parents[r] or bwd_to[r] is None:
            continue
        o = bwd_to[r]
        sp = strong_partner(o)
        if (sp is not None and sp != r) or (sp is None and has_sd_record(o)):
            flags.append((FLAG_DOUBLE_TARGET, (rcp, r)))

    violations = _audit_definitions(
        records, left_sets, right_sets, mu, left_cp
    )
    pattern_set = PatternSet(
        pair=(left_cp, rcp),
        records=tuple(sorted(records, key=PatternRecord.sort_key)),
        flags=tuple(sorted(flags)),
        finalized=True,
    )
    return pattern_set, violations


def _audit_definitions(
    records: set[PatternRecord],
    left_sets: Sequence[frozenset[int]],
    right_sets: Sequence[frozenset[int]],
    mu: Mu,
    left_cp: int,
) -> list[str]:
    """Check each record against the textbook conditions of its kind."""
    bad: list[str] = []

    def L(gid: GroupId) -> frozenset[int]:
        return left_sets[gid[1]]

    def R(gid: GroupId) -> frozenset[int]:
        return right_sets[gid[1]]

    def check(cond: bool, rec: PatternRecord, what: str) -> None:
        if not cond:
            bad.append(f"{rec.kind} at pair {rec.pair}: {what}")

    for rec in records:
        if rec.kind == APPEARS:
            t = R(rec.target)
            check(
                all(not weakly_related(l, t, mu) for l in left_sets if l)
                and all(not weakly_related(t, l, mu) for l in left_sets if l),
                rec,
                "target has a relation with some previous group",
            )
        elif rec.kind == DISAPPEARS:
            s = L(rec.source)
            check(
                all(not weakly_related(s, r, mu) for r in right_sets if r)
                and all(not weakly_related(r, s, mu) for r in right_sets if r),
                rec,
                "source has a relation with some next group",
            )
        elif rec.kind == SURVIVES:
            check(strongly_related(L(rec.source), R(rec.target), mu), rec, "not strong")
            for gid in rec.absorbed:
                check(
                    weakly_related(L(gid), R(rec.target), mu), rec, "absorbed not ~"
                )
            for gid in rec.spawned:
                check(
                    weakly_related(R(gid), L(rec.source), mu), rec, "spawned not ~"
                )
        elif rec.kind == EXPANDS:
            s, t = L(rec.source), R(rec.target)
            check(weakly_related(s, t, mu), rec, "source not ~ target")
            check(not weakly_related(t, s, mu), rec, "target ~ source")
            check(
                all(
                    not weakly_related(l, t, mu)
                    for i, l in enumerate(left_sets)
                    if l and i != rec.source[1]
                ),
                rec,
                "another source ~ target",
            )
        elif rec.kind == SHRINKS:
            s, t = L(rec.source), R(rec.target)
            check(weakly_related(t, s, mu), rec, "target not ~ source")
            check(not weakly_related(s, t, mu), rec, "source ~ target")
            check(
                all(
                    not weakly_related(r, s, mu)
                    for j, r in enumerate(right_sets)
                    if r and j != rec.target[1]
                ),
                rec,
                "another target ~ source",
            )
        elif rec.kind in (MERGES, COHERES):
            t = R(rec.target)
            union = frozenset().union(*(L(g) for g in rec.sources))
            check(len(rec.sources) >= 2, rec, "fewer than 2 sources")
            check(
                all(weakly_related(L(g), t, mu) for g in rec.sources),
                rec,
                "some source not ~ target",
            )
            check(
                all(
                    not weakly_related(l, t, mu)
                    for i, l in enumerate(left_sets)
                    if l and (left_cp, i) not in rec.sources
                ),
                rec,
                "an unlisted source ~ target",
            )
            related = weakly_related(t, union, mu)
            check(related == (rec.kind == MERGES), rec, "union test mismatch")
            if rec.kind == MERGES:
                # follows from the edge conditions: each source is mostly
                # inside the target, so their disjoint union is too
                check(weakly_related(union, t, mu), rec, "union not ~ target")
        elif rec.kind in (SPLITS, DISBANDS):
            s = L(rec.source)
            union = frozenset().union(*(R(g) for g in rec.targets))
            check(len(rec.targets) >= 2, rec, "fewer than 2 targets")
            check(
                all(weakly_related(R(g), s, mu) for g in rec.targets),
                rec,
                "some target not ~ source",
            )
            check(
                all(
                    not weakly_related(r, s, mu)
                    for j, r in enumerate(right_sets)
                    if r and (left_cp + 1, j) not in rec.targets
                ),
                rec,
                "an unlisted target ~ source",
            )
            related = weakly_related(s, union, mu)
            check(related == (rec.kind == SPLITS), rec, "union test mismatch")
            if rec.kind == SPLITS:
                check(weakly_related(union, s, mu), rec, "union not ~ source")
    return bad


def oracle_longterm(
    levels: Sequence[Sequence[AbstractSet[int]]], mu: Mu, first_cp: int = 0
) -> tuple[dict[str, dict[GroupId, int]], dict[str, LongestResult]]:
    """Every group's long-term labels and each kind's longest behavior,
    straight from the member sets.

    levels[i] lists the member sets of the groups at control point
    first_cp + i, in ordinal order.  A step from S to S' one control
    point later extends a surviving behavior when S ~ S' and S' ~ S, a
    traceable-forward one when S ~ S', a traceable-backward one when
    S' ~ S and a related one when either holds.  Each label is filled
    in level by level (descending for lpB) from every linked group of
    the adjacent level; nothing recurses, so no depth is too deep.

    Returns ({kind: {group id: label}}, {kind: LongestResult}).  The
    longest behavior belongs to the first group in (cp, ordinal) order
    holding the largest label; its witness steps each time to the
    lowest ordinal that is linked and labelled one less.
    """
    steps = list(zip(levels, levels[1:]))
    ahead = [[[weakly_related(s, t, mu) for t in right] for s in left] for left, right in steps]
    back = [[[weakly_related(t, s, mu) for t in right] for s in left] for left, right in steps]

    def linked(kind: str, i: int, o: int, r: int) -> bool:
        """Whether (i, o) -> (i + 1, r) extends a behavior of this kind."""
        if kind == KIND_SURVIVING:
            return ahead[i][o][r] and back[i][o][r]
        if kind == KIND_FORWARD:
            return ahead[i][o][r]
        if kind == KIND_BACKWARD:
            return back[i][o][r]
        return ahead[i][o][r] or back[i][o][r]

    def after(kind: str, i: int, o: int) -> list[int]:
        """The ordinals at level i + 1 that (i, o) links to, ascending."""
        return [r for r in range(len(levels[i + 1])) if linked(kind, i, o, r)]

    def before(kind: str, i: int, r: int) -> list[int]:
        """The ordinals at level i - 1 that link to (i, r), ascending."""
        return [o for o in range(len(levels[i - 1])) if linked(kind, i - 1, o, r)]

    cells = [(i, o) for i, level in enumerate(levels) for o in range(len(level))]
    labels: dict[str, dict[GroupId, int]] = {}
    longest: dict[str, LongestResult] = {}
    for kind in LONGTERM_KINDS:
        value = [[0] * len(level) for level in levels]
        if kind == KIND_BACKWARD:
            for i in reversed(range(len(steps))):
                for o in range(len(levels[i])):
                    value[i][o] = max((value[i + 1][r] + 1 for r in after(kind, i, o)), default=0)
        else:
            for i in range(1, len(levels)):
                for r in range(len(levels[i])):
                    value[i][r] = max((value[i - 1][o] + 1 for o in before(kind, i, r)), default=0)
        labels[kind] = {(first_cp + i, o): value[i][o] for i, o in cells}
        if not cells:
            longest[kind] = LongestResult(kind, 0, 0, ())
            continue
        # max() keeps the first of equal maxima, in (cp, ordinal) order
        i, o = max(cells, key=lambda cell: value[cell[0]][cell[1]])
        path = [(i, o)]
        while value[i][o]:
            want = value[i][o] - 1
            if kind == KIND_BACKWARD:
                linked_to, i = after(kind, i, o), i + 1
            else:
                linked_to, i = before(kind, i, o), i - 1
            o = next(u for u in linked_to if value[i][u] == want)
            path.append((i, o))
        if kind != KIND_BACKWARD:
            path.reverse()
        witness = tuple((first_cp + i, o) for i, o in path)
        longest[kind] = LongestResult(kind, len(path) - 1, len(path), witness)
    return labels, longest


def oracle_histories(
    events: Iterable[Event], params: Params, finalized: bool
) -> dict[int, tuple[list[int], list[int]]]:
    """Each athlete's (codes, times), one entry per control point up to
    their last crossing, rebuilt from the definitions.

    An event is accepted iff the athlete has none yet, or its control
    point is past their last accepted one and its time later.  A point
    passed over reads ABSENT with time -1.  Per control point the
    accepted crossings, sorted by time (stable), split wherever a gap
    exceeds epsilon; every run but the last has finished, and the last
    too once finalized.  A finished run of at least m athletes is the
    next group ordinal there, a shorter one makes its members OUTLIER,
    and the run still open reads PENDING.
    """
    last: dict[int, tuple[int, int]] = {}  # athlete -> (cp, time) accepted
    crossings: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for athlete, cp, t in events:
        prev = last.get(athlete)
        if prev is None or (cp > prev[0] and t > prev[1]):
            last[athlete] = (cp, t)
            crossings[cp].append((t, athlete))
    code_of: dict[tuple[int, int], int] = {}
    time_of: dict[tuple[int, int], int] = {}
    for cp, at_cp in crossings.items():
        at_cp.sort(key=lambda ta: ta[0])
        runs: list[list[tuple[int, int]]] = []
        for t, athlete in at_cp:
            if not runs or t - runs[-1][-1][0] > params.epsilon:
                runs.append([])
            runs[-1].append((t, athlete))
        ordinal = 0
        for i, run in enumerate(runs):
            if i == len(runs) - 1 and not finalized:
                code = PENDING
            elif len(run) >= params.m:
                code, ordinal = ordinal, ordinal + 1
            else:
                code = OUTLIER
            for t, athlete in run:
                code_of[athlete, cp] = code
                time_of[athlete, cp] = t
    return {
        athlete: (
            [code_of.get((athlete, cp), ABSENT) for cp in range(last_cp + 1)],
            [time_of.get((athlete, cp), -1) for cp in range(last_cp + 1)],
        )
        for athlete, (last_cp, _) in last.items()
    }


def oracle_position(
    histories: Mapping[int, tuple[list[int], list[int]]], athlete: int
) -> int:
    """1 + every other athlete whose last crossing is at a later
    control point, or at the same one at an earlier time: a scan of
    every history."""
    codes, times = histories[athlete]
    last_cp, last_time = len(codes) - 1, times[-1]
    position = 1
    for other, (other_codes, other_times) in histories.items():
        if other == athlete:
            continue
        cp = len(other_codes) - 1
        if cp > last_cp or (cp == last_cp and other_times[-1] < last_time):
            position += 1
    return position


def oracle_pace_jumps(
    histories: Mapping[int, tuple[list[int], list[int]]],
    course: Mapping[int, int],
    factor: Fraction,
) -> list[tuple[int, int]]:
    """(athlete, cp) of every pace jump, by athlete and then control
    point.  Along the course points an athlete crossed, a segment after
    the first two is a jump when its pace, as an exact Fraction of
    milliseconds per meter, is over factor times the average pace from
    the first point to the segment's start, or under that average
    divided by factor."""
    jumps = []
    for athlete in sorted(histories):
        codes, times = histories[athlete]
        series = [
            (cp, times[cp], meters)
            for cp, meters in sorted(course.items())
            if cp < len(codes) and codes[cp] != ABSENT
        ]
        if len(series) < 3:
            continue
        _, t0, d0 = series[0]
        for (_, t_prev, d_prev), (cp, t, d) in zip(series[1:], series[2:]):
            segment = Fraction(t - t_prev, d - d_prev)
            average = Fraction(t_prev - t0, d_prev - d0)
            if segment > factor * average or segment * factor < average:
                jumps.append((athlete, cp))
    return jumps
