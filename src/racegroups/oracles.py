"""Brute-force reference implementations used as test oracles.

Everything here trades speed for obviousness: direct definitions,
materialized sets, exhaustive enumeration.  The streaming engine, the
pattern detector and the label sweeps must agree with these on every
tested instance.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Mapping, Sequence

from .core import Event, Mu, Params, strongly_related, weakly_related
from .grouping import GroupId
from .longterm import KIND_BACKWARD, KIND_FORWARD, KIND_SURVIVING, GlobalGraph
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
    levels: Sequence[Sequence[GroupId]],
    fwd_edges: set[tuple[GroupId, GroupId]],
    bwd_edges: set[tuple[GroupId, GroupId]],
    max_groups: int = 40,
) -> dict[str, dict[GroupId, int]]:
    """Exact label values by exhaustive path enumeration.

    Edges are given as (earlier group, later group) pairs regardless of
    their direction: fwd_edges holds S ~ S', bwd_edges holds S' ~ S.
    No memoization, no sweeping - plain recursive longest-path-to /
    longest-path-from, which is what the incremental sweeps must match.
    """
    total = sum(len(level) for level in levels)
    if total > max_groups:
        raise ValueError(f"oracle limited to {max_groups} groups, got {total}")
    strong_edges = fwd_edges & bwd_edges
    related_edges = fwd_edges | bwd_edges
    by_level: dict[int, list[GroupId]] = defaultdict(list)
    for level in levels:
        for v in level:
            by_level[v[0]].append(v)

    def preds(v: GroupId, edges: set) -> list[GroupId]:
        return [u for u in by_level.get(v[0] - 1, ()) if (u, v) in edges]

    def succs(v: GroupId, edges: set) -> list[GroupId]:
        return [w for w in by_level.get(v[0] + 1, ()) if (v, w) in edges]

    def longest_to(v: GroupId, edges: set) -> int:
        best = 0
        for u in preds(v, edges):
            best = max(best, 1 + longest_to(u, edges))
        return best

    def longest_from(v: GroupId, edges: set) -> int:
        best = 0
        for w in succs(v, edges):
            best = max(best, 1 + longest_from(w, edges))
        return best

    labels: dict[str, dict[GroupId, int]] = {
        "lpS": {},
        "lpF": {},
        "lpB": {},
        "lpR": {},
    }
    for level in levels:
        for v in level:
            labels["lpS"][v] = longest_to(v, strong_edges)
            labels["lpF"][v] = longest_to(v, fwd_edges)
            labels["lpB"][v] = longest_from(v, bwd_edges)
            labels["lpR"][v] = longest_to(v, related_edges)
    return labels


def _linked(graph: GlobalGraph, kind: str, u: GroupId, v: GroupId) -> bool:
    """Whether the step u -> v (v one control point after u) extends a
    behavior of this kind."""
    if kind == KIND_SURVIVING:
        return graph.fwd.get(u) == v and graph.bwd.get(v) == u
    if kind == KIND_FORWARD:
        return graph.fwd.get(u) == v
    if kind == KIND_BACKWARD:
        return graph.bwd.get(v) == u
    return graph.fwd.get(u) == v or graph.bwd.get(v) == u


def oracle_walk(
    graph: GlobalGraph, labels: Mapping[GroupId, int], v: GroupId, kind: str
) -> list[GroupId]:
    """Reference witness walk: the path whose label ends (for lpB:
    starts) at v, in ascending control-point order.  Each step scans
    the whole adjacent level, in ordinal order, for the first group
    linked to v whose label is one less."""
    path = [v]
    while labels[v] > 0:
        want = labels[v] - 1
        if kind == KIND_BACKWARD:
            v = next(
                w
                for w in graph.level(v[0] + 1)
                if labels[w] == want and _linked(graph, kind, v, w)
            )
        else:
            v = next(
                u
                for u in graph.level(v[0] - 1)
                if labels[u] == want and _linked(graph, kind, u, v)
            )
        path.append(v)
    if kind != KIND_BACKWARD:
        path.reverse()
    return path
