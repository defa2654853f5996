"""Global evolution graph and the four long-term pattern labels.

The global graph is the union of every consecutive-pair evolution
graph: one vertex per group, forward and backward relation edges
between adjacent control points.  Four integer labels per group:

  lpS  longest chain of strong relations ending at the group
  lpF  longest forward-edge path ending at the group
  lpB  longest backward-edge path starting at the group (backward
       edges point against the race direction, so the path itself
       visits ascending control points while its sweep runs descending)
  lpR  longest path using edges of either direction, ending at the group

Labels count edges; the matching control-point count is one more.  The
group holding the largest label of a kind ends (or, for lpB, starts)
the longest behavior of that kind, and the path is recovered by
walking adjacencies whose labels decrease by one.

The graph is not copied out of the pairs: the sweeps and the walk read
the pair list in place, through each pair's ordinal-keyed edge maps,
and keep one list of labels per control point, indexed by group
ordinal; LongTermLabels.at reads one group's label off those lists.
GlobalGraph.fwd and bwd, group-id keyed edge tables, are read-only
dicts built on first read; nothing in the sweeps or the walk reads
them.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Sequence

from .core import _Frozen
from .evolution import PairGraph
from .grouping import GroupId

KIND_SURVIVING = "surviving"
KIND_FORWARD = "traceable-forward"
KIND_BACKWARD = "traceable-backward"
KIND_RELATED = "related"
LONGTERM_KINDS = (KIND_SURVIVING, KIND_FORWARD, KIND_BACKWARD, KIND_RELATED)


class GlobalGraph:
    """Union of the pair graphs, read in place.

    pairs[i] joins control points first + i and first + i + 1; counts
    holds the number of groups per control point.  Every vertex has at
    most one outgoing edge in each direction; fwd and bwd map a group
    id to the group id at the other end of those edges, and are built
    on first read.
    """

    def __init__(
        self, pairs: Sequence[PairGraph], first: int, counts: Sequence[int]
    ) -> None:
        self.pairs = pairs
        self.first = first
        self.counts: dict[int, int] = {
            first + i: n for i, n in enumerate(counts)
        }  # cp -> number of groups

    @cached_property
    def fwd(self) -> Mapping[GroupId, GroupId]:
        """S -> S' for every forward edge S ~ S'."""
        return MappingProxyType(
            {
                (pair.left_cp, o): (pair.right_cp, r)
                for pair in self.pairs
                for o, r in pair.fwd.items()
            }
        )

    @cached_property
    def bwd(self) -> Mapping[GroupId, GroupId]:
        """S' -> S for every backward edge S' ~ S."""
        return MappingProxyType(
            {
                (pair.right_cp, r): (pair.left_cp, o)
                for pair in self.pairs
                for r, o in pair.bwd.items()
            }
        )

    def n_vertices(self) -> int:
        return sum(self.counts.values())


def build_global(pairs: Sequence[PairGraph]) -> GlobalGraph:
    """Union of pair graphs over consecutive control points.

    The pairs must cover a contiguous control-point range (a pair with
    no groups on either side is fine, a missing one is not), and
    neighbouring pairs must agree on the groups of the control point
    they share.
    """
    ordered = sorted(pairs, key=lambda p: p.left_cp)
    if not ordered:
        return GlobalGraph((), 0, ())
    counts = [len(ordered[0].left_sizes)]
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.left_cp != prev.left_cp + 1:
            raise ValueError(
                f"gap in pair sequence: {prev.left_cp} then {cur.left_cp}"
            )
        known, n = len(prev.right_sizes), len(cur.left_sizes)
        if known != n:
            raise ValueError(
                f"control point {cur.left_cp} has {known} groups in one pair "
                f"and {n} in another"
            )
        counts.append(n)
    counts.append(len(ordered[-1].right_sizes))
    return GlobalGraph(ordered, ordered[0].left_cp, counts)


class LongTermLabels(_Frozen):
    """Per-control-point label lists, indexed by group ordinal, one set
    per kind."""

    __slots__ = _fields = ("_first", "_levels")
    __hash__ = None  # equal by value, but the levels are lists

    def __init__(self, _first: int, _levels: dict[str, list[list[int]]]) -> None:
        self._set(_first, _levels)  # _levels: kind -> lists

    def at(self, kind: str, group_id: GroupId) -> int:
        """The label of one kind of the group (cp, ordinal).

        Raises ValueError for an unknown kind and KeyError for a key
        that names no group of the graph; a negative index is never
        read from the end of a list.
        """
        if kind not in LONGTERM_KINDS:
            raise ValueError(f"unknown long-term kind {kind!r}")
        levels = self._levels[kind]
        try:
            cp, o = group_id
            i = cp - self._first
            if i >= 0 and o >= 0:
                return levels[i][o]
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(group_id)


def compute_labels(graph: GlobalGraph) -> LongTermLabels:
    """lpS, lpF and lpR in one ascending pass over the pairs, lpB in
    one descending pass; linear in vertices plus edges.

    A right group's labels are the best of its in-edges' left labels
    plus one: lpF over forward edges, lpR over both directions, lpS
    over its backward edge when that edge is strong.  lpB runs the
    other way, from right groups to the left targets of their backward
    edges.
    """
    counts = list(graph.counts.values())
    if not counts:
        return LongTermLabels(graph.first, {kind: [] for kind in LONGTERM_KINDS})
    s = [0] * counts[0]
    f = [0] * counts[0]
    r = [0] * counts[0]
    surviving, forward, related = [s], [f], [r]
    for pair, n in zip(graph.pairs, counts[1:]):
        prev_s, prev_f, prev_r = s, f, r
        s, f, r = [0] * n, [0] * n, [0] * n
        fwd = pair.fwd
        for left, right in fwd.items():
            value = prev_f[left] + 1
            if value > f[right]:
                f[right] = value
            value = prev_r[left] + 1
            if value > r[right]:
                r[right] = value
        for right, left in pair.bwd.items():
            value = prev_r[left] + 1
            if value > r[right]:
                r[right] = value
            if fwd.get(left) == right:
                s[right] = prev_s[left] + 1
        surviving.append(s)
        forward.append(f)
        related.append(r)

    b = [0] * counts[-1]
    backward = [b]
    for pair, n in zip(reversed(graph.pairs), reversed(counts[:-1])):
        next_b, b = b, [0] * n
        for right, left in pair.bwd.items():
            value = next_b[right] + 1
            if value > b[left]:
                b[left] = value
        backward.append(b)
    backward.reverse()

    return LongTermLabels(
        graph.first,
        {
            KIND_SURVIVING: surviving,
            KIND_FORWARD: forward,
            KIND_BACKWARD: backward,
            KIND_RELATED: related,
        },
    )


class LongestResult(NamedTuple):
    kind: str
    length_edges: int
    length_cps: int
    witness: tuple[GroupId, ...]  # groups of the path, ascending cp


def _walk(
    graph: GlobalGraph, levels: list[list[int]], i: int, o: int, kind: str
) -> list[GroupId]:
    """The path whose label ends (for lpB: starts) at group o of level
    i, in ascending control-point order.  Each step reads the adjacent
    pair's edges into (out of, for lpB) the group and takes the first
    of them, in ordinal order, whose label is one less."""
    pairs, first = graph.pairs, graph.first
    path = [(first + i, o)]
    value = levels[i][o]
    while value:
        value -= 1
        if kind == KIND_BACKWARD:
            linked = [w for w, _ in pairs[i].bwd_in[o]]
            i += 1
        else:
            pair = pairs[i - 1]
            if kind == KIND_SURVIVING:
                linked = [pair.bwd[o]]
            else:
                linked = [u for u, _ in pair.fwd_in.get(o, ())]
                if kind == KIND_RELATED and o in pair.bwd:
                    linked.append(pair.bwd[o])
            i -= 1
        level = levels[i]
        o = min(u for u in linked if level[u] == value)
        path.append((first + i, o))
    if kind != KIND_BACKWARD:
        path.reverse()
    return path


def longest(graph: GlobalGraph, labels: LongTermLabels, kind: str) -> LongestResult:
    """The longest behavior of one kind, with a witness path.

    Ties on the label value go to the earliest (control point, ordinal)
    pair.  An empty graph yields a zero-length result.
    """
    if kind not in LONGTERM_KINDS:
        raise ValueError(f"unknown long-term kind {kind!r}")
    levels = labels._levels[kind]
    best_i = best_value = -1
    for i, level in enumerate(levels):
        if level:
            value = max(level)
            if value > best_value:
                best_i, best_value = i, value
    if best_i < 0:
        return LongestResult(kind, 0, 0, ())
    start = levels[best_i].index(best_value)
    path = _walk(graph, levels, best_i, start, kind)
    return LongestResult(kind, best_value, best_value + 1, tuple(path))


def longest_all(graph: GlobalGraph, labels: LongTermLabels) -> dict[str, LongestResult]:
    return {kind: longest(graph, labels, kind) for kind in LONGTERM_KINDS}
