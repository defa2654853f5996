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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .evolution import PairGraph
from .grouping import GroupId

KIND_SURVIVING = "surviving"
KIND_FORWARD = "traceable-forward"
KIND_BACKWARD = "traceable-backward"
KIND_RELATED = "related"
LONGTERM_KINDS = (KIND_SURVIVING, KIND_FORWARD, KIND_BACKWARD, KIND_RELATED)

_LABEL_OF_KIND = {
    KIND_SURVIVING: "lpS",
    KIND_FORWARD: "lpF",
    KIND_BACKWARD: "lpB",
    KIND_RELATED: "lpR",
}


class GlobalGraph:
    """Union of the pair graphs: group-id vertices, relation out-edges.

    Every vertex has at most one outgoing edge in each direction, so two
    maps hold the whole edge set; in-edges are never stored.
    """

    __slots__ = ("counts", "fwd", "bwd")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}  # cp -> number of groups
        self.fwd: dict[GroupId, GroupId] = {}  # S -> S' when S ~ S'
        self.bwd: dict[GroupId, GroupId] = {}  # S' -> S when S' ~ S

    def cps(self) -> list[int]:
        return sorted(self.counts)

    def level(self, cp: int) -> list[GroupId]:
        return [(cp, o) for o in range(self.counts.get(cp, 0))]

    def vertices(self) -> Iterable[GroupId]:
        for cp in self.cps():
            yield from self.level(cp)

    def n_vertices(self) -> int:
        return sum(self.counts.values())

    def add_pair(self, pair: PairGraph) -> None:
        lcp, rcp = pair.left_cp, pair.right_cp
        for cp, n in ((lcp, len(pair.left_sizes)), (rcp, len(pair.right_sizes))):
            known = self.counts.get(cp)
            if known is not None and known != n:
                raise ValueError(
                    f"control point {cp} has {known} groups in one pair "
                    f"and {n} in another"
                )
            self.counts[cp] = n
        for left, (right, _) in pair.fwd.items():
            self.fwd[(lcp, left)] = (rcp, right)
        for right, (left, _) in pair.bwd.items():
            self.bwd[(rcp, right)] = (lcp, left)


def build_global(pairs: Sequence[PairGraph]) -> GlobalGraph:
    """Union of pair graphs over consecutive control points.

    The pairs must cover a contiguous control-point range (a pair with
    no groups on either side is fine, a missing one is not).
    """
    graph = GlobalGraph()
    ordered = sorted(pairs, key=lambda p: p.left_cp)
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.left_cp != prev.left_cp + 1:
            raise ValueError(
                f"gap in pair sequence: {prev.left_cp} then {cur.left_cp}"
            )
    for pair in ordered:
        graph.add_pair(pair)
    return graph


def sweep_forward_labels(graph: GlobalGraph) -> dict[str, dict[GroupId, int]]:
    """One ascending sweep computing lpS, lpF and lpR.

    Vertices are visited in (cp, ordinal) order, so every label pushed
    into a vertex from the level before is in place when it is reached.
    A vertex pulls lpR through its backward edge and pushes all three
    labels along its forward edge (lpS only when that edge is strong).
    """
    fwd, bwd = graph.fwd, graph.bwd
    lpS: dict[GroupId, int] = {}
    lpF: dict[GroupId, int] = {}
    lpR: dict[GroupId, int] = {}
    for v in graph.vertices():
        s = lpS.setdefault(v, 0)
        f = lpF.setdefault(v, 0)
        r = lpR.get(v, 0)
        u = bwd.get(v)
        if u is not None and lpR[u] >= r:
            r = lpR[u] + 1
        lpR[v] = r
        w = fwd.get(v)
        if w is not None:
            if bwd.get(w) == v:
                lpS[w] = s + 1
            if lpF.get(w, 0) <= f:
                lpF[w] = f + 1
            if lpR.get(w, 0) <= r:
                lpR[w] = r + 1
    return {"lpS": lpS, "lpF": lpF, "lpR": lpR}


def sweep_backward_labels(graph: GlobalGraph) -> dict[GroupId, int]:
    """One descending sweep computing lpB, pushed along backward edges.

    A new last control point can raise lpB everywhere upstream, so
    callers recompute; the sweep is linear in vertices plus edges.
    """
    bwd = graph.bwd
    lpB: dict[GroupId, int] = {}
    for cp in reversed(graph.cps()):
        for w in graph.level(cp):
            b = lpB.setdefault(w, 0)
            u = bwd.get(w)
            if u is not None and lpB.get(u, 0) <= b:
                lpB[u] = b + 1
    return lpB


@dataclass(frozen=True)
class LongTermLabels:
    lpS: dict[GroupId, int]
    lpF: dict[GroupId, int]
    lpB: dict[GroupId, int]
    lpR: dict[GroupId, int]

    def of(self, kind: str) -> dict[GroupId, int]:
        return getattr(self, _LABEL_OF_KIND[kind])


def compute_labels(graph: GlobalGraph) -> LongTermLabels:
    forward = sweep_forward_labels(graph)
    return LongTermLabels(
        lpS=forward["lpS"],
        lpF=forward["lpF"],
        lpB=sweep_backward_labels(graph),
        lpR=forward["lpR"],
    )


@dataclass(frozen=True)
class LongestResult:
    kind: str
    length_edges: int
    length_cps: int
    witness: tuple[GroupId, ...]  # groups of the path, ascending cp

    def __str__(self) -> str:
        path = " -> ".join(f"{cp}:{o}" for cp, o in self.witness)
        return (
            f"{self.kind}: {self.length_cps} control points "
            f"({self.length_edges} edges) [{path}]"
        )


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


def _walk(graph: GlobalGraph, labels, v: GroupId, kind: str) -> list[GroupId]:
    """The path whose label ends (for lpB: starts) at v, in ascending
    control-point order.  Each step takes the first group, in ordinal
    order, of the adjacent level that is linked to v and whose label is
    one less."""
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


def longest(graph: GlobalGraph, labels: LongTermLabels, kind: str) -> LongestResult:
    """The longest behavior of one kind, with a witness path.

    Ties on the label value go to the earliest (control point, ordinal)
    pair.  An empty graph yields a zero-length result.
    """
    if kind not in _LABEL_OF_KIND:
        raise ValueError(f"unknown long-term kind {kind!r}")
    table = labels.of(kind)
    best: GroupId | None = None
    best_value = -1
    for v in graph.vertices():
        value = table[v]
        if value > best_value:
            best, best_value = v, value
    if best is None:
        return LongestResult(kind, 0, 0, ())
    path = _walk(graph, table, best, kind)
    return LongestResult(kind, best_value, best_value + 1, tuple(path))


def longest_all(graph: GlobalGraph, labels: LongTermLabels) -> dict[str, LongestResult]:
    return {kind: longest(graph, labels, kind) for kind in LONGTERM_KINDS}
