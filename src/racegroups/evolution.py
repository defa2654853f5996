"""Precursor and evolution graphs between consecutive control points.

For each pair of consecutive control points (x, x') two graphs are
kept in one structure:

  * the precursor graph: undirected intersection counts between groups
    (weight = |S ∩ S'|), which are only read to test them;
  * the evolution graph: the directed relation edges derived from
    those counts - a forward edge S -> S' iff I(S, S') >= mu and a
    backward edge S' -> S iff I(S', S) >= mu.

Relations are only ever evaluated between two finished groups, and
each intersection is tested once, when the second of its two groups
finishes and brings the exact count (see grouping.FinishedComponent).
No partial count is kept.

Since groups at one control point are disjoint and mu > 1/2, each
vertex has at most one outgoing edge in each direction; in-degrees are
unbounded.  The out-edges map a group to its partner's ordinal; each
edge's weight, |S ∩ S'|, is stored once, in the in-edge tuple of the
edge's head, where the union tests of the pattern detector read it.
An in-edge tuple is rebuilt one longer for each new edge rather than
kept as a list: a vertex of in-degree k costs O(k^2) element copies,
and k is at most the number of groups at the other control point, but
the in-degrees met are small.  On the seed-1 inputs of the benchmark,
67% are one and none exceeds 2 on the scripted races; the field race
has 33 in-edge tuples in all, 48% of degree one, none above 8.  A
tuple of one or two edges is also smaller than a list grown by append.

Each side also keeps the ids of its groups, in ordinal order, and the
pair its key (left_cp, left_cp + 1): the pattern records name groups
and the pair through these tuples, the engine's own Group.id included,
and build no new ones.

A pair changes on exactly two events: a right group finished
(add_right) or a left group finished (add_left).  Each sizes the new
group and tests its intersections with the groups already finished on
the other side.
"""

from __future__ import annotations

from .core import Mu
from .grouping import GroupId

Edge = tuple[int, int, bool]  # (left ordinal, right ordinal, forward)


class PairGraph:
    """Precursor + evolution graph for the pair (left_cp, left_cp + 1)."""

    __slots__ = (
        "key",
        "mu",
        "left_ids",
        "right_ids",
        "left_sizes",
        "right_sizes",
        "fwd",
        "bwd",
        "fwd_in",
        "bwd_in",
    )

    def __init__(self, left_cp: int, mu: Mu) -> None:
        self.key = (left_cp, left_cp + 1)
        self.mu = mu
        self.left_ids: list[GroupId] = []  # ordinal -> (left_cp, ordinal)
        self.right_ids: list[GroupId] = []  # ordinal -> (left_cp + 1, ordinal)
        self.left_sizes: list[int] = []
        self.right_sizes: list[int] = []
        self.fwd: dict[int, int] = {}  # left -> right
        self.bwd: dict[int, int] = {}  # right -> left
        self.fwd_in: dict[int, tuple[tuple[int, int], ...]] = {}  # right -> ((left, w), ...)
        self.bwd_in: dict[int, tuple[tuple[int, int], ...]] = {}  # left -> ((right, w), ...)

    @property
    def left_cp(self) -> int:
        return self.key[0]

    @property
    def right_cp(self) -> int:
        return self.key[1]

    # -- construction, one call per finished group ----------------------

    def add_right(self, group_id: GroupId, size: int, counts: dict[int, int]) -> list[Edge]:
        """A right group finished.  group_id is the engine's Group.id,
        kept for the records to name it; counts maps the ordinals of
        left groups already finished to the members each shares with it.
        Returns the relation edges gained, each a plain (left ordinal,
        right ordinal, forward) triple; forward is False for an edge
        right -> left.  Raises ValueError for an id of another control
        point or out of ordinal order."""
        cp, ordinal = group_id
        if cp != self.key[1] or ordinal != len(self.right_ids):
            raise ValueError(f"{group_id} is not the next right group of pair {self.key}")
        self.right_ids.append(group_id)
        self.right_sizes.append(size)
        added: list[Edge] = []
        num, den = self.mu.num, self.mu.den  # the tests of Mu.covers, inline
        fwd_in, bwd_in = self.fwd_in, self.bwd_in
        for left, weight in counts.items():
            part = den * weight
            if part >= num * self.left_sizes[left]:
                self.fwd[left] = ordinal
                fwd_in[ordinal] = fwd_in.get(ordinal, ()) + ((left, weight),)
                added.append((left, ordinal, True))
            if part >= num * size:
                self.bwd[ordinal] = left
                bwd_in[left] = bwd_in.get(left, ()) + ((ordinal, weight),)
                added.append((left, ordinal, False))
        return added

    def add_left(self, group_id: GroupId, size: int, counts: dict[int, int]) -> list[Edge]:
        """A left group finished.  group_id is the engine's Group.id,
        kept for the records to name it; counts maps the ordinals of
        right groups already finished to the members each shares with it.
        Returns the relation edges gained, as add_right does.  Raises
        ValueError for an id of another control point or out of ordinal
        order."""
        cp, ordinal = group_id
        if cp != self.key[0] or ordinal != len(self.left_ids):
            raise ValueError(f"{group_id} is not the next left group of pair {self.key}")
        self.left_ids.append(group_id)
        self.left_sizes.append(size)
        added: list[Edge] = []
        num, den = self.mu.num, self.mu.den
        fwd_in, bwd_in = self.fwd_in, self.bwd_in
        for right, weight in counts.items():
            part = den * weight
            if part >= num * size:
                self.fwd[ordinal] = right
                fwd_in[right] = fwd_in.get(right, ()) + ((ordinal, weight),)
                added.append((ordinal, right, True))
            if part >= num * self.right_sizes[right]:
                self.bwd[right] = ordinal
                bwd_in[ordinal] = bwd_in.get(ordinal, ()) + ((right, weight),)
                added.append((ordinal, right, False))
        return added

    # -- queries --------------------------------------------------------

    def strong_partner_of_left(self, ordinal: int) -> int | None:
        """Right ordinal strongly related to this left group, if any."""
        right = self.fwd.get(ordinal)
        if right is not None and self.bwd.get(right) == ordinal:
            return right
        return None


class GraphStack:
    """All pair graphs of a race, built as groups finish.

    A group at control point c joins the pair (c-1, c) as a right node
    and the pair (c, c+1) as a left node, with the shared-member counts
    the engine reported for it.
    """

    def __init__(self, mu: Mu) -> None:
        self.mu = mu
        self.pairs: dict[int, PairGraph] = {}

    def pair(self, left_cp: int) -> PairGraph:
        pair = self.pairs.get(left_cp)
        if pair is None:
            pair = self.pairs[left_cp] = PairGraph(left_cp, self.mu)
        return pair

    def on_group(
        self, group, before: dict[int, int], after: dict[int, int]
    ) -> list[tuple[PairGraph, list[Edge]]]:
        """before and after are the group's FinishedComponent counts.
        Returns, per affected pair, the list of relation edges it
        gained, for the pattern tracker."""
        group_id, members, _, _ = group
        cp = group_id[0]
        size = len(members)
        updates: list[tuple[PairGraph, list[Edge]]] = []
        if cp > 0:
            pair = self.pair(cp - 1)
            updates.append((pair, pair.add_right(group_id, size, before)))
        left_pair = self.pair(cp)
        updates.append((left_pair, left_pair.add_left(group_id, size, after)))
        return updates

    def on_failed_component(self, cp: int) -> None:
        """A component at cp fell below the group threshold.  No pair
        changes; benchmarks/tracing.py wraps the method by name."""
