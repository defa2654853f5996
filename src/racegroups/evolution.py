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
edge's weight, |S ∩ S'|, is stored once, in the in-edge list of the
edge's head, where the union tests of the pattern detector read it.

A pair changes on exactly two events: a right group finished
(add_right) or a left group finished (add_left).  Each sizes the new
group and tests its intersections with the groups already finished on
the other side.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import Mu


class EdgeAdded(NamedTuple):
    """One promoted relation edge: left ordinal, right ordinal, direction."""

    left: int
    right: int
    forward: bool  # True: left -> right (left ~ right); False: right -> left


class PairGraph:
    """Precursor + evolution graph for the pair (left_cp, left_cp + 1)."""

    __slots__ = (
        "left_cp",
        "mu",
        "left_sizes",
        "right_sizes",
        "fwd",
        "bwd",
        "fwd_in",
        "bwd_in",
    )

    def __init__(self, left_cp: int, mu: Mu) -> None:
        self.left_cp = left_cp
        self.mu = mu
        self.left_sizes: list[int] = []
        self.right_sizes: list[int] = []
        self.fwd: dict[int, int] = {}  # left -> right
        self.bwd: dict[int, int] = {}  # right -> left
        self.fwd_in: dict[int, list[tuple[int, int]]] = {}  # right -> [(left, w)]
        self.bwd_in: dict[int, list[tuple[int, int]]] = {}  # left -> [(right, w)]

    @property
    def right_cp(self) -> int:
        return self.left_cp + 1

    # -- construction, one call per finished group ----------------------

    def add_right(self, ordinal: int, size: int, counts: dict[int, int]) -> list[EdgeAdded]:
        """A right group finished.  counts maps the ordinals of left
        groups already finished to the members each shares with it."""
        assert ordinal == len(self.right_sizes)
        self.right_sizes.append(size)
        added: list[EdgeAdded] = []
        num, den = self.mu.num, self.mu.den  # the tests of Mu.covers, inline
        for left, weight in counts.items():
            part = den * weight
            if part >= num * self.left_sizes[left]:
                self.fwd[left] = ordinal
                self.fwd_in.setdefault(ordinal, []).append((left, weight))
                added.append(tuple.__new__(EdgeAdded, (left, ordinal, True)))
            if part >= num * size:
                self.bwd[ordinal] = left
                self.bwd_in.setdefault(left, []).append((ordinal, weight))
                added.append(tuple.__new__(EdgeAdded, (left, ordinal, False)))
        return added

    def add_left(self, ordinal: int, size: int, counts: dict[int, int]) -> list[EdgeAdded]:
        """A left group finished.  counts maps the ordinals of right
        groups already finished to the members each shares with it."""
        assert ordinal == len(self.left_sizes)
        self.left_sizes.append(size)
        added: list[EdgeAdded] = []
        num, den = self.mu.num, self.mu.den
        for right, weight in counts.items():
            part = den * weight
            if part >= num * size:
                self.fwd[ordinal] = right
                self.fwd_in.setdefault(right, []).append((ordinal, weight))
                added.append(tuple.__new__(EdgeAdded, (ordinal, right, True)))
            if part >= num * self.right_sizes[right]:
                self.bwd[right] = ordinal
                self.bwd_in.setdefault(ordinal, []).append((right, weight))
                added.append(tuple.__new__(EdgeAdded, (ordinal, right, False)))
        return added

    # -- queries --------------------------------------------------------

    def strong_partner_of_left(self, ordinal: int) -> int | None:
        """Right ordinal strongly related to this left group, if any."""
        right = self.fwd.get(ordinal)
        if right is not None and self.bwd.get(right) == ordinal:
            return right
        return None

    @classmethod
    def from_memberships(
        cls,
        left_cp: int,
        left_sets: Sequence[Iterable[int]],
        right_sets: Sequence[Iterable[int]],
        mu: Mu,
    ) -> "PairGraph":
        """Build a finalized pair directly from explicit member sets.

        Test/fixture convenience; goes through the same update path as
        the streaming construction.
        """
        left = [set(s) for s in left_sets]
        right = [set(s) for s in right_sets]
        pair = cls(left_cp, mu)
        for o, s in enumerate(left):
            pair.add_left(o, len(s), {})
        for r, s in enumerate(right):
            counts = {}
            for o, ls in enumerate(left):
                shared = len(ls & s)
                if shared:
                    counts[o] = shared
            pair.add_right(r, len(s), counts)
        return pair


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
    ) -> list[tuple[PairGraph, list[EdgeAdded]]]:
        """before and after are the group's FinishedComponent counts.
        Returns the edges each affected pair gained, for the pattern
        tracker."""
        (cp, ordinal), members, _, _ = group
        size = len(members)
        updates: list[tuple[PairGraph, list[EdgeAdded]]] = []
        if cp > 0:
            pair = self.pair(cp - 1)
            updates.append((pair, pair.add_right(ordinal, size, before)))
        left_pair = self.pair(cp)
        updates.append((left_pair, left_pair.add_left(ordinal, size, after)))
        return updates

    def on_failed_component(self, cp: int) -> None:
        """A component at cp fell below the group threshold.  No pair
        changes; benchmarks/tracing.py wraps the method by name."""
