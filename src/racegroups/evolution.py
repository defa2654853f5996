"""Precursor and evolution graphs between consecutive control points.

For each pair of consecutive control points (x, x') two graphs are
kept in one structure:

  * the precursor graph: undirected intersection counts between groups
    (weight = |S ∩ S'|); a finalized count is only read to test it,
    so just the *tentative* edges from finalized groups at x' back to
    the still-active component at x are stored;
  * the evolution graph: the directed relation edges derived from
    those counts - a forward edge S -> S' iff I(S, S') >= mu and a
    backward edge S' -> S iff I(S', S) >= mu, both weighted |S ∩ S'|.

Relations are only ever evaluated between two finalized groups.  A
tentative weight is the still-growing intersection with an unfinished
component; it either materializes into an ordinary edge when that
component becomes a group (and only then is tested), or is dropped
when the component fails the size threshold.

Since groups at one control point are disjoint and mu > 1/2, each
vertex has at most one outgoing edge in each direction; in-degrees are
unbounded.  Those out-edges and the in-edge lists are exactly what the
pattern detector needs, so they are maintained incrementally here.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import Mu
from .grouping import PENDING


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
        "tentative",
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
        # right ordinal -> intersection with the active component at left_cp
        self.tentative: dict[int, int] = {}
        self.fwd: dict[int, tuple[int, int]] = {}  # left -> (right, w)
        self.bwd: dict[int, tuple[int, int]] = {}  # right -> (left, w)
        self.fwd_in: dict[int, list[tuple[int, int]]] = {}  # right -> [(left, w)]
        self.bwd_in: dict[int, list[tuple[int, int]]] = {}  # left -> [(right, w)]

    @property
    def right_cp(self) -> int:
        return self.left_cp + 1

    # -- construction, driven by group finalization --------------------

    def register_left(self, ordinal: int, size: int) -> None:
        assert ordinal == len(self.left_sizes)
        self.left_sizes.append(size)

    def register_right(self, ordinal: int, size: int) -> None:
        assert ordinal == len(self.right_sizes)
        self.right_sizes.append(size)

    def update_precursor(
        self, right_ordinal: int, counts: dict[int, int], pending: int
    ) -> list[EdgeAdded]:
        """Record the intersections of a just-finalized right group.

        counts maps left group ordinals to shared-member counts;
        pending is the number of members still inside the active
        component at the left control point (they become a tentative
        edge).  The finalized intersections are immediately tested for
        weak relations in both directions.
        """
        added: list[EdgeAdded] = []
        for left_ordinal, w in counts.items():
            added.extend(self.promote_relations(left_ordinal, right_ordinal, w))
        if pending:
            self.tentative[right_ordinal] = (
                self.tentative.get(right_ordinal, 0) + pending
            )
        return added

    def materialize_tentative(self, left_ordinal: int) -> list[EdgeAdded]:
        """The active left component became this group: its tentative
        intersections are final now and are tested."""
        added: list[EdgeAdded] = []
        for right_ordinal, w in self.tentative.items():
            added.extend(self.promote_relations(left_ordinal, right_ordinal, w))
        self.tentative.clear()
        return added

    def delete_tentative_edges(self) -> None:
        """The active left component failed the size threshold; its
        tentative edges are discarded (idempotent)."""
        self.tentative.clear()

    def promote_relations(
        self, left_ordinal: int, right_ordinal: int, weight: int
    ) -> list[EdgeAdded]:
        """Add the relation edges this exact intersection supports."""
        mu = self.mu
        added = []
        if mu.covers(weight, self.left_sizes[left_ordinal]):
            self.fwd[left_ordinal] = (right_ordinal, weight)
            self.fwd_in.setdefault(right_ordinal, []).append(
                (left_ordinal, weight)
            )
            added.append(EdgeAdded(left_ordinal, right_ordinal, True))
        if mu.covers(weight, self.right_sizes[right_ordinal]):
            self.bwd[right_ordinal] = (left_ordinal, weight)
            self.bwd_in.setdefault(left_ordinal, []).append(
                (right_ordinal, weight)
            )
            added.append(EdgeAdded(left_ordinal, right_ordinal, False))
        return added

    # -- queries --------------------------------------------------------

    def strong_partner_of_left(self, ordinal: int) -> int | None:
        """Right ordinal strongly related to this left group, if any."""
        fwd = self.fwd.get(ordinal)
        if fwd is None:
            return None
        right_ordinal = fwd[0]
        back = self.bwd.get(right_ordinal)
        if back is not None and back[0] == ordinal:
            return right_ordinal
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
            pair.register_left(o, len(s))
        for r, s in enumerate(right):
            pair.register_right(r, len(s))
            counts = {}
            for o, ls in enumerate(left):
                shared = len(ls & s)
                if shared:
                    counts[o] = shared
            pair.update_precursor(r, counts, 0)
        return pair


class GraphStack:
    """All pair graphs of a race, built as groups finalize.

    The stack is fed finalization notifications in emission order: a
    group at control point c updates the pair (c-1, c) as a right node
    (intersections counted from its members' histories) and the pair
    (c, c+1) as a left node (its tentative edges materialize).  A
    failed component at c only ever had tentative edges in (c, c+1),
    which are deleted.
    """

    def __init__(self, mu: Mu, histories: dict[int, list]) -> None:
        self.mu = mu
        self._histories = histories  # athlete -> [codes, times], shared
        self.pairs: dict[int, PairGraph] = {}

    def pair(self, left_cp: int) -> PairGraph:
        pair = self.pairs.get(left_cp)
        if pair is None:
            pair = self.pairs[left_cp] = PairGraph(left_cp, self.mu)
        return pair

    def on_group(self, group) -> list[tuple[PairGraph, list[EdgeAdded]]]:
        """Returns the edges each affected pair gained, for the
        pattern tracker."""
        cp, ordinal = group.id
        updates: list[tuple[PairGraph, list[EdgeAdded]]] = []
        if cp > 0:
            pair = self.pair(cp - 1)
            pair.register_right(ordinal, group.size)
            prev = cp - 1
            counts: dict[int, int] = {}
            pending = 0
            histories = self._histories
            for athlete in group.members:
                code = histories[athlete][0][prev]
                if code >= 0:
                    counts[code] = counts.get(code, 0) + 1
                elif code == PENDING:
                    pending += 1
            updates.append((pair, pair.update_precursor(ordinal, counts, pending)))
        left_pair = self.pair(cp)
        left_pair.register_left(ordinal, group.size)
        updates.append((left_pair, left_pair.materialize_tentative(ordinal)))
        return updates

    def on_failed_component(self, cp: int) -> None:
        pair = self.pairs.get(cp)
        if pair is not None:
            pair.delete_tentative_edges()
