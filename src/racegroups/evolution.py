"""Precursor and evolution graphs between consecutive control points.

For each pair of consecutive control points (x, x') two graphs are
kept in one structure:

  * the precursor graph: undirected intersection counts between groups
    (weight = |S ∩ S'|); a finalized count is only read to test it,
    so just the *tentative* edges from finalized groups at x' back to
    the still-active component at x are stored;
  * the evolution graph: the directed relation edges derived from
    those counts - a forward edge S -> S' iff I(S, S') >= mu and a
    backward edge S' -> S iff I(S', S) >= mu.

Relations are only ever evaluated between two finalized groups.  A
tentative weight is the still-growing intersection with an unfinished
component; it either materializes into an ordinary edge when that
component becomes a group (and only then is tested), or is dropped
when the component fails the size threshold.

Since groups at one control point are disjoint and mu > 1/2, each
vertex has at most one outgoing edge in each direction; in-degrees are
unbounded.  The out-edges map a group to its partner's ordinal; each
edge's weight, |S ∩ S'|, is stored once, in the in-edge list of the
edge's head, where the union tests of the pattern detector read it.

A pair changes on exactly three events, in stream order:

  * a right group finished: add_right sizes it, tests its finalized
    intersections and keeps the pending rest as a tentative weight;
  * a left group finished: add_left sizes it and tests the tentative
    weights, which all counted towards it;
  * the active left component failed the size threshold:
    delete_tentative_edges drops the tentative weights.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .core import Mu
from .grouping import GroupingEngine


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
        self.fwd: dict[int, int] = {}  # left -> right
        self.bwd: dict[int, int] = {}  # right -> left
        self.fwd_in: dict[int, list[tuple[int, int]]] = {}  # right -> [(left, w)]
        self.bwd_in: dict[int, list[tuple[int, int]]] = {}  # left -> [(right, w)]

    @property
    def right_cp(self) -> int:
        return self.left_cp + 1

    # -- construction, one call per finished group ----------------------

    def add_right(
        self, ordinal: int, size: int, counts: dict[int, int], pending: int
    ) -> list[EdgeAdded]:
        """A right group finished.

        counts maps left group ordinals to shared-member counts, which
        are final and tested at once; pending is the number of members
        still inside the active component at the left control point,
        kept as a tentative weight.
        """
        assert ordinal == len(self.right_sizes)
        self.right_sizes.append(size)
        added: list[EdgeAdded] = []
        for left, weight in counts.items():
            self._promote(left, ordinal, weight, added)
        if pending:
            self.tentative[ordinal] = pending
        return added

    def add_left(self, ordinal: int, size: int) -> list[EdgeAdded]:
        """A left group finished.  It is the active component every
        tentative weight counted towards, so those are final now and
        are tested."""
        assert ordinal == len(self.left_sizes)
        self.left_sizes.append(size)
        added: list[EdgeAdded] = []
        for right, weight in self.tentative.items():
            self._promote(ordinal, right, weight, added)
        self.tentative.clear()
        return added

    def delete_tentative_edges(self) -> None:
        """The active left component failed the size threshold; its
        tentative edges are discarded (idempotent)."""
        self.tentative.clear()

    def _promote(
        self, left: int, right: int, weight: int, added: list[EdgeAdded]
    ) -> None:
        """Add the relation edges this exact intersection supports."""
        if self.mu.covers(weight, self.left_sizes[left]):
            self.fwd[left] = right
            self.fwd_in.setdefault(right, []).append((left, weight))
            added.append(EdgeAdded(left, right, True))
        if self.mu.covers(weight, self.right_sizes[right]):
            self.bwd[right] = left
            self.bwd_in.setdefault(left, []).append((right, weight))
            added.append(EdgeAdded(left, right, False))

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
            pair.add_left(o, len(s))
        for r, s in enumerate(right):
            counts = {}
            for o, ls in enumerate(left):
                shared = len(ls & s)
                if shared:
                    counts[o] = shared
            pair.add_right(r, len(s), counts, 0)
        return pair


class GraphStack:
    """All pair graphs of a race, built as groups finalize.

    The stack is fed finalization notifications in emission order: a
    group at control point c updates the pair (c-1, c) as a right node
    and the pair (c, c+1) as a left node (its tentative edges
    materialize).  As a right node, its members are tallied by their
    codes at c-1 through GroupingEngine.tally, as the codes stand at
    that moment.  A failed component at c only ever had tentative edges
    in (c, c+1), which are deleted.
    """

    def __init__(self, mu: Mu, engine: GroupingEngine) -> None:
        self.mu = mu
        self._engine = engine
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
            counts, pending = self._engine.tally(group, cp - 1)
            updates.append(
                (pair, pair.add_right(ordinal, group.size, counts, pending))
            )
        left_pair = self.pair(cp)
        updates.append((left_pair, left_pair.add_left(ordinal, group.size)))
        return updates

    def on_failed_component(self, cp: int) -> None:
        pair = self.pairs.get(cp)
        if pair is not None:
            pair.delete_tentative_edges()
