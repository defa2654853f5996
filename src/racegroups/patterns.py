"""Classification of the nine evolution patterns between two control points.

Every group on the right side of a pair graph is classified by one
branch chain over its relation degrees, every group on the left side
is additionally checked for Disappears:

  f_in(S')=0 and b_out(S')=0                -> Appears(S')
  f_in(S')=0 and S' ~ S:
      S strongly tied to another target T   -> owned by Survives(S, T)
                                               (S' is in its spawned list)
      b_in(S)=1                             -> Shrinks(S, S')
      b_in(S)>1, S ~ union of its targets   -> Splits(S, targets)
      b_in(S)>1, otherwise                  -> Disbands(S, targets)
  S ≈ S' (strong)                           -> Survives(S, S')
  f_in(S')=1                                -> Expands(S, S')
  f_in(S')>1, S' ~ union of sources         -> Merges(sources, S')
  f_in(S')>1, otherwise                     -> Coheres(sources, S')
  f_out(S)=0 and b_in(S)=0                  -> Disappears(S)

A Survives record also lists absorbed groups (other forward parents of
the target) and spawned groups (other backward children of the
source); both lists are reported when both are non-empty.  Union tests
never materialize sets: groups at one control point are disjoint, so
|S ∩ (T1 ∪ T2 ∪ ...)| is the plain sum of the edge weights.

The branch order makes classification total and deterministic, but the
underlying definitions overlap in a few corner configurations.  Those
are not guessed away.  A record names left groups as its source,
sources or absorbed, right groups as its target, targets or spawned;
a group that is not named by exactly one record is flagged:

  unclassified-source: a left group no record names, though it has a
      backward child (each such child has forward parents of its own).
  doubly-owned-source: a left group two records name: the one through
      its forward edge and a Shrinks/Splits/Disbands.
  doubly-owned-target: a right group two records name: its own and its
      backward partner's Splits/Disbands or Survives (spawned).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .evolution import EdgeAdded, PairGraph
from .grouping import Group, GroupId

APPEARS = "appears"
DISAPPEARS = "disappears"
SURVIVES = "survives"
EXPANDS = "expands"
SHRINKS = "shrinks"
MERGES = "merges"
SPLITS = "splits"
COHERES = "coheres"
DISBANDS = "disbands"

KINDS = (
    APPEARS,
    DISAPPEARS,
    SURVIVES,
    EXPANDS,
    SHRINKS,
    MERGES,
    SPLITS,
    COHERES,
    DISBANDS,
)
_KIND_RANK = {kind: i for i, kind in enumerate(KINDS)}

FLAG_UNCLASSIFIED = "unclassified-source"
FLAG_DOUBLE_SOURCE = "doubly-owned-source"
FLAG_DOUBLE_TARGET = "doubly-owned-target"


class PatternRecord(NamedTuple):
    kind: str
    pair: tuple[int, int]  # (x, x')
    source: GroupId | None = None
    target: GroupId | None = None
    sources: tuple[GroupId, ...] = ()  # merges / coheres
    targets: tuple[GroupId, ...] = ()  # splits / disbands
    absorbed: tuple[GroupId, ...] = ()  # survives
    spawned: tuple[GroupId, ...] = ()  # survives

    def sort_key(self):
        return (
            self.pair,
            _KIND_RANK[self.kind],
            self.source or self.sources or ((-1, -1),),
            self.target or self.targets or ((-1, -1),),
        )


@dataclass(frozen=True)
class PatternSet:
    """Deduplicated records (plus corner diagnostics) for one cp pair."""

    pair: tuple[int, int]
    records: tuple[PatternRecord, ...]
    flags: tuple[tuple[str, GroupId], ...]
    finalized: bool

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(KINDS, 0)
        for rec in self.records:
            out[rec.kind] += 1
        return out


class IncompletePairError(RuntimeError):
    """Final classification was asked for too early: a pair that still
    has tentative edges, or a race that is not finalized."""


def _survives_record(pair: PairGraph, left: int, right: int) -> PatternRecord:
    lcp, rcp = pair.left_cp, pair.right_cp
    absorbed = tuple(
        sorted((lcp, o) for o, _ in pair.fwd_in.get(right, ()) if o != left)
    )
    spawned = tuple(
        sorted((rcp, r) for r, _ in pair.bwd_in.get(left, ()) if r != right)
    )
    return PatternRecord(
        SURVIVES,
        (lcp, rcp),
        source=(lcp, left),
        target=(rcp, right),
        absorbed=absorbed,
        spawned=spawned,
    )


def classify_target(pair: PairGraph, right: int) -> PatternRecord:
    """The single record owning right group `right` of this pair."""
    lcp, rcp = pair.left_cp, pair.right_cp
    parents = pair.fwd_in.get(right, ())
    left = pair.bwd.get(right)
    if not parents:
        if left is None:
            return PatternRecord(APPEARS, (lcp, rcp), target=(rcp, right))
        strong_right = pair.strong_partner_of_left(left)
        if strong_right is not None:
            # the source survives elsewhere; this target is one of its
            # spawned groups and is owned by that Survives record
            return _survives_record(pair, left, strong_right)
        children = pair.bwd_in[left]
        if len(children) == 1:
            return PatternRecord(
                SHRINKS, (lcp, rcp), source=(lcp, left), target=(rcp, right)
            )
        covered = sum(w for _, w in children)
        kind = SPLITS if pair.mu.covers(covered, pair.left_sizes[left]) else DISBANDS
        return PatternRecord(
            kind,
            (lcp, rcp),
            source=(lcp, left),
            targets=tuple(sorted((rcp, r) for r, _ in children)),
        )
    if left is not None and pair.fwd.get(left) == right:
        return _survives_record(pair, left, right)
    if len(parents) == 1:
        return PatternRecord(
            EXPANDS, (lcp, rcp), source=(lcp, parents[0][0]), target=(rcp, right)
        )
    covered = sum(w for _, w in parents)
    kind = MERGES if pair.mu.covers(covered, pair.right_sizes[right]) else COHERES
    return PatternRecord(
        kind,
        (lcp, rcp),
        sources=tuple(sorted((lcp, o) for o, _ in parents)),
        target=(rcp, right),
    )


def _pattern_set(
    pair: PairGraph, target_records: Iterable[PatternRecord], finalized: bool
) -> PatternSet:
    """The pair's records - the given target records plus Disappears -
    sorted, with the corner flags, all read off how many of the records
    name each group: a left group that none names disappears unless it
    has a backward child."""
    lcp, rcp = pair.left_cp, pair.right_cp
    records = set(target_records)
    left_names = [0] * len(pair.left_sizes)
    right_names = [0] * len(pair.right_sizes)
    for rec in records:
        if rec.source is not None:
            left_names[rec.source[1]] += 1
        for _, left in rec.sources:
            left_names[left] += 1
        for _, left in rec.absorbed:
            left_names[left] += 1
        if rec.target is not None:
            right_names[rec.target[1]] += 1
        for _, right in rec.targets:
            right_names[right] += 1
        for _, right in rec.spawned:
            right_names[right] += 1
    flags: list[tuple[str, GroupId]] = []
    for left, names in enumerate(left_names):
        if names > 1:
            flags.append((FLAG_DOUBLE_SOURCE, (lcp, left)))
        elif not names:
            if pair.bwd_in.get(left):
                flags.append((FLAG_UNCLASSIFIED, (lcp, left)))
            else:
                records.add(
                    PatternRecord(DISAPPEARS, (lcp, rcp), source=(lcp, left))
                )
    for right, names in enumerate(right_names):
        if names > 1:
            flags.append((FLAG_DOUBLE_TARGET, (rcp, right)))
    return PatternSet(
        pair=(lcp, rcp),
        records=tuple(sorted(records, key=PatternRecord.sort_key)),
        flags=tuple(sorted(flags)),
        finalized=finalized,
    )


def detect_patterns(pair: PairGraph) -> PatternSet:
    """Classify every group of a finalized pair (batch mode)."""
    if pair.tentative:
        raise IncompletePairError(
            f"pair ({pair.left_cp},{pair.right_cp}) still has tentative edges"
        )
    return _pattern_set(
        pair,
        (classify_target(pair, r) for r in range(len(pair.right_sizes))),
        finalized=True,
    )


class PatternTracker:
    """On-the-fly classification, kept current as groups finalize.

    Per pair the tracker keeps the record owning each right group and
    how many right groups own each record; Disappears and the corner
    flags are counted off those records when a snapshot is taken.  After each
    finalization only the right groups whose branch inputs could have
    changed are reclassified: the new group, the right end of every new
    edge, and every backward child of S for a new backward edge into S
    (their Shrinks/Splits/Disbands/spawned membership may change) or
    for a new forward edge into S's backward partner T (a spawned child
    of S owns the Survives(S, T) record, whose absorbed list grew).
    Until a pair is sealed its records are transitory: a target that
    finalizes before its source reports Appears and is revised once the
    source arrives.
    """

    def __init__(self) -> None:
        # left cp -> right ordinal -> owning record
        self._owner: dict[int, dict[int, PatternRecord]] = {}
        # left cp -> record -> number of right groups owning it
        self._refs: dict[int, dict[PatternRecord, int]] = {}
        self._sealed = False

    def on_group(
        self, group: Group, updates: Iterable[tuple[PairGraph, list[EdgeAdded]]]
    ) -> None:
        cp, ordinal = group.id
        for pair, edges in updates:
            dirty: set[int] = set()
            if pair.left_cp == cp - 1:
                dirty.add(ordinal)  # the new right vertex
            for left, right, forward in edges:
                if forward:
                    dirty.add(right)
                    back = pair.bwd.get(right)
                    if back is not None:
                        dirty.update(r for r, _ in pair.bwd_in[back])
                else:
                    dirty.update(r for r, _ in pair.bwd_in[left])
            if not dirty:
                continue
            owner = self._owner.setdefault(pair.left_cp, {})
            refs = self._refs.setdefault(pair.left_cp, {})
            for right in dirty:
                new = classify_target(pair, right)
                old = owner.get(right)
                if old == new:
                    continue
                if old is not None:
                    remaining = refs[old] - 1
                    if remaining:
                        refs[old] = remaining
                    else:
                        del refs[old]
                owner[right] = new
                refs[new] = refs.get(new, 0) + 1

    def snapshot(self, pair: PairGraph) -> PatternSet:
        """Current records for one pair; they are transitory until the
        tracker is sealed, which the set's `finalized` flag tells."""
        return _pattern_set(
            pair, self._refs.get(pair.left_cp, ()), finalized=self._sealed
        )

    def seal(self, pairs: Iterable[PairGraph]) -> dict[int, PatternSet]:
        """The stream is over: mark every pair final and return its
        pattern sets, keyed by left control point."""
        self._sealed = True
        return {pair.left_cp: self.snapshot(pair) for pair in pairs}
