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
are not guessed away; they are reported as diagnostics:

  unclassified-source: a left group with no forward edge whose every
      backward child is classified through its own forward parents, so
      no record ever names it.
  doubly-owned-source: a left group that is named both through its
      forward edge and as the source of a Shrinks/Splits/Disbands.
  doubly-owned-target: a right group listed inside another group's
      Splits/Disbands targets (or a spawned list) while also owning a
      record through its own forward parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


@dataclass(frozen=True)
class PatternRecord:
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
    """Finalized-mode classification was asked for a pair that still
    has tentative edges (some component is not finished)."""


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
    back = pair.bwd.get(right)
    if not parents:
        if back is None:
            return PatternRecord(APPEARS, (lcp, rcp), target=(rcp, right))
        left = back[0]
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
    if back is not None:
        left = back[0]
        fwd = pair.fwd.get(left)
        if fwd is not None and fwd[0] == right:
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


def classify_source(pair: PairGraph, left: int) -> PatternRecord | None:
    """Disappears is the only pattern detected from the source side;
    every other outcome for a left group is owned by some target's
    record."""
    if left in pair.fwd or pair.bwd_in.get(left):
        return None
    return PatternRecord(
        DISAPPEARS,
        (pair.left_cp, pair.right_cp),
        source=(pair.left_cp, left),
    )


def _source_has_sd_record(pair: PairGraph, left: int) -> bool:
    """True when some Shrinks/Splits/Disbands record has this source:
    no strong partner and at least one backward child with f_in = 0."""
    if pair.strong_partner_of_left(left) is not None:
        return False
    return any(
        not pair.fwd_in.get(r) for r, _ in pair.bwd_in.get(left, ())
    )


def corner_flags(pair: PairGraph) -> tuple[tuple[str, GroupId], ...]:
    """Diagnostics for the configurations where the pattern definitions
    stop being mutually exclusive (see module docstring)."""
    lcp, rcp = pair.left_cp, pair.right_cp
    flags: list[tuple[str, GroupId]] = []
    for left in range(len(pair.left_sizes)):
        has_fwd = left in pair.fwd
        children = pair.bwd_in.get(left, ())
        if not has_fwd and children and not _source_has_sd_record(pair, left):
            flags.append((FLAG_UNCLASSIFIED, (lcp, left)))
        if (
            has_fwd
            and pair.strong_partner_of_left(left) is None
            and _source_has_sd_record(pair, left)
        ):
            flags.append((FLAG_DOUBLE_SOURCE, (lcp, left)))
    for right in range(len(pair.right_sizes)):
        if not pair.fwd_in.get(right):
            continue
        back = pair.bwd.get(right)
        if back is None:
            continue
        left = back[0]
        strong_right = pair.strong_partner_of_left(left)
        listed = (
            strong_right is not None and strong_right != right
        ) or (strong_right is None and _source_has_sd_record(pair, left))
        if listed:
            flags.append((FLAG_DOUBLE_TARGET, (rcp, right)))
    return tuple(sorted(flags))


def _pattern_set(
    pair: PairGraph, target_records: Iterable[PatternRecord], finalized: bool
) -> PatternSet:
    """The pair's records - the given target records plus Disappears,
    read off the pair - sorted, with the corner diagnostics."""
    records = set(target_records)
    for left in range(len(pair.left_sizes)):
        rec = classify_source(pair, left)
        if rec is not None:
            records.add(rec)
    return PatternSet(
        pair=(pair.left_cp, pair.right_cp),
        records=tuple(sorted(records, key=PatternRecord.sort_key)),
        flags=corner_flags(pair),
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
    flags are read off the pair when a snapshot is taken.  After each
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
                        dirty.update(r for r, _ in pair.bwd_in[back[0]])
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
