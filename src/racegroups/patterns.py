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

_new = tuple.__new__  # a record built without a NamedTuple call's Python-level __new__

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


class PatternSet(NamedTuple):
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
    """Final classification was asked for before the race was
    finalized."""


def _survives_record(pair: PairGraph, left: int, right: int) -> PatternRecord:
    left_ids, right_ids = pair.left_ids, pair.right_ids
    parents = pair.fwd_in[right]
    children = pair.bwd_in[left]
    # each in-tuple holds the strong partner itself
    absorbed = (
        tuple([left_ids[o] for o in sorted([o for o, _ in parents]) if o != left])
        if len(parents) > 1
        else ()
    )
    spawned = (
        tuple([right_ids[r] for r in sorted([r for r, _ in children]) if r != right])
        if len(children) > 1
        else ()
    )
    return _new(
        PatternRecord,
        (SURVIVES, pair.key, left_ids[left], right_ids[right], (), (), absorbed, spawned),
    )


def classify_target(pair: PairGraph, right: int) -> PatternRecord:
    """The single record owning right group `right` of this pair."""
    key, left_ids, right_ids = pair.key, pair.left_ids, pair.right_ids
    parents = pair.fwd_in.get(right)
    left = pair.bwd.get(right)
    if not parents:
        if left is None:
            return _new(PatternRecord, (APPEARS, key, None, right_ids[right], (), (), (), ()))
        strong_right = pair.strong_partner_of_left(left)
        if strong_right is not None:
            # the source survives elsewhere; this target is one of its
            # spawned groups and is owned by that Survives record
            return _survives_record(pair, left, strong_right)
        children = pair.bwd_in[left]
        if len(children) == 1:
            return _new(
                PatternRecord, (SHRINKS, key, left_ids[left], right_ids[right], (), (), (), ())
            )
        covered = sum(w for _, w in children)
        kind = SPLITS if pair.mu.covers(covered, pair.left_sizes[left]) else DISBANDS
        targets = tuple([right_ids[r] for r in sorted([r for r, _ in children])])
        return _new(PatternRecord, (kind, key, left_ids[left], None, (), targets, (), ()))
    if left is not None and pair.fwd.get(left) == right:
        return _survives_record(pair, left, right)
    if len(parents) == 1:
        source = left_ids[parents[0][0]]
        return _new(PatternRecord, (EXPANDS, key, source, right_ids[right], (), (), (), ()))
    covered = sum(w for _, w in parents)
    kind = MERGES if pair.mu.covers(covered, pair.right_sizes[right]) else COHERES
    sources = tuple([left_ids[o] for o in sorted([o for o, _ in parents])])
    return _new(PatternRecord, (kind, key, None, right_ids[right], sources, (), (), ()))


def _pattern_set(
    pair: PairGraph, target_records: Iterable[PatternRecord], finalized: bool
) -> PatternSet:
    """The pair's records - the given target records plus Disappears -
    sorted, with the corner flags, all read off how many of the records
    name each group: a left group that none names disappears unless it
    has a backward child.

    A record names its source or its sources, and its target or its
    targets, never both.  The records are sorted by kind, first source
    ordinal (-1 for none) and first target ordinal, one integer key
    each.  That is the order
    of PatternRecord.sort_key: within one kind no two records share a
    first source or a first target, since a group has at most one
    out-edge each way and groups at one control point are disjoint."""
    left_ids, right_ids = pair.left_ids, pair.right_ids
    left_names = [0] * len(pair.left_sizes)
    right_names = [0] * len(pair.right_sizes)
    span = max(len(left_names), len(right_names)) + 1  # above any ordinal + 1
    keyed: list[tuple[int, PatternRecord]] = []
    for rec in set(target_records):
        kind, _, source, target, sources, targets, absorbed, spawned = rec
        if source is not None:
            first_source = source[1]
            left_names[first_source] += 1
        elif sources:
            first_source = sources[0][1]
            for _, left in sources:
                left_names[left] += 1
        else:
            first_source = -1
        if target is not None:
            first_target = target[1]
            right_names[first_target] += 1
        elif targets:
            first_target = targets[0][1]
            for _, right in targets:
                right_names[right] += 1
        else:
            first_target = -1
        if absorbed:
            for _, left in absorbed:
                left_names[left] += 1
        if spawned:
            for _, right in spawned:
                right_names[right] += 1
        key = (_KIND_RANK[kind] * span + first_source + 1) * span + first_target + 1
        keyed.append((key, rec))
    flags: list[tuple[str, GroupId]] = []
    disappears = _KIND_RANK[DISAPPEARS] * span
    for left, names in enumerate(left_names):
        if names > 1:
            flags.append((FLAG_DOUBLE_SOURCE, left_ids[left]))
        elif not names:
            if pair.bwd_in.get(left):
                flags.append((FLAG_UNCLASSIFIED, left_ids[left]))
            else:
                rec = _new(
                    PatternRecord, (DISAPPEARS, pair.key, left_ids[left], None, (), (), (), ())
                )
                keyed.append(((disappears + left + 1) * span, rec))
    for right, names in enumerate(right_names):
        if names > 1:
            flags.append((FLAG_DOUBLE_TARGET, right_ids[right]))
    keyed.sort()
    return PatternSet(
        pair=pair.key,
        records=tuple([rec for _, rec in keyed]),
        flags=tuple(sorted(flags)),
        finalized=finalized,
    )


def detect_patterns(pair: PairGraph) -> PatternSet:
    """Classify every group of a pair of a finalized race (batch mode).
    Mid-stream a pair lacks the groups still open, so its answer may
    be wrong; the online tracker's snapshot gives the transitory one."""
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
            left_cp, right_cp = pair.key
            dirty: set[int] = set()
            if right_cp == cp:
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
            owner = self._owner.setdefault(left_cp, {})
            refs = self._refs.setdefault(left_cp, {})
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
