"""Streaming detection of components and groups at every control point.

The engine consumes events in global time order.  Each control point
keeps at most one *active* component: the chain of crossings whose
consecutive gaps are all <= epsilon.  An arrival more than epsilon
after the component's last crossing finishes the component - it
becomes a group if it holds at least m athletes, otherwise all its
members are outliers at that control point - and starts a new one.
The comparison is non-strict (gap <= epsilon) so that epsilon=0 on
second-resolution data groups athletes crossing during the same clock
second.

Per athlete the engine keeps a compact history: one slot per control
point crossed, holding either the group ordinal at that point or one
of the sentinel codes below.  Slots are appended in control-point
order, so lookups are list indexing.

Everything here is single-writer: one logical ingestion stream.
Finished groups are immutable and may be read concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .core import Event, Params

# History slot codes (non-negative values are group ordinals).
OUTLIER = -1  # crossed, but the component stayed below the group threshold
PENDING = -2  # crossed, component still active
ABSENT = -3  # never crossed this control point

GroupId = tuple[int, int]  # (control point index, ordinal within it)

ANOMALY_DUPLICATE = "duplicate-event"
ANOMALY_ORDER = "order-violation"
ANOMALY_SKIPPED = "skipped-cp"
ANOMALY_PACE = "pace-jump"


@dataclass(frozen=True)
class AnomalyRecord:
    athlete: int
    kind: str
    cp: int
    details: str


class StreamOrderError(ValueError):
    """Raised when the input stream itself violates global time order."""


@dataclass(frozen=True)
class Group:
    """A finished component with at least m members."""

    id: GroupId
    members: tuple[int, ...]  # in crossing order
    t_first: int
    t_last: int

    @property
    def cp(self) -> int:
        return self.id[0]

    @property
    def ordinal(self) -> int:
        return self.id[1]

    @property
    def size(self) -> int:
        return len(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)


class FinishedComponent(NamedTuple):
    """Engine output: a component was decreed finished.

    group is None when the component fell below the group threshold,
    in which case every member became an outlier at this control point.
    """

    cp: int
    members: tuple[int, ...]
    t_first: int
    t_last: int
    group: Group | None


class GroupingEngine:
    """Algorithm state for the whole race: components, groups, histories."""

    def __init__(self, params: Params) -> None:
        self.params = params
        # cp -> [member list, t_first, t_last]; plain lists keep the
        # per-event work to a few dict/list operations
        self._active: dict[int, list] = {}
        self.groups: dict[int, list[Group]] = {}
        self.outliers: dict[int, list[int]] = {}
        self.component_counts: dict[int, int] = {}
        # athlete -> [codes per cp, times per cp]
        self._athletes: dict[int, list] = {}
        self.anomalies: list[AnomalyRecord] = []
        self.events_accepted = 0
        self.events_rejected = 0
        self._last_stream_time: int | None = None
        self._finalized = False

    # -- ingestion ----------------------------------------------------

    def ingest_many(self, events: Iterable[Event], on_finish=None) -> None:
        """Feed a time-ordered batch of events.

        on_finish, when given, is invoked synchronously with each
        FinishedComponent at the moment it is decreed finished; it is
        the engine's only report of finished components.  Downstream
        graph bookkeeping relies on observing athlete histories exactly
        as they were at that moment, before later events resolve more
        pending entries.

        Raises StreamOrderError if global timestamps ever decrease and
        ValueError on a negative control point; per-athlete
        irregularities (duplicate crossings, control points out of
        order) are rejected with an anomaly record instead, since they
        indicate corrupt data for one athlete rather than a broken
        stream.
        """
        if self._finalized:
            raise StreamOrderError("stream already finalized by the broom wagon")
        eps = self.params.epsilon
        active = self._active
        athletes = self._athletes
        anomalies = self.anomalies
        last_stream = self._last_stream_time
        accepted = 0
        rejected = 0
        try:
            for athlete, cp, t in events:
                if last_stream is not None and t < last_stream:
                    raise StreamOrderError(
                        f"event time {t} for athlete {athlete} at cp {cp} is "
                        f"before stream time {last_stream}"
                    )
                last_stream = t
                rec = athletes.get(athlete)
                if rec is None:
                    rec = athletes[athlete] = [[], []]
                codes, times = rec
                ncrossed = len(codes)
                if cp < ncrossed:
                    if cp < 0:
                        if not codes:
                            del athletes[athlete]
                        raise ValueError(
                            f"negative control point {cp} for athlete {athlete} "
                            f"at time {t}"
                        )
                    kind = ANOMALY_ORDER if codes[cp] == ABSENT else ANOMALY_DUPLICATE
                    anomalies.append(
                        AnomalyRecord(
                            athlete,
                            kind,
                            cp,
                            f"event at t={t} after cp {ncrossed - 1} was recorded",
                        )
                    )
                    rejected += 1
                    continue
                # the trailing slot is a real crossing: absences are only
                # backfilled before one
                if ncrossed and times[-1] >= t:
                    anomalies.append(
                        AnomalyRecord(
                            athlete,
                            ANOMALY_ORDER,
                            cp,
                            f"time {t} does not increase over previous crossing "
                            f"{times[-1]}",
                        )
                    )
                    rejected += 1
                    continue
                if cp > ncrossed:
                    for skipped in range(ncrossed, cp):
                        codes.append(ABSENT)
                        times.append(-1)
                        anomalies.append(
                            AnomalyRecord(
                                athlete, ANOMALY_SKIPPED, skipped, "no crossing recorded"
                            )
                        )
                codes.append(PENDING)
                times.append(t)
                accepted += 1
                comp = active.get(cp)
                if comp is None:
                    active[cp] = [[athlete], t, t]
                elif t - comp[2] <= eps:
                    comp[0].append(athlete)
                    comp[2] = t
                else:
                    # the new component is in place before the callback
                    # runs, so a callback that raises leaves a sound state
                    active[cp] = [[athlete], t, t]
                    finished = self._finish(cp, comp)
                    if on_finish is not None:
                        on_finish(finished)
        finally:
            self._last_stream_time = last_stream
            self.events_accepted += accepted
            self.events_rejected += rejected

    def finalize_all(self, on_finish=None) -> None:
        """Broom wagon: finish every remaining active component.

        Components are finished in control-point order so that, by the
        time a group is decreed at cp c, every history entry at c-1 is
        already resolved.  Each leaves the active set before its
        callback runs, so none is finished twice.
        """
        active = self._active
        for cp in sorted(active):
            finished = self._finish(cp, active.pop(cp))
            if on_finish is not None:
                on_finish(finished)
        self._finalized = True

    def _finish(self, cp: int, comp: list) -> FinishedComponent:
        member_list, t_first, t_last = comp
        members = tuple(member_list)  # shared by the group and the report
        athletes = self._athletes
        self.component_counts[cp] = self.component_counts.get(cp, 0) + 1
        if len(members) >= self.params.m:
            bucket = self.groups.get(cp)
            if bucket is None:
                bucket = self.groups[cp] = []
            ordinal = len(bucket)
            group = Group((cp, ordinal), members, t_first, t_last)
            bucket.append(group)
            for athlete in members:
                athletes[athlete][0][cp] = ordinal
        else:
            group = None
            bucket = self.outliers.get(cp)
            if bucket is None:
                bucket = self.outliers[cp] = []
            bucket.extend(members)
            for athlete in members:
                athletes[athlete][0][cp] = OUTLIER
        return FinishedComponent(cp, members, t_first, t_last, group)

    # -- read access ---------------------------------------------------

    def raw_histories(self) -> dict[int, list]:
        """The live athlete -> [codes, times] table.

        Shared, not copied: graph construction reads codes through this
        while ingestion is still running.  Callers must not mutate it.
        """
        return self._athletes

    def groups_at(self, cp: int) -> list[Group]:
        if cp < 0:
            raise IndexError(f"control point {cp} out of range")
        return list(self.groups.get(cp, ()))

    def outliers_at(self, cp: int) -> list[int]:
        if cp < 0:
            raise IndexError(f"control point {cp} out of range")
        return list(self.outliers.get(cp, ()))

    def n_components_at(self, cp: int) -> int:
        """How many epsilon-connected components finished at cp.

        Counts every component, group or not; the active one, if any,
        is included since it will finish eventually.
        """
        return self.component_counts.get(cp, 0) + (1 if cp in self._active else 0)

    def n_crossed_at(self, cp: int) -> int:
        """How many athletes crossed cp.

        Every accepted crossing at cp sits in exactly one component
        there: a group, an outlier batch or the active one.
        """
        active = self._active.get(cp)
        return (
            sum(g.size for g in self.groups.get(cp, ()))
            + len(self.outliers.get(cp, ()))
            + (len(active[0]) if active is not None else 0)
        )

    def known_cps(self) -> list[int]:
        cps = set(self.groups) | set(self.outliers) | set(self._active)
        return sorted(cps)
