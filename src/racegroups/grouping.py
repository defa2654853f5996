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

Race state is held in columns.  Each athlete gets a dense slot on
first sight; per slot the engine keeps how many control points the
athlete has passed (crossed or skipped) and the time of their last
crossing, which decide whether a new crossing is accepted.  Per control
point one code list and one time list are indexed by slot.  A code is
the group ordinal at that point or one of the sentinel codes below; a
crossed point reads PENDING, the column's fill value, until its
component finishes and writes the ordinal or OUTLIER for every member.
Every column is as long as the slot capacity, which grows by an eighth
(at least one block of slots) when a new athlete finds it full, so a
new athlete costs no per-column work; the spare slots past the last
athlete's are never read.  Only this module knows the layout: the rest
of the package reads it through the accessors at the end of
GroupingEngine.

Everything here is single-writer: one logical ingestion stream.
Finished groups are immutable and may be read concurrently.
"""

from __future__ import annotations

import heapq
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Event, Params

# Codes (non-negative values are group ordinals).
OUTLIER = -1  # crossed, but the component stayed below the group threshold
PENDING = -2  # crossed, component still active; the fill of a code column
ABSENT = -3  # skipped: a later control point was crossed, this one never

_SLOT_BLOCK = 512  # the least growth of the columns' slot capacity

GroupId = tuple[int, int]  # (control point index, ordinal within it)

ANOMALY_DUPLICATE = "duplicate-event"
ANOMALY_ORDER = "order-violation"
ANOMALY_SKIPPED = "skipped-cp"
ANOMALY_PACE = "pace-jump"


class AnomalyRecord(NamedTuple):
    athlete: int
    kind: str
    cp: int
    details: str


class StreamOrderError(ValueError):
    """Raised when the input stream itself violates global time order."""


class Group(NamedTuple):
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
    in which case every member became an outlier at this control point
    and before and after are empty.  Otherwise before (after) maps the
    ordinal of each group already finished at cp - 1 (cp + 1) to the
    number of members it shares with this one.  A shared member is
    counted once, by whichever of the two groups finishes second: when
    the first finished, the member read PENDING in the second's column.
    Only the later group reads codes: a group at cp + 1 counts its
    members that read PENDING at cp, who are all in the component still
    active there, and credits that count to the component, which
    reports its credits as after.
    """

    cp: int
    members: tuple[int, ...]
    group: Group | None
    before: dict[int, int]
    after: dict[int, int]


class GroupingEngine:
    """Algorithm state for the whole race: components, groups, columns."""

    def __init__(self, params: Params) -> None:
        self.params = params
        # cp -> [member list, slot list, t_first, t_last, after]; plain
        # lists keep the per-event work to a few dict/list operations
        self._active: dict[int, list] = {}
        self.groups: dict[int, list[Group]] = {}
        self.component_counts: dict[int, int] = {}
        self.outlier_counts: dict[int, int] = {}  # cp -> outlier athletes
        self._slot_of: dict[int, int] = {}  # athlete -> slot
        self._athletes: list[int] = []  # slot -> athlete
        self._passed: list[int] = []  # slot -> last control point passed + 1
        self._last_time: list[int] = []  # slot -> time of the last crossing
        self._capacity = 0  # the length of every column
        self._codes: list[list[int]] = []  # cp -> slot -> code
        self._times: list[list[int]] = []  # cp -> slot -> crossing time, or -1
        # one record per (athlete, kind, cp), however often it recurs
        self.anomalies: list[AnomalyRecord] = []
        self._anomaly_keys: set[tuple[int, str, int]] = set()
        # athlete -> position of each athlete of the last leaders() call,
        # until the next accepted crossing can change it
        self._leader_positions: dict[int, int] = {}
        self.events_accepted = 0
        self.events_rejected = 0
        self._last_stream_time: int | None = None
        self._finalized = False

    # -- ingestion ----------------------------------------------------

    def ingest_many(self, events: Iterable[Event], on_finish=None) -> None:
        """Feed a time-ordered batch of events.

        on_finish, when given, is invoked synchronously with each
        FinishedComponent at the moment it is decreed finished; it is
        the engine's only report of finished components.  Each report
        carries its group's exact shared-member counts, so the callback
        needs nothing else from the engine.

        Raises StreamOrderError if global timestamps ever decrease and
        ValueError on a negative control point; per-athlete
        irregularities (duplicate crossings, control points out of
        order) are rejected with an anomaly record instead, since they
        indicate corrupt data for one athlete rather than a broken
        stream.  An (athlete, kind, cp) is recorded once however often
        it recurs; events_rejected counts every rejection.
        """
        if self._finalized:
            raise StreamOrderError("stream already finalized by the broom wagon")
        eps = self.params.epsilon
        active = self._active
        slot_of = self._slot_of
        athletes = self._athletes
        passed = self._passed
        last_time = self._last_time
        codes = self._codes
        times = self._times
        record = self._record_anomaly
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
                slot = slot_of.get(athlete)
                if slot is None:
                    if cp < 0:
                        raise _negative_cp(athlete, cp, t)
                    slot = slot_of[athlete] = len(athletes)
                    if slot == self._capacity:
                        self._grow()
                    athletes.append(athlete)
                    passed.append(0)
                    last_time.append(t)
                    n = 0
                else:
                    n = passed[slot]
                    if cp < n:
                        if cp < 0:
                            raise _negative_cp(athlete, cp, t)
                        kind = (
                            ANOMALY_ORDER if codes[cp][slot] == ABSENT else ANOMALY_DUPLICATE
                        )
                        record(
                            athlete,
                            kind,
                            cp,
                            f"event at t={t} after cp {n - 1} was recorded",
                        )
                        rejected += 1
                        continue
                    if last_time[slot] >= t:
                        record(
                            athlete,
                            ANOMALY_ORDER,
                            cp,
                            f"time {t} does not increase over previous crossing "
                            f"{last_time[slot]}",
                        )
                        rejected += 1
                        continue
                    last_time[slot] = t
                if cp > n:
                    self._add_columns(cp)
                    for skipped in range(n, cp):
                        codes[skipped][slot] = ABSENT
                        record(athlete, ANOMALY_SKIPPED, skipped, "no crossing recorded")
                passed[slot] = cp + 1
                accepted += 1
                comp = active.get(cp)
                if comp is None:  # the first crossing at cp
                    self._add_columns(cp)
                    times[cp][slot] = t
                    active[cp] = [[athlete], [slot], t, t, {}]
                    continue
                times[cp][slot] = t
                if t - comp[3] <= eps:
                    comp[0].append(athlete)
                    comp[1].append(slot)
                    comp[3] = t
                else:
                    # the new component is in place before the callback
                    # runs, so a callback that raises leaves a sound state
                    active[cp] = [[athlete], [slot], t, t, {}]
                    finished = self._finish(cp, comp)
                    if on_finish is not None:
                        self._leader_positions = {}
                        on_finish(finished)
        finally:
            self._leader_positions = {}
            self._last_stream_time = last_stream
            self.events_accepted += accepted
            self.events_rejected += rejected

    def _add_columns(self, cp: int) -> None:
        """Columns up to cp exist, each as long as the slot capacity."""
        n = self._capacity
        while len(self._codes) <= cp:
            self._codes.append([PENDING] * n)
            self._times.append([-1] * n)

    def _grow(self) -> None:
        """Lengthen every column by an eighth of the slot capacity, at
        least one block, filled as a new column would be."""
        extra = max(_SLOT_BLOCK, self._capacity >> 3)
        self._capacity += extra
        code_fill = [PENDING] * extra
        time_fill = [-1] * extra
        for column in self._codes:
            column.extend(code_fill)
        for column in self._times:
            column.extend(time_fill)

    def _record_anomaly(self, athlete: int, kind: str, cp: int, details: str) -> None:
        key = (athlete, kind, cp)
        if key not in self._anomaly_keys:
            self._anomaly_keys.add(key)
            self.anomalies.append(AnomalyRecord(athlete, kind, cp, details))

    def finalize_all(self, on_finish=None) -> None:
        """Broom wagon: finish every remaining active component, in
        control-point order.  Each leaves the active set before its
        callback runs, so none is finished twice.
        """
        active = self._active
        for cp in sorted(active):
            finished = self._finish(cp, active.pop(cp))
            if on_finish is not None:
                on_finish(finished)
        self._finalized = True

    def _finish(self, cp: int, comp: list) -> FinishedComponent:
        member_list, slots, t_first, t_last, after = comp
        members = tuple(member_list)  # shared by the group and the report
        column = self._codes[cp]
        self.component_counts[cp] = self.component_counts.get(cp, 0) + 1
        if len(members) >= self.params.m:
            bucket = self.groups.get(cp)
            if bucket is None:
                bucket = self.groups[cp] = []
            ordinal = len(bucket)
            # tuple.__new__ skips the Python-level __new__ of a NamedTuple call
            group = tuple.__new__(Group, ((cp, ordinal), members, t_first, t_last))
            bucket.append(group)
            for slot in slots:
                column[slot] = ordinal
            before: dict[int, int] = {}
            if cp > 0:
                previous = self._codes[cp - 1]
                pending = 0
                for slot in slots:
                    code = previous[slot]
                    if code >= 0:
                        before[code] = before.get(code, 0) + 1
                    elif code == PENDING:
                        pending += 1
                if pending:
                    self._active[cp - 1][4][ordinal] = pending
            return tuple.__new__(FinishedComponent, (cp, members, group, before, after))
        self.outlier_counts[cp] = self.outlier_counts.get(cp, 0) + len(members)
        for slot in slots:
            column[slot] = OUTLIER
        return tuple.__new__(FinishedComponent, (cp, members, None, {}, {}))

    # -- read access ---------------------------------------------------

    def _slot(self, athlete: int) -> int:
        slot = self._slot_of.get(athlete)
        if slot is None:
            raise KeyError(f"unknown athlete {athlete}")
        return slot

    def history(self, athlete: int) -> tuple[list[int], list[int]]:
        """(codes, times) of one athlete, one entry per control point
        from 0 to their last crossing.  A skipped point has code ABSENT
        and time -1.  Raises KeyError for an athlete never accepted."""
        slot = self._slot(athlete)
        n = self._passed[slot]
        return (
            [column[slot] for column in self._codes[:n]],
            [column[slot] for column in self._times[:n]],
        )

    def position(self, athlete: int) -> int:
        """1 + the athletes ahead: past a later control point, or past
        the same one at an earlier time."""
        known = self._leader_positions.get(athlete)
        if known is not None:
            return known
        slot = self._slot(athlete)
        n, t = self._passed[slot], self._last_time[slot]
        ahead = 0
        for other_n, other_t in zip(self._passed, self._last_time):
            if other_n > n or (other_n == n and other_t < t):
                ahead += 1
        return ahead + 1

    def leaders(self, k: int) -> list[int]:
        """The k athletes furthest along: the latest control point
        first, then the earliest last crossing there, then the lowest
        athlete id.

        Whoever is ahead of a leader is a leader too, so each leader's
        position is read off this ranking; position() returns it until
        the next accepted crossing."""
        ranked = heapq.nsmallest(
            k, zip(map(neg, self._passed), self._last_time, self._athletes)
        )
        positions = {}
        previous = None
        for rank, (progress, t, athlete) in enumerate(ranked, start=1):
            if (progress, t) != previous:  # ties share a position
                previous, place = (progress, t), rank
            positions[athlete] = place
        self._leader_positions = positions
        return [athlete for _, _, athlete in ranked]

    def n_athletes(self) -> int:
        """How many athletes have an accepted crossing."""
        return len(self._athletes)

    def crossing_rows(
        self, cps: Sequence[int]
    ) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
        """(athlete, passed, times, codes) per athlete, in the order the
        athletes were first seen.  passed is how many control points the
        athlete has passed, crossed or skipped; times and codes are the
        athlete's entries in the columns of cps, non-negative control
        points in increasing order, as far as those columns exist.  An
        entry is a crossing iff its point is below passed and its code
        is not ABSENT; the time of any other entry is -1.  Without a
        column of cps there are no rows."""
        present = [cp for cp in cps if cp < len(self._codes)]
        return zip(
            self._athletes,
            self._passed,
            zip(*[self._times[cp] for cp in present]),
            zip(*[self._codes[cp] for cp in present]),
        )

    def groups_at(self, cp: int) -> list[Group]:
        if cp < 0:
            raise IndexError(f"control point {cp} out of range")
        return list(self.groups.get(cp, ()))

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
            sum([len(g.members) for g in self.groups.get(cp, ())])
            + self.outlier_counts.get(cp, 0)
            + (len(active[0]) if active is not None else 0)
        )

    def known_cps(self) -> list[int]:
        """The control points with a crossing: every finished component
        is counted in component_counts."""
        return sorted(self.component_counts.keys() | self._active.keys())


def _negative_cp(athlete: int, cp: int, t: int) -> ValueError:
    return ValueError(f"negative control point {cp} for athlete {athlete} at time {t}")
