"""Reading and writing race data.

Two input layouts are understood:

  long   canonical CSV, header ``athlete_id,control_point,time_ms``,
         one event per row
  wide   published-splits style: one row per athlete, the first
         column an athlete id, every further column one control
         point with a clock time HH:MM:SS (fractions allowed), an
         empty cell meaning the athlete never crossed there

The format is detected from the header when not forced.  Broken rows
never abort a read: they are collected as issues with their line
number, and only a file that yields no events at all is an error.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Sequence, TextIO

from .core import Event
from .longterm import LONGTERM_KINDS
from .patterns import KINDS
from .synth import GroundTruth

LONG_HEADER = ("athlete_id", "control_point", "time_ms")

FORMAT_LONG = "long"
FORMAT_WIDE = "wide"

# Long-form bodies are read in chunks of about this many characters.  A
# chunk of bare `digits,digits,digits` lines parses in bulk; the first
# chunk that is anything else sends the rest of the file row by row.
_CHUNK_BYTES = 1 << 20
_BULK_CHUNK = re.compile(r"(?:[0-9]+,[0-9]+,[0-9]+\n)*")


class MalformedInputError(ValueError):
    """The file yielded no usable events."""


@dataclass(frozen=True)
class RowIssue:
    line: int
    reason: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"


def parse_clock(text: str) -> int:
    """HH:MM:SS or HH:MM:SS.fff (hours unbounded) to milliseconds.

    Every field is ASCII digits.  Fraction digits past the millisecond
    are rounded half up, in integers.
    """
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise ValueError(f"not a clock time: {text!r}")
    hours, minutes, seconds = parts
    seconds, dot, fraction = seconds.partition(".")
    fields = (hours, minutes, seconds, fraction) if dot else (hours, minutes, seconds)
    if not all(f.isascii() and f.isdigit() for f in fields):
        raise ValueError(f"not a clock time: {text!r}")
    if int(minutes) >= 60 or int(seconds) >= 60:
        raise ValueError(f"not a clock time: {text!r}")
    ms = (int(hours) * 3600 + int(minutes) * 60 + int(seconds)) * 1000
    if len(fraction) <= 3:
        return ms + int(fraction.ljust(3, "0"))
    scale = 10 ** (len(fraction) - 3)
    return ms + (int(fraction) + scale // 2) // scale


def format_clock(ms: int) -> str:
    seconds, rem = divmod(ms, 1000)
    hours, seconds = divmod(seconds, 3600)
    minutes, seconds = divmod(seconds, 60)
    out = f"{hours:02d}:{minutes:02d}:{seconds:02d}"
    return out + (f".{rem:03d}" if rem else "")


def _parse_int(cell: str) -> int:
    """A cell of ASCII digits, optionally after a minus sign, padded
    with whitespace.  int() alone also takes underscores, a plus sign
    and non-ASCII digits; its own message names a cell it cannot read."""
    text = cell.strip()
    value = int(text)
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not ASCII digits: {text!r}")
    return value


def sniff_format(header: Sequence[str]) -> str:
    cells = [c.strip().lower() for c in header]
    if tuple(cells) == LONG_HEADER:
        return FORMAT_LONG
    return FORMAT_WIDE


def read_events(
    path: str, fmt: str | None = None
) -> tuple[list[Event], list[RowIssue]]:
    """Events sorted by (time, cp, athlete), plus per-line issues.

    Raises MalformedInputError when nothing could be read.
    """
    # utf-8-sig drops the byte-order mark spreadsheet exports put first
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedInputError(f"{path}: empty file")
        if fmt is None:
            fmt = sniff_format(header)
        if fmt == FORMAT_LONG:
            events, issues = _read_long_chunks(fh)
        elif fmt == FORMAT_WIDE:
            events, issues = _read_wide(reader, n_cps=len(header) - 1)
        else:
            raise ValueError(f"unknown input format {fmt!r}")
    if not events:
        detail = f"; first issue: {issues[0]}" if issues else ""
        raise MalformedInputError(f"{path}: no usable rows{detail}")
    events.sort(key=itemgetter(2, 1, 0))  # (time, cp, athlete)
    return events, issues


def _read_long_chunks(fh) -> tuple[list[Event], list[RowIssue]]:
    """The long-form body after its header, as _read_long reads it.

    A chunk that matches _BULK_CHUNK has no quotes, padding or blank
    lines, so its rows are its lines and its cells its digit runs: it
    becomes events without a Python-level step per row.  The first
    chunk that does not match goes, with the rest of the file, through
    _read_long, its line numbers shifted past the bulk-read lines.
    """
    events: list[Event] = []
    n_lines = 0
    while lines := fh.readlines(_CHUNK_BYTES):
        text = "".join(lines).replace("\r\n", "\n")
        try:
            if _BULK_CHUNK.fullmatch(text) is None:
                raise ValueError
            # int() still refuses a cell past its digit limit
            cells = iter(list(map(int, text.replace("\n", ",").split(",")[:-1])))
        except ValueError:
            rest, issues = _read_long(csv.reader(chain(lines, fh)))
            events.extend(rest)
            return events, [RowIssue(i.line + n_lines, i.reason) for i in issues]
        events.extend(map(tuple.__new__, repeat(Event), zip(cells, cells, cells)))
        n_lines += len(lines)
    return events, []


def _read_long(reader) -> tuple[list[Event], list[RowIssue]]:
    events: list[Event] = []
    issues: list[RowIssue] = []
    append = events.append
    new = tuple.__new__  # Event(...) runs a Python-level __new__ per row
    for lineno, row in enumerate(reader, start=2):
        try:
            athlete, cp, time = map(int, row)  # int() skips spaces and tabs
            # int() also reads '_', '+' and non-ASCII digits: such a row
            # goes to the cell-by-cell parse, which rejects them
            joined = "".join(row)
            if not joined.isascii() or "_" in joined or "+" in joined:
                raise ValueError
        except ValueError:
            try:
                cells = _parse_long_row(row)
            except ValueError as exc:
                issues.append(RowIssue(lineno, str(exc)))
                continue
            if cells is None:
                continue  # blank row
            athlete, cp, time = cells
        if cp < 0 or time < 0:
            issues.append(RowIssue(lineno, "negative control point or time"))
            continue
        append(new(Event, (athlete, cp, time)))
    return events, issues


def _parse_long_row(row: list[str]) -> tuple[int, ...] | None:
    """A row the fast path rejected, parsed cell by cell: None when it
    is blank, else its three integers, or ValueError naming the first
    problem.  Cells padded with \\x1c-\\x1f land here and are valid:
    str.strip() removes those characters, int() does not."""
    if all(not cell.strip() for cell in row):
        return None
    if len(row) != 3:
        raise ValueError(f"expected 3 columns, got {len(row)}")
    return tuple(_parse_int(cell) for cell in row)


def _read_wide(reader, n_cps: int) -> tuple[list[Event], list[RowIssue]]:
    events: list[Event] = []
    issues: list[RowIssue] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            athlete = _parse_int(row[0])
        except ValueError:
            issues.append(RowIssue(lineno, f"bad athlete id {row[0]!r}"))
            continue
        if len(row) - 1 > n_cps:
            issues.append(
                RowIssue(lineno, f"{len(row) - 1} split cells, header has {n_cps}")
            )
            continue
        for cp, cell in enumerate(row[1:]):
            if not cell.strip():
                continue  # absent at this control point
            try:
                time = parse_clock(cell)
            except ValueError as exc:
                issues.append(RowIssue(lineno, f"cp {cp}: {exc}"))
                continue
            events.append(Event(athlete, cp, time))
    return events, issues


def write_events(path: str, events: Iterable[Event]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LONG_HEADER)
        for e in events:
            writer.writerow((e.athlete, e.cp, e.time))


# -- course metadata ----------------------------------------------------


def read_course(path: str) -> dict[int, int]:
    """Control point distances: one `index,meters` line each.

    Line 1 is a header when its first cell is not an integer in any
    digits, so a malformed number there is an error, not a header.
    Distances must be strictly increasing with the index.
    """
    course: dict[int, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                cp, meters = _parse_int(row[0]), _parse_int(row[1])
            except (ValueError, IndexError):
                if lineno == 1 and not _is_int(row[0]):
                    continue
                raise ValueError(f"{path}: line {lineno}: expected `index,meters`")
            if cp in course:
                raise ValueError(f"{path}: duplicate control point {cp}")
            course[cp] = meters
    if not course:
        raise ValueError(f"{path}: no course points")
    ordered = sorted(course.items())
    for (_, a), (_, b) in zip(ordered, ordered[1:]):
        if b <= a:
            raise ValueError(f"{path}: distances must increase with the index")
    return course


def _is_int(cell: str) -> bool:
    try:
        int(cell.strip())
    except ValueError:
        return False
    return True


def write_course(path: str, points: Iterable[tuple[int, int]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("index", "meters"))
        for cp, meters in points:
            writer.writerow((cp, meters))


# -- ground truth summaries ---------------------------------------------


def write_ground_truth(fh: TextIO, truth: GroundTruth) -> None:
    """Line-oriented summary, stable order, suitable for diffing."""
    for cp in sorted(truth.group_counts):
        fh.write(f"groups cp={cp} count={truth.group_counts[cp]}\n")
    for left, right in sorted(truth.pair_counts):
        counts = truth.pair_counts[(left, right)]
        for kind in KINDS:
            fh.write(
                f"pair left={left} right={right} kind={kind} "
                f"count={counts[kind]}\n"
            )
    cps = truth.longterm_cps()
    for kind in LONGTERM_KINDS:
        fh.write(
            f"longterm kind={kind} edges={truth.longterm_edges[kind]} "
            f"cps={cps[kind]}\n"
        )


def read_ground_truth(fh: TextIO) -> GroundTruth:
    pair_counts: dict[tuple[int, int], dict[str, int]] = {}
    longterm_edges: dict[str, int] = {}
    group_counts: dict[int, int] = {}
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        record, *pairs = line.split()
        fields = dict(p.split("=", 1) for p in pairs)
        if record == "groups":
            group_counts[int(fields["cp"])] = int(fields["count"])
        elif record == "pair":
            key = (int(fields["left"]), int(fields["right"]))
            pair_counts.setdefault(key, {})[fields["kind"]] = int(fields["count"])
        elif record == "longterm":
            longterm_edges[fields["kind"]] = int(fields["edges"])
        else:
            raise ValueError(f"line {lineno}: unknown record {record!r}")
    return GroundTruth(
        pair_counts=pair_counts,
        longterm_edges=longterm_edges,
        group_counts=group_counts,
    )
