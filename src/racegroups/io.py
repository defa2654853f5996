"""Reading and writing race data.

Two input layouts are understood:

  long   canonical CSV, header ``athlete_id,control_point,time_ms``,
         one event per row
  wide   published-splits style: one row per athlete, the first
         column an athlete id, every further column one control
         point with a clock time HH:MM:SS (fractions allowed), an
         empty cell meaning the athlete never crossed there

The format is detected from the header when not forced.  Broken rows
never abort a read: they are collected as issues with the line the row
starts on, and only a file that yields no events at all is an error.

A race is read into three int columns, athletes, control points and
times (read_columns); read_events builds Event records from them.
"""

from __future__ import annotations

import csv
import json
from io import StringIO
from itertools import chain, islice, repeat
from operator import itemgetter, le
from typing import Iterable, NamedTuple, Sequence

from .core import Event

LONG_HEADER = ("athlete_id", "control_point", "time_ms")

FORMAT_LONG = "long"
FORMAT_WIDE = "wide"

# Long-form bodies are read in chunks of about this many characters,
# each ending with a line.  A chunk of bare `digits,digits,digits` lines
# parses in bulk, as one JSON array; the first chunk that is anything
# else, or that JSON refuses, sends the rest of the file row by row.
# The memory a chunk took stays resident after it is freed, so chunks
# are kept small: 1 MiB chunks raised the peak RSS of a 480k-row read
# from 57 to 78 MB over 64 KiB ones, and read no faster.
_CHUNK_BYTES = 1 << 16


class MalformedInputError(ValueError):
    """The file yielded no usable events."""


class RowIssue(NamedTuple):
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


class Columns:
    """Events as three parallel int lists, one per field.  Iterating
    yields plain ``(athlete, cp, time)`` tuples, afresh each time, so a
    Columns can stand for an event stream that is read more than once,
    as run() and epsilon_sweep() read theirs.  read_columns sets
    ``layout`` to the format it read the file as."""

    __slots__ = ("athletes", "cps", "times", "layout")

    def __init__(self) -> None:
        self.athletes: list[int] = []
        self.cps: list[int] = []
        self.times: list[int] = []
        self.layout: str | None = None

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self):
        return zip(self.athletes, self.cps, self.times)


def read_events(
    path: str, fmt: str | None = None
) -> tuple[list[Event], list[RowIssue]]:
    """Events sorted by (time, cp, athlete), plus per-line issues.

    Raises MalformedInputError when nothing could be read.
    """
    columns, issues = read_columns(path, fmt)
    return list(map(tuple.__new__, repeat(Event), columns)), issues


def read_columns(path: str, fmt: str | None = None) -> tuple[Columns, list[RowIssue]]:
    """read_events' events as columns, in the same order, with the same
    issues; no Event is built.

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
            columns, issues = _read_long_chunks(fh, reader.line_num)
        elif fmt == FORMAT_WIDE:
            columns, issues = _read_wide(reader, n_cps=len(header) - 1)
        else:
            raise ValueError(f"unknown input format {fmt!r}")
    columns.layout = fmt
    if not columns:
        detail = f"; first issue: {issues[0]}" if issues else ""
        raise MalformedInputError(f"{path}: no usable rows{detail}")
    _sort(columns)
    return columns, issues


def _sort(columns: Columns) -> None:
    """Put the columns in (time, cp, athlete) order.

    Input already in that order, as a race export usually is, is only
    checked: comparing each row with the next allocates nothing, since
    zip reuses a result tuple that nothing else holds.  Other input is
    sorted as plain (time, cp, athlete) tuples, with no key function.
    """
    athletes, cps, times = columns.athletes, columns.cps, columns.times
    rows = zip(times, cps, athletes)
    after = zip(islice(times, 1, None), islice(cps, 1, None), islice(athletes, 1, None))
    if all(map(le, rows, after)):
        return
    ordered = sorted(zip(times, cps, athletes))
    columns.times = list(map(itemgetter(0), ordered))
    columns.cps = list(map(itemgetter(1), ordered))
    columns.athletes = list(map(itemgetter(2), ordered))


def _read_long_chunks(fh, n_lines: int) -> tuple[Columns, list[RowIssue]]:
    """The long-form body after its header's n_lines lines, as _read_long
    reads it.

    A chunk is read in bulk when it ends with a newline and, with its
    ASCII digits deleted, is one `,,\n` per line: nothing but digit
    runs, two commas per line and the newlines, so no quotes, padding
    or blank lines.  Its rows are then its lines and its cells its digit
    runs: with its newlines turned into commas it is the body of a JSON
    array of integer literals, which json reads to the values int()
    gives, and every third cell from the first, second and third on
    extends the athlete, control point and time column, without a
    Python-level step per row or cell.  json refuses an empty cell (two
    commas in a row, or one at either end) and a leading zero, and
    int() a cell past its digit limit.  The first chunk that fails the
    test or is refused goes, with the rest of the file, through
    _read_long, its line numbers shifted past the header and the
    bulk-read lines.
    """
    columns = Columns()
    athletes, cps, times = columns.athletes, columns.cps, columns.times
    # read() stops anywhere; readline() ends the chunk with its line
    while chunk := fh.read(_CHUNK_BYTES):
        chunk += fh.readline()
        text = chunk.replace("\r\n", "\n")
        try:
            # without the newline test, a last line such as `45` would
            # pass, and text[:-1] would cut its last digit
            if not text.endswith("\n") or text.encode().translate(
                None, b"0123456789"
            ) != b",,\n" * text.count("\n"):
                raise ValueError
            cells = json.loads("[" + text[:-1].replace("\n", ",") + "]")
        except ValueError:
            # split as the file splits its lines (str.splitlines would
            # also split at \x1c and the like)
            lines = StringIO(chunk, newline="")
            rest, issues = _read_long(csv.reader(chain(lines, fh)))
            athletes += rest.athletes
            cps += rest.cps
            times += rest.times
            return columns, [RowIssue(i.line + n_lines, i.reason) for i in issues]
        athletes += cells[0::3]
        cps += cells[1::3]
        times += cells[2::3]
        n_lines += text.count("\n")
    return columns, []


def _read_long(reader) -> tuple[Columns, list[RowIssue]]:
    """The reader's rows; an issue names its row's first line, counted
    from the reader's own start."""
    columns = Columns()
    issues: list[RowIssue] = []
    add_athlete = columns.athletes.append
    add_cp = columns.cps.append
    add_time = columns.times.append
    # a quoted cell can hold a line break, so a row can span lines
    line = reader.line_num
    for row in reader:
        lineno, line = line + 1, reader.line_num
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
        add_athlete(athlete)
        add_cp(cp)
        add_time(time)
    return columns, issues


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


def _read_wide(reader, n_cps: int) -> tuple[Columns, list[RowIssue]]:
    columns = Columns()
    issues: list[RowIssue] = []
    line = reader.line_num
    for row in reader:
        lineno, line = line + 1, reader.line_num
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
            columns.athletes.append(athlete)
            columns.cps.append(cp)
            columns.times.append(time)
    return columns, issues


def write_events(path: str, events: Iterable[Event]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LONG_HEADER)
        writer.writerows(events)  # an Event is its (athlete, cp, time)


# -- course metadata ----------------------------------------------------


def read_course(path: str) -> dict[int, int]:
    """Control point distances: one `index,meters` line each, exactly
    two cells, so a number with a thousands separator is an error.

    Line 1 is a header when its first cell is not an integer in any
    digits, so a malformed number there is an error, not a header.
    Indices are non-negative, and distances must be strictly increasing
    with the index.
    """
    course: dict[int, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                index, meters_cell = row  # exactly two cells
                cp, meters = _parse_int(index), _parse_int(meters_cell)
            except ValueError:
                if lineno == 1 and not _is_int(row[0]):
                    continue
                raise ValueError(f"{path}: line {lineno}: expected `index,meters`")
            if cp < 0:
                raise ValueError(f"{path}: line {lineno}: negative control point {cp}")
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
