"""File formats, the end-to-end pipeline, and the command line."""

from __future__ import annotations

import csv
import gc
import io as _io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from racegroups.core import Event, Mu, Params
import racegroups.io as rio
from racegroups.cli import main
from racegroups.grouping import ANOMALY_PACE, ANOMALY_SKIPPED
from racegroups.io import (
    MalformedInputError,
    RowIssue,
    format_clock,
    parse_clock,
    read_course,
    read_events,
    read_ground_truth,
    write_course,
    write_events,
    write_ground_truth,
)
from racegroups.longterm import KIND_SURVIVING, LONGTERM_KINDS
from racegroups.patterns import MERGES, SPLITS, SURVIVES, IncompletePairError
from racegroups.pipeline import (
    MODE_FINALIZED,
    MODE_ONLINE,
    MODES,
    RaceAnalysis,
    RunConfig,
    epsilon_sweep,
    run,
)
from racegroups.synth import Behavior, GeneratorConfig, generate, generate_field

DATA = Path(__file__).parent / "data"

PARAMS = Params(epsilon=2000, m=7, mu=Mu(7, 10))


def scripted_events(tmp_path=None):
    cfg = GeneratorConfig(
        n_athletes=100,
        n_cps=5,
        params=PARAMS,
        n_bands=2,
        seed=3,
        scripts=(
            (
                Behavior.constant(),
                Behavior.divide(2),
                Behavior.constant(),
                Behavior.divide((18, 7)),
                Behavior.constant(),
            ),
        ),
    )
    return generate(cfg)


class TestClock:
    def test_round_trip(self):
        for text in ("00:00:00", "01:02:03", "11:59:59"):
            assert format_clock(parse_clock(text)) == text
        assert parse_clock("01:00:00.250") == 3_600_250
        assert format_clock(3_600_250) == "01:00:00.250"
        # sub-millisecond digits round half up, in integers
        assert parse_clock("00:00:00.0005") == 1
        assert parse_clock("00:00:00.0015") == 2
        assert parse_clock("00:00:00.0025") == 3
        assert parse_clock("00:00:00.0004999") == 0

    @given(st.integers(0, 10**10))
    def test_format_then_parse_is_identity(self, ms):
        assert parse_clock(format_clock(ms)) == ms

    def test_rejects_junk(self):
        for text in (
            "1:2",
            "xx:00:00",
            "00:61:00",
            "00:00:-3",
            "00:00:1e1",
            "00:00:nan",
            "00:5_0:00",
            "00:00:+5",
            "00:00:05.",
            "00:00:.5",
        ):
            with pytest.raises(ValueError):
                parse_clock(text)


# Long-form fuzzing: rows from write_events, padded, with CRLF or LF
# endings, an optional byte-order mark, blank lines and bad rows mixed
# in.  Each drawn line is (text, event or None, issue reason or None).

# \x1c is whitespace to str.strip() but not to int(); \xa0 is not ASCII
_PAD = st.sampled_from(["", " ", "  ", "\t", " \t ", "\x1c", "\xa0"])
_NOT_INT = st.sampled_from(["x", "", "1.5", "one", "0x1f", "--2", "1e3", "\u00bd"])
# int() reads these as numbers, but a number in a file is ASCII digits
_NOT_ASCII = st.sampled_from(["\uff11\uff12", "1_000", "+5", "+0", "\u0663", "-\uff11"])


@st.composite
def _padded(draw, cells):
    return ",".join(draw(_PAD) + c + draw(_PAD) for c in cells)


def _int_message(cell: str) -> str:
    try:
        int(cell.strip())
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"{cell!r} parses")


_event_lines = st.builds(
    Event,
    athlete=st.integers(-5, 10**6),
    cp=st.integers(0, 60),
    time=st.integers(0, 10**9),
).map(lambda e: (None, e, None))

_blank_lines = st.sampled_from(["", " ", "\t", "\x1c", " ,  ,", ","]).map(
    lambda text: (text, None, None)
)


@st.composite
def _wrong_width_lines(draw):
    width = draw(st.sampled_from([1, 2, 4, 5]))
    cells = [str(draw(st.integers(0, 999))) for _ in range(width)]
    return draw(_padded(cells)), None, f"expected 3 columns, got {width}"


@st.composite
def _not_int_lines(draw):
    cells = [str(draw(st.integers(0, 999))) for _ in range(3)]
    bad = draw(_NOT_INT)
    cells[draw(st.integers(0, 2))] = bad
    text = draw(_padded(cells))
    return text, None, _int_message(text.split(",")[cells.index(bad)])


@st.composite
def _not_ascii_lines(draw):
    cells = [str(draw(st.integers(0, 999))) for _ in range(3)]
    bad = draw(_NOT_ASCII)
    cells[draw(st.integers(0, 2))] = bad
    return draw(_padded(cells)), None, f"not ASCII digits: {bad!r}"


@st.composite
def _negative_lines(draw):
    cp = draw(st.integers(-50, 50))
    time = draw(st.integers(-(10**6), -1) if cp >= 0 else st.integers(-5, 10**6))
    cells = [str(draw(st.integers(0, 999))), str(cp), str(time)]
    return draw(_padded(cells)), None, "negative control point or time"


@st.composite
def long_form_files(draw):
    """Shuffled lines (at least one event), a byte-order-mark flag, one
    line ending per line, and whether the last line is terminated."""
    lines = draw(
        st.lists(
            st.one_of(
                _event_lines,
                _blank_lines,
                _wrong_width_lines(),
                _not_int_lines(),
                _not_ascii_lines(),
                _negative_lines(),
            ),
            max_size=40,
        )
    )
    lines = draw(st.permutations(lines + [draw(_event_lines)]))
    n = len(lines) + 1  # the header is a line too
    endings = draw(
        st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n)
    )
    return lines, draw(st.booleans()), endings, draw(st.booleans())


class TestLongFormat:
    def test_round_trip_sorted(self, tmp_path):
        events, _ = scripted_events()
        path = tmp_path / "race.csv"
        write_events(path, events)
        loaded, issues = read_events(str(path))
        assert issues == []
        assert loaded == events  # generator output is already canonical

    def test_malformed_rows_reported_with_lines(self, tmp_path):
        path = tmp_path / "race.csv"
        path.write_text(
            "athlete_id,control_point,time_ms\n"
            "1,0,1000\n"
            "2,zero,1000\n"
            "\n"
            "3,0\n"
            "4,-1,5\n"
            "5,0,2000\n"
        )
        events, issues = read_events(str(path))
        assert [e.athlete for e in events] == [1, 5]
        assert [i.line for i in issues] == [3, 5, 6]

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_text(
            "\ufeffathlete_id,control_point,time_ms\n1,0,1000\n", encoding="utf-8"
        )
        assert read_events(str(path)) == ([Event(1, 0, 1000)], [])

    def test_fully_rejected_file_is_an_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("athlete_id,control_point,time_ms\na,b,c\n")
        with pytest.raises(MalformedInputError):
            read_events(str(path))
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(MalformedInputError):
            read_events(str(empty))

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(long_form_files(), st.data())
    def test_fuzz(self, tmp_path, drawn, data):
        lines, bom, endings, terminated = drawn
        events = [e for _, e, _ in lines if e is not None]
        path = tmp_path / "race.csv"
        write_events(path, events)
        header, *written = path.read_text().splitlines()
        written = iter(written)
        texts = [header]
        want_issues = []
        for lineno, (text, event, reason) in enumerate(lines, start=2):
            if event is not None:
                text = data.draw(_padded(next(written).split(",")))
            texts.append(text)
            if reason is not None:
                want_issues.append(RowIssue(lineno, reason))
        body = "".join(t + end for t, end in zip(texts, endings))
        if not terminated:
            body = body.removesuffix(endings[-1])
        path.write_bytes((("\ufeff" if bom else "") + body).encode("utf-8"))
        got_events, got_issues = read_events(str(path))
        assert got_events == sorted(events, key=lambda e: (e.time, e.cp, e.athlete))
        assert all(type(e) is Event for e in got_events)
        assert got_issues == want_issues


# Chunked-reader equivalence: a long-form body read in chunks of a few
# bytes must give what the row-by-row reader gives over the same file.
# A clean prefix of bare `digits,digits,digits` lines is followed by
# lines of every kind, so the switch to the row reader comes mid-file.

_clean_lines = st.tuples(
    st.integers(0, 10**6), st.integers(0, 60), st.integers(0, 10**9)
).map(lambda cells: "%d,%d,%d" % cells)

_messy_lines = st.one_of(
    _clean_lines,
    _clean_lines.map(lambda text: "00" + text),
    _clean_lines.flatmap(lambda text: _padded(text.split(","))),
    _clean_lines.map(lambda text: ",".join(f'"{c}"' for c in text.split(","))),
    st.just('"1\n2",3,4'),  # a quoted cell across two lines
    st.just("9" * 5000 + ",1,2"),  # past int()'s digit limit
    _blank_lines.map(itemgetter(0)),
    _wrong_width_lines().map(itemgetter(0)),
    _not_int_lines().map(itemgetter(0)),
    _not_ascii_lines().map(itemgetter(0)),
    _negative_lines().map(itemgetter(0)),
)


@st.composite
def chunked_long_files(draw):
    """File bytes: a header, clean lines, then lines of any kind, with a
    byte-order mark, LF or CRLF per line and an unterminated last line
    each drawn."""
    lines = draw(st.lists(_clean_lines, max_size=30))
    lines += draw(st.lists(_messy_lines, max_size=30))
    n = len(lines) + 1  # the header is a line too
    endings = draw(
        st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n)
    )
    lines.insert(0, "athlete_id,control_point,time_ms")
    body = "".join(text + end for text, end in zip(lines, endings))
    if not draw(st.booleans()):
        body = body.removesuffix(endings[-1])
    return (("\ufeff" if draw(st.booleans()) else "") + body).encode("utf-8")


def _read_by_rows(path):
    """The long-form body read by the row-by-row reader alone."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        events, issues = rio._read_long(reader)
    return sorted(events, key=lambda e: (e.time, e.cp, e.athlete)), issues


class TestChunkedLongFormat:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(chunked_long_files(), st.integers(1, 60))
    def test_equals_row_reader(self, tmp_path, monkeypatch, data, chunk_bytes):
        monkeypatch.setattr(rio, "_CHUNK_BYTES", chunk_bytes)
        path = tmp_path / "race.csv"
        path.write_bytes(data)
        want_events, want_issues = _read_by_rows(path)
        if not want_events:
            with pytest.raises(MalformedInputError):
                read_events(str(path))
            return
        got_events, got_issues = read_events(str(path))
        assert got_events == want_events
        assert all(type(e) is Event for e in got_events)
        assert got_issues == want_issues

    def test_rows_after_bulk_chunks_keep_their_line_numbers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rio, "_CHUNK_BYTES", 8)
        path = tmp_path / "race.csv"
        path.write_bytes(
            b"athlete_id,control_point,time_ms\r\n"
            + b"".join(b"%d,0,%d\r\n" % (a, 1000 + a) for a in range(20))
            + b"21, 0,1100\r\nx,0,1\r\n22,0,1200"
        )
        events, issues = read_events(str(path))
        assert [e.athlete for e in events] == [*range(20), 21, 22]
        assert issues == [
            RowIssue(23, "invalid literal for int() with base 10: 'x'")
        ]


# Wide-format fuzzing: athlete rows of format_clock splits with absent
# cells, padding, CRLF or LF endings, an optional byte-order mark, blank
# rows, rows wider than the header and bad ids or clocks mixed in.  Each
# drawn row is (text, events, issue reasons in the order they are read).

_BAD_IDS = st.sampled_from(["x", "", "1.5", "0x1f", "1_2", "\uff11\uff12", "+3"])
_BAD_CLOCKS = st.sampled_from(
    ["12", "1:2", "xx:00:00", "00:61:00", "00:00:1e1", "00:5_0:00",
     "00:00:+5", "\uff11:00:00", "00:00:05."]
)


@st.composite
def _wide_row(draw, n_cps):
    kind = draw(st.sampled_from(["good", "bad id", "too wide"]))
    athlete = draw(st.integers(-5, 10**6))
    if kind == "too wide":
        width = n_cps + draw(st.integers(1, 3))
    else:
        width = draw(st.integers(0, n_cps))
    cells, events, reasons = [], [], []
    for cp in range(width):
        cell = draw(st.sampled_from(["absent", "clock", "bad"]))
        if cell == "absent":
            raw = draw(_PAD)
        elif cell == "clock":
            time = draw(st.integers(0, 10**8))
            raw = draw(_PAD) + format_clock(time) + draw(_PAD)
            events.append(Event(athlete, cp, time))
        else:
            raw = draw(_PAD) + draw(_BAD_CLOCKS) + draw(_PAD)
            reasons.append(f"cp {cp}: not a clock time: {raw!r}")
        cells.append(raw)
    if kind == "bad id":
        raw_id = draw(_PAD) + draw(_BAD_IDS) + draw(_PAD)
        events, reasons = [], [f"bad athlete id {raw_id!r}"]
    else:
        raw_id = draw(_PAD) + str(athlete) + draw(_PAD)
        if kind == "too wide":
            events, reasons = [], [f"{width} split cells, header has {n_cps}"]
    if all(not c.strip() for c in [raw_id, *cells]):
        events, reasons = [], []  # a blank row is skipped
    return ",".join([raw_id, *cells]), events, reasons


@st.composite
def wide_files(draw):
    """Header and shuffled rows (at least one event), a byte-order-mark
    flag, one line ending per line, and whether the last line is
    terminated."""
    n_cps = draw(st.integers(1, 6))
    header = ",".join(["athlete_id"] + [f"split{cp}" for cp in range(n_cps)])
    blank = st.sampled_from(["", " ", "\t", ",", " , ,\t"]).map(
        lambda text: (text, [], [])
    )
    rows = draw(st.lists(st.one_of(_wide_row(n_cps), blank), max_size=30))
    athlete, time = draw(st.integers(0, 999)), draw(st.integers(0, 10**8))
    sure = (f"{athlete},{format_clock(time)}", [Event(athlete, 0, time)], [])
    rows = draw(st.permutations(rows + [sure]))
    n = len(rows) + 1  # the header is a line too
    endings = draw(
        st.lists(st.sampled_from(["\n", "\r\n"]), min_size=n, max_size=n)
    )
    return header, rows, draw(st.booleans()), endings, draw(st.booleans())


class TestWideFormat:
    def test_cells_become_events(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "athlete_id,split1,split2,split3\n"
            "7,01:00:00,02:00:00,03:00:00\n"
            "8,01:00:05,,03:00:05\n"
        )
        events, issues = read_events(str(path))
        assert issues == []
        assert len(events) == 5  # empty cell: absent, no event
        assert Event(8, 1, 0) not in events
        assert events == sorted(events, key=lambda e: (e.time, e.cp, e.athlete))

    def test_same_timestamp_sorts_by_athlete(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(
            "athlete_id,a,b\n9,01:00:00,02:00:00\n4,01:00:00,02:00:00\n"
        )
        events, _ = read_events(str(path))
        assert [e.athlete for e in events] == [4, 9, 4, 9]

    def test_forced_format_overrides_sniffing(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("athlete_id,control_point,time_ms\n1,0,1000\n")
        events, _ = read_events(str(path), fmt="long")
        assert events == [Event(1, 0, 1000)]

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(wide_files())
    def test_fuzz(self, tmp_path, drawn):
        header, rows, bom, endings, terminated = drawn
        body = "".join(
            text + end for text, end in zip([header] + [r[0] for r in rows], endings)
        )
        if not terminated:
            body = body.removesuffix(endings[-1])
        path = tmp_path / "wide.csv"
        path.write_bytes((("\ufeff" if bom else "") + body).encode("utf-8"))
        got_events, got_issues = read_events(str(path))
        want_events = [e for _, events, _ in rows for e in events]
        assert got_events == sorted(
            want_events, key=lambda e: (e.time, e.cp, e.athlete)
        )
        assert got_issues == [
            RowIssue(lineno, reason)
            for lineno, (_, _, reasons) in enumerate(rows, start=2)
            for reason in reasons
        ]


class TestCourse:
    def test_read(self, tmp_path):
        path = tmp_path / "course.csv"
        path.write_text("index,meters\n0,5000\n1,10000\n2,21097\n")
        assert read_course(str(path)) == {0: 5000, 1: 10000, 2: 21097}
        path.write_text("\ufeff0,5000\n1,10000\n", encoding="utf-8")
        assert read_course(str(path)) == {0: 5000, 1: 10000}

    def test_malformed_first_row_is_an_error(self, tmp_path):
        # line 1 is a header only when its first cell is not an integer
        path = tmp_path / "course.csv"
        path.write_text("0,5000m\n1,10000\n2,20000\n")
        with pytest.raises(ValueError, match="line 1:"):
            read_course(str(path))
        path.write_text("0\n1,10000\n")
        with pytest.raises(ValueError, match="line 1:"):
            read_course(str(path))
        path.write_text("cp,distance (m)\n0,5000\n")
        assert read_course(str(path)) == {0: 5000}

    def test_numbers_are_ascii_digits(self, tmp_path):
        path = tmp_path / "course.csv"
        for text, line in (
            ("0,1_000\n", 1),
            ("index,meters\n0,+5000\n", 2),
            ("\uff10,5000\n1,10000\n", 1),  # not a header: it is a number
            ("0,5000\n1,\uff11\uff10000\n", 2),
        ):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ValueError, match=f"line {line}:"):
                read_course(str(path))

    def test_distances_must_increase(self, tmp_path):
        path = tmp_path / "course.csv"
        path.write_text("0,5000\n1,4000\n")
        with pytest.raises(ValueError):
            read_course(str(path))


class TestGroundTruthFile:
    def test_round_trip(self, tmp_path):
        _, truth = scripted_events()
        buf = _io.StringIO()
        write_ground_truth(buf, truth)
        buf.seek(0)
        loaded = read_ground_truth(buf)
        assert loaded.group_counts == truth.group_counts
        assert loaded.longterm_edges == truth.longterm_edges
        for key, counts in truth.pair_counts.items():
            assert loaded.pair_counts[key] == counts


class TestPipeline:
    def test_modes_agree(self):
        events, _ = scripted_events()
        fin = run(events, RunConfig(params=PARAMS, mode=MODE_FINALIZED))
        onl = run(events, RunConfig(params=PARAMS, mode=MODE_ONLINE))
        assert set(fin.pattern_sets) == set(onl.pattern_sets)
        for left_cp, fset in fin.pattern_sets.items():
            oset = onl.pattern_sets[left_cp]
            assert fset.records == oset.records
            assert fset.flags == oset.flags
            assert oset.finalized
        assert fin.labels == onl.labels
        assert fin.longest == onl.longest

    @pytest.mark.parametrize("mode", MODES)
    def test_pattern_sets_only_after_finalize(self, mode):
        events, _ = generate(
            GeneratorConfig(n_athletes=200, n_cps=8, params=PARAMS, seed=1)
        )
        config = RunConfig(params=PARAMS, mode=mode)
        analysis = RaceAnalysis(config)
        analysis.ingest(events[: len(events) // 2])
        with pytest.raises(IncompletePairError, match="finalize"):
            analysis.pattern_sets()
        analysis.ingest(events[len(events) // 2 :])
        analysis.finalize()
        assert analysis.pattern_sets() == run(events, config).pattern_sets

    def test_counts_and_longest(self):
        events, truth = scripted_events()
        result = run(events, RunConfig(params=PARAMS))
        totals = result.pattern_totals()
        assert totals[SPLITS] == truth.total(SPLITS)
        assert totals[MERGES] == truth.total(MERGES)
        assert totals[SURVIVES] == truth.total(SURVIVES)
        maxima = result.longterm_maxima()
        want = truth.longterm_cps()
        for kind in LONGTERM_KINDS:
            assert maxima[kind] == want[kind]
        assert result.timings.events == len(events)

    def test_empty_events_empty_reports(self):
        result = run([], RunConfig(params=PARAMS))
        assert result.pattern_sets == {}
        assert result.stats == []
        assert result.longterm_maxima() == dict.fromkeys(LONGTERM_KINDS, 0)
        assert result.timings.throughput() >= 0.0

    @pytest.mark.parametrize("mode", [MODE_FINALIZED, MODE_ONLINE])
    def test_single_control_point_longterm(self, mode):
        # one group at the only control point is a behavior of one
        # control point of every kind, as it is with a second, empty one
        params = Params(epsilon=2000, m=3, mu=Mu(7, 10))
        events = [Event(a, 0, 1000 + 500 * a) for a in range(5)]
        result = run(events, RunConfig(params=params, mode=mode))
        assert [s.n_groups for s in result.stats] == [1]
        assert result.longterm_maxima() == dict.fromkeys(LONGTERM_KINDS, 1)
        for res in result.longest.values():
            assert res.witness == ((0, 0),)
        assert dict(result.labels.lpR) == {(0, 0): 0}
        late = events + [Event(9, 1, 100_000)]  # an outlier, no group at cp 1
        assert run(late, RunConfig(params=params)).longterm_maxima() == (
            result.longterm_maxima()
        )

    def test_status_ranking_and_pace(self):
        # two athletes finish all three cps, one stops early
        events = []
        for athlete, times in (
            (1, (1000, 2000, 3000)),
            (2, (1100, 2100, 3100)),
            (3, (900, 1900)),
        ):
            events.extend(Event(athlete, cp, t) for cp, t in enumerate(times))
        events.sort(key=lambda e: (e.time, e.cp, e.athlete))
        course = {0: 1000, 1: 2000, 2: 3000}
        config = RunConfig(params=Params(2000, 2, Mu(7, 10)), course=course)
        result = run(events, config)
        s1 = result.analysis.athlete_status(1)
        s2 = result.analysis.athlete_status(2)
        s3 = result.analysis.athlete_status(3)
        assert (s1.position, s2.position, s3.position) == (1, 2, 3)
        assert s3.last_cp == 1
        # athlete 1: 1s per km throughout
        assert s1.average_pace == pytest.approx(1000 / 60000, rel=1e-9)
        assert s1.segment_pace == pytest.approx(1000 / 60000, rel=1e-9)
        with pytest.raises(KeyError):
            result.analysis.athlete_status(99)

    def test_status_pace_none_without_course(self):
        events, _ = scripted_events()
        result = run(events, RunConfig(params=PARAMS))
        status = result.analysis.athlete_status(0)
        assert status.segment_pace is None and status.average_pace is None
        assert len(status.history) == 5

    def test_pace_jump_anomaly(self):
        # steady 1000 ms/km for two segments, then a 3x slowdown
        events = [
            Event(1, 0, 1000),
            Event(1, 1, 2000),
            Event(1, 2, 3000),
            Event(1, 3, 6000),
        ]
        course = {0: 1000, 1: 2000, 2: 3000, 3: 4000}
        config = RunConfig(params=Params(2000, 2, Mu(7, 10)), course=course)
        result = run(events, config)
        pace = [r for r in result.analysis.anomalies() if r.kind == ANOMALY_PACE]
        assert [(r.athlete, r.cp) for r in pace] == [(1, 3)]
        # emitted once even when asked twice
        again = [r for r in result.analysis.anomalies() if r.kind == ANOMALY_PACE]
        assert [(r.athlete, r.cp) for r in again] == [(1, 3)]

    def test_pace_anomalies_pinned(self):
        # cp 3 is not on the course; athlete 3 skips cps 1 and 3, slows
        # down 3x, then speeds up; athlete 5 has two course crossings
        # only; athletes 9 (slower) and 11 (faster) sit exactly on the
        # factor and are not flagged
        crossings = {
            7: (300000, 600000, 900000, 1050000, 1500000, 1590000),
            3: (330000, None, 930000, None, 2730000, 3030000),
            5: (360000, 15000000, None, 18000000),
            9: (100000, 340000, 580000, 900000, 1300000),
            11: (100000, 460000, 820000, 1000000, 1300000),
        }
        events = sorted(
            (
                Event(athlete, cp, t)
                for athlete, times in crossings.items()
                for cp, t in enumerate(times)
                if t is not None
            ),
            key=lambda e: (e.time, e.cp, e.athlete),
        )
        course = {0: 1000, 1: 2000, 2: 3000, 4: 5000, 5: 6000}
        config = RunConfig(params=Params(2000, 2, Mu(7, 10)), course=course)
        got = [
            (r.athlete, r.kind, r.cp, r.details)
            for r in run(events, config).analysis.anomalies()
        ]
        jump = "segment pace {} min/km vs running average {} (factor 1.5)"
        assert got == [
            (3, ANOMALY_SKIPPED, 1, "no crossing recorded"),
            (3, ANOMALY_SKIPPED, 3, "no crossing recorded"),
            (5, ANOMALY_SKIPPED, 2, "no crossing recorded"),
            (3, ANOMALY_PACE, 4, jump.format("15.00", "5.00")),
            (3, ANOMALY_PACE, 5, jump.format("5.00", "10.00")),
            (7, ANOMALY_PACE, 5, jump.format("1.50", "5.00")),
        ]

    def test_pace_jump_decided_exactly(self):
        # the segment (54,578 ms over 1,500 m) is exactly 1.5x faster
        # than the running average (382,046 ms over 7,000 m): the strict
        # rule flags nothing at factor 3/2, where float paces flagged it
        events = [Event(1, 0, 1000), Event(1, 1, 383046), Event(1, 2, 437624)]
        params = Params(2000, 2, Mu(7, 10))
        course = {0: 0, 1: 7000, 2: 8500}
        for factor in (1.5, Fraction(3, 2)):
            config = RunConfig(params=params, course=course, pace_factor=factor)
            assert config.pace_factor == Fraction(3, 2)
            assert run(events, config).analysis.anomalies() == []
        # a marathon-field athlete: 966 s against 644 s over equal legs,
        # exactly 1.5x slower, which float paces also flagged
        slower = [Event(2, 0, 882000), Event(2, 1, 1526000), Event(2, 2, 2492000)]
        config = RunConfig(params=params, course={0: 3516, 1: 7032, 2: 10548})
        assert run(slower, config).analysis.anomalies() == []
        config = RunConfig(
            params=params, course=course, pace_factor=Fraction(149999, 100000)
        )
        got = [
            (r.athlete, r.kind, r.cp, r.details)
            for r in run(events, config).analysis.anomalies()
        ]
        assert got == [
            (1, ANOMALY_PACE, 2, "segment pace 0.61 min/km vs running "
             "average 0.91 (factor 1.49999)"),
        ]

    def test_pace_factor_is_an_exact_ratio(self):
        params = Params(2000, 2, Mu(7, 10))
        # a float means its shortest repr, not its binary value
        assert RunConfig(params=params, pace_factor=1.1).pace_factor == Fraction(11, 10)
        assert RunConfig(params=params, pace_factor=2).pace_factor == 2
        for bad in (1, 1.0, Fraction(1, 2)):
            with pytest.raises(ValueError, match="exceed 1"):
                RunConfig(params=params, pace_factor=bad)
        with pytest.raises(ValueError, match="increase"):
            RunConfig(params=params, course={0: 1000, 1: 1000})

    def test_skipped_cp_anomaly(self):
        events = [Event(1, 0, 1000), Event(2, 0, 1500), Event(1, 2, 9000)]
        result = run(events, RunConfig(params=Params(2000, 2, Mu(7, 10))))
        skipped = [
            r for r in result.analysis.anomalies() if r.kind == ANOMALY_SKIPPED
        ]
        assert [(r.athlete, r.cp) for r in skipped] == [(1, 1)]

    def test_epsilon_sweep_monotone_components(self):
        events, _ = scripted_events()
        rows = epsilon_sweep(
            events, RunConfig(params=PARAMS), [0, 1000, 2000, 60000]
        )
        assert [row.epsilon for row in rows] == [0, 1000, 2000, 60000]
        for narrow, wide in zip(rows, rows[1:]):
            narrow_counts = dict(narrow.component_counts)
            for cp, n in wide.component_counts:
                assert n <= narrow_counts.get(cp, n)
        # the scripted epsilon reproduces the scripted groups
        at_eps = dict(rows[2].pattern_totals)
        assert at_eps[SURVIVES] > 0
        # the rows hold only final totals: an online config gives the same
        online = RunConfig(params=PARAMS, mode=MODE_ONLINE)
        assert epsilon_sweep(events, online, [0, 1000, 2000, 60000]) == rows


def run_cli(args):
    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(args)
    return rc, out.getvalue(), err.getvalue()


class TestCli:
    @pytest.fixture()
    def race_file(self, tmp_path):
        events, truth = scripted_events()
        path = tmp_path / "race.csv"
        write_events(path, events)
        return str(path), truth

    def test_records_are_deterministic(self, race_file):
        path, _ = race_file
        args = [
            "--input", path,
            "--report", "summary,patterns,longterm,status,anomalies",
            "--out", "records",
        ]
        rc_a, out_a, _ = run_cli(args)
        rc_b, out_b, _ = run_cli(args)
        assert rc_a == rc_b == 0
        assert out_a == out_b
        assert "timing" not in out_a  # wall clock stays out of records

    def test_field_records_match_golden(self, tmp_path):
        # tests/data/field_records.txt is this run's stdout byte for byte;
        # rewrite it only for a deliberate change of output
        race = tmp_path / "field.csv"
        write_events(race, generate_field(1000, 6, seed=11))
        with open(race, "a") as fh:
            fh.write("oops,1,2\n5,3\n")
        course = tmp_path / "course.csv"
        write_course(
            course, [(0, 7000), (1, 14000), (3, 28000), (4, 33000), (5, 42195)]
        )
        rc, out, err = run_cli(
            [
                "--input", str(race),
                "--course", str(course),
                "--report", "summary,patterns,longterm,status,anomalies",
                "--out", "records",
            ]
        )
        assert rc == 0
        assert out == (DATA / "field_records.txt").read_text()
        assert err.splitlines() == [
            f"warning: {race}: line 6002: invalid literal for int() with base 10: 'oops'",
            f"warning: {race}: line 6003: expected 3 columns, got 2",
        ]

    def test_pattern_records_match_truth(self, race_file):
        path, truth = race_file
        rc, out, _ = run_cli(
            ["--input", path, "--report", "patterns", "--out", "records"]
        )
        assert rc == 0
        for (left, _right), counts in truth.pair_counts.items():
            for kind, n in counts.items():
                lines = [
                    l
                    for l in out.splitlines()
                    if l.startswith(f"pattern left={left} ") and f"kind={kind} " in l
                ]
                assert len(lines) == n

    def test_longterm_lines(self, race_file):
        path, truth = race_file
        rc, out, _ = run_cli(
            ["--input", path, "--report", "longterm", "--out", "records"]
        )
        want = truth.longterm_cps()[KIND_SURVIVING]
        line = next(
            l for l in out.splitlines() if l.startswith("longterm kind=surviving ")
        )
        assert f"cps={want} " in line

    def test_epsilon_sweep_flag(self, race_file):
        path, _ = race_file
        rc, out, _ = run_cli(
            [
                "--input", path,
                "--out", "records",
                "--report", "summary",
                "--epsilon-sweep", "0,2000",
            ]
        )
        assert rc == 0
        sweeps = [l for l in out.splitlines() if l.startswith("sweep epsilon=")]
        assert len(sweeps) == 2

    def test_generate_subcommand_round_trip(self, tmp_path):
        events_path = str(tmp_path / "gen.csv")
        truth_path = str(tmp_path / "truth.txt")
        course_path = str(tmp_path / "course.csv")
        rc, out, _ = run_cli(
            [
                "generate",
                "--athletes", "50",
                "--cps", "4",
                "--seed", "9",
                "--script", "constant,divide:2,constant,constant",
                "--events", events_path,
                "--truth", truth_path,
                "--course", course_path,
            ]
        )
        assert rc == 0 and "generated events=200" in out
        with open(truth_path) as fh:
            truth = read_ground_truth(fh)
        assert truth.total(SPLITS) == 2  # two packs
        assert read_course(course_path)[3] == 42195
        rc, out, _ = run_cli(
            ["--input", events_path, "--report", "patterns", "--out", "records"]
        )
        assert rc == 0
        splits = [l for l in out.splitlines() if "kind=splits" in l]
        assert len(splits) == 2

    def test_generate_marathon_has_no_truth(self, tmp_path):
        events_path = str(tmp_path / "field.csv")
        rc, _, err = run_cli(
            [
                "generate", "--marathon",
                "--athletes", "30", "--cps", "3",
                "--events", events_path,
                "--truth", str(tmp_path / "t.txt"),
            ]
        )
        assert rc == 1 and "ground truth" in err
        rc, out, _ = run_cli(
            [
                "generate", "--marathon",
                "--athletes", "30", "--cps", "3",
                "--events", events_path,
            ]
        )
        assert rc == 0
        events, _ = read_events(events_path)
        assert len(events) == 90

    def test_bad_input_exits_nonzero(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        rc, _, err = run_cli(["--input", missing])
        assert rc == 1 and "error:" in err

    def test_unknown_report_exits_nonzero(self, race_file):
        path, _ = race_file
        rc, _, err = run_cli(["--input", path, "--report", "gossip"])
        assert rc == 1 and "gossip" in err

    def test_infeasible_script_exits_nonzero(self, tmp_path):
        rc, _, err = run_cli(
            [
                "generate",
                "--athletes", "25",
                "--cps", "3",
                "--script", "constant,divide:4,constant",
                "--events", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1 and "below the group threshold" in err

    def test_status_with_course(self, race_file, tmp_path):
        path, _ = race_file
        course_path = tmp_path / "course.csv"
        course_path.write_text(
            "index,meters\n" + "".join(f"{c},{(c + 1) * 8439}\n" for c in range(5))
        )
        rc, out, _ = run_cli(
            [
                "--input", path,
                "--report", "status",
                "--athlete", "0",
                "--course", str(course_path),
                "--out", "records",
            ]
        )
        assert rc == 0
        line = next(l for l in out.splitlines() if l.startswith("status "))
        assert "athlete=0 " in line and "segment_pace=-" not in line

    def test_pace_factor_ratio_or_decimal(self, tmp_path):
        race = tmp_path / "race.csv"
        write_events(race, [Event(1, 0, 1000), Event(1, 1, 383046), Event(1, 2, 437624)])
        course = tmp_path / "course.csv"
        write_course(course, [(0, 0), (1, 7000), (2, 8500)])
        args = ["--input", str(race), "--course", str(course), "--min-group", "1",
                "--report", "anomalies", "--out", "records"]
        outs = {}
        for factor in ("3/2", "1.5", " 1.50 ", "7/5"):
            rc, out, _ = run_cli(args + ["--pace-factor", factor])
            assert rc == 0
            outs[factor] = [l for l in out.splitlines() if l.startswith("anomaly ")]
        assert outs["3/2"] == outs["1.5"] == outs[" 1.50 "] == []
        assert outs["7/5"] == [
            "anomaly athlete=1 kind=pace-jump cp=2 details=segment pace 0.61 "
            "min/km vs running average 0.91 (factor 1.4)"
        ]
        rc, _, err = run_cli(args + ["--pace-factor", "1/1"])
        assert rc == 1 and "exceed 1" in err

    def test_closed_stdout_pipe_is_quiet(self, race_file):
        # racegroups ... | head must not spray BrokenPipeError noise;
        # pipefail makes head's early exit visible if the CLI fails
        import subprocess
        import sys

        path, _ = race_file
        proc = subprocess.run(
            [
                "bash", "-o", "pipefail", "-c",
                f"{sys.executable} -m racegroups.cli --input {path} "
                "--out records --report patterns | head -2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 2


class TestCollector:
    """The CLI pauses the cyclic collector for its run: everything the
    run builds is freed by reference counting."""

    def test_no_cyclic_garbage_per_row(self, tmp_path):
        course = tmp_path / "course.csv"
        write_course(course, [(cp, 7000 * (cp + 1)) for cp in range(6)])
        unreachable = []
        for n_athletes in (200, 2000):
            race = tmp_path / f"field{n_athletes}.csv"
            write_events(race, generate_field(n_athletes, 6, seed=5))
            args = [
                "--input", str(race), "--course", str(course),
                "--report", "summary,patterns,longterm,status,anomalies",
                "--out", "records",
            ]
            gc.collect()
            # kept off around the call, so that no automatic collection
            # takes the run's garbage before it is counted
            gc.disable()
            try:
                rc, _, _ = run_cli(args)
                assert not gc.isenabled()  # main resumes only what it paused
                unreachable.append(gc.collect())
            finally:
                gc.enable()
            assert rc == 0
        assert unreachable[0] == unreachable[1]

    def test_collector_resumed_after_every_exit(self, tmp_path):
        assert gc.isenabled()
        race = tmp_path / "race.csv"
        write_events(race, generate_field(50, 3, seed=1))
        assert run_cli(["--input", str(race)])[0] == 0
        assert gc.isenabled()
        assert run_cli(["--input", str(tmp_path / "missing.csv")])[0] == 1
        assert gc.isenabled()
        with pytest.raises(SystemExit):
            run_cli(["--no-such-flag"])
        assert gc.isenabled()
