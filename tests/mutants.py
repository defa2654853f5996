"""Mutation catalogue for the checks that decide what is correct.

Each entry breaks the source in one place and names the tests that
must catch it, or that are known to miss it, and why.  Run from
anywhere:

    python tests/mutants.py            # every entry
    python tests/mutants.py lp order   # entries whose name holds a word

The script copies src/ and tests/ to a temporary directory and checks
that the named tests pass there unmutated.  Then, entry by entry, it
replaces the entry's text, which must occur exactly once in its file
(so an entry a later change made stale is an error, not a pass), runs
``python -m pytest -q -x --hypothesis-seed=0`` on the entry's tests
and restores the file.  It exits nonzero if any entry behaves other
than listed.  A change that moves or rewrites a mutated line updates
its entry.  Criterion 4 is a wall-clock check and is never a killer
of record.  pytest does not collect this file: its name does not
match ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KILLED = "killed"
SURVIVES = "survives"


class Mutant(NamedTuple):
    name: str
    file: str  # under src/racegroups/
    text: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout
    expect: str  # KILLED or SURVIVES
    reason: str = ""  # why a survivor survives


_LONGTERM = "tests/test_longterm.py::"
_CRITERION_2 = "tests/test_acceptance.py::test_criterion_2_scripted_reproduction"
_SATURATED = (
    "criterion 2's race has a steady 100-cp script, so every long-term "
    "maximum saturates at 99 edges whatever the sweep"
)
_CLI = "tests/test_io_pipeline_cli.py::TestCli::"
_WIDE_RUNS = _CLI + "test_wide_split_column_nobody_crossed_runs"
_CHUNKED_LINE = (
    "tests/test_io_pipeline_cli.py::TestChunkedLongFormat::test_issue_names_the_rows_first_line"
)

CATALOGUE = (
    # the four compute_labels sweeps
    Mutant(
        "lpS every backward edge strong",
        "longterm.py",
        "if fwd.get(left) == right:",
        "if True:",
        (_LONGTERM + "TestSweeps::test_backward_only_chain",),
        KILLED,
    ),
    Mutant(
        "lpS every backward edge strong, criterion 2",
        "longterm.py",
        "if fwd.get(left) == right:",
        "if True:",
        (_CRITERION_2,),
        SURVIVES,
        _SATURATED,
    ),
    Mutant(
        "lpF steps by two",
        "longterm.py",
        "value = prev_f[left] + 1",
        "value = prev_f[left] + 2",
        (_LONGTERM + "TestLongest::test_fig3_shape",),
        KILLED,
    ),
    Mutant(
        "lpR backward relaxation without + 1",
        "longterm.py",
        "for right, left in pair.bwd.items():\n            value = prev_r[left] + 1",
        "for right, left in pair.bwd.items():\n            value = prev_r[left]",
        (_LONGTERM + "TestLongest::test_fig3_shape",),
        KILLED,
    ),
    Mutant(
        "lpR backward relaxation without + 1, criterion 2",
        "longterm.py",
        "for right, left in pair.bwd.items():\n            value = prev_r[left] + 1",
        "for right, left in pair.bwd.items():\n            value = prev_r[left]",
        (_CRITERION_2,),
        SURVIVES,
        _SATURATED,
    ),
    Mutant(
        "lpB without + 1",
        "longterm.py",
        "value = next_b[right] + 1",
        "value = next_b[right]",
        (_LONGTERM + "TestLongest::test_fig3_shape",),
        KILLED,
    ),
    # the engine's counts and readers
    Mutant(
        "outlier count off by one",
        "grouping.py",
        "self.outlier_counts.get(cp, 0) + len(members)",
        "self.outlier_counts.get(cp, 0) + len(members) - 1",
        ("tests/test_status.py::test_group_stats_match_runs_of_accepted_crossings",),
        KILLED,
    ),
    Mutant(
        "order check > for >=",
        "grouping.py",
        "if times[n - 1][slot] >= t:",
        "if times[n - 1][slot] > t:",
        ("tests/test_grouping.py::TestAnomalies::test_non_increasing_athlete_time_rejected",),
        KILLED,
    ),
    Mutant(
        "position() one column off",
        "grouping.py",
        "last = self._times[n - 1]",
        "last = self._times[n]",
        ("tests/test_grouping.py::TestAccessors::test_leader_positions_last_until_the_next_crossing",),
        KILLED,
    ),
    Mutant(
        "group_stats crossed without the open component",
        "pipeline.py",
        "crossed=sum(sizes) + outliers + open_size,",
        "crossed=sum(sizes) + outliers,",
        ("tests/test_grouping.py::TestAccessors::test_components_include_active",),
        KILLED,
    ),
    Mutant(
        "group_stats n_components without the open component",
        "pipeline.py",
        "engine.component_counts.get(cp, 0) + (1 if open_size else 0)",
        "engine.component_counts.get(cp, 0)",
        ("tests/test_grouping.py::TestAccessors::test_components_include_active",),
        KILLED,
    ),
    # the generator
    Mutant(
        "generator sort key (time, athlete, cp)",
        "synth.py",
        "events.sort(key=itemgetter(2, 1, 0))",
        "events.sort(key=itemgetter(2, 0, 1))",
        (
            "tests/test_synth.py::TestDeterminism::test_events_sorted_and_strictly_increasing_per_athlete",
            "tests/test_synth.py::TestDeterminism::test_event_stream_pinned",
        ),
        KILLED,
    ),
    Mutant(
        "every generated time 1 ms later",
        "synth.py",
        "append(new(Event, (athlete, c, t)))",
        "append(new(Event, (athlete, c, t + 1)))",
        ("tests/test_synth.py::TestDeterminism::test_event_stream_pinned",),
        KILLED,
    ),
    Mutant(
        "every generated time 1 ms later, truth",
        "synth.py",
        "append(new(Event, (athlete, c, t)))",
        "append(new(Event, (athlete, c, t + 1)))",
        ("tests/test_synth.py::TestPipelineAgreement",),
        SURVIVES,
        "equivalent: a uniform time shift changes no answer; only the pinned event hash sees it",
    ),
    # the CLI's control-point ids
    Mutant(
        "id check skipped",
        "cli.py",
        "    _check_cps(args.input, columns)\n",
        "",
        (_CLI + "test_control_point_ids_must_be_0_to_n_minus_1",),
        KILLED,
    ),
    Mutant(
        "ids may start past 0",
        "cli.py",
        "n_missing = top + 1 - len(present)",
        "n_missing = top + 1 - min(present) - len(present)",
        (_CLI + "test_control_point_ids_must_be_0_to_n_minus_1[no-point-0]",),
        KILLED,
    ),
    Mutant(
        "wide files checked too, cp0 empty",
        "cli.py",
        "if n_missing and columns.layout == FORMAT_LONG:",
        "if n_missing:",
        (_WIDE_RUNS + "[0]",),
        KILLED,
    ),
    Mutant(
        "wide files checked too, cp1 empty",
        "cli.py",
        "if n_missing and columns.layout == FORMAT_LONG:",
        "if n_missing:",
        (_WIDE_RUNS + "[1]",),
        KILLED,
    ),
    # row issues name their row's first line
    Mutant(
        "long rows counted, not lines, default chunks",
        "io.py",
        "lineno, line = line + 1, reader.line_num\n        try:",
        "lineno, line = line + 1, line + 1\n        try:",
        (_CHUNKED_LINE + "[default]",),
        KILLED,
    ),
    Mutant(
        "long rows counted, not lines, one-byte chunks",
        "io.py",
        "lineno, line = line + 1, reader.line_num\n        try:",
        "lineno, line = line + 1, line + 1\n        try:",
        (_CHUNKED_LINE + "[one]",),
        KILLED,
    ),
    Mutant(
        "wide rows counted, not lines",
        "io.py",
        "lineno, line = line + 1, reader.line_num\n        if not row",
        "lineno, line = line + 1, line + 1\n        if not row",
        ("tests/test_io_pipeline_cli.py::TestWideFormat::test_issue_names_the_rows_first_line",),
        KILLED,
    ),
)


def _run(copy: Path, command) -> subprocess.CompletedProcess:
    """command in the copy, importing the copy's package."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # a timeout raises: a run that stalls is an error, not a verdict
    return subprocess.run(
        command, cwd=copy, env=env, capture_output=True, text=True, timeout=600
    )


def _pytest(copy: Path, tests) -> tuple[int, float]:
    """pytest's exit code over tests in the copy, and the seconds it took."""
    command = [sys.executable, "-m", "pytest", "-q", "-x", "--hypothesis-seed=0"]
    start = time.perf_counter()
    proc = _run(copy, command + ["-p", "no:cacheprovider", *tests])
    if proc.returncode not in (0, 1):  # 1 is failed tests; else no run
        sys.exit(f"pytest exited {proc.returncode} on {tests}:\n{proc.stdout}{proc.stderr}")
    return proc.returncode, time.perf_counter() - start


def main(words) -> int:
    entries = [m for m in CATALOGUE if not words or any(w in m.name for w in words)]
    with tempfile.TemporaryDirectory(prefix="racegroups-mutants-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        # an installed racegroups must not shadow the copy's
        found = _run(copy, [sys.executable, "-c", "import racegroups; print(racegroups.__file__)"])
        if not found.stdout.startswith(str(copy)):
            sys.exit(f"the copy imports racegroups from {found.stdout or found.stderr}")
        named = sorted({test for m in entries for test in m.tests})
        code, seconds = _pytest(copy, named)
        if code:
            sys.exit(f"the named tests fail unmutated ({seconds:.0f} s)")
        print(f"unmutated: {len(named)} test ids pass ({seconds:.0f} s)")
        wrong = 0
        for m in entries:
            path = copy / "src" / "racegroups" / m.file
            source = path.read_text()
            if source.count(m.text) != 1:
                sys.exit(f"{m.name}: text occurs {source.count(m.text)} times in {m.file}")
            path.write_text(source.replace(m.text, m.replacement))
            try:
                code, seconds = _pytest(copy, m.tests)
            finally:
                path.write_text(source)
            got = KILLED if code else SURVIVES
            wrong += got != m.expect
            verdict = got if got == m.expect else f"{got.upper()}, listed as {m.expect}"
            because = f": {m.reason}" if got == SURVIVES and m.reason else ""
            print(f"{verdict:<10} {m.name} ({seconds:.0f} s){because}")
    print(f"{len(entries) - wrong} of {len(entries)} entries behave as listed")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
