"""Command-line front end.

Two entry shapes, dispatched on the first token:

  racegroups generate ...   write a synthetic race (and its ground
                            truth) to CSV files
  racegroups --input ...    analyze a race file and print reports

Reports go to stdout; row-level input issues go to stderr.  With
``--out records`` every line is one record with a fixed field order,
so identical input and configuration produce byte-identical output
(timing lines, which cannot be deterministic, appear only in text
mode).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time as _time
from itertools import islice
from typing import TYPE_CHECKING

from .core import (
    DEFAULT_EPSILON_MS,
    DEFAULT_MIN_GROUP,
    DEFAULT_MU,
    Mu,
    Params,
    parse_ratio,
)
from .grouping import StreamOrderError
from .io import (
    FORMAT_LONG,
    FORMAT_WIDE,
    Columns,
    MalformedInputError,
    read_columns,
    read_course,
    read_events,  # unused here; bound for tools that wrap it on this module
    write_course,
    write_events,
)
from .longterm import LONGTERM_KINDS
from .patterns import KINDS
from .pipeline import (
    DEFAULT_PACE_FACTOR,
    RunConfig,
    epsilon_sweep,
    run,
)

if TYPE_CHECKING:
    from .synth import Behavior

REPORTS = ("summary", "patterns", "longterm", "status", "anomalies")


def main(argv=None) -> int:
    # A run builds no reference cycles: reference counting frees all of
    # it.  The cyclic collector would only rescan the containers the run
    # keeps, so it is paused for the run and resumed for an in-process
    # caller.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if collecting:
            gc.enable()


def _main(argv) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv[:1] == ["generate"]:
            ret = _generate(argv[1:])
        else:
            ret = _analyze(argv)
        # surface a closed pipe here, not in the interpreter's exit flush
        sys.stdout.flush()
        return ret
    except BrokenPipeError:
        # downstream consumer (head, grep -m, ...) closed stdout early;
        # park stdout on devnull so interpreter shutdown stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except (
        MalformedInputError,
        StreamOrderError,
        ValueError,
        KeyError,
        OSError,
    ) as exc:
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {reason}", file=sys.stderr)
        return 1


# -- analysis ------------------------------------------------------------


def _argument(parse):
    """An argparse type from parse, reporting its ValueError's message:
    argparse would only name the function."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _analysis_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racegroups", description="group evolution analysis for races"
    )
    parser.add_argument("--input", required=True, help="race CSV file")
    parser.add_argument(
        "--format",
        choices=(FORMAT_LONG, FORMAT_WIDE),
        default=None,
        help="input layout; default: detect from the header",
    )
    parser.add_argument(
        "--epsilon", type=int, default=DEFAULT_EPSILON_MS, help="gap bound, ms"
    )
    parser.add_argument(
        "--min-group", type=int, default=DEFAULT_MIN_GROUP, help="group threshold"
    )
    parser.add_argument(
        "--mu",
        type=_argument(Mu.parse),
        default=DEFAULT_MU,
        help="relation threshold, P/Q or decimal",
    )
    parser.add_argument(
        "--report",
        default="summary",
        help="comma list of " + ",".join(REPORTS),
    )
    parser.add_argument(
        "--epsilon-sweep",
        default=None,
        metavar="A,B,C",
        help="re-run over these epsilon values (ms) and summarize each",
    )
    parser.add_argument("--course", default=None, help="cp distances, `index,meters` lines")
    parser.add_argument("--out", choices=("text", "records"), default="text")
    parser.add_argument(
        "--athlete",
        type=int,
        action="append",
        default=None,
        help="athlete for the status report, repeatable",
    )
    parser.add_argument(
        "--pace-factor",
        type=_argument(parse_ratio),
        default=DEFAULT_PACE_FACTOR,
        help="pace-jump sensitivity, P/Q or decimal",
    )
    return parser


def _analyze(argv) -> int:
    args = _analysis_parser().parse_args(argv)
    reports = tuple(r.strip() for r in args.report.split(",") if r.strip())
    for report in reports:
        if report not in REPORTS:
            raise ValueError(f"unknown report {report!r}")
    params = Params(epsilon=args.epsilon, m=args.min_group, mu=args.mu)
    epsilons = []
    if args.epsilon_sweep:  # checked here, before the file is read
        try:
            epsilons = [int(v) for v in args.epsilon_sweep.split(",")]
            for epsilon in epsilons:
                Params(epsilon=epsilon, m=params.m, mu=params.mu)
        except ValueError as exc:
            raise ValueError(f"--epsilon-sweep: {exc}") from None

    t0 = _time.perf_counter()
    course = read_course(args.course) if args.course else None
    # the course and the pace factor are checked before the events are read
    config = RunConfig(params=params, course=course, pace_factor=args.pace_factor)
    # the race as three int columns: run() and the sweep only iterate
    # (athlete, cp, time) triples, so no Event is built
    columns, issues = read_columns(args.input, args.format)
    ingest_s = _time.perf_counter() - t0
    for issue in issues:
        print(f"warning: {args.input}: {issue}", file=sys.stderr)
    _check_cps(args.input, columns)

    result = run(columns, config)
    if "status" in reports:
        # read before any output: an unknown athlete fails with none
        analysis = result.analysis
        requested = args.athlete or analysis.engine.leaders(10)
        statuses = [analysis.athlete_status(athlete) for athlete in requested]

    out = sys.stdout
    text = args.out == "text"
    _emit_meta(out, text, args, result, len(issues), ingest_s)
    if "summary" in reports:
        _emit_summary(out, text, result)
    if "patterns" in reports:
        _emit_patterns(out, text, result)
    if "longterm" in reports:
        _emit_longterm(out, text, result)
    if "status" in reports:
        _emit_status(out, text, statuses)
    if "anomalies" in reports:
        _emit_anomalies(out, text, result)
    if epsilons:
        rows = epsilon_sweep(columns, config, epsilons)
        _emit_sweep(out, text, rows)
    return 0


def _check_cps(path: str, columns: Columns) -> None:
    """Refuse a long-form file's control point ids other than 0..N-1:
    the engine reads a missing id as a point that every athlete skipped,
    and keeps columns for every id up to the largest.  A wide file's
    points are its header's columns, so an empty one is no gap."""
    present = set(columns.cps)
    top = max(present)
    n_missing = top + 1 - len(present)  # the reader refuses negative ids
    if n_missing and columns.layout == FORMAT_LONG:
        shown = list(islice((cp for cp in range(top + 1) if cp not in present), 5))
        more = f" and {n_missing - len(shown)} more" if n_missing > len(shown) else ""
        raise ValueError(
            f"{path}: control points must be numbered 0..N-1; ids up to {top} "
            f"lack {', '.join(map(str, shown))}{more}"
        )


def _gid(group_id) -> str:
    cp, ordinal = group_id
    return f"{cp}.{ordinal}"


def _gids(ids) -> str:
    return ",".join(_gid(g) for g in ids) if ids else "-"


def _emit_meta(out, text, args, result, n_issues, ingest_s) -> None:
    engine = result.analysis.engine
    n_athletes = engine.n_athletes()
    cps = engine.known_cps()
    n_cps = (max(cps) + 1) if cps else 0
    if text:
        out.write(
            f"race: {engine.events_accepted} events accepted, "
            f"{engine.events_rejected} rejected, {n_issues} malformed rows, "
            f"{n_athletes} athletes, {n_cps} control points\n"
        )
        out.write(
            f"parameters: epsilon={args.epsilon} ms, m={args.min_group}, "
            f"mu={args.mu}, mode=finalized\n"
        )
        t = result.timings
        out.write(
            f"timing: ingest {ingest_s:.2f}s, grouping+graphs "
            f"{t.grouping_s:.2f}s, patterns {t.patterns_s:.2f}s, long-term "
            f"{t.longterm_s:.2f}s, {t.throughput():,.0f} events/s\n"
        )
    else:
        out.write(
            f"meta events={engine.events_accepted} "
            f"rejected={engine.events_rejected} issues={n_issues} "
            f"athletes={n_athletes} cps={n_cps} epsilon={args.epsilon} "
            f"min_group={args.min_group} mu={args.mu} mode=finalized\n"
        )


def _emit_summary(out, text, result) -> None:
    if text:
        out.write("\nper control point:\n")
        out.write("  cp components groups outliers largest crossed\n")
        for s in result.stats:
            out.write(
                f"  {s.cp:>2} {s.n_components:>10} {s.n_groups:>6} "
                f"{s.n_outliers:>8} {s.largest_group:>7} {s.crossed:>7}\n"
            )
    else:
        for s in result.stats:
            out.write(
                f"summary cp={s.cp} components={s.n_components} "
                f"groups={s.n_groups} outliers={s.n_outliers} "
                f"largest={s.largest_group} crossed={s.crossed}\n"
            )


def _emit_patterns(out, text, result) -> None:
    if text:
        out.write("\nevolution patterns:\n")
    for left_cp in sorted(result.pattern_sets):
        pattern_set = result.pattern_sets[left_cp]
        left, right = pattern_set.pair
        for rec in pattern_set.records:
            if text:
                bits = [f"  {left}->{right} {rec.kind}"]
                if rec.source is not None:
                    bits.append(f"source {_gid(rec.source)}")
                if rec.sources:
                    bits.append(f"sources {_gids(rec.sources)}")
                if rec.target is not None:
                    bits.append(f"target {_gid(rec.target)}")
                if rec.targets:
                    bits.append(f"targets {_gids(rec.targets)}")
                if rec.absorbed:
                    bits.append(f"absorbed {_gids(rec.absorbed)}")
                if rec.spawned:
                    bits.append(f"spawned {_gids(rec.spawned)}")
                out.write(" ".join(bits) + "\n")
            else:
                source = _gid(rec.source) if rec.source is not None else "-"
                target = _gid(rec.target) if rec.target is not None else "-"
                out.write(
                    f"pattern left={left} right={right} kind={rec.kind} "
                    f"source={source} target={target} "
                    f"sources={_gids(rec.sources)} targets={_gids(rec.targets)} "
                    f"absorbed={_gids(rec.absorbed)} spawned={_gids(rec.spawned)}\n"
                )
        for kind, group_id in pattern_set.flags:
            if text:
                out.write(f"  {left}->{right} corner {kind} at {_gid(group_id)}\n")
            else:
                out.write(
                    f"flag left={left} right={right} kind={kind} "
                    f"group={_gid(group_id)}\n"
                )


def _emit_longterm(out, text, result) -> None:
    if text:
        out.write("\nlong-term behaviors:\n")
    for kind in LONGTERM_KINDS:
        res = result.longest[kind]
        witness = _gids(res.witness)
        if text:
            out.write(
                f"  {kind}: {res.length_cps} control points "
                f"({res.length_edges} steps) via {witness}\n"
            )
        else:
            out.write(
                f"longterm kind={kind} edges={res.length_edges} "
                f"cps={res.length_cps} witness={witness}\n"
            )


def _pace_str(value) -> str:
    return f"{value:.3f}" if value is not None else "-"


def _emit_status(out, text, statuses) -> None:
    if text:
        out.write("\nathlete status:\n")
    for status in statuses:
        if text:
            out.write(
                f"  #{status.position} athlete {status.athlete}: cp "
                f"{status.last_cp} at t={status.last_time}, segment pace "
                f"{_pace_str(status.segment_pace)}, average "
                f"{_pace_str(status.average_pace)}\n"
            )
            out.write(f"    history: {','.join(status.history)}\n")
        else:
            out.write(
                f"status athlete={status.athlete} cp={status.last_cp} "
                f"time={status.last_time} position={status.position} "
                f"segment_pace={_pace_str(status.segment_pace)} "
                f"average_pace={_pace_str(status.average_pace)} "
                f"history={','.join(status.history)}\n"
            )


def _emit_anomalies(out, text, result) -> None:
    records = result.analysis.anomalies()
    if text:
        out.write(f"\nanomalies ({len(records)}):\n")
        for rec in records:
            out.write(
                f"  athlete {rec.athlete} cp {rec.cp}: {rec.kind} ({rec.details})\n"
            )
    else:
        for rec in records:
            out.write(
                f"anomaly athlete={rec.athlete} kind={rec.kind} cp={rec.cp} "
                f"details={rec.details}\n"
            )


def _emit_sweep(out, text, rows) -> None:
    if text:
        out.write("\nepsilon sweep:\n")
    for row in rows:
        totals = dict(row.pattern_totals)
        maxima = dict(row.longterm_maxima)
        n_components = sum(n for _, n in row.component_counts)
        kinds = " ".join(f"{kind}={totals[kind]}" for kind in KINDS)
        if text:
            longs = " ".join(
                f"{kind}={maxima[kind]}" for kind in LONGTERM_KINDS
            )
            out.write(
                f"  epsilon={row.epsilon}: components={n_components} "
                f"| {kinds} | longest cps: {longs}\n"
            )
        else:
            longs = " ".join(f"lp_{kind}={maxima[kind]}" for kind in LONGTERM_KINDS)
            out.write(
                f"sweep epsilon={row.epsilon} components={n_components} "
                f"{kinds} {longs}\n"
            )
            for cp, n in row.component_counts:
                out.write(
                    f"sweep-cp epsilon={row.epsilon} cp={cp} components={n}\n"
                )


# -- generation ----------------------------------------------------------


def _generator_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="racegroups generate", description="write a synthetic race"
    )
    parser.add_argument("--athletes", type=int, required=True)
    parser.add_argument("--cps", type=int, required=True)
    parser.add_argument("--pack-size", type=int, default=25)
    parser.add_argument("--bands", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epsilon", type=int, default=DEFAULT_EPSILON_MS)
    parser.add_argument("--min-group", type=int, default=DEFAULT_MIN_GROUP)
    parser.add_argument("--mu", type=_argument(Mu.parse), default=DEFAULT_MU)
    parser.add_argument(
        "--script",
        action="append",
        default=None,
        metavar="B1,B2,...",
        help="behavior per control point (constant, divide:K, "
        "divide:S1/S2..., explode); repeat for several pack scripts, "
        "cycled over packs; omit for seeded random scripts",
    )
    parser.add_argument(
        "--marathon",
        action="store_true",
        help="clock-second field data instead of scripted packs (no ground truth)",
    )
    parser.add_argument("--resolution", type=int, default=1000, help="ms per tick, marathon mode")
    parser.add_argument("--course-length", type=int, default=42195)
    parser.add_argument("--events", required=True, help="output CSV path")
    parser.add_argument("--truth", default=None, help="ground truth output path")
    parser.add_argument("--course", default=None, help="course metadata output path")
    return parser


def _parse_scripts(raw) -> tuple[tuple[Behavior, ...], ...] | None:
    from .synth import Behavior

    if raw is None:
        return None
    return tuple(
        tuple(Behavior.parse(token) for token in spec.split(",")) for spec in raw
    )


def _generate(argv) -> int:
    # loaded only here: an analysis run needs neither the generator nor
    # the oracles it checks scripts with
    from . import synth

    args = _generator_parser().parse_args(argv)
    if args.marathon:
        if args.truth is not None:
            raise synth.InfeasibleScriptError(
                "marathon mode is jittered field data; it has no scripted "
                "ground truth to write"
            )
        events = synth.generate_field(
            args.athletes,
            args.cps,
            seed=args.seed,
            resolution_ms=args.resolution,
            course_length_m=args.course_length,
        )
    else:
        params = Params(epsilon=args.epsilon, m=args.min_group, mu=args.mu)
        config = synth.GeneratorConfig(
            n_athletes=args.athletes,
            n_cps=args.cps,
            params=params,
            pack_size=args.pack_size,
            n_bands=args.bands,
            course_length_m=args.course_length,
            seed=args.seed,
            scripts=_parse_scripts(args.script),
        )
        events, truth = synth.generate(config)
        if args.truth:
            with open(args.truth, "w") as fh:
                synth.write_ground_truth(fh, truth)
    write_events(args.events, events)
    if args.course:
        write_course(args.course, synth.course_points(args.cps, args.course_length))
    print(
        f"generated events={len(events)} athletes={args.athletes} "
        f"cps={args.cps} seed={args.seed} path={args.events}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
