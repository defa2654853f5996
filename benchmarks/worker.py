"""Measured loop of one benchmark run, in a process of its own.

Usage: python3 worker.py <job.json>

The orchestrator (run.py) writes the job and the workload's input,
starts this process and reads back ``result.json`` from the same
directory.  The process holds the input and the program and nothing
else, so its peak RSS is the program's.  Output checks against ground
truth happen in the orchestrator; this process only summarizes each
iteration's output after its timer has stopped.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import sys
import time

import racegroups.cli as cli
import racegroups.longterm as longterm
import racegroups.pipeline as pipeline

from tracing import Tracer
from workloads import EVENTS_PER_TICK, PARAMS, TICK_S, read_binary


def _output_summary(analysis, pattern_sets, longest) -> dict:
    """Counts the orchestrator checks, and a digest of every record."""
    digest = hashlib.sha256()
    pair_counts = {}
    for left_cp in sorted(pattern_sets):
        pattern_set = pattern_sets[left_cp]
        pair_counts[left_cp] = pattern_set.counts()
        digest.update(repr((pattern_set.pair, pattern_set.records, pattern_set.flags)).encode())
    maxima = {kind: res.length_cps for kind, res in longest.items()}
    digest.update(repr(sorted((k, r.length_cps, r.witness) for k, r in longest.items())).encode())
    engine = analysis.engine
    return {
        "pair_counts": pair_counts,
        "group_counts": {cp: len(engine.groups_at(cp)) for cp in engine.known_cps()},
        "longterm_cps": maxima,
        "accepted": engine.events_accepted,
        "digest": digest.hexdigest(),
    }


def _scripted_batch(job, events, traced, run):
    t0 = time.perf_counter()
    result = pipeline.run(events, pipeline.RunConfig(params=PARAMS))
    wall = time.perf_counter() - t0
    summary = _output_summary(result.analysis, result.pattern_sets, result.longest)
    return {"wall": wall, "busy": wall, **summary}


def _tick_plan(events, watch):
    """Per tick: its batch, the athlete whose status is read (the next
    watchlist athlete once fed, else the batch's last athlete) and the
    left control point of the pair behind the newest control point."""
    batches, status, snap = [], [], []
    seen: set[int] = set()
    newest = 0
    for k, start in enumerate(range(0, len(events), EVENTS_PER_TICK)):
        batch = events[start : start + EVENTS_PER_TICK]
        for athlete, cp, _ in batch:
            seen.add(athlete)
            if cp > newest:
                newest = cp
        wanted = watch[k % len(watch)]
        batches.append(batch)
        status.append(wanted if wanted in seen else batch[-1].athlete)
        snap.append(max(newest - 1, 0))
    return batches, status, snap


def _live_online(job, plan, traced, run):
    """Open loop: tick k is due at start + k * TICK_S whatever happened
    before it; its latency runs from that due time to the end of its
    ingest and reads."""
    batches, status, snap = plan
    analysis = pipeline.RaceAnalysis(pipeline.RunConfig(params=PARAMS, mode="online"))
    clock, sleep = time.perf_counter, time.sleep
    latency, late = [], []
    busy = 0.0
    start = clock() + 0.05
    for k, batch in enumerate(batches):
        due = start + k * TICK_S
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        late.append(now - due)
        analysis.ingest(batch)
        analysis.athlete_status(status[k])
        analysis.tracker.snapshot(analysis.stack.pair(snap[k]))
        end = clock()
        latency.append(end - due)
        busy += end - now
    # Whether a full collection lands in the short final stage is down
    # to luck; one now makes final_result_s measure the stage itself.
    gc.collect()
    final_start = clock()
    analysis.finalize()
    pattern_sets = analysis.pattern_sets()
    graph = analysis.global_graph()
    labels = longterm.compute_labels(graph)
    longest = longterm.longest_all(graph, labels)
    final = clock() - final_start
    if traced:
        analysis.group_stats()  # counted for the crossed/accepted reconciliation
    summary = _output_summary(analysis, pattern_sets, longest)
    return {
        "wall": end - start + final,
        "busy": busy + final,
        "final": final,
        "latency": latency,
        "late": late,
        **summary,
    }


def _field_cli(job, _input, traced, run):
    """The CLI in this process, for the traced run: untraced and traced
    calls of cli.main are compared on equal terms."""
    out_path = os.path.join(job["dir"], f"out-{run}.txt")
    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        code = cli.main(job["cli_args"])
        wall = time.perf_counter() - t0
    return {"wall": wall, "busy": wall, "exit": code, "output": out_path}


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    workload = job["workload"]
    if workload == "field-cli":
        measure, data = _field_cli, None
    else:
        events = read_binary(job["input"])
        if workload == "scripted-batch":
            measure, data = _scripted_batch, events
        else:
            measure, data = _live_online, _tick_plan(events, job["watchlist"])
            del events
            # In a live system the feed lives elsewhere; frozen, the
            # benchmark's copy of the race no longer enlarges the
            # program's full collections.
            gc.collect()
            gc.freeze()

    tracer = Tracer()
    iterations = []
    deadline = time.perf_counter() + job["seconds"]
    kinds = [False, True] if job["trace"] else [False]
    k = 0
    while True:
        traced = kinds[k % len(kinds)]
        tracer.run_id = k
        gc.collect()
        if traced:
            tracer.install()
        try:
            result = measure(job, data, traced, k)
        finally:
            tracer.uninstall()
        result["traced"] = traced
        result["run"] = k
        iterations.append(result)
        k += 1
        if time.perf_counter() >= deadline and k >= len(kinds):
            break

    out = {"iterations": iterations, "trace": {}}
    if job["trace"]:
        out["trace"] = {str(run): agg for run, agg in tracer.summary().items()}
        tracer.write(job["trace_path"])
    with open(os.path.join(job["dir"], "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
