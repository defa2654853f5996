"""The racegroups benchmark: one seeded workload per run, outputs checked.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload scripted-batch --seed 1 --seconds 25 --trace 0

Workloads (see README.md in this directory for why each exists):

    scripted-batch  the scripted acceptance race, in memory, through run()
    field-cli       a marathon field as CSV, through the racegroups CLI
    live-online     the scripted race fed in an open loop to online mode

The last line on stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones from a separate traced run.  The program is imported
from ``src/`` of the checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("scripted-batch", "field-cli", "live-online")

SETUP_PROBES = 25
RUN_LIMIT_S = 170.0  # the whole run, checks included, ends before 180 s


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc: subprocess.Popen, limit_s: float):
    """Wait for a child and return (exit code, peak RSS in MB); the
    child is killed if it outlives limit_s."""
    timer = threading.Timer(max(limit_s, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def _tail(values, q: int) -> float:
    """The q-th percentile if at least ten samples lie beyond it, else
    the highest percentile that has ten beyond it, and at least the
    median: a p99 of a handful of samples would be their maximum."""
    n = len(values)
    if n == 1:
        return values[0]
    q = max(50, min(q, int(100 * (1 - 10 / n))))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- set-up time -----------------------------------------------------------

_LIBRARY_SETUP = """\
import time
t0 = time.perf_counter()
from racegroups.core import Mu, Params
from racegroups.pipeline import RaceAnalysis, RunConfig
RaceAnalysis(RunConfig(params=Params(epsilon=2000, m=7, mu=Mu(7, 10)), mode={mode!r}))
print(time.perf_counter() - t0)
"""


def _setup_once(workload: str) -> float:
    """Until the first event can be accepted: import plus RaceAnalysis
    construction for the library workloads, interpreter start plus
    package import for the CLI."""
    if workload == "field-cli":
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import racegroups.cli"], env=_env())
        code, _ = _wait(proc, 30)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError("importing racegroups.cli failed")
        return elapsed
    mode = "online" if workload == "live-online" else "finalized"
    out = subprocess.run(
        [sys.executable, "-c", _LIBRARY_SETUP.format(mode=mode)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    return float(out.stdout)


def measure_setup(workload: str) -> float:
    _setup_once(workload)  # bytecode compiled and cached, as after install
    return statistics.median(_setup_once(workload) for _ in range(SETUP_PROBES))


# -- checks ----------------------------------------------------------------


def check_library(iteration: dict, truth, n_events: int) -> list[str]:
    """Exact agreement with the generator's ground truth."""
    problems = []
    pair_counts = {int(k): v for k, v in iteration["pair_counts"].items()}
    expected_pairs = {left: counts for (left, _), counts in truth.pair_counts.items()}
    bad = [
        left
        for left in sorted(set(pair_counts) | set(expected_pairs))
        if pair_counts.get(left) != expected_pairs.get(left)
    ]
    if bad:
        problems.append(f"pattern counts differ at pairs {bad[:5]}")
    groups = {int(k): v for k, v in iteration["group_counts"].items()}
    if groups != truth.group_counts:
        problems.append("group counts per control point differ")
    if iteration["longterm_cps"] != truth.longterm_cps():
        problems.append(f"long-term maxima {iteration['longterm_cps']} != {truth.longterm_cps()}")
    if iteration["accepted"] != n_events:
        problems.append(f"{iteration['accepted']} of {n_events} events accepted")
    return problems


def check_cli_output(path: str, expected: dict, n_rows: int) -> tuple[list[str], str]:
    """Summary records against the oracle and the input; returns the
    problems and the sha256 of the whole output."""
    with open(path, "rb") as fh:
        data = fh.read()
    problems = []
    summary = {}
    meta = None
    for line in data.decode().splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("summary", "meta"):
            fields = dict(item.split("=", 1) for item in rest.split())
            if kind == "meta":
                meta = fields
            else:
                summary[int(fields["cp"])] = {
                    key: int(fields[key]) for key in ("groups", "largest", "crossed")
                }
    if meta is None or int(meta["events"]) != n_rows or meta["rejected"] != "0" or meta["issues"] != "0":
        problems.append(f"meta record {meta} does not account for {n_rows} rows")
    if summary != expected:
        bad = [cp for cp in expected if summary.get(cp) != expected[cp]]
        problems.append(f"summary records differ from the oracle at cps {bad[:5]}")
    return problems, hashlib.sha256(data).hexdigest()


def reconcile(agg: dict, rows: int) -> list[str]:
    """Counts from different layer boundaries that must agree."""
    problems = []
    failed = agg.get("on_finish.failed", 0)
    if agg.get("grouping.components", 0) != agg.get("grouping.groups", 0) + failed:
        problems.append("components != groups + failed components")
    if agg.get("state.crossed", 0) != agg.get("grouping.events_accepted", 0):
        problems.append("sum of crossed per cp != events accepted")
    handled = agg.get("grouping.events_accepted", 0) + agg.get("grouping.events_rejected", 0)
    if rows != handled + agg.get("io.issues", 0):
        problems.append(f"rows {rows} != accepted + rejected + issues")
    if agg.get("evolution.edges_added", 0) != agg.get("state.relation_edges", 0):
        problems.append("edges added != relation edges in the pairs")
    return problems


# -- metrics ---------------------------------------------------------------

PER_LAYER = {
    # metric: key in a traced run's summary
    "io.read_events_s": "total:io.read_events",
    "io.rows": "io.rows",
    "io.issues": "io.issues",
    "grouping.self_s": "self:grouping",
    "grouping.events_accepted": "grouping.events_accepted",
    "grouping.events_rejected": "grouping.events_rejected",
    "grouping.components": "grouping.components",
    "grouping.groups": "grouping.groups",
    "grouping.outlier_athletes": "grouping.outlier_athletes",
    "evolution.on_group_s": "total:evolution.on_group",
    "evolution.members_scanned": "evolution.members_scanned",
    "evolution.edges_added": "evolution.edges_added",
    "patterns.detect_s": "total:patterns.detect",
    "patterns.records": "patterns.records",
    "patterns.flags": "patterns.flags",
    "patterns.tracker_s": "total:patterns.tracker",
    "patterns.snapshot_s": "total:patterns.snapshot",
    "patterns.seal_s": "total:patterns.seal",
    "longterm.build_s": "total:longterm.build",
    "longterm.labels_s": "total:longterm.labels",
    "longterm.longest_s": "total:longterm.longest",
    "longterm.vertices": "longterm.vertices",
    "longterm.edges": "longterm.edges",
    "pipeline.group_stats_s": "total:pipeline.group_stats",
    "pipeline.anomalies_s": "total:pipeline.anomalies",
    "pipeline.status_s": "total:pipeline.status",
    "cli.output_s": "self:cli",
}


def _declared(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares, in its order, with its units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _feed_latency(iteration: dict) -> list[float]:
    """Seconds from due to done per feed unit: the live ticks, or the
    batch job as one unit that is due when it starts."""
    return iteration.get("latency", [iteration["wall"]])


def end_to_end(iterations: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    """Every workload reports every end-to-end metric.  A timing is the
    mean over the run's iterations of each iteration's figure: this
    container's speed swings by up to 2x for seconds at a time, and a
    median of iterations jumps between the fast and the slow speed where
    a mean moves with the share of the run each took."""
    values = {
        "events_per_s": sum(it["accepted"] for it in iterations) / sum(it["wall"] for it in iterations),
        "feed_p50_ms": 1000 * statistics.fmean(statistics.median(_feed_latency(it)) for it in iterations),
        "final_result_s": statistics.fmean(it.get("final", it["wall"]) for it in iterations),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return _declared("end_to_end", values)


def per_layer(iterations: list[dict], trace: dict) -> dict:
    traced = [trace.get(str(it["run"]), {}) for it in iterations if it["traced"]]
    values = {
        name: statistics.median(agg.get(key, 0) for agg in traced)
        for name, key in PER_LAYER.items()
    }
    untraced = [it for it in iterations if not it["traced"]]
    late = [x for it in untraced for x in it.get("late", ())]
    latency = [x for it in untraced for x in _feed_latency(it)]
    values["feed.p95_ms"] = 1000 * _tail(latency, 95)
    values["feed.p99_ms"] = 1000 * _tail(latency, 99)
    values["feed.late_p99_ms"] = 1000 * _tail(late, 99) if late else 0.0
    values["trace.overhead"] = statistics.median(
        it["busy"] for it in iterations if it["traced"]
    ) / statistics.median(it["busy"] for it in untraced)
    return _declared("per_layer", values)


# -- one run ---------------------------------------------------------------


def prepare(workload: str, seed: int, size: str, work: str) -> dict:
    """Generate and write the input; returns what the checks need."""
    from workloads import (
        FIELD_REPORTS,
        LIVE_SIZE,
        PARAMS,
        SCRIPTED_SIZE,
        field_expectations,
        field_race,
        scripted_race,
        watchlist,
        write_binary,
        write_course,
        write_csv,
    )

    job = {"workload": workload, "dir": work}
    if workload == "field-cli":
        events, n_cps = field_race(seed, size)
        csv_path = os.path.join(work, "field.csv")
        course_path = os.path.join(work, "course.csv")
        job["input_digest"] = write_csv(csv_path, events)
        write_course(course_path, n_cps)
        job["cli_args"] = [
            "--input", csv_path, "--course", course_path,
            "--epsilon", str(PARAMS.epsilon), "--min-group", str(PARAMS.m),
            "--mu", str(PARAMS.mu), "--report", FIELD_REPORTS, "--out", "records",
        ]
        expected = field_expectations(events)
        return {"job": job, "rows": len(events), "expected": expected}
    n_athletes, n_cps = (LIVE_SIZE if workload == "live-online" else SCRIPTED_SIZE)[size]
    events, truth = scripted_race(seed, (n_athletes, n_cps))
    job["input"] = os.path.join(work, "events.bin")
    job["input_digest"] = write_binary(job["input"], events)
    if workload == "live-online":
        job["watchlist"] = watchlist(seed, n_athletes)
    return {"job": job, "rows": len(events), "truth": truth}


def run_cli_loop(prep: dict, seconds: float, limit_s: float):
    """Untraced field-cli: one racegroups process per iteration, timed
    from launch to exit."""
    job = prep["job"]
    iterations, peaks = [], []
    started = time.perf_counter()
    while True:
        out_path = os.path.join(job["dir"], f"out-{len(iterations)}.txt")
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "racegroups.cli", *job["cli_args"]],
                stdout=out,
                env=_env(),
            )
            code, peak = _wait(proc, limit_s - (t0 - started))
            wall = time.perf_counter() - t0
        iterations.append(
            {"run": len(iterations), "wall": wall, "exit": code, "output": out_path, "traced": False}
        )
        peaks.append(peak)
        if time.perf_counter() - started >= seconds:
            return iterations, statistics.median(peaks)


def run_worker(prep: dict, seconds: float, trace: bool, limit_s: float):
    job = dict(prep["job"], seconds=seconds, trace=trace)
    job["trace_path"] = os.path.join(WORK, f"trace-{job['workload']}.jsonl")
    job_path = os.path.join(job["dir"], "job.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path], env=_env()
    )
    code, peak = _wait(proc, limit_s)
    if code != 0:
        raise RuntimeError(f"benchmark worker exited with {code}")
    with open(os.path.join(job["dir"], "result.json")) as fh:
        result = json.load(fh)
    return result["iterations"], result["trace"], peak


def run_once(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    started = time.perf_counter()
    work = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        prep = prepare(workload, seed, size, work)
        gc.collect()
        print(f"input_digest {prep['job']['input_digest']}", flush=True)
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        if workload == "field-cli" and not trace:
            iterations, peak = run_cli_loop(prep, seconds, remaining)
            trace_agg = {}
        else:
            iterations, trace_agg, peak = run_worker(prep, seconds, trace, remaining)

        failed = 0
        digests = set()
        for it in iterations:
            if workload == "field-cli":
                problems, digest = (
                    check_cli_output(it["output"], prep["expected"], prep["rows"])
                    if it["exit"] == 0
                    else ([f"racegroups exited with {it['exit']}"], "")
                )
                it["accepted"] = prep["rows"]
            else:
                problems, digest = check_library(it, prep["truth"], prep["rows"]), it["digest"]
            if it["traced"]:
                problems += reconcile(trace_agg.get(str(it["run"]), {}), prep["rows"])
            digests.add(digest)
            for problem in problems:
                print(f"check failed (iteration {it['run']}): {problem}", file=sys.stderr)
            failed += bool(problems)
        if len(digests) != 1:
            print(f"check failed: outputs differ between iterations: {sorted(digests)}", file=sys.stderr)
            failed = len(iterations)
        print(f"output_digest {sorted(digests)[0]}", flush=True)

        if trace:
            metrics = per_layer(iterations, trace_agg)
        else:
            metrics = end_to_end(iterations, measure_setup(workload), peak)
        return {
            "correct": failed == 0,
            "attempted": len(iterations),
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "racegroups", "__init__.py")):
        print(f"error: no racegroups sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # terminated from outside: stop the children and clean up on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
