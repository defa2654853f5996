"""The benchmark's tracer against the package, at test speed.

benchmarks/tracing.py wraps public functions and methods of every
layer by name, and benchmarks/run.py reconciles the counts the
wrappers take.  A renamed or deleted hook, or counts that stop adding
up, fail here instead of only in the slow benchmark self-tests.
"""

from __future__ import annotations

import importlib.util
import os

import pytest

import racegroups.pipeline as pipeline
from racegroups.core import Mu, Params
from racegroups.synth import GeneratorConfig, generate

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"benchmarks_{name}", os.path.join(BENCHMARKS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["finalized", "online"])
def test_traced_run_reconciles(mode):
    tracing, bench_run = _load("tracing"), _load("run")
    params = Params(epsilon=2000, m=7, mu=Mu(7, 10))
    events, _ = generate(GeneratorConfig(n_athletes=200, n_cps=8, params=params, seed=1))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipeline.run(events, pipeline.RunConfig(params=params, mode=mode))
    finally:
        tracer.uninstall()
    (summary,) = tracer.summary().values()
    assert bench_run.reconcile(summary, len(events)) == []
    assert summary["longterm.vertices"] > 0
