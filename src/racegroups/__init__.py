"""Streaming detection of runner groups and their evolution patterns.

The package turns a time-ordered stream of control-point crossings into
epsilon-connected groups, classifies how each group evolves between
consecutive control points (nine pattern kinds), and labels how far
every group can be traced through the whole race (four long-term
kinds).  A synthetic generator with exact ground truth, brute-force
reference implementations and a command line front end round it out.

Typical use goes through the pipeline:

    from racegroups import Mu, Params, RunConfig, run
    result = run(events, RunConfig(params=Params(epsilon=2000, m=7, mu=Mu(7, 10))))

Exported here: only the names the README's Library block imports.
Import everything else, the lower-level layers, the exceptions and the
kind constants included, from its own module.
"""

import importlib

from .core import Mu, Params
from .pipeline import RunConfig, run

__version__ = "0.1.0"

__all__ = ["GeneratorConfig", "Mu", "Params", "RunConfig", "generate", "run"]

# The generator is loaded on first use: an analysis run never needs it,
# and it pulls in the reference oracles.
_LAZY = {"GeneratorConfig": "synth", "generate": "synth"}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
