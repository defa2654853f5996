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

Exported here: what that use needs, the lower-level layers the README
describes, the exceptions callers catch and the kind constants.  Import
everything else from its own module.
"""

from .core import Mu, Params
from .evolution import GraphStack
from .grouping import GroupingEngine, StreamOrderError
from .io import MalformedInputError
from .longterm import (
    KIND_BACKWARD,
    KIND_FORWARD,
    KIND_RELATED,
    KIND_SURVIVING,
    LONGTERM_KINDS,
    build_global,
    compute_labels,
    longest_all,
)
from .patterns import (
    APPEARS,
    COHERES,
    DISAPPEARS,
    DISBANDS,
    EXPANDS,
    KINDS,
    MERGES,
    SHRINKS,
    SPLITS,
    SURVIVES,
    PatternTracker,
    detect_patterns,
)
from .pipeline import RunConfig, run
from .synth import GeneratorConfig, InfeasibleScriptError, generate

__version__ = "0.1.0"

__all__ = [
    "APPEARS",
    "COHERES",
    "DISAPPEARS",
    "DISBANDS",
    "EXPANDS",
    "KINDS",
    "KIND_BACKWARD",
    "KIND_FORWARD",
    "KIND_RELATED",
    "KIND_SURVIVING",
    "LONGTERM_KINDS",
    "MERGES",
    "SHRINKS",
    "SPLITS",
    "SURVIVES",
    "GeneratorConfig",
    "GraphStack",
    "GroupingEngine",
    "InfeasibleScriptError",
    "MalformedInputError",
    "Mu",
    "Params",
    "PatternTracker",
    "RunConfig",
    "StreamOrderError",
    "build_global",
    "compute_labels",
    "detect_patterns",
    "generate",
    "longest_all",
    "run",
]
