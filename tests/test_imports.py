"""What a process loads: an analysis run imports only the analysis
layers, and the package's lazy exports still resolve."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"


def _fresh(code: str):
    """Run code in a new interpreter that imports this checkout; return
    what it printed as JSON."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


_LOADED = """
import json, sys
{}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("racegroups"))))
"""


def test_analysis_run_loads_only_the_analysis_layers():
    loaded = _fresh(
        _LOADED.format(
            "from racegroups.core import Mu, Params\n"
            "from racegroups.pipeline import RaceAnalysis, RunConfig"
        )
    )
    assert "racegroups.pipeline" in loaded
    for module in ("io", "synth", "oracles", "cli"):
        assert f"racegroups.{module}" not in loaded


def test_cli_loads_no_generator():
    loaded = _fresh(_LOADED.format("import racegroups.cli"))
    assert "racegroups.io" in loaded
    assert "racegroups.synth" not in loaded
    assert "racegroups.oracles" not in loaded


def test_reader_imports_no_analysis_layer():
    """racegroups.io reads and writes race files only: the truth file's
    format belongs to racegroups.synth, next to GroundTruth."""
    tree = ast.parse((SRC / "racegroups" / "io.py").read_text())
    local = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level}
    assert local == {"core"}


_ADDED = """
import json, sys
before = set(sys.modules)
{}
print(json.dumps(sorted(set(sys.modules) - before)))
"""

# the benchmark's library set-up probe
_LIBRARY_SETUP = """
from racegroups.core import Mu, Params
from racegroups.pipeline import RaceAnalysis, RunConfig
RaceAnalysis(RunConfig(params=Params(epsilon=2000, m=7, mu=Mu(7, 10)), mode={!r}))
"""


@pytest.mark.parametrize(
    "setup",
    [_LIBRARY_SETUP.format("finalized"), _LIBRARY_SETUP.format("online"), "import racegroups.cli"],
    ids=["library-finalized", "library-online", "cli"],
)
def test_no_dataclass_machinery(setup):
    # the modules the set-up adds, so what site or a .pth file preloads
    # does not count: no import of dataclasses, nor of the inspect
    # module it loads
    added = _fresh(_ADDED.format(setup))
    assert "racegroups.pipeline" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_every_export_resolves():
    bound, missing, unknown = _fresh(
        """
import json
import racegroups
names = {}
exec("from racegroups import *", names)
missing = [n for n in racegroups.__all__ if getattr(racegroups, n, None) is None]
try:
    racegroups.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([sorted(set(names) - {"__builtins__"}), missing, unknown]))
"""
    )
    import racegroups

    assert bound == sorted(racegroups.__all__)
    assert missing == []
    assert unknown == "module 'racegroups' has no attribute 'no_such_name'"


def test_root_exports_the_readme_library_imports():
    # the `from racegroups import ...` line of the README's Library block
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    line = next(l for l in block.splitlines() if l.startswith("from racegroups import "))
    imported = line.removeprefix("from racegroups import ").split(", ")
    import racegroups

    assert sorted(racegroups.__all__) == sorted(imported)
