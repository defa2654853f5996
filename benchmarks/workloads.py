"""Seeded inputs for the three benchmark workloads, and their expected outputs.

Everything here is the benchmark's own work: the generator and the
oracle come from ``racegroups.synth`` and ``racegroups.oracles``, which
serve as input source and checker and are not layers under test.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from collections import Counter

from racegroups.core import Event, Mu, Params
from racegroups.oracles import oracle_groups
from racegroups.synth import Behavior, GeneratorConfig, generate, generate_field

PARAMS = Params(epsilon=2000, m=7, mu=Mu(7, 10))

# (athletes, control points): full size, and the smoke size the self-tests use
SCRIPTED_SIZE = {"full": (12_500, 100), "smoke": (250, 20)}
LIVE_SIZE = {"full": (2_500, 100), "smoke": (250, 20)}
FIELD_SIZE = {"full": (40_000, 12), "smoke": (2_000, 12)}

FIELD_REPORTS = "summary,patterns,longterm,status,anomalies"

# Live feed: one ingest() batch of EVENTS_PER_TICK events every TICK_S
# seconds, 50k events/s.  Fed back to back with the per-tick read mix,
# the unchanged program handles about 200k events/s of this race at
# 5,000 athletes on a 2-core x86-64 container at full speed, and about
# half that where the container runs at half speed, as it does for
# seconds at a time; 50k events/s is half of what it sustains throughout.
TICK_S = 0.020
EVENTS_PER_TICK = 1000
WATCHLIST_SIZE = 64


def scripts(n_cps: int) -> tuple[tuple[Behavior, ...], ...]:
    """The acceptance-test script mix, cut to n_cps control points:
    constant, divide:2, constant x3 + explode, divide:18/7 and
    divide:8/8+9x1, cycled over 25-athlete packs."""
    steady = Behavior.constant()
    full = (
        (steady,) * 100,
        (steady, Behavior.divide(2)) * 50,
        (steady, steady, steady, Behavior.explode()) * 25,
        (steady, Behavior.divide((18, 7))) * 50,
        (steady, Behavior.divide((8, 8) + (1,) * 9), steady, steady) * 25,
    )
    return tuple(script[:n_cps] for script in full)


def scripted_race(seed: int, size: tuple[int, int]):
    """Events sorted by time, and the exact ground truth of the race."""
    n_athletes, n_cps = size
    config = GeneratorConfig(
        n_athletes=n_athletes,
        n_cps=n_cps,
        params=PARAMS,
        pack_size=25,
        n_bands=50,
        seed=seed,
        scripts=scripts(n_cps),
    )
    return generate(config)


def watchlist(seed: int, n_athletes: int) -> list[int]:
    """Athletes whose status the live read mix asks for, in turn."""
    rng = random.Random(f"watchlist-{seed}")
    return [rng.randrange(n_athletes) for _ in range(WATCHLIST_SIZE)]


def field_race(seed: int, size: str) -> tuple[list[Event], int]:
    n_athletes, n_cps = FIELD_SIZE[size]
    return generate_field(n_athletes, n_cps, seed=seed), n_cps


def write_binary(path: str, events) -> str:
    """Flat int64 (athlete, cp, time) triples; returns their sha256."""
    data = array("q", itertools.chain.from_iterable(events)).tobytes()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def read_binary(path: str) -> list[Event]:
    flat = array("q")
    with open(path, "rb") as fh:
        flat.frombytes(fh.read())
    it = iter(flat)
    return list(map(Event, it, it, it))


def write_csv(path: str, events) -> str:
    """Long-form CSV as the CLI reads it; returns its sha256."""
    lines = ["athlete_id,control_point,time_ms"]
    lines.extend(f"{a},{c},{t}" for a, c, t in events)
    data = ("\n".join(lines) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_course(path: str, n_cps: int, length_m: int = 42195) -> None:
    """Evenly spaced control points, the last one at the finish."""
    rows = ["index,meters"] + [f"{c},{length_m * (c + 1) // n_cps}" for c in range(n_cps)]
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def field_expectations(events: list[Event]) -> dict[int, dict[str, int]]:
    """Per control point: oracle group count, largest oracle group and
    crossings in the input, as the CLI's summary records must show."""
    groups = oracle_groups(events, PARAMS)
    crossed = Counter(e.cp for e in events)
    return {
        cp: {
            "groups": len(groups.get(cp, ())),
            "largest": max((len(g[0]) for g in groups.get(cp, ())), default=0),
            "crossed": crossed[cp],
        }
        for cp in sorted(crossed)
    }
