"""Synthetic race generation with exact, script-derived ground truth.

Athletes are organized in fixed-size packs.  Each pack follows a
behavior script, one behavior per control point:

  constant        the whole pack crosses as one epsilon-connected chunk
  divide(k)       k balanced chunks, every chunk large enough to be a
                  group (anything else is a scripting error)
  divide(sizes)   explicit chunk sizes; chunks below the group
                  threshold become outlier dust, which is how coheres
                  and disbands scenarios are scripted
  explode         every member on their own, separated by more than
                  epsilon

Each pack crosses inside its own time corridor: corridors at one
control point are separated by more than epsilon from each other, so
packs can never interact and the expected patterns of a race are the
sum of the expected patterns of its packs.  Pace bands shift the
corridors of slower packs further back at every control point; band
assignment is nondecreasing over packs, so drifting never makes two
corridors touch.  Within a chunk, consecutive gaps are seeded jitter
in [0, epsilon]; between chunks the gap is exactly epsilon + 1.

Ground truth per pack is computed from the script alone - chunk
membership is deterministic - by the brute-force oracles, on the
formations' member sets: oracle_patterns classifies each consecutive
pair, and oracle_longterm finds the longest chain of each long-term
kind.  Neither runs the analysis layers the truth is checked against.
Pack times never enter, so the prediction is independent of jitter,
bands and corridor placement.

The truth file format is this module's: write_ground_truth writes a
GroundTruth as stable, diffable lines and read_ground_truth reads them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import itemgetter
from typing import TextIO

from .core import Event, Params
from .longterm import LONGTERM_KINDS
from .oracles import oracle_longterm, oracle_patterns
from .patterns import KINDS

# how much further back, per control point, each pace band shifts a
# pack's corridor
_BAND_DELAY_MS = 3000


class InfeasibleScriptError(ValueError):
    """The behavior script cannot produce the groups it promises."""


@dataclass(frozen=True)
class Behavior:
    kind: str  # "constant" | "divide" | "explode"
    k: int = 0  # balanced part count, divide only
    sizes: tuple[int, ...] = ()  # explicit part sizes, divide only

    @classmethod
    def constant(cls) -> "Behavior":
        return cls("constant")

    @classmethod
    def explode(cls) -> "Behavior":
        return cls("explode")

    @classmethod
    def divide(cls, arg) -> "Behavior":
        if isinstance(arg, int):
            return cls("divide", k=arg)
        return cls("divide", sizes=tuple(int(s) for s in arg))

    @classmethod
    def parse(cls, text: str) -> "Behavior":
        """constant | explode | divide:K | divide:S1/S2/..."""
        text = text.strip()
        if text == "constant":
            return cls.constant()
        if text == "explode":
            return cls.explode()
        if text.startswith("divide:"):
            payload = text[len("divide:") :]
            if "/" in payload:
                return cls.divide(int(s) for s in payload.split("/"))
            return cls.divide(int(payload))
        raise ValueError(f"unknown behavior {text!r}")

    def __str__(self) -> str:
        if self.kind != "divide":
            return self.kind
        if self.sizes:
            return "divide:" + "/".join(str(s) for s in self.sizes)
        return f"divide:{self.k}"

    def chunk_sizes(self, pack_size: int, m: int) -> tuple[int, ...]:
        """Chunk sizes for a pack at one control point, validated."""
        if self.kind == "constant":
            if pack_size < m:
                raise InfeasibleScriptError(
                    f"constant pack of {pack_size} can never reach "
                    f"the group threshold {m}"
                )
            return (pack_size,)
        if self.kind == "explode":
            return (1,) * pack_size
        if self.sizes:
            if sum(self.sizes) != pack_size or any(s < 1 for s in self.sizes):
                raise InfeasibleScriptError(
                    f"divide sizes {self.sizes} do not partition "
                    f"a pack of {pack_size}"
                )
            if len(self.sizes) < 2:
                raise InfeasibleScriptError("divide needs at least 2 parts")
            return self.sizes
        if not 2 <= self.k <= pack_size:
            raise InfeasibleScriptError(f"cannot divide a pack in {self.k}")
        base, rem = divmod(pack_size, self.k)
        if base < m:
            raise InfeasibleScriptError(
                f"divide({self.k}) of a pack of {pack_size} yields parts "
                f"of {base} below the group threshold {m}; use explicit "
                f"sizes if outlier dust is intended"
            )
        return tuple(base + (1 if i < rem else 0) for i in range(self.k))


Script = tuple[Behavior, ...]


@dataclass(frozen=True)
class GeneratorConfig:
    n_athletes: int
    n_cps: int
    params: Params
    pack_size: int = 25
    n_bands: int = 10
    course_length_m: int = 42195
    seed: int = 0
    # scripts are cycled over packs; None means seeded random scripts
    scripts: tuple[Script, ...] | None = None

    def validate(self) -> None:
        if self.n_cps < 2:
            raise InfeasibleScriptError("need at least 2 control points")
        if self.pack_size < 1 or self.n_athletes % self.pack_size:
            raise InfeasibleScriptError(
                f"{self.n_athletes} athletes do not divide into packs "
                f"of {self.pack_size}"
            )
        if self.n_bands < 1:
            raise InfeasibleScriptError("need at least one pace band")
        if self.scripts is not None:
            if not self.scripts:
                raise InfeasibleScriptError("empty script list")
            for script in self.scripts:
                if len(script) != self.n_cps:
                    raise InfeasibleScriptError(
                        f"script length {len(script)} != {self.n_cps} cps"
                    )
                for beh in script:
                    beh.chunk_sizes(self.pack_size, self.params.m)

    def n_packs(self) -> int:
        return self.n_athletes // self.pack_size


def course_points(n_cps: int, course_length_m: int) -> list[tuple[int, int]]:
    """(control point, distance in meters), evenly spaced with the last
    control point at the finish."""
    return [(c, course_length_m * (c + 1) // n_cps) for c in range(n_cps)]


@dataclass
class GroundTruth:
    """Script-derived expectations: exact record counts per control
    point pair and the maxima of the four long-term labels (edges)."""

    pair_counts: dict[tuple[int, int], dict[str, int]]
    longterm_edges: dict[str, int]
    group_counts: dict[int, int]

    def longterm_cps(self) -> dict[str, int]:
        have_groups = any(self.group_counts.values())
        return {
            kind: edges + 1 if have_groups else 0
            for kind, edges in self.longterm_edges.items()
        }


def write_ground_truth(fh: TextIO, truth: GroundTruth) -> None:
    """Line-oriented summary, stable order, suitable for diffing."""
    for cp in sorted(truth.group_counts):
        fh.write(f"groups cp={cp} count={truth.group_counts[cp]}\n")
    for left, right in sorted(truth.pair_counts):
        counts = truth.pair_counts[(left, right)]
        for kind in KINDS:
            fh.write(
                f"pair left={left} right={right} kind={kind} "
                f"count={counts[kind]}\n"
            )
    cps = truth.longterm_cps()
    for kind in LONGTERM_KINDS:
        fh.write(
            f"longterm kind={kind} edges={truth.longterm_edges[kind]} "
            f"cps={cps[kind]}\n"
        )


def read_ground_truth(fh: TextIO) -> GroundTruth:
    pair_counts: dict[tuple[int, int], dict[str, int]] = {}
    longterm_edges: dict[str, int] = {}
    group_counts: dict[int, int] = {}
    for lineno, line in enumerate(fh, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        record, *pairs = line.split()
        fields = dict(p.split("=", 1) for p in pairs)
        if record == "groups":
            group_counts[int(fields["cp"])] = int(fields["count"])
        elif record == "pair":
            key = (int(fields["left"]), int(fields["right"]))
            pair_counts.setdefault(key, {})[fields["kind"]] = int(fields["count"])
        elif record == "longterm":
            longterm_edges[fields["kind"]] = int(fields["edges"])
        else:
            raise ValueError(f"line {lineno}: unknown record {record!r}")
    return GroundTruth(
        pair_counts=pair_counts,
        longterm_edges=longterm_edges,
        group_counts=group_counts,
    )


def _formation(script: Script, pack_size: int, m: int) -> list[list[frozenset[int]]]:
    """Group member sets (pack-local indices) per control point."""
    levels = []
    for beh in script:
        sets: list[frozenset[int]] = []
        start = 0
        for size in beh.chunk_sizes(pack_size, m):
            if size >= m:
                sets.append(frozenset(range(start, start + size)))
            start += size
        levels.append(sets)
    return levels


def _script_truth(script: Script, pack_size: int, params: Params):
    """Per-pair kind counts, per-kind label maxima and per-cp group
    counts for one pack following this script."""
    mu = params.mu
    levels = _formation(script, pack_size, params.m)
    counts = []
    for c in range(len(levels) - 1):
        pattern_set, violations = oracle_patterns(
            levels[c], levels[c + 1], mu, left_cp=c
        )
        if violations:
            raise InfeasibleScriptError(
                f"script transition at cp {c} violates pattern "
                f"definitions: {violations[0]}"
            )
        if pattern_set.flags:
            raise InfeasibleScriptError(
                f"script transition at cp {c} is ambiguous "
                f"({pattern_set.flags[0][0]}); ground truth would not "
                f"be exact"
            )
        counts.append(pattern_set.counts())
    _, longest = oracle_longterm(levels, mu)
    maxima = {kind: longest[kind].length_edges for kind in LONGTERM_KINDS}
    group_counts = [len(level) for level in levels]
    return counts, maxima, group_counts


_SCRIPT_RETRIES = 20


def _random_script(
    rng: random.Random, n_cps: int, pack_size: int, params: Params
) -> tuple[Script, tuple]:
    """A seeded script biased toward steady running, retried if a draw
    lands on one of the rare ambiguous transitions, and its truth."""
    m = params.m
    can_halve = pack_size >= 2 * m
    can_third = pack_size >= 3 * m
    can_dust = pack_size >= 2 * m + 1
    for _ in range(_SCRIPT_RETRIES):
        script = [Behavior.constant()]
        for _ in range(1, n_cps):
            roll = rng.random()
            if roll < 0.70 or pack_size < 2 * m:
                beh = Behavior.constant()
            elif roll < 0.82 and can_halve:
                beh = Behavior.divide(2)
            elif roll < 0.87 and can_third:
                beh = Behavior.divide(3)
            elif roll < 0.95 and can_dust:
                dust = pack_size - 2 * m
                beh = Behavior.divide((m, m) + (1,) * dust)
            else:
                beh = Behavior.explode()
            script.append(beh)
        drawn = tuple(script)
        try:
            return drawn, _script_truth(drawn, pack_size, params)
        except InfeasibleScriptError:
            continue
    script = (Behavior.constant(),) * n_cps
    return script, _script_truth(script, pack_size, params)


def generate(config: GeneratorConfig) -> tuple[list[Event], GroundTruth]:
    """Deterministic synthetic race plus its exact expectations.

    The returned events are sorted by (time, cp, athlete).
    """
    config.validate()
    params = config.params
    eps = params.epsilon
    pack_size = config.pack_size
    n_packs = config.n_packs()
    rng = random.Random(config.seed)

    truth_memo: dict[Script, tuple] = {}
    if config.scripts is not None:
        scripts = [
            config.scripts[p % len(config.scripts)] for p in range(n_packs)
        ]
    else:
        scripts = []
        for _ in range(n_packs):
            script, script_truth = _random_script(rng, config.n_cps, pack_size, params)
            truth_memo[script] = script_truth
            scripts.append(script)

    pair_counts = {
        (c, c + 1): dict.fromkeys(KINDS, 0) for c in range(config.n_cps - 1)
    }
    longterm_edges = dict.fromkeys(LONGTERM_KINDS, 0)
    group_counts = dict.fromkeys(range(config.n_cps), 0)
    for script in scripts:
        cached = truth_memo.get(script)
        if cached is None:
            cached = truth_memo[script] = _script_truth(
                script, pack_size, params
            )
        counts, maxima, per_cp_groups = cached
        for c, kind_counts in enumerate(counts):
            bucket = pair_counts[(c, c + 1)]
            for kind, value in kind_counts.items():
                bucket[kind] += value
        for kind, value in maxima.items():
            if value > longterm_edges[kind]:
                longterm_edges[kind] = value
        for c, n in enumerate(per_cp_groups):
            group_counts[c] += n

    # corridor geometry: wide enough for the most spread-out formation,
    # spaced so that packs and consecutive crossings can never touch
    corridor = (pack_size - 1) * (eps + 1)
    pack_step = corridor + eps + 1
    cp_step = corridor + eps + 1
    chunk_gap = eps + 1

    events: list[Event] = []
    append = events.append
    new = tuple.__new__  # skips the Python-level __new__ of a NamedTuple call
    for p, script in enumerate(scripts):
        band = p * config.n_bands // n_packs
        first_athlete = p * pack_size
        for c, beh in enumerate(script):
            t = c * cp_step + p * pack_step + c * band * _BAND_DELAY_MS
            athlete = first_athlete
            for size in beh.chunk_sizes(pack_size, params.m):
                for i in range(size):
                    if i:
                        t += rng.randint(0, eps)
                    append(new(Event, (athlete, c, t)))
                    athlete += 1
                t += chunk_gap
    events.sort(key=itemgetter(2, 1, 0))  # (time, cp, athlete)
    truth = GroundTruth(
        pair_counts=pair_counts,
        longterm_edges=longterm_edges,
        group_counts=group_counts,
    )
    return events, truth


def generate_field(
    n_athletes: int,
    n_cps: int = 12,
    seed: int = 0,
    resolution_ms: int = 1000,
    course_length_m: int = 42195,
) -> list[Event]:
    """A marathon-shaped field at clock-second resolution: per-athlete
    paces around 5:30 min/km, widening dispersion along the course,
    strictly increasing per-athlete times.  No ground truth - this
    stream exists for epsilon sweeps and load tests."""
    rng = random.Random(seed)
    seg_km = course_length_m / 1000 / n_cps
    events: list[Event] = []
    for athlete in range(n_athletes):
        pace = max(150.0, rng.gauss(330.0, 45.0))
        last = 0
        for c in range(n_cps):
            base = (c + 1) * seg_km * pace
            seconds = int(round(base + rng.gauss(0.0, 60.0)))
            last = max(last + 1, seconds)
            events.append(Event(athlete, c, last * resolution_ms))
    events.sort(key=lambda e: (e.time, e.cp, e.athlete))
    return events
