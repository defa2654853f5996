"""Domain primitives for race-group analysis.

The vocabulary everything else builds on:

  * an Event is one athlete crossing one control point at one timestamp,
  * control points are dense 0-based indices along the course,
  * timestamps are integer milliseconds on the shared race clock,
  * the inclusion coefficient I(A, B) = |A ∩ B| / |A| measures what
    fraction of set A is contained in set B.

Two athlete sets are weakly related (A ~ B) when I(A, B) >= mu, and
strongly related (A ≈ B) when the weak relation holds both ways.  The
threshold mu lives in (1/2, 1], which makes the weak relation "most of
A is inside B": since groups at one control point are disjoint, a set
can be weakly related to at most one of them.

All threshold comparisons are exact: mu is kept as an integer ratio
p/q and every test is the cross-multiplied integer comparison
q*|A ∩ B| >= p*|A|.  No floats are involved, so boundary cases (a
ratio equal to exactly mu, or exactly 1/2) are deterministic on every
platform.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import AbstractSet, NamedTuple


class Event(NamedTuple):
    """One athlete crossing one control point."""

    athlete: int
    cp: int
    time: int


def parse_ratio(text: str) -> Fraction:
    """Parse "p/q" or a decimal string ("0.7") into an exact ratio."""
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse a ratio from {text!r}") from exc


def _integer(name: str, value) -> None:
    """Refuse a field that is not an int (a bool is not one), so no
    float reaches a threshold test."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")


class _Frozen:
    """Base of the immutable value classes: a subclass names its fields
    in ``_fields``, keeps them in ``__slots__`` and sets them once, in
    ``__init__``, through ``_set``.  Equality, hash and repr go over the
    fields as a frozen dataclass's do (a field named with a leading
    underscore stays out of the repr); assigning or deleting any
    attribute raises AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_"
        )
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Mu(_Frozen):
    """Relation threshold as an exact ratio num/den with 1/2 < mu <= 1."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int) -> None:
        _integer("num", num)
        _integer("den", den)
        self._set(num, den)
        if self.den <= 0 or self.num <= 0:
            raise ValueError(f"mu must be a positive ratio, got {self.num}/{self.den}")
        if 2 * self.num <= self.den:
            raise ValueError(f"mu must be > 1/2, got {self.num}/{self.den}")
        if self.num > self.den:
            raise ValueError(f"mu must be <= 1, got {self.num}/{self.den}")
        g = math.gcd(self.num, self.den)
        if g > 1:
            object.__setattr__(self, "num", self.num // g)
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def parse(cls, text: str) -> "Mu":
        """Parse "p/q" or a decimal string ("0.7") into an exact Mu."""
        frac = parse_ratio(text)
        return cls(frac.numerator, frac.denominator)

    def covers(self, part: int, whole: int) -> bool:
        """True iff part/whole >= mu, by integer cross-multiplication."""
        return self.den * part >= self.num * whole

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


class Params(_Frozen):
    """The three knobs of the whole analysis.

    epsilon: maximum time gap (ms) for two crossings to be directly
        connected at a control point.
    m: minimum number of athletes for a component to count as a group.
    mu: weak-relation threshold.
    """

    __slots__ = _fields = ("epsilon", "m", "mu")

    def __init__(self, epsilon: int, m: int, mu: Mu) -> None:
        _integer("epsilon", epsilon)
        _integer("m", m)
        if not isinstance(mu, Mu):
            raise TypeError(f"mu must be a Mu, got {mu!r}")
        self._set(epsilon, m, mu)
        if self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0 ms, got {self.epsilon}")
        if self.m < 1:
            raise ValueError(f"minimum group size must be >= 1, got {self.m}")


# Defaults used by the CLI: epsilon of 2 seconds is where pattern
# diversity tends to peak on real marathon data, m=7 matches the
# synthetic benchmarks, mu=7/10 is a sensible "most of the group".
DEFAULT_EPSILON_MS = 2000
DEFAULT_MIN_GROUP = 7
DEFAULT_MU = Mu(7, 10)


def inclusion(a: AbstractSet[int], b: AbstractSet[int]) -> tuple[int, int]:
    """Inclusion coefficient I(a, b) as the exact pair (|a ∩ b|, |a|)."""
    if not a:
        raise ValueError("inclusion coefficient is undefined for an empty first set")
    return len(a & b), len(a)


def weakly_related(a: AbstractSet[int], b: AbstractSet[int], mu: Mu) -> bool:
    """a ~ b: at least a mu-fraction of a is inside b."""
    part, whole = inclusion(a, b)
    return mu.covers(part, whole)


def strongly_related(a: AbstractSet[int], b: AbstractSet[int], mu: Mu) -> bool:
    """a ≈ b: weakly related in both directions."""
    if not b:
        raise ValueError("inclusion coefficient is undefined for an empty set")
    return weakly_related(a, b, mu) and weakly_related(b, a, mu)
