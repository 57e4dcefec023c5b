"""Numerical-semigroup arithmetic backing chain-length realizability.

Coprime cycle lengths generate every large enough integer.
:func:`representable` and :func:`frobenius_bound` both read one residue
table per generator set, built in at most ``min(g) * |g|`` steps from
generators capped at desk scale (<= 10^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import InvalidParameterError, NotCoprimeError, ResourceLimitError, check_count

MAX_GENERATOR = 10_000


@dataclass(frozen=True)
class GeneratorSet:
    """A non-empty set of positive integers, stored sorted and deduplicated."""

    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise InvalidParameterError("need at least one generator")
        for v in self.generators:
            check_count(v, "a generator")
        normalized = tuple(sorted(set(self.generators)))
        if normalized[-1] > MAX_GENERATOR:
            raise ResourceLimitError(f"generators are capped at {MAX_GENERATOR}")
        object.__setattr__(self, "generators", normalized)

    @classmethod
    def of(cls, values: Iterable[int]) -> "GeneratorSet":
        return cls(tuple(values))

    @property
    def smallest(self) -> int:
        return self.generators[0]

    @cached_property
    def residues(self) -> tuple[int | float, ...]:
        """Entry r: the least representable value congruent to r mod min(g), or ``math.inf``.

        Round robin (Böcker and Lipták, *A fast and simple algorithm for the
        money changing problem*, Algorithmica 2007): each further generator b
        walks the gcd(a, b) cycles of step b, each from its least entry.
        """
        a = self.smallest
        w: list[int | float] = [0] + [math.inf] * (a - 1)
        for b in self.generators[1:]:
            if w[b % a] <= b:
                continue  # b is already a combination of the others
            d = math.gcd(a, b)
            for p in range(d):
                value = min(w[p::d])
                if value < math.inf:
                    for _ in range(a // d - 1):
                        value += b
                        r = value % a
                        w[r] = value = min(value, w[r])
        return tuple(w)


def gcd_set(g: GeneratorSet) -> int:
    return math.gcd(*g.generators) if len(g.generators) > 1 else g.generators[0]


def representable(s: int, g: GeneratorSet) -> bool:
    """True when s is a non-negative integer combination of the generators."""
    if type(s) is not int:
        raise InvalidParameterError(f"s must be an integer, got {s!r}")
    return s >= 0 and s >= g.residues[s % g.smallest]


def frobenius_bound(g: GeneratorSet) -> int:
    """Least N such that every integer s >= N is representable: the Frobenius number + 1.

    The largest gap lies min(g) below the largest residue-table entry.
    Raises :class:`NotCoprimeError` when gcd > 1 (no such N exists).
    """
    if gcd_set(g) != 1:
        raise NotCoprimeError("generators must have gcd 1")
    return max(g.residues) - g.smallest + 1


def realizable_length_bound(cycle_lengths: GeneratorSet, diameter: int) -> int:
    """Threshold M + N beyond which chains of every length exist.

    ``N`` is the Frobenius bound of the cycle lengths through a point and
    ``M`` the chain diameter: any target length above M + N splits into a
    loop at the point (length >= N) plus a connecting chain (length <= M).
    """
    check_count(diameter, "diameter")
    return frobenius_bound(cycle_lengths) + diameter
