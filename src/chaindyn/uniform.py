"""Finite models of uniform spaces.

A compact uniform space is discretized into a :class:`FinitePhaseSpace`
(indexed sample points with a geometry-aware distance) and its uniformity
into :class:`Entourage` relations (reflexive, symmetric index relations)
organized in a :class:`UniformityBasis`.  The module provides the entourage
algebra (composition, powers, cross sections), axiom verification, and the
cover-refinement construction.

Design notes baked into this module:

* Metric entourages use the closed comparison ``dist(x, y) <= eps`` so grid
  neighbors at exactly ``eps`` stay related.  A fixed absolute slack of
  ``1e-12`` is applied to every such comparison because grid coordinates
  are rationals stored as binary floats; legitimate distances differ by at
  least half a grid step, so the slack can never flip a true inequality.
* Relations are stored per row (one index set per point), which makes
  composition and cross sections plain set operations.
* Circle distance is ``min(|a-b|, 1-|a-b|)`` per coordinate and product
  geometries take the coordinate-wise max, so an ``eps``-relation composed
  with itself stays inside the ``2*eps``-relation.
* On a finite Hausdorff model the discrete uniformity is reached, so every
  basis bottoms out at the diagonal-only relation (the "floor").

There is no finite analogue of non-uniform entourage scales such as
``{(x, y) : |x - y| < exp(-x^2)}`` on an unbounded space; all metric levels
here have one global scale.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .errors import (
    IncompatibleSpaceError,
    InvalidCoverError,
    InvalidParameterError,
    OutOfRangeError,
    ResourceLimitError,
)

#: Absolute slack on closed distance comparisons (see module docstring).
COMPARISON_SLACK = 1e-12

#: Desk-scale cap on the size of a generated phase space.
MAX_POINTS = 2 ** 16


class Geometry(Enum):
    """Distance predicate attached to a phase space."""

    INTERVAL = "interval"
    CIRCLE = "circle"
    PRODUCT_OF_CIRCLES = "product-of-circles"
    DISCRETE = "discrete"

    @property
    def wraps(self) -> bool:
        return self in (Geometry.CIRCLE, Geometry.PRODUCT_OF_CIRCLES)


@dataclass(frozen=True)
class FinitePhaseSpace:
    """A discretized compact phase space: indexed sample points in [0,1]^d.

    Attributes
    ----------
    points:
        Ordered coordinate vectors; the position in this tuple is the
        point's index.
    geometry:
        Controls the distance predicate (circle coordinates wrap mod 1).
    resolution:
        Grid spacing ``h`` of the sample grid.
    gap:
        Minimum pairwise separation recorded for discrete-geometry spaces.
        Entourages with scale below the gap are diagonal-only, which is
        what certifies "totally disconnected at scale" for such models.
    """

    points: tuple[tuple[float, ...], ...]
    geometry: Geometry
    resolution: float
    gap: float | None = None
    #: Coordinates the point lookups bisect; None unless 1-D and well sorted.
    _sorted: tuple[float, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise InvalidParameterError("a phase space needs at least one point")
        if self.resolution <= 0:
            raise InvalidParameterError("resolution must be positive")
        dim = len(self.points[0])
        if dim < 1:
            raise InvalidParameterError("points must have dimension >= 1")
        for p in self.points:
            if len(p) != dim:
                raise InvalidParameterError("all points must share one dimension")
            for c in p:
                if not 0.0 <= c <= 1.0:
                    raise InvalidParameterError("coordinates must lie in [0, 1]")
        if self.geometry in (Geometry.INTERVAL, Geometry.CIRCLE):
            for a, b in zip(self.points, self.points[1:]):
                if self.distance(a, b) > 2 * self.resolution + COMPARISON_SLACK:
                    raise InvalidParameterError(
                        "consecutive sample points must be within 2h"
                    )
        xs = tuple(p[0] for p in self.points) if dim == 1 else ()
        if any(b - a <= 1e3 * COMPARISON_SLACK for a, b in zip(xs, xs[1:])):
            xs = ()
        object.__setattr__(self, "_sorted", xs or None)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        """Sup-metric distance between two coordinate vectors."""
        if self.geometry.wraps:
            best = 0.0
            for x, y in zip(a, b):
                d = abs(x - y)
                d = min(d, 1.0 - d)
                if d > best:
                    best = d
            return best
        best = 0.0
        for x, y in zip(a, b):
            d = abs(x - y)
            if d > best:
                best = d
        return best

    def nearest_index(self, coords: Sequence[float]) -> int:
        """Index of the grid point closest to ``coords``; ties take the smaller index.

        In index order, a later point replaces the choice only when it is
        closer by more than the slack.  On a sorted space the distances fall
        toward ``coords`` and then rise (on the circle they fall again toward
        the end), so the rule needs only the bisection neighbours and the ends.
        """
        xs, n = self._sorted, self.n
        candidates: Iterable[int] = range(n)
        if xs is not None:
            k = bisect_left(xs, coords[0])
            candidates = sorted({0, max(k - 1, 0), min(k, n - 1), n - 1})
        best_i, best_d = 0, math.inf
        for i in candidates:
            d = self.distance(coords, self.points[i])
            if d < best_d - COMPARISON_SLACK:
                best_i, best_d = i, d
        return best_i

    def indices_within(self, coords: Sequence[float], radius: float) -> list[int]:
        """All grid indices within ``radius`` of ``coords`` (closed, ascending).

        A sorted space tests only a slightly wider coordinate window, and on
        the circle its shifts by +-1 (disjoint from it below width 1/2).
        """
        bound = radius + COMPARISON_SLACK
        xs, width = self._sorted, bound + COMPARISON_SLACK
        if xs is None or (self.geometry.wraps and width >= 0.5):
            window: Iterable[int] = range(self.n)
        else:
            c = coords[0]
            shifts = (-1.0, 0.0, 1.0) if self.geometry.wraps else (0.0,)
            window = [i for s in shifts for i in range(
                bisect_left(xs, c + s - width), bisect_right(xs, c + s + width))]
        return [i for i in window if self.distance(coords, self.points[i]) <= bound]


def _check_grid_size(n: int) -> None:
    """Reject a grid size below 1 or past the cap before any point is built."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n > MAX_POINTS:
        raise ResourceLimitError(f"{n} points exceed the cap of {MAX_POINTS}")


def interval_grid(n: int) -> FinitePhaseSpace:
    """Uniform n-point grid on [0, 1] with spacing h = 1/(n-1)."""
    _check_grid_size(n)
    if n == 1:
        return FinitePhaseSpace(((0.0,),), Geometry.INTERVAL, 1.0)
    pts = tuple((k / (n - 1),) for k in range(n))
    return FinitePhaseSpace(pts, Geometry.INTERVAL, 1.0 / (n - 1))


def circle_grid(n: int) -> FinitePhaseSpace:
    """Uniform n-point grid on the circle with spacing h = 1/n."""
    _check_grid_size(n)
    pts = tuple((k / n,) for k in range(n))
    return FinitePhaseSpace(pts, Geometry.CIRCLE, 1.0 / n)


def discrete_grid(n: int) -> FinitePhaseSpace:
    """n isolated points embedded uniformly in [0, 1] (gap recorded)."""
    _check_grid_size(n)
    if n == 1:
        return FinitePhaseSpace(((0.0,),), Geometry.DISCRETE, 1.0, gap=1.0)
    h = 1.0 / (n - 1)
    pts = tuple((k * h,) for k in range(n))
    return FinitePhaseSpace(pts, Geometry.DISCRETE, h, gap=h)


@dataclass(frozen=True)
class Entourage:
    """A relation on point indices, stored as one successor set per row.

    ``rows[i]`` holds every ``j`` with ``(i, j)`` in the relation.  A metric
    entourage additionally records the ``scale`` (the epsilon that generated
    it); explicitly listed relations keep ``scale=None`` and are used by
    literal pair membership.
    """

    space: FinitePhaseSpace
    rows: tuple[frozenset[int], ...]
    label: str
    scale: float | None = None

    @classmethod
    def from_pairs(
        cls,
        space: FinitePhaseSpace,
        pairs: Iterable[tuple[int, int]],
        label: str,
        scale: float | None = None,
        close: bool = True,
    ) -> "Entourage":
        """Build a relation from ordered pairs.

        With ``close=True`` (the default) the diagonal is added and the
        relation is symmetrized, which enforces axioms U2/U3 at insertion.
        ``close=False`` stores the pairs verbatim, which is how axiom
        violations are constructed for testing.
        """
        n = space.n
        rows: list[set[int]] = [set() for _ in range(n)]
        for x, y in pairs:
            if not (0 <= x < n and 0 <= y < n):
                raise OutOfRangeError(f"pair ({x}, {y}) references an invalid index")
            rows[x].add(y)
            if close:
                rows[y].add(x)
        if close:
            for i in range(n):
                rows[i].add(i)
        return cls(space, tuple(frozenset(r) for r in rows), label, scale)

    @property
    def n(self) -> int:
        return self.space.n

    def contains(self, x: int, y: int) -> bool:
        return y in self.rows[x]

    def pairs(self) -> Iterable[tuple[int, int]]:
        for x, row in enumerate(self.rows):
            for y in sorted(row):
                yield (x, y)

    def pair_count(self) -> int:
        return sum(len(row) for row in self.rows)

    def has_diagonal(self) -> bool:
        return all(i in row for i, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return all(x in self.rows[y] for x, row in enumerate(self.rows) for y in row)

    def is_diagonal_only(self) -> bool:
        return all(row == frozenset((i,)) for i, row in enumerate(self.rows))

    def is_subset(self, other: "Entourage") -> bool:
        return all(a <= b for a, b in zip(self.rows, other.rows))

    def square_is_subset(self, other: "Entourage") -> bool:
        """Whether self o self lies inside ``other``, without building the composite.

        Row x of the composite is the union of the rows z in self[x], so the
        test is self[z] inside other[x] for every such z; it stops at the first miss.
        """
        rows = self.rows
        return all(rows[z] <= ox for sx, ox in zip(rows, other.rows) for z in sx)


def make_epsilon_entourage(space: FinitePhaseSpace, epsilon: float) -> Entourage:
    """The metric entourage {(x, y) : dist(x, y) <= epsilon}.

    Reflexive and symmetric by construction.  Raises
    :class:`InvalidParameterError` for non-positive ``epsilon``.
    """
    if epsilon <= 0:
        raise InvalidParameterError("epsilon must be positive")
    rows = tuple(
        frozenset(space.indices_within(p, epsilon)) for p in space.points
    )
    return Entourage(space, rows, f"eps={epsilon:g}", float(epsilon))


def diagonal_entourage(space: FinitePhaseSpace) -> Entourage:
    """The diagonal-only relation, the uniformity floor of the finite model."""
    rows = tuple(frozenset((i,)) for i in range(space.n))
    return Entourage(space, rows, "diag", 0.0)


def compose(e1: Entourage, e2: Entourage) -> Entourage:
    """Relation composition: pairs (x, y) with a z such that (x,z) in e1, (z,y) in e2.

    Both inputs contain the diagonal, so the result retains it.  The result
    is an explicit relation (``scale=None``): a composite is not a metric
    ball in general.
    """
    if e1.space != e2.space:
        raise IncompatibleSpaceError("cannot compose entourages over different spaces")
    rows = []
    for row in e1.rows:
        out: set[int] = set()
        for z in row:
            out |= e2.rows[z]
        rows.append(frozenset(out))
    return Entourage(e1.space, tuple(rows), f"({e1.label}*{e2.label})", None)


def power(e: Entourage, n: int) -> Entourage:
    """n-fold composition E^n; power(e, 1) is e itself."""
    if n < 1:
        raise InvalidParameterError("power requires n >= 1")
    if n == 1:
        return e
    result = e
    for _ in range(n - 1):
        result = compose(result, e)
    return Entourage(result.space, result.rows, f"{e.label}^{n}", None)


def cross_section(e: Entourage, x: int) -> frozenset[int]:
    """E[x]: the set of indices related to x.  Contains x for any honest entourage."""
    if not 0 <= x < e.n:
        raise OutOfRangeError(f"index {x} out of range for {e.n} points")
    return e.rows[x]


@dataclass(frozen=True)
class UniformityBasis:
    """Finite descending chain of entourages, ending at the diagonal floor.

    Construction only checks that all levels share one space; the
    structural invariants (nesting, floor) are checked by
    :func:`verify_uniformity_axioms` so violating bases can be built and
    flagged rather than rejected.
    """

    levels: tuple[Entourage, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise InvalidParameterError("a basis needs at least one level")
        space = self.levels[0].space
        for lvl in self.levels:
            if lvl.space != space:
                raise IncompatibleSpaceError("all basis levels must share one space")

    @property
    def space(self) -> FinitePhaseSpace:
        return self.levels[0].space

    @property
    def floor(self) -> Entourage:
        return self.levels[-1]

    def by_label(self, label: str) -> Entourage:
        for lvl in self.levels:
            if lvl.label == label:
                return lvl
        raise OutOfRangeError(f"no basis level labeled {label!r}")


def dyadic_basis(space: FinitePhaseSpace, levels: int) -> UniformityBasis:
    """Metric basis with scales 2^0, 2^-1, ..., 2^-(levels-1) plus the diagonal floor."""
    if levels < 1:
        raise InvalidParameterError("levels must be >= 1")
    ents = [make_epsilon_entourage(space, 2.0 ** (-k)) for k in range(levels)]
    ents.append(diagonal_entourage(space))
    return UniformityBasis(tuple(ents))


@dataclass(frozen=True)
class LevelAxiomReport:
    label: str
    diagonal_ok: bool
    symmetric_ok: bool
    half_witness: str | None
    nested_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.diagonal_ok
            and self.symmetric_ok
            and self.half_witness is not None
            and self.nested_ok
        )


@dataclass(frozen=True)
class AxiomReport:
    levels: tuple[LevelAxiomReport, ...]
    floor_is_diagonal: bool

    @property
    def all_ok(self) -> bool:
        return self.floor_is_diagonal and all(lvl.all_ok for lvl in self.levels)


def verify_uniformity_axioms(basis: UniformityBasis) -> AxiomReport:
    """Check U2 (diagonal), U3 (symmetry), U4 (half-scale witness) per level.

    For U4 every basis level is tried as the witness, so a level E passes
    when some level D in the basis satisfies D o D inside E (the diagonal
    floor always witnesses itself).  Filter-base nesting is reported as
    ``nested_ok`` per level.  Failures are reported, never raised.
    """
    reports = []
    for i, lvl in enumerate(basis.levels):
        witness = None
        for cand in basis.levels:
            if cand.square_is_subset(lvl):
                witness = cand.label
                break
        if i + 1 < len(basis.levels):
            nested = basis.levels[i + 1].is_subset(lvl)
        else:
            nested = True
        reports.append(
            LevelAxiomReport(
                label=lvl.label,
                diagonal_ok=lvl.has_diagonal(),
                symmetric_ok=lvl.is_symmetric(),
                half_witness=witness,
                nested_ok=nested,
            )
        )
    return AxiomReport(tuple(reports), basis.floor.is_diagonal_only())


def refining_entourage(
    basis: UniformityBasis, cover: Sequence[Iterable[int]]
) -> Entourage:
    """Coarsest basis level D whose cross sections refine the cover.

    Returns the first level (coarse to fine) such that every D[x] is
    contained in some cover member.  Raises :class:`InvalidCoverError`
    when the cover does not cover the space.
    """
    n = basis.space.n
    members = [frozenset(m) for m in cover]
    covered: set[int] = set()
    for m in members:
        for i in m:
            if not 0 <= i < n:
                raise OutOfRangeError(f"cover references invalid index {i}")
        covered |= m
    if covered != set(range(n)):
        raise InvalidCoverError("cover does not cover the space")
    for lvl in basis.levels:
        if all(any(row <= m for m in members) for row in lvl.rows):
            return lvl
    raise InvalidCoverError("no basis level refines the cover (missing diagonal floor?)")
