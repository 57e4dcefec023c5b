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
* A relation is stored in one of two ways.  An explicit relation keeps one
  index set per row, which makes composition and cross sections plain set
  operations.  A metric entourage on a space with sorted 1-D coordinates
  reads one index run ``(lo, hi)`` per row instead, since a ball there is a
  run of consecutive indices: ``0 <= lo < n`` and ``lo <= hi <= lo + n - 1``,
  and ``hi >= n`` means the run wraps past n - 1 to 0 on the circle.  Both are
  derived from the space and scale on first use.  U2 and U3 hold for a metric
  ball by construction.  On an evenly spaced grid (``_even_grid``) the rest of
  the axiom check reads the half-width k alone (``_half_width``), in O(1).
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
from functools import cached_property
from itertools import compress
from typing import Collection, Iterable, Sequence

from .errors import (
    IncompatibleSpaceError,
    InvalidCoverError,
    InvalidParameterError,
    OutOfRangeError,
    ResourceLimitError,
    check_count,
)

#: Absolute slack on closed distance comparisons (see module docstring).
COMPARISON_SLACK = 1e-12

#: Desk-scale cap on the size of a generated phase space.
MAX_POINTS = 2 ** 16

#: Cap on each count of work a request may ask for (see ``cli.main``) and on
#: the pairs scanned for the separation of a circle or product ``points:`` list.
MAX_ORBIT_CELLS = 2 ** 23


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
    #: Coordinates the point lookups bisect; None unless 1-D, ascending and free of repeats.
    _sorted: tuple[float, ...] | None = field(init=False, compare=False, repr=False)
    #: ``geometry.wraps``, read once.
    _wraps: bool = field(init=False, compare=False, repr=False)
    #: Steps of an evenly spaced grid, whose points are k / steps (``_even_grid``); else None.
    _steps: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_wraps", self.geometry.wraps)
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
        # a repeated point leaves the lookups to the scan; on the circle the last
        # point also neighbours the first, one turn on, so 0.0 and 1.0 repeat
        nexts = (*xs[1:], xs[0] + 1.0) if xs and self._wraps else xs[1:]
        if any(b - a <= 1e3 * COMPARISON_SLACK for a, b in zip(xs, nexts)):
            xs = ()
        object.__setattr__(self, "_sorted", xs or None)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        return len(self.points[0])

    def check_indices(self, indices: Collection[int], what: str) -> None:
        """Raise :class:`OutOfRangeError` unless every one of ``indices`` lies in 0..n - 1.

        The one grid-index check of the package; it only validates, so
        callers keep their own order and repeats.
        """
        n = self.n
        for i in indices:
            if not 0 <= i < n:
                raise OutOfRangeError(f"{what} holds index {i}, outside 0..{n - 1}")

    def check_same(self, other: FinitePhaseSpace, what: str) -> None:
        """Raise :class:`IncompatibleSpaceError` unless ``other`` is this space."""
        if other != self:
            raise IncompatibleSpaceError(f"{what} is over a different space")

    def distance(self, a: Sequence[float], b: Sequence[float]) -> float:
        """Sup-metric distance between two coordinate vectors."""
        best, wraps = 0.0, self._wraps
        for x, y in zip(a, b):
            d = abs(x - y)
            if wraps and d > 0.5:
                d = 1.0 - d
            if d > best:
                best = d
        return best

    def brackets(self, c: float) -> tuple[int, int, int, int]:
        """Index 0, the two bisection neighbours of coordinate c, and n - 1, ascending.

        Only for a sorted space.  Along it the distances to c fall and then
        rise (on the circle they fall again toward the end), so the point of
        an index interval nearest c is one of its ends or one of these.
        """
        xs = self._sorted
        last, k = len(xs) - 1, bisect_left(xs, c)
        return (0, k - 1 if k else 0, k if k <= last else last, last)

    def snap(self, coords: Sequence[float]) -> tuple[int, float]:
        """The grid point closest to ``coords`` and its distance; ties take the smaller index.

        In index order, a later point replaces the choice only when it is
        closer by more than the slack.  A sorted space applies the rule in
        :meth:`snap_value`; any other space scans every point.
        """
        if self._sorted is not None:
            return self.snap_value(coords[0])
        best_i, best_d = 0, math.inf
        for i, p in enumerate(self.points):
            d = self.distance(coords, p)
            if d < best_d - COMPARISON_SLACK:
                best_i, best_d = i, d
        return best_i, best_d

    def snap_value(self, c: float) -> tuple[int, float]:
        """:meth:`snap` of the one-coordinate point ``(c,)``, for a one-dimensional space.

        On a sorted space the rule needs only the :meth:`brackets` of c,
        visited in ascending order (a repeated candidate never wins twice);
        their 1-D distances are computed as ``distance`` does.
        """
        xs = self._sorted
        if xs is None:
            return self.snap((c,))
        best_i, best_d, wraps = 0, math.inf, self._wraps
        for i in self.brackets(c):
            d = abs(c - xs[i])
            if wraps and d > 0.5:
                d = 1.0 - d
            if d < best_d - COMPARISON_SLACK:
                best_i, best_d = i, d
        return best_i, best_d

    def nearest_index(self, coords: Sequence[float]) -> int:
        """Index of the grid point closest to ``coords`` (see :meth:`snap`)."""
        return self.snap(coords)[0]

    def indices_within(self, coords: Sequence[float], radius: float) -> list[int]:
        """All grid indices within ``radius`` of ``coords`` (closed, ascending)."""
        if self._sorted is None:
            bound = radius + COMPARISON_SLACK
            return [i for i, p in enumerate(self.points) if self.distance(coords, p) <= bound]
        arc = self.arc_within(coords, radius)
        return [] if arc is None else arc_indices(arc, self.n)

    def arc_within(self, coords: Sequence[float], radius: float) -> tuple[int, int] | None:
        """The grid indices within ``radius`` of ``coords`` as one index run.

        Only for a sorted space.  ``(lo, hi)``, with 0 <= lo < n and lo <= hi
        <= lo + n - 1, stands for the indices j mod n with lo <= j <= hi; an
        empty ball is None.  Along the indices the distances fall toward
        ``coords`` and then rise, so the ball is a slightly wider bisected
        window, trimmed at both ends by the closed predicate, shifted by whole
        turns and cut to n indices.  On the circle the window may run past
        either end of the list: index j then stands for point j mod n.
        """
        xs, n, wraps = self._sorted, self.n, self._wraps
        bound = radius + COMPARISON_SLACK
        if wraps and bound >= 0.5:
            return (0, n - 1)
        c, width = coords[0], bound + COMPARISON_SLACK
        lo = bisect_left(xs, c - width)
        hi = bisect_right(xs, c + width) - 1
        if wraps and c - width < 0.0:
            lo = bisect_left(xs, c - width + 1.0) - n
        if wraps and c + width > 1.0:
            hi = bisect_right(xs, c + width - 1.0) - 1 + n

        def far(j: int) -> bool:
            d = abs(c - xs[j % n])
            return (min(d, 1.0 - d) if wraps else d) > bound

        while lo <= hi and far(lo):
            lo += 1
        while lo <= hi and far(hi):
            hi -= 1
        if lo > hi:
            return None
        turn = lo - lo % n
        if hi - lo >= n:
            hi = lo + n - 1
        return (lo - turn, hi - turn)


def arc_indices(arc: tuple[int, int], n: int) -> list[int]:
    """The indices of an index run (see :meth:`FinitePhaseSpace.arc_within`), ascending."""
    lo, hi = arc
    return list(range(lo, hi + 1)) if hi < n else [*range(hi - n + 1), *range(lo, n)]


def run_mask(arc: tuple[int, int], n: int) -> int:
    """The indices of an index run as a bit mask: bit j is set for each index j.

    A run that wraps folds its bits from n on down to 0; one that does not
    is returned as it is, since building the n-bit fold mask costs more
    than the rest.
    """
    lo, hi = arc
    m = ((1 << (hi - lo + 1)) - 1) << lo
    return m if hi < n else (m | m >> n) & ((1 << n) - 1)


def mask_indices(mask: int) -> list[int]:
    """The set bits of a bit mask, ascending: the inverse of :func:`run_mask`."""
    # binary digits as the bytes 0 and 1, lowest bit first, for compress
    bits = f"{mask:b}".encode()[::-1].translate(bytes.maketrans(b"01", b"\0\1"))
    return list(compress(range(len(bits)), bits))


def arc_contains(arc: tuple[int, int], y: int, n: int) -> bool:
    lo, hi = arc
    return (y - lo) % n <= hi - lo


def _arc_subset(a: tuple[int, int], b: tuple[int, int], n: int) -> bool:
    """Whether run a lies inside run b; a may start anywhere and be longer than n."""
    (a1, a2), (b1, b2) = a, b
    return b2 - b1 >= n - 1 or (a1 - b1) % n + (a2 - a1) <= b2 - b1


def _check_grid_size(n: int) -> None:
    """Reject a grid size that is not an int >= 1, or past the cap, before any point is built."""
    check_count(n, "n")
    if n > MAX_POINTS:
        raise ResourceLimitError(f"{n} points exceed the cap of {MAX_POINTS}")


def _check_epsilon(epsilon: float) -> None:
    """Reject an entourage scale that is not positive and finite (NaN and None included)."""
    if epsilon is None or not 0 < epsilon < math.inf:
        raise InvalidParameterError(f"epsilon must be positive and finite, got {epsilon!r}")


def _even_grid(n: int, steps: int, geometry: Geometry) -> FinitePhaseSpace:
    """The n points k / steps, marked by ``_steps``; spacing (and a discrete gap) 1 / steps."""
    h = 1.0 / steps
    gap = h if geometry is Geometry.DISCRETE else None
    space = FinitePhaseSpace(tuple((k / steps,) for k in range(n)), geometry, h, gap)
    object.__setattr__(space, "_steps", steps)
    return space


def interval_grid(n: int) -> FinitePhaseSpace:
    """Uniform n-point grid on [0, 1] with spacing h = 1/(n-1)."""
    _check_grid_size(n)
    return _even_grid(n, max(n - 1, 1), Geometry.INTERVAL)


def circle_grid(n: int) -> FinitePhaseSpace:
    """Uniform n-point grid on the circle with spacing h = 1/n."""
    _check_grid_size(n)
    return _even_grid(n, n, Geometry.CIRCLE)


def discrete_grid(n: int) -> FinitePhaseSpace:
    """n isolated points embedded uniformly in [0, 1], as ``interval_grid`` (gap recorded)."""
    _check_grid_size(n)
    return _even_grid(n, max(n - 1, 1), Geometry.DISCRETE)


@dataclass(frozen=True)
class Entourage:
    """A relation on point indices; ``rows[i]`` holds every ``j`` with ``(i, j)`` in it.

    An entourage is a metric ball or an explicit relation, never both.  An
    explicit relation keeps its index sets in ``_rows`` and has no
    ``scale``.  A metric entourage {(x, y) : dist(x, y) <= scale} has
    ``_rows=None`` and derives the rest on first use: ``arcs``, each
    ball's run on a sorted space (see ``arc_within``), and ``half_width``,
    k of "index distance <= k" on a uniform grid and 0 at scale 0.  The
    relation queries read k, else the runs, when every entourage involved has them.
    """

    space: FinitePhaseSpace
    _rows: tuple[frozenset[int], ...] | None
    label: str
    scale: float | None = None

    def __post_init__(self) -> None:
        if self._rows is not None and self.scale is not None:
            raise InvalidParameterError("an explicit relation takes no scale")
        if self._rows is None and self.scale != 0:
            _check_epsilon(self.scale)

    @classmethod
    def from_pairs(cls, space: FinitePhaseSpace, pairs: Iterable[tuple[int, int]], label: str,
                   *, close: bool = True) -> "Entourage":
        """Build an explicit relation, which has no scale, from ordered pairs.

        With ``close=True`` (the default) the diagonal is added and the
        relation is symmetrized, which enforces axioms U2/U3 at insertion.
        ``close=False`` stores the pairs verbatim, which is how axiom
        violations are constructed for testing.  ``close`` is keyword-only,
        so a stale positional scale is a ``TypeError``, not a ``close`` flag.
        """
        n = space.n
        rows: list[set[int]] = [set() for _ in range(n)]
        for x, y in pairs:
            space.check_indices((x, y), "pair")
            rows[x].add(y)
            if close:
                rows[y].add(x)
        if close:
            for i in range(n):
                rows[i].add(i)
        return cls(space, tuple(frozenset(r) for r in rows), label)

    @cached_property
    def half_width(self) -> int | None:
        if self._rows is not None or self.space._sorted is None:
            return None
        return 0 if self.scale == 0 else _half_width(self.space, self.scale + COMPARISON_SLACK)

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...] | None:
        space = self.space
        if self._rows is not None or space._sorted is None:
            return None
        k, n = self.half_width, space.n
        if k is None:
            return tuple(space.arc_within(p, self.scale) for p in space.points)
        if not space._wraps:  # run i is (max(0, i - k), min(n - 1, i + k))
            return tuple(zip([*[0] * k, *range(n - k)], [*range(k, n), *[n - 1] * k]))
        if self.scale + COMPARISON_SLACK >= 0.5:
            return ((0, n - 1),) * n
        # run i is ((i - k) % n, (i - k) % n + 2k)
        return tuple((lo, lo + 2 * k) for lo in [*range(n - k, n), *range(n - k)])

    @cached_property
    def rows(self) -> tuple[frozenset[int], ...]:
        if self._rows is not None:
            return self._rows
        space, n = self.space, self.n
        if self.arcs is None:
            return tuple(frozenset(space.indices_within(p, self.scale)) for p in space.points)
        return tuple(frozenset(arc_indices(arc, n)) for arc in self.arcs)

    @property
    def n(self) -> int:
        return self.space.n

    def row(self, x: int) -> list[int]:
        """Row x in ascending order."""
        self.space.check_indices((x,), "entourage row")
        if self.arcs is not None:
            return arc_indices(self.arcs[x], self.n)
        return sorted(self.rows[x])

    def contains(self, x: int, y: int) -> bool:
        self.space.check_indices((x, y), "entourage pair")
        if self.arcs is not None:
            return arc_contains(self.arcs[x], y, self.n)
        return y in self.rows[x]

    def pair_count(self) -> int:
        if self.arcs is not None:
            return sum(hi - lo + 1 for lo, hi in self.arcs)
        return sum(len(row) for row in self.rows)

    def has_diagonal(self) -> bool:
        # U2 holds for a metric ball by construction: dist(x, x) = 0
        return self._rows is None or all(i in row for i, row in enumerate(self._rows))

    def is_symmetric(self) -> bool:
        # U3 likewise: dist(x, y) == dist(y, x) bit for bit, sorted space or not
        rows = self._rows
        return rows is None or all(x in rows[y] for x, row in enumerate(rows) for y in row)

    def is_diagonal_only(self) -> bool:
        if self.half_width is not None:  # a run of half-width k > 0 fails at index 0
            return self.half_width == 0
        if self.arcs is not None:
            return all(arc == (i, i) for i, arc in enumerate(self.arcs))
        return all(row == frozenset((i,)) for i, row in enumerate(self.rows))

    def is_subset(self, other: "Entourage") -> bool:
        self.space.check_same(other.space, "other entourage")
        if self.half_width is not None and other.half_width is not None:
            return self.half_width <= other.half_width  # a full other has the largest k
        if self.arcs is not None and other.arcs is not None:
            n = self.n
            return all(_arc_subset(a, b, n) for a, b in zip(self.arcs, other.arcs))
        return all(a <= b for a, b in zip(self.rows, other.rows))

    def square_is_subset(self, other: "Entourage") -> bool:
        """Whether self o self lies inside ``other``, without building the composite.

        Row x of the composite is the union of the rows z in self[x].  On a
        staircase (see ``_ends``) that union is one interval, from the low
        end of the row of self[x]'s low end to the high end of the row of
        its high end, and it is compared with other[x] in O(1).  Otherwise
        the test is self[z] inside other[x] for every such z; either way it
        stops at the first miss.  With half-widths the composite is 2k wide.
        """
        self.space.check_same(other.space, "other entourage")
        k, big_k = self.half_width, other.half_width
        if k is not None and big_k is not None:  # other holds 2k or is full
            return 2 * k <= big_k or big_k >= _half_width(self.space, 1.0)
        ends, n = self._ends, self.n
        if ends is None or other.arcs is None:
            rows = self.rows
            return all(rows[z] <= ox for sx, ox in zip(rows, other.rows) for z in sx)
        lows, highs = ends
        for (lo, hi), arc in zip(zip(lows, highs), other.arcs):
            union = (lows[lo % n] + n * (lo // n), highs[hi % n] + n * (hi // n))
            if not _arc_subset(union, arc, n):
                return False
        return True

    @cached_property
    def _ends(self) -> tuple[list[int], list[int]] | None:
        """Unrolled ends lows[x] <= x <= highs[x] of every row, if a staircase.

        Row x is lows[x]..highs[x] taken mod n, and row x + k*n is read as
        the same run shifted by k*n.  A stored run that starts past x is
        shifted back one turn.  The relation is a staircase when every row
        then holds its centre and neither end ever moves back as x goes once
        round, which metric balls on a sorted space satisfy.  Else None, and
        the queries that need it read ``rows``.
        """
        if self.arcs is None:
            return None
        n = self.n
        lows, highs = [0] * n, [0] * n
        for x, (lo, hi) in enumerate(self.arcs):
            if lo > x:
                lo, hi = lo - n, hi - n
            if hi < x:
                return None
            lows[x], highs[x] = lo, hi
        for ends in (lows, highs):
            if any(a > b for a, b in zip(ends, ends[1:] + [ends[0] + n])):
                return None
        return lows, highs


def make_epsilon_entourage(space: FinitePhaseSpace, epsilon: float) -> Entourage:
    """The metric entourage {(x, y) : dist(x, y) <= epsilon}; see :class:`Entourage`.

    Raises :class:`InvalidParameterError` unless ``0 < epsilon < inf`` (so also for NaN).
    """
    _check_epsilon(epsilon)
    return Entourage(space, None, f"eps={epsilon:g}", float(epsilon))


def _half_width(space: FinitePhaseSpace, bound: float) -> int | None:
    """k with dist(i, j) <= bound iff |i - j| <= k (circular on the circle), on a uniform grid.

    A computed distance lies within 5e-16 of |i - j| * h, so where t = bound / h is within
    1e-14 * (steps + t), 20 times that, of an integer, None leaves it to the per-point scan.
    A full ball off the circle is n - 1 wide, not steps: the odometer has steps = n.
    """
    steps, wraps = space._steps, space._wraps
    if steps is None:
        return None
    if bound >= (0.5 if wraps else 1.0):
        return steps // 2 if wraps else space.n - 1
    t = bound * steps
    return None if abs(round(t) - t) <= 1e-14 * (steps + t) else math.floor(t)


def diagonal_entourage(space: FinitePhaseSpace) -> Entourage:
    """The uniformity floor, the diagonal-only relation: a scale-0 ball if sorted, else rows."""
    rows = None if space._sorted is not None else tuple(frozenset((i,)) for i in range(space.n))
    return Entourage(space, rows, "diag", 0.0 if rows is None else None)


def compose(e1: Entourage, e2: Entourage) -> Entourage:
    """Relation composition: pairs (x, y) with a z such that (x,z) in e1, (z,y) in e2.

    Both inputs contain the diagonal, so the result retains it.  The result
    is an explicit relation (``scale=None``): a composite is not a metric
    ball in general.
    """
    e1.space.check_same(e2.space, "second entourage")
    rows = []
    for row in e1.rows:
        out: set[int] = set()
        for z in row:
            out |= e2.rows[z]
        rows.append(frozenset(out))
    return Entourage(e1.space, tuple(rows), f"({e1.label}*{e2.label})", None)


def power(e: Entourage, n: int) -> Entourage:
    """n-fold composition E^n; power(e, 1) is e itself."""
    check_count(n, "n")
    if n == 1:
        return e
    result = e
    for _ in range(n - 1):
        result = compose(result, e)
    return Entourage(result.space, result.rows, f"{e.label}^{n}", None)


def cross_section(e: Entourage, x: int) -> frozenset[int]:
    """E[x]: the set of indices related to x.  Contains x for any honest entourage."""
    return frozenset(e.row(x))


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
        for lvl in self.levels:
            self.space.check_same(lvl.space, "basis level")

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
    check_count(levels, "levels")
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
        basis.space.check_indices(m, "cover member")
        covered |= m
    if covered != set(range(n)):
        raise InvalidCoverError("cover does not cover the space")
    for lvl in basis.levels:
        if all(any(row <= m for m in members) for row in lvl.rows):
            return lvl
    raise InvalidCoverError("no basis level refines the cover (missing diagonal floor?)")
