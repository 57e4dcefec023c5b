"""Transition graphs and the combinatorics of chains.

The transition graph of a system at an entourage D has an edge x -> y
exactly when the exact image f(x) is D-close to grid point y, so directed
paths of length n are precisely the (D, f)-chains of length n.  On top of
that graph this module computes chain recurrence (vertices on cycles),
chain transitivity (strong connectivity), the component period (gcd of
cycle lengths, via BFS level labeling), the cyclic class partition, chain
mixing (transitive + period 1), the chain diameter, and coprime cycle
pairs.

Graphs of iterated maps are built from exact n-fold images, never by
composing the one-step graph: graph composition would compound the
discretization error and describes a different object (chains with
intermediate snapping).  :func:`power_graph` provides the combinatorial
walk-power for abstract digraph work where no underlying map exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from . import _parallel
from .errors import (
    IncompatibleSpaceError,
    InvalidParameterError,
    NoCoprimeCyclesError,
    NoCycleError,
    OutOfRangeError,
    UndefinedDiameterError,
)
from .systems import SystemSpec, step
from .uniform import COMPARISON_SLACK, Entourage

__all__ = [
    "TransitionGraph",
    "ChainAnalysis",
    "build_transition_graph",
    "image_successors",
    "strongly_connected_components",
    "chain_recurrent_set",
    "is_chain_transitive",
    "graph_period",
    "cyclic_classes",
    "is_chain_mixing",
    "is_totally_chain_transitive",
    "chain_diameter",
    "find_coprime_cycles",
    "closed_walk_lengths",
    "power_graph",
    "graph_from_edges",
]


@dataclass(frozen=True)
class TransitionGraph:
    """Directed graph over point indices; paths are D-chains."""

    n: int
    succ: tuple[tuple[int, ...], ...]
    source: tuple[str, str] = ("", "")

    def edges(self) -> Iterable[tuple[int, int]]:
        for x, row in enumerate(self.succ):
            for y in row:
                yield (x, y)

    def edge_count(self) -> int:
        return sum(len(row) for row in self.succ)

    def has_edge(self, x: int, y: int) -> bool:
        return y in self.succ[x]


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], source=("", "")) -> TransitionGraph:
    """Convenience constructor for explicitly listed digraphs."""
    rows: list[set[int]] = [set() for _ in range(n)]
    for x, y in edges:
        if not (0 <= x < n and 0 <= y < n):
            raise OutOfRangeError(f"edge ({x}, {y}) references an invalid vertex")
        rows[x].add(y)
    return TransitionGraph(n, tuple(tuple(sorted(r)) for r in rows), tuple(source))


def image_successors(d: Entourage, image: Sequence[float]) -> tuple[int, ...]:
    """Grid indices D-reachable from an exact image point.

    Metric entourages use the ball of radius ``d.scale`` around the image
    (with the on-grid fast path reusing the precomputed relation row);
    explicit relations snap the image to its nearest grid point and use
    literal pair membership.
    """
    space = d.space
    idx = space.nearest_index(image)
    # the on-grid fast path is not redundant for metric entourages: a ball of
    # width >= 1/2 on the circle is a full scan
    if d.scale is None or space.distance(image, space.points[idx]) <= COMPARISON_SLACK:
        return tuple(sorted(d.rows[idx]))
    return tuple(space.indices_within(image, d.scale))


def build_transition_graph(system: SystemSpec, d: Entourage) -> TransitionGraph:
    """Transition graph with edge x -> y iff (f(x), y) is in D.

    Images are exact; the system of an iterate f^k uses k-fold images.
    """
    if d.space != system.space:
        raise IncompatibleSpaceError("entourage is over a different space")
    space = system.space

    def row(x: int) -> tuple[int, ...]:
        return image_successors(d, step(system, space.points[x]))

    rows = _parallel.ordered_map(row, range(space.n))
    label = d.label if system.power == 1 else f"{d.label}|f^{system.power}"
    return TransitionGraph(space.n, tuple(rows), (system.name, label))


# ---------------------------------------------------------------------------
# strong connectivity


def strongly_connected_components(g: TransitionGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components sorted by smallest member."""
    n = g.n
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            row = g.succ[v]
            for i in range(pi, len(row)):
                w = row[i]
                if index[w] == -1:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    comps.sort(key=lambda c: c[0])
    return comps


def chain_recurrent_set(g: TransitionGraph) -> frozenset[int]:
    """Vertices lying on a directed cycle of length >= 1 (self-loops count)."""
    return ChainAnalysis.from_graph(g).recurrent


def is_chain_transitive(g: TransitionGraph) -> bool:
    """True iff every ordered pair is joined by a path of length >= 1.

    Equivalent to a single strongly connected component containing at
    least one edge (a single vertex needs a self-loop).
    """
    return ChainAnalysis.from_graph(g).transitive


def _bfs_levels(g: TransitionGraph, root: int, members: set[int]) -> dict[int, int]:
    levels = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.succ[u]:
                if v in members and v not in levels:
                    levels[v] = levels[u] + 1
                    nxt.append(v)
        frontier = nxt
    return levels


def _per_component(values: tuple, component: int):
    if not 0 <= component < len(values):
        raise OutOfRangeError(f"no component labeled {component}")
    return values[component]


def graph_period(g: TransitionGraph, component: int) -> int:
    """gcd of the lengths of all cycles through the component's vertices.

    Returns 0 when the component has no internal edge (a cycle-free
    singleton).  See :meth:`ChainAnalysis.from_graph`.
    """
    return _per_component(ChainAnalysis.from_graph(g).periods, component)


def cyclic_classes(g: TransitionGraph, component: int) -> tuple[tuple[int, ...], ...]:
    """The period-many cyclic classes of a strongly connected component.

    Two vertices share a class iff every path between them has length
    divisible by the period; edges advance classes cyclically.  Class 0 is
    anchored at the smallest vertex index of the component.
    """
    classes = _per_component(ChainAnalysis.from_graph(g).classes, component)
    if classes is None:
        raise NoCycleError("component has no cycle; classes are undefined")
    return classes


def is_chain_mixing(g: TransitionGraph) -> bool:
    """Chain transitive with period 1: chains of every large length exist.

    On a finite strongly connected graph, period 1 is equivalent to the
    definition with chains of every sufficiently large length between
    every pair; the test suite cross-validates this against a dynamic
    program over (vertex, length) up to the Frobenius-derived bound.
    """
    analysis = ChainAnalysis.from_graph(g)
    return analysis.transitive and analysis.periods[0] == 1


def is_totally_chain_transitive(
    system: SystemSpec, d: Entourage, n_max: int
) -> bool:
    """Chain transitivity of the graphs of f, f^2, ..., f^n_max.

    A bounded certificate for the unbounded definition: each iterate's
    graph is built from exact n-fold images.  On compact finite models the
    chain-mixing check certifies the full statement; both are computed and
    compared by the test suite.
    """
    if n_max < 1:
        raise InvalidParameterError("n_max must be >= 1")
    return all(
        is_chain_transitive(build_transition_graph(replace(system, power=k * system.power), d))
        for k in range(1, n_max + 1)
    )


def chain_diameter(g: TransitionGraph) -> int:
    """Max over ordered pairs of the shortest path length (>= 1).

    For a pair (x, x) the length of the shortest cycle through x is used.
    Defined only for chain transitive graphs.

    A bit-parallel BFS: ``reach[v]`` holds the sources with a walk of
    length 1..rounds ending at v; the diameter is the first round that
    fills every mask.
    """
    preds: list[list[int]] = [[] for _ in range(g.n)]
    reach = [0] * g.n
    for u, row in enumerate(g.succ):
        for v in row:
            preds[v].append(u)
            reach[v] |= 1 << u
    full = (1 << g.n) - 1
    rounds = 1
    # an empty graph (n = 0) enters once, meets its fixed point and raises
    while not reach or any(r != full for r in reach):
        nxt = []
        for r, p in zip(reach, preds):
            for u in p:
                r |= reach[u]
            nxt.append(r)
        if nxt == reach:
            raise UndefinedDiameterError("diameter is undefined: graph is not chain transitive")
        reach = nxt
        rounds += 1
    return rounds


def _successor_masks(g: TransitionGraph) -> list[int]:
    masks = [0] * g.n
    for v, row in enumerate(g.succ):
        for w in row:
            masks[v] |= 1 << w
    return masks


def _walk_step(masks: list[int], reach: int) -> int:
    """The vertex set one edge after ``reach``, both as bit masks."""
    nxt = 0
    v = 0
    while reach:
        if reach & 1:
            nxt |= masks[v]
        reach >>= 1
        v += 1
    return nxt


def closed_walk_lengths(g: TransitionGraph, x: int, max_length: int) -> list[int]:
    """Lengths ell <= max_length admitting a closed walk (chain) x -> x."""
    if not 0 <= x < g.n:
        raise OutOfRangeError(f"vertex {x} out of range")
    masks = _successor_masks(g)
    lengths = []
    reach = 1 << x
    xbit = 1 << x
    for ell in range(1, max_length + 1):
        reach = _walk_step(masks, reach)
        if reach & xbit:
            lengths.append(ell)
        if not reach:
            break
    return lengths


def find_coprime_cycles(g: TransitionGraph, x: int) -> tuple[int, int]:
    """Two cycle lengths through x with gcd 1.

    Enumerates closed-walk lengths through x in increasing order and
    returns the first coprime pair.  Guaranteed to exist when the graph is
    strongly connected with period 1; otherwise raises
    :class:`NoCoprimeCyclesError`.
    """
    if not 0 <= x < g.n:
        raise OutOfRangeError(f"vertex {x} out of range")
    if not is_chain_mixing(g):
        raise NoCoprimeCyclesError("graph is not strongly connected with period 1")
    # Period 1 implies consecutive walk lengths appear within the Wielandt
    # bound, so the cap below always suffices.
    cap = (g.n - 1) ** 2 + g.n + 2
    lengths = closed_walk_lengths(g, x, cap)
    for j, b in enumerate(lengths):
        for a in lengths[:j]:
            if math.gcd(a, b) == 1:
                return (a, b)
    raise NoCoprimeCyclesError("no coprime cycle pair found within the search cap")


def power_graph(g: TransitionGraph, k: int) -> TransitionGraph:
    """Edges u -> v iff there is a walk of length exactly k in g.

    This is the combinatorial walk-power used for abstract digraphs; it is
    not the transition graph of an iterated map, which must be built from
    exact images (see :func:`build_transition_graph`).
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    masks = _successor_masks(g)
    reach = list(masks)
    for _ in range(k - 1):
        reach = [_walk_step(masks, r) for r in reach]
    rows = []
    for r in reach:
        row = []
        v = 0
        while r:
            if r & 1:
                row.append(v)
            r >>= 1
            v += 1
        rows.append(tuple(row))
    return TransitionGraph(g.n, tuple(rows), (g.source[0], f"{g.source[1]}^walk{k}"))


@dataclass(frozen=True)
class ChainAnalysis:
    """Bundle of the per-graph chain invariants, one entry per component.

    ``classes[c]`` is None when component c has no cycle (period 0).
    """

    components: tuple[tuple[int, ...], ...]
    is_strongly_connected: bool
    periods: tuple[int, ...]
    classes: tuple[tuple[tuple[int, ...], ...] | None, ...]

    @property
    def transitive(self) -> bool:
        """One component, and it carries a cycle."""
        return self.is_strongly_connected and self.periods[0] >= 1

    @property
    def recurrent(self) -> frozenset[int]:
        """The union of the components that carry a cycle."""
        return frozenset(
            v for comp, p in zip(self.components, self.periods) if p >= 1 for v in comp
        )

    @classmethod
    def from_graph(cls, g: TransitionGraph) -> "ChainAnalysis":
        """One Tarjan pass, then one BFS-level pass per component.

        A component's period is the gcd of ``level(u) + 1 - level(v)`` over
        its internal edges u -> v, for BFS levels from its smallest vertex;
        this equals the gcd of its cycle lengths.  Class k holds the
        vertices whose level is k modulo the period.
        """
        comps = strongly_connected_components(g)
        periods: list[int] = []
        classes: list[tuple[tuple[int, ...], ...] | None] = []
        for comp in comps:
            members = set(comp)
            levels = _bfs_levels(g, comp[0], members)
            period = 0
            for u in comp:
                for v in g.succ[u]:
                    if v in members:
                        period = math.gcd(period, abs(levels[u] + 1 - levels[v]))
            periods.append(period)
            if period == 0:
                classes.append(None)
                continue
            buckets: list[list[int]] = [[] for _ in range(period)]
            for v in comp:
                buckets[levels[v] % period].append(v)
            classes.append(tuple(tuple(b) for b in buckets))
        return cls(
            components=tuple(tuple(c) for c in comps),
            is_strongly_connected=len(comps) == 1,
            periods=tuple(periods),
            classes=tuple(classes),
        )
