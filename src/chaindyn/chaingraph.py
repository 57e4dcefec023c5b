"""Transition graphs and the combinatorics of chains.

The transition graph of a system at an entourage D has an edge x -> y
exactly when the exact image f(x) is D-close to grid point y, so directed
paths of length n are precisely the (D, f)-chains of length n.  On top of
that graph this module computes chain recurrence (vertices on cycles),
chain transitivity (strong connectivity, by a forward and a backward sweep
from vertex 0), the component period (gcd of cycle lengths, via BFS level
labeling), the cyclic class partition, chain mixing (transitive + period
1) and the chain diameter.  :class:`ChainAnalysis` computes components,
periods and classes in one Tarjan pass; the graphs of f^2, ..., f^n_max
behind total chain transitivity need only the sweeps.

Graphs of iterated maps are built from exact n-fold images, each table
stepped once from the (n-1)-fold one, never by composing the one-step
graph: graph composition would compound the discretization error and
describes a different object (chains with intermediate snapping).
:func:`power_graph` provides the combinatorial walk-power for abstract
digraph work where no underlying map exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from . import _parallel
from .errors import (
    NoCycleError,
    OutOfRangeError,
    UndefinedDiameterError,
    check_count,
)
from .systems import SystemSpec
from .uniform import Entourage, mask_indices


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
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise OutOfRangeError(f"edge ({x}, {y}) references an invalid vertex")
        return y in self.succ[x]


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]], source=("", "")) -> TransitionGraph:
    """Convenience constructor for explicitly listed digraphs."""
    check_count(n, "n", 0)
    rows: list[set[int]] = [set() for _ in range(n)]
    for x, y in edges:
        if not (0 <= x < n and 0 <= y < n):
            raise OutOfRangeError(f"edge ({x}, {y}) references an invalid vertex")
        rows[x].add(y)
    return TransitionGraph(n, tuple(tuple(sorted(r)) for r in rows), tuple(source))


def image_successors(d: Entourage, image: Sequence[float]) -> tuple[int, ...]:
    """Grid indices D-close to an exact image point, ascending.

    An entourage with a scale takes the closed ball of that radius around
    the image (an index run on a sorted space); an explicit relation
    reads the row of the image's nearest grid point.  This is the rule of
    ``shadowing.entourage_holds``, applied to every grid index.
    """
    if d.scale is not None:
        return tuple(d.space.indices_within(image, d.scale))
    return tuple(d.row(d.space.nearest_index(image)))


def build_transition_graph(system: SystemSpec, d: Entourage) -> TransitionGraph:
    """Transition graph with edge x -> y iff (f(x), y) is in D.

    Images are exact, read from ``system.grid_images``; the system of an
    iterate f^k uses k-fold images.  An image that is exactly grid point w
    reads D's stored row of w, which for a metric entourage is the ball
    that :func:`image_successors` would build.
    """
    system.space.check_same(d.space, "entourage")
    images = system.grid_images

    def row(x: int) -> tuple[int, ...]:
        image, _, _, w = images[x]
        return image_successors(d, image) if w is None else tuple(d.row(w))

    rows = _parallel.ordered_map(row, range(system.space.n))
    label = d.label if system.power == 1 else f"{d.label}|f^{system.power}"
    return TransitionGraph(system.space.n, tuple(rows), (system.name, label))


# ---------------------------------------------------------------------------
# strong connectivity


def strongly_connected_components(g: TransitionGraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative.  Components sorted by smallest member.

    A DFS frame is a vertex and an iterator over its row; a vertex is
    numbered when its frame first runs, from 1, so index 0 is "not visited".
    """
    succ = g.succ
    index = [0] * g.n
    low = [0] * g.n
    on_stack = [False] * g.n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(g.n):
        if index[root]:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, row = work[-1]
            if not index[v]:  # a new frame
                counter += 1
                index[v] = low[v] = counter
                stack.append(v)
                on_stack[v] = True
            for w in row:
                if not index[w]:
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def chain_recurrent_set(g: TransitionGraph) -> frozenset[int]:
    """Vertices lying on a directed cycle of length >= 1 (self-loops count)."""
    return ChainAnalysis.from_graph(g).recurrent


def is_chain_transitive(g: TransitionGraph) -> bool:
    """True iff every ordered pair is joined by a path of length >= 1.

    Equivalent to a single strongly connected component containing at
    least one edge (a single vertex needs a self-loop).  Two sweeps from
    vertex 0 answer it: a graph is strongly connected iff vertex 0 reaches
    every vertex and every vertex reaches vertex 0.  The forward sweep runs
    on ``succ``; only when it reaches all n vertices are the rows
    transposed for the backward one.
    """
    n, succ = g.n, g.succ
    if n <= 1:
        return n == 1 and 0 in succ[0]
    if _reached(succ) < n:
        return False
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, row in enumerate(succ):
        for v in row:
            pred[v].append(u)
    return _reached(pred) == n


def _reached(rows: Sequence[Sequence[int]]) -> int:
    """How many vertices vertex 0 reaches along ``rows``, itself included.

    A BFS that stops as soon as it holds every vertex, so a dense graph
    reads only the first rows.
    """
    n = len(rows)
    seen = bytearray(n)
    seen[0] = 1
    queue = [0]
    for u in queue:  # grows while it is read
        if len(queue) == n:
            break
        for v in rows[u]:
            if not seen[v]:
                seen[v] = 1
                queue.append(v)
    return len(queue)


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
    system: SystemSpec, d: Entourage, n_max: int, *, analysis: ChainAnalysis | None = None
) -> bool:
    """Chain transitivity of the graphs of f, f^2, ..., f^n_max.

    A bounded certificate for the unbounded definition: each iterate's
    graph is built from exact k-fold images.  On compact finite models the
    chain-mixing check certifies the full statement; both are computed and
    compared by the test suite.  ``analysis``, when given, is the chain
    analysis of the graph of f at D, which is then neither built nor
    analysed again.

    The graph of f^k, k >= 2, is built once and answered by the two sweeps
    of :func:`is_chain_transitive`: no components, periods or classes.  The
    systems of f^k come from :meth:`SystemSpec.iterates`, whose images are
    those of f^(k-1) stepped once more, and the first graph that fails ends
    the walk, so f^power is applied at most n * n_max times.
    """
    system.space.check_same(d.space, "entourage")
    check_count(n_max, "n_max")
    if analysis is None:
        analysis = ChainAnalysis.from_graph(build_transition_graph(system, d))
    return analysis.transitive and all(
        is_chain_transitive(build_transition_graph(s, d))
        for s in islice(system.iterates(), 1, n_max)  # the systems of f^2 .. f^n_max
    )


def chain_diameter(g: TransitionGraph) -> int:
    """Max over ordered pairs of the shortest path length (>= 1).

    For a pair (x, x) the length of the shortest cycle through x is used.
    Defined only for chain transitive graphs.

    A bit-parallel BFS: ``reach[u]`` holds the targets of a walk of
    length 1..rounds from u; the diameter is the first round that fills
    every mask.
    """
    reach = _successor_masks(g)
    full = (1 << g.n) - 1
    rounds = 1
    # an empty graph (n = 0) enters once, meets its fixed point and raises
    while not reach or any(r != full for r in reach):
        nxt = []
        for r, row in zip(reach, g.succ):
            for w in row:
                r |= reach[w]
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
    for v in mask_indices(reach):
        nxt |= masks[v]
    return nxt


def power_graph(g: TransitionGraph, k: int) -> TransitionGraph:
    """Edges u -> v iff there is a walk of length exactly k in g.

    This is the combinatorial walk-power used for abstract digraphs; it is
    not the transition graph of an iterated map, which must be built from
    exact images (see :func:`build_transition_graph`).
    """
    check_count(k, "k")
    masks = _successor_masks(g)
    reach = list(masks)
    for _ in range(k - 1):
        reach = [_walk_step(masks, r) for r in reach]
    rows = tuple(tuple(mask_indices(r)) for r in reach)
    return TransitionGraph(g.n, rows, (g.source[0], f"{g.source[1]}^walk{k}"))


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
        """One Tarjan pass, then one BFS per component that sets levels and period.

        A component's period is the gcd of ``level(u) + 1 - level(v)`` over
        its internal edges u -> v, for BFS levels from its smallest vertex;
        this equals the gcd of its cycle lengths.  The BFS folds each edge
        in as it meets it; an edge to a newly reached vertex adds 0.  Class
        k holds the vertices whose level is k modulo the period.
        """
        comps = strongly_connected_components(g)
        component = [-1] * g.n
        level = [-1] * g.n
        periods: list[int] = []
        classes: list[tuple[tuple[int, ...], ...] | None] = []
        for c, comp in enumerate(comps):
            for v in comp:  # a later component's vertices still read -1
                component[v] = c
            level[comp[0]] = period = 0
            queue = [comp[0]]
            for u in queue:  # grows while it is read: a FIFO queue
                step = level[u] + 1
                for v in g.succ[u]:
                    if component[v] == c:
                        if level[v] < 0:
                            level[v] = step
                            queue.append(v)
                        period = math.gcd(period, step - level[v])
            periods.append(period)
            if period == 0:
                classes.append(None)
                continue
            buckets: list[list[int]] = [[] for _ in range(period)]
            for v in comp:
                buckets[level[v] % period].append(v)
            classes.append(tuple(tuple(b) for b in buckets))
        return cls(
            components=tuple(tuple(c) for c in comps),
            is_strongly_connected=len(comps) == 1,
            periods=tuple(periods),
            classes=tuple(classes),
        )
