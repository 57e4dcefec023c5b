"""Independent brute-force oracles shared by the test modules.

Everything here recomputes results from definitions (reachability walks,
pairwise distance scans, exhaustive length DP) without touching the
library's own algorithms, so a disagreement always means a real bug.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from chaindyn import TransitionGraph, graph_from_edges


def within_bruteforce(space, coords, radius: float) -> list[int]:
    """Indices within ``radius`` of arbitrary coordinates, by a full scan."""
    return [
        i for i, p in enumerate(space.points) if space.distance(coords, p) <= radius + 1e-12
    ]


def ball_bruteforce(space, center_index: int, eps: float) -> set[int]:
    """Epsilon-ball of a grid point by direct pairwise distance scan."""
    return set(within_bruteforce(space, space.points[center_index], eps))


def sorted_list_space(coords, geometry):
    """A 1-D space on sorted coordinates with h at half the widest gap, so it is valid."""
    from chaindyn import FinitePhaseSpace

    xs = sorted(coords)
    h = max((b - a for a, b in zip(xs, xs[1:])), default=2.0) / 2
    return FinitePhaseSpace(tuple((x,) for x in xs), geometry, h)


def nearest_bruteforce(space, coords) -> int:
    """Nearest grid index by a full scan in index order.

    A later point replaces the current choice only when it is closer by more
    than the 1e-12 comparison slack, so ties go to the smaller index.
    """
    best_i, best_d = 0, math.inf
    for i, p in enumerate(space.points):
        d = space.distance(coords, p)
        if d < best_d - 1e-12:
            best_i, best_d = i, d
    return best_i


def image_table_bruteforce(system, k: int = 1) -> tuple:
    """The grid-image table of f^(k * power) for an identity or a permutation-backed map.

    The identity keeps each grid point; a permutation walks k * power steps
    from the point's nearest index.  Each image goes to its nearest index by
    :func:`nearest_bruteforce`, with its distance, and with that index again
    when the image is the grid point exactly, else None.
    """
    space, table = system.space, []
    for p in space.points:
        image = p
        if system.permutation is not None:
            i = nearest_bruteforce(space, p)
            for _ in range(k * system.power):
                i = system.permutation[i]
            image = space.points[i]
        idx = nearest_bruteforce(space, image)
        near = space.points[idx]
        table.append((image, idx, space.distance(image, near), idx if image == near else None))
    return tuple(table)


def successors_bruteforce(d, image) -> list[int]:
    """Indices D-close to an exact image for a metric entourage, by full scans.

    An image within the 1e-12 slack of its nearest grid point takes that
    point's ball; any other image takes its own ball.
    """
    space = d.space
    idx = nearest_bruteforce(space, image)
    if space.distance(image, space.points[idx]) <= 1e-12:
        image = space.points[idx]
    return within_bruteforce(space, image, d.scale)


def drift_bruteforce(space, successors, target_coords) -> int:
    """The successor closest to the target over the whole list; ties take the smaller index."""
    return min(successors, key=lambda j: (space.distance(space.points[j], target_coords), j))


def pseudo_orbit_bruteforce(system, d, length, seed, mode, start=None, target=None, allowed=None):
    """States of a seeded pseudo-orbit chosen from expanded successor lists.

    Draws from the same seeded generator in the same order as
    ``generate_pseudo_orbit``.  A metric D gives the successors of
    :func:`successors_bruteforce`, an explicit one the row of the image's
    nearest grid point; an ``allowed`` set keeps only its members and
    supplies the default start and target.  Returns the step with no
    successor instead when the walk dead-ends.
    """
    from chaindyn.systems import iterate

    space = system.space
    pool = sorted(allowed) if allowed is not None else list(range(space.n))
    rng = random.Random(f"{seed}|{d.label}|{mode}")
    if start is None:
        start = pool[rng.randrange(len(pool))] if mode == "uniform" else pool[0]
    target_coords = space.points[pool[-1] if target is None else target]
    states = [start]
    for i in range(length):
        image = iterate(system, space.points[states[-1]], 1)
        if d.scale is not None:
            succ = successors_bruteforce(d, image)
        else:
            near = nearest_bruteforce(space, image)
            succ = [y for y in range(space.n) if d.contains(near, y)]
        succ = [y for y in succ if y in pool]
        if not succ:
            return i
        if mode == "uniform":
            states.append(succ[rng.randrange(len(succ))])
        else:
            states.append(drift_bruteforce(space, succ, target_coords))
    return tuple(states)


def snapped_orbit_bruteforce(system, start: int, horizon: int) -> list[int | None]:
    """Snaps of the float orbit of grid point ``start`` at t = 0..horizon.

    Each exact iterate goes to :func:`nearest_bruteforce`, and the snap counts
    only when it lies within h/2 of the iterate (else None).
    """
    from chaindyn.systems import iterate

    space = system.space
    tol = space.resolution / 2 + 1e-12
    coords, orbit = space.points[start], [start]
    for _ in range(horizon):
        coords = iterate(system, coords, 1)
        idx = nearest_bruteforce(space, coords)
        orbit.append(idx if space.distance(coords, space.points[idx]) <= tol else None)
    return orbit


def map_bruteforce(system, c: float) -> float:
    """One application of the catalog map f to a single coordinate, by its formula.

    The formulas are written out here apart from the library's;
    ``SystemSpec.float_step`` must give the same floats, bit for bit.
    """
    kind = system.kind.value
    if kind == "identity":
        return c
    if kind == "rotation":
        return (c + system.params[0]) % 1.0
    if kind == "doubling":
        return (2.0 * c) % 1.0
    if kind == "tent":
        slope = system.params[0]
        return slope * c if c <= 0.5 else slope * (1.0 - c)
    if kind == "square":
        return c * c
    raise ValueError(f"{kind} has no float formula")


def odometer_bruteforce(levels: int) -> tuple[int, ...]:
    """The +1 adding machine on {0,1}^levels as an index permutation, by digit carries.

    Index k holds the digits a_1..a_levels, a_1 its most significant bit;
    a_1 is the adding machine's least significant digit, so the carry runs
    from a_1 toward a_levels and all-ones wraps to all-zeros.
    """
    perm = []
    for k in range(2 ** levels):
        bits = [(k >> (levels - i)) & 1 for i in range(1, levels + 1)]
        for i in range(levels):
            bits[i] ^= 1
            if bits[i]:  # 0 + 1 leaves no carry
                break
        perm.append(sum(b << (levels - i) for i, b in enumerate(bits, start=1)))
    return tuple(perm)


def omega_limit_bruteforce(system, x: int, transient: int, horizon: int) -> tuple[int, ...]:
    """Grid points within h/2 of some iterate f^t(x), transient <= t <= horizon, by full scans."""
    from chaindyn.systems import iterate

    space = system.space
    coords, seen = space.points[x], set()
    for t in range(horizon + 1):
        if t >= transient:
            seen.update(within_bruteforce(space, coords, space.resolution / 2))
        coords = iterate(system, coords, 1)
    return tuple(sorted(seen))


def nonwandering_bruteforce(system, scale, horizon: int) -> tuple[int, ...]:
    """Non-wandering estimate by the per-u, per-t scan over snapped orbits.

    x qualifies when some u in the ball scale.rows[x] has an exact iterate
    f^t(u), 1 <= t <= horizon, whose nearest grid point lies in the ball and
    within h/2 of the iterate (see :func:`snapped_orbit_bruteforce`).
    """
    space = system.space
    orbits = [snapped_orbit_bruteforce(system, u, horizon)[1:] for u in range(space.n)]
    result = []
    for x in range(space.n):
        ball = scale.rows[x]
        if any(idx is not None and idx in ball for u in ball for idx in orbits[u]):
            result.append(x)
    return tuple(result)


def return_times_bruteforce(system, us, vs, horizon: int) -> tuple[int, ...]:
    """Times t in [0, horizon] at which the snapped float orbit of some x in us lies in vs."""
    vs = set(vs)
    return tuple(sorted({
        t for x in set(us)
        for t, idx in enumerate(snapped_orbit_bruteforce(system, x, horizon)) if idx in vs
    }))


def weak_mixing_bruteforce(system, us, vs, horizon: int) -> int | None:
    """Least t >= 1 at which us returns both to itself and to vs, or None."""
    uu = set(return_times_bruteforce(system, us, us, horizon))
    uv = set(return_times_bruteforce(system, us, vs, horizon))
    return min((t for t in uu & uv if t >= 1), default=None)


def on_cycle_bruteforce(g: TransitionGraph, x: int) -> bool:
    """Reachability of x from itself in >= 1 steps, by frontier expansion."""
    seen: set[int] = set()
    frontier = set(g.succ[x])
    while frontier:
        if x in frontier:
            return True
        seen |= frontier
        frontier = {w for v in frontier for w in g.succ[v]} - seen
    return False


def chain_recurrent_bruteforce(g: TransitionGraph) -> set[int]:
    return {v for v in range(g.n) if on_cycle_bruteforce(g, v)}


def kosaraju(g: TransitionGraph) -> list[list[int]]:
    """Strong components by Kosaraju: finish order on g, then sweeps on the transpose.

    Each component sorted, the list sorted by smallest member; no recursion.
    """
    order = []
    seen = [False] * g.n
    for root in range(g.n):
        if seen[root]:
            continue
        stack = [(root, iter(g.succ[root]))]
        seen[root] = True
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(g.succ[w])))
                    advanced = True
                    break
            if not advanced:
                order.append(v)
                stack.pop()
    pred = [[] for _ in range(g.n)]
    for x, row in enumerate(g.succ):
        for y in row:
            pred[y].append(x)
    comp = [-1] * g.n
    comps = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        bucket = [root]
        comp[root] = len(comps)
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for w in pred[v]:
                if comp[w] == -1:
                    comp[w] = len(comps)
                    bucket.append(w)
                    frontier.append(w)
        comps.append(sorted(bucket))
    return sorted(comps)


def reach_masks(g: TransitionGraph) -> list[int]:
    return [sum(1 << w for w in row) for row in g.succ]


def walk_length_dp(g: TransitionGraph, max_length: int):
    """reach[x] bitmask per length 1..max_length (list of per-length lists)."""
    masks = reach_masks(g)
    out = [list(masks)]
    reach = list(masks)
    for _ in range(max_length - 1):
        new = []
        for r in reach:
            nxt = 0
            v = 0
            while r:
                if r & 1:
                    nxt |= masks[v]
                r >>= 1
                v += 1
            new.append(nxt)
        reach = new
        out.append(list(reach))
    return out


def loop_lengths_bruteforce(g: TransitionGraph, x: int, max_length: int) -> list[int]:
    dp = walk_length_dp(g, max_length)
    return [ell + 1 for ell, reach in enumerate(dp) if (reach[x] >> x) & 1]


def gcd_of(values) -> int:
    out = 0
    for v in values:
        out = math.gcd(out, v)
    return out


def representable_bruteforce(s: int, generators) -> bool:
    """Whether s is a non-negative integer combination of ``generators``.

    Tries every count of the largest generator and recurses on the rest;
    the last one left must divide what remains.
    """
    return _coefficient_search(s, tuple(sorted(set(generators), reverse=True)))


@functools.lru_cache(maxsize=1 << 16)
def _coefficient_search(s: int, generators: tuple[int, ...]) -> bool:
    largest, *rest = generators
    if not rest:
        return s >= 0 and s % largest == 0
    return any(_coefficient_search(s - c * largest, tuple(rest)) for c in range(s // largest + 1))


def frobenius_bruteforce(generators) -> int:
    """Least N with every s >= N representable, for coprime generators, by an upward scan.

    Stops at the first run of min(generators) representable values: every
    later value is one of them plus a multiple of min(generators).
    """
    smallest, run, s = min(generators), 0, 0
    while run < smallest:
        run = run + 1 if representable_bruteforce(s, generators) else 0
        s += 1
    return s - smallest


def random_strongly_connected(rng: random.Random, n_max: int = 12) -> TransitionGraph:
    """Random strongly connected digraph: a random ring plus random chords.

    The ring guarantees strong connectivity; chord probability 0 keeps pure
    rings (period n) in the sample, so the period spectrum is covered.
    """
    n = rng.randint(2, n_max)
    order = list(range(n))
    rng.shuffle(order)
    edges = {(order[i], order[(i + 1) % n]) for i in range(n)}
    p = rng.choice([0.0, 0.05, 0.1, 0.2, 0.3])
    for u in range(n):
        for v in range(n):
            if rng.random() < p:
                edges.add((u, v))
    return graph_from_edges(n, edges)


def totally_chain_transitive_bruteforce(system, d, n_max: int) -> bool:
    """Chain transitivity of the graphs of f, ..., f^n_max, each rebuilt from scratch.

    Every graph comes from the system of f^(k * power), whose images are
    computed from the grid points anew, and is analysed by a full
    :class:`ChainAnalysis` (Tarjan, periods, classes).
    """
    from dataclasses import replace

    from chaindyn import ChainAnalysis, build_transition_graph

    return all(
        ChainAnalysis.from_graph(
            build_transition_graph(replace(system, power=k * system.power), d)
        ).transitive
        for k in range(1, n_max + 1)
    )


def path_is_chain(system, d, states) -> bool:
    """Definition unrolling: (f(x_i), x_{i+1}) in D for every step."""
    from chaindyn.shadowing import entourage_holds
    from chaindyn.systems import iterate

    space = system.space
    for a, b in zip(states, states[1:]):
        image = iterate(system, space.points[a], 1)
        if not entourage_holds(d, image, b):
            return False
    return True


def resolution_bruteforce(points, geometry) -> float:
    """Minimum positive pairwise distance of a point list (1.0 if none), by a full pair scan."""
    from chaindyn import FinitePhaseSpace

    probe = FinitePhaseSpace(tuple(points), geometry, 1.0)
    pairs = itertools.combinations(probe.points, 2)
    return min((d for a, b in pairs if (d := probe.distance(a, b)) > 0), default=1.0)


def shadow_bruteforce(orbit, e, system, candidates=None):
    """Shadow search that scores every candidate before it picks one.

    Each candidate gets its first failure step (None for a full-horizon
    witness).  The report names the first witness in index order or, when
    there is none, the first candidate with the latest failure step.
    """
    from chaindyn.shadowing import ShadowReport, entourage_holds
    from chaindyn.systems import iterate

    space = system.space
    T = orbit.horizon
    scores = {}
    for y in sorted(candidates) if candidates is not None else range(space.n):
        coords, fail = space.points[y], None
        for i, x in enumerate(orbit.states):
            if not entourage_holds(e, coords, x):
                fail = i
                break
            coords = iterate(system, coords, 1)
        scores[y] = fail
    witnesses = [y for y, fail in scores.items() if fail is None]
    if witnesses:
        return ShadowReport(True, witnesses[0], T, e.label, None, None)
    if not scores:
        return ShadowReport(False, None, T, e.label, None, None)
    latest = max(scores.values())
    best = next(y for y, fail in scores.items() if fail == latest)
    return ShadowReport(False, None, T, e.label, latest, best)


def modulus_scan_bruteforce(system, e, basis, trials, length, seed, allowed=None):
    """The shadowing-modulus scan as a plain level loop.

    Per candidate level the drift orbit, then each uniform orbit, comes from
    :func:`pseudo_orbit_bruteforce`, which draws at every step, and each is
    searched with :func:`shadow_bruteforce`: no orbit is skipped or reused.
    A dead end skips the level; the first level whose orbits all shadow is
    the modulus, else the last failing orbit is the counterexample.
    """
    from chaindyn.shadowing import PseudoOrbit, ShadowingModulusReport, candidate_levels

    pool = sorted(allowed) if allowed is not None else None
    runs = [("adversarial-drift", seed)]
    runs += [("uniform", seed * 1_000_003 + t) for t in range(trials)]
    scanned, failure, failure_mode = [], None, None
    for lvl in candidate_levels(basis):
        scanned.append(lvl.label)
        for mode, orbit_seed in runs:
            states = pseudo_orbit_bruteforce(
                system, lvl, length, orbit_seed, mode, allowed=pool)
            if isinstance(states, int):  # a dead end at that step
                break
            orbit = PseudoOrbit(states, lvl.label, orbit_seed, states[1:])
            if not shadow_bruteforce(orbit, e, system, pool).shadowed:
                failure, failure_mode = orbit, mode
                break
        else:
            return ShadowingModulusReport(True, lvl, None, None, tuple(scanned), trials, length)
    return ShadowingModulusReport(
        False, None, failure, failure_mode, tuple(scanned), trials, length)


#: Lipschitz bounds of the catalog's interval and circle maps (tent slopes
#: are capped at 2).
LIPSCHITZ = {"identity": 1.0, "rotation": 1.0, "doubling": 2.0, "tent": 2.0, "square": 2.0}


def continuity_modulus(system, r):
    """omega(r): d(a, b) <= r implies d(f(a), f(b)) <= omega(r).

    L * r for the interval and circle maps; for the grid-valued maps
    (permutations, odometer) the exact maximum over pairs of grid points.
    """
    from chaindyn.systems import iterate

    if system.kind.value in LIPSCHITZ:
        return LIPSCHITZ[system.kind.value] * r
    space = system.space
    images = [iterate(system, p, 1) for p in space.points]
    return max(
        space.distance(images[a], images[b])
        for a in range(space.n)
        for b in range(space.n)
        if space.distance(space.points[a], space.points[b]) <= r + 1e-12
    )


def chain_scale(system, r):
    """D(r) = r + h/2 + omega(r): the chain scale that follows a return to the
    r-ball (the two-scale containment of criterion 8, test_acceptance.py)."""
    return r + system.space.resolution / 2 + continuity_modulus(system, r)
