"""Finite-horizon recurrence analysis: return times, non-wandering sets,
window classifications, weak-mixing witnesses, omega-limit estimates, and
the restriction-to-Omega shadowing comparison.

The paper-level objects here are infinite-time sets; everything this
module computes is a certificate at a declared horizon and scale, and all
reports carry them.  Return times and the non-wandering estimate place
an exact iterate in a set of grid indices by one snap rule: take the
nearest grid point (ties to the smaller index) and accept it when the
snap distance is at most h/2.  The omega-limit estimate instead takes
every grid point in the closed h/2 ball of each iterate, so an iterate at
an exact midpoint contributes both neighbours.

Recurrent points have no dedicated operation: detection is implicit via
``return_times(system, {x}, U, horizon)`` with U a ball at x.  The chain
of containments minimal ⊆ recurrent ⊆ non-wandering is a fact about the
infinite-time sets; only the non-wandering estimate is computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .chaingraph import (
    TransitionGraph,
    build_transition_graph,
    chain_recurrent_set,
    strongly_connected_components,
)
from .errors import (
    IncompatibleSpaceError,
    InvalidParameterError,
    NoNonwanderingPointsError,
    OutOfRangeError,
)
from .shadowing import estimate_shadowing_modulus
from .systems import SystemSpec
from .uniform import COMPARISON_SLACK, Entourage, UniformityBasis

KIND_POINT_IN_SET = "point-in-set"
KIND_SET_TO_SET = "set-to-set"


@dataclass(frozen=True)
class ReturnTimeSet:
    """Hitting times within [0, horizon], with the defining kind recorded."""

    times: tuple[int, ...]
    horizon: int
    kind: str


@dataclass(frozen=True)
class ReturnSetClassification:
    """Window-bounded classification of a return-time set.

    All labels are statements "at horizon H", never absolute: syndetic
    when the largest gap (including the leading and trailing gaps) is at
    most sqrt(H); thick when some run of consecutive times reaches
    sqrt(H); contains-kN when all multiples of some k <= H/4 are present;
    finite-only when the set is nonempty but silent over the second half
    of the window.
    """

    horizon: int
    labels: tuple[str, ...]
    max_gap: int | None
    syndetic_k: int | None
    thick: bool
    contains_kn: int | None
    finite_only: bool

    @property
    def empty(self) -> bool:
        return "empty" in self.labels


def _snapped_orbit(system: SystemSpec, start: int, horizon: int) -> list[int | None]:
    """Snaps of the exact orbit of grid point ``start``; None where a snap misses h/2.

    The walk of :meth:`SystemSpec.orbit_step`, inlined, which also returns
    to the table once a float image lands exactly on a grid point: the snap
    that places each image tells it so.  Every snap is the one the plain
    float loop would take.
    """
    space, images, f = system.space, system.grid_images, system.float_step
    points, tol = space.points, space.resolution / 2 + COMPARISON_SLACK
    snap = space.snap_value
    out: list[int | None] = [start]
    at = start
    for _ in range(horizon):
        if at is None:
            c = f(c)
            idx, dist = snap(c)
            at = idx if c == points[idx][0] else None
        else:
            image, idx, dist, at = images[at]
            if at is None:
                c = image[0]
        out.append(idx if dist <= tol else None)
    return out


def _check_sets(system: SystemSpec, u: Iterable[int], v: Iterable[int]):
    n = system.space.n
    us, vs = sorted(set(u)), sorted(set(v))
    if not us or not vs:
        raise InvalidParameterError("u and v must be non-empty")
    for i in us + vs:
        if not 0 <= i < n:
            raise OutOfRangeError(f"index {i} out of range")
    return us, vs


def return_times(
    system: SystemSpec, u: Iterable[int], v: Iterable[int], horizon: int
) -> ReturnTimeSet:
    """N_f(U, V) within [0, horizon]: times n with some point of U landing in V.

    Exact iteration from every point of U; membership in V by the
    documented nearest-snap rule.  n = 0 is included exactly when U and V
    intersect.
    """
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    us, vs = _check_sets(system, u, v)
    vset = set(vs)
    hits: set[int] = set()
    for x in us:
        for t, idx in enumerate(_snapped_orbit(system, x, horizon)):
            if idx is not None and idx in vset:
                hits.add(t)
    kind = KIND_POINT_IN_SET if len(us) == 1 else KIND_SET_TO_SET
    return ReturnTimeSet(tuple(sorted(hits)), horizon, kind)


def nonwandering_points(
    system: SystemSpec, scale: Entourage, horizon: int
) -> tuple[int, ...]:
    """Finite-scale outer approximation of the non-wandering set.

    x qualifies when the scale-ball U at x satisfies N_f(U, U) with some
    n >= 1 within the horizon.  Shrinking the scale refines the estimate.

    The estimate is wider than the ball radius r by the map's drift: a
    point u of U whose orbit passes back through U flags x even when no
    orbit stays near x.  For x -> x^2 on [0, 1] at r = 2h the estimate
    reaches 6h from the repelling fixed point 1; what it guarantees is
    that each flagged x lies within r of some u with |u - f^t(u)| at most
    2r + h/2 for some t >= 1.

    Each orbit is walked as :func:`_snapped_orbit` walks it, with three
    cuts that leave the set as the full n x horizon scan finds it:

    * The orbit of u can flag only the points x whose ball holds u.  It is
      skipped when all of them are flagged, and it stops once they are.
    * On a metric entourage of a sorted space, an iterate farther than
      2r + h/2 from u snaps into no ball that holds u, so it is stepped as
      a float and not snapped.  Float arithmetic is deterministic, so
      staying off the table there changes no later iterate.
    * A walk that comes back exactly to an earlier iterate repeats its
      snaps from there, so it stops: on the table at a grid index it has
      visited, off it at a float fixed point.
    """
    if scale.space != system.space:
        raise IncompatibleSpaceError("entourage is over a different space")
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    space, images, f = system.space, system.grid_images, system.float_step
    points, n = space.points, space.n
    tol, snap = space.resolution / 2 + COMPARISON_SLACK, space.snap_value
    flags = bytearray(n)
    if scale.arcs is not None and scale.scale is not None:
        settle = _run_settler(scale.arcs, flags)
        # two ball memberships and a snap, each with its slack, plus one for rounding
        window = 2 * (scale.scale + COMPARISON_SLACK) + tol + COMPARISON_SLACK
    else:
        settle, window = _row_settler(scale.rows, flags), math.inf
    wraps = space.geometry.wraps
    seen = [-1] * n  # seen[a] == u: the walk of u has been exactly at grid point a
    for u in range(n):
        # None when every ball that holds u is flagged; else hit(s) flags the
        # balls that a snap s puts u in, and tells whether all of them are now
        hit = settle(u)
        if hit is None:
            continue
        at, cu, seen[u] = u, points[u][0], u
        for _ in range(horizon):
            if at is None:
                image = f(c)
                if image == c:  # a float fixed point: each later step repeats the last
                    break
                c, idx = image, None
            else:
                image, idx, dist, at = images[at]
                c = image[0]
            d = abs(c - cu)
            if wraps and d > 0.5:
                d = 1.0 - d
            if d <= window:
                if idx is None:
                    idx, dist = snap(c)
                    at = idx if c == points[idx][0] else None
                if dist <= tol and hit(idx):
                    break
            if at is not None:
                if seen[at] == u:
                    break
                seen[at] = u
    return tuple(x for x in range(n) if flags[x])


def _run_pieces(arc: tuple[int, int], n: int) -> tuple[tuple[int, int], ...]:
    """An index run as one or two ascending ranges ``(a, b)`` within 0..n - 1."""
    lo, hi = arc
    return ((lo, hi),) if hi < n else ((lo, n - 1), (0, hi - n))


def _run_settler(arcs: tuple[tuple[int, int], ...], flags: bytearray):
    """The settler of :func:`nonwandering_points` on a metric entourage held as runs.

    Balls are symmetric there, so the points whose ball holds u are u's own
    run, and a snap s flags the points of u's run inside s's run.  The
    flags are read and written as slices of those runs.
    """
    n = len(arcs)

    def settled(pieces: tuple[tuple[int, int], ...]) -> bool:
        return all(flags.find(0, a, b + 1) < 0 for a, b in pieces)

    def settle(u: int):
        mine = _run_pieces(arcs[u], n)
        if settled(mine):
            return None

        def hit(s: int) -> bool:
            for a, b in mine:
                for c, d in _run_pieces(arcs[s], n):
                    lo, hi = max(a, c), min(b, d)
                    if lo <= hi:
                        flags[lo : hi + 1] = b"\x01" * (hi + 1 - lo)
            return settled(mine)

        return hit

    return settle


def _row_settler(rows: tuple[frozenset[int], ...], flags: bytearray):
    """The settler of :func:`nonwandering_points` on explicit rows.

    The points whose row holds u are column u of the relation.  A snap is
    first tested against the union of the unflagged rows, so the pending
    points are scanned only when the snap flags one of them.
    """
    cols: list[list[int]] = [[] for _ in rows]
    for x, row in enumerate(rows):
        for y in row:
            cols[y].append(x)

    def settle(u: int):
        pending = [x for x in cols[u] if not flags[x]]
        if not pending:
            return None
        reach = frozenset().union(*(rows[x] for x in pending))

        def hit(s: int) -> bool:
            nonlocal pending, reach
            if s not in reach:
                return False
            for x in pending:
                if s in rows[x]:
                    flags[x] = 1
            pending = [x for x in pending if not flags[x]]
            reach = frozenset().union(*(rows[x] for x in pending))
            return not pending

        return hit

    return settle


def classify_return_set(r: ReturnTimeSet) -> ReturnSetClassification:
    """Window-bounded classification (see :class:`ReturnSetClassification`)."""
    horizon = r.horizon
    times = list(r.times)
    if not times:
        return ReturnSetClassification(horizon, ("empty",), None, None, False, None, False)
    window = math.isqrt(horizon)
    gaps = [times[0] - 0]
    gaps += [b - a for a, b in zip(times, times[1:])]
    gaps.append(horizon - times[-1])
    max_gap = max(gaps)
    syndetic_k = max_gap if max_gap <= window else None

    longest_run = run = 1
    for a, b in zip(times, times[1:]):
        run = run + 1 if b == a + 1 else 1
        longest_run = max(longest_run, run)
    thick = longest_run >= window

    tset = set(times)
    contains_kn = None
    for k in range(1, horizon // 4 + 1):
        if all(m in tset for m in range(0, horizon + 1, k)):
            contains_kn = k
            break

    finite_only = times[-1] <= horizon // 2

    labels = []
    if finite_only:
        labels.append("finite-only")
    if syndetic_k is not None:
        labels.append("syndetic-window")
    if thick:
        labels.append("thick-window")
    if contains_kn is not None:
        labels.append("contains-kN")
    return ReturnSetClassification(
        horizon, tuple(labels), max_gap, syndetic_k, thick, contains_kn, finite_only
    )


def weak_mixing_witness(
    system: SystemSpec, u: Iterable[int], v: Iterable[int], horizon: int
) -> int | None:
    """Least n >= 1 in both N_f(U, U) and N_f(U, V), or None within the horizon.

    A common return time of U to itself and of U to V is the finite
    signature of weak mixing.  Each orbit of U is walked once, and both
    hitting sets are read from its snaps.
    """
    us, vs = _check_sets(system, u, v)
    if horizon < 1:
        raise InvalidParameterError("horizon must be >= 1")
    uset, vset = set(us), set(vs)
    uu: set[int] = set()
    uv: set[int] = set()
    for x in us:
        for t, idx in enumerate(_snapped_orbit(system, x, horizon)[1:], 1):
            if idx in uset:
                uu.add(t)
            if idx in vset:
                uv.add(t)
    return min(uu & uv, default=None)


def omega_limit(
    system: SystemSpec, x: int, transient: int, horizon: int
) -> tuple[int, ...]:
    """Grid points within h/2 of some iterate f^n(x), transient <= n <= horizon.

    A finite-horizon outer estimate of the omega-limit set of x.  Every
    point of the closed h/2 ball counts, not only the nearest one.
    """
    space = system.space
    if not 0 <= x < space.n:
        raise OutOfRangeError(f"index {x} out of range")
    if not 0 < transient < horizon:
        raise InvalidParameterError("need 0 < transient < horizon")
    radius = space.resolution / 2
    seen: set[int] = set()
    coords, at = space.points[x], x
    for n in range(horizon + 1):
        if n >= transient:
            seen.update(space.indices_within(coords, radius))
        if n < horizon:
            coords, at = system.orbit_step(coords, at)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class OmegaShadowingReport:
    """Shadowing outcome on the full space vs restricted to the non-wandering set."""

    omega: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    full_found: bool
    restricted_found: bool
    full_level: str | None
    restricted_level: str | None
    horizon: int
    scale_label: str

    @property
    def agree(self) -> bool:
        return self.full_found == self.restricted_found


def omega_restriction_shadowing(
    system: SystemSpec,
    e: Entourage,
    basis: UniformityBasis,
    horizon: int,
    trials: int,
    seed: int,
) -> OmegaShadowingReport:
    """Finite echo of "the restriction to the non-wandering set inherits shadowing".

    Computes the non-wandering estimate at the scale of ``e``, partitions
    it into mutual-reachability classes of the restricted transition graph
    (the equivalence classes of the restriction construction), then runs
    the modulus estimator once on the full space and once with orbits and
    candidates confined to the estimate, reporting whether the found/none
    outcomes agree.
    """
    omega = nonwandering_points(system, e, horizon)
    if not omega:
        raise NoNonwanderingPointsError(
            "no non-wandering points at this scale and horizon"
        )
    graph = build_transition_graph(system, e)
    members = set(omega)
    restricted = TransitionGraph(
        graph.n,
        tuple(
            tuple(y for y in row if y in members) if x in members else ()
            for x, row in enumerate(graph.succ)
        ),
        (graph.source[0], f"{graph.source[1]}|omega"),
    )
    classes = tuple(
        tuple(comp)
        for comp in strongly_connected_components(restricted)
        if comp[0] in members
    )
    length = min(horizon, 100)
    full = estimate_shadowing_modulus(system, e, basis, trials, length, seed)
    confined = estimate_shadowing_modulus(
        system, e, basis, trials, length, seed, allowed=omega
    )
    return OmegaShadowingReport(
        omega=omega,
        classes=classes,
        full_found=full.found,
        restricted_found=confined.found,
        full_level=full.modulus.label if full.modulus else None,
        restricted_level=confined.modulus.label if confined.modulus else None,
        horizon=horizon,
        scale_label=e.label,
    )


def omega_subset_of_chain_recurrent(
    system: SystemSpec, scale: Entourage, horizon: int
) -> bool:
    """Containment of the non-wandering estimate in the chain recurrent set.

    Finite echo of Omega(f) within CR(f), both computed at one scale.
    The one-scale echo is not guaranteed for maps that drift: on x -> x^2
    at n = 64 and scale 2h it is False, because window transits near the
    repeller are flagged non-wandering but no 2h-chain returns to them.
    The guaranteed form uses two scales: the estimate at ball radius r
    lies in the chain recurrent set at D(r) = r + h/2 + omega(r), where
    omega is a modulus of uniform continuity of f (d(a, b) <= r implies
    d(f(a), f(b)) <= omega(r)).
    """
    omega = set(nonwandering_points(system, scale, horizon))
    recurrent = chain_recurrent_set(build_transition_graph(system, scale))
    return omega <= recurrent
