"""Finite-horizon recurrence analysis: non-wandering sets, omega-limit
estimates, and the restriction-to-Omega shadowing comparison.

The paper-level objects here are infinite-time sets; everything this
module computes is a certificate at a declared horizon and scale, and all
reports carry them.  The non-wandering estimate places an exact iterate in
a set of grid indices by one snap rule: take the nearest grid point (ties
to the smaller index) and accept it when the snap distance is at most h/2.
The omega-limit estimate instead takes every grid point in the closed h/2
ball of each iterate, so an iterate at an exact midpoint contributes both
neighbours.

Recurrent points have no dedicated operation.  The chain of containments
minimal ⊆ recurrent ⊆ non-wandering is a fact about the infinite-time sets;
only the non-wandering estimate is computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .chaingraph import (
    TransitionGraph,
    build_transition_graph,
    chain_recurrent_set,
    strongly_connected_components,
)
from .errors import NoNonwanderingPointsError, check_count
from .shadowing import estimate_shadowing_modulus
from .systems import SystemSpec
from .uniform import COMPARISON_SLACK, Entourage, UniformityBasis, mask_indices, run_mask


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

    Each orbit is exact: its iterates are read from
    :attr:`SystemSpec.grid_images` while it is on the grid and placed by
    :meth:`SystemSpec.image_entry` off it, which also tells when a float
    image lands exactly on a grid point.  Three cuts leave the set as the
    full n x horizon scan finds it.  The flags are one int, and col(u), the
    points x whose ball holds u, is a bit mask: u's own run on a metric
    entourage of a sorted space, where balls are symmetric, and else a
    column of the transposed rows, built once.

    * The orbit of u can flag only col(u).  It is skipped when all of col(u)
      is flagged, and it stops once it is; a snap s within h/2 flags
      col(u) & col(s).
    * On a metric entourage of a sorted space, an iterate farther than
      2r + h/2 from u snaps into no ball that holds u, so it is stepped as
      a float and not snapped.  Float arithmetic is deterministic, so
      staying off the table there changes no later iterate.
    * A walk that comes back exactly to an earlier iterate repeats its
      snaps from there, so it stops: on the table at a grid index it has
      visited, off it at a float fixed point.
    """
    system.space.check_same(scale.space, "entourage")
    check_count(horizon, "horizon")
    space, images, f = system.space, system.grid_images, system.float_step
    points, n, entry = space.points, space.n, system.image_entry
    tol = space.resolution / 2 + COMPARISON_SLACK
    if (arcs := scale.arcs) is not None:
        def col(u: int) -> int:
            return run_mask(arcs[u], n)

        # two ball memberships and a snap, each with its slack, plus one for rounding
        window = 2 * (scale.scale + COMPARISON_SLACK) + tol + COMPARISON_SLACK
    else:
        cols = [0] * n
        for x, row in enumerate(scale.rows):
            bit = 1 << x
            for y in row:
                cols[y] |= bit
        col, window = cols.__getitem__, math.inf
    wraps = space.geometry.wraps
    flags = 0
    seen = [-1] * n  # seen[a] == u: the walk of u has been exactly at grid point a
    for u in range(n):
        mine = col(u)
        if flags & mine == mine:
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
                    _, idx, dist, at = entry((c,))
                if dist <= tol and (hit := mine & col(idx)):
                    flags |= hit
                    if flags & mine == mine:
                        break
            if at is not None:
                if seen[at] == u:
                    break
                seen[at] = u
    return tuple(mask_indices(flags))


def omega_limit(
    system: SystemSpec, x: int, transient: int, horizon: int
) -> tuple[int, ...]:
    """Grid points within h/2 of some iterate f^n(x), transient <= n <= horizon.

    A finite-horizon outer estimate of the omega-limit set of x.  Every
    point of the closed h/2 ball counts, not only the nearest one.
    """
    space = system.space
    space.check_indices((x,), "x")
    check_count(transient, "transient")
    check_count(horizon, "horizon", transient + 1)
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
