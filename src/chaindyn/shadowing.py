"""Pseudo-orbits, shadow-point search, and shadowing-modulus experiments.

A (D, f)-pseudo-orbit is a finite index sequence whose every step lands
D-close to the exact image of the previous point.  A point y E-shadows it
when the exact orbit of y stays E-close to the sequence at every step.
Shadowing here is always over a finite horizon (the paper-level objects
are infinite); the horizon is a parameter, defaults to 100, and is
reported in every output.

The modulus estimator scans basis levels coarse-to-fine and returns the
coarsest level with zero observed failures.  Two points about candidates:

* The diagonal floor of the basis is never a candidate.  It is an
  artifact of finiteness (every finite Hausdorff model bottoms out in the
  discrete uniformity) under which every pseudo-orbit of any map is an
  exact orbit, so it would trivialize every scan.
* On connected-geometry grids (interval, circle, products) levels with
  scale below the grid resolution are also excluded: their cross sections
  are singletons even though the modeled space is connected, so they
  misrepresent the space.  Discrete-geometry spaces keep all positive
  scales; singleton cross sections are faithful there.

A returned modulus is sampled evidence over seeded pseudo-orbits, never a
proof, and every report says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .chaingraph import TransitionGraph, image_successors, strongly_connected_components
from .errors import (
    DiscretizationTooCoarseError,
    InvalidParameterError,
    OutOfRangeError,
    check_count,
)
from .systems import SystemSpec, grid_permutation, identity_system
from .uniform import (
    COMPARISON_SLACK,
    Entourage,
    FinitePhaseSpace,
    Geometry,
    UniformityBasis,
    arc_contains,
)

EVIDENCE_NOTE = "sampled evidence over seeded pseudo-orbits; not a proof"

MODE_UNIFORM = "uniform"
MODE_DRIFT = "adversarial-drift"

#: Steps of each pseudo-orbit that the dichotomy walks, whatever a request's horizon.
DICHOTOMY_LENGTH = 100


@dataclass(frozen=True)
class PseudoOrbit:
    """A finite (D, f)-pseudo-orbit with its provenance.

    ``states`` holds x_0..x_T; ``perturbations`` records the successor
    index chosen inside D[f(x_i)] at each step (one entry per step).
    """

    states: tuple[int, ...]
    entourage_label: str
    seed: int | None
    perturbations: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.states) - 1


@dataclass(frozen=True)
class ShadowReport:
    """Outcome of an exhaustive shadow-point search."""

    shadowed: bool
    witness: int | None
    horizon: int
    checked_entourage: str
    failure_step: int | None
    best_candidate: int | None


@dataclass(frozen=True)
class ShadowingModulusReport:
    found: bool
    modulus: Entourage | None
    counterexample: PseudoOrbit | None
    counterexample_mode: str | None
    levels_scanned: tuple[str, ...]
    trials: int
    length: int
    note: str = EVIDENCE_NOTE


@dataclass(frozen=True)
class IterateConsistencyReport:
    power: int
    base_found: bool
    power_found: bool
    base_level: str | None
    power_level: str | None

    @property
    def agree(self) -> bool:
        return self.base_found == self.power_found


@dataclass(frozen=True)
class LevelIsobasism:
    label: str
    preserved: bool
    counterexample: tuple[int, int] | None


@dataclass(frozen=True)
class IsobasismReport:
    mode: str  # "exact" for grid bijections, "tolerance" otherwise
    levels: tuple[LevelIsobasism, ...]

    @property
    def all_preserved(self) -> bool:
        return all(lvl.preserved for lvl in self.levels)


@dataclass(frozen=True)
class DichotomyReport:
    connected_at_scale: bool
    totally_disconnected_at_scale: bool
    component_count: int
    modulus_found: bool
    modulus_label: str | None
    agreement: bool
    scale_label: str


def entourage_holds(e: Entourage, a: Sequence[float], b_index: int) -> bool:
    """Membership of (a, grid point b) in e: metric ball or snapped pair."""
    space = e.space
    if e.scale is not None:
        return space.distance(a, space.points[b_index]) <= e.scale + COMPARISON_SLACK
    return b_index in e.rows[space.nearest_index(a)]


def generate_pseudo_orbit(
    system: SystemSpec,
    d: Entourage,
    length: int,
    seed: int,
    mode: str = MODE_UNIFORM,
    *,
    start: int | None = None,
    target: int | None = None,
    allowed: Iterable[int] | None = None,
) -> PseudoOrbit:
    """A seeded (D, f)-pseudo-orbit of ``length`` steps.

    Uniform mode picks each successor uniformly from D[f(x_i)] on the
    grid.  Adversarial-drift picks the legal successor closest to a target
    point (default: the last grid point), the finite engine that walks a
    pseudo-orbit across a connected component and breaks shadowing of the
    identity map.  Deterministic given the seed.

    The successors of a state are found once, at its first visit, and read
    again at every later one; a drift pick draws nothing from the seeded
    generator, so drift settles each state's next state once.  Uniform
    mode appends a forced step (one successor) without drawing and counts
    it; before its next real draw it makes the counted one-index draws,
    which keeps the generator's sequence that of one draw per step, and
    after the last choice it drops them.  A draw from one index returns
    it whatever the generator's state, so the orbit is the same.

    Raises :class:`DiscretizationTooCoarseError`, naming the step, when a
    step has no legal successor on the grid, and :class:`OutOfRangeError`
    for a ``start``, ``target`` or ``allowed`` index that is not a grid
    index (or a ``start`` outside ``allowed``).
    """
    check_count(length, "length")
    if mode not in (MODE_UNIFORM, MODE_DRIFT):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    space = system.space
    space.check_same(d.space, "entourage")
    n, images = space.n, system.grid_images
    pool = range(n) if allowed is None else sorted(allowed)
    if not pool:
        raise InvalidParameterError("allowed set is empty")
    if allowed is not None:
        space.check_indices(pool, "allowed set")
    if target is not None:
        space.check_indices((target,), "target")
    members = pool if allowed is None else set(pool)
    uniform = mode == MODE_UNIFORM
    rng = random.Random(f"{seed}|{d.label}|{mode}") if uniform else None
    if start is None:
        start = pool[rng.randrange(len(pool))] if uniform else pool[0]
    if start not in members:
        raise OutOfRangeError(f"start {start} is not an allowed index")
    target_coords = space.points[pool[-1] if target is None else target]

    def key(j: int) -> tuple[float, int]:
        return (space.distance(space.points[j], target_coords), j)

    # Successors are those of the graph: an image that is exactly grid
    # point w reads D's row of w, any other image the rule of
    # image_successors.  On a sorted space with no restriction they form one
    # index run: uniform mode takes its r-th index in ascending order,
    # and drift compares only its ends and the target's brackets, where the
    # distance to the target can be least inside it.
    by_arc = d.arcs is not None and allowed is None
    if by_arc and not uniform:
        near = space.brackets(target_coords[0])

    def settle(x: int) -> tuple[int, int] | list[int] | int | None:
        """x's legal successors (uniform) or its drift pick; None when it has none."""
        image, _, _, w = images[x]
        if not by_arc:
            succ = image_successors(d, image) if w is None else d.row(w)
            succ = [y for y in succ if y in members]
            return (succ if uniform else min(succ, key=key)) if succ else None
        arc = space.arc_within(image, d.scale) if w is None else d.arcs[w]
        if arc is None or uniform:
            return arc
        lo, hi = arc
        return min({lo, hi % n, *(j for j in near if arc_contains(arc, j, n))}, key=key)

    def draw(succ: tuple[int, int] | list[int]) -> int:
        if not by_arc:
            return succ[rng.randrange(len(succ))]
        lo, hi = succ
        r = rng.randrange(hi - lo + 1)
        return lo + r if hi < n else (r if r <= hi - n else lo + r - hi + n - 1)

    settled: dict[int, tuple[int, int] | list[int] | int | None] = {}
    deferred = 0  # one-index draws not yet made
    states = [start]
    for i in range(length):
        x = states[-1]
        if x not in settled:
            settled[x] = settle(x)
        got = settled[x]
        if got is None:
            raise DiscretizationTooCoarseError(
                f"step {i}: no legal successor inside D[f(x_{i})]"
            )
        if not uniform:
            states.append(got)
        elif got[0] == got[-1]:  # successors are distinct and ascending: one index
            states.append(got[0])
            deferred += 1
        else:
            while deferred:
                rng.randrange(1)
                deferred -= 1
            states.append(draw(got))
    return PseudoOrbit(tuple(states), d.label, seed, tuple(states[1:]))


def verify_pseudo_orbit(orbit: PseudoOrbit, system: SystemSpec, d: Entourage) -> bool:
    """Re-check every step of an orbit against the D-membership predicate."""
    system.space.check_same(d.space, "entourage")
    system.space.check_indices(orbit.states, "orbit")
    images = system.grid_images
    return all(
        entourage_holds(d, images[x][0], y) for x, y in zip(orbit.states, orbit.states[1:])
    )


def find_shadow_point(
    orbit: PseudoOrbit,
    e: Entourage,
    system: SystemSpec,
    *,
    candidates: Iterable[int] | None = None,
) -> ShadowReport:
    """Exhaustive search for a grid point whose exact orbit E-shadows the orbit.

    Candidates are scanned in ascending index order and the first
    full-horizon witness is returned, so witnesses are deterministic.  A
    negative report records the first candidate with the latest failure
    step, and that step; on spaces small enough to scan fully it means no
    grid point shadows.

    For a metric E only the candidates in E[x_0], the closed ball that
    :func:`entourage_holds` tests at step 0, are walked: every other one
    fails at step 0, so it can be neither the witness nor, once one
    candidate passes step 0, the best candidate.  When none passes, every
    candidate is scanned.  Raises :class:`OutOfRangeError` for a candidate
    or an orbit state that is not a grid index.
    """
    space = system.space
    space.check_same(e.space, "entourage")
    space.check_indices(orbit.states, "orbit")
    points, n = space.points, space.n
    scan = range(n) if candidates is None else sorted(candidates)
    if candidates is not None:
        space.check_indices(scan, "candidates")
    if e.scale is not None and orbit.states:
        ball = space.indices_within(points[orbit.states[0]], e.scale)
        if candidates is not None:
            ball = sorted(set(scan).intersection(ball))
        scan = ball or scan
    T = orbit.horizon
    best_y: int | None = None
    best_step: int | None = None
    for y in scan:
        coords, at = points[y], y
        for i, x in enumerate(orbit.states):
            if not entourage_holds(e, coords, x):
                break
            if i < T:
                coords, at = system.orbit_step(coords, at)
        else:
            return ShadowReport(True, y, T, e.label, None, None)
        if best_step is None or i > best_step:
            best_y, best_step = y, i
    return ShadowReport(False, None, T, e.label, best_step, best_y)


def candidate_levels(basis: UniformityBasis) -> list[Entourage]:
    """Basis levels eligible as shadowing moduli (see module docstring)."""
    space = basis.space
    discrete, least = space.geometry == Geometry.DISCRETE, space.resolution - COMPARISON_SLACK
    return [lvl for lvl in basis.levels[:-1]
            if lvl.scale is None or (lvl.scale > 0 if discrete else lvl.scale >= least)]


def estimate_shadowing_modulus(
    system: SystemSpec,
    e: Entourage,
    basis: UniformityBasis,
    trials: int,
    length: int,
    seed: int,
    *,
    allowed: Iterable[int] | None = None,
) -> ShadowingModulusReport:
    """Scan basis levels coarse-to-fine for a level whose pseudo-orbits all shadow.

    Per level, one deterministic adversarial-drift orbit plus ``trials``
    seeded uniform orbits are generated and searched exhaustively; the
    first level with zero failures is returned.  A level where a walk
    dead-ends (:class:`DiscretizationTooCoarseError`) gives no evidence and
    is skipped.  If no level passes, the finest failing level's orbit is
    returned as the counterexample.  The result is sampled evidence, not a
    proof.

    Each distinct orbit is searched once per call.  For a metric E an exact
    orbit (each state the grid image of the last) is E-shadowed by its own
    start at distance 0, with no search.  So for a metric E, when every grid
    image is a grid point and no ``allowed`` set confines the walks, a level
    that is the diagonal passes at once, with no orbit generated: each of
    its pseudo-orbits is an exact orbit.  ``trials``, ``length`` and the
    spaces of ``e`` and ``basis`` are checked before any level is scanned.
    """
    check_count(trials, "trials")
    check_count(length, "length")
    system.space.check_same(basis.space, "basis")
    system.space.check_same(e.space, "entourage")
    pool = sorted(allowed) if allowed is not None else None
    images = system.grid_images
    exact = e.scale is not None and allowed is None and all(x[3] is not None for x in images)
    verdicts: dict[tuple[int, ...], bool] = {}
    levels = candidate_levels(basis)
    scanned = []
    last_failure: PseudoOrbit | None = None
    last_mode: str | None = None
    runs = [(MODE_DRIFT, seed)] + [(MODE_UNIFORM, seed * 1_000_003 + t) for t in range(trials)]
    for lvl in levels:
        scanned.append(lvl.label)
        if exact and lvl.is_diagonal_only():  # every pseudo-orbit is an exact orbit
            return ShadowingModulusReport(True, lvl, None, None, tuple(scanned), trials, length)
        try:
            for mode, orbit_seed in runs:
                orbit = generate_pseudo_orbit(
                    system, lvl, length, orbit_seed, mode, allowed=pool
                )
                states = orbit.states
                if states not in verdicts:
                    verdicts[states] = (
                        e.scale is not None
                        and all(images[x][3] == y for x, y in zip(states, states[1:]))
                    ) or find_shadow_point(orbit, e, system, candidates=pool).shadowed
                if not verdicts[states]:
                    last_failure, last_mode = orbit, mode
                    break
            else:
                return ShadowingModulusReport(
                    True, lvl, None, None, tuple(scanned), trials, length
                )
        except DiscretizationTooCoarseError:
            continue
    return ShadowingModulusReport(
        False, None, last_failure, last_mode, tuple(scanned), trials, length
    )


def iterate_shadowing_check(
    system: SystemSpec,
    e: Entourage,
    basis: UniformityBasis,
    n: int,
    trials: int,
    seed: int,
    *,
    length: int = 100,
) -> IterateConsistencyReport:
    """Compare modulus found/none outcomes for f and for f^n.

    At the infinite level the outcomes agree exactly; at finite scale a
    disagreement is flagged for inspection, not raised.
    """
    check_count(n, "n")
    base = estimate_shadowing_modulus(system, e, basis, trials, length, seed)
    powered = estimate_shadowing_modulus(
        replace(system, power=n * system.power), e, basis, trials, length, seed
    )
    return IterateConsistencyReport(
        power=n,
        base_found=base.found,
        power_found=powered.found,
        base_level=base.modulus.label if base.modulus else None,
        power_level=powered.modulus.label if powered.modulus else None,
    )


def isobasism_check(system: SystemSpec, basis: UniformityBasis) -> IsobasismReport:
    """Whether (x, y) in V iff (f(x), f(y)) in V, per basis level.

    Grid bijections (resonant rotations, permutations, odometers) are
    checked exactly through the induced index permutation.  Other maps run
    in within-tolerance mode: a level with a positive scale only fails on a
    pair whose image distance clears the scale by more than 1e-9.  A level
    without one (explicit rows, or the scale-0 floor of a sorted space) is
    read through the snapped images, so the floor fails wherever two grid
    points' images snap to one index.
    """
    space, images = system.space, system.grid_images
    space.check_same(basis.space, "basis")
    perm = grid_permutation(system)
    mode = "exact" if perm is not None else "tolerance"
    n, levels = space.n, []
    for lvl in basis.levels:

        def kept(x: int, y: int) -> bool:
            before = lvl.contains(x, y)
            if perm is not None:
                return before == lvl.contains(perm[x], perm[y])
            if not lvl.scale:
                return before == lvl.contains(images[x][1], images[y][1])
            dist = space.distance(images[x][0], images[y][0])
            after = dist <= lvl.scale + COMPARISON_SLACK
            return before == after or abs(dist - lvl.scale) <= 1e-9

        witness = next(((x, y) for x in range(n) for y in range(n) if not kept(x, y)), None)
        levels.append(LevelIsobasism(lvl.label, witness is None, witness))
    return IsobasismReport(mode, tuple(levels))


def disconnectedness_dichotomy(
    space: FinitePhaseSpace,
    e: Entourage,
    basis: UniformityBasis,
    trials: int,
    seed: int,
) -> DichotomyReport:
    """Finite echo of "identity has shadowing iff the space is totally disconnected".

    The space is classified from the scale-relation graph: connected at
    scale when it has one component and the scale resolves the grid;
    totally disconnected at scale when every component is a singleton and
    the model records a gap (single-point spaces qualify trivially).  The
    shadowing outcome comes from the modulus estimator for the identity
    map; agreement means the two booleans coincide, the dichotomy's finite echo.

    On a sorted space a metric E's components are the index runs between
    the neighbours x, x + 1 (and n - 1, 0 on the circle) that no ball joins;
    any other relation counts them by Tarjan on its rows.
    """
    space.check_same(e.space, "entourage")
    n, arcs = space.n, e.arcs
    if arcs is not None:
        wraps = space._wraps
        ends = range(n if wraps else n - 1)
        breaks = sum(not arc_contains(arcs[x], (x + 1) % n, n) for x in ends)
        count = max(breaks, 1) if wraps else breaks + 1
    else:
        # an entourage is symmetric, so its strongly connected components are
        # the connected components of the scale relation
        rows = tuple(tuple(e.row(x)) for x in range(n))
        count = len(strongly_connected_components(TransitionGraph(n, rows)))
    connected = count == 1 and (
        e.scale is None or e.scale >= space.resolution - COMPARISON_SLACK or n == 1
    )
    totally_disconnected = n == 1 or (space.gap is not None and count == n)
    report = estimate_shadowing_modulus(
        identity_system(space), e, basis, trials, DICHOTOMY_LENGTH, seed
    )
    return DichotomyReport(
        connected_at_scale=connected,
        totally_disconnected_at_scale=totally_disconnected,
        component_count=count,
        modulus_found=report.found,
        modulus_label=report.modulus.label if report.modulus else None,
        agreement=report.found == totally_disconnected,
        scale_label=e.label,
    )
