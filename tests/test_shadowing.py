import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaindyn import (
    GOLDEN_ALPHA,
    DiscretizationTooCoarseError,
    Entourage,
    OutOfRangeError,
    PseudoOrbit,
    UniformityBasis,
    build_transition_graph,
    cantor_space,
    catalog_systems,
    circle_grid,
    diagonal_entourage,
    discrete_grid,
    disconnectedness_dichotomy,
    doubling_system,
    dyadic_basis,
    estimate_shadowing_modulus,
    find_shadow_point,
    generate_pseudo_orbit,
    identity_system,
    interval_grid,
    isobasism_check,
    iterate,
    iterate_shadowing_check,
    load_system,
    make_epsilon_entourage,
    odometer_system,
    permutation_system,
    rotation_system,
    square_system,
    tent_system,
    verify_pseudo_orbit,
)
from chaindyn.chaingraph import image_successors
from chaindyn.shadowing import LevelIsobasism, candidate_levels, entourage_holds
from chaindyn.systems import MapKind, SystemSpec
from chaindyn.uniform import FinitePhaseSpace, Geometry
from oracles import (
    modulus_scan_bruteforce,
    pseudo_orbit_bruteforce,
    shadow_bruteforce,
    sorted_list_space,
)
from test_uniform import sorted_spaces

CATALOG = {n: catalog_systems(n) for n in (8, 16)}

# Irregular sorted lists; on the circle 0.0 and 1.0 are one point listed twice,
# so that list keeps the full scan, and the same list without 1.0 is sorted.
IRREGULAR = (0.0, 0.1, 0.25, 0.3, 0.45, 0.6, 0.7, 0.85, 1.0)
IRREGULAR_CIRCLE = sorted_list_space(IRREGULAR, Geometry.CIRCLE)
SORTED_IRREGULAR_CIRCLE = sorted_list_space(IRREGULAR[:-1], Geometry.CIRCLE)
ORBIT_SYSTEMS = (
    *CATALOG[16],
    *catalog_systems(33),
    SystemSpec("rotation-list", MapKind.ROTATION, IRREGULAR_CIRCLE, (0.3819660112501051,)),
    SystemSpec("doubling-list", MapKind.DOUBLING, IRREGULAR_CIRCLE),
    SystemSpec("rotation-sorted-list", MapKind.ROTATION, SORTED_IRREGULAR_CIRCLE,
               (0.3819660112501051,)),
    SystemSpec("doubling-sorted-list", MapKind.DOUBLING, SORTED_IRREGULAR_CIRCLE),
    SystemSpec("square-list", MapKind.SQUARE, sorted_list_space(IRREGULAR, Geometry.INTERVAL)),
    identity_system(sorted_list_space(IRREGULAR, Geometry.DISCRETE)),
)


#: Off-grid rotation, tent and square orbits, the odometer, and the identity on
#: a Cantor set given as an explicit ``points:`` list.
CANTOR_POINTS = load_system("cantor.yaml", {
    "name": "cantor-points", "map": "identity", "geometry": "discrete",
    "points": [p[0] for p in cantor_space(3).points],
})
SHADOW_SYSTEMS = (
    rotation_system(GOLDEN_ALPHA, 16),
    tent_system(1.5, 16),
    square_system(17),
    odometer_system(4),
    CANTOR_POINTS,
)


#: Permutations and the identity on ``points:`` spaces that are not sorted 1-D
#: coordinates: an unsorted discrete list and 2-D points.
UNSORTED_SYSTEMS = tuple(load_system(f"{name}.yaml", {"name": name, **doc}) for name, doc in (
    ("unsorted", {"map": "permutation", "geometry": "discrete",
                  "points": [0.9, 0.1, 0.5, 0.3, 0.7, 0.2], "cycles": [[0, 2, 4], [1, 5]]}),
    ("plane", {"map": "permutation", "geometry": "discrete",
               "points": [[0.1, 0.2], [0.5, 0.7], [0.9, 0.4], [0.3, 0.8]], "cycles": [[0, 1, 3]]}),
    ("torus", {"map": "identity", "geometry": "product-of-circles",
               "points": [[0.1, 0.2], [0.5, 0.7], [0.9, 0.4], [0.3, 0.8]]}),
))


def explicit_relations(space):
    """Explicit relations on a space: pairs closed and verbatim, and an unsorted space's floor.

    Verbatim pairs from the even indices only leave the odd rows empty, so
    walks through them dead-end.
    """
    n = space.n
    pairs = [(x, (3 * x + 1) % n) for x in range(n)]
    relations = [
        Entourage.from_pairs(space, pairs, "closed"),
        Entourage.from_pairs(space, pairs, "verbatim", close=False),
        Entourage.from_pairs(space, pairs[::2], "verbatim-even", close=False),
    ]
    if space._sorted is None:
        relations.append(diagonal_entourage(space))
    return relations


def assert_orbit_is_a_chain(system, d, length, seed, mode):
    """A walk that does not dead-end passes its verifier and is a path of the graph."""
    try:
        orbit = generate_pseudo_orbit(system, d, length, seed=seed, mode=mode)
    except DiscretizationTooCoarseError:
        return
    graph = build_transition_graph(system, d)
    assert all(graph.has_edge(a, b) for a, b in zip(orbit.states, orbit.states[1:]))
    assert verify_pseudo_orbit(orbit, system, d), (system.name, d.label, mode)


@st.composite
def orbit_systems(draw):
    """A catalog system, or a rotation or doubling on a random circle list with 0.0 and 1.0."""
    if draw(st.booleans()):
        system = draw(st.sampled_from(ORBIT_SYSTEMS))
    else:
        ks = draw(st.sets(st.integers(1, 10**6 - 1), min_size=1, max_size=20))
        space = sorted_list_space([0.0, 1.0, *(k / 10**6 for k in ks)], Geometry.CIRCLE)
        system = draw(st.sampled_from((
            SystemSpec("rotation-list", MapKind.ROTATION, space, (0.3819660112501051,)),
            SystemSpec("doubling-list", MapKind.DOUBLING, space),
        )))
    return replace(system, power=draw(st.integers(1, 3)))


@st.composite
def scan_systems(draw):
    """An orbit system, an odometer, a permutation, or the identity on a Cantor set or a list."""
    kind = draw(st.sampled_from(("orbit", "odometer", "permutation", "cantor", "list")))
    if kind == "orbit":
        return draw(orbit_systems())
    if kind == "odometer":
        return odometer_system(draw(st.integers(2, 6)))
    if kind == "permutation":
        n = draw(st.integers(2, 12))
        perm = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
        return permutation_system([perm[a:b] for a, b in zip([0, *cuts], [*cuts, n])], n)
    if kind == "cantor":
        return identity_system(cantor_space(draw(st.integers(1, 5))))
    ks = draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=12))
    return identity_system(sorted_list_space([k / 10**6 for k in ks], Geometry.DISCRETE))


def below_gap_basis(space: FinitePhaseSpace) -> UniformityBasis:
    """A basis whose one candidate level, eps=0.1, is the diagonal on a grid of at most 10 points."""
    return UniformityBasis((make_epsilon_entourage(space, 0.1), diagonal_entourage(space)))


def counting_draws(monkeypatch) -> list[int]:
    """Count every ``random.Random.randrange`` call in one list entry each."""
    calls, randrange = [], random.Random.randrange

    def counted(self, *args, **kwargs):
        calls.append(1)
        return randrange(self, *args, **kwargs)

    monkeypatch.setattr(random.Random, "randrange", counted)
    return calls


def recording_searches(monkeypatch) -> list[tuple[int, ...]]:
    """Record the states of every orbit that the modulus scan hands to ``find_shadow_point``."""
    import chaindyn.shadowing as shadowing

    searched, search = [], shadowing.find_shadow_point

    def recorded(orbit, *args, **kwargs):
        searched.append(orbit.states)
        return search(orbit, *args, **kwargs)

    monkeypatch.setattr(shadowing, "find_shadow_point", recorded)
    return searched


class TestGeneration:
    def test_identity_drift_walks_the_grid(self):
        s = identity_system(interval_grid(21))
        d = make_epsilon_entourage(s.space, s.space.resolution)
        orbit = generate_pseudo_orbit(s, d, 20, seed=0, mode="adversarial-drift")
        assert orbit.states == tuple(range(21))
        assert orbit.perturbations == tuple(range(1, 21))

    def test_deterministic_given_seed(self):
        s = doubling_system(64)
        d = make_epsilon_entourage(s.space, 2 / 64)
        a = generate_pseudo_orbit(s, d, 40, seed=9, mode="uniform")
        b = generate_pseudo_orbit(s, d, 40, seed=9, mode="uniform")
        assert a == b
        c = generate_pseudo_orbit(s, d, 40, seed=10, mode="uniform")
        assert a != c

    def test_uniform_steps_are_graph_edges(self):
        s = doubling_system(32)
        d = make_epsilon_entourage(s.space, 2 * s.space.resolution)
        g = build_transition_graph(s, d)
        orbit = generate_pseudo_orbit(s, d, 50, seed=3, mode="uniform")
        for a, b in zip(orbit.states, orbit.states[1:]):
            assert g.has_edge(a, b)
        assert verify_pseudo_orbit(orbit, s, d)
        for system in (s, square_system(17), *UNSORTED_SYSTEMS):
            for relation in explicit_relations(system.space):
                for seed in range(4):
                    assert_orbit_is_a_chain(system, relation, 50, seed, "uniform")

    def test_every_emitted_orbit_revalidates(self):
        for system in catalog_systems(16):
            d = make_epsilon_entourage(system.space, 2 * system.space.resolution)
            for mode in ("uniform", "adversarial-drift"):
                orbit = generate_pseudo_orbit(system, d, 15, seed=5, mode=mode)
                assert verify_pseudo_orbit(orbit, system, d), (system.name, mode)
        for system in (*catalog_systems(16), CANTOR_POINTS, *UNSORTED_SYSTEMS):
            for relation in explicit_relations(system.space):
                for mode in ("uniform", "adversarial-drift"):
                    assert_orbit_is_a_chain(system, relation, 15, 5, mode)

    def test_too_coarse_raises_with_step(self):
        # identity images are on the grid, so even a tiny ball holds its own
        # point; the square map's third point 1/256 is off the 33-point grid
        sp = cantor_space(2)
        s = identity_system(sp)
        d = make_epsilon_entourage(sp, 1e-6)
        orbit = generate_pseudo_orbit(s, d, 5, seed=1, mode="uniform")
        assert orbit.horizon == 5
        sq = square_system(33)
        tiny = make_epsilon_entourage(sq.space, 1e-9)
        with pytest.raises(DiscretizationTooCoarseError, match="step 2"):
            generate_pseudo_orbit(sq, tiny, 5, seed=1, mode="uniform", start=16)

    def test_length_must_be_positive(self):
        from chaindyn import InvalidParameterError

        s = doubling_system(8)
        d = make_epsilon_entourage(s.space, 0.25)
        with pytest.raises(InvalidParameterError):
            generate_pseudo_orbit(s, d, 0, seed=1, mode="uniform")
        with pytest.raises(InvalidParameterError):
            generate_pseudo_orbit(s, d, 5, seed=1, mode="sideways")

    def test_thread_pool_does_not_change_results(self, monkeypatch):
        s = doubling_system(64)
        d = make_epsilon_entourage(s.space, 1 / 64)
        e = make_epsilon_entourage(s.space, 1 / 8)
        orbit = generate_pseudo_orbit(s, d, 8, seed=13, mode="uniform")
        monkeypatch.setenv("CHAINDYN_THREADS", "1")
        single = find_shadow_point(orbit, e, s)
        single_graph = build_transition_graph(s, d)
        monkeypatch.setenv("CHAINDYN_THREADS", "8")
        pooled = find_shadow_point(orbit, e, s)
        assert single == pooled
        assert build_transition_graph(s, d) == single_graph

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_orbits_match_expanded_successor_lists(self, data):
        # drift takes the min over every successor, uniform the r-th of the
        # ascending list at the same seed
        system = data.draw(orbit_systems())
        space = system.space
        h = space.resolution
        eps = data.draw(st.one_of(
            st.sampled_from((h / 2, h, 2 * h, 3 * h, 0.25, 0.5 - 1e-12, 0.5, 1.0)),
            st.floats(min_value=1e-6, max_value=1.0)))
        d = make_epsilon_entourage(space, eps)
        mode = data.draw(st.sampled_from(("uniform", "adversarial-drift")))
        seed = data.draw(st.integers(0, 10**6))
        index = st.one_of(st.none(), st.integers(0, space.n - 1))
        start, target = data.draw(index), data.draw(index)
        expected = pseudo_orbit_bruteforce(system, d, 25, seed, mode, start, target)
        try:
            got = generate_pseudo_orbit(
                system, d, 25, seed, mode, start=start, target=target).states
        except DiscretizationTooCoarseError as exc:
            got = int(str(exc).split()[1].rstrip(":"))
        assert got == expected

    def test_explicit_diagonal_rows_pass_the_verifier(self):
        # explicit diagonal rows carry no scale: every image, on the grid or
        # off it, reads the row of its nearest grid point, so each walk is
        # the snapped orbit, a path of the graph and a verified chain
        s = square_system(9)
        diag = Entourage.from_pairs(s.space, [], "diag-rows")
        assert diag.scale is None and diag.arcs is None
        images = s.grid_images
        assert build_transition_graph(s, diag).succ == tuple((im[1],) for im in images)
        on_grid = set()
        for start in range(9):
            for mode in ("uniform", "adversarial-drift"):
                orbit = generate_pseudo_orbit(s, diag, 6, seed=4, mode=mode, start=start)
                states = orbit.states
                assert all(images[x][1] == y for x, y in zip(states, states[1:]))
                assert verify_pseudo_orbit(orbit, s, diag), (start, mode)
                on_grid.update(images[x][3] is not None for x in states[:-1])
        assert on_grid == {True, False}

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_restricted_orbits_match_expanded_successor_lists(self, data):
        # an allowed set takes the list path, on metric and on explicit entourages
        system = data.draw(orbit_systems())
        space = system.space
        index = st.integers(0, space.n - 1)
        if data.draw(st.booleans()):
            d = make_epsilon_entourage(space, data.draw(st.sampled_from(
                (space.resolution, 2 * space.resolution, 0.25, 0.5))))
        else:
            d = Entourage.from_pairs(space, data.draw(st.lists(st.tuples(index, index))), "pairs")
        allowed = data.draw(st.sets(index, min_size=1))
        mode = data.draw(st.sampled_from(("uniform", "adversarial-drift")))
        seed = data.draw(st.integers(0, 10**6))
        start = data.draw(st.none() | st.sampled_from(sorted(allowed)))
        target = data.draw(st.none() | index)
        expected = pseudo_orbit_bruteforce(
            system, d, 25, seed, mode, start, target, allowed=allowed)
        try:
            got = generate_pseudo_orbit(
                system, d, 25, seed, mode, start=start, target=target, allowed=allowed).states
        except DiscretizationTooCoarseError as exc:
            got = int(str(exc).split()[1].rstrip(":"))
        assert got == expected

    @pytest.mark.parametrize("mode", ["uniform", "adversarial-drift"])
    @pytest.mark.parametrize("scale", [1 / 8, 1 / 32])
    def test_successors_are_found_once_per_state(self, monkeypatch, mode, scale):
        # one ball per distinct state whose image is off the grid; on-grid
        # images read D's stored runs
        s = doubling_system(96)
        d = dyadic_basis(s.space, 8).by_label(f"eps={scale:g}")
        images = s.grid_images
        calls = []
        arc_within = FinitePhaseSpace.arc_within

        def counted(space, coords, radius):
            calls.append(coords)
            return arc_within(space, coords, radius)

        monkeypatch.setattr(FinitePhaseSpace, "arc_within", counted)
        orbit = generate_pseudo_orbit(s, d, 100, seed=5, mode=mode)
        off_grid = {x for x in orbit.states[:-1] if images[x][3] is None}
        assert off_grid
        assert len(calls) == len(off_grid) <= len(set(orbit.states))

    @pytest.mark.parametrize(
        "system, cycle",
        [(odometer_system(6), 64), (identity_system(cantor_space(4)), 1)],
        ids=["odometer-6", "cantor-4-identity"],
    )
    def test_forced_levels_match_a_draw_at_every_step(self, monkeypatch, system, cycle):
        # below the gap every ball is one point, so each step is forced: the
        # orbit draws its start and no more, and equals the oracle's, which
        # draws at every step
        d = dyadic_basis(system.space, 8).by_label(f"eps={2.0 ** -7:g}")
        assert d.scale < system.space.gap and d.is_diagonal_only()
        draws = counting_draws(monkeypatch)
        for length in sorted({1, cycle - 1, cycle, cycle + 1, 100, 300} - {0}):
            for seed in range(4):
                expected = pseudo_orbit_bruteforce(system, d, length, seed, "uniform")
                del draws[:]
                assert generate_pseudo_orbit(system, d, length, seed).states == expected
                assert len(draws) == 1, (length, seed)
                again = generate_pseudo_orbit(system, d, length, seed, start=expected[0])
                assert again.states == expected and len(draws) == 1

    @pytest.mark.parametrize("case", ["rows", "runs"])
    def test_a_choice_stops_the_look_ahead(self, monkeypatch, case):
        # one state's successors hold two indices, the rest one: the walk
        # draws up to its last choice and matches the oracle at every length
        if case == "rows":  # the odometer's 8-cycle; rows 0 and 1 hold {0, 1}
            s = odometer_system(3)
            d = Entourage.from_pairs(s.space, [(0, 1)], "pair-0-1")
        else:  # identity on a list: only the ball at 0.1 holds two points
            s = identity_system(sorted_list_space([0.0, 0.1, 0.15, 0.5, 0.9], Geometry.DISCRETE))
            d = make_epsilon_entourage(s.space, 0.06)
            assert d.arcs is not None
        images = s.grid_images
        choice = {x for x in range(s.space.n) if len(d.row(images[x][1])) == 2}
        assert choice and len(choice) < s.space.n
        draws = counting_draws(monkeypatch)
        chosen = set()
        for length in (1, 2, 5, 7, 8, 9, 30):
            for seed in range(8):
                expected = pseudo_orbit_bruteforce(s, d, length, seed, "uniform")
                del draws[:]
                states = generate_pseudo_orbit(s, d, length, seed).states
                assert states == expected
                steps = [i for i, x in enumerate(states[:-1]) if x in choice]
                assert len(draws) >= 1 + len(steps)
                chosen.update((states[i], states[i + 1]) for i in steps)
        assert len(chosen) > len({x for x, _ in chosen})  # some choice went both ways

    @pytest.mark.parametrize(
        "kwargs",
        [{"allowed": {-1, 3, 20}}, {"allowed": {3, 16}}, {"target": 16}, {"target": -1}],
        ids=["allowed-negative", "allowed-past-end", "target-past-end", "target-negative"],
    )
    def test_index_outside_the_grid_is_out_of_range(self, kwargs):
        s = doubling_system(16)
        d = make_epsilon_entourage(s.space, 0.125)
        with pytest.raises(OutOfRangeError):
            generate_pseudo_orbit(s, d, 3, 1, "uniform", **kwargs)

    def test_restriction_to_allowed_set(self):
        s = identity_system(interval_grid(21))
        d = make_epsilon_entourage(s.space, 0.3)
        allowed = {0, 1, 2, 3}
        orbit = generate_pseudo_orbit(
            s, d, 30, seed=2, mode="uniform", allowed=allowed
        )
        assert set(orbit.states) <= allowed


class TestFindShadowPoint:
    def test_constant_orbit_at_fixed_point(self):
        s = square_system(16)
        d = make_epsilon_entourage(s.space, s.space.resolution)
        orbit = generate_pseudo_orbit(s, d, 10, seed=0, mode="uniform", start=0)
        e = make_epsilon_entourage(s.space, s.space.resolution)
        report = find_shadow_point(orbit, e, s)
        assert report.shadowed

    def test_identity_drift_not_shadowed(self):
        s = identity_system(interval_grid(21))
        d = make_epsilon_entourage(s.space, s.space.resolution)
        orbit = generate_pseudo_orbit(s, d, 20, seed=0, mode="adversarial-drift")
        e = make_epsilon_entourage(s.space, 0.1)
        report = find_shadow_point(orbit, e, s)
        assert not report.shadowed
        assert report.witness is None
        # exhaustive recheck: no grid point stays within 0.1 of 0..1
        for y in range(21):
            ok = all(
                entourage_holds(e, s.space.points[y], x) for x in orbit.states
            )
            assert not ok

    def test_witness_is_smallest_and_sound(self):
        s = identity_system(interval_grid(21))
        d = make_epsilon_entourage(s.space, s.space.resolution)
        orbit = generate_pseudo_orbit(
            s, d, 6, seed=0, mode="uniform", start=10, allowed=range(8, 13)
        )
        e = make_epsilon_entourage(s.space, 0.3)
        report = find_shadow_point(orbit, e, s)
        assert report.shadowed
        # independent re-iteration of the witness
        coords = s.space.points[report.witness]
        for i, x in enumerate(orbit.states):
            assert entourage_holds(e, coords, x)
            coords = iterate(s, coords, 1)
        # minimality of the witness index
        for y in range(report.witness):
            coords = s.space.points[y]
            ok = True
            for x in orbit.states:
                if not entourage_holds(e, coords, x):
                    ok = False
                    break
                coords = iterate(s, coords, 1)
            assert not ok

    def test_doubling_long_horizon_degenerates(self):
        # grid orbits of the doubling map collapse (2^6 * k/64 = 0 mod 1),
        # so T=20 pseudo-orbits admit no grid witness at E=1/8
        s = doubling_system(64)
        d = make_epsilon_entourage(s.space, 1 / 64)
        e = make_epsilon_entourage(s.space, 1 / 8)
        for seed in (1, 2, 3, 7):
            orbit = generate_pseudo_orbit(s, d, 20, seed=seed, mode="uniform")
            report = find_shadow_point(orbit, e, s)
            assert not report.shadowed
            assert report.best_candidate is not None
            assert report.failure_step is not None

    def test_doubling_short_horizon_shadowed(self):
        s = doubling_system(64)
        d = make_epsilon_entourage(s.space, 1 / 64)
        e = make_epsilon_entourage(s.space, 1 / 8)
        for seed in (1, 2, 3):
            orbit = generate_pseudo_orbit(s, d, 4, seed=seed, mode="uniform")
            report = find_shadow_point(orbit, e, s)
            assert report.shadowed

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_score_every_candidate_oracle(self, data):
        n = data.draw(st.sampled_from(sorted(CATALOG)))
        system = replace(data.draw(st.sampled_from(CATALOG[n])), power=data.draw(st.integers(1, 2)))
        space = system.space
        e = make_epsilon_entourage(
            space, data.draw(st.sampled_from([0.5, 0.25, 0.125, 2 * space.resolution]))
        )
        if data.draw(st.booleans()):
            states = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
            orbit = PseudoOrbit(tuple(states), "random", None, tuple(states[1:]))
        else:
            scale = data.draw(st.sampled_from([1, 2, 4])) * space.resolution
            d = make_epsilon_entourage(space, scale)
            mode = data.draw(st.sampled_from(["uniform", "adversarial-drift"]))
            orbit = generate_pseudo_orbit(
                system, d, data.draw(st.integers(1, 8)), data.draw(st.integers(0, 99)), mode
            )
        candidates = data.draw(st.none() | st.sets(st.integers(0, n - 1)))
        got = find_shadow_point(orbit, e, system, candidates=candidates)
        assert got == shadow_bruteforce(orbit, e, system, candidates)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_oracle_off_the_grid_and_on_discrete_spaces(self, data):
        # orbits that leave the grid step as floats, the rest read the table
        system = data.draw(st.sampled_from(SHADOW_SYSTEMS))
        if system.float_step is not None:
            system = replace(system, power=data.draw(st.integers(1, 2)))
        space, n = system.space, system.space.n
        if data.draw(st.booleans()):
            index = st.integers(0, n - 1)
            e = Entourage.from_pairs(space, data.draw(st.lists(st.tuples(index, index))), "pairs")
        else:
            h = space.resolution
            e = make_epsilon_entourage(space, data.draw(st.sampled_from([h / 2, h, 2 * h, 0.25])))
        states = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        if data.draw(st.booleans()):
            # a true orbit's snaps, so that some candidate shadows for several steps
            start = data.draw(st.integers(0, n - 1))
            states = [space.nearest_index(iterate(system, space.points[start], t))
                      for t in range(len(states))]
        orbit = PseudoOrbit(tuple(states), "random", None, tuple(states[1:]))
        candidates = data.draw(st.none() | st.sets(st.integers(0, n - 1)))
        got = find_shadow_point(orbit, e, system, candidates=candidates)
        assert got == shadow_bruteforce(orbit, e, system, candidates)

    @pytest.mark.parametrize("candidates", [None, range(0, 96, 3)], ids=["all", "every-third"])
    def test_scan_starts_in_the_first_ball(self, monkeypatch, candidates):
        # every candidate outside E[x_0] fails at step 0, so only those inside
        # are walked; x_0 does not recur, so its checks count the candidates walked
        import chaindyn.shadowing as shadowing

        s = doubling_system(96)
        e = make_epsilon_entourage(s.space, 4 * s.space.resolution)
        states = (0, 48, 12, 30)
        orbit = PseudoOrbit(states, "drawn", None, states[1:])
        checks = []
        holds = shadowing.entourage_holds

        def counted(e, a, b_index):
            checks.append(b_index)
            return holds(e, a, b_index)

        monkeypatch.setattr(shadowing, "entourage_holds", counted)
        report = find_shadow_point(orbit, e, s, candidates=candidates)
        pool = range(96) if candidates is None else candidates
        first_ball = {y for y in pool if entourage_holds(e, s.space.points[y], 0)}
        assert first_ball
        assert checks.count(0) <= len(first_ball)
        assert report == shadow_bruteforce(orbit, e, s, candidates)

    @pytest.mark.parametrize(
        "candidates", [[-3, 2], [2, 64]], ids=["negative", "past-end"])
    def test_candidate_outside_the_grid_is_out_of_range(self, candidates):
        s = doubling_system(64)
        d = make_epsilon_entourage(s.space, 1 / 64)
        orbit = generate_pseudo_orbit(s, d, 4, seed=1, mode="uniform")
        with pytest.raises(OutOfRangeError):
            find_shadow_point(orbit, d, s, candidates=candidates)

    def test_orbit_state_outside_the_grid_is_out_of_range(self):
        s = doubling_system(16)
        e = make_epsilon_entourage(s.space, 0.125)
        for states in ((3, -4), (16, 3)):
            orbit = PseudoOrbit(states, "record", None, states[1:])
            with pytest.raises(OutOfRangeError):
                find_shadow_point(orbit, e, s)

    def test_monotone_in_the_target_entourage(self):
        # E-shadowed implies E'-shadowed for any coarser E'
        s = doubling_system(32)
        d = make_epsilon_entourage(s.space, 1 / 32)
        basis = dyadic_basis(s.space, 6)
        for seed in range(6):
            orbit = generate_pseudo_orbit(s, d, 5, seed=seed, mode="uniform")
            shadowed_at = [
                find_shadow_point(orbit, lvl, s).shadowed
                for lvl in basis.levels[:-1]
            ]
            # levels are ordered coarse to fine: once false, never true again
            for coarse, fine in zip(shadowed_at, shadowed_at[1:]):
                assert coarse or not fine


class TestModulusEstimate:
    def test_cantor_one_constant_orbits(self):
        sp = cantor_space(1)
        s = identity_system(sp)
        e = make_epsilon_entourage(sp, 0.9 * sp.gap)
        report = estimate_shadowing_modulus(
            s, e, dyadic_basis(sp, 8), trials=50, length=100, seed=11
        )
        assert report.found
        assert report.modulus.scale < 2 / 3  # below the minimum separation

    def test_interval_101_adversarial_counterexample(self):
        sp = interval_grid(101)
        s = identity_system(sp)
        e = make_epsilon_entourage(sp, 0.1)
        report = estimate_shadowing_modulus(
            s, e, dyadic_basis(sp, 8), trials=20, length=100, seed=11
        )
        assert not report.found
        assert report.counterexample_mode == "adversarial-drift"
        assert report.counterexample.states[0] == 0
        assert report.counterexample.states[-1] == 100
        # deterministic: independent rerun is identical
        again = estimate_shadowing_modulus(
            s, e, dyadic_basis(sp, 8), trials=20, length=100, seed=11
        )
        assert again == report

    def test_doubling_256_documented_outcome(self):
        # at the default horizon the grid degeneration wins: no level passes
        s = doubling_system(256)
        e = make_epsilon_entourage(s.space, 1 / 16)
        report = estimate_shadowing_modulus(
            s, e, dyadic_basis(s.space, 9), trials=10, length=100, seed=5
        )
        assert not report.found
        assert report.note.startswith("sampled evidence")

    def test_dead_ended_uniform_walk_skips_the_level(self):
        # 0 is fixed and 1 -> 2 -> 3 -> 1, with walks confined to {0, 1}.  At
        # scale 2 every walk stays inside and the drift orbit 0, 1, 1, ...
        # has no 0.1-shadow: a failure.  At scale 0.1 the drift orbit stays at
        # 0 and shadows, but a uniform walk from 1 has no successor: a skip,
        # which leaves the coarse failure as the counterexample.
        s = permutation_system([[0], [1, 2, 3]], 4)
        sp = s.space
        coarse, fine = make_epsilon_entourage(sp, 2.0), make_epsilon_entourage(sp, 0.1)
        basis = UniformityBasis((coarse, fine, diagonal_entourage(sp)))
        e = make_epsilon_entourage(sp, 0.1)
        drift = generate_pseudo_orbit(s, fine, 6, 3, "adversarial-drift", allowed={0, 1})
        assert find_shadow_point(drift, e, s, candidates={0, 1}).shadowed
        with pytest.raises(DiscretizationTooCoarseError):
            generate_pseudo_orbit(s, fine, 6, 3, "uniform", start=1, allowed={0, 1})
        report = estimate_shadowing_modulus(
            s, e, basis, trials=8, length=6, seed=3, allowed={0, 1}
        )
        assert not report.found
        assert report.levels_scanned == (coarse.label, fine.label)
        assert report.counterexample_mode == "adversarial-drift"
        assert report.counterexample.entourage_label == coarse.label

    def test_sub_resolution_levels_excluded_on_grids(self):
        sp = interval_grid(101)
        levels = candidate_levels(dyadic_basis(sp, 10))
        assert all(lvl.scale >= sp.resolution - 1e-12 for lvl in levels)
        # on discrete spaces every positive scale stays
        spd = cantor_space(2)
        levels = candidate_levels(dyadic_basis(spd, 10))
        assert len(levels) == 10

    def test_diagonal_floor_never_a_candidate(self):
        for sp in (interval_grid(11), cantor_space(2)):
            for lvl in candidate_levels(dyadic_basis(sp, 6)):
                assert not (lvl.scale == 0.0)

    @pytest.mark.parametrize("refusal", ["length", "entourage", "basis"])
    def test_a_diagonal_first_level_keeps_every_refusal(self, refusal):
        # odometer-2's first candidate level lies below the gap, so the scan
        # would pass there unsampled; a bad argument is refused first
        from chaindyn import IncompatibleSpaceError, InvalidParameterError

        s, other = odometer_system(2), discrete_grid(8)
        e, basis, length = make_epsilon_entourage(s.space, 0.5), below_gap_basis(s.space), 5
        assert candidate_levels(basis)[0].is_diagonal_only()
        assert estimate_shadowing_modulus(s, e, basis, 2, length, 7).found
        if refusal == "length":
            error, length = InvalidParameterError, 0
        elif refusal == "entourage":
            error, e = IncompatibleSpaceError, make_epsilon_entourage(other, 0.5)
        else:
            error, basis = IncompatibleSpaceError, below_gap_basis(other)
        with pytest.raises(error, match=refusal):
            estimate_shadowing_modulus(s, e, basis, 2, length, 7)

    @pytest.mark.parametrize("case", ["off-grid image", "allowed set", "explicit E"])
    def test_a_diagonal_level_is_sampled_unless_its_orbits_are_exact_and_shadowed(self, case):
        # one of the three conditions fails in each case, and the sampled
        # scan fails the level: the one-point circle's image is off the grid
        # and 0.1 from no orbit of it; the walk from 0 leaves the allowed set
        # {0}; and the empty relation E holds no orbit
        allowed = None
        if case == "off-grid image":
            s = rotation_system(GOLDEN_ALPHA, 1)
            e, basis = make_epsilon_entourage(s.space, 0.1), dyadic_basis(s.space, 3)
        else:
            s = odometer_system(2)
            e, basis = make_epsilon_entourage(s.space, 0.5), below_gap_basis(s.space)
            if case == "allowed set":
                allowed = {0}
            else:
                e = Entourage.from_pairs(s.space, [], "empty", close=False)
        assert candidate_levels(basis)[0].is_diagonal_only()
        report = estimate_shadowing_modulus(s, e, basis, 2, 5, 7, allowed=allowed)
        assert not report.found
        assert report == modulus_scan_bruteforce(s, e, basis, 2, 5, 7, allowed)

    def test_scan_matches_the_plain_level_loop(self):
        # every field of the report, with and without an allowed set, for a
        # metric and for an explicit E, reflexive or not.  The oracle samples
        # every level, so it also checks the diagonal levels that the scan
        # passes unsampled: about half the draws on a discrete space take a
        # basis that reaches below the gap, a metric E and no allowed set
        diagonal_passes = []

        @given(data=st.data())
        @settings(max_examples=150, deadline=None)
        def check(data):
            system = data.draw(scan_systems())
            space = system.space
            n, h = space.n, space.resolution
            depth = data.draw(st.integers(2, 7))
            deep = space.gap is not None and data.draw(st.booleans())
            if deep:  # the finest level 2^-(depth - 1) lies below the gap
                depth = max(depth, int(math.log2(1 / space.gap)) + 2)
            basis = dyadic_basis(space, depth)
            if deep or data.draw(st.booleans()):
                e = make_epsilon_entourage(
                    space, data.draw(st.sampled_from((h / 2, h, 2 * h, 0.25))))
            else:
                index = st.integers(0, n - 1)
                pairs = data.draw(st.lists(st.tuples(index, index)))
                e = Entourage.from_pairs(space, pairs, "pairs", close=data.draw(st.booleans()))
            allowed = None if deep else data.draw(
                st.none() | st.sets(st.integers(0, n - 1), min_size=1))
            trials, length = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 12))
            seed = data.draw(st.integers(0, 10**6))
            got = estimate_shadowing_modulus(
                system, e, basis, trials, length, seed, allowed=allowed)
            expected = modulus_scan_bruteforce(system, e, basis, trials, length, seed, allowed)
            assert got == expected
            diagonal_passes.append(
                got.found and got.modulus.is_diagonal_only() and e.scale is not None
                and allowed is None and all(x[3] is not None for x in system.grid_images))

        check()
        assert sum(diagonal_passes) >= 5  # 18 to 59 over 30 hypothesis seeds

    def test_forced_orbits_draw_once_and_each_distinct_orbit_is_searched_once(
        self, monkeypatch
    ):
        # odometer-6 at E = 2h: the drift orbit fails at each of the seven
        # levels down to the gap, and the scan passes at the first level below
        # it, the diagonal, where every pseudo-orbit is an exact orbit, so it
        # generates none there
        import chaindyn.shadowing as shadowing

        s = odometer_system(6)
        e = make_epsilon_entourage(s.space, 2 * s.space.resolution)
        generate = shadowing.generate_pseudo_orbit
        searched, orbits = recording_searches(monkeypatch), []

        def generated(system, d, length, seed, mode, **kwargs):
            orbits.append(generate(system, d, length, seed, mode, **kwargs))
            return orbits[-1]

        monkeypatch.setattr(shadowing, "generate_pseudo_orbit", generated)
        report = estimate_shadowing_modulus(
            s, e, dyadic_basis(s.space, 8), trials=20, length=100, seed=7)
        assert report.found and report.modulus.is_diagonal_only()
        level = report.modulus.label
        assert orbits and not [o for o in orbits if o.entourage_label == level]
        assert sorted(searched) == sorted(o.states for o in orbits)
        assert len(searched) == 7  # sampling the diagonal would add 21 exact orbits
        # a uniform orbit at that level is forced at every step: it draws only its start
        draws = counting_draws(monkeypatch)
        orbit = generate(s, report.modulus, 100, 7 * 1_000_003, "uniform")
        assert len(draws) == 1  # one draw per step would be 101
        images = s.grid_images
        assert all(images[x][3] == y for x, y in zip(orbit.states, orbit.states[1:]))

    def test_a_repeated_orbit_is_searched_once(self, monkeypatch):
        # on doubling-96 the drift orbit 0, 95, 95, ... is the same at all
        # seven levels; each level's first uniform orbit then fails
        s = doubling_system(96)
        searched = recording_searches(monkeypatch)
        report = estimate_shadowing_modulus(
            s, make_epsilon_entourage(s.space, 0.1), dyadic_basis(s.space, 8),
            trials=3, length=100, seed=7)
        assert not report.found and len(report.levels_scanned) == 7
        assert searched.count((0,) + (95,) * 100) == 1
        assert len(searched) == len(set(searched)) == 8  # one search per orbit would be 14

    def test_known_gap_a_named_modulus_with_an_unshadowed_pseudo_orbit(self):
        # KNOWN GAP, not a defect of the search: a named modulus is sampled
        # evidence. On square-64 at E = 2h (`shadowing --horizon 20 --seed 1`,
        # 20 trials) the scan names eps=0.03125, yet the pseudo-orbit 41, 28,
        # 11, 0, 0, ... at that level is E-shadowed by no grid point. No
        # sampled orbit found it; an exact scan over every path would.
        s = square_system(64)
        e = make_epsilon_entourage(s.space, 2 * s.space.resolution)
        basis = dyadic_basis(s.space, 8)
        report = estimate_shadowing_modulus(s, e, basis, trials=20, length=20, seed=1)
        assert report.found and report.modulus.label == "eps=0.03125"
        states = (41, 28, 11) + (0,) * 18
        orbit = PseudoOrbit(states, report.modulus.label, None, states[1:])
        assert orbit.horizon == 20 and verify_pseudo_orbit(orbit, s, report.modulus)
        shadow = find_shadow_point(orbit, e, s)
        assert (shadow.shadowed, shadow.failure_step, shadow.best_candidate) == (False, 3, 41)


class TestIterateConsistency:
    def test_identity_map_trivial(self):
        s = identity_system(interval_grid(31))
        e = make_epsilon_entourage(s.space, 0.1)
        basis = dyadic_basis(s.space, 7)
        for n in (1, 2, 5):
            r = iterate_shadowing_check(s, e, basis, n, trials=5, seed=3, length=40)
            assert r.agree
            assert not r.base_found  # drift breaks the identity on a grid

    def test_cantor_identity_iterates_found(self):
        sp = cantor_space(3)
        s = identity_system(sp)
        e = make_epsilon_entourage(sp, 0.9 * sp.gap)
        r = iterate_shadowing_check(
            s, e, dyadic_basis(sp, 8), 2, trials=10, seed=4, length=50
        )
        assert r.base_found and r.power_found and r.agree

    def test_catalog_agreement_rate(self):
        # finite echo of iterate invariance: >= 95% agreement across the
        # catalog at n <= 4 (parameters pinned where the echo is clean)
        agree = total = 0
        for system in catalog_systems(32):
            e = make_epsilon_entourage(system.space, 4 * system.space.resolution)
            basis = dyadic_basis(system.space, 7)
            for n in (2, 3, 4):
                for s in range(6):
                    r = iterate_shadowing_check(
                        system, e, basis, n, trials=2, seed=100 + s, length=12
                    )
                    agree += r.agree
                    total += 1
        assert agree / total >= 0.95


class TestIsobasism:
    def test_resonant_rotation_is_isobasism(self):
        s = rotation_system(4 / 16, 16)
        report = isobasism_check(s, dyadic_basis(s.space, 5))
        assert report.mode == "exact"
        assert report.all_preserved

    def test_doubling_fails_below_quarter(self):
        s = doubling_system(16)
        report = isobasism_check(s, dyadic_basis(s.space, 5))
        by_label = {lvl.label: lvl for lvl in report.levels}
        assert by_label["eps=1"].preserved
        assert by_label["eps=0.5"].preserved
        for label in ("eps=0.25", "eps=0.125", "eps=0.0625"):
            lvl = by_label[label]
            assert not lvl.preserved
            # the recorded pair is a genuine violation: related, images not
            x, y = lvl.counterexample
            scale = float(label.split("=")[1])
            sp = s.space
            assert sp.distance(sp.points[x], sp.points[y]) <= scale + 1e-12
            fx = iterate(s, sp.points[x], 1)
            fy = iterate(s, sp.points[y], 1)
            assert sp.distance(fx, fy) > scale + 1e-9
        # the floor reads the snapped images: x and x + 8 land on one point
        assert by_label["diag"].counterexample == (0, 8)
        assert not by_label["diag"].preserved

    @pytest.mark.parametrize("order", ["sorted", "reversed"])
    def test_floor_verdict_does_not_depend_on_the_point_order(self, order):
        # the sorted floor is a scale-0 ball, the reversed one explicit rows
        points = circle_grid(8).points
        if order == "reversed":
            points = points[::-1]
        space = FinitePhaseSpace(points, Geometry.CIRCLE, 1 / 8)
        s = SystemSpec("doubling", MapKind.DOUBLING, space)
        floor = diagonal_entourage(space)
        assert (floor.scale is None) == (order == "reversed")
        report = isobasism_check(s, UniformityBasis((floor,)))
        assert report.levels == (LevelIsobasism("diag", False, (0, 4)),)

    def test_permutation_with_orbit_relation(self):
        s = permutation_system([[0, 1, 2], [3, 4]], 5)
        sp = s.space
        orbit_pairs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]
        rel = Entourage.from_pairs(sp, orbit_pairs, "orbits")
        basis = UniformityBasis((rel, diagonal_entourage(sp)))
        report = isobasism_check(s, basis)
        assert report.mode == "exact"
        assert report.all_preserved


class TestDichotomy:
    def test_cantor_disconnected_and_shadowing(self):
        sp = cantor_space(3)
        report = disconnectedness_dichotomy(
            sp,
            make_epsilon_entourage(sp, 0.9 * sp.gap),
            dyadic_basis(sp, 8),
            trials=20,
            seed=1,
        )
        assert report.totally_disconnected_at_scale
        assert not report.connected_at_scale
        assert report.modulus_found
        assert report.agreement

    def test_interval_connected_no_shadowing(self):
        sp = interval_grid(101)
        report = disconnectedness_dichotomy(
            sp,
            make_epsilon_entourage(sp, 2 * sp.resolution),
            dyadic_basis(sp, 8),
            trials=20,
            seed=1,
        )
        assert report.connected_at_scale
        assert not report.totally_disconnected_at_scale
        assert not report.modulus_found
        assert report.agreement

    def test_single_point_trivial_agreement(self):
        sp = discrete_grid(1)
        report = disconnectedness_dichotomy(
            sp,
            make_epsilon_entourage(sp, 0.5),
            dyadic_basis(sp, 4),
            trials=5,
            seed=1,
        )
        assert report.connected_at_scale
        assert report.totally_disconnected_at_scale
        assert report.modulus_found
        assert report.agreement


@st.composite
def dichotomy_cases(draw):
    """A sorted space and a scale: singleton balls, breaks, wrapping runs, full rows, n = 1."""
    space = draw(st.one_of(
        sorted_spaces(),
        st.integers(1, 64).map(circle_grid),
        st.integers(1, 64).map(discrete_grid),
        st.integers(1, 6).map(lambda levels: odometer_system(levels).space)))
    h = space.resolution
    scale = draw(st.one_of(
        st.sampled_from((h / 2, h, 2 * h, 0.25, 0.5 - 1e-12, 0.5, 1.0)),
        st.floats(min_value=1e-6, max_value=1.0)))
    return space, scale


class TestDichotomyComponents:
    @given(case=dichotomy_cases())
    @settings(max_examples=200, deadline=None)
    def test_components_from_the_runs_match_networkx(self, case):
        # a metric E on a sorted space counts its components from the runs;
        # the same relation given as explicit pairs still goes through Tarjan
        nx = pytest.importorskip("networkx")
        import chaindyn.shadowing as shadowing

        space, scale = case
        n, e = space.n, make_epsilon_entourage(space, scale)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from((x, y) for x in range(n) for y in e.row(x))
        count = nx.number_connected_components(graph)
        explicit = Entourage.from_pairs(space, graph.edges, e.label)
        basis = UniformityBasis((e, diagonal_entourage(space)))
        calls, scc = [], shadowing.strongly_connected_components
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shadowing, "strongly_connected_components",
                       lambda g: calls.append(g) or scc(g))
            for relation, tarjan_runs in ((e, 0), (explicit, 1)):
                calls.clear()
                report = disconnectedness_dichotomy(
                    space, relation, basis, trials=1, seed=1)
                assert report.component_count == count
                assert report.totally_disconnected_at_scale == (
                    n == 1 or (space.gap is not None and count == n))
                assert len(calls) == tarjan_runs


class TestVerification:
    def test_corrupted_orbit_is_rejected(self):
        s = doubling_system(32)
        d = make_epsilon_entourage(s.space, 1 / 32)
        orbit = generate_pseudo_orbit(s, d, 10, seed=4, mode="uniform")
        assert verify_pseudo_orbit(orbit, s, d)
        from chaindyn import PseudoOrbit

        broken = PseudoOrbit(
            orbit.states[:-1] + ((orbit.states[-1] + 16) % 32,),
            orbit.entourage_label,
            orbit.seed,
            orbit.perturbations,
        )
        assert not verify_pseudo_orbit(broken, s, d)

    def test_single_point_space_end_to_end(self):
        sp = discrete_grid(1)
        s = identity_system(sp)
        from chaindyn import build_transition_graph, is_chain_mixing

        g = build_transition_graph(s, make_epsilon_entourage(sp, 0.5))
        assert g.succ == ((0,),)
        assert is_chain_mixing(g)
        orbit = generate_pseudo_orbit(
            s, make_epsilon_entourage(sp, 0.5), 5, seed=0, mode="uniform"
        )
        assert orbit.states == (0,) * 6
        rep = find_shadow_point(orbit, make_epsilon_entourage(sp, 0.5), s)
        assert rep.shadowed and rep.witness == 0


@st.composite
def closeness_relations(draw):
    """A metric entourage, explicit pairs (closed or verbatim) or the diagonal floor.

    The space is a sorted, unsorted or product-of-circles one.
    """
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(("sorted", "unsorted", "product")))
    # distinct points, also on the circle, where 0.0 and 1.0 would coincide
    coords = [k / 1000 for k in draw(st.lists(
        st.integers(0, 999), min_size=n, max_size=n, unique=True))]
    geometry = draw(st.sampled_from((Geometry.INTERVAL, Geometry.CIRCLE, Geometry.DISCRETE)))
    if kind == "product":
        other = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n))
        points = tuple((c, k / 1000) for c, k in zip(coords, other))
        space = FinitePhaseSpace(points, Geometry.PRODUCT_OF_CIRCLES, 1.0)
    elif kind == "unsorted":
        space = FinitePhaseSpace(tuple((c,) for c in sorted(coords)[::-1]), geometry, 1.0)
    else:
        space = sorted_list_space(coords, geometry)
    relation = draw(st.sampled_from(("metric", "metric", "pairs", "diagonal")))
    if relation == "pairs":
        index = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(index, index)))
        return Entourage.from_pairs(space, pairs, "pairs", close=draw(st.booleans()))
    if relation == "diagonal":
        return diagonal_entourage(space)
    # a scale just below a pairwise distance puts that pair on the slack boundary
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    near = space.distance(space.points[i], space.points[j]) + draw(
        st.sampled_from((-1e-12, -1.5e-12, -5e-13, 0.0)))
    return make_epsilon_entourage(space, draw(st.one_of(
        st.just(near), st.floats(1e-6, 1.0), st.sampled_from((0.5 - 1e-12, 0.5)))))


@st.composite
def systems_on(draw, space):
    """The identity, or a map that the space's geometry and dimension allow, as f or f^2."""
    kinds = [MapKind.IDENTITY]
    if space.dimension == 1 and space.geometry == Geometry.CIRCLE:
        kinds += [MapKind.ROTATION, MapKind.DOUBLING]
    if space.dimension == 1 and space.geometry == Geometry.INTERVAL:
        kinds += [MapKind.TENT, MapKind.SQUARE]
    kind = draw(st.sampled_from(kinds))
    params = (draw(st.floats(0.01, 0.99)),) if kind in (MapKind.ROTATION, MapKind.TENT) else ()
    perm = None
    if space.geometry == Geometry.DISCRETE and draw(st.booleans()):
        kind, perm = MapKind.PERMUTATION, tuple(draw(st.permutations(range(space.n))))
    system = SystemSpec(kind.value, kind, space, params, perm)
    return replace(system, power=draw(st.integers(1, 2)))


class TestOneClosenessRule:
    """Graph edges, pseudo-orbit steps and their verifier share one D-closeness rule."""

    def test_image_just_off_the_grid_takes_its_own_ball(self):
        # f(0.1) = 0.010000000000000002 lies 2e-18 from grid point 1, and grid
        # point 0 is just outside the ball around it
        space = FinitePhaseSpace(
            tuple((round(k * 0.01, 2),) for k in range(101)), Geometry.INTERVAL, 0.01
        )
        s = SystemSpec("square-list", MapKind.SQUARE, space)
        d = make_epsilon_entourage(space, 0.009999999999)
        image = iterate(s, space.points[10], 1)
        row = tuple(y for y in range(space.n) if entourage_holds(d, image, y))
        assert build_transition_graph(s, d).succ[10] == row == (1, 2)
        for seed in range(300):
            orbit = generate_pseudo_orbit(s, d, 10, seed, start=10)
            assert verify_pseudo_orbit(orbit, s, d), seed

    @given(d=closeness_relations(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_image_successors_is_entourage_holds(self, d, data):
        space = d.space
        probes = list(space.points)
        for p in space.points:
            for delta in (5e-13, -5e-13, 2e-18, -2e-18):
                probes.append(tuple(min(max(c + delta, 0.0), 1.0) for c in p))
        unit = st.floats(0.0, 1.0)
        probes += data.draw(st.lists(st.tuples(*[unit] * space.dimension), max_size=8))
        for p in probes:
            expected = tuple(y for y in range(space.n) if entourage_holds(d, p, y))
            assert image_successors(d, p) == expected, p
        for w, p in enumerate(space.points):
            assert d.row(w) == list(image_successors(d, p)), w

    @given(d=closeness_relations(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_graph_rows_are_image_successors(self, d, data):
        # row x of the graph, read from D's stored row when f(x) is a grid
        # point, is the rule applied to the exact image
        system = data.draw(systems_on(d.space))
        graph = build_transition_graph(system, d)
        for x, (image, *_) in enumerate(system.grid_images):
            held = tuple(y for y in range(d.n) if entourage_holds(d, image, y))
            assert graph.succ[x] == image_successors(d, image) == held, (system.name, x)
