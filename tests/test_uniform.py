import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaindyn import (
    Entourage,
    FinitePhaseSpace,
    Geometry,
    InvalidCoverError,
    InvalidParameterError,
    OutOfRangeError,
    UniformityBasis,
    cantor_space,
    circle_grid,
    compose,
    cross_section,
    diagonal_entourage,
    discrete_grid,
    dyadic_basis,
    interval_grid,
    make_epsilon_entourage,
    odometer_system,
    power,
    refining_entourage,
    verify_uniformity_axioms,
)
from chaindyn.chaingraph import build_transition_graph, image_successors
from chaindyn.systems import MapKind, SystemSpec, catalog_systems
from chaindyn.uniform import COMPARISON_SLACK, arc_indices, mask_indices, run_mask
from oracles import (
    ball_bruteforce,
    nearest_bruteforce,
    sorted_list_space,
    successors_bruteforce,
    within_bruteforce,
)


def relation_pairs(e):
    return {(x, y) for x, row in enumerate(e.rows) for y in row}


class TestSpaces:
    def test_interval_grid_spacing(self):
        s = interval_grid(3)
        assert s.points == ((0.0,), (0.5,), (1.0,))
        assert s.resolution == 0.5

    def test_circle_distance_wraps(self):
        s = circle_grid(4)
        assert s.distance((0.0,), (0.75,)) == pytest.approx(0.25)
        assert s.distance((0.0,), (0.5,)) == pytest.approx(0.5)

    def test_coordinates_must_stay_in_unit_box(self):
        with pytest.raises(InvalidParameterError):
            FinitePhaseSpace(((1.5,),), Geometry.INTERVAL, 1.0)

    def test_consecutive_gap_invariant(self):
        with pytest.raises(InvalidParameterError):
            FinitePhaseSpace(((0.0,), (0.9,)), Geometry.INTERVAL, 0.1)

    def test_nearest_index_tie_takes_smaller(self):
        s = interval_grid(3)  # points 0, 0.5, 1
        assert s.nearest_index((0.25,)) == 0
        assert s.nearest_index((0.75,)) == 1

    def test_nearest_index_wraps_on_circle(self):
        s = circle_grid(8)
        assert s.nearest_index((0.99,)) == 0

    def test_product_of_circles_sup_metric(self):
        pts = tuple(
            (a / 4, b / 4) for a in range(4) for b in range(4)
        )
        s = FinitePhaseSpace(pts, Geometry.PRODUCT_OF_CIRCLES, 0.25)
        assert s.distance((0.0, 0.0), (0.75, 0.5)) == pytest.approx(0.5)
        assert s.distance((0.0, 0.9), (0.95, 0.05)) == pytest.approx(0.15)
        e = make_epsilon_entourage(s, 0.25)
        # the eps-ball under the sup metric is a wrapped 3x3 block
        assert len(cross_section(e, 0)) == 9
        report = verify_uniformity_axioms(dyadic_basis(s, 4))
        assert report.all_ok


class TestEpsilonEntourage:
    def test_interval_example(self):
        # interval grid {0, 0.5, 1}, eps=0.6: neighbor pairs plus closures
        s = interval_grid(3)
        e = make_epsilon_entourage(s, 0.6)
        expected = {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)}
        assert relation_pairs(e) == expected

    def test_circle_wrap_example(self):
        # circle grid {0, .25, .5, .75}, eps=0.3: each point sees both neighbors
        s = circle_grid(4)
        e = make_epsilon_entourage(s, 0.3)
        assert sorted(e.rows[0]) == [0, 1, 3]
        assert sorted(e.rows[2]) == [1, 2, 3]

    def test_epsilon_two_is_complete(self):
        s = interval_grid(5)
        e = make_epsilon_entourage(s, 2.0)
        assert all(len(row) == 5 for row in e.rows)

    def test_rejects_nonpositive_epsilon(self):
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError):
                make_epsilon_entourage(interval_grid(3), epsilon)

    def test_from_pairs_validates_indices(self):
        with pytest.raises(OutOfRangeError):
            Entourage.from_pairs(interval_grid(3), [(0, 5)], "bad")

    def test_from_pairs_closure(self):
        e = Entourage.from_pairs(interval_grid(4), [(0, 2)], "closed")
        assert e.has_diagonal() and e.is_symmetric()
        assert e.contains(2, 0)

    @given(
        n=st.integers(min_value=1, max_value=40),
        eps=st.floats(min_value=1e-3, max_value=2.0),
        wrap=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_always_reflexive_symmetric(self, n, eps, wrap):
        s = circle_grid(n) if wrap else interval_grid(n)
        e = make_epsilon_entourage(s, eps)
        assert e.has_diagonal()
        assert e.is_symmetric()

    @given(
        n=st.integers(min_value=1, max_value=100),
        eps=st.floats(min_value=1e-3, max_value=1.0),
        x=st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=60, deadline=None)
    def test_cross_section_is_metric_ball(self, n, eps, x):
        x = x % n
        s = circle_grid(n)
        e = make_epsilon_entourage(s, eps)
        assert set(cross_section(e, x)) == ball_bruteforce(s, x, eps)


# Irregular sorted coordinates with max gap 0.15; on the circle 0.0 and 1.0
# are one point listed twice, so that list keeps the full scan, and the same
# list without 1.0 is the sorted irregular circle.
IRREGULAR = (0.0, 0.1, 0.25, 0.3, 0.45, 0.6, 0.7, 0.85, 1.0)
IRREGULAR_CIRCLE = FinitePhaseSpace(tuple((c,) for c in IRREGULAR[:-1]), Geometry.CIRCLE, 0.075)
SNAP_SPACES = (
    *(grid(n) for n in (1, 2, 3, 4, 5, 7, 8, 16, 33)
      for grid in (interval_grid, circle_grid, discrete_grid)),
    *(cantor_space(levels) for levels in (1, 2, 3, 4)),
    *(odometer_system(levels).space for levels in (1, 3, 6)),
    *(FinitePhaseSpace(tuple((c,) for c in IRREGULAR), geometry, 0.075)
      for geometry in (Geometry.INTERVAL, Geometry.CIRCLE, Geometry.DISCRETE)),
    IRREGULAR_CIRCLE,
    # unsorted: keeps the full scan
    FinitePhaseSpace(((0.5,), (0.0,), (0.9,), (0.2,)), Geometry.DISCRETE, 0.1, gap=0.1),
)


def space_id(space):
    """Geometry and size; the sorted irregular circle is told apart from ``circle_grid(8)``."""
    return f"{space.geometry.value}-{space.n}" + ("-list" if space is IRREGULAR_CIRCLE else "")


def structured_probes(space):
    """Grid points, exact midpoints (ties), multiples of h, and both ends."""
    xs = [p[0] for p in space.points]
    h = space.resolution
    probes = set(xs) | {0.0, 1.0}
    probes |= {(a + b) / 2 for a, b in zip(sorted(xs), sorted(xs)[1:])}
    probes |= {k * h for k in range(int(1 / h) + 1) if k * h <= 1.0}
    if space.geometry.wraps:
        probes.add((max(xs) + 1.0 + min(xs)) / 2 % 1.0)
    return sorted(probes)


def snap_radii(space):
    h = space.resolution
    return (0.0, h / 2, h, 2 * h, 3 * h, 0.5 - 1e-12, 0.5, 1.0)


class TestSnapIndex:
    """nearest_index, snap and indices_within agree with the full scan."""

    @pytest.mark.parametrize("space", SNAP_SPACES, ids=space_id)
    def test_structured_probes_match_scan(self, space):
        for c in structured_probes(space):
            i = nearest_bruteforce(space, (c,))
            assert space.nearest_index((c,)) == i, c
            assert space.snap((c,)) == (i, space.distance((c,), space.points[i])), c
            for r in snap_radii(space):
                assert space.indices_within((c,), r) == within_bruteforce(space, (c,), r), (c, r)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_probes_match_scan(self, data):
        space = data.draw(st.sampled_from(SNAP_SPACES))
        c = data.draw(st.one_of(
            st.sampled_from(structured_probes(space)),
            st.floats(min_value=0.0, max_value=1.0),
        ))
        r = data.draw(st.one_of(
            st.sampled_from(snap_radii(space)),
            st.floats(min_value=0.0, max_value=1.0),
        ))
        i = nearest_bruteforce(space, (c,))
        assert space.nearest_index((c,)) == i
        assert space.snap((c,)) == (i, space.distance((c,), space.points[i]))
        assert space.indices_within((c,), r) == within_bruteforce(space, (c,), r)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_snap_on_sorted_lists_matches_scan(self, data):
        # random lists, often holding both 0.0 and 1.0; probes at the points,
        # at exact midpoints between neighbours and on both sides of the wrap
        space = data.draw(sorted_spaces())
        xs = [p[0] for p in space.points]
        probes = {*xs, *((a + b) / 2 for a, b in zip(xs, xs[1:])), (xs[-1] + 1.0 + xs[0]) / 2 % 1.0,
                  0.0, 5e-324, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0}
        c = data.draw(st.one_of(st.sampled_from(sorted(probes)), st.floats(0.0, 1.0)))
        i = nearest_bruteforce(space, (c,))
        assert space.snap((c,)) == (i, space.distance((c,), space.points[i]))
        assert space.nearest_index((c,)) == i


SORTED_SNAP_SPACES = tuple(s for s in SNAP_SPACES if make_epsilon_entourage(s, 1.0).arcs)


@st.composite
def sorted_spaces(draw):
    """A bundled sorted space, or a random sorted list (often holding 0.0 and 1.0).

    On the circle 0.0 and 1.0 are one point, so a circle list holds at most
    one of them: a list holding both has no sorted view.
    """
    if draw(st.booleans()):
        return draw(st.sampled_from(SORTED_SNAP_SPACES))
    ends = {0, 10**6} if draw(st.booleans()) else set()
    ks = draw(st.sets(st.integers(0, 10**6), min_size=1, max_size=24)) | ends
    geometry = draw(st.sampled_from((Geometry.INTERVAL, Geometry.CIRCLE, Geometry.DISCRETE)))
    if geometry is Geometry.CIRCLE and {0, 10**6} <= ks:
        ks.discard(draw(st.sampled_from((0, 10**6))))
    return sorted_list_space([k / 10**6 for k in ks], geometry)


def entourage_radii(space):
    """Multiples of h, the half-turn edge cases, and dyadic scales.

    At 0.5 - 1.5e-12 the radius plus the slack is below 1/2, so a circle
    ball misses the antipode, but plus twice the slack it is not.
    """
    h = space.resolution
    return (h / 2, h, 2 * h, 3 * h, 0.25, 0.5 - 2e-12, 0.5 - 1.5e-12, 0.5 - 1e-12, 0.5, 1.0,
            *(2.0 ** -k for k in range(9)))


def radius(data, space):
    return data.draw(st.one_of(
        st.sampled_from(entourage_radii(space)), st.floats(min_value=1e-6, max_value=1.0)))


class TestIntervalEntourage:
    """Metric entourages stored as index intervals agree with the full scans."""

    # the sorted spaces read runs; the rest, lists with a repeated point among them, scan
    @pytest.mark.parametrize("space", SNAP_SPACES, ids=space_id)
    def test_structured_radii_match_ball_scan(self, space):
        for r in entourage_radii(space):
            e = make_epsilon_entourage(space, r)
            assert [set(row) for row in e.rows] == [
                ball_bruteforce(space, i, r) for i in range(space.n)], r

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_ball_scan(self, data):
        space = data.draw(sorted_spaces())
        r = radius(data, space)
        e = make_epsilon_entourage(space, r)
        assert e.arcs is not None
        balls = [ball_bruteforce(space, i, r) for i in range(space.n)]
        assert [set(row) for row in e.rows] == balls
        assert [e.row(i) for i in range(space.n)] == [sorted(b) for b in balls]
        assert e.pair_count() == sum(len(b) for b in balls)
        assert all(e.contains(i, j) == (j in balls[i])
                   for i in range(space.n) for j in range(space.n))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_off_grid_arcs_match_scan(self, data):
        space = data.draw(sorted_spaces())
        c = data.draw(st.one_of(
            st.sampled_from(structured_probes(space)), st.floats(min_value=0.0, max_value=1.0)))
        r = data.draw(st.one_of(
            st.sampled_from((0.0, 1e-9, *entourage_radii(space))),
            st.floats(min_value=0.0, max_value=1.0)))
        expected = within_bruteforce(space, (c,), r)
        arc = space.arc_within((c,), r)
        if not expected:
            assert arc is None
        else:
            assert arc_indices(arc, space.n) == expected
            lo, hi = arc
            assert 0 <= lo < space.n and hi - lo + 1 == len(expected)
        assert space.indices_within((c,), r) == expected

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_run_mask_bits_are_the_run_indices(self, data):
        # every ball of one radius plus one off-grid probe: the drawn radii
        # give singletons (0 and h/2), runs that wrap past n - 1 on the
        # circle, and the full run (0, n - 1) (0.5 and 1)
        space = data.draw(sorted_spaces())
        c = data.draw(st.one_of(
            st.sampled_from(structured_probes(space)), st.floats(min_value=0.0, max_value=1.0)))
        r = data.draw(st.one_of(
            st.sampled_from((0.0, *entourage_radii(space))),
            st.floats(min_value=0.0, max_value=1.0)))
        n = space.n
        for arc in filter(None, (space.arc_within(p, r) for p in (*space.points, (c,)))):
            mask = run_mask(arc, n)
            assert mask >> n == 0
            assert [j for j in range(n) if mask >> j & 1] == sorted(arc_indices(arc, n))
            assert mask_indices(mask) == arc_indices(arc, n)
        assert mask_indices(0) == []

    @staticmethod
    def assert_staircase_queries(space, radii):
        # the diagonal, symmetry and half-scale tests read the stored runs
        levels = [make_epsilon_entourage(space, r) for r in radii]
        squares = [compose(e, e).is_subset(e) for e in levels]

        def refuse(self):
            raise AssertionError("Entourage.rows was built")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Entourage, "rows", property(refuse))
            for r, square in zip(radii, squares):
                e = make_epsilon_entourage(space, r)
                assert e._ends is not None, r
                assert e.is_symmetric() and e.has_diagonal(), r
                assert e.square_is_subset(e) == square, r
            assert verify_uniformity_axioms(dyadic_basis(space, 8)).all_ok

    @given(space=sorted_spaces())
    @settings(max_examples=200, deadline=None)
    def test_metric_balls_form_a_staircase(self, space):
        self.assert_staircase_queries(space, entourage_radii(space))

    def test_full_ball_below_radius_half_is_a_staircase(self):
        space = sorted_list_space([0.0, 0.250174, 0.47553, 0.531069, 0.622827], Geometry.CIRCLE)
        # row 4 is full below radius 1/2: the run 1..5 wraps round to index 0
        assert make_epsilon_entourage(space, 0.377173).arcs[4] == (1, 5)
        self.assert_staircase_queries(space, [0.377173])

    def test_empty_off_grid_ball(self):
        space = circle_grid(8)
        assert space.arc_within((1 / 16,), 1e-6) is None
        assert space.indices_within((1 / 16,), 1e-6) == []

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_relation_queries_match_rows(self, data):
        space = data.draw(sorted_spaces())
        levels = [make_epsilon_entourage(space, radius(data, space)) for _ in range(2)]
        levels.append(diagonal_entourage(space))
        pairs = data.draw(st.sets(st.tuples(
            st.integers(0, space.n - 1), st.integers(0, space.n - 1)), max_size=3 * space.n))
        explicit = Entourage.from_pairs(space, pairs, "x", close=data.draw(st.booleans()))
        d, e = data.draw(st.sampled_from(levels)), data.draw(st.sampled_from(levels))
        # the same relations as explicit rows: row-backed and mixed pairs
        d_rows, e_rows = (Entourage(space, r.rows, r.label) for r in (d, e))
        for a in (d, d_rows):
            for b in (e, e_rows, explicit):
                assert a.square_is_subset(b) == compose(a, a).is_subset(b)
                assert a.is_subset(b) == all(x <= y for x, y in zip(a.rows, b.rows))
        assert explicit.square_is_subset(d) == compose(explicit, explicit).is_subset(d)
        assert d.rows == d_rows.rows
        for query in ("pair_count", "has_diagonal", "is_symmetric", "is_diagonal_only"):
            assert getattr(d, query)() == getattr(d_rows, query)(), query


def scanned_runs(space, epsilon):
    """The run of every ball, one bisection per point."""
    return tuple(space.arc_within(p, epsilon) for p in space.points)


def without_half_width(e):
    """The same relation over an unmarked copy of the space, so queries read the runs or rows.

    The diagonal keeps half-width 0 there, as on every sorted space.
    """
    sp = e.space
    copy = FinitePhaseSpace(sp.points, sp.geometry, sp.resolution, sp.gap)
    return Entourage(copy, e._rows, e.label, e.scale)


class TestWrapRepeatedLists:
    """A circle list holding both 0.0 and 1.0 lists one point twice, so it has no sorted view."""

    LISTS = ([0.0, 0.25, 0.5, 0.75, 1.0], [k / 16 for k in range(17)], [k / 40 for k in range(41)])

    @pytest.mark.parametrize("coords", LISTS, ids=lambda c: f"circle-{len(c)}")
    def test_lookups_rows_and_graphs_match_the_scans(self, coords):
        space = sorted_list_space(coords, Geometry.CIRCLE)
        assert space._sorted is None
        h = space.resolution
        for c in structured_probes(space):
            i = nearest_bruteforce(space, (c,))
            assert space.snap((c,)) == (i, space.distance((c,), space.points[i])), c
        systems = [SystemSpec("rotation", MapKind.ROTATION, space, (0.3,)),
                   SystemSpec("doubling", MapKind.DOUBLING, space),
                   SystemSpec("identity", MapKind.IDENTITY, space)]
        for r in (h / 2, h, 2 * h, 0.1):
            d = make_epsilon_entourage(space, r)
            assert [set(row) for row in d.rows] == [
                ball_bruteforce(space, i, r) for i in range(space.n)], r
            for system in systems:
                assert [list(row) for row in build_transition_graph(system, d).succ] == [
                    successors_bruteforce(d, e[0]) for e in system.grid_images], (system.name, r)
        # the floor relates each point to itself, and an image to its nearest point
        floor = diagonal_entourage(space)
        assert floor.rows == tuple(frozenset({i}) for i in range(space.n))
        for system in systems:
            assert [list(row) for row in build_transition_graph(system, floor).succ] == [
                [nearest_bruteforce(space, e[0])] for e in system.grid_images], system.name

    def test_the_floor_answers_one_way(self):
        # the last point is the first one turn on: the floor row of 0.0 holds 0.0 alone,
        # and 0.0 snaps to it rather than to its copy at 1.0
        floor = diagonal_entourage(sorted_list_space(self.LISTS[0], Geometry.CIRCLE))
        assert floor.row(0) == [0]
        assert image_successors(floor, (0.0,)) == (0,)


GRID_DELTAS = (0.0, COMPARISON_SLACK / 2, COMPARISON_SLACK, 2 * COMPARISON_SLACK)


def odometer_grid(n):
    """The odometer's space at the largest 2^k <= n points, 2 points at least."""
    return odometer_system(max(n.bit_length() - 1, 1)).space


#: The evenly spaced grids: each is marked by ``_steps``.
EVEN_GRIDS = (circle_grid, interval_grid, discrete_grid, odometer_grid)


class TestUniformGridRuns:
    """On an evenly spaced grid every ball of one scale is one shifted run."""

    @given(
        grid=st.sampled_from(EVEN_GRIDS),
        n=st.integers(min_value=1, max_value=4096),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_runs_match_the_per_point_scan(self, grid, n, data):
        space = grid(n)
        h = space.resolution
        m = data.draw(st.integers(min_value=0, max_value=math.ceil(1 / h) + 1))
        base = m * h
        delta = data.draw(st.sampled_from(
            (*GRID_DELTAS, *(-d for d in GRID_DELTAS[1:]), math.ulp(base), -math.ulp(base))))
        epsilon = data.draw(st.sampled_from((base + delta, 2.0 ** -data.draw(st.integers(0, 12)))))
        if epsilon <= 0:
            return
        e = make_epsilon_entourage(space, epsilon)
        assert e.arcs == scanned_runs(space, epsilon), epsilon
        if epsilon == base and space.n > 1:
            assert e.half_width is not None  # an exact multiple of h takes no bisection

    @pytest.mark.parametrize("n", [2 ** 10, 2 ** 12, 3 * 2 ** 8, 3 * 2 ** 10])
    def test_dyadic_levels_take_the_shared_run(self, n):
        for space in (circle_grid(n), interval_grid(n + 1)):
            for level in dyadic_basis(space, 13).levels:
                assert level.half_width is not None, (space.n, level.label)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_scale_at_the_float_error_of_a_multiple_scans_each_point(self, n):
        # 0.009999999999 plus the slack is 1/100 to the last bits, so the
        # grid point 1/100 away may land on either side of the bound
        space = circle_grid(n)
        e = make_epsilon_entourage(space, 0.009999999999)
        assert e.half_width is None
        assert e.arcs == scanned_runs(space, 0.009999999999)

    @given(
        grid=st.sampled_from(EVEN_GRIDS),
        n=st.integers(min_value=1, max_value=48),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_half_width_answers_match_the_runs(self, grid, n, data):
        space = grid(n)
        h = space.resolution
        scales = data.draw(st.lists(st.one_of(
            st.sampled_from((h / 2, h, 2 * h, 3 * h, 0.25, 0.5 - 1e-12, 0.5, 1.0, 2.0)),
            st.integers(1, space.n).map(lambda m: m * h),
            st.floats(min_value=1e-3, max_value=1.0)), min_size=1, max_size=4))
        levels = [make_epsilon_entourage(space, r) for r in scales] + [diagonal_entourage(space)]
        plain = [without_half_width(e) for e in levels]
        for a, pa in zip(levels, plain):
            for query in ("has_diagonal", "is_symmetric", "is_diagonal_only"):
                assert getattr(a, query)() == getattr(pa, query)(), (query, a.label)
            for b, pb in zip(levels, plain):
                assert a.is_subset(b) == pa.is_subset(pb), (a.label, b.label)
                assert a.square_is_subset(b) == pa.square_is_subset(pb), (a.label, b.label)
                assert a.square_is_subset(b) == compose(a, a).is_subset(b), (a.label, b.label)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 64, 96])
    def test_axiom_reports_match_without_half_widths(self, n):
        for system in catalog_systems(n):
            basis = dyadic_basis(system.space, 8)
            plain = UniformityBasis(tuple(without_half_width(e) for e in basis.levels))
            assert verify_uniformity_axioms(basis) == verify_uniformity_axioms(plain), system.name

    def test_half_width_is_no_constructor_argument(self):
        # an explicit relation cannot claim a half-width its rows do not have
        space = circle_grid(4)
        rows = tuple(frozenset({i, (i + 1) % 4}) for i in range(4))
        with pytest.raises(TypeError):
            Entourage(space, rows, "x", None, None, 1)
        e = Entourage(space, rows, "x")
        assert e.half_width is None and not e.is_symmetric()
        assert not e.is_subset(make_epsilon_entourage(space, 0.01))

    @pytest.mark.parametrize("scale", [None, -1.0, math.nan, math.inf])
    def test_metric_entourage_needs_a_scale_in_range(self, scale):
        with pytest.raises(InvalidParameterError):
            Entourage(circle_grid(8), None, "x", scale)

    @pytest.mark.parametrize("scale", [0.0, 0.1, 0.3, 1.0])
    def test_explicit_rows_refuse_a_scale(self, scale):
        # an entourage is a metric ball or an explicit relation, never both
        space = interval_grid(9)
        rows = diagonal_entourage(space).rows
        with pytest.raises(InvalidParameterError, match="no scale"):
            Entourage(space, rows, "diag-rows", scale)
        with pytest.raises(TypeError):
            Entourage.from_pairs(space, [(0, 8)], "far", scale=scale)
        with pytest.raises(TypeError):  # close is keyword-only
            Entourage.from_pairs(space, [(0, 8)], "far", scale)
        assert Entourage.from_pairs(space, [(0, 8)], "far").scale is None

    @staticmethod
    def count_scans(monkeypatch):
        """Count the per-point bisections and the staircase builds."""
        calls = {"arc_within": 0, "_ends": 0}
        arc_within, ends = FinitePhaseSpace.arc_within, Entourage._ends.func

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(FinitePhaseSpace, "arc_within", counted("arc_within", arc_within))
        monkeypatch.setattr(Entourage, "_ends", property(counted("_ends", ends)))
        return calls

    @pytest.mark.parametrize(
        "space",
        [circle_grid(1024), interval_grid(1025), discrete_grid(1025), odometer_system(10).space],
        ids=["circle-1024", "interval-1025", "discrete-1025", "odometer-10"])
    def test_uniform_grid_basis_and_axioms_scan_no_point(self, monkeypatch, space):
        calls = self.count_scans(monkeypatch)
        basis = dyadic_basis(space, 8)
        assert verify_uniformity_axioms(basis).all_ok
        assert calls == {"arc_within": 0, "_ends": 0}
        assert not any("arcs" in vars(level) for level in basis.levels)  # no run was built

    @pytest.mark.parametrize("grid", [interval_grid, circle_grid, discrete_grid])
    def test_one_point_grids(self, grid):
        # one point at 0 with h = 1 (and gap 1 on the discrete grid): every
        # level, from past the full ball down to the floor, is the diagonal
        space = grid(1)
        assert (space.points, space.resolution) == (((0.0,),), 1.0)
        assert space.gap == (1.0 if grid is discrete_grid else None)
        levels = [make_epsilon_entourage(space, r) for r in (2.0, 1.0, 0.5, 0.125)]
        for e in (*levels, diagonal_entourage(space)):
            assert e.arcs == ((0, 0),) and e.is_diagonal_only(), e.label
        basis = dyadic_basis(space, 4)
        report = verify_uniformity_axioms(basis)
        assert report.all_ok and report.floor_is_diagonal
        assert [lvl.half_witness for lvl in report.levels] == ["eps=1"] * 5
        plain = UniformityBasis(tuple(without_half_width(e) for e in basis.levels))
        assert verify_uniformity_axioms(plain) == report

    def test_points_list_basis_and_axioms_scan_each_point(self, monkeypatch):
        # the circle grid's own coordinates, given as a list: not marked uniform
        space = FinitePhaseSpace(circle_grid(1024).points, Geometry.CIRCLE, 1 / 1024)
        calls = self.count_scans(monkeypatch)
        assert verify_uniformity_axioms(dyadic_basis(space, 8)).all_ok
        assert calls["arc_within"] == 8 * 1024 and calls["_ends"] > 0


class TestComposition:
    def test_diagonal_is_identity(self):
        s = interval_grid(4)
        d = diagonal_entourage(s)
        assert relation_pairs(compose(d, d)) == relation_pairs(d)

    def test_power_on_six_point_grid(self):
        # step-neighbor relation squared equals the two-step relation
        s = interval_grid(6)
        e = make_epsilon_entourage(s, s.resolution)
        sq = power(e, 2)
        expected = {(i, j) for i in range(6) for j in range(6) if abs(i - j) <= 2}
        assert relation_pairs(sq) == expected

    def test_power_one_is_the_entourage_itself(self):
        s = circle_grid(6)
        e = make_epsilon_entourage(s, 0.3)
        assert power(e, 1) == e

    def test_complete_relation_absorbs(self):
        s = circle_grid(5)
        full = make_epsilon_entourage(s, 2.0)
        for k in (1, 2, 3):
            assert relation_pairs(power(full, k)) == relation_pairs(full)

    def test_space_mismatch(self):
        from chaindyn import IncompatibleSpaceError

        with pytest.raises(IncompatibleSpaceError):
            compose(
                make_epsilon_entourage(interval_grid(4), 0.5),
                make_epsilon_entourage(interval_grid(5), 0.5),
            )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_associative_and_monotone(self, data):
        n = data.draw(st.integers(min_value=2, max_value=8))
        s = discrete_grid(n)

        def rand_entourage(label):
            pairs = data.draw(
                st.sets(
                    st.tuples(
                        st.integers(0, n - 1), st.integers(0, n - 1)
                    ),
                    max_size=n * 2,
                )
            )
            return Entourage.from_pairs(s, pairs, label)

        e, f, g = (rand_entourage(k) for k in "efg")
        left = relation_pairs(compose(compose(e, f), g))
        right = relation_pairs(compose(e, compose(f, g)))
        assert left == right
        # monotone: E <= F implies E o G <= F o G
        ef = Entourage.from_pairs(
            s, relation_pairs(e) | relation_pairs(f), "ef"
        )
        assert relation_pairs(compose(e, g)) <= relation_pairs(compose(ef, g))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_square_is_subset_matches_the_composite(self, data):
        n = data.draw(st.integers(min_value=1, max_value=8))
        s = discrete_grid(n)

        def rand_relation(label):
            pairs = data.draw(
                st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n)
            )
            return Entourage.from_pairs(s, pairs, label, close=data.draw(st.booleans()))

        d, e = rand_relation("d"), rand_relation("e")
        assert d.square_is_subset(e) == compose(d, d).is_subset(e)
        assert d.square_is_subset(compose(d, d))


class TestCrossSection:
    def test_diagonal(self):
        s = interval_grid(5)
        assert cross_section(diagonal_entourage(s), 3) == frozenset({3})

    def test_circle_ball(self):
        s = circle_grid(4)
        e = make_epsilon_entourage(s, 0.3)
        assert set(cross_section(e, 0)) == {0, 1, 3}

    def test_complete(self):
        s = interval_grid(4)
        e = make_epsilon_entourage(s, 2.0)
        assert set(cross_section(e, 2)) == {0, 1, 2, 3}

    def test_invalid_index(self):
        s = interval_grid(4)
        with pytest.raises(OutOfRangeError):
            cross_section(diagonal_entourage(s), 4)


class TestAxioms:
    def test_dyadic_basis_on_circle_passes(self):
        basis = dyadic_basis(circle_grid(16), 5)
        report = verify_uniformity_axioms(basis)
        assert report.all_ok
        assert all(lvl.half_witness is not None for lvl in report.levels)
        # below the complete-relation scales, the witness is the half-scale
        # level (a ball composed with itself fits in the doubled ball)
        for lvl, next_lvl in zip(basis.levels, basis.levels[1:]):
            if lvl.scale is not None and lvl.scale <= 0.25:
                got = next(
                    r.half_witness for r in report.levels if r.label == lvl.label
                )
                assert got == next_lvl.label

    def test_dyadic_basis_at_4096_points(self):
        # two levels hold all 4096**2 pairs; as intervals they take O(n) each
        start = time.perf_counter()
        basis = dyadic_basis(circle_grid(4096), 8)
        assert verify_uniformity_axioms(basis).all_ok
        assert basis.levels[0].pair_count() == 4096 ** 2
        assert time.perf_counter() - start < 30.0

    def test_asymmetric_level_is_flagged(self):
        s = interval_grid(4)
        bad = Entourage.from_pairs(
            s, [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)], "bad", close=False
        )
        basis = UniformityBasis(
            (make_epsilon_entourage(s, 1.0), bad, diagonal_entourage(s))
        )
        report = verify_uniformity_axioms(basis)
        assert not report.levels[1].symmetric_ok
        assert report.levels[0].symmetric_ok

    def test_single_level_witnessed_by_diagonal(self):
        s = interval_grid(4)
        basis = UniformityBasis(
            (make_epsilon_entourage(s, 2.0), diagonal_entourage(s))
        )
        report = verify_uniformity_axioms(basis)
        assert report.levels[0].half_witness is not None
        assert report.all_ok

    def test_missing_diagonal_is_flagged(self):
        s = interval_grid(3)
        bad = Entourage.from_pairs(s, [(0, 1)], "nodiag", close=False)
        basis = UniformityBasis((bad, diagonal_entourage(s)))
        report = verify_uniformity_axioms(basis)
        assert not report.levels[0].diagonal_ok

    def test_nesting_violation_is_flagged(self):
        s = interval_grid(8)
        basis = UniformityBasis(
            (
                make_epsilon_entourage(s, 0.2),
                make_epsilon_entourage(s, 0.9),
                diagonal_entourage(s),
            )
        )
        report = verify_uniformity_axioms(basis)
        assert not report.levels[0].nested_ok


class TestRefinement:
    def test_whole_space_cover(self):
        basis = dyadic_basis(circle_grid(8), 6)
        d = refining_entourage(basis, [set(range(8))])
        assert d.label == basis.levels[0].label

    def test_two_arc_cover_on_circle(self):
        # two arcs of 5 points overlapping in 2 -> scale at most h
        s = circle_grid(8)
        basis = dyadic_basis(s, 8)
        d = refining_entourage(basis, [set(range(5)), {4, 5, 6, 7, 0}])
        assert d.scale is not None and d.scale <= s.resolution + 1e-12
        for x in range(8):
            row = set(d.rows[x])
            assert row <= set(range(5)) or row <= {4, 5, 6, 7, 0}

    def test_singleton_cover_returns_diagonal_relation(self):
        s = circle_grid(8)
        basis = dyadic_basis(s, 8)
        d = refining_entourage(basis, [{i} for i in range(8)])
        assert d.is_diagonal_only()

    def test_non_cover_rejected(self):
        basis = dyadic_basis(circle_grid(8), 4)
        with pytest.raises(InvalidCoverError):
            refining_entourage(basis, [{0, 1, 2}])

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_refinement_postcondition(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        s = circle_grid(n)
        basis = dyadic_basis(s, 6)
        # random cover: random subsets patched to cover everything
        members = data.draw(
            st.lists(
                st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=4
            )
        )
        members.append(set(range(n)) - set().union(*members) or {0})
        d = refining_entourage(basis, members)
        for x in range(n):
            assert any(set(d.rows[x]) <= m for m in members)
