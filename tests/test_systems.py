import math
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chaindyn import (
    GOLDEN_ALPHA,
    ChainAnalysis,
    Geometry,
    InvalidParameterError,
    MalformedSpecError,
    MapKind,
    ResourceLimitError,
    ValidationError,
    build_transition_graph,
    cantor_space,
    catalog_systems,
    diagonal_entourage,
    doubling_system,
    dyadic_basis,
    evaluate,
    identity_system,
    interval_grid,
    iterate,
    load_system,
    odometer_system,
    permutation_system,
    rotation_system,
    square_system,
    step,
    tent_system,
)
from chaindyn import systems as systems_module
from chaindyn.systems import _separation, grid_permutation, load_analysis_defaults, parse_spec
from chaindyn.uniform import (
    COMPARISON_SLACK,
    MAX_POINTS,
    FinitePhaseSpace,
    circle_grid,
    discrete_grid,
)
from oracles import (
    image_table_bruteforce,
    map_bruteforce,
    odometer_bruteforce,
    resolution_bruteforce,
    sorted_list_space,
)


class TestEvaluate:
    def test_identity_fixed(self):
        s = identity_system(interval_grid(9))
        ev = evaluate(s, 4, 5)
        assert ev.image == s.space.points[4]
        assert ev.nearest_index == 4

    def test_quarter_rotation(self):
        s = rotation_system(0.25, 4)
        ev = evaluate(s, 2, 1)  # point 0.5
        assert ev.image[0] == pytest.approx(0.75)
        assert ev.nearest_index == 3

    def test_doubling_two_steps(self):
        # 0.3 -> 0.6 -> 0.2 by hand
        s = doubling_system(10)
        ev = evaluate(s, 3, 2)
        assert ev.image[0] == pytest.approx(0.2, abs=1e-12)
        assert ev.nearest_index == 2

    def test_zero_iterations_is_identity(self):
        s = doubling_system(8)
        assert evaluate(s, 5, 0).image == s.space.points[5]

    def test_bad_index(self):
        from chaindyn import OutOfRangeError

        with pytest.raises(OutOfRangeError):
            evaluate(doubling_system(8), 8, 1)

    def test_images_stay_in_the_unit_box(self):
        for system in catalog_systems(16):
            for x in range(16):
                for n in (1, 3, 10):
                    image = evaluate(system, x, n).image
                    assert all(0.0 <= c <= 1.0 for c in image), system.name

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (5, 4)])
    def test_iteration_semigroup_property(self, m, n):
        for system in catalog_systems(16):
            for x in (0, 7, 15):
                joined = evaluate(system, x, m + n).image
                chained = iterate(system, iterate(system, system.space.points[x], m), n)
                assert system.space.distance(joined, chained) <= 1e-9 * (m + n)


class TestIteratedSystem:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_power_k_is_k_fold_iterate_bit_for_bit(self, k):
        for system in catalog_systems(16):
            powered = replace(system, power=k)
            for p in system.space.points:
                for m in (0, 1, 5):
                    assert iterate(powered, p, m) == iterate(system, p, k * m), system.name
                assert step(powered, p) == iterate(system, p, k), system.name

    def test_power_must_be_positive(self):
        for bad in (0, -1):
            with pytest.raises(InvalidParameterError):
                replace(doubling_system(8), power=bad)

    def test_grid_permutation_of_an_iterate_is_the_composed_permutation(self):
        s = permutation_system([[0, 1, 2], [3, 4]], 5)
        perm = s.permutation
        assert grid_permutation(replace(s, power=2)) == tuple(perm[perm[i]] for i in range(5))


#: Every kind with a float formula, at slopes and angles that leave the grid.
FLOAT_SYSTEMS = (
    identity_system(interval_grid(16)),
    rotation_system(GOLDEN_ALPHA, 16),
    rotation_system(0.25, 16),
    rotation_system(0.999, 17),
    doubling_system(15),
    tent_system(2.0, 16),
    tent_system(1.5, 16),
    tent_system(0.05, 17),
    square_system(17),
)

#: 0, 1 - 1 ulp, 1, and 0.5 with its neighbours, where the tent switches branch.
EDGE_COORDS = (0.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
               math.nextafter(1.0, 0.0), 1.0)


def formula_power(system, c, applications):
    for _ in range(applications):
        c = map_bruteforce(system, c)
    return c


class TestFloatStep:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_float_step_is_the_formula_bit_for_bit(self, data):
        k = data.draw(st.integers(1, 4))
        system = replace(data.draw(st.sampled_from(FLOAT_SYSTEMS)), power=k)
        c = data.draw(st.sampled_from(EDGE_COORDS) | st.floats(0.0, 1.0))
        assert system.float_step(c).hex() == formula_power(system, c, k).hex()
        m = data.draw(st.integers(0, 3))
        (image,) = iterate(system, (c,), m)
        assert image.hex() == formula_power(system, c, k * m).hex()

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_edge_coordinates_every_kind(self, k):
        for system in FLOAT_SYSTEMS:
            powered = replace(system, power=k)
            for c in EDGE_COORDS:
                assert powered.float_step(c).hex() == formula_power(system, c, k).hex(), (
                    system.name, c)

    def test_no_float_step_without_one_float_coordinate(self):
        plane = FinitePhaseSpace(((0.1, 0.2), (0.3, 0.4), (0.3, 0.4)),
                                 Geometry.PRODUCT_OF_CIRCLES, 0.2)
        systems = (permutation_system([[0, 2, 1]], 3), odometer_system(3),
                   identity_system(plane), replace(identity_system(plane), power=2))
        for system in systems:
            assert system.float_step is None, system.name
            # so no orbit leaves the grid: every exact image is a grid point
            assert all(at is not None for *_, at in system.grid_images), system.name
            assert iterate(system, system.space.points[1], 0) == system.space.points[1]

    @pytest.mark.parametrize("system", [*FLOAT_SYSTEMS, odometer_system(4)], ids=lambda s: s.name)
    def test_orbit_step_walks_the_iterate_orbit(self, system):
        for k in (1, 2):
            powered = replace(system, power=k)
            for x, p in enumerate(powered.space.points):
                coords, at, expected = p, x, p
                for _ in range(30):
                    coords, at = powered.orbit_step(coords, at)
                    expected = iterate(powered, expected, 1)
                    assert coords == expected, (powered.name, k, x)
                    assert at is None or coords == powered.space.points[at]


class TestValidation:
    def test_rotation_needs_circle(self):
        with pytest.raises(ValidationError, match="rotation requires circle"):
            from chaindyn import SystemSpec

            SystemSpec("bad", MapKind.ROTATION, interval_grid(8), (0.3,))

    def test_alpha_range(self):
        with pytest.raises(ValidationError, match="alpha out of range"):
            rotation_system(1.5, 8)

    def test_tent_slope_range(self):
        with pytest.raises(ValidationError, match="slope out of range"):
            tent_system(2.5, 8)

    def test_permutation_must_be_bijection(self):
        with pytest.raises(ValidationError):
            permutation_system([[0, 0]], 4)


class TestOdometer:
    def test_single_cycle_through_all_points(self):
        s = odometer_system(3)
        idx = 0
        seen = [idx]
        for _ in range(7):
            idx = s.permutation[idx]
            seen.append(idx)
        assert sorted(seen) == list(range(8))
        assert s.permutation[idx] == 0  # wraps after 2^levels steps

    def test_adding_machine_carry(self):
        # point 0 is bits (0,0,..): +1 sets the first digit: coordinate 1/2
        s = odometer_system(4)
        img = step(s, s.space.points[0])
        assert img[0] == pytest.approx(0.5)
        # all-ones (coordinate 1 - 2^-L) wraps to zero
        top = s.space.n - 1
        assert step(s, s.space.points[top])[0] == pytest.approx(0.0)

    def test_equicontinuous_isometry_on_dyadic_blocks(self):
        # the adding machine preserves 2^-k-block membership: distances at
        # scale >= 2^-k are preserved for pairs in one block
        s = odometer_system(4)
        perm = s.permutation
        assert perm is not None and sorted(perm) == list(range(16))

    @pytest.mark.parametrize("levels", range(1, 17))
    def test_permutation_matches_the_carry_loop(self, levels):
        assert odometer_system(levels).permutation == odometer_bruteforce(levels)


class TestCantor:
    def test_level_one(self):
        sp = cantor_space(1)
        assert sp.points == ((0.0,), (2.0 / 3.0,))
        assert sp.gap == pytest.approx(1.0 / 3.0)

    def test_level_two(self):
        sp = cantor_space(2)
        coords = [p[0] for p in sp.points]
        assert coords == pytest.approx([0.0, 2 / 9, 2 / 3, 8 / 9])

    def test_level_three_minimum_gap(self):
        sp = cantor_space(3)
        assert sp.n == 8
        dists = [
            sp.distance(a, b)
            for i, a in enumerate(sp.points)
            for b in sp.points[i + 1 :]
        ]
        assert min(dists) == pytest.approx(2.0 / 27.0)
        assert sp.gap == pytest.approx(1.0 / 27.0)
        assert min(dists) > sp.gap

    def test_levels_capped(self):
        from chaindyn import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            cantor_space(0)
        with pytest.raises(InvalidParameterError):
            cantor_space(13)

    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_entourages_below_gap_are_diagonal_only(self, levels):
        from chaindyn import make_epsilon_entourage

        sp = cantor_space(levels)
        below = make_epsilon_entourage(sp, 0.99 * sp.gap)
        assert below.is_diagonal_only()
        at_min = make_epsilon_entourage(sp, 2 * 3.0 ** (-levels))
        assert not at_min.is_diagonal_only()


class TestUniformContinuity:
    # the standing hypothesis: every catalog map carries some basis level
    # D into each target level E, checked on all grid pairs

    @pytest.mark.parametrize("n", [64, 256])
    def test_catalog_maps_uniformly_continuous(self, n):
        for system in catalog_systems(n):
            basis = dyadic_basis(system.space, 6)
            images = [step(system, p) for p in system.space.points]
            for target in basis.levels:
                scale = target.scale
                if scale is None:
                    continue
                found = False
                for cand in basis.levels:
                    ok = all(
                        system.space.distance(images[x], images[y]) <= scale + 1e-12
                        for x, row in enumerate(cand.rows)
                        for y in row
                    )
                    if ok:
                        found = True
                        break
                assert found, (system.name, target.label)


class TestGridPermutation:
    def test_resonant_rotation_is_grid_bijection(self):
        s = rotation_system(4 / 16, 16)
        perm = grid_permutation(s)
        assert perm is not None
        assert perm[0] == 4

    def test_golden_rotation_is_not(self):
        assert grid_permutation(rotation_system(GOLDEN_ALPHA, 16)) is None

    def test_doubling_is_not_injective(self):
        assert grid_permutation(doubling_system(16)) is None


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "rot.yaml"
        p.write_text(
            "name: golden\nmap: rotation\ngeometry: circle\ngrid_n: 512\n"
            "params: [0.618]\n"
        )
        s = load_system(str(p))
        assert s.kind == MapKind.ROTATION
        assert s.space.n == 512
        assert s.space.resolution == pytest.approx(1 / 512)
        assert s.params == (0.618,)

    def test_rotation_on_interval_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "name: bad\nmap: rotation\ngeometry: interval\ngrid_n: 16\nparams: [0.3]\n"
        )
        with pytest.raises(ValidationError, match="rotation requires circle"):
            load_system(str(p))

    def test_alpha_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text(
            "name: bad\nmap: rotation\ngeometry: circle\ngrid_n: 16\nparams: [1.5]\n"
        )
        with pytest.raises(ValidationError, match="alpha out of range"):
            load_system(str(p))

    def test_parse_error_carries_line(self, tmp_path):
        p = tmp_path / "broken.yaml"
        p.write_text("name: x\nmap: [unclosed\n")
        with pytest.raises(MalformedSpecError, match="line"):
            load_system(str(p))

    def test_missing_key_named(self, tmp_path):
        p = tmp_path / "missing.yaml"
        p.write_text("name: x\nmap: doubling\n")
        with pytest.raises(ValidationError, match="geometry"):
            load_system(str(p))

    def test_explicit_points(self, tmp_path):
        p = tmp_path / "pts.yaml"
        p.write_text(
            "name: pts\nmap: identity\ngeometry: discrete\npoints: [0.0, 0.4, 1.0]\n"
        )
        s = load_system(str(p))
        assert s.space.n == 3
        assert s.space.resolution == pytest.approx(0.4)

    def test_explicit_points_are_capped(self, tmp_path):
        def doc(points):
            return {"name": "pts", "map": "identity", "geometry": "discrete", "points": points}

        path = str(tmp_path / "pts.yaml")
        at_cap = [k / (MAX_POINTS - 1) for k in range(MAX_POINTS)]
        assert load_system(path, document=doc(at_cap)).space.n == MAX_POINTS
        with pytest.raises(ResourceLimitError):
            load_system(path, document=doc(at_cap + [0.5]))
        # refused before any coordinate is converted
        with pytest.raises(ResourceLimitError):
            load_system(path, document=doc(["not a number"] * (MAX_POINTS + 1)))

    def test_permutation_cycles(self, tmp_path):
        p = tmp_path / "perm.yaml"
        p.write_text(
            "name: swap\nmap: permutation\ngeometry: discrete\ngrid_n: 4\n"
            "cycles: [[0, 1], [2, 3]]\n"
        )
        s = load_system(str(p))
        assert s.permutation == (1, 0, 3, 2)

    def test_permutation_spec_builds_one_space(self, tmp_path, monkeypatch):
        # one grid, the spec's own, and the cycle messages of permutation_system
        import chaindyn.systems as systems

        built, grid = [], systems.discrete_grid
        monkeypatch.setattr(systems, "discrete_grid", lambda n: built.append(n) or grid(n))
        path = str(tmp_path / "perm.yaml")
        doc = {"name": "swap", "map": "permutation", "geometry": "discrete", "grid_n": 4}
        s = load_system(path, {**doc, "cycles": [[0, 1], [2, 3]]})
        assert built == [4] and s.permutation == (1, 0, 3, 2)
        assert s.space.points == grid(4).points
        for cycles, message in (([[0, 4]], "cycle index 4 out of range"),
                                ([[0, 1], [1, 2]], "cycle index 1 repeated")):
            with pytest.raises(ValidationError) as from_spec:
                load_system(path, {**doc, "cycles": cycles})
            with pytest.raises(ValidationError) as from_cycles:
                permutation_system(cycles, 4)
            assert str(from_spec.value) == str(from_cycles.value) == message

    @pytest.mark.parametrize("twin", [0.0, 1e-13], ids=["repeated", "within-slack"])
    def test_permutation_over_a_repeated_point_is_refused(self, tmp_path, twin):
        # point 2 snaps to point 0, so an orbit walk would cycle 0.5, 0.0, 0.5, ...
        # while the permutation takes it on to 0.75: one spec, two dynamics
        doc = {"name": "p", "map": "permutation", "geometry": "discrete",
               "points": [0.0, 0.5, twin, 0.75], "cycles": [[0, 1, 2, 3]]}
        with pytest.raises(ValidationError, match="points"):
            load_system(str(tmp_path / "perm.yaml"), doc)

    def test_permutation_over_shuffled_distinct_points_loads(self, tmp_path):
        doc = {"name": "p", "map": "permutation", "geometry": "discrete",
               "points": [0.75, 0.0, 0.5, 0.25], "cycles": [[0, 1, 2, 3]]}
        s = load_system(str(tmp_path / "perm.yaml"), doc)
        assert s.permutation == (1, 2, 3, 0)
        assert [t for _, t, _, _ in s.grid_images] == list(s.permutation)
        assert ChainAnalysis.from_graph(
            build_transition_graph(s, diagonal_entourage(s.space))).recurrent == set(range(4))

    def test_odometer_from_file(self, tmp_path):
        p = tmp_path / "odo.yaml"
        p.write_text("name: odo\nmap: odometer\ngeometry: discrete\nparams: [3]\n")
        s = load_system(str(p))
        assert s.space.n == 8
        assert s.levels == 3

    def test_analysis_defaults(self, tmp_path):
        p = tmp_path / "full.yaml"
        p.write_text(
            "name: d\nmap: doubling\ngeometry: circle\ngrid_n: 32\n"
            "analysis:\n  seed: 9\n  horizon: 50\n"
        )
        assert load_analysis_defaults(str(p)) == {"seed": 9, "horizon": 50}


#: A coordinate: one at the wrap, at half a turn or a bit either side of it, or 1e-13 from
#: 0.0, else any in [0, 1].
SWEEP_COORD = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53, 0.25, 0.75, 1e-13]),
    st.floats(0.0, 1.0),
)


class TestExplicitListResolution:
    @given(
        coords=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 0.21, 0.77, 0.5]), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=30,
        ),
        geometry=st.sampled_from([Geometry.INTERVAL, Geometry.CIRCLE, Geometry.DISCRETE]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pair_scan(self, coords, geometry):
        points = tuple((c,) for c in coords)
        assert _separation(points, geometry) == resolution_bruteforce(points, geometry)

    @given(
        pool=st.lists(st.tuples(SWEEP_COORD, SWEEP_COORD), min_size=1, max_size=12),
        picks=st.lists(st.integers(0, 11), min_size=1, max_size=40),
        dimension=st.sampled_from([1, 2]),
        geometry=st.sampled_from([Geometry.INTERVAL, Geometry.CIRCLE, Geometry.DISCRETE]),
    )
    @example(pool=[(0.0, 0.0), (1.0, 1.0)], picks=[0, 1], dimension=1, geometry=Geometry.CIRCLE)
    @example(pool=[(0.3, 0.3)], picks=[0], dimension=2, geometry=Geometry.CIRCLE)
    @example(pool=[(0.0, 0.5), (1.0, 0.25), (0.5, 1.0)], picks=[0, 1, 2, 0, 2],
             dimension=2, geometry=Geometry.CIRCLE)
    @settings(max_examples=300, deadline=None)
    def test_sweep_matches_the_pair_scan(self, pool, picks, dimension, geometry):
        # points drawn from a small pool repeat; 1-D lines take the neighbour pass
        points = tuple(pool[k % len(pool)][:dimension] for k in picks)
        assert _separation(points, geometry) == resolution_bruteforce(points, geometry)

    def test_circle_keeps_the_scan_value(self):
        # sorted neighbours give 0.21; the wrap pair (1.0, 0.21) gives one bit less
        points = ((0.0,), (0.21,), (1.0,), (0.77,))
        assert _separation(points, Geometry.CIRCLE) == 0.20999999999999996
        assert _separation(points, Geometry.INTERVAL) == 0.21


class TestCatalog:
    def test_names_are_stable(self):
        names = [s.name for s in catalog_systems(16)]
        assert names == [
            "identity",
            "rotation-golden",
            "doubling",
            "tent-2",
            "square",
            "cycle-shift",
            "odometer-4",
        ]

    def test_non_power_of_two_drops_odometer(self):
        names = [s.name for s in catalog_systems(24)]
        assert not any(n.startswith("odometer") for n in names)


# ---------------------------------------------------------------------------
# the two YAML loaders

SPECS = sorted((Path(__file__).resolve().parent.parent / "specs").glob("*.yaml"))
NO_LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML has no libyaml")
#: PyYAML's pure-Python loader and, where PyYAML has it, the libyaml one.
LOADERS = [
    pytest.param(yaml.SafeLoader, id="python"),
    pytest.param(getattr(yaml, "CSafeLoader", None), id="libyaml", marks=NO_LIBYAML),
]


def _outcome(path, loader, monkeypatch):
    """parse_spec's document under ``loader``, or its error type and ``(line N)``."""
    monkeypatch.setattr(systems_module, "_LOADER", loader)
    try:
        return parse_spec(path)
    except MalformedSpecError as exc:
        line = re.search(r"\(line \d+\)", str(exc))
        return type(exc), line and line.group()


def _scalar():
    # YAML 1.1 reads 1e-3 as a string, 1:30 as 90 and 0x10 as 16
    edge = st.sampled_from(["1e-3", "true", "~", "0x10", "1:30", "yes", "017", "-0", ".inf"])
    floats = st.floats(0.0, 1.0).map(repr)
    return st.one_of(edge, floats, st.integers(-5, 5000).map(str))


@st.composite
def _spec_texts(draw):
    """Spec documents of every shape the loader reads, some of them invalid as systems."""
    scalar = _scalar()
    geometry = draw(st.sampled_from(["circle", "interval", "discrete"]))
    lines = [f"name: {draw(st.from_regex(r'[a-z][a-z0-9-]{0,8}', fullmatch=True))}"]
    shape = draw(st.sampled_from(["grid_n", "odometer", "sorted", "unsorted", "plane"]))
    coords = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    if shape == "grid_n":
        lines += ["map: identity", f"geometry: {geometry}", f"grid_n: {draw(scalar)}"]
    elif shape == "odometer":
        lines += ["map: odometer", "geometry: discrete", f"params: [{draw(scalar)}]"]
    elif shape == "plane":
        pairs = ", ".join(f"[{a!r}, {draw(scalar)}]" for a in coords)
        lines += ["map: identity", "geometry: product-of-circles", f"points: [{pairs}]"]
    else:
        xs = sorted(coords) if shape == "sorted" else coords
        lines += ["map: permutation", f"geometry: {geometry}", "points:"]
        lines += [f"  - {x!r}" for x in xs]
        cycles = draw(st.lists(st.lists(st.integers(0, 7), max_size=4), max_size=3))
        lines.append(f"cycles: {cycles}")
    keys = draw(st.lists(st.sampled_from(["epsilon", "seed", "horizon", "format", "x"]),
                         unique=True, max_size=4))
    if keys:
        lines.append("analysis:")
        lines += [f"  {key}: {draw(scalar)}" for key in keys]
    return "\n".join(lines) + "\n"


class TestSpecLoaders:
    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("spec", SPECS, ids=lambda p: p.name)
    def test_bundled_specs_parse_alike(self, spec, loader, monkeypatch):
        expected = yaml.load(spec.read_text(encoding="utf-8"), Loader=yaml.SafeLoader)
        assert _outcome(str(spec), loader, monkeypatch) == expected

    @NO_LIBYAML
    @given(_spec_texts())
    @settings(max_examples=200, deadline=None)
    def test_generated_specs_parse_alike(self, text):
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("loader", LOADERS)
    def test_yaml_1_1_scalars(self, loader, tmp_path, monkeypatch):
        p = tmp_path / "edge.yaml"
        p.write_text("a: 1e-3\nb: true\nc: ~\nd: 0x10\ne: 1:30\nf: 1.0e-3\n")
        assert _outcome(str(p), loader, monkeypatch) == {
            "a": "1e-3", "b": True, "c": None, "d": 16, "e": 90, "f": 0.001}

    @pytest.mark.parametrize("loader", LOADERS)
    @pytest.mark.parametrize("text, expected", [
        ("name: d\nmap: doubling\ngeometry: circle\ngrid_n: [16\n",
         (MalformedSpecError, "(line 5)")),
        ("name: d\nmap: doubling\n\tgeometry: circle\ngrid_n: 16\n",
         (MalformedSpecError, "(line 3)")),
        ("just a scalar\n", (MalformedSpecError, None)),
        # both loaders keep the last of two equal keys
        ("name: d\nname: e\nmap: doubling\n", {"name": "e", "map": "doubling"}),
    ], ids=["unclosed-bracket", "tab-indent", "bare-scalar", "duplicate-key"])
    def test_malformed_yaml_fails_alike(self, text, expected, loader, tmp_path, monkeypatch):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        assert _outcome(str(p), loader, monkeypatch) == expected


# ---------------------------------------------------------------------------
# image tables read off the index table

def _coords(min_size=1):
    return st.lists(st.floats(0.0, 1.0), min_size=min_size, max_size=12)


@st.composite
def _grid_map_systems(draw):
    """Identity, permutation and odometer systems on the spaces the tables are read off
    and on those that keep the snaps: wrapping, unsorted, repeated and 2-D lists.

    A permutation is drawn only over points more than the slack apart, since the
    constructor refuses it over any others."""
    n = draw(st.integers(1, 24))
    space = draw(st.sampled_from(["interval", "circle", "discrete", "odometer", "cantor",
                                  "sorted", "wrap", "unsorted", "repeated", "plane"]))
    if space == "odometer":
        return odometer_system(draw(st.integers(1, 5)))
    geometry = draw(st.sampled_from([Geometry.INTERVAL, Geometry.CIRCLE, Geometry.DISCRETE]))
    if space in ("interval", "circle", "discrete"):
        space = {"interval": interval_grid, "circle": circle_grid,
                 "discrete": discrete_grid}[space](n)
    elif space == "cantor":
        space = cantor_space(draw(st.integers(1, 4)))
    elif space == "sorted":
        space = sorted_list_space(draw(_coords().map(set)), geometry)
    elif space == "wrap":  # 1.0 meets 0.0 around the circle
        coords = sorted({0.0, 1.0, *draw(_coords(0))})
        space = FinitePhaseSpace(tuple((c,) for c in coords), Geometry.CIRCLE, 0.5)
    elif space == "plane":
        pairs = draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                              min_size=1, max_size=12))
        space = FinitePhaseSpace(tuple(pairs), Geometry.PRODUCT_OF_CIRCLES, 0.5)
    else:
        coords = draw(_coords(2))
        if space == "repeated":
            coords.insert(draw(st.integers(0, len(coords))), draw(st.sampled_from(coords)))
        else:
            coords = draw(st.permutations(coords))
        space = FinitePhaseSpace(tuple((c,) for c in coords), geometry, 0.5)
    separated = len(set(space.points)) == space.n and (
        _separation(space.points, space.geometry) > COMPARISON_SLACK)
    if space.geometry is not Geometry.DISCRETE or not separated or draw(st.booleans()):
        return identity_system(space)
    perm = tuple(draw(st.permutations(range(space.n))))
    return replace(permutation_system([], space.n), space=space, permutation=perm)


#: A 2-D identity whose first two points are twins 1e-13 apart: the second snaps
#: to the first without equalling it, and no float step moves it.
_TWIN_PLANE = identity_system(FinitePhaseSpace(
    ((0.0, 0.0), (1e-13, 0.0), (0.5, 0.5)), Geometry.PRODUCT_OF_CIRCLES, 0.5))


class TestReadOffImageTables:
    @given(_grid_map_systems(), st.integers(1, 3))
    @example(_TWIN_PLANE, 1)
    @settings(max_examples=300, deadline=None)
    def test_tables_match_the_bruteforce_snaps(self, system, power):
        system = replace(system, power=power)
        for k, s in zip(range(1, 7), system.iterates()):
            expected = repr(image_table_bruteforce(system, k))  # repr keeps -0.0 apart
            assert repr(s.grid_images) == expected, k
            assert repr(replace(system, power=k * power).grid_images) == expected, k

    @pytest.mark.parametrize("coords, geometry, indices", [
        ((0.0, 0.5, 1.0), Geometry.CIRCLE, [0, 1, 0]),  # 1.0 meets 0.0 around the circle
        ((0.5, 0.0, 1.0), Geometry.INTERVAL, [0, 1, 2]),
        ((0.0, 0.5, 0.5, 1.0), Geometry.DISCRETE, [0, 1, 1, 3]),  # 0.5 snaps to its first copy
    ], ids=["wrapping", "unsorted", "repeated"])
    def test_lists_that_keep_the_snaps(self, coords, geometry, indices):
        system = identity_system(FinitePhaseSpace(tuple((c,) for c in coords), geometry, 0.5))
        assert system.grid_images == image_table_bruteforce(system)
        assert [idx for _, idx, _, _ in system.grid_images] == indices

    def test_read_off_tables_take_no_snap(self, monkeypatch):
        calls = []
        snap = FinitePhaseSpace.snap
        monkeypatch.setattr(
            FinitePhaseSpace, "snap", lambda self, coords: calls.append(1) or snap(self, coords))
        for system, snaps in (
            (permutation_system([list(range(64))], 64), 0),
            (identity_system(interval_grid(64)), 0),
            (doubling_system(64), 64),
        ):
            calls.clear()
            assert len(system.grid_images) == 64
            assert len(calls) == snaps, system.name
