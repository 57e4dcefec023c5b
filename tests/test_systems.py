from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaindyn import (
    GOLDEN_ALPHA,
    Geometry,
    InvalidParameterError,
    MalformedSpecError,
    MapKind,
    ResourceLimitError,
    ValidationError,
    cantor_space,
    catalog_systems,
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
    step,
    tent_system,
)
from chaindyn.systems import _separation, grid_permutation, load_analysis_defaults
from chaindyn.uniform import MAX_POINTS
from oracles import resolution_bruteforce


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
