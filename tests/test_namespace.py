"""The package namespace: its public names, where each comes from, and how it fails."""

import importlib

import pytest

import chaindyn

#: The public names, by the submodule that defines them; each submodule's name is public too.
PUBLIC = {
    "errors": """ChainDynError DiscretizationTooCoarseError IncompatibleSpaceError
        InvalidCoverError InvalidParameterError MalformedSpecError NoCoprimeCyclesError
        NoCycleError NoNonwanderingPointsError NotCoprimeError OutOfRangeError
        ResourceLimitError UndefinedDiameterError ValidationError""".split(),
    "uniform": """AxiomReport Entourage FinitePhaseSpace Geometry UniformityBasis circle_grid
        compose cross_section diagonal_entourage discrete_grid dyadic_basis interval_grid
        make_epsilon_entourage power refining_entourage verify_uniformity_axioms""".split(),
    "systems": """GOLDEN_ALPHA MapEvaluation MapKind SystemSpec cantor_space catalog_systems
        doubling_system evaluate identity_system iterate load_system odometer_system
        permutation_system rotation_system square_system step tent_system""".split(),
    "chaingraph": """ChainAnalysis TransitionGraph build_transition_graph chain_diameter
        chain_recurrent_set closed_walk_lengths cyclic_classes find_coprime_cycles
        graph_from_edges graph_period is_chain_mixing is_chain_transitive
        is_totally_chain_transitive power_graph strongly_connected_components""".split(),
    "semigroup": """GeneratorSet frobenius_bound gcd_set realizable_length_bound
        representable""".split(),
    "shadowing": """DichotomyReport IsobasismReport IterateConsistencyReport PseudoOrbit
        ShadowReport ShadowingModulusReport disconnectedness_dichotomy
        estimate_shadowing_modulus export_pseudo_orbit find_shadow_point
        generate_pseudo_orbit import_pseudo_orbit isobasism_check iterate_shadowing_check
        verify_pseudo_orbit""".split(),
    "recurrence": """OmegaShadowingReport ReturnSetClassification ReturnTimeSet
        classify_return_set nonwandering_points omega_limit omega_restriction_shadowing
        omega_subset_of_chain_recurrent return_times weak_mixing_witness""".split(),
}
NAMES = sorted([*PUBLIC, *(name for names in PUBLIC.values() for name in names)])


def test_all_holds_the_pinned_names():
    assert len(NAMES) == 99
    assert sorted(chaindyn.__all__) == NAMES


@pytest.mark.parametrize("home", sorted(PUBLIC))
def test_each_name_is_the_object_its_module_defines(home):
    module = importlib.import_module(f"chaindyn.{home}")
    # the import binds the package attribute itself; __getattr__ must agree
    assert chaindyn.__getattr__(home) is module
    assert getattr(chaindyn, home) is module
    for name in PUBLIC[home]:
        obj = getattr(chaindyn, name)
        assert obj is getattr(module, name), name
        if callable(obj):
            assert obj.__module__ == module.__name__, name


def test_dir_lists_every_public_name():
    assert set(chaindyn.__all__) <= set(dir(chaindyn))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'chaindyn' has no attribute 'no_such_name'"):
        chaindyn.no_such_name  # noqa: B018
    assert not hasattr(chaindyn, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from chaindyn import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == NAMES
