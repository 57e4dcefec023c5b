"""Grid indices and second spaces are refused by the two ``FinitePhaseSpace`` guards.

Every public function or method that takes a grid index (or a vertex of
a transition graph) or an object over a second space is listed once
below.  An index of -1 or n is an :class:`OutOfRangeError` and a space of
another size an :class:`IncompatibleSpaceError`; neither leaks a bare
``IndexError`` or reads an index from the end.  A count that is not an
``int`` (a float, a string or a bool) is an :class:`InvalidParameterError`,
never a bare ``TypeError`` or a grid of ``True`` points.

The remaining guards, on malformed spaces, systems, bases, covers, allowed
sets and report formats, are listed in ``MALFORMED`` with the error each
raises, and the edge cases that are answers, not errors (a walk that dies,
a blank record line, an empty report value), have a test each.
"""

import re
from dataclasses import replace

import pytest

from chaindyn import (
    ChainAnalysis,
    ChainDynError,
    Entourage,
    FinitePhaseSpace,
    GeneratorSet,
    Geometry,
    IncompatibleSpaceError,
    InvalidCoverError,
    InvalidParameterError,
    MapKind,
    OutOfRangeError,
    PseudoOrbit,
    SystemSpec,
    UniformityBasis,
    ValidationError,
    build_transition_graph,
    cantor_space,
    circle_grid,
    closed_walk_lengths,
    compose,
    cross_section,
    disconnectedness_dichotomy,
    discrete_grid,
    doubling_system,
    dyadic_basis,
    estimate_shadowing_modulus,
    evaluate,
    export_pseudo_orbit,
    find_coprime_cycles,
    find_shadow_point,
    generate_pseudo_orbit,
    graph_from_edges,
    graph_period,
    import_pseudo_orbit,
    interval_grid,
    is_totally_chain_transitive,
    isobasism_check,
    iterate,
    iterate_shadowing_check,
    make_epsilon_entourage,
    nonwandering_points,
    omega_limit,
    omega_restriction_shadowing,
    omega_subset_of_chain_recurrent,
    odometer_system,
    permutation_system,
    power,
    power_graph,
    refining_entourage,
    representable,
    return_times,
    verify_pseudo_orbit,
    weak_mixing_witness,
)
from chaindyn.cli import Report, _text_value, render

N = 16
SYSTEM = doubling_system(N)
SPACE = SYSTEM.space
D = make_epsilon_entourage(SPACE, 0.25)
EXPLICIT = Entourage.from_pairs(SPACE, [(x, x) for x in range(N)], "diagonal")
GRAPH = build_transition_graph(SYSTEM, D)
BASIS = dyadic_basis(SPACE, 3)
OTHER = circle_grid(8)
D_OTHER = make_epsilon_entourage(OTHER, 0.25)
BASIS_OTHER = dyadic_basis(OTHER, 3)


def orbit(*states: int) -> PseudoOrbit:
    return PseudoOrbit(states, D.label, None, states[1:])


INDEX_TAKERS = {
    "Entourage.row": lambda i: D.row(i),
    "Entourage.row-explicit": lambda i: EXPLICIT.row(i),
    "Entourage.contains-x": lambda i: D.contains(i, 0),
    "Entourage.contains-y": lambda i: D.contains(0, i),
    "Entourage.contains-explicit": lambda i: EXPLICIT.contains(0, i),
    "TransitionGraph.has_edge-x": lambda i: GRAPH.has_edge(i, 0),
    "TransitionGraph.has_edge-y": lambda i: GRAPH.has_edge(0, i),
    "graph_from_edges": lambda i: graph_from_edges(N, [(0, 1), (0, i)]),
    "graph_period": lambda i: graph_period(GRAPH, i),  # GRAPH has one component
    "closed_walk_lengths": lambda i: closed_walk_lengths(GRAPH, i, 3),
    "find_coprime_cycles": lambda i: find_coprime_cycles(GRAPH, i),
    "from_pairs": lambda i: Entourage.from_pairs(SPACE, [(0, i)], "p"),
    "cross_section": lambda i: cross_section(D, i),
    "refining_entourage": lambda i: refining_entourage(BASIS, [range(N), [i]]),
    "evaluate": lambda i: evaluate(SYSTEM, i, 1),
    "return_times": lambda i: return_times(SYSTEM, [0], [i], 5),
    "weak_mixing_witness": lambda i: weak_mixing_witness(SYSTEM, [i], [0], 5),
    "omega_limit": lambda i: omega_limit(SYSTEM, i, 1, 5),
    "generate_pseudo_orbit-start": lambda i: generate_pseudo_orbit(SYSTEM, D, 5, 0, start=i),
    "generate_pseudo_orbit-target": lambda i: generate_pseudo_orbit(
        SYSTEM, D, 5, 0, "adversarial-drift", target=i),
    "generate_pseudo_orbit-allowed": lambda i: generate_pseudo_orbit(
        SYSTEM, D, 5, 0, allowed=[0, i]),
    "verify_pseudo_orbit-first": lambda i: verify_pseudo_orbit(orbit(i, 0), SYSTEM, D),
    "verify_pseudo_orbit-last": lambda i: verify_pseudo_orbit(orbit(0, i), SYSTEM, D),
    "find_shadow_point-orbit": lambda i: find_shadow_point(orbit(i, 0), D, SYSTEM),
    "find_shadow_point-candidates": lambda i: find_shadow_point(
        orbit(0, 0), D, SYSTEM, candidates=[0, i]),
    "export_pseudo_orbit-first": lambda i: export_pseudo_orbit(orbit(i, 0), SYSTEM),
    "export_pseudo_orbit-last": lambda i: export_pseudo_orbit(orbit(0, i), SYSTEM),
}

SPACE_TAKERS = {
    "Entourage.is_subset": lambda: D.is_subset(D_OTHER),
    "Entourage.square_is_subset": lambda: D.square_is_subset(D_OTHER),
    "compose": lambda: compose(D, D_OTHER),
    "UniformityBasis": lambda: UniformityBasis((D, D_OTHER)),
    "build_transition_graph": lambda: build_transition_graph(SYSTEM, D_OTHER),
    "is_totally_chain_transitive": lambda: is_totally_chain_transitive(SYSTEM, D_OTHER, 2),
    "is_totally_chain_transitive-analysis": lambda: is_totally_chain_transitive(
        SYSTEM, D_OTHER, 1, analysis=ChainAnalysis.from_graph(build_transition_graph(SYSTEM, D))),
    "nonwandering_points": lambda: nonwandering_points(SYSTEM, D_OTHER, 5),
    "omega_subset_of_chain_recurrent": lambda: omega_subset_of_chain_recurrent(
        SYSTEM, D_OTHER, 5),
    "omega_restriction_shadowing": lambda: omega_restriction_shadowing(
        SYSTEM, D_OTHER, BASIS, 5, 1, 0),
    "generate_pseudo_orbit": lambda: generate_pseudo_orbit(SYSTEM, D_OTHER, 5, 0),
    "verify_pseudo_orbit": lambda: verify_pseudo_orbit(orbit(12, 3), SYSTEM, D_OTHER),
    "find_shadow_point": lambda: find_shadow_point(orbit(0, 0), D_OTHER, SYSTEM),
    "estimate_shadowing_modulus-e": lambda: estimate_shadowing_modulus(
        SYSTEM, D_OTHER, BASIS, 1, 5, 0),
    "estimate_shadowing_modulus-basis": lambda: estimate_shadowing_modulus(
        SYSTEM, D, BASIS_OTHER, 1, 5, 0),
    "iterate_shadowing_check": lambda: iterate_shadowing_check(SYSTEM, D, BASIS_OTHER, 2, 1, 0),
    "isobasism_check": lambda: isobasism_check(SYSTEM, BASIS_OTHER),
    "disconnectedness_dichotomy-e": lambda: disconnectedness_dichotomy(
        SPACE, D_OTHER, BASIS, 1, 0),
    "disconnectedness_dichotomy-basis": lambda: disconnectedness_dichotomy(
        SPACE, D, BASIS_OTHER, 1, 0),
}

NON_INTEGER_TAKERS = {
    "representable": lambda v: representable(v, GeneratorSet.of([3, 5])),
    "circle_grid": circle_grid,
    "interval_grid": interval_grid,
    "discrete_grid": discrete_grid,
    "dyadic_basis": lambda v: dyadic_basis(SPACE, v),
    "power": lambda v: power(D, v),
    "graph_from_edges": lambda v: graph_from_edges(v, []),
    "power_graph": lambda v: power_graph(GRAPH, v),
    "is_totally_chain_transitive": lambda v: is_totally_chain_transitive(SYSTEM, D, v),
    "nonwandering_points": lambda v: nonwandering_points(SYSTEM, D, v),
    "return_times": lambda v: return_times(SYSTEM, [0], [1], v),
    "weak_mixing_witness": lambda v: weak_mixing_witness(SYSTEM, [0], [1], v),
    "omega_limit-transient": lambda v: omega_limit(SYSTEM, 0, v, 20),
    "omega_limit-horizon": lambda v: omega_limit(SYSTEM, 0, 1, v),
    "estimate_shadowing_modulus": lambda v: estimate_shadowing_modulus(SYSTEM, D, BASIS, v, 5, 0),
    "generate_pseudo_orbit": lambda v: generate_pseudo_orbit(SYSTEM, D, v, 0),
    "iterate_shadowing_check": lambda v: iterate_shadowing_check(SYSTEM, D, BASIS, v, 1, 0),
    "SystemSpec-power": lambda v: replace(SYSTEM, power=v),
    "iterate": lambda v: iterate(SYSTEM, (0.0,), v),
    "evaluate": lambda v: evaluate(SYSTEM, 0, v),
    "cantor_space": cantor_space,
    "odometer_system": odometer_system,
    "permutation_system": lambda v: permutation_system([], v),
}


@pytest.mark.parametrize("index", [-1, N], ids=["minus-one", "n"])
@pytest.mark.parametrize("call", INDEX_TAKERS.values(), ids=INDEX_TAKERS.keys())
def test_index_off_the_grid_is_out_of_range(call, index):
    with pytest.raises(OutOfRangeError):
        call(index)


@pytest.mark.parametrize("call", SPACE_TAKERS.values(), ids=SPACE_TAKERS.keys())
def test_object_over_another_space_is_incompatible(call):
    with pytest.raises(IncompatibleSpaceError):
        call()


def test_imported_orbit_off_the_grid_is_out_of_range():
    # the record format admits any non-negative index; the system decides
    imported, _ = import_pseudo_orbit("0 0.0 99\n")
    with pytest.raises(OutOfRangeError):
        verify_pseudo_orbit(imported, SYSTEM, D)


def test_graph_of_negative_size_is_invalid():
    with pytest.raises(InvalidParameterError):
        graph_from_edges(-1, [])


@pytest.mark.parametrize("value", [2.5, 8.0, "8", True], ids=["2.5", "8.0", "str", "bool"])
@pytest.mark.parametrize("call", NON_INTEGER_TAKERS.values(), ids=NON_INTEGER_TAKERS.keys())
def test_count_that_is_not_an_int_is_invalid(call, value):
    with pytest.raises(InvalidParameterError):
        call(value)


#: Malformed arguments that no other test reaches, each with its error and
#: a fragment of the message that documents it.
MALFORMED = {
    "FinitePhaseSpace-no-points": (
        lambda: FinitePhaseSpace((), Geometry.INTERVAL, 0.5),
        InvalidParameterError, "at least one point"),
    "FinitePhaseSpace-zero-resolution": (
        lambda: FinitePhaseSpace(((0.0,),), Geometry.INTERVAL, 0.0),
        InvalidParameterError, "resolution must be positive"),
    "FinitePhaseSpace-negative-resolution": (
        lambda: FinitePhaseSpace(((0.0,),), Geometry.INTERVAL, -1.0),
        InvalidParameterError, "resolution must be positive"),
    "FinitePhaseSpace-dimension-0": (
        lambda: FinitePhaseSpace(((),), Geometry.DISCRETE, 1.0),
        InvalidParameterError, "dimension >= 1"),
    "SystemSpec-permutation-not-a-bijection": (
        lambda: SystemSpec("p", MapKind.PERMUTATION, discrete_grid(3), (), (0, 0, 1)),
        ValidationError, "bijection"),
    "SystemSpec-permutation-missing": (
        lambda: SystemSpec("p", MapKind.PERMUTATION, discrete_grid(3)),
        ValidationError, "bijection"),
    "SystemSpec-odometer-off-discrete": (
        lambda: SystemSpec("o", MapKind.ODOMETER, interval_grid(4), (), (1, 2, 3, 0), 2),
        ValidationError, "odometer requires discrete geometry"),
    "SystemSpec-odometer-not-2^levels": (
        lambda: SystemSpec("o", MapKind.ODOMETER, discrete_grid(3), (), (1, 2, 0), 2),
        ValidationError, "2^levels points"),
    "SystemSpec-odometer-without-permutation": (
        lambda: SystemSpec("o", MapKind.ODOMETER, discrete_grid(4), (), None, 2),
        ValidationError, "odometer permutation missing"),
    "UniformityBasis-no-level": (
        lambda: UniformityBasis(()), InvalidParameterError, "at least one level"),
    "UniformityBasis.by_label-miss": (
        lambda: BASIS.by_label("eps=7"), OutOfRangeError, "no basis level labeled 'eps=7'"),
    "refining_entourage-no-level-refines": (
        # a basis without its diagonal floor: every row of D holds 9 points
        lambda: refining_entourage(UniformityBasis((D,)), [[x] for x in range(N)]),
        InvalidCoverError, "no basis level refines"),
    "generate_pseudo_orbit-allowed-empty": (
        lambda: generate_pseudo_orbit(SYSTEM, D, 5, 0, allowed=set()),
        InvalidParameterError, "allowed set is empty"),
    "render-xml": (
        lambda: render(Report("axioms", {}, {}, {}), "xml"), ChainDynError, "unknown format"),
}


@pytest.mark.parametrize(
    "call, error, fragment", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_argument_is_refused(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_walk_that_dies_has_no_closed_walk_lengths():
    # 0 -> 1 and no edge out of 1: the walk from 0 is empty after two steps
    assert closed_walk_lengths(graph_from_edges(2, [(0, 1)]), 0, 5) == []


def test_imported_orbit_skips_blank_lines():
    imported, header = import_pseudo_orbit("# seed: 3\n\n0 0.0 1\n   \n1 0.5 2\n\n")
    assert imported.states == (0, 1, 2) and imported.seed == 3 and header == {"seed": "3"}


@pytest.mark.parametrize("value", [[], {}], ids=["list", "dict"])
def test_empty_text_value_reads_none(value):
    assert _text_value(value) == "none"
