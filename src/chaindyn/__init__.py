"""chaindyn: finite-scale chain recurrence and shadowing analysis.

Discretized dynamical systems live on finite phase spaces carrying finite
uniformity bases; entourages become symmetric index relations, chains
become paths in transition graphs, and the classical chain/shadowing
theory becomes computable checks at a declared scale and horizon.

The package namespace is filled on first use (PEP 562): ``chaindyn.X``
imports the module that defines ``X`` when ``X`` is first read, so a caller
that only loads systems never imports the graph, shadowing and recurrence
modules.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "ChainDynError", "DiscretizationTooCoarseError", "IncompatibleSpaceError",
        "InvalidParameterError", "MalformedSpecError", "NoCycleError",
        "NoNonwanderingPointsError", "NotCoprimeError", "OutOfRangeError",
        "ResourceLimitError", "UndefinedDiameterError", "ValidationError",
    ),
    "uniform": (
        "AxiomReport", "Entourage", "FinitePhaseSpace", "Geometry", "UniformityBasis",
        "circle_grid", "compose", "diagonal_entourage", "discrete_grid", "dyadic_basis",
        "interval_grid", "make_epsilon_entourage", "verify_uniformity_axioms",
    ),
    "systems": (
        "GOLDEN_ALPHA", "MapEvaluation", "MapKind", "SystemSpec", "cantor_space",
        "catalog_systems", "doubling_system", "evaluate", "identity_system", "iterate",
        "load_system", "odometer_system", "permutation_system", "rotation_system",
        "square_system", "step", "tent_system",
    ),
    "chaingraph": (
        "ChainAnalysis", "TransitionGraph", "build_transition_graph", "chain_diameter",
        "chain_recurrent_set", "cyclic_classes", "graph_from_edges", "graph_period",
        "is_chain_mixing", "is_chain_transitive", "is_totally_chain_transitive",
        "power_graph", "strongly_connected_components",
    ),
    "semigroup": (
        "GeneratorSet", "frobenius_bound", "gcd_set", "realizable_length_bound",
        "representable",
    ),
    "shadowing": (
        "DichotomyReport", "IsobasismReport", "IterateConsistencyReport", "PseudoOrbit",
        "ShadowReport", "ShadowingModulusReport", "disconnectedness_dichotomy",
        "estimate_shadowing_modulus", "find_shadow_point", "generate_pseudo_orbit",
        "isobasism_check", "iterate_shadowing_check", "verify_pseudo_orbit",
    ),
    "recurrence": (
        "OmegaShadowingReport", "nonwandering_points", "omega_limit",
        "omega_restriction_shadowing", "omega_subset_of_chain_recurrent",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    """Import the submodule ``name``, or the one defining ``name``, on first use."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
