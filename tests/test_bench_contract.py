"""The names the benchmark's tracer wraps must exist in chaindyn.

``perfbench/tracer.py`` wraps chaindyn functions by module and name and binds
some of their parameters by name.  A change that renames or deletes one of
them would otherwise pass these tests and break only the traced benchmark
run.  The tracer is loaded from its file; nothing under ``perfbench/`` is
changed, and no bytecode is written there.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: Parameters the tracer's observers read from a call's bound arguments.
OBSERVED_PARAMETERS = {
    ("recurrence", "nonwandering_points"): ("system", "horizon"),
    ("shadowing", "find_shadow_point"): ("system", "candidates"),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("chaindyn_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def _resolve(modname: str, qual: str):
    obj = importlib.import_module(f"chaindyn.{modname}")
    *owners, attr = qual.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    # the tracer reads class attributes from the class __dict__
    return vars(obj)[attr] if owners else getattr(obj, attr)


def test_every_wrapped_name_resolves(tracer):
    names = [*tracer.HOT, *tracer.SPANS]
    names += [
        ("_parallel", "ordered_map"),
        ("_parallel", "thread_count"),
        ("cli", "_STAGES"),
        ("cli", "load_system"),
        ("cli", "load_analysis_defaults"),
        ("cli", "render"),
        ("errors", "DiscretizationTooCoarseError"),
    ]
    for modname, qual in names:
        assert _resolve(modname, qual) is not None, (modname, qual)


def test_observed_parameters_exist(tracer):
    for (modname, name), params in OBSERVED_PARAMETERS.items():
        assert f"{modname}.{name}" in tracer.OBSERVERS
        signature = inspect.signature(_resolve(modname, name))
        for param in params:
            assert param in signature.parameters, (name, param)


def test_traced_request_renders_the_same_bytes(tracer, tmp_path):
    from chaindyn import cli

    spec = tmp_path / "doubling.yaml"
    spec.write_text("name: doubling\nmap: doubling\ngeometry: circle\ngrid_n: 16\n")
    argv = ["full", "--spec", str(spec), "--seed", "7", "--basis", "4", "--trials", "2",
            "--horizon", "12", "--format", "machine", "--out"]
    assert cli.main([*argv, str(tmp_path / "plain.json")]) == 0
    with tracer.installed(tracer.Recorder()) as rec:
        assert cli.main([*argv, str(tmp_path / "traced.json")]) == 0
    assert (tmp_path / "traced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    totals = rec.span_totals()
    for name in ("cli.stage.shadowing", "shadowing.find_shadow_point",
                 "chaingraph.build_transition_graph"):
        assert totals[name]["calls"] > 0, name
    assert rec.counts["parallel.ordered_map.calls"] > 0


def test_traced_mixing_counts_every_graph_of_f_k(tracer, tmp_path):
    # the graphs of f^2 and f^3 go through build_transition_graph too, so the
    # tracer's span and edge counter see all three
    from chaindyn import build_transition_graph, cli, load_system, make_epsilon_entourage

    spec = tmp_path / "golden.yaml"
    spec.write_text("name: golden\nmap: rotation\ngeometry: circle\ngrid_n: 16\n"
                    "params: [0.6180339887498949]\n")
    system = load_system(str(spec))
    d = make_epsilon_entourage(system.space, 2 * system.space.resolution)
    graphs = [build_transition_graph(replace(system, power=k), d) for k in (1, 2, 3)]
    out = tmp_path / "mixing.json"
    with tracer.installed(tracer.Recorder()) as rec:
        assert cli.main(["mixing", "--spec", str(spec), "--nmax", "3",
                         "--format", "machine", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["mixing"]["totally_chain_transitive"]
    assert rec.span_totals()["chaingraph.build_transition_graph"]["calls"] == 3
    assert rec.counts["chaingraph.edges"] == sum(g.edge_count() for g in graphs)
