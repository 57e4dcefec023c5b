"""Command-line driver: load a system spec, run named analyses, emit reports.

Reports come in two formats: ``text`` (stable human summary) and
``machine`` (canonical JSON, schema documented in the README, suitable for
golden-file testing).  Identical requests with identical seeds produce
byte-identical machine reports, across runs and across thread counts
(``CHAINDYN_THREADS``, which no longer changes the work: everything runs
in one thread); no timestamps are embedded anywhere.

Negative mathematical findings ("not chain mixing", "no modulus found")
exit 0: the tool reports, it does not judge.  Module errors exit nonzero
with the error name on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property
from typing import Any

from . import __version__
from .chaingraph import (
    ChainAnalysis,
    TransitionGraph,
    build_transition_graph,
    chain_diameter,
    is_totally_chain_transitive,
)
from .errors import ChainDynError, InvalidParameterError, ResourceLimitError
from .recurrence import nonwandering_points, omega_limit
from .shadowing import DICHOTOMY_LENGTH, disconnectedness_dichotomy, estimate_shadowing_modulus
from .systems import SystemSpec, load_analysis_defaults, load_system, parse_spec
from .uniform import (
    MAX_ORBIT_CELLS,
    Entourage,
    UniformityBasis,
    _check_epsilon,
    dyadic_basis,
    make_epsilon_entourage,
    verify_uniformity_axioms,
)

SCHEMA_VERSION = "1"
STOCHASTIC_COMMANDS = frozenset({"shadowing", "dichotomy", "full"})


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis request.

    The artifacts the stages share are built on first use and then kept, so
    a request builds its entourage, basis, graph and chain analysis once.
    """

    system: SystemSpec
    command: str
    epsilon: float
    basis_levels: int
    horizon: int
    trials: int
    seed: int | None
    n_max: int
    x: int

    def echo(self) -> dict[str, Any]:
        return {
            "system": self.system.name,
            "map": self.system.kind.value,
            "geometry": self.system.space.geometry.value,
            "n": self.system.space.n,
            **{f.name: getattr(self, f.name) for f in fields(self)[1:]},
        }

    @cached_property
    def entourage(self) -> Entourage:
        return make_epsilon_entourage(self.system.space, self.epsilon)

    @cached_property
    def basis(self) -> UniformityBasis:
        return dyadic_basis(self.system.space, self.basis_levels)

    @cached_property
    def graph(self) -> TransitionGraph:
        return build_transition_graph(self.system, self.entourage)

    @cached_property
    def analysis(self) -> ChainAnalysis:
        return ChainAnalysis.from_graph(self.graph)


@dataclass(frozen=True)
class Report:
    command: str
    request: dict[str, Any]
    results: dict[str, Any]
    provenance: dict[str, Any]


# ---------------------------------------------------------------------------
# stage runners


def _axioms_stage(req: AnalysisRequest) -> dict[str, Any]:
    report = verify_uniformity_axioms(req.basis)
    return {
        "all_ok": report.all_ok,
        "floor_is_diagonal": report.floor_is_diagonal,
        "levels": [asdict(lvl) for lvl in report.levels],
    }


def _graph_stage(req: AnalysisRequest) -> dict[str, Any]:
    g = req.graph
    degrees = [len(row) for row in g.succ]
    return {
        "n": g.n,
        "edges": g.edge_count(),
        "min_out_degree": min(degrees),
        "max_out_degree": max(degrees),
        "entourage": g.source[1],
    }


def _chains_stage(req: AnalysisRequest) -> dict[str, Any]:
    analysis = req.analysis
    recurrent = sorted(analysis.recurrent)
    out: dict[str, Any] = {
        "chain_transitive": analysis.transitive,
        "chain_recurrent": recurrent,
        "chain_recurrent_is_all": len(recurrent) == req.graph.n,
        "component_count": len(analysis.components),
        "periods": list(analysis.periods),
    }
    if analysis.is_strongly_connected:
        out["period"] = analysis.periods[0]
        classes = analysis.classes[0]
        out["classes"] = [list(c) for c in classes] if classes else None
    else:
        out["period"] = None
        out["classes"] = None
    return out


def _mixing_stage(req: AnalysisRequest) -> dict[str, Any]:
    analysis = req.analysis
    period = analysis.periods[0] if analysis.transitive else None
    mixing = period == 1
    totally = is_totally_chain_transitive(
        req.system, req.entourage, req.n_max, analysis=analysis
    )
    return {
        "chain_mixing": mixing,
        "totally_chain_transitive": totally,
        "n_max": req.n_max,
        "period": period,
        "cross_check_consistent": mixing == totally,
    }


def _diameter_stage(req: AnalysisRequest) -> dict[str, Any]:
    if not req.analysis.transitive:
        return {"defined": False, "diameter": None, "reason": "not chain transitive"}
    return {"defined": True, "diameter": chain_diameter(req.graph), "reason": None}


def _shadowing_stage(req: AnalysisRequest) -> dict[str, Any]:
    report = estimate_shadowing_modulus(
        req.system,
        req.entourage,
        req.basis,
        req.trials,
        req.horizon,
        req.seed if req.seed is not None else 0,
    )
    counter = None
    if report.counterexample is not None:
        counter = {
            "states": list(report.counterexample.states),
            "entourage": report.counterexample.entourage_label,
            "mode": report.counterexample_mode,
        }
    return {
        "found": report.found,
        "modulus": report.modulus.label if report.modulus else None,
        "levels_scanned": list(report.levels_scanned),
        "trials": report.trials,
        "length": report.length,
        "counterexample": counter,
        "note": report.note,
    }


def _dichotomy_stage(req: AnalysisRequest) -> dict[str, Any]:
    report = disconnectedness_dichotomy(
        req.system.space,
        req.entourage,
        req.basis,
        req.trials,
        req.seed if req.seed is not None else 0,
    )
    return {
        "connected_at_scale": report.connected_at_scale,
        "totally_disconnected_at_scale": report.totally_disconnected_at_scale,
        "component_count": report.component_count,
        "modulus_found": report.modulus_found,
        "modulus": report.modulus_label,
        "agreement": report.agreement,
        "scale": report.scale_label,
    }


def _recurrence_stage(req: AnalysisRequest) -> dict[str, Any]:
    omega = nonwandering_points(req.system, req.entourage, req.horizon)
    return {
        "omega": list(omega),
        "omega_count": len(omega),
        "omega_is_all": len(omega) == req.system.space.n,
        "subset_of_chain_recurrent": set(omega) <= req.analysis.recurrent,
        "horizon": req.horizon,
        "scale": req.entourage.label,
    }


def _omega_stage(req: AnalysisRequest) -> dict[str, Any]:
    transient = max(1, req.horizon // 2)
    limit = omega_limit(req.system, req.x, transient, req.horizon)
    return {
        "x": req.x,
        "transient": transient,
        "horizon": req.horizon,
        "omega_limit": list(limit),
    }


_STAGES = {
    "axioms": _axioms_stage,
    "graph": _graph_stage,
    "chains": _chains_stage,
    "mixing": _mixing_stage,
    "diameter": _diameter_stage,
    "shadowing": _shadowing_stage,
    "dichotomy": _dichotomy_stage,
    "recurrence": _recurrence_stage,
    "omega": _omega_stage,
}
COMMANDS = (*_STAGES, "full")

FULL_ORDER = (
    "axioms",
    "graph",
    "chains",
    "mixing",
    "diameter",
    "shadowing",
    "recurrence",
)


def run(request: AnalysisRequest) -> Report:
    """Dispatch a request to the owning module(s) and assemble a report."""
    if request.command == "full":
        results: dict[str, Any] = {
            stage: _STAGES[stage](request) for stage in FULL_ORDER
        }
    else:
        results = {request.command: _STAGES[request.command](request)}
    return Report(
        command=request.command,
        request=request.echo(),
        results=results,
        provenance={
            "tool": "chaindyn",
            "version": __version__,
            "schema_version": SCHEMA_VERSION,
            "seed": request.seed,
        },
    )


# ---------------------------------------------------------------------------
# rendering


def _text_value(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        if not value:
            return "none"
        return "[" + ", ".join(_text_value(v) for v in value) + "]"
    if isinstance(value, dict):
        if not value:
            return "none"
        inner = ", ".join(f"{k}={_text_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    return str(value)


def render(report: Report, format: str = "text") -> bytes:
    """Serialize a report; identical reports render to identical bytes."""
    if format == "machine":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "tool": "chaindyn",
            "version": __version__,
            "command": report.command,
            "request": report.request,
            "results": report.results,
            "provenance": report.provenance,
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")
    if format != "text":
        raise ChainDynError(f"unknown format {format!r}")
    lines = [
        f"chaindyn {__version__} (schema {SCHEMA_VERSION}) — {report.command}",
        f"system: {report.request['system']} "
        f"({report.request['map']} on {report.request['geometry']}, n={report.request['n']})",
        f"seed: {_text_value(report.request['seed'])}",
    ]
    for stage, values in report.results.items():
        lines.append("")
        lines.append(f"[{stage}]")
        for key in sorted(values):
            lines.append(f"  {key}: {_text_value(values[key])}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# entry point


@cache  # parse_args leaves the parser as it was, so one serves every request
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaindyn",
        description="Finite-scale chain and shadowing analysis of discretized systems",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", required=True, help="system spec file (YAML)")
    parser.add_argument("--epsilon", type=float, default=None)
    parser.add_argument("--basis", type=int, default=None, metavar="K_LEVELS")
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--nmax", type=int, default=None)
    parser.add_argument("--x", type=int, default=None, help="base point for omega")
    parser.add_argument("--format", choices=("text", "machine"), default=None)
    parser.add_argument("--out", default=None, help="write the report here")
    parser.add_argument(
        "--dump-graph", default=None, metavar="PATH",
        help="write the transition graph as 'src dst' lines",
    )
    return parser


def _pick(flag: Any, file_defaults: dict[str, Any], key: str, fallback: Any) -> Any:
    # flag overrides file; file overrides the built-in default
    if flag is not None:
        return flag
    if key in file_defaults and file_defaults[key] is not None:
        return file_defaults[key]
    return fallback


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        document = parse_spec(args.spec)
        system = load_system(args.spec, document)
        defaults = load_analysis_defaults(args.spec, document)
        epsilon = _pick(args.epsilon, defaults, "epsilon", 2 * system.space.resolution)
        _check_epsilon(epsilon)  # every command echoes it, so even one that never uses it
        seed = _pick(args.seed, defaults, "seed", None)
        if args.command in STOCHASTIC_COMMANDS and seed is None:
            parser.error(f"--seed is required for '{args.command}' (no wall-clock default)")
        horizon = _pick(args.horizon, defaults, "horizon", 100)
        basis = _pick(args.basis, defaults, "basis", 8)
        trials = _pick(args.trials, defaults, "trials", 20)
        n_max = _pick(args.nmax, defaults, "nmax", 4)
        n, orbit = system.space.n, DICHOTOMY_LENGTH if args.command == "dichotomy" else horizon
        for flag, value, cost, what in (
            ("--horizon", horizon, n * horizon, "orbit cells (n x horizon)"),
            ("--nmax", n_max, n * n_max * n_max // 2, "map applications (n x nmax^2 / 2)"),
            ("--basis", basis, n * basis * basis, "half-scale row tests (n x basis^2)"),
            ("--trials", trials, (trials + 1) * basis * orbit,
             f"pseudo-orbit steps ((trials + 1) x basis x orbit length {orbit})"),
        ):
            if value < 1:  # every command echoes the knobs, so even one that never uses it
                raise InvalidParameterError(f"{flag} must be >= 1, got {value}")
            if cost > MAX_ORBIT_CELLS:
                raise ResourceLimitError(
                    f"{flag} {value} on {n} points exceeds the cap of {MAX_ORBIT_CELLS} {what}"
                )
        request = AnalysisRequest(
            system=system,
            command=args.command,
            epsilon=epsilon,
            basis_levels=basis,
            horizon=horizon,
            trials=trials,
            seed=seed,
            n_max=n_max,
            x=_pick(args.x, defaults, "x", 0),
        )
        report = run(request)
        payload = render(
            report, _pick(args.format, defaults, "format", "text")
        )
        dump_graph = _pick(args.dump_graph, defaults, "dump_graph", None)
        if dump_graph is not None:
            with open(dump_graph, "w", encoding="utf-8") as fh:
                for src, dst in request.graph.edges():
                    fh.write(f"{src} {dst}\n")
        out = _pick(args.out, defaults, "out", None)
        if out is not None:
            with open(out, "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (ChainDynError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
