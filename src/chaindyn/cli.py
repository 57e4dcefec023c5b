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
from .systems import ANALYSIS_OPTIONS, SystemSpec, load_analysis_defaults, load_system, parse_spec
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
FULL_ORDER = tuple(stage for stage in _STAGES if stage not in ("dichotomy", "omega"))


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


#: What a flag shows beyond its name, type and default (see ``ANALYSIS_OPTIONS``).
_FLAG_EXTRAS: dict[str, dict[str, Any]] = {
    "basis": {"metavar": "K_LEVELS"},
    "x": {"help": "base point for omega"},
    "format": {"choices": ("text", "machine")},
    "out": {"help": "write the report here"},
    "dump_graph": {"metavar": "PATH", "help": "write the transition graph as 'src dst' lines"},
}


@cache  # parse_args leaves the parser as it was, so one serves every request
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaindyn",
        description="Finite-scale chain and shadowing analysis of discretized systems",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", required=True, help="system spec file (YAML)")
    for key, (kind, _) in ANALYSIS_OPTIONS.items():
        # None marks an option the command line leaves to the spec or the default
        parser.add_argument(
            "--" + key.replace("_", "-"), type=kind, default=None, **_FLAG_EXTRAS.get(key, {}))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        document = parse_spec(args.spec)
        system = load_system(args.spec, document)
        # a flag overrides the spec's analysis table, which overrides the built-in default
        opt = {key: default for key, (_, default) in ANALYSIS_OPTIONS.items()}
        opt["epsilon"] = 2 * system.space.resolution
        for given in (load_analysis_defaults(args.spec, document), vars(args)):
            opt.update((k, v) for k, v in given.items() if k in opt and v is not None)
        _check_epsilon(opt["epsilon"])  # every command echoes it, so even one that never uses it
        if args.command in STOCHASTIC_COMMANDS and opt["seed"] is None:
            parser.error(f"--seed is required for '{args.command}' (no wall-clock default)")
        horizon, basis, trials, n_max = opt["horizon"], opt["basis"], opt["trials"], opt["nmax"]
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
            system, args.command, opt["epsilon"], basis_levels=basis, horizon=horizon,
            trials=trials, seed=opt["seed"], n_max=n_max, x=opt["x"])
        report = run(request)
        payload = render(report, opt["format"])
        if opt["dump_graph"] is not None:
            with open(opt["dump_graph"], "w", encoding="utf-8") as fh:
                for src, dst in request.graph.edges():
                    fh.write(f"{src} {dst}\n")
        if opt["out"] is not None:
            with open(opt["out"], "wb") as fh:
                fh.write(payload)
        else:
            sys.stdout.buffer.write(payload)
    except (ChainDynError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
