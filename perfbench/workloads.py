"""The benchmark's workloads: generated spec files and fixed request sequences.

Every workload is a closed loop of ``chaindyn`` requests sent one after the
other, as a batch analyst waiting for each report would send them.  The
benchmark writes the spec files below into a scratch directory and hands the
program only spec paths and argv.  Sizes are chosen so that one pass of a
sequence takes a few seconds at the seed commit on a 2-core machine, which
lets a run repeat it and report a median; ``baseline.json`` records how the
same requests scale at the larger sizes quoted in ROADMAP item 1.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 7

# Grid sizes, one per workload (see the ``why`` of each workload below).
DOUBLING_N = 96
DOUBLING_SEEDS_PER_PASS = 3
GOLDEN_N = 160
IDENTITY_N = 256
ODOMETER_LEVELS = 6
CANTOR_LEVELS = 3

GOLDEN_ALPHA = 0.6180339887498949

# Commands whose report depends on --seed; every other report is a pure
# function of the spec and flags, so its reference digest holds for any seed.
STOCHASTIC_STAGES = ("shadowing", "dichotomy")


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``argv`` has ``{spec}``, ``{out}`` and ``{graph}`` holes."""

    label: str
    spec: str
    argv: tuple[str, ...]
    seed: int | None = None
    dump_graph: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: dict[str, str]
    n: dict[str, int]
    requests: tuple[Request, ...]


def _circle_spec(name: str, kind: str, n: int, params: str = "") -> str:
    text = f"name: {name}\nmap: {kind}\ngeometry: circle\ngrid_n: {n}\n"
    return text + (f"params: [{params}]\n" if params else "")


def _cantor_points(levels: int) -> list[float]:
    coords = [0.0]
    for i in range(1, levels + 1):
        w = 2.0 * 3.0 ** (-i)
        coords = [c + d for c in coords for d in (0.0, w)]
    return sorted(coords)


def _machine(command: str, *flags: str) -> tuple[str, ...]:
    return (command, "--spec", "{spec}", "--format", "machine", "--out", "{out}", *flags)


def full_doubling(seed: int) -> Workload:
    seeds = [seed + k for k in range(DOUBLING_SEEDS_PER_PASS)]
    requests = [
        Request(f"full-doubling{DOUBLING_N}", "doubling", _machine("full", "--seed", str(s)),
                seed=s)
        for s in seeds
    ]
    # The tier-1 golden request, byte-compared with tests/golden as well.
    requests.append(Request("full-doubling64", "doubling64",
                            _machine("full", "--seed", "7"), seed=7))
    return Workload(
        name="full-doubling",
        why="full on doubling: on-grid images, run time dominated by the uniform axiom check",
        specs={
            "doubling": _circle_spec(f"doubling{DOUBLING_N}", "doubling", DOUBLING_N),
            "doubling64": _circle_spec("doubling64", "doubling", 64),
        },
        n={"doubling": DOUBLING_N, "doubling64": 64},
        requests=tuple(requests),
    )


def stages_golden(seed: int) -> Workload:
    requests = [
        Request("graph", "golden", _machine("graph", "--dump-graph", "{graph}"),
                dump_graph=True),
        Request("chains", "golden", _machine("chains")),
        Request("mixing", "golden", _machine("mixing")),
        Request("diameter", "golden", _machine("diameter")),
        Request("shadowing", "golden", _machine("shadowing", "--seed", str(seed)), seed=seed),
        Request("recurrence", "golden", _machine("recurrence")),
    ]
    return Workload(
        name="stages-golden",
        why="single stages on the golden rotation: off-grid images, one component, no axiom check",
        specs={"golden": _circle_spec(f"golden{GOLDEN_N}", "rotation", GOLDEN_N,
                                      repr(GOLDEN_ALPHA))},
        n={"golden": GOLDEN_N},
        requests=tuple(requests),
    )


def chains_identity(seed: int) -> Workload:
    # Nothing here is stochastic, so the seed does not enter the requests.
    half_h = repr(1.0 / (IDENTITY_N - 1) / 2)
    requests = [
        Request(cmd, "identity", _machine(cmd, "--epsilon", half_h))
        for cmd in ("chains", "mixing", "recurrence")
    ]
    return Workload(
        name="chains-identity",
        why="identity at scale h/2: one singleton component per point, repeated SCC runs",
        specs={"identity": (f"name: identity{IDENTITY_N}\nmap: identity\n"
                            f"geometry: interval\ngrid_n: {IDENTITY_N}\n")},
        n={"identity": IDENTITY_N},
        requests=tuple(requests),
    )


def full_odometer(seed: int) -> Workload:
    points = ", ".join(repr(p) for p in _cantor_points(CANTOR_LEVELS))
    requests = [
        Request("full-odometer", "odometer", _machine("full", "--seed", str(seed)), seed=seed),
        Request("omega-odometer", "odometer", _machine("omega")),
        Request("full-cantor", "cantor", _machine("full", "--seed", str(seed)), seed=seed),
        Request("dichotomy-cantor", "cantor", _machine("dichotomy", "--seed", str(seed)),
                seed=seed),
    ]
    return Workload(
        name="full-odometer",
        why="discrete systems: permutation odometer and explicit-points Cantor set, recurrence-bound",
        specs={
            "odometer": (f"name: odometer{ODOMETER_LEVELS}\nmap: odometer\n"
                         f"geometry: discrete\nparams: [{ODOMETER_LEVELS}]\n"),
            "cantor": (f"name: cantor{CANTOR_LEVELS}\nmap: identity\ngeometry: discrete\n"
                       f"points: [{points}]\nanalysis:\n  epsilon: 0.03\n"),
        },
        n={"odometer": 2 ** ODOMETER_LEVELS, "cantor": 2 ** CANTOR_LEVELS},
        requests=tuple(requests),
    )


WORKLOADS = {
    "full-doubling": full_doubling,
    "stages-golden": stages_golden,
    "chains-identity": chains_identity,
    "full-odometer": full_odometer,
}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)

