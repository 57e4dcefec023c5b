"""Span and counter recorder for the traced run, installed from outside ``src/``.

The recorder wraps the public functions that chaindyn's modules call across
module boundaries.  A function re-imported under another name (for example
``cli.make_epsilon_entourage`` or ``chaingraph.iterate``) is wrapped under
every such name, otherwise calls through the alias would bypass the wrapper.
Ordinary functions get one span per call: name, start, end, parent and the
request it belongs to.  The hot inner functions get a call counter and an
accumulated time only, since a span per call would cost more than the call.

Spans are kept in memory and written out by the caller when the run ends.
The stack of open spans assumes one thread, which holds because the
benchmark runs with ``CHAINDYN_THREADS`` unset.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

# Functions that run per point or per candidate: counter and time only.
HOT = {
    ("uniform", "FinitePhaseSpace.nearest_index"): "uniform.nearest_index",
    ("uniform", "FinitePhaseSpace.indices_within"): "uniform.indices_within",
    ("uniform", "compose"): "uniform.compose",
    ("systems", "iterate"): "systems.iterate",
    ("systems", "step"): "systems.step",
    ("chaingraph", "image_successors"): "chaingraph.image_successors",
}

# Functions that get one span per call.
SPANS = (
    ("uniform", "make_epsilon_entourage"),
    ("uniform", "dyadic_basis"),
    ("uniform", "verify_uniformity_axioms"),
    ("systems", "load_system"),
    ("chaingraph", "build_transition_graph"),
    ("chaingraph", "strongly_connected_components"),
    ("chaingraph", "ChainAnalysis.from_graph"),
    ("chaingraph", "chain_diameter"),
    ("chaingraph", "is_totally_chain_transitive"),
    ("shadowing", "estimate_shadowing_modulus"),
    ("shadowing", "generate_pseudo_orbit"),
    ("shadowing", "find_shadow_point"),
    ("shadowing", "disconnectedness_dichotomy"),
    ("recurrence", "nonwandering_points"),
    ("recurrence", "omega_subset_of_chain_recurrent"),
    ("recurrence", "omega_limit"),
)


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    request: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Recorder:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    hot_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    request: str = ""
    _stack: list[Span] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent.sid if parent else None, self.request,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.duration

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Calls, summed duration and summed self time per span name."""
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            row = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += sp.duration
            row["self_s"] += sp.self_s
        return out


def _modules() -> dict[str, Any]:
    return {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name == "chaindyn" or name.startswith("chaindyn.")}


def _span_wrapper(rec: Recorder, name: str, fn: Callable, observe=None) -> Callable:
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(rec, sig.bind(*args, **kwargs).arguments, result)
        return result

    return wrapper


def _hot_wrapper(rec: Recorder, name: str, fn: Callable) -> Callable:
    calls, seconds, clock = rec.counts, rec.hot_s, time.perf_counter
    key = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds[name] += clock() - t0
            calls[key] += 1

    return wrapper


# -- counters computed from arguments and results, outside the program ----


def _count_pairs(rec, args, entourage):
    rec.counts["uniform.entourage_pairs"] += entourage.pair_count()


def _count_edges(rec, args, graph):
    rec.counts["chaingraph.edges"] += graph.edge_count()


def _count_components(rec, args, analysis):
    rec.counts["chaingraph.components"] += len(analysis.components)


def _count_orbit_cells(rec, args, omega):
    rec.counts["recurrence.orbit_cells"] += args["system"].space.n * args["horizon"]


def _count_candidates(rec, args, report):
    # find_shadow_point evaluates every candidate before it picks the first
    # witness; candidates after the witness are wasted work.
    cand = args.get("candidates")
    cand = sorted(cand) if cand is not None else range(args["system"].space.n)
    rec.counts["shadowing.candidates_evaluated"] += len(cand)
    if report.shadowed:
        rec.counts["shadowing.shadowed"] += 1
        rec.counts["shadowing.after_witness"] += (
            len(cand) - bisect.bisect_right(cand, report.witness))


OBSERVERS = {
    "uniform.make_epsilon_entourage": _count_pairs,
    "chaingraph.build_transition_graph": _count_edges,
    "chaingraph.ChainAnalysis.from_graph": _count_components,
    "recurrence.nonwandering_points": _count_orbit_cells,
    "shadowing.find_shadow_point": _count_candidates,
}


def _skip_counter(rec: Recorder, fn: Callable, error_type: type) -> Callable:
    # A pseudo-orbit that cannot be generated makes estimate_shadowing_modulus
    # skip the level; count those raises.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except error_type:
            rec.counts["shadowing.levels_skipped"] += 1
            raise

    return wrapper


def _ordered_map_counter(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(func, items):
        seq = list(items)
        rec.counts["parallel.ordered_map.calls"] += 1
        rec.counts["parallel.ordered_map.items"] += len(seq)
        return fn(func, seq)

    return wrapper


@contextmanager
def installed(rec: Recorder) -> Iterator[Recorder]:
    """Install every wrapper for the duration of the block, then restore."""
    mods = _modules()
    undo: list[tuple[Any, str, Any]] = []

    def setattr_saved(obj, attr, value):
        undo.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def replace_everywhere(original, wrapped):
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr_saved(mod, attr, wrapped)

    try:
        for (modname, qual), name in HOT.items():
            mod = mods[modname]
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                setattr_saved(cls, attr, _hot_wrapper(rec, name, cls.__dict__[attr]))
            else:
                original = getattr(mod, qual)
                replace_everywhere(original, _hot_wrapper(rec, name, original))

        errors = mods["errors"]
        for modname, qual in SPANS:
            name = f"{modname}.{qual}"
            mod = mods[modname]
            if "." in qual:  # a classmethod
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr].__func__
                wrapped = _span_wrapper(rec, name, original, OBSERVERS.get(name))
                setattr_saved(cls, attr, classmethod(wrapped))
                continue
            original = getattr(mod, qual)
            wrapped = _span_wrapper(rec, name, original, OBSERVERS.get(name))
            if name == "shadowing.generate_pseudo_orbit":
                wrapped = _skip_counter(rec, wrapped, errors.DiscretizationTooCoarseError)
            replace_everywhere(original, wrapped)

        original = mods["_parallel"].ordered_map
        replace_everywhere(original, _ordered_map_counter(rec, original))

        cli = mods["cli"]
        for stage, fn in list(cli._STAGES.items()):
            undo.append((cli._STAGES, stage, fn))
            cli._STAGES[stage] = _span_wrapper(rec, f"cli.stage.{stage}", fn)
        # cli.load covers both spec reads inside cli.main; the systems-level
        # span for load_system nests inside it.
        for attr in ("load_system", "load_analysis_defaults"):
            setattr_saved(cli, attr, _span_wrapper(rec, "cli.load", getattr(cli, attr)))
        setattr_saved(cli, "render", _span_wrapper(rec, "cli.render", cli.render))
        yield rec
    finally:
        for obj, attr, value in reversed(undo):
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)
