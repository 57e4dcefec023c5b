"""Catalog of concrete dynamical systems with exact image computation.

A :class:`SystemSpec` couples a finite phase space with one of the catalog
maps (rotation, doubling, tent, identity, square, permutation, odometer).
Images are always computed from the exact formula in floating point, never
by chaining grid snaps, so discretization error enters only when a
transition graph or membership test snaps an image back onto the grid.
Each formula is written once, in :attr:`SystemSpec.float_step`; ``iterate``,
the table of grid images and every orbit walk apply it.

User-defined systems load from a YAML document (see :func:`load_system`);
the concrete syntax is fixed and documented in the README.

The irrational circle rotation is implemented under the standard circle
metric only.  The classical counterexample placing it on a non-metrizable
(Michael-line) uniformity, where it is chain mixing without shadowing, is
out of scope; under the metric uniformity modeled here the rotation also
lacks shadowing, and that is the claim the catalog checks.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from itertools import combinations, count
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

import yaml

from .errors import (
    InvalidParameterError,
    MalformedSpecError,
    ResourceLimitError,
    ValidationError,
    check_count,
)
from .uniform import (
    MAX_ORBIT_CELLS,
    MAX_POINTS,
    FinitePhaseSpace,
    Geometry,
    _check_grid_size,
    _even_grid,
    circle_grid,
    discrete_grid,
    interval_grid,
)


class MapKind(Enum):
    ROTATION = "rotation"
    DOUBLING = "doubling"
    TENT = "tent"
    IDENTITY = "identity"
    SQUARE = "square"
    PERMUTATION = "permutation"
    ODOMETER = "odometer"


#: Geometry each formula map is defined on (identity and permutation-backed
#: maps are checked separately).
_REQUIRED_GEOMETRY = {
    MapKind.ROTATION: Geometry.CIRCLE,
    MapKind.DOUBLING: Geometry.CIRCLE,
    MapKind.TENT: Geometry.INTERVAL,
    MapKind.SQUARE: Geometry.INTERVAL,
}


#: One entry per grid point: the exact image, its snap index and distance, and
#: the index again when the image is that grid point exactly, else None.
ImageTable = tuple[tuple[tuple[float, ...], int, float, int | None], ...]


@dataclass(frozen=True)
class SystemSpec:
    """A named dynamical system: a phase space plus an exactly computable map.

    ``power`` k makes the system the iterate (X, f^k) of the catalog map f;
    ``dataclasses.replace(system, power=k)`` builds it from the system of f.
    """

    name: str
    kind: MapKind
    space: FinitePhaseSpace
    params: tuple[float, ...] = ()
    permutation: tuple[int, ...] | None = None
    levels: int | None = None
    power: int = 1

    def __post_init__(self) -> None:
        check_count(self.power, "power")
        kind = self.kind
        if kind in _REQUIRED_GEOMETRY and self.space.geometry != _REQUIRED_GEOMETRY[kind]:
            raise ValidationError(
                f"{kind.value} requires {_REQUIRED_GEOMETRY[kind].value} geometry"
            )
        if kind in (MapKind.ROTATION, MapKind.DOUBLING, MapKind.TENT, MapKind.SQUARE):
            if self.space.dimension != 1:
                raise ValidationError(f"{kind.value} requires a one-dimensional space")
        if kind == MapKind.ROTATION:
            alpha = self._param("alpha")
            if not 0.0 < alpha < 1.0:
                raise ValidationError("alpha out of range (0, 1)")
        elif kind == MapKind.TENT:
            slope = self._param("slope")
            if not 0.0 < slope <= 2.0:
                raise ValidationError("slope out of range (0, 2]")
        elif kind == MapKind.PERMUTATION:
            if self.space.geometry != Geometry.DISCRETE:
                raise ValidationError("permutation requires discrete geometry")
            perm = self.permutation
            if perm is None or sorted(perm) != list(range(self.space.n)):
                raise ValidationError("permutation must be a bijection of the indices")
        elif kind == MapKind.ODOMETER:
            if self.space.geometry != Geometry.DISCRETE:
                raise ValidationError("odometer requires discrete geometry")
            check_count(self.levels, "levels")
            if self.space.n != 2 ** self.levels:
                raise ValidationError("odometer space must have 2^levels points")
            if self.permutation is None:
                raise ValidationError("odometer permutation missing")

    def _param(self, field: str) -> float:
        if not self.params:
            raise ValidationError(f"{field} parameter missing")
        return self.params[0]

    @cached_property
    def float_step(self) -> Callable[[float], float] | None:
        """f^power on the one coordinate of a one-dimensional space, built once per system.

        This is the only place each map's formula is written.  None for the
        permutation-backed kinds, which step through their stored
        permutation, and for a space of more than one dimension.
        """
        if self.permutation is not None or self.space.dimension != 1:
            return None
        a = self.params[0] if self.params else 0.0  # the rotation angle or the tent slope
        f = {
            MapKind.IDENTITY: lambda c: c,
            MapKind.ROTATION: lambda c: (c + a) % 1.0,
            MapKind.DOUBLING: lambda c: (2.0 * c) % 1.0,
            MapKind.TENT: lambda c: a * c if c <= 0.5 else a * (1.0 - c),
            MapKind.SQUARE: lambda c: c * c,
        }[self.kind]
        power = self.power
        if power == 1:
            return f

        def f_power(c: float) -> float:
            for _ in range(power):
                c = f(c)
            return c

        return f_power

    @cached_property
    def grid_images(self) -> ImageTable:
        """The exact one-step image of every grid point, computed once per system.

        Entry x is the :data:`ImageTable` entry of the image of x under
        f^power; "exactly" is tuple equality.
        """
        points, f = self.space.points, self.float_step
        if self._reads_off():
            at = range(len(points)) if self.permutation is None else self._index_step()
            return tuple((points[t], t, 0.0, t) for t in at)
        return self._image_entries(
            iterate(self, p, 1) if f is None else (f(p[0]),) for p in points)

    def _reads_off(self) -> bool:
        """Whether each image is a grid point t, whose entry reads ``(points[t], t, 0.0, t)``.

        True for the identity and the permutation-backed maps on a sorted space,
        where each point snaps to itself.
        """
        return (self.kind is MapKind.IDENTITY or self.permutation is not None) and (
            self.space._sorted is not None)

    def _index_step(self) -> tuple[int, ...]:
        """The permutation raised to ``power``: entry i is the index f^power takes i to."""
        perm = step = self.permutation
        for _ in range(self.power - 1):
            step = tuple(perm[i] for i in step)
        return step

    def _image_entries(self, images: Iterable[tuple[float, ...]]) -> ImageTable:
        """The :attr:`grid_images` entries of the given exact images, one per grid point."""
        space, out = self.space, []
        for image in images:
            idx, dist = space.snap(image)
            out.append((image, idx, dist, idx if image == space.points[idx] else None))
        return tuple(out)

    def iterates(self) -> Iterator[SystemSpec]:
        """The systems of f^power, f^(2 power), f^(3 power), ..., without end.

        The first is this system; the k-th is ``replace(self, power=k *
        self.power)`` with its :attr:`grid_images` already set, by applying
        f^power once more to the table before it.  That equals the table the
        k-th system would compute, entry for entry: a float map steps each
        image with ``float_step``, which applies f in the same sequence; a
        permutation-backed map steps each index with the permutation raised
        to ``power``, from the grid point's nearest index as :func:`iterate`
        starts; a many-dimensional or read-off identity repeats the table.
        """
        entries = self.grid_images
        yield self
        points, f, perm, read_off = (
            self.space.points, self.float_step, self.permutation, self._reads_off())
        if perm is not None:
            step = self._index_step()
            at = list(step) if read_off else [step[self.space.nearest_index(p)] for p in points]
        for k in count(2):
            if perm is not None:
                at = [step[i] for i in at]
                entries = (tuple((points[t], t, 0.0, t) for t in at) if read_off
                           else self._image_entries(points[i] for i in at))
            elif f is not None and not read_off:
                entries = self._image_entries((f(e[0][0]),) for e in entries)
            system = replace(self, power=k * self.power)
            vars(system)["grid_images"] = entries  # the cached_property's slot
            yield system

    def orbit_step(
        self, coords: tuple[float, ...], at: int | None
    ) -> tuple[tuple[float, ...], int | None]:
        """The exact image of ``coords`` under f^power, and the image's ``at``.

        ``at`` is the grid index that ``coords`` equals exactly, or None.  On
        the grid the image is read from :attr:`grid_images`, since the float
        arithmetic is deterministic; off it, ``float_step`` gives it and
        ``at`` stays None.  Only a float map leaves the grid.
        """
        if at is None:
            return (self.float_step(coords[0]),), None
        image, _, _, at = self.grid_images[at]
        return image, at


@dataclass(frozen=True)
class MapEvaluation:
    """Exact image of an iterated grid point plus its nearest grid index."""

    image: tuple[float, ...]
    nearest_index: int


def step(system: SystemSpec, coords: Sequence[float]) -> tuple[float, ...]:
    """One exact application of the system's map f^power to a coordinate vector."""
    return iterate(system, coords, 1)


def iterate(system: SystemSpec, coords: Sequence[float], n: int) -> tuple[float, ...]:
    """n-fold exact image under f^power (n >= 0): n * power applications of f."""
    check_count(n, "iterations", 0)
    if system.permutation is not None and n > 0:
        idx = system.space.nearest_index(coords)
        for _ in range(n * system.power):
            idx = system.permutation[idx]
        return system.space.points[idx]
    f = system.float_step
    if f is None:  # a permutation-backed map at n = 0, or a many-dimensional identity
        return tuple(coords)
    c = coords[0]
    for _ in range(n):
        c = f(c)
    return (c,)


def evaluate(system: SystemSpec, x: int, iterations: int) -> MapEvaluation:
    """Exact image of grid point ``x`` under ``iterations`` applications of the map.

    ``iterations=0`` returns the point itself.  The image may lie off-grid;
    ``nearest_index`` is the closest grid point (ties to the smaller index).
    """
    system.space.check_indices((x,), "x")
    image = iterate(system, system.space.points[x], iterations)
    return MapEvaluation(image, system.space.nearest_index(image))


def grid_permutation(system: SystemSpec) -> tuple[int, ...] | None:
    """The index permutation induced by the map, when it is a grid bijection.

    Returns None unless every one-step image lands within 1e-9 of a grid
    point and the induced index map is a bijection.
    """
    if system.permutation is not None and system.power == 1:
        return system.permutation
    # an image farther than 1e-9 from the grid leaves fewer than n indices
    images = tuple(idx for _, idx, dist, _ in system.grid_images if dist <= 1e-9)
    return images if sorted(images) == list(range(system.space.n)) else None


# ---------------------------------------------------------------------------
# catalog constructors


def identity_system(space: FinitePhaseSpace, name: str = "identity") -> SystemSpec:
    return SystemSpec(name, MapKind.IDENTITY, space)


def rotation_system(alpha: float, n: int, name: str | None = None) -> SystemSpec:
    return SystemSpec(
        name or f"rotation-{alpha:g}", MapKind.ROTATION, circle_grid(n), (alpha,)
    )


def doubling_system(n: int, name: str = "doubling") -> SystemSpec:
    return SystemSpec(name, MapKind.DOUBLING, circle_grid(n))


def tent_system(slope: float, n: int, name: str | None = None) -> SystemSpec:
    return SystemSpec(
        name or f"tent-{slope:g}", MapKind.TENT, interval_grid(n), (slope,)
    )


def square_system(n: int, name: str = "square") -> SystemSpec:
    return SystemSpec(name, MapKind.SQUARE, interval_grid(n))


def permutation_system(
    cycles: Sequence[Sequence[int]], n: int, name: str = "permutation"
) -> SystemSpec:
    """Permutation given in cycle notation over a discrete n-point space."""
    return SystemSpec(name, MapKind.PERMUTATION, discrete_grid(n), (), _permutation_of(cycles, n))


def _permutation_of(cycles: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """The index permutation of n points that ``cycles`` (cycle notation) give."""
    perm = list(range(n))
    seen: set[int] = set()
    for cycle in cycles:
        for i in cycle:
            if not 0 <= i < n:
                raise ValidationError(f"cycle index {i} out of range")
            if i in seen:
                raise ValidationError(f"cycle index {i} repeated")
            seen.add(i)
        for a, b in zip(cycle, [*cycle[1:], *cycle[:1]]):
            perm[a] = b
    return tuple(perm)


def odometer_system(levels: int, name: str | None = None) -> SystemSpec:
    """The +1 adding machine on {0,1}^levels, embedded as binary expansions.

    Point k sits at coordinate k / 2^levels; the adding machine adds one to
    the first binary digit and carries toward the last, wrapping all-ones
    to all-zeros.  Canonical equicontinuous system on a totally
    disconnected finite model.
    """
    check_count(levels, "levels")
    if levels >= MAX_POINTS.bit_length():  # 2**levels > MAX_POINTS, not computed
        raise ResourceLimitError(f"2^{levels} points exceed the cap of {MAX_POINTS}")
    n = 2 ** levels
    space = _even_grid(n, n, Geometry.DISCRETE)

    def rev(k: int) -> int:
        # index k encodes coordinates sum(a_i * 2^-i); a_1 is the most
        # significant bit of k but the least significant adding-machine digit
        return int(f"{k:0{levels}b}"[::-1], 2)

    perm = tuple(rev((rev(k) + 1) % n) for k in range(n))
    return SystemSpec(name or f"odometer-{levels}", MapKind.ODOMETER, space, (), perm, levels)


def cantor_space(levels: int) -> FinitePhaseSpace:
    """Standard level-k Cantor set approximation as a discrete space.

    Points are the sums of ``a_i * 3^-i`` with digits in {0, 2}, giving
    2^levels points with minimum pairwise distance ``2 * 3^-levels``.  The
    recorded gap threshold is ``3^-levels``: any entourage with scale below
    it is diagonal-only.
    """
    check_count(levels, "levels")
    if levels > 12:
        raise InvalidParameterError("levels must be between 1 and 12")
    coords = [0.0]
    for i in range(1, levels + 1):
        w = 2.0 * 3.0 ** (-i)
        coords = [c + d for c in coords for d in (0.0, w)]
    pts = tuple((c,) for c in sorted(coords))
    return FinitePhaseSpace(
        pts, Geometry.DISCRETE, 2.0 * 3.0 ** (-levels), gap=3.0 ** (-levels)
    )


GOLDEN_ALPHA = (math.sqrt(5.0) - 1.0) / 2.0


def catalog_systems(n: int) -> tuple[SystemSpec, ...]:
    """The standard instances used by cross-cutting tests, at grid size n."""
    systems = [
        identity_system(interval_grid(n)),
        rotation_system(GOLDEN_ALPHA, n, name="rotation-golden"),
        doubling_system(n),
        tent_system(2.0, n),
        square_system(n),
        permutation_system([list(range(n))], n, name="cycle-shift"),
    ]
    levels = n.bit_length() - 1
    if 2 ** levels == n and levels >= 1:
        systems.append(odometer_system(levels))
    return tuple(systems)


# ---------------------------------------------------------------------------
# spec files


#: libyaml's loader when PyYAML has it: same constructor and resolver, same documents.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def parse_spec(path: str) -> dict[str, Any]:
    """The top-level mapping of a YAML spec file, read and parsed once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise MalformedSpecError(f"cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1})" if mark is not None else ""
        raise MalformedSpecError(f"cannot parse {path}{where}: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedSpecError(f"{path}: top level must be a mapping")
    return doc


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` as ``kind``, never a bool; a float also takes an int or a numeric string."""
    kinds = (int, float, str) if kind is float else kind  # YAML 1.1 reads 1e-3 as a string
    if not isinstance(value, bool) and isinstance(value, kinds):
        with suppress(ValueError):
            return kind(value)
    raise ValidationError(f"{what} must be of type {kind.__name__}, got {value!r}")


def _space_from_points(raw_points: Any, geometry: Geometry) -> FinitePhaseSpace:
    points = _typed(raw_points, list, "points")
    _check_grid_size(len(points))
    tup = tuple(
        tuple(_typed(c, float, "points coordinate") for c in (p if isinstance(p, list) else [p]))
        for p in points
    )
    h = _separation(tup, geometry)
    gap = h if geometry == Geometry.DISCRETE else None
    return FinitePhaseSpace(tup, geometry, h, gap=gap)


def _separation(points: tuple[tuple[float, ...], ...], geometry: Geometry) -> float:
    """Minimum positive distance between two of ``points`` (1.0 when there is none).

    On a line the minimum lies between neighbours in sorted order, and
    rounding is monotone, so that pass gives the pair scan's value exactly.
    The circle keeps the scan: a distance taken around the wrap,
    ``1 - |a - b|``, rounds differently, so sorted neighbours can miss the
    scan's minimum in the last bit.  A scan past ``MAX_ORBIT_CELLS`` pairs
    raises :class:`ResourceLimitError`.
    """
    probe = FinitePhaseSpace(points, geometry, 1.0)
    if geometry.wraps or probe.dimension > 1:
        n = len(points)
        if n * (n - 1) // 2 > MAX_ORBIT_CELLS:
            raise ResourceLimitError(
                f"points: {n} take {n * (n - 1) // 2} pair distances, past {MAX_ORBIT_CELLS}")
        pairs = combinations(points, 2)
    else:
        ordered = sorted(points)
        pairs = zip(ordered, ordered[1:])
    return min((d for a, b in pairs if (d := probe.distance(a, b)) > 0), default=1.0)


def _build_space(doc: dict[str, Any], geometry: Geometry) -> FinitePhaseSpace:
    if "grid_n" in doc and "points" in doc:
        raise ValidationError("give either grid_n or points, not both")
    if "grid_n" in doc:
        n = _typed(doc["grid_n"], int, "grid_n")
        if n < 1:
            raise ValidationError("grid_n must be a positive integer")
        if geometry == Geometry.CIRCLE:
            return circle_grid(n)
        if geometry == Geometry.INTERVAL:
            return interval_grid(n)
        if geometry == Geometry.DISCRETE:
            return discrete_grid(n)
        raise ValidationError("grid_n is not supported for product-of-circles")
    if "points" in doc:
        return _space_from_points(doc["points"], geometry)
    raise ValidationError("grid_n or points required")


#: The top-level keys of a spec file.
_SPEC_KEYS = ("name", "map", "geometry", "grid_n", "points", "params", "cycles", "analysis")


def load_system(path: str, document: dict[str, Any] | None = None) -> SystemSpec:
    """Load and validate a system spec from a YAML document.

    Required keys: ``name``, ``map``, ``geometry``, and ``grid_n`` or
    ``points``.  Scalar parameters go under ``params``; permutations under
    ``cycles``.  Parse failures raise :class:`MalformedSpecError` with line
    information; invariant violations raise :class:`ValidationError`
    naming the offending field, or any other top-level key.  ``document``,
    when given, is the already parsed content of ``path``, and the file is
    not read again.
    """
    doc = parse_spec(path) if document is None else document
    _check_keys(doc, _SPEC_KEYS)
    for key in ("name", "map", "geometry"):
        if key not in doc:
            raise ValidationError(f"{key} is required")
    name = str(doc["name"])
    try:
        kind = MapKind(str(doc["map"]))
    except ValueError:
        raise ValidationError(f"unknown map {doc['map']!r}") from None
    try:
        geometry = Geometry(str(doc["geometry"]))
    except ValueError:
        raise ValidationError(f"unknown geometry {doc['geometry']!r}") from None

    raw_params = doc.get("params", [])
    if not isinstance(raw_params, list):
        raise ValidationError("params must be a list of scalars")
    params = tuple(_typed(p, float, "params entry") for p in raw_params)

    if kind == MapKind.ODOMETER:
        if not params:
            raise ValidationError("levels parameter missing")
        levels = _typed(raw_params[0], int, "odometer levels")
        if geometry != Geometry.DISCRETE:
            raise ValidationError("odometer requires discrete geometry")
        return odometer_system(levels, name=name)
    space = _build_space(doc, geometry)
    if kind == MapKind.PERMUTATION:
        cycles = doc.get("cycles")
        if not isinstance(cycles, list):
            raise ValidationError("cycles is required for permutation maps")
        cycles = [
            [_typed(i, int, "cycle index") for i in _typed(c, list, "cycle")] for c in cycles
        ]
        return SystemSpec(name, MapKind.PERMUTATION, space, (), _permutation_of(cycles, space.n))
    return SystemSpec(name, kind, space, params)


#: Every request option, in the CLI's flag order: its type and built-in default.
#: The flags, the ``analysis`` table's keys and the request's starting values all
#: come from here; epsilon's default is None because it is 2h of the loaded space.
ANALYSIS_OPTIONS: dict[str, tuple[type, Any]] = {
    "epsilon": (float, None), "basis": (int, 8), "horizon": (int, 100), "trials": (int, 20),
    "seed": (int, None), "nmax": (int, 4), "x": (int, 0),
    "format": (str, "text"), "out": (str, None), "dump_graph": (str, None),
}


def load_analysis_defaults(
    path: str, document: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The optional ``analysis`` table of a spec file (CLI flag defaults), type-checked.

    A key that sets no flag is a :class:`ValidationError`, so a typo is not
    silently ignored.  ``document`` is as for :func:`load_system`.
    """
    doc = parse_spec(path) if document is None else document
    table = doc.get("analysis", {})
    if table is None:
        return {}
    if not isinstance(table, dict):
        raise ValidationError("analysis must be a mapping")
    _check_keys(table, ANALYSIS_OPTIONS, "analysis.")
    for key, (kind, _) in ANALYSIS_OPTIONS.items():
        if table.get(key) is not None:
            table[key] = _typed(table[key], kind, f"analysis.{key}")
    return table


def _check_keys(table: dict[str, Any], known: Collection[str], prefix: str = "") -> None:
    """Raise :class:`ValidationError` naming the first key of ``table`` not in ``known``."""
    for key in table:
        if key not in known:
            raise ValidationError(
                f"unknown key {prefix}{key}; known keys: {', '.join(sorted(known))}")
