"""Catalog of concrete dynamical systems with exact image computation.

A :class:`SystemSpec` couples a finite phase space with one of the catalog
maps (rotation, doubling, tent, identity, square, permutation, odometer).
Images are always computed from the exact formula in floating point, never
by chaining grid snaps, so discretization error enters only when a
transition graph or membership test snaps an image back onto the grid.

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
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Any, Sequence

import yaml

from .errors import (
    InvalidParameterError,
    MalformedSpecError,
    OutOfRangeError,
    ResourceLimitError,
    ValidationError,
)
from .uniform import (
    MAX_POINTS,
    FinitePhaseSpace,
    Geometry,
    _check_grid_size,
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
        if self.power < 1:
            raise InvalidParameterError("power must be >= 1")
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
            if self.levels is None or self.levels < 1:
                raise ValidationError("levels must be >= 1")
            if self.space.n != 2 ** self.levels:
                raise ValidationError("odometer space must have 2^levels points")
            if self.permutation is None:
                raise ValidationError("odometer permutation missing")

    def _param(self, field: str) -> float:
        if not self.params:
            raise ValidationError(f"{field} parameter missing")
        return self.params[0]


@dataclass(frozen=True)
class MapEvaluation:
    """Exact image of an iterated grid point plus its nearest grid index."""

    image: tuple[float, ...]
    nearest_index: int


def _apply(system: SystemSpec, coords: Sequence[float]) -> tuple[float, ...]:
    """One exact application of the catalog map f, whatever the system's power."""
    kind = system.kind
    if kind == MapKind.IDENTITY:
        return tuple(coords)
    if kind == MapKind.ROTATION:
        return ((coords[0] + system.params[0]) % 1.0,)
    if kind == MapKind.DOUBLING:
        return ((2.0 * coords[0]) % 1.0,)
    if kind == MapKind.TENT:
        slope = system.params[0]
        c = coords[0]
        return (slope * c if c <= 0.5 else slope * (1.0 - c),)
    # the square map; permutation-backed kinds never get here, since iterate
    # returns through their stored permutation
    return (coords[0] * coords[0],)


def step(system: SystemSpec, coords: Sequence[float]) -> tuple[float, ...]:
    """One exact application of the system's map f^power to a coordinate vector."""
    return iterate(system, coords, 1)


def iterate(system: SystemSpec, coords: Sequence[float], n: int) -> tuple[float, ...]:
    """n-fold exact image under f^power (n >= 0): n * power applications of f."""
    if n < 0:
        raise InvalidParameterError("iterations must be >= 0")
    n *= system.power
    if system.permutation is not None and n > 0:
        idx = system.space.nearest_index(coords)
        for _ in range(n):
            idx = system.permutation[idx]
        return system.space.points[idx]
    out = tuple(coords)
    for _ in range(n):
        out = _apply(system, out)
    return out


def evaluate(system: SystemSpec, x: int, iterations: int) -> MapEvaluation:
    """Exact image of grid point ``x`` under ``iterations`` applications of the map.

    ``iterations=0`` returns the point itself.  The image may lie off-grid;
    ``nearest_index`` is the closest grid point (ties to the smaller index).
    """
    if not 0 <= x < system.space.n:
        raise OutOfRangeError(f"index {x} out of range for {system.space.n} points")
    image = iterate(system, system.space.points[x], iterations)
    return MapEvaluation(image, system.space.nearest_index(image))


def grid_permutation(system: SystemSpec) -> tuple[int, ...] | None:
    """The index permutation induced by the map, when it is a grid bijection.

    Returns None unless every one-step image lands within 1e-9 of a grid
    point and the induced index map is a bijection.
    """
    if system.permutation is not None and system.power == 1:
        return system.permutation
    space = system.space
    images = []
    for p in space.points:
        img = step(system, p)
        idx = space.nearest_index(img)
        if space.distance(img, space.points[idx]) > 1e-9:
            return None
        images.append(idx)
    if sorted(images) != list(range(space.n)):
        return None
    return tuple(images)


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
    return SystemSpec(name, MapKind.PERMUTATION, discrete_grid(n), (), tuple(perm))


def _odometer_bits(index: int, levels: int) -> tuple[int, ...]:
    # index k encodes coordinates sum(a_i * 2^-i); a_1 is the most
    # significant embedded digit but the least significant adding-machine
    # digit.
    return tuple((index >> (levels - i)) & 1 for i in range(1, levels + 1))


def _odometer_index(bits: Sequence[int], levels: int) -> int:
    return sum(b << (levels - i) for i, b in enumerate(bits, start=1))


def odometer_system(levels: int, name: str | None = None) -> SystemSpec:
    """The +1 adding machine on {0,1}^levels, embedded as binary expansions.

    Point k sits at coordinate k / 2^levels; the adding machine adds one to
    the first binary digit and carries toward the last, wrapping all-ones
    to all-zeros.  Canonical equicontinuous system on a totally
    disconnected finite model.
    """
    if levels < 1:
        raise InvalidParameterError("levels must be >= 1")
    if levels >= MAX_POINTS.bit_length():  # 2**levels > MAX_POINTS, not computed
        raise ResourceLimitError(f"2^{levels} points exceed the cap of {MAX_POINTS}")
    n = 2 ** levels
    h = 2.0 ** (-levels)
    pts = tuple((k * h,) for k in range(n))
    space = FinitePhaseSpace(pts, Geometry.DISCRETE, h, gap=h)
    perm = []
    for k in range(n):
        bits = list(_odometer_bits(k, levels))
        carry = 1
        for i in range(levels):
            total = bits[i] + carry
            bits[i] = total % 2
            carry = total // 2
            if not carry:
                break
        perm.append(_odometer_index(bits, levels))
    return SystemSpec(
        name or f"odometer-{levels}",
        MapKind.ODOMETER,
        space,
        (),
        tuple(perm),
        levels,
    )


def cantor_space(levels: int) -> FinitePhaseSpace:
    """Standard level-k Cantor set approximation as a discrete space.

    Points are the sums of ``a_i * 3^-i`` with digits in {0, 2}, giving
    2^levels points with minimum pairwise distance ``2 * 3^-levels``.  The
    recorded gap threshold is ``3^-levels``: any entourage with scale below
    it is diagonal-only.
    """
    if not 1 <= levels <= 12:
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


def parse_spec(path: str) -> dict[str, Any]:
    """The top-level mapping of a YAML spec file, read and parsed once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
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
    scan's minimum in the last bit.
    """
    probe = FinitePhaseSpace(points, geometry, 1.0)
    if geometry.wraps or probe.dimension > 1:
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


def load_system(path: str, document: dict[str, Any] | None = None) -> SystemSpec:
    """Load and validate a system spec from a YAML document.

    Required keys: ``name``, ``map``, ``geometry``, and ``grid_n`` or
    ``points``.  Scalar parameters go under ``params``; permutations under
    ``cycles``.  Parse failures raise :class:`MalformedSpecError` with line
    information; invariant violations raise :class:`ValidationError`
    naming the offending field.  ``document``, when given, is the already
    parsed content of ``path``, and the file is not read again.
    """
    doc = parse_spec(path) if document is None else document
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
        sys_ = odometer_system(levels, name=name)
        return sys_
    space = _build_space(doc, geometry)
    if kind == MapKind.PERMUTATION:
        cycles = doc.get("cycles")
        if not isinstance(cycles, list):
            raise ValidationError("cycles is required for permutation maps")
        cycles = [
            [_typed(i, int, "cycle index") for i in _typed(c, list, "cycle")] for c in cycles
        ]
        sys_ = permutation_system(cycles, space.n, name=name)
        if "points" in doc:
            sys_ = SystemSpec(name, MapKind.PERMUTATION, space, (), sys_.permutation)
        return sys_
    return SystemSpec(name, kind, space, params)


#: The type of each CLI flag default an ``analysis`` table may set.
_ANALYSIS_TYPES = {"epsilon": float, "format": str, "out": str, "dump_graph": str}
_ANALYSIS_TYPES.update(dict.fromkeys(("basis", "horizon", "trials", "seed", "nmax", "x"), int))


def load_analysis_defaults(
    path: str, document: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The optional ``analysis`` table of a spec file (CLI flag defaults), type-checked.

    ``document`` is as for :func:`load_system`.
    """
    doc = parse_spec(path) if document is None else document
    table = doc.get("analysis", {})
    if table is None:
        return {}
    if not isinstance(table, dict):
        raise ValidationError("analysis must be a mapping")
    for key, kind in _ANALYSIS_TYPES.items():
        if table.get(key) is not None:
            table[key] = _typed(table[key], kind, f"analysis.{key}")
    return table
