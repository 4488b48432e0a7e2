"""Stud-grid brick world: occupancy, support physics, and canonical forms.

A brick with footprint (w, l) placed at origin (x, y) on a layer occupies the
integer cells {(x+i, y+j, layer) : 0 <= i < w, 0 <= j < l}. Layer 0 rests on
the ground plane; every higher brick must have at least one occupied cell
directly beneath it. Structures are value objects: all operations are pure.

The stud frame fixes how stud cells project into the camera frame (and back):
x runs rightward across the image, layers stack upward (shrinking image y),
and y runs away from the camera (growing depth). The projection is exact, so
scenes rendered from a structure snap back to the same structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from random import Random
from typing import TYPE_CHECKING

from .errors import InvalidPose, InvalidStructure, NonBrickNode, ParseError, SchemaVersionMismatch, SnapAmbiguity
from .geometry import PALETTE, Box, color_text
from .jsonfile import parse_list

if TYPE_CHECKING:  # avoids a runtime cycle; from_graph duck-types the graph
    from .scene import SceneGraph

# Base footprint set; a placement may use either orientation of an entry.
FOOTPRINTS: frozenset[tuple[int, int]] = frozenset({(1, 1), (1, 2), (2, 2), (1, 4), (2, 4)})
FOOTPRINT_PLACEMENTS: tuple[tuple[int, int], ...] = tuple(sorted(
    {(w, l) for (w, l) in FOOTPRINTS} | {(l, w) for (w, l) in FOOTPRINTS}
))


def is_supported_footprint(w: int, l: int) -> bool:
    return tuple(sorted((w, l))) in FOOTPRINTS


def footprint_label(footprint: tuple[int, int]) -> str:
    return f"{footprint[0]}x{footprint[1]}"


def parse_footprint(text: str) -> tuple[int, int]:
    parts = text.lower().replace("×", "x").split("x")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ParseError(f"not a footprint: {text!r}", field="footprint")
    return (int(parts[0]), int(parts[1]))


@dataclass(frozen=True)
class BrickSpec:
    """Color plus stud footprint; orientation is part of the footprint."""

    color: str
    footprint: tuple[int, int]

    def __post_init__(self):
        if self.color not in PALETTE:
            raise InvalidPose(f"unknown color {self.color!r}")
        w, l = self.footprint
        if not is_supported_footprint(w, l):
            raise InvalidPose(f"unsupported footprint {w}x{l}")

    @property
    def w(self) -> int:
        return self.footprint[0]

    @property
    def l(self) -> int:
        return self.footprint[1]

    @property
    def size(self) -> str:
        return footprint_label(self.footprint)


@dataclass(frozen=True)
class PlacedBrick:
    """A brick at integer stud coordinates. Negative coordinates are
    representable so the validator can report them."""

    spec: BrickSpec
    origin: tuple[int, int]
    layer: int

    @property
    def x(self) -> int:
        return self.origin[0]

    @property
    def y(self) -> int:
        return self.origin[1]

    def cells(self) -> frozenset[tuple[int, int]]:
        x, y = self.origin
        return frozenset((x + i, y + j) for i in range(self.spec.w) for j in range(self.spec.l))

    def cells3(self) -> frozenset[tuple[int, int, int]]:
        return frozenset((cx, cy, self.layer) for cx, cy in self.cells())

    def translated(self, dx: int, dy: int) -> "PlacedBrick":
        return replace(self, origin=(self.x + dx, self.y + dy))

    def sort_key(self):
        return (self.layer, self.y, self.x, self.spec.color, self.spec.footprint)

    def to_dict(self) -> dict:
        return {
            "color": self.spec.color,
            "footprint": list(self.spec.footprint),
            "origin": list(self.origin),
            "layer": self.layer,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlacedBrick":
        if not isinstance(data, dict):
            raise ParseError(f"expected a JSON object, got {data!r}")
        try:
            color, layer = data["color"], data["layer"]
            footprint, origin = _int_pair(data, "footprint"), _int_pair(data, "origin")
        except KeyError as e:
            raise ParseError(f"brick missing {e.args[0]!r}", field=e.args[0]) from e
        if not isinstance(color, str) or color not in PALETTE:
            raise ParseError(f"unknown color {color!r}", field="color")
        if not is_supported_footprint(*footprint):
            raise ParseError(f"unsupported footprint {footprint_label(footprint)}", field="footprint")
        if not _is_int(layer):
            raise ParseError(f"expected an integer, got {layer!r}", field="layer")
        return cls(BrickSpec(color, footprint), origin, layer)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int_pair(data: dict, key: str) -> tuple[int, int]:
    value = data[key]
    if not (isinstance(value, list) and len(value) == 2 and all(_is_int(v) for v in value)):
        raise ParseError(f"expected a list of 2 integers, got {value!r}", field=key)
    return (value[0], value[1])


STRUCTURE_SCHEMA = "espatial-lego/1"


@dataclass(frozen=True)
class LegoStructure:
    """A set of placed bricks with derived occupancy.

    Brick order is normalized (layer, y, x) and exact duplicates collapse,
    so structural equality is set equality.
    """

    bricks: tuple[PlacedBrick, ...] = ()

    def __post_init__(self):
        normalized = tuple(sorted(set(self.bricks), key=PlacedBrick.sort_key))
        object.__setattr__(self, "bricks", normalized)

    @classmethod
    def of(cls, *bricks: PlacedBrick) -> "LegoStructure":
        return cls(tuple(bricks))

    def __len__(self) -> int:
        return len(self.bricks)

    @property
    def occupancy(self) -> dict[tuple[int, int, int], tuple[int, ...]]:
        """Cell -> indices of bricks covering it. Recomputed from the brick
        list, so it can never drift out of sync."""
        cells: dict[tuple[int, int, int], tuple[int, ...]] = {}
        for i, brick in enumerate(self.bricks):
            for cell in brick.cells3():
                cells[cell] = cells.get(cell, ()) + (i,)
        return cells

    def with_brick(self, brick: PlacedBrick) -> "LegoStructure":
        return LegoStructure(self.bricks + (brick,))

    def to_dict(self) -> dict:
        return {"schema": STRUCTURE_SCHEMA, "bricks": [b.to_dict() for b in self.bricks]}

    @classmethod
    def from_dict(cls, data: dict) -> "LegoStructure":
        if not isinstance(data, dict):
            raise ParseError(f"expected a JSON object, got {data!r}")
        schema = data.get("schema")
        if schema != STRUCTURE_SCHEMA:
            raise SchemaVersionMismatch(schema, STRUCTURE_SCHEMA)
        if "bricks" not in data:
            raise ParseError("structure missing 'bricks'", field="bricks")
        return cls(parse_list(data, "bricks", PlacedBrick.from_dict))


class ViolationKind(str, Enum):
    FLOATING = "floating"
    CELL_COLLISION = "cell_collision"
    NEGATIVE_COORDINATE = "negative_coordinate"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    brick: PlacedBrick
    detail: str = ""

    def __str__(self) -> str:
        where = f"{self.brick.spec.size} {color_text(self.brick.spec.color)} at {self.brick.origin} layer {self.brick.layer}"
        suffix = f": {self.detail}" if self.detail else ""
        return f"{self.kind.value} [{where}]{suffix}"


def supporters(cells: dict[tuple[int, int, int], object], x: int, y: int, layer: int,
               footprint: tuple[int, int]) -> set:
    """The support rule: owners of the occupied cells directly beneath a
    footprint placed at (x, y, layer). A brick above layer 0 stands only
    when this is non-empty."""
    w, l = footprint
    beneath = ((x + i, y + j, layer - 1) for i in range(w) for j in range(l))
    return {cells[cell] for cell in beneath if cell in cells}


def validate(structure: LegoStructure) -> list[Violation]:
    """Every physical-rule violation, with the offending brick.

    An empty list means the structure is valid. Support follows
    :func:`supporters`; collisions are reported once per participating
    brick.
    """
    violations: list[Violation] = []
    occupancy = structure.occupancy
    for brick in structure.bricks:
        if brick.x < 0 or brick.y < 0 or brick.layer < 0:
            violations.append(Violation(
                ViolationKind.NEGATIVE_COORDINATE, brick,
                f"origin {brick.origin} layer {brick.layer}",
            ))
        shared = sorted(
            cell for cell in brick.cells3() if len(occupancy[cell]) > 1
        )
        if shared:
            violations.append(Violation(
                ViolationKind.CELL_COLLISION, brick, f"cells {shared}",
            ))
        if brick.layer > 0 and not supporters(occupancy, brick.x, brick.y, brick.layer, brick.spec.footprint):
            violations.append(Violation(ViolationKind.FLOATING, brick))
    violations.sort(key=lambda v: (v.brick.sort_key(), v.kind.value))
    return violations


def canonicalize(structure: LegoStructure) -> LegoStructure:
    """Translate so the bottom-left occupied stud sits at (0, 0).

    Idempotent; layers are untouched. The empty structure is its own
    canonical form.
    """
    if not structure.bricks:
        return structure
    min_x = min(b.x for b in structure.bricks)
    min_y = min(b.y for b in structure.bricks)
    if min_x == 0 and min_y == 0:
        return structure
    return LegoStructure(tuple(b.translated(-min_x, -min_y) for b in structure.bricks))


def equals(a: LegoStructure, b: LegoStructure) -> bool:
    """Translation-invariant structural equality."""
    return frozenset(canonicalize(a).bricks) == frozenset(canonicalize(b).bricks)


@dataclass(frozen=True)
class BrickRecord:
    color: str
    size: str
    position: tuple[int, int]
    layer: int

    def to_dict(self) -> dict:
        return {
            "color": self.color,
            "size": self.size,
            "position": list(self.position),
            "layer": self.layer,
        }


@dataclass(frozen=True)
class StructureDescription:
    """Per-brick records in (layer, y, x) order plus aggregate counts."""

    records: tuple[BrickRecord, ...]
    color_counts: tuple[tuple[str, int], ...]
    size_counts: tuple[tuple[str, int], ...]
    total: int

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "color_counts": {k: v for k, v in self.color_counts},
            "size_counts": {k: v for k, v in self.size_counts},
            "total": self.total,
        }

    def to_structure(self) -> LegoStructure:
        """Rebuild the described structure; inverse of :func:`describe`."""
        bricks = tuple(
            PlacedBrick(BrickSpec(r.color, parse_footprint(r.size)), r.position, r.layer)
            for r in self.records
        )
        return LegoStructure(bricks)


def describe(structure: LegoStructure) -> StructureDescription:
    """Exact attribute description of a valid structure."""
    violations = validate(structure)
    if violations:
        raise InvalidStructure(violations)
    records = tuple(
        BrickRecord(b.spec.color, b.spec.size, b.origin, b.layer)
        for b in structure.bricks  # already in (layer, y, x) order
    )
    colors: dict[str, int] = {}
    sizes: dict[str, int] = {}
    for r in records:
        colors[r.color] = colors.get(r.color, 0) + 1
        sizes[r.size] = sizes.get(r.size, 0) + 1
    return StructureDescription(
        records=records,
        color_counts=tuple(sorted(colors.items())),
        size_counts=tuple(sorted(sizes.items())),
        total=len(records),
    )


@dataclass(frozen=True)
class StudFrame:
    """Exact projection between stud cells and image-frame poses.

    A brick's visible box spans its w studs horizontally and one layer
    vertically; its l studs run along depth, so the depth sample is taken at
    the footprint's depth midpoint.
    """

    origin_x: float = 0.10
    origin_y: float = 0.90
    stud: float = 0.06        # normalized image units per stud and per layer
    depth_base_m: float = 1.0
    depth_stud_m: float = 0.06

    def project(self, brick: PlacedBrick) -> tuple[Box, float]:
        x, y = brick.origin
        w, l = brick.spec.footprint
        box = Box(
            self.origin_x + x * self.stud,
            self.origin_y - (brick.layer + 1) * self.stud,
            self.origin_x + (x + w) * self.stud,
            self.origin_y - brick.layer * self.stud,
        )
        depth = self.depth_base_m + (y + l / 2) * self.depth_stud_m
        return box, depth

    def snap(self, bbox: Box, depth_m: float, footprint: tuple[int, int]) -> tuple[int, int, int]:
        """Recover (x, y, layer) from a projected pose.

        Raises SnapAmbiguity when a coordinate lands exactly between cells.
        """
        x = _snap_int((bbox.x_min - self.origin_x) / self.stud, "x")
        layer = _snap_int((self.origin_y - bbox.y_max) / self.stud, "layer")
        y = _snap_int((depth_m - self.depth_base_m) / self.depth_stud_m - footprint[1] / 2, "y")
        return (x, y, layer)


_TIE_EPS = 1e-9


def _snap_int(value: float, what: str) -> int:
    frac = value - math.floor(value)
    if abs(frac - 0.5) < _TIE_EPS:
        raise SnapAmbiguity(f"{what} coordinate {value} is equidistant between cells")
    return round(value)


DEFAULT_STUD_FRAME = StudFrame()


def node_footprint(size_class: str) -> tuple[int, int] | None:
    """Footprint encoded in a size class, or None for non-brick sizes."""
    try:
        fp = parse_footprint(size_class)
    except ParseError:
        return None
    return fp if is_supported_footprint(*fp) else None


def from_graph(graph: "SceneGraph") -> LegoStructure:
    """Recover the brick structure a scene graph describes.

    Every node must carry a footprint size class and a pose aligned to the
    default stud frame; the result must pass validation.
    """
    bricks = []
    for node in graph.nodes:
        footprint = node_footprint(node.size_class)
        if footprint is None:
            raise NonBrickNode(f"node {node.id!r} has size class {node.size_class!r}")
        x, y, layer = DEFAULT_STUD_FRAME.snap(node.bbox, node.depth_m, footprint)
        bricks.append(PlacedBrick(BrickSpec(node.color, footprint), (x, y), layer))
    structure = LegoStructure(tuple(bricks))
    violations = validate(structure)
    if violations:
        raise InvalidStructure(violations)
    return structure


def brick_label(spec: BrickSpec) -> str:
    return f"{color_text(spec.color)} {spec.size} brick"


def random_structure(rng: Random, n_bricks: int) -> LegoStructure:
    """Deterministic random valid structure in canonical form.

    Bricks are either grounded at layer 0 with an origin in [0, 8]^2 or
    stacked with at least one cell over an existing brick; candidates that
    collide are re-sampled, up to 200 times per brick. May return fewer than
    n_bricks if placement keeps failing, which at these sizes does not
    happen in practice.
    """
    palette = tuple(PALETTE)
    bricks: list[PlacedBrick] = []
    cells: dict[tuple[int, int, int], PlacedBrick] = {}
    for _ in range(n_bricks):
        placed = None
        for _attempt in range(200):
            spec = BrickSpec(rng.choice(palette), rng.choice(FOOTPRINT_PLACEMENTS))
            if not bricks or rng.random() < 0.45:
                origin = (rng.randint(0, 8), rng.randint(0, 8))
                layer = 0
            else:
                base = rng.choice(bricks)
                origin = (
                    rng.randint(base.x - spec.w + 1, base.x + base.spec.w - 1),
                    rng.randint(base.y - spec.l + 1, base.y + base.spec.l - 1),
                )
                layer = base.layer + 1
            candidate = PlacedBrick(spec, origin, layer)
            if candidate.x < 0 or candidate.y < 0:
                continue
            if any(cell in cells for cell in candidate.cells3()):
                continue
            if layer > 0 and not supporters(cells, *origin, layer, spec.footprint):
                continue
            placed = candidate
            break
        if placed is None:
            break
        bricks.append(placed)
        cells.update(dict.fromkeys(placed.cells3(), placed))
    return canonicalize(LegoStructure(tuple(bricks)))


def recolor_brick(structure: LegoStructure, rng: Random) -> LegoStructure:
    """Recolor one brick to a different palette entry (always changes the
    brick set); used to mint unequal variants of a structure."""
    if not structure.bricks:
        return structure
    idx = rng.randrange(len(structure.bricks))
    brick = structure.bricks[idx]
    choices = [c for c in PALETTE if c != brick.spec.color]
    new_spec = replace(brick.spec, color=rng.choice(choices))
    bricks = list(structure.bricks)
    bricks[idx] = replace(brick, spec=new_spec)
    return LegoStructure(tuple(bricks))


def first_mismatch(a: LegoStructure, b: LegoStructure) -> PlacedBrick | None:
    """First brick (in normalized order) present in exactly one canonical
    form, or None when the structures match."""
    ca, cb = frozenset(canonicalize(a).bricks), frozenset(canonicalize(b).bricks)
    extras = sorted(ca.symmetric_difference(cb), key=PlacedBrick.sort_key)
    return extras[0] if extras else None
