"""Spatial relation derivation from normalized 2-D boxes plus depth.

Image coordinates are normalized to [0, 1] with x growing rightward and y
growing downward, so a smaller center y is visually higher in the frame.
Depth is metric distance from the camera in meters; smaller is closer.

Relations are derived from box centers and depth gaps against a set of
configurable thresholds. Directional kinds come in dual pairs (a left of b
implies b right of a); near/overlap/adjacency are symmetric and always
emitted in both directions with equal magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Protocol, Sequence

from .errors import InvalidDepth, InvalidPose, ParseError
from .jsonfile import get, known_keys


class RelationKind(str, Enum):
    LEFT_OF = "left_of"
    RIGHT_OF = "right_of"
    ABOVE = "above"
    BELOW = "below"
    IN_FRONT_OF = "in_front_of"
    BEHIND = "behind"
    NEAR = "near"
    OVERLAPPING = "overlapping"
    ADJACENT_TO = "adjacent_to"
    ON_TOP_OF = "on_top_of"


DUALS: dict[RelationKind, RelationKind] = {
    RelationKind.LEFT_OF: RelationKind.RIGHT_OF,
    RelationKind.RIGHT_OF: RelationKind.LEFT_OF,
    RelationKind.ABOVE: RelationKind.BELOW,
    RelationKind.BELOW: RelationKind.ABOVE,
    RelationKind.IN_FRONT_OF: RelationKind.BEHIND,
    RelationKind.BEHIND: RelationKind.IN_FRONT_OF,
}

SYMMETRIC_KINDS = frozenset({
    RelationKind.NEAR,
    RelationKind.OVERLAPPING,
    RelationKind.ADJACENT_TO,
})

# Kinds that express where the subject sits relative to the object.
DIRECTIONAL_KINDS = frozenset(DUALS) | {RelationKind.ON_TOP_OF}


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in normalized image coordinates."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (0.0 <= self.x_min < self.x_max <= 1.0):
            raise InvalidPose(f"x range [{self.x_min}, {self.x_max}] not within [0, 1]")
        if not (0.0 <= self.y_min < self.y_max <= 1.0):
            raise InvalidPose(f"y range [{self.y_min}, {self.y_max}] not within [0, 1]")

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "Box":
        return cls(cx - width / 2, cy - height / 2, cx + width / 2, cy + height / 2)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2, (self.y_min + self.y_max) / 2)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def gap_to(self, other: "Box") -> float:
        """Shortest distance between box boundaries; 0 when touching or overlapping."""
        dx = max(0.0, self.x_min - other.x_max, other.x_min - self.x_max)
        dy = max(0.0, self.y_min - other.y_max, other.y_min - self.y_max)
        return math.hypot(dx, dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.y_min, self.x_max, self.y_max)


# Named color anchors; classification maps an RGB triple to the nearest
# anchor by Euclidean distance, ties resolved by declaration order.
PALETTE: dict[str, tuple[int, int, int]] = {
    "red": (196, 40, 27),
    "green": (40, 127, 70),
    "dark_blue": (13, 105, 171),
    "light_blue": (159, 195, 233),
    "yellow": (245, 205, 47),
    "orange": (218, 133, 64),
    "white": (242, 243, 242),
    "black": (27, 42, 52),
    "gray": (162, 164, 162),
}


def classify_color(rgb: Sequence[float]) -> str:
    """Nearest palette entry to an RGB triple; total and deterministic."""
    r, g, b = rgb
    best_name = ""
    best_dist = math.inf
    for name, (ar, ag, ab) in PALETTE.items():
        d = (r - ar) ** 2 + (g - ag) ** 2 + (b - ab) ** 2
        if d < best_dist:
            best_dist = d
            best_name = name
    return best_name


def color_text(name: str) -> str:
    """Palette entry rendered for prose and labels ('light_blue' -> 'light blue')."""
    return name.replace("_", " ")


def color_name(text: str) -> str:
    """Inverse of :func:`color_text`."""
    return text.strip().replace(" ", "_")


def lift_to_3d(bbox: Box, depth_m: float) -> tuple[float, float, float]:
    """Lift a box center to a 3-D camera-frame point in meters through the
    unit normalized pinhole camera:
    ((cx - 0.5) * depth, (cy - 0.5) * depth, depth)."""
    if not (isinstance(depth_m, (int, float)) and depth_m > 0 and math.isfinite(depth_m)):
        raise InvalidDepth(f"depth must be positive and finite, got {depth_m!r}")
    cx, cy = bbox.center
    return ((cx - 0.5) * depth_m, (cy - 0.5) * depth_m, float(depth_m))


class NodeLike(Protocol):
    """Anything carrying an id, a box, a depth, and a lifted center."""

    id: str
    bbox: Box
    depth_m: float

    @property
    def center3(self) -> tuple[float, float, float]: ...


def _point3(obj) -> tuple[float, float, float]:
    center = getattr(obj, "center3", obj)
    x, y, z = center
    return (x, y, z)


def distance(a, b) -> float:
    """Euclidean distance in meters between two lifted centers.

    Accepts nodes (anything with a ``center3``) or plain 3-tuples.
    """
    return math.dist(_point3(a), _point3(b))


def overlap_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 1 iff equal, 0 iff disjoint."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


@dataclass(frozen=True)
class Thresholds:
    """Relation thresholds; normalized units unless suffixed ``_m``."""

    tau_dir: float = 0.05
    tau_depth_m: float = 0.10
    tau_near_m: float = 0.30
    tau_iou: float = 0.10
    tau_adj: float = 0.02

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                raise ParseError(
                    f"threshold must be a finite non-negative number, got {value!r}", field=name
                )

    def to_dict(self) -> dict[str, float]:
        return {
            "tau_dir": self.tau_dir,
            "tau_depth_m": self.tau_depth_m,
            "tau_near_m": self.tau_near_m,
            "tau_iou": self.tau_iou,
            "tau_adj": self.tau_adj,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Thresholds":
        known_keys(data, cls)
        return cls(**{key: get(data, key, float) for key in data})


DEFAULT_THRESHOLDS = Thresholds()


@dataclass(frozen=True)
class RelationEdge:
    """Typed spatial relation between two nodes.

    The magnitude is in meters for in_front_of, behind and near, an IoU
    ratio for overlapping, and normalized image units for every other kind.
    Confidence defaults to certain; a loaded graph may carry a lower one
    forward.
    """

    subject_id: str
    object_id: str
    kind: RelationKind
    magnitude: float
    confidence: float = 1.0

    def __post_init__(self):
        if self.subject_id == self.object_id:
            raise InvalidPose(f"self relation on {self.subject_id!r}")
        if not (0.0 <= self.confidence <= 1.0):
            raise InvalidPose(f"confidence {self.confidence} outside [0, 1]")

    def key(self) -> tuple[str, str, str]:
        return (self.subject_id, self.object_id, self.kind.value)

    def with_confidence(self, confidence: float) -> "RelationEdge":
        return RelationEdge(self.subject_id, self.object_id, self.kind, self.magnitude, confidence)


def edge_ref(edge: RelationEdge) -> str:
    """Stable textual reference to an edge, used in traces."""
    return f"{edge.subject_id}->{edge.object_id}:{edge.kind.value}"


def derive_pairwise(a: NodeLike, b: NodeLike, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> tuple[RelationEdge, ...]:
    """All relations between one unordered pair, emitted in both directions.

    Directional kinds fire when the center gap on their axis exceeds
    ``tau_dir`` (``tau_depth_m`` for depth ordering). Near compares lifted
    3-D distance to ``tau_near_m``. Overlap compares IoU to ``tau_iou``;
    adjacency requires a boundary gap under ``tau_adj`` without overlap.
    On-top-of is above plus contact (adjacent or overlapping) at matching
    depth, and is the only directional kind without a dual.
    """
    th = thresholds
    edges: list[RelationEdge] = []
    cxa, cya = a.bbox.center
    cxb, cyb = b.bbox.center

    def both(first: NodeLike, second: NodeLike, kind: RelationKind, magnitude: float):
        edges.append(RelationEdge(first.id, second.id, kind, magnitude))
        edges.append(RelationEdge(second.id, first.id, DUALS[kind], magnitude))

    dx = cxb - cxa
    if dx > th.tau_dir:
        both(a, b, RelationKind.LEFT_OF, dx)
    elif -dx > th.tau_dir:
        both(b, a, RelationKind.LEFT_OF, -dx)

    above_ab = above_ba = False
    dy = cyb - cya
    if dy > th.tau_dir:  # a is higher in the frame
        both(a, b, RelationKind.ABOVE, dy)
        above_ab = True
    elif -dy > th.tau_dir:
        both(b, a, RelationKind.ABOVE, -dy)
        above_ba = True

    dz = b.depth_m - a.depth_m
    if dz > th.tau_depth_m:
        both(a, b, RelationKind.IN_FRONT_OF, dz)
    elif -dz > th.tau_depth_m:
        both(b, a, RelationKind.IN_FRONT_OF, -dz)

    def sym(kind: RelationKind, magnitude: float):
        edges.append(RelationEdge(a.id, b.id, kind, magnitude))
        edges.append(RelationEdge(b.id, a.id, kind, magnitude))

    d = distance(a, b)
    if d < th.tau_near_m:
        sym(RelationKind.NEAR, d)

    iou = overlap_iou(a.bbox, b.bbox)
    overlapping = iou > th.tau_iou
    if overlapping:
        sym(RelationKind.OVERLAPPING, iou)

    gap = a.bbox.gap_to(b.bbox)
    adjacent = gap < th.tau_adj and not overlapping
    if adjacent:
        sym(RelationKind.ADJACENT_TO, gap)

    touching = adjacent or overlapping
    if touching and abs(dz) <= th.tau_depth_m:
        if above_ab:
            edges.append(RelationEdge(a.id, b.id, RelationKind.ON_TOP_OF, dy))
        elif above_ba:
            edges.append(RelationEdge(b.id, a.id, RelationKind.ON_TOP_OF, -dy))

    return tuple(edges)


def derive_all(nodes: Iterable[NodeLike], thresholds: Thresholds = DEFAULT_THRESHOLDS) -> tuple[RelationEdge, ...]:
    """Union of pairwise derivation over every pair, in deterministic order.

    Pairwise output is direction-complete, so visiting each unordered pair
    once covers every ordered pair. Edges are sorted by (subject, object,
    kind) for stable serialization.
    """
    ordered = sorted(nodes, key=lambda n: n.id)
    edges: list[RelationEdge] = []
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            edges.extend(derive_pairwise(a, b, thresholds))
    return tuple(sorted(edges, key=RelationEdge.key))
