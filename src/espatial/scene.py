"""Dynamic scene graph state machine.

Graphs are immutable snapshots: applying an action or a disturbance returns a
new graph with the step index advanced and never mutates the input, so graphs
are safe to share across threads. Relations are recomputed in full from node
geometry at every transition, keeping each graph closed under pairwise
derivation; confidences of unchanged (subject, object, kind) triples carry
over from the previous edge set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Iterable, Mapping, Union

from .bricks import DEFAULT_STUD_FRAME, PlacedBrick, brick_label
from .errors import DuplicateNodeId, InvalidPose, ParseError, SchemaVersionMismatch, UnknownNodeId
from .geometry import (
    DEFAULT_THRESHOLDS,
    Box,
    RelationEdge,
    RelationKind,
    Thresholds,
    derive_all,
    lift_to_3d,
)
from .jsonfile import parse_list

SIZE_CLASSES = ("tiny", "small", "medium", "large")

GRAPH_SCHEMA = "espatial-graph/1"
PROVENANCES = ("synthetic", "file", "perception")


def size_class_for_box(bbox: Box) -> str:
    """Coarse size from normalized box area."""
    area = bbox.area
    if area < 0.005:
        return "tiny"
    if area < 0.02:
        return "small"
    if area < 0.08:
        return "medium"
    return "large"


def _normalize_attributes(attributes) -> tuple[tuple[str, str], ...]:
    if isinstance(attributes, Mapping):
        items = attributes.items()
    else:
        items = tuple(attributes)
    return tuple(sorted((str(k), str(v)) for k, v in items))


@dataclass(frozen=True)
class ObjectNode:
    """An observed object: label, color, normalized box, metric depth.

    ``center3`` is derived from the box center and depth through the unit
    normalized camera (see :func:`lift_to_3d`). Attributes are stored as
    sorted pairs so nodes stay hashable and structurally comparable.
    """

    id: str
    label: str
    color: str
    bbox: Box
    depth_m: float
    size_class: str = ""
    attributes: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not self.id:
            raise InvalidPose("node id must be non-empty")
        if not (isinstance(self.depth_m, (int, float)) and self.depth_m > 0 and math.isfinite(self.depth_m)):
            raise InvalidPose(f"depth must be positive, got {self.depth_m!r}")
        object.__setattr__(self, "attributes", _normalize_attributes(self.attributes))
        if not self.size_class:
            object.__setattr__(self, "size_class", size_class_for_box(self.bbox))

    @property
    def center3(self) -> tuple[float, float, float]:
        return lift_to_3d(self.bbox, self.depth_m)

    def attr(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.attributes:
            if k == key:
                return v
        return default

    def with_pose(self, bbox: Box, depth_m: float) -> "ObjectNode":
        return replace(self, bbox=bbox, depth_m=depth_m)

    def with_attr(self, key: str, value: str) -> "ObjectNode":
        kept = tuple((k, v) for k, v in self.attributes if k != key)
        return replace(self, attributes=kept + ((key, value),))

    def without_attr(self, key: str) -> "ObjectNode":
        return replace(self, attributes=tuple((k, v) for k, v in self.attributes if k != key))

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "label": self.label,
            "color": self.color,
            "bbox": list(self.bbox.as_tuple()),
            "depth_m": self.depth_m,
            "size_class": self.size_class,
            "attributes": {k: v for k, v in self.attributes},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectNode":
        try:
            bbox = data["bbox"]
            if not isinstance(bbox, list) or len(bbox) != 4:
                raise ParseError(f"bbox must be 4 numbers, got {bbox!r}", field="bbox")
            return cls(
                id=data["id"],
                label=data["label"],
                color=data["color"],
                bbox=Box(*(float(v) for v in bbox)),
                depth_m=float(data["depth_m"]),
                size_class=data.get("size_class", ""),
                attributes=data.get("attributes", {}),
            )
        except KeyError as e:
            raise ParseError(f"node missing {e.args[0]!r}", field=e.args[0]) from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad node value: {e}") from e


@dataclass(frozen=True)
class SceneGraph:
    """Step-indexed set of object nodes plus derived relation edges."""

    t: int
    nodes: tuple[ObjectNode, ...] = ()
    edges: tuple[RelationEdge, ...] = ()
    provenance: str = "synthetic"
    _by_id: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.t < 0:
            raise InvalidPose(f"step index must be non-negative, got {self.t}")
        if self.provenance not in PROVENANCES:
            raise InvalidPose(f"unknown provenance {self.provenance!r}")
        nodes = tuple(sorted(self.nodes, key=lambda n: n.id))
        by_id: dict[str, ObjectNode] = {}
        for node in nodes:
            if node.id in by_id:
                raise DuplicateNodeId(node.id)
            by_id[node.id] = node
        edges = tuple(sorted(self.edges, key=RelationEdge.key))
        seen: set[tuple[str, str, str]] = set()
        for edge in edges:
            if edge.subject_id not in by_id:
                raise UnknownNodeId(edge.subject_id)
            if edge.object_id not in by_id:
                raise UnknownNodeId(edge.object_id)
            if edge.key() in seen:
                raise DuplicateNodeId(f"duplicate edge {edge.key()}")
            seen.add(edge.key())
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        self._by_id.update(by_id)

    @classmethod
    def empty(cls, provenance: str = "synthetic") -> "SceneGraph":
        return cls(t=0, provenance=provenance)

    @classmethod
    def from_nodes(
        cls,
        nodes: Iterable[ObjectNode],
        t: int = 0,
        provenance: str = "synthetic",
        thresholds: Thresholds = DEFAULT_THRESHOLDS,
    ) -> "SceneGraph":
        """Build a relation-consistent graph by deriving edges from nodes."""
        nodes = tuple(nodes)
        return cls(t=t, nodes=nodes, edges=derive_all(nodes, thresholds), provenance=provenance)

    def has_node(self, node_id: str) -> bool:
        return node_id in self._by_id

    def node(self, node_id: str) -> ObjectNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise UnknownNodeId(node_id) from None

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def edge(self, subject_id: str, object_id: str, kind: RelationKind) -> RelationEdge | None:
        for e in self.edges:
            if e.subject_id == subject_id and e.object_id == object_id and e.kind is kind:
                return e
        return None

    def edges_from(self, subject_id: str, object_id: str | None = None) -> tuple[RelationEdge, ...]:
        return tuple(
            e for e in self.edges
            if e.subject_id == subject_id and (object_id is None or e.object_id == object_id)
        )

    def to_dict(self) -> dict:
        return {
            "schema": GRAPH_SCHEMA,
            "t": self.t,
            "provenance": self.provenance,
            "nodes": [n.to_dict() for n in self.nodes],
            "edges": [
                {
                    "subject": e.subject_id,
                    "object": e.object_id,
                    "kind": e.kind.value,
                    "magnitude": e.magnitude,
                    "confidence": e.confidence,
                }
                for e in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SceneGraph":
        schema = data.get("schema")
        if schema != GRAPH_SCHEMA:
            raise SchemaVersionMismatch(schema, GRAPH_SCHEMA)
        try:
            nodes = parse_list(data, "nodes", ObjectNode.from_dict)
            edges = parse_list(data, "edges", _edge_from_dict)
            return cls(t=int(data["t"]), nodes=nodes, edges=edges,
                       provenance=data.get("provenance", "file"))
        except KeyError as e:
            raise ParseError(f"graph missing {e.args[0]!r}", field=e.args[0]) from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad graph value: {e}") from e


def _edge_from_dict(data: dict) -> RelationEdge:
    try:
        return RelationEdge(
            data["subject"], data["object"], RelationKind(data["kind"]),
            float(data["magnitude"]), float(data.get("confidence", 1.0)),
        )
    except KeyError as e:
        raise ParseError(f"edge missing {e.args[0]!r}", field=e.args[0]) from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad edge value: {e}") from e


# --- events ----------------------------------------------------------------

class ActionKind(str, Enum):
    PLACE_BRICK = "place_brick"
    PICK_OBJECT = "pick_object"
    PLACE_OBJECT = "place_object"
    REMOVE_OBJECT = "remove_object"
    NOOP = "noop"


@dataclass(frozen=True)
class Pose:
    bbox: Box
    depth_m: float

    def __post_init__(self):
        if not (isinstance(self.depth_m, (int, float)) and self.depth_m > 0 and math.isfinite(self.depth_m)):
            raise InvalidPose(f"depth must be positive, got {self.depth_m!r}")


@dataclass(frozen=True)
class Action:
    """Agent-caused transition; the payload shape is fixed by the kind."""

    kind: ActionKind
    node_id: str | None = None
    pose: Pose | None = None
    command: Any = None  # PlacementCommand for PLACE_BRICK

    def __post_init__(self):
        k = self.kind
        if k is ActionKind.NOOP and (self.node_id or self.pose or self.command):
            raise ValueError("noop carries no payload")
        if k is ActionKind.PLACE_BRICK and self.command is None:
            raise ValueError("place_brick requires a command")
        if k in (ActionKind.PICK_OBJECT, ActionKind.REMOVE_OBJECT) and not self.node_id:
            raise ValueError(f"{k.value} requires a node id")
        if k is ActionKind.PLACE_OBJECT and not (self.node_id and self.pose):
            raise ValueError("place_object requires a node id and a pose")

    @classmethod
    def noop(cls) -> "Action":
        return cls(ActionKind.NOOP)

    @classmethod
    def place_brick(cls, command) -> "Action":
        return cls(ActionKind.PLACE_BRICK, command=command)

    @classmethod
    def pick(cls, node_id: str) -> "Action":
        return cls(ActionKind.PICK_OBJECT, node_id=node_id)

    @classmethod
    def place_object(cls, node_id: str, pose: Pose) -> "Action":
        return cls(ActionKind.PLACE_OBJECT, node_id=node_id, pose=pose)

    @classmethod
    def remove(cls, node_id: str) -> "Action":
        return cls(ActionKind.REMOVE_OBJECT, node_id=node_id)


class DisturbanceKind(str, Enum):
    ADD_NODE = "add_node"
    REMOVE_NODE = "remove_node"
    MOVE_NODE = "move_node"


@dataclass(frozen=True)
class DisturbanceEvent:
    """External edit not caused by the agent (e.g. a human moving a block)."""

    kind: DisturbanceKind
    node: ObjectNode | None = None
    node_id: str | None = None
    pose: Pose | None = None

    def __post_init__(self):
        k = self.kind
        if k is DisturbanceKind.ADD_NODE and self.node is None:
            raise ValueError("add_node requires a node")
        if k is DisturbanceKind.REMOVE_NODE and not self.node_id:
            raise ValueError("remove_node requires a node id")
        if k is DisturbanceKind.MOVE_NODE and not (self.node_id and self.pose):
            raise ValueError("move_node requires a node id and a pose")

    @classmethod
    def add(cls, node: ObjectNode) -> "DisturbanceEvent":
        return cls(DisturbanceKind.ADD_NODE, node=node)

    @classmethod
    def remove(cls, node_id: str) -> "DisturbanceEvent":
        return cls(DisturbanceKind.REMOVE_NODE, node_id=node_id)

    @classmethod
    def move(cls, node_id: str, pose: Pose) -> "DisturbanceEvent":
        return cls(DisturbanceKind.MOVE_NODE, node_id=node_id, pose=pose)


GraphEvent = Union[Action, DisturbanceEvent]


# --- transitions -------------------------------------------------------------

def brick_node(command) -> ObjectNode:
    """Scene node for a placed brick, posed through the stud frame."""
    brick = PlacedBrick(command.spec, command.position, command.layer)
    bbox, depth = DEFAULT_STUD_FRAME.project(brick)
    x, y = command.position
    return ObjectNode(
        id=f"brick_{x}_{y}_{command.layer}",
        label=brick_label(command.spec),
        color=command.spec.color,
        bbox=bbox,
        depth_m=depth,
        size_class=command.spec.size,
    )


def _added(graph: SceneGraph, node: ObjectNode) -> tuple[ObjectNode, ...]:
    if graph.has_node(node.id):
        raise DuplicateNodeId(node.id)
    return graph.nodes + (node,)


def _removed(graph: SceneGraph, node_id: str) -> tuple[ObjectNode, ...]:
    graph.node(node_id)
    return tuple(n for n in graph.nodes if n.id != node_id)


def _replaced(graph: SceneGraph, node: ObjectNode) -> tuple[ObjectNode, ...]:
    """Node set with ``node`` in place of the node sharing its id."""
    return tuple(node if n.id == node.id else n for n in graph.nodes)


def update_node_states(graph: SceneGraph, action: Action) -> tuple[ObjectNode, ...]:
    """Successor node set for an action; the graph itself is untouched."""
    k = action.kind
    if k is ActionKind.NOOP:
        return graph.nodes
    if k is ActionKind.PLACE_BRICK:
        return _added(graph, brick_node(action.command))
    if k is ActionKind.REMOVE_OBJECT:
        return _removed(graph, action.node_id)
    if k is ActionKind.PICK_OBJECT:
        return _replaced(graph, graph.node(action.node_id).with_attr("held", "true"))
    if k is ActionKind.PLACE_OBJECT:
        node = graph.node(action.node_id)
        return _replaced(graph, node.with_pose(action.pose.bbox, action.pose.depth_m).without_attr("held"))
    raise ValueError(f"unhandled action kind {k!r}")


def merge_edge_confidence(
    fresh: Iterable[RelationEdge], prev: Iterable[RelationEdge]
) -> tuple[RelationEdge, ...]:
    """Carry confidences over from previous edges with the same key."""
    prev_conf = {e.key(): e.confidence for e in prev}
    return tuple(
        e if prev_conf.get(e.key(), e.confidence) == e.confidence
        else e.with_confidence(prev_conf[e.key()])
        for e in fresh
    )


def _successor(graph: SceneGraph, nodes: tuple[ObjectNode, ...], thresholds: Thresholds) -> SceneGraph:
    """Next snapshot over ``nodes``: full pairwise recomputation, with the
    confidences of relations that survived carried over from ``graph``."""
    edges = merge_edge_confidence(derive_all(nodes, thresholds), graph.edges)
    return SceneGraph(t=graph.t + 1, nodes=nodes, edges=edges, provenance=graph.provenance)


def apply_action(graph: SceneGraph, action: Action, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> SceneGraph:
    """Successor graph under an agent action; deterministic, snapshotting."""
    return _successor(graph, update_node_states(graph, action), thresholds)


def apply_disturbance(
    graph: SceneGraph, event: DisturbanceEvent, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> SceneGraph:
    """Successor graph under an external edit; same contract as apply_action."""
    k = event.kind
    if k is DisturbanceKind.ADD_NODE:
        nodes = _added(graph, event.node)
    elif k is DisturbanceKind.REMOVE_NODE:
        nodes = _removed(graph, event.node_id)
    elif k is DisturbanceKind.MOVE_NODE:
        nodes = _replaced(graph, graph.node(event.node_id).with_pose(event.pose.bbox, event.pose.depth_m))
    else:
        raise ValueError(f"unhandled disturbance kind {k!r}")
    return _successor(graph, nodes, thresholds)


def apply_event(graph: SceneGraph, event: GraphEvent, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> SceneGraph:
    if isinstance(event, Action):
        return apply_action(graph, event, thresholds)
    if isinstance(event, DisturbanceEvent):
        return apply_disturbance(graph, event, thresholds)
    raise TypeError(f"not a graph event: {event!r}")


def graphs_equal_modulo_t(a: SceneGraph, b: SceneGraph) -> bool:
    return a.nodes == b.nodes and a.edges == b.edges and a.provenance == b.provenance


def check_closure(graph: SceneGraph, thresholds: Thresholds = DEFAULT_THRESHOLDS) -> bool:
    """True when the edge set equals full derivation (modulo confidence)."""
    return merge_edge_confidence(derive_all(graph.nodes, thresholds), graph.edges) == graph.edges


# --- history -----------------------------------------------------------------

@dataclass(frozen=True)
class HistoryStep:
    event: GraphEvent | None  # None marks the initial snapshot
    graph: SceneGraph


class GraphHistory:
    """Single-writer event log of graph transitions.

    Readers can safely hold the steps tuple; snapshots are immutable.
    """

    def __init__(self, initial: SceneGraph, thresholds: Thresholds = DEFAULT_THRESHOLDS):
        if initial.t != 0:
            raise InvalidPose("history must start at step 0")
        self._thresholds = thresholds
        self._steps: list[HistoryStep] = [HistoryStep(None, initial)]

    @property
    def steps(self) -> tuple[HistoryStep, ...]:
        return tuple(self._steps)

    @property
    def current(self) -> SceneGraph:
        return self._steps[-1].graph

    def __len__(self) -> int:
        return len(self._steps)

    def apply(self, event: GraphEvent) -> SceneGraph:
        graph = apply_event(self.current, event, self._thresholds)
        self._steps.append(HistoryStep(event, graph))
        return graph

    def replay(self) -> SceneGraph:
        """Fold all events from the initial snapshot."""
        graph = self._steps[0].graph
        for step in self._steps[1:]:
            graph = apply_event(graph, step.event, self._thresholds)
        return graph

    def verify(self) -> bool:
        """Check that every recorded graph is the transition of its
        predecessor and that step indices increase by one from zero."""
        graph = self._steps[0].graph
        if graph.t != 0:
            return False
        for step in self._steps[1:]:
            graph = apply_event(graph, step.event, self._thresholds)
            if graph != step.graph or graph.t != step.graph.t:
                return False
        return True
