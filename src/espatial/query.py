"""Answer spatial queries against a scene graph and a workspace envelope.

Answers are pure functions of the graph (plus the envelope for embodied
categories) and every answer carries an evidence trace citing the graph
elements or workspace parameters it rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping

from .bricks import LegoStructure, equals, first_mismatch, from_graph
from .errors import CategoryParamMismatch, ParseError, UnknownNodeId, UnresolvedReference
from .geometry import (
    DEFAULT_THRESHOLDS,
    DIRECTIONAL_KINDS,
    RelationKind,
    Thresholds,
    distance,
    edge_ref,
)
from .scene import SceneGraph

QUERY_SCHEMA = "espatial-query/1"


class QueryCategory(str, Enum):
    ADJACENCY = "adjacency"
    DISTANCE = "distance"
    REACHABILITY = "reachability"
    SUCCESS_JUDGMENT = "success_judgment"
    OVERLAP = "overlap"
    ARM_FEASIBILITY = "arm_feasibility"
    DIRECTION = "direction"


# Categories that take a subject and an object node.
BINARY_CATEGORIES = frozenset({
    QueryCategory.ADJACENCY, QueryCategory.DISTANCE,
    QueryCategory.OVERLAP, QueryCategory.DIRECTION,
})
UNARY_CATEGORIES = frozenset({QueryCategory.REACHABILITY, QueryCategory.ARM_FEASIBILITY})


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass(frozen=True)
class WorkspaceEnvelope:
    """Annulus reach model around the robot base, in camera-frame meters."""

    base3: tuple[float, float, float] = (0.0, 0.0, 0.0)
    reach_m: float = 1.5
    min_reach_m: float = 0.1

    def __post_init__(self):
        if len(self.base3) != 3 or not all(_finite(v) for v in self.base3):
            raise ParseError(f"base3 must be 3 finite numbers, got {self.base3!r}", field="base3")
        for name in ("reach_m", "min_reach_m"):
            if not _finite(getattr(self, name)):
                raise ParseError(f"{name} must be a finite number", field=name)
        if not (0.0 <= self.min_reach_m < self.reach_m):
            raise CategoryParamMismatch(
                f"need 0 <= min_reach ({self.min_reach_m}) < reach ({self.reach_m})"
            )

    def to_dict(self) -> dict:
        return {"base3": list(self.base3), "reach_m": self.reach_m, "min_reach_m": self.min_reach_m}

    @classmethod
    def from_dict(cls, data: dict) -> "WorkspaceEnvelope":
        if not isinstance(data, dict):
            raise ParseError("workspace must be a JSON object", field="workspace")
        try:
            return cls(
                base3=tuple(float(v) for v in data.get("base3", (0.0, 0.0, 0.0))),
                reach_m=float(data.get("reach_m", 1.5)),
                min_reach_m=float(data.get("min_reach_m", 0.1)),
            )
        except (TypeError, ValueError) as e:
            raise ParseError(f"workspace value is not a number: {e}", field="workspace") from e


DEFAULT_WORKSPACE = WorkspaceEnvelope()


@dataclass(frozen=True)
class TraceClaim:
    """One cited piece of evidence: a statement plus the refs backing it."""

    claim: str
    refs: tuple[str, ...]

    def __post_init__(self):
        if not self.refs:
            raise CategoryParamMismatch(f"trace claim cites nothing: {self.claim!r}")


@dataclass(frozen=True)
class Answer:
    value: Any
    units: str | None = None
    trace: tuple[TraceClaim, ...] = ()
    abstained: bool = False
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "units": self.units,
            "abstained": self.abstained,
            "error": self.error,
            "trace": [{"claim": c.claim, "refs": list(c.refs)} for c in self.trace],
        }


@dataclass(frozen=True)
class SpatialQuery:
    """A structured query; ``params["target"]``, when present, is a
    :class:`LegoStructure` (``from_dict`` parses it from its file form)."""

    category: QueryCategory
    subject_id: str | None = None
    object_id: str | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        params = dict(self.params)
        target = params.get("target")
        if isinstance(target, LegoStructure):
            params["target"] = target.to_dict()
        return {
            "schema": QUERY_SCHEMA,
            "category": self.category.value,
            "subject": self.subject_id,
            "object": self.object_id,
            "params": params,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpatialQuery":
        from .errors import SchemaVersionMismatch

        schema = data.get("schema")
        if schema != QUERY_SCHEMA:
            raise SchemaVersionMismatch(schema, QUERY_SCHEMA)
        try:
            category = QueryCategory(data["category"])
        except (KeyError, ValueError) as e:
            raise ParseError(f"bad query category: {e}", field="category") from e
        for key in ("subject", "object"):
            if not isinstance(data.get(key), (str, type(None))):
                raise ParseError(f"expected a node id or null, got {data[key]!r}", field=key)
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ParseError(f"expected a JSON object, got {params!r}", field="params")
        if params.get("target") is not None:
            try:
                params = {**params, "target": LegoStructure.from_dict(params["target"])}
            except ParseError as e:
                raise e.within("params.target") from e
        return cls(category, data.get("subject"), data.get("object"), params)


def _require_node(graph: SceneGraph, node_id: str | None, role: str):
    if not node_id:
        raise CategoryParamMismatch(f"query requires a {role} node reference")
    try:
        return graph.node(node_id)
    except UnknownNodeId:
        raise UnresolvedReference(f"{role} node {node_id!r} not in graph") from None


def _base_distance(node, workspace: WorkspaceEnvelope) -> float:
    return distance(node.center3, workspace.base3)


def _reachable(node, workspace: WorkspaceEnvelope) -> tuple[bool, float]:
    d = _base_distance(node, workspace)
    return (workspace.min_reach_m <= d <= workspace.reach_m, d)


def answer(
    query: SpatialQuery,
    graph: SceneGraph,
    workspace: WorkspaceEnvelope = DEFAULT_WORKSPACE,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> Answer:
    """Evaluate one query; see the category rules in the module docstring."""
    category = query.category

    if category in BINARY_CATEGORIES:
        subject = _require_node(graph, query.subject_id, "subject")
        target = _require_node(graph, query.object_id, "object")

        if category is QueryCategory.DISTANCE:
            d = distance(subject, target)
            return Answer(
                value=d, units="m",
                trace=(TraceClaim(
                    f"distance between {subject.id} and {target.id} from lifted centers is {d:.6f} m",
                    (subject.id, target.id),
                ),),
            )

        if category is QueryCategory.ADJACENCY:
            evidence = tuple(
                e for e in graph.edges_from(subject.id, target.id)
                if e.kind in (RelationKind.ADJACENT_TO, RelationKind.OVERLAPPING)
            )
            if evidence:
                return Answer(
                    value=True,
                    trace=tuple(
                        TraceClaim(f"edge {edge_ref(e)} magnitude {e.magnitude:.6f}", (edge_ref(e),))
                        for e in evidence
                    ),
                )
            return Answer(
                value=False,
                trace=(TraceClaim(
                    f"no adjacency or overlap edge between {subject.id} and {target.id}",
                    (subject.id, target.id),
                ),),
            )

        if category is QueryCategory.OVERLAP:
            edge = graph.edge(subject.id, target.id, RelationKind.OVERLAPPING)
            if edge is not None:
                return Answer(
                    value=True,
                    trace=(TraceClaim(f"edge {edge_ref(edge)} IoU {edge.magnitude:.6f}", (edge_ref(edge),)),),
                )
            return Answer(
                value=False,
                trace=(TraceClaim(
                    f"no overlap edge between {subject.id} and {target.id}",
                    (subject.id, target.id),
                ),),
            )

        if category is QueryCategory.DIRECTION:
            found = tuple(
                e for e in graph.edges_from(subject.id, target.id) if e.kind in DIRECTIONAL_KINDS
            )
            kinds = sorted(e.kind.value for e in found)
            if found:
                trace = tuple(
                    TraceClaim(f"edge {edge_ref(e)}", (edge_ref(e),)) for e in found
                )
            else:
                trace = (TraceClaim(
                    f"no directional edge from {subject.id} to {target.id}",
                    (subject.id, target.id),
                ),)
            return Answer(value=kinds, trace=trace)

    if category in UNARY_CATEGORIES:
        subject = _require_node(graph, query.subject_id, "subject")
        reachable, d = _reachable(subject, workspace)
        reach_claim = TraceClaim(
            f"{subject.id} center is {d:.6f} m from base; envelope "
            f"[{workspace.min_reach_m}, {workspace.reach_m}] m",
            (subject.id, "min_reach_m", "reach_m"),
        )
        if category is QueryCategory.REACHABILITY:
            return Answer(value=reachable, trace=(reach_claim,))

        # Arm feasibility: reachable and nothing overlapping sits nearer the base.
        blockers = []
        for e in graph.edges_from(subject.id):
            if e.kind is not RelationKind.OVERLAPPING:
                continue
            other = graph.node(e.object_id)
            if _base_distance(other, workspace) < d:
                blockers.append((e, other))
        if blockers:
            trace = (reach_claim,) + tuple(
                TraceClaim(
                    f"{other.id} overlaps {subject.id} and sits nearer the base",
                    (edge_ref(e), other.id),
                )
                for e, other in blockers
            )
            return Answer(value=False, trace=trace)
        no_block = TraceClaim(
            f"no overlapping node nearer the base than {subject.id}",
            (subject.id, "reach_m"),
        )
        return Answer(value=reachable, trace=(reach_claim, no_block))

    if category is QueryCategory.SUCCESS_JUDGMENT:
        target = query.params.get("target")
        if target is None:
            raise CategoryParamMismatch("success judgment requires params['target']")
        built = from_graph(graph)
        if equals(built, target):
            refs = tuple(n.id for n in graph.nodes) + ("param:target",)
            return Answer(
                value=True,
                trace=(TraceClaim("built structure equals target in canonical form", refs),),
            )
        mismatch = first_mismatch(built, target)
        detail = (
            f"{mismatch.spec.size} {mismatch.spec.color} at {mismatch.origin} layer {mismatch.layer}"
            if mismatch else "brick sets differ"
        )
        return Answer(
            value=False,
            trace=(TraceClaim(
                f"built structure differs from target; first mismatching brick: {detail}",
                tuple(n.id for n in graph.nodes) + ("param:target",),
            ),),
        )

    raise CategoryParamMismatch(f"unhandled category {category!r}")

