"""Scene-grounded reasoning loop with per-step validation.

The loop hands the scene graph (plus workspace and optional target
structure) to a client, asks it for step proposals in a constrained claim
grammar, validates every step against the graph, and either answers,
re-prompts with the violated rule, or abstains. The graph is the single
source of truth during validation; the image is never re-read. Clients that
speak text, such as the remote client, serialize the graph into a
line-oriented context themselves (:func:`build_context`); in-process clients
read the graph directly.

Claim grammar (whitespace-separated tokens):

    <id> <relation> <id>        relation is a snake_case relation kind
    <id> present
    <id> reachable
    structure equals target
    supported <x> <y> <layer> <w>x<l>

The deterministic fallback client reads the graph and answers recognized
question templates via the query module, so benchmarks run fully offline and
reproducibly.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from enum import Enum
from typing import Any, Protocol

from .bricks import (
    DEFAULT_STUD_FRAME,
    LegoStructure,
    PlacedBrick,
    BrickSpec,
    canonicalize,
    equals,
    from_graph,
    node_footprint,
    parse_footprint,
    supporters,
)
from .config import TOKEN_ENV
from .errors import (
    BackendUnavailable,
    ClaimGrammarError,
    EngineError,
    ParseError,
    PlanValidationFailure,
    SnapAmbiguity,
)
from .geometry import (
    DEFAULT_THRESHOLDS,
    DUALS,
    SYMMETRIC_KINDS,
    Box,
    RelationEdge,
    RelationKind,
    Thresholds,
    edge_ref,
)
from .perception import normalize_label
from .planner import AssemblyPlan, ordered_commands, target_digest
from .query import (
    DEFAULT_WORKSPACE,
    Answer,
    QueryCategory,
    SpatialQuery,
    TraceClaim,
    WorkspaceEnvelope,
)
from .query import answer as evaluate_query
from .questions import parse_question
from .scene import Action, ObjectNode, SceneGraph, update_node_states

TRACE_SCHEMA = "espatial-trace/1"

# Non-graph references a validated step may cite.
PARAM_REFS = frozenset({"reach_m", "min_reach_m", "base3", "ground", "param:target"})

REJECTION_RULES = ("UnresolvedRef", "ContradictsEdge", "UnsupportedClaim", "ClaimGrammarError")


class StepStatus(str, Enum):
    VALIDATED = "validated"
    REJECTED = "rejected"


@dataclass(frozen=True)
class ReasoningStep:
    claim: str
    grounded_refs: tuple[str, ...]
    status: StepStatus
    rule: str | None = None

    def __post_init__(self):
        if self.status is StepStatus.VALIDATED:
            if not self.grounded_refs:
                raise ClaimGrammarError(f"validated step cites nothing: {self.claim!r}")
            if self.rule is not None:
                raise ClaimGrammarError("validated step cannot carry a rule")
        else:
            if self.rule not in REJECTION_RULES:
                raise ClaimGrammarError(f"rejected step must name a rule, got {self.rule!r}")

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "refs": list(self.grounded_refs),
            "status": self.status.value,
            "rule": self.rule,
        }


@dataclass(frozen=True)
class StepProposal:
    claim: str
    refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class ClientReply:
    steps: tuple[StepProposal, ...]
    value: Any = None
    units: str | None = None


@dataclass(frozen=True)
class ReasoningTrace:
    """Ordered validation record plus the graph snapshot it ran against."""

    steps: tuple[ReasoningStep, ...]
    answer: Answer | None
    retries: int
    graph: SceneGraph

    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "steps": [s.to_dict() for s in self.steps],
            "answer": self.answer.to_dict() if self.answer is not None else None,
            "retries": self.retries,
            "graph": self.graph.to_dict(),
        }


@dataclass(frozen=True)
class ReasonPolicy:
    max_retries: int = 2


class LmClient(Protocol):
    name: str
    deterministic: bool

    def submit(
        self,
        question: str,
        graph: SceneGraph,
        workspace: WorkspaceEnvelope,
        target: LegoStructure | None,
        feedback: str | None = None,
    ) -> ClientReply: ...


# --- context serialization ----------------------------------------------------

def serialize_graph(graph: SceneGraph) -> str:
    """Deterministic line rendering: header, one node line per node, one
    edge line per edge, ordered by id then kind. Floats use repr so the
    rendering parses back losslessly."""
    lines = [
        f"graph t={graph.t} provenance={graph.provenance} "
        f"nodes={len(graph.nodes)} edges={len(graph.edges)}"
    ]
    for n in graph.nodes:
        bbox = ",".join(repr(float(v)) for v in n.bbox.as_tuple())
        attrs = json.dumps({k: v for k, v in n.attributes}, sort_keys=True, separators=(",", ":"))
        lines.append(
            f'node {n.id} label="{n.label}" color={n.color} '
            f"bbox=({bbox}) depth={float(n.depth_m)!r} size={n.size_class} attrs={attrs}"
        )
    for e in graph.edges:
        lines.append(
            f"edge {e.subject_id} {e.kind.value} {e.object_id} "
            f"magnitude={float(e.magnitude)!r} confidence={float(e.confidence)!r}"
        )
    return "\n".join(lines) + "\n"


def build_context(
    graph: SceneGraph,
    workspace: WorkspaceEnvelope = DEFAULT_WORKSPACE,
    target: LegoStructure | None = None,
) -> str:
    """Full prompt context: graph, workspace envelope, optional target."""
    parts = [serialize_graph(graph)]
    base = ",".join(repr(float(v)) for v in workspace.base3)
    parts.append(
        f"workspace base=({base}) reach={float(workspace.reach_m)!r} "
        f"min_reach={float(workspace.min_reach_m)!r}\n"
    )
    if target is not None:
        parts.append(f"target bricks={len(target.bricks)}\n")
        for b in target.bricks:
            parts.append(
                f"target_brick color={b.spec.color} footprint={b.spec.size} "
                f"origin=({b.x},{b.y}) layer={b.layer}\n"
            )
    return "".join(parts)


_GRAPH_RE = re.compile(r"^graph t=(\d+) provenance=(\w+) nodes=\d+ edges=\d+$")
_NODE_RE = re.compile(
    r'^node (\S+) label="([^"]*)" color=(\w+) bbox=\(([^)]*)\) depth=(\S+) size=(\S+) attrs=(\{.*\})$'
)
_EDGE_RE = re.compile(r"^edge (\S+) (\w+) (\S+) magnitude=(\S+) confidence=(\S+)$")
_WORKSPACE_RE = re.compile(r"^workspace base=\(([^)]*)\) reach=(\S+) min_reach=(\S+)$")
_TARGET_RE = re.compile(r"^target bricks=(\d+)$")
_TARGET_BRICK_RE = re.compile(
    r"^target_brick color=(\w+) footprint=(\S+) origin=\((-?\d+),(-?\d+)\) layer=(-?\d+)$"
)


def parse_context(text: str) -> tuple[SceneGraph, WorkspaceEnvelope, LegoStructure | None]:
    """Inverse of :func:`build_context`; exact for contexts it produced."""
    t = 0
    provenance = "synthetic"
    nodes: list[ObjectNode] = []
    edges: list[RelationEdge] = []
    workspace = DEFAULT_WORKSPACE
    target_bricks: list[PlacedBrick] = []
    saw_graph = saw_target = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if m := _GRAPH_RE.match(line):
            t, provenance = int(m.group(1)), m.group(2)
            saw_graph = True
        elif m := _NODE_RE.match(line):
            coords = tuple(float(v) for v in m.group(4).split(","))
            nodes.append(ObjectNode(
                id=m.group(1), label=m.group(2), color=m.group(3),
                bbox=Box(*coords), depth_m=float(m.group(5)), size_class=m.group(6),
                attributes=json.loads(m.group(7)),
            ))
        elif m := _EDGE_RE.match(line):
            edges.append(RelationEdge(
                m.group(1), m.group(3), RelationKind(m.group(2)),
                float(m.group(4)), float(m.group(5)),
            ))
        elif m := _WORKSPACE_RE.match(line):
            base = tuple(float(v) for v in m.group(1).split(","))
            workspace = WorkspaceEnvelope(base, float(m.group(2)), float(m.group(3)))
        elif m := _TARGET_RE.match(line):
            saw_target = True
        elif m := _TARGET_BRICK_RE.match(line):
            target_bricks.append(PlacedBrick(
                BrickSpec(m.group(1), parse_footprint(m.group(2))),
                (int(m.group(3)), int(m.group(4))), int(m.group(5)),
            ))
        else:
            raise ParseError(f"unrecognized context line: {line!r}")
    if not saw_graph:
        raise ParseError("context has no graph header")
    graph = SceneGraph(t=t, nodes=tuple(nodes), edges=tuple(edges), provenance=provenance)
    target = LegoStructure(tuple(target_bricks)) if saw_target else None
    return graph, workspace, target


# --- claim grammar -------------------------------------------------------------

_RELATION_VALUES = {k.value: k for k in RelationKind}


@dataclass(frozen=True)
class ParsedClaim:
    kind: str  # relation | present | reachable | structure | supported
    subject: str | None = None
    object: str | None = None
    relation: RelationKind | None = None
    cell: tuple[int, int, int] | None = None
    footprint: tuple[int, int] | None = None


def parse_claim(text: str) -> ParsedClaim:
    tokens = text.split()
    if len(tokens) == 3 and tokens[1] in _RELATION_VALUES:
        return ParsedClaim("relation", subject=tokens[0], object=tokens[2],
                           relation=_RELATION_VALUES[tokens[1]])
    if len(tokens) == 2 and tokens[1] == "present":
        return ParsedClaim("present", subject=tokens[0])
    if len(tokens) == 2 and tokens[1] == "reachable":
        return ParsedClaim("reachable", subject=tokens[0])
    if tokens == ["structure", "equals", "target"]:
        return ParsedClaim("structure")
    if len(tokens) == 5 and tokens[0] == "supported":
        try:
            x, y, layer = int(tokens[1]), int(tokens[2]), int(tokens[3])
            footprint = parse_footprint(tokens[4])
        except (ValueError, ParseError) as e:
            raise ClaimGrammarError(f"bad supported claim {text!r}: {e}") from e
        return ParsedClaim("supported", cell=(x, y, layer), footprint=footprint)
    raise ClaimGrammarError(f"claim does not match the grammar: {text!r}")


def _ref_resolves(ref: str, graph: SceneGraph) -> bool:
    if ref in PARAM_REFS or graph.has_node(ref):
        return True
    if "->" in ref and ":" in ref:
        head, _, kind = ref.rpartition(":")
        subject, _, obj = head.partition("->")
        try:
            return graph.edge(subject, obj, RelationKind(kind)) is not None
        except ValueError:
            return False
    return False


def _brick_cells(graph: SceneGraph) -> dict[tuple[int, int, int], str]:
    """Stud cell -> node id for every snappable brick node."""
    cells: dict[tuple[int, int, int], str] = {}
    for node in graph.nodes:
        footprint = node_footprint(node.size_class)
        if footprint is None:
            continue
        try:
            x, y, layer = DEFAULT_STUD_FRAME.snap(node.bbox, node.depth_m, footprint)
        except SnapAmbiguity:
            continue
        for i in range(footprint[0]):
            for j in range(footprint[1]):
                cells[(x + i, y + j, layer)] = node.id
    return cells


def _finish(proposal: StepProposal, status: StepStatus, refs: tuple[str, ...] = (),
            rule: str | None = None) -> ReasoningStep:
    extras = tuple(r for r in proposal.refs if r not in refs)
    return ReasoningStep(proposal.claim, refs + extras if status is StepStatus.VALIDATED else
                         tuple(proposal.refs), status, rule)


def _support_step(proposal: StepProposal, cells: dict[tuple[int, int, int], str],
                  x: int, y: int, layer: int, footprint: tuple[int, int]) -> ReasoningStep:
    """Verdict on a ``supported`` claim over a stud cell -> node id map."""
    if layer == 0:
        return _finish(proposal, StepStatus.VALIDATED, ("ground",))
    owners = supporters(cells, x, y, layer, footprint)
    if owners:
        return _finish(proposal, StepStatus.VALIDATED, tuple(sorted(owners)))
    return _finish(proposal, StepStatus.REJECTED, rule="UnsupportedClaim")


def validate_step(
    proposal: StepProposal | ReasoningStep,
    graph: SceneGraph,
    workspace: WorkspaceEnvelope = DEFAULT_WORKSPACE,
    target: LegoStructure | None = None,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> ReasoningStep:
    """Check one claim against the graph's consistency rules.

    Validated steps come back with their grounding refs filled in; rejected
    steps name the first violated rule. Malformed claims raise
    ClaimGrammarError.
    """
    if isinstance(proposal, ReasoningStep):
        proposal = StepProposal(proposal.claim, proposal.grounded_refs)
    parsed = parse_claim(proposal.claim)

    def rejected(rule: str) -> ReasoningStep:
        return _finish(proposal, StepStatus.REJECTED, rule=rule)

    def validated(*refs: str) -> ReasoningStep:
        return _finish(proposal, StepStatus.VALIDATED, refs=tuple(refs))

    for ref in proposal.refs:
        if not _ref_resolves(ref, graph):
            return rejected("UnresolvedRef")

    if parsed.kind == "present":
        if graph.has_node(parsed.subject):
            return validated(parsed.subject)
        return rejected("UnresolvedRef")

    if parsed.kind == "relation":
        s, o, kind = parsed.subject, parsed.object, parsed.relation
        if not graph.has_node(s) or not graph.has_node(o):
            return rejected("UnresolvedRef")
        if kind in SYMMETRIC_KINDS:
            # cite every directed row of the symmetric relation, so removing
            # the cited evidence removes the relation entirely
            rows = [e for e in (graph.edge(s, o, kind), graph.edge(o, s, kind)) if e]
            if rows:
                return validated(*(edge_ref(e) for e in rows), s, o)
            return rejected("UnsupportedClaim")
        edge = graph.edge(s, o, kind)
        if edge is not None:
            return validated(edge_ref(edge), s, o)
        reversed_edge = graph.edge(o, s, kind)
        dual_edge = graph.edge(s, o, DUALS[kind]) if kind in DUALS else None
        if reversed_edge is not None or dual_edge is not None:
            return rejected("ContradictsEdge")
        return rejected("UnsupportedClaim")

    if parsed.kind == "reachable":
        if not graph.has_node(parsed.subject):
            return rejected("UnresolvedRef")
        result = evaluate_query(
            SpatialQuery(QueryCategory.REACHABILITY, subject_id=parsed.subject),
            graph, workspace, thresholds,
        )
        if result.value:
            return validated(parsed.subject, "min_reach_m", "reach_m")
        return rejected("UnsupportedClaim")

    if parsed.kind == "structure":
        if target is None:
            return rejected("UnresolvedRef")
        try:
            built = from_graph(graph)
        except EngineError:
            return rejected("UnsupportedClaim")
        if equals(built, target):
            return validated("param:target", *(n.id for n in graph.nodes))
        return rejected("UnsupportedClaim")

    if parsed.kind == "supported":
        x, y, layer = parsed.cell
        cells = _brick_cells(graph) if layer else {}
        return _support_step(proposal, cells, x, y, layer, parsed.footprint)

    raise ClaimGrammarError(f"unhandled claim kind {parsed.kind!r}")


# --- clients --------------------------------------------------------------------

class FallbackReasoner:
    """Deterministic offline client: answers recognized question templates
    over the graph it is handed through the query module, emitting only
    claims that hold so a single pass suffices."""

    name = "fallback"
    deterministic = True

    def submit(
        self,
        question: str,
        graph: SceneGraph,
        workspace: WorkspaceEnvelope,
        target: LegoStructure | None,
        feedback: str | None = None,
    ) -> ClientReply:
        del feedback  # deterministic: a retry would reproduce the same reply
        parsed = parse_question(question)
        if parsed is None:
            return ClientReply((StepProposal("unparsed_question present"),))
        category, label_a, label_b = parsed

        steps: list[StepProposal] = []
        ids: list[str] = []
        for label in (label_a, label_b):
            if label is None:
                continue
            wanted = normalize_label(label)
            matches = [n.id for n in graph.nodes if normalize_label(n.label) == wanted]
            if len(matches) != 1:
                token = wanted.replace(" ", "_") or "unnamed_entity"
                return ClientReply((StepProposal(f"{token} present"),))
            steps.append(StepProposal(f"{matches[0]} present", (matches[0],)))
            ids.append(matches[0])

        if category is QueryCategory.SUCCESS_JUDGMENT:
            if target is None:
                return ClientReply((StepProposal("structure equals target"),))
            try:
                query = SpatialQuery(category, params={"target": target})
                result = evaluate_query(query, graph, workspace)
            except EngineError:
                return ClientReply((StepProposal("structure equals target"),))
            if result.value:
                steps.append(StepProposal("structure equals target"))
            elif graph.nodes:
                steps.append(StepProposal(f"{graph.nodes[0].id} present", (graph.nodes[0].id,)))
            return ClientReply(tuple(steps), result.value, result.units)

        subject = ids[0] if ids else None
        obj = ids[1] if len(ids) > 1 else None
        query = SpatialQuery(category, subject_id=subject, object_id=obj)
        result = evaluate_query(query, graph, workspace)

        if category is QueryCategory.ADJACENCY and result.value:
            kind = RelationKind.ADJACENT_TO
            if graph.edge(subject, obj, kind) is None:
                kind = RelationKind.OVERLAPPING
            steps.append(StepProposal(f"{subject} {kind.value} {obj}"))
        elif category is QueryCategory.OVERLAP and result.value:
            steps.append(StepProposal(f"{subject} overlapping {obj}"))
        elif category is QueryCategory.DIRECTION:
            for kind in result.value:
                steps.append(StepProposal(f"{subject} {kind} {obj}"))
        elif category is QueryCategory.REACHABILITY and result.value:
            steps.append(StepProposal(f"{subject} reachable"))
        elif category is QueryCategory.ARM_FEASIBILITY:
            reach = evaluate_query(
                SpatialQuery(QueryCategory.REACHABILITY, subject_id=subject),
                graph, workspace,
            )
            if reach.value:
                steps.append(StepProposal(f"{subject} reachable"))
        return ClientReply(tuple(steps), result.value, result.units)


class RemoteClient:
    """Posts the question and the scene, rendered by :func:`build_context`,
    to an external endpoint as plain JSON.

    Expected reply body: {"steps": [{"claim": str, "refs": [str, ...]}],
    "value": ..., "units": str | null}. Each call makes one blocking request;
    failures raise BackendUnavailable.
    """

    name = "remote"
    deterministic = False

    def __init__(self, endpoint: str, token: str | None = None, timeout_s: float = 10.0):
        self.endpoint = endpoint
        self.token = token if token is not None else os.environ.get(TOKEN_ENV)
        self.timeout_s = timeout_s

    def submit(
        self,
        question: str,
        graph: SceneGraph,
        workspace: WorkspaceEnvelope,
        target: LegoStructure | None,
        feedback: str | None = None,
    ) -> ClientReply:
        # imported here: only remote calls need the HTTP stack (ssl, http.client,
        # email), which adds several MB of resident memory to every process
        import urllib.error
        import urllib.request

        body = json.dumps({
            "context": build_context(graph, workspace, target),
            "question": question,
            "feedback": feedback,
        }).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        request = urllib.request.Request(self.endpoint, data=body, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout_s) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as e:
            raise BackendUnavailable(f"reasoning via {self.endpoint}: {e}") from e
        steps = tuple(
            StepProposal(s["claim"], tuple(s.get("refs", ()))) for s in payload.get("steps", ())
        )
        return ClientReply(steps, payload.get("value"), payload.get("units"))


# --- the loop ---------------------------------------------------------------------

def reason(
    question: str,
    graph: SceneGraph,
    workspace: WorkspaceEnvelope = DEFAULT_WORKSPACE,
    client: LmClient | None = None,
    policy: ReasonPolicy = ReasonPolicy(),
    target: LegoStructure | None = None,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> tuple[Answer, ReasoningTrace]:
    """Propose, validate, re-prompt, and answer (or abstain).

    Rejections re-prompt with the violated rule appended, up to the retry
    budget; deterministic clients get a single pass since a retry would
    reproduce the same proposals. Abstention is an explicit answer value.
    """
    client = client or FallbackReasoner()
    attempts = 1 if getattr(client, "deterministic", False) else policy.max_retries + 1

    log: list[ReasoningStep] = []
    retries = 0
    feedback: str | None = None
    last_rule = "UnsupportedClaim"
    for attempt in range(attempts):
        reply = client.submit(question, graph, workspace, target, feedback)
        failed: ReasoningStep | None = None
        for prop in reply.steps:
            try:
                step = validate_step(prop, graph, workspace, target, thresholds)
            except ClaimGrammarError:
                step = ReasoningStep(prop.claim, tuple(prop.refs), StepStatus.REJECTED,
                                     rule="ClaimGrammarError")
            log.append(step)
            if step.status is StepStatus.REJECTED:
                failed = step
                break
        if failed is None:
            claims = tuple(
                TraceClaim(s.claim, s.grounded_refs)
                for s in log if s.status is StepStatus.VALIDATED
            )
            result = Answer(value=reply.value, units=reply.units, trace=claims)
            return result, ReasoningTrace(tuple(log), result, retries, graph)
        last_rule = failed.rule
        feedback = f"step rejected ({failed.rule}): {failed.claim}"
        if attempt < attempts - 1:
            retries += 1
    result = Answer(value=None, abstained=True, error=f"abstained: {last_rule}")
    return result, ReasoningTrace(tuple(log), result, retries, graph)


def reason_over_plan(target: LegoStructure) -> tuple[AssemblyPlan, tuple[ReasoningTrace, ...]]:
    """Plan the target and simulate it command by command from an empty graph.

    The simulation keeps one map from stud cell to node id, grown per
    command. Before each placement a support claim is validated against
    that map, and a command whose cells are already in it fails as
    ``cell_collision``. Each trace carries the simulated graph the claim ran
    against, with nodes only and no relations derived, because no planning
    step reads one. After the last command the simulated graph is audited
    once: it must snap to a valid structure equal to the target. Ordering
    and validation are deterministic, so no reasoning client is consulted.
    """
    sim = SceneGraph.empty("synthetic")
    cells: dict[tuple[int, int, int], str] = {}
    commands = ordered_commands(target)
    traces: list[ReasoningTrace] = []
    for i, command in enumerate(commands):
        (x, y), layer = command.position, command.layer
        claim = f"supported {x} {y} {layer} {command.spec.size}"
        step = _support_step(StepProposal(claim), cells, x, y, layer, command.spec.footprint)
        if step.status is StepStatus.REJECTED:
            raise PlanValidationFailure(i, step.rule, claim)
        new_cells = command.to_brick().cells3()
        if any(cell in cells for cell in new_cells):
            raise PlanValidationFailure(i, "cell_collision", claim)
        nodes = update_node_states(sim, Action.place_brick(command))
        cells.update(dict.fromkeys(new_cells, nodes[-1].id))
        traces.append(ReasoningTrace((step,), None, 0, sim))
        sim = SceneGraph(t=sim.t + 1, nodes=nodes, provenance=sim.provenance)
    built = from_graph(sim)
    if not equals(built, target):
        raise PlanValidationFailure(len(commands), "UnsupportedClaim", "result mismatch")
    return AssemblyPlan(commands, target_digest(canonicalize(target))), tuple(traces)
