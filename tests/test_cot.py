"""Reasoning loop: context serialization, step validation, fallback parity."""

from __future__ import annotations

import json
from random import Random

import pytest

from espatial.bricks import (
    BrickSpec,
    LegoStructure,
    PlacedBrick,
    StudFrame,
    canonicalize,
    equals,
    from_graph,
    random_structure,
    recolor_brick,
)
from espatial.cot import (
    ClientReply,
    FallbackReasoner,
    ReasoningTrace,
    StepProposal,
    StepStatus,
    build_context,
    parse_claim,
    parse_context,
    reason,
    reason_over_plan,
    serialize_graph,
    validate_step,
)
from espatial.errors import (
    ClaimGrammarError,
    DuplicateNodeId,
    EngineError,
    InvalidStructure,
    PlanValidationFailure,
)
from espatial.perception import build_graph, frame_from_structure, synth_scene, synth_structure
from espatial.planner import AssemblyPlan, ordered_commands, replay, target_digest
from espatial.query import DEFAULT_WORKSPACE, QueryCategory, SpatialQuery, WorkspaceEnvelope, answer
from espatial.questions import render_question
from espatial.scene import Action, SceneGraph, apply_action

from .conftest import faulty_bricks, make_node, random_nodes


class TestSerializeGraph:
    def test_empty_graph_is_header_only(self):
        text = serialize_graph(SceneGraph.empty())
        lines = text.strip().splitlines()
        assert lines == ["graph t=0 provenance=synthetic nodes=0 edges=0"]

    def test_single_node_line_count(self):
        g = SceneGraph.from_nodes((make_node("a", 0.3, 0.3),))
        lines = serialize_graph(g).strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("node a ")

    def test_deterministic(self, rng):
        g = SceneGraph.from_nodes(random_nodes(rng, 6))
        assert serialize_graph(g) == serialize_graph(g)

    def test_context_round_trip_exact(self):
        for seed in (1, 2, 3):
            _, g = synth_scene(seed, 6)
            ctx = build_context(g)
            parsed, workspace, target = parse_context(ctx)
            assert parsed == g
            assert target is None

    def test_context_carries_target(self, rng):
        _, g = synth_scene(4, 3, brick_mode=True)
        target = random_structure(rng, 4)
        _, _, parsed_target = parse_context(build_context(g, target=target))
        assert parsed_target == target


class TestClaimGrammar:
    def test_productions(self):
        assert parse_claim("a left_of b").kind == "relation"
        assert parse_claim("a present").kind == "present"
        assert parse_claim("a reachable").kind == "reachable"
        assert parse_claim("structure equals target").kind == "structure"
        supported = parse_claim("supported 2 0 1 1x1")
        assert supported.cell == (2, 0, 1) and supported.footprint == (1, 1)

    def test_rejects_free_text(self):
        for bad in ("the red block is left of the blue one", "a leftof b", "",
                    "supported 1 2", "a b c d"):
            with pytest.raises(ClaimGrammarError):
                parse_claim(bad)


def two_node_graph(ax=0.2, bx=0.8):
    return SceneGraph.from_nodes((
        make_node("a", ax, 0.5, depth=1.0),
        make_node("b", bx, 0.5, depth=1.0),
    ))


class TestValidateStep:
    def test_existing_edge_validates(self):
        g = two_node_graph()
        step = validate_step(StepProposal("a left_of b"), g)
        assert step.status is StepStatus.VALIDATED
        assert "a->b:left_of" in step.grounded_refs

    def test_contradiction_detected(self):
        # b is left of a, so claiming a left_of b contradicts the edge set
        g = two_node_graph(ax=0.8, bx=0.2)
        step = validate_step(StepProposal("a left_of b"), g)
        assert step.status is StepStatus.REJECTED
        assert step.rule == "ContradictsEdge"

    def test_unknown_id_unresolved(self):
        g = two_node_graph()
        step = validate_step(StepProposal("ghost left_of b"), g)
        assert (step.status, step.rule) == (StepStatus.REJECTED, "UnresolvedRef")

    def test_unsupported_claim(self):
        g = SceneGraph.from_nodes((
            make_node("a", 0.5, 0.4, depth=1.0),
            make_node("b", 0.5, 0.6, depth=1.0),
        ))
        step = validate_step(StepProposal("a left_of b"), g)
        assert (step.status, step.rule) == (StepStatus.REJECTED, "UnsupportedClaim")

    def test_bad_provided_ref_rejected(self):
        g = two_node_graph()
        step = validate_step(StepProposal("a left_of b", refs=("nonsense->x:near",)), g)
        assert (step.status, step.rule) == (StepStatus.REJECTED, "UnresolvedRef")

    def test_structure_claim(self, rng):
        target = random_structure(rng, 3)
        frame = frame_from_structure(target)
        g = build_graph(frame.detections, frame.depths)
        ok = validate_step(StepProposal("structure equals target"), g, target=target)
        assert ok.status is StepStatus.VALIDATED
        missing = validate_step(StepProposal("structure equals target"), g, target=None)
        assert (missing.status, missing.rule) == (StepStatus.REJECTED, "UnresolvedRef")

    def test_supported_claim_ground_and_stacked(self, rng):
        tower = LegoStructure.of(
            PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0),
            PlacedBrick(BrickSpec("green", (1, 1)), (0, 0), 1),
        )
        frame = frame_from_structure(tower)
        g = build_graph(frame.detections, frame.depths)
        ground = validate_step(StepProposal("supported 4 4 0 2x2"), g)
        assert ground.status is StepStatus.VALIDATED and ground.grounded_refs == ("ground",)
        stacked = validate_step(StepProposal("supported 0 0 2 1x1"), g)
        assert stacked.status is StepStatus.VALIDATED
        floating = validate_step(StepProposal("supported 5 5 3 1x1"), g)
        assert (floating.status, floating.rule) == (StepStatus.REJECTED, "UnsupportedClaim")

    def test_mutation_flips_validated_step(self):
        g = two_node_graph()
        step = validate_step(StepProposal("a left_of b"), g)
        assert step.status is StepStatus.VALIDATED
        edge_refs = [r for r in step.grounded_refs if "->" in r]
        kept = tuple(
            e for e in g.edges
            if f"{e.subject_id}->{e.object_id}:{e.kind.value}" not in edge_refs
        )
        mutated = SceneGraph(t=g.t, nodes=g.nodes, edges=kept, provenance=g.provenance)
        again = validate_step(StepProposal("a left_of b"), mutated)
        assert again.status is StepStatus.REJECTED


class TestReason:
    def test_fallback_matches_query_answers(self):
        for seed in range(8):
            _, g = synth_scene(seed, 6)
            ids = g.node_ids()
            cases = [
                (QueryCategory.DISTANCE, ids[0], ids[1]),
                (QueryCategory.ADJACENCY, ids[1], ids[2]),
                (QueryCategory.OVERLAP, ids[2], ids[3]),
                (QueryCategory.DIRECTION, ids[0], ids[3]),
                (QueryCategory.REACHABILITY, ids[4], None),
                (QueryCategory.ARM_FEASIBILITY, ids[5], None),
            ]
            for category, a, b in cases:
                question = render_question(
                    category, g.node(a).label, g.node(b).label if b else None
                )
                got, trace = reason(question, g)
                expected = answer(SpatialQuery(category, a, b), g)
                assert got.value == expected.value, (seed, category)
                assert not got.abstained
                assert trace.retries == 0

    def test_unknown_object_abstains(self):
        _, g = synth_scene(1, 4)
        got, trace = reason("Can the robot reach the purple dinosaur?", g)
        assert got.abstained
        rejected = [s for s in trace.steps if s.status is StepStatus.REJECTED]
        assert rejected and rejected[-1].rule == "UnresolvedRef"

    def test_unrecognized_question_abstains(self):
        _, g = synth_scene(1, 4)
        got, _ = reason("What is the meaning of all this?", g)
        assert got.abstained

    def test_structure_completeness_question(self, rng):
        target = random_structure(rng, 4)
        frame = frame_from_structure(target)
        g = build_graph(frame.detections, frame.depths)
        question = render_question(QueryCategory.SUCCESS_JUDGMENT)
        got, _ = reason(question, g, target=target)
        assert got.value is True

    def test_trace_grounding(self):
        _, g = synth_scene(6, 5)
        question = render_question(QueryCategory.DIRECTION, g.nodes[0].label, g.nodes[1].label)
        _, trace = reason(question, g)
        for step in trace.steps:
            if step.status is StepStatus.VALIDATED:
                for ref in step.grounded_refs:
                    assert _ref_exists(ref, trace.graph)

    def test_no_rejection_after_last_validated(self):
        for seed in range(5):
            _, g = synth_scene(seed, 5)
            question = render_question(QueryCategory.REACHABILITY, g.nodes[0].label)
            got, trace = reason(question, g)
            if got.abstained:
                continue
            statuses = [s.status for s in trace.steps]
            if StepStatus.VALIDATED in statuses:
                last = max(i for i, s in enumerate(statuses) if s is StepStatus.VALIDATED)
                assert StepStatus.REJECTED not in statuses[last:]

    def test_retry_loop_with_flaky_client(self):
        g = two_node_graph()

        class FlakyClient:
            name = "flaky"
            deterministic = False

            def __init__(self):
                self.calls = 0

            def submit(self, question, graph, workspace, target, feedback=None):
                self.calls += 1
                if self.calls == 1:
                    return ClientReply((StepProposal("a right_of b"),), value=False)
                assert feedback and "ContradictsEdge" in feedback
                return ClientReply((StepProposal("a left_of b"),), value=True)

        client = FlakyClient()
        got, trace = reason("Where is the a relative to the b?", g, client=client)
        assert got.value is True
        assert client.calls == 2
        assert trace.retries == 1


class TestFallbackTextBoundary:
    """The fallback reads the graph directly; a text client gets the same
    scene only if the context parses back to it, so both must reply alike."""

    WORKSPACES = (DEFAULT_WORKSPACE, WorkspaceEnvelope((0.1, -0.05, 0.3), 1.1, 0.2))

    def test_reply_from_parsed_context_equals_reply_from_graph(self, rng):
        client = FallbackReasoner()
        answered: dict[QueryCategory, set] = {c: set() for c in QueryCategory}
        for seed in range(6):
            for brick_mode in (False, True):
                _, g = synth_scene(seed, 5, brick_mode=brick_mode)
                targets = [None]
                if brick_mode:
                    truth = synth_structure(seed, 5)
                    targets = [truth, recolor_brick(truth, rng)]
                labels = [n.label for n in g.nodes]
                for category in QueryCategory:
                    question = render_question(category, labels[seed % 5], labels[(seed + 2) % 5])
                    for workspace in self.WORKSPACES:
                        for target in targets:
                            direct = client.submit(question, g, workspace, target)
                            via_text = client.submit(
                                question, *parse_context(build_context(g, workspace, target))
                            )
                            assert via_text == direct, (seed, brick_mode, category)
                            answered[category].add(repr(direct.value))
        # every category produced a real answer somewhere, not only abstentions
        assert all(values - {"None"} for values in answered.values()), answered
        assert {"True", "False"} <= answered[QueryCategory.SUCCESS_JUDGMENT]


def _ref_exists(ref, graph):
    from espatial.cot import PARAM_REFS, _ref_resolves

    return ref in PARAM_REFS or _ref_resolves(ref, graph)


class TestValidationMonotonicity:
    def test_adding_cited_edge_moves_toward_validated(self):
        # nodes too close for a directional edge: claim starts unsupported
        g = SceneGraph.from_nodes((
            make_node("a", 0.49, 0.5, depth=1.0),
            make_node("b", 0.51, 0.5, depth=1.0),
        ))
        before = validate_step(StepProposal("a left_of b"), g)
        assert (before.status, before.rule) == (StepStatus.REJECTED, "UnsupportedClaim")
        from espatial.geometry import RelationEdge, RelationKind

        extended = SceneGraph(
            t=g.t, nodes=g.nodes,
            edges=g.edges + (RelationEdge("a", "b", RelationKind.LEFT_OF, 0.02),),
            provenance=g.provenance,
        )
        after = validate_step(StepProposal("a left_of b"), extended)
        assert after.status is StepStatus.VALIDATED

    def test_unrelated_edges_never_invalidate(self, rng):
        g = two_node_graph()
        step = validate_step(StepProposal("a left_of b"), g)
        assert step.status is StepStatus.VALIDATED
        third = make_node("c", 0.5, 0.9, depth=2.5)
        bigger = SceneGraph.from_nodes(g.nodes + (third,))
        again = validate_step(StepProposal("a left_of b"), bigger)
        assert again.status is StepStatus.VALIDATED


class TestRemoteClient:
    """Round-trip against a local HTTP stub; no external network."""

    @staticmethod
    def serve(handler_value):
        import http.server
        import threading

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                request = json.loads(self.rfile.read(length))
                Handler.last_request = request
                reply = json.dumps(handler_value(request)).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        return server, Handler

    def test_submit_round_trip(self):
        from espatial.cot import RemoteClient

        server, handler = self.serve(lambda req: {
            "steps": [{"claim": "a present", "refs": ["a"]}], "value": True,
        })
        try:
            client = RemoteClient(f"http://127.0.0.1:{server.server_port}/")
            g = two_node_graph()
            workspace = WorkspaceEnvelope((0.1, 0.0, 0.2), 1.2, 0.05)
            target = LegoStructure.of(PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0))
            reply = client.submit("a question?", g, workspace, target)
            assert reply.value is True
            assert reply.steps == (StepProposal("a present", ("a",)),)
            assert handler.last_request["question"] == "a question?"
            assert handler.last_request["context"] == build_context(g, workspace, target)
        finally:
            server.shutdown()

    def test_grammar_error_triggers_reprompt(self):
        from espatial.cot import RemoteClient

        def handler_value(request):
            if request.get("feedback"):
                return {"steps": [{"claim": "a left_of b"}], "value": True}
            return {"steps": [{"claim": "free text ramble here"}], "value": True}

        server, _ = self.serve(handler_value)
        try:
            client = RemoteClient(f"http://127.0.0.1:{server.server_port}/")
            got, trace = reason("Where is the a relative to the b?", two_node_graph(),
                                client=client)
            assert got.value is True
            assert trace.retries == 1
            assert trace.steps[0].rule == "ClaimGrammarError"
        finally:
            server.shutdown()

    def test_unreachable_endpoint(self):
        from espatial.cot import RemoteClient
        from espatial.errors import BackendUnavailable

        client = RemoteClient("http://127.0.0.1:9/never", timeout_s=0.2)
        with pytest.raises(BackendUnavailable):
            client.submit("q", two_node_graph(), DEFAULT_WORKSPACE, None)


class TestReasonOverPlan:
    def test_empty_target(self):
        assembly, traces = reason_over_plan(LegoStructure())
        assert assembly.commands == () and traces == ()

    def test_two_brick_tower(self):
        tower = LegoStructure.of(
            PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0),
            PlacedBrick(BrickSpec("green", (1, 1)), (0, 0), 1),
        )
        assembly, traces = reason_over_plan(tower)
        assert len(assembly.commands) == 2 and len(traces) == 2
        for trace in traces:
            assert all(s.status is StepStatus.VALIDATED for s in trace.steps)
        assert equals(replay(assembly), tower)

    def test_floating_brick_fails_at_offending_index(self):
        bad = LegoStructure.of(
            PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0),
            PlacedBrick(BrickSpec("green", (1, 1)), (5, 5), 2),
        )
        with pytest.raises(PlanValidationFailure) as err:
            reason_over_plan(bad)
        assert err.value.index == 1

    def test_simulated_result_equals_target(self, rng):
        for _ in range(10):
            target = random_structure(rng, rng.randint(1, 10))
            assembly, _ = reason_over_plan(target)
            assert equals(replay(assembly), target)

    def test_snaps_each_brick_once_in_the_final_audit(self, monkeypatch):
        import espatial.cot

        snaps, snaps_before_audit = [], []
        real_snap, real_from_graph = StudFrame.snap, espatial.cot.from_graph

        def counting_snap(self, *args):
            snaps.append(args)
            return real_snap(self, *args)

        def audit(graph):
            snaps_before_audit.append(len(snaps))
            return real_from_graph(graph)

        monkeypatch.setattr(StudFrame, "snap", counting_snap)
        monkeypatch.setattr(espatial.cot, "from_graph", audit)
        target = random_structure(Random(3), 20)
        reason_over_plan(target)
        assert len(target) == 20
        assert snaps_before_audit == [0] and len(snaps) == 20


def reference_reason_over_plan(target):
    """The full simulation the planner's cell-set fold must agree with:
    scene dynamics with every relation derived, and a snap-and-validate
    audit of the whole simulated structure after every placement."""
    sim = SceneGraph.empty()
    commands = ordered_commands(target)
    traces = []
    for i, command in enumerate(commands):
        x, y = command.position
        claim = f"supported {x} {y} {command.layer} {command.spec.size}"
        step = validate_step(StepProposal(claim), sim)
        if step.status is StepStatus.REJECTED:
            raise PlanValidationFailure(i, step.rule, claim)
        before = sim
        try:
            sim = apply_action(sim, Action.place_brick(command))
            from_graph(sim)
        except DuplicateNodeId as e:
            raise PlanValidationFailure(i, "cell_collision", claim) from e
        except InvalidStructure as e:
            raise PlanValidationFailure(i, e.violations[0].kind.value, claim) from e
        traces.append(ReasoningTrace((step,), None, 0, before))
    if not equals(from_graph(sim), target):
        raise PlanValidationFailure(len(commands), "UnsupportedClaim", "result mismatch")
    return AssemblyPlan(commands, target_digest(canonicalize(target))), tuple(traces)


def plan_outcome(fn, target):
    """Plan, steps and snapshot nodes per command, or the error's identity.
    Snapshot relations are left out: the planner's snapshots carry none."""
    try:
        assembly, traces = fn(target)
    except EngineError as e:
        return type(e), str(e), getattr(e, "index", None), getattr(e, "rule", None)
    return assembly, [(t.steps, t.graph.t, t.graph.nodes) for t in traces]


class TestReasonOverPlanReferee:
    def test_valid_structures_match_full_simulation(self, rng):
        for trial in range(60):
            target = random_structure(rng, rng.randint(1, 14))
            got = plan_outcome(reason_over_plan, target)
            assert got == plan_outcome(reference_reason_over_plan, target), f"trial {trial}"
            assert isinstance(got[0], AssemblyPlan)

    def test_faulty_targets_match_full_simulation(self, rng):
        rules = set()
        for trial in range(300):
            target = LegoStructure(tuple(faulty_bricks(rng, rng.randint(1, 10))))
            got = plan_outcome(reason_over_plan, target)
            assert got == plan_outcome(reference_reason_over_plan, target), f"trial {trial}"
            if not isinstance(got[0], AssemblyPlan):
                rules.add(got[3])
        # both failure rules occur, so the referee covers both paths
        assert {"UnsupportedClaim", "cell_collision"} <= rules

