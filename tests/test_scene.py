"""Scene graph dynamics: transitions and history."""

from __future__ import annotations

import json

import pytest

from espatial.bricks import BrickSpec
from espatial.errors import DuplicateNodeId, UnknownNodeId
from espatial.geometry import DEFAULT_THRESHOLDS, Box, RelationEdge, RelationKind
from espatial.oracle import TruthObject, brute_force_edges
from espatial.planner import PlacementCommand
from espatial.scene import (
    Action,
    DisturbanceEvent,
    GraphHistory,
    Pose,
    SceneGraph,
    apply_action,
    apply_disturbance,
    check_closure,
    graphs_equal_modulo_t,
    update_node_states,
)

from .conftest import make_node, random_node, random_nodes


def graph_of(*nodes, t=0) -> SceneGraph:
    return SceneGraph.from_nodes(nodes, t=t)


def edge_keys(edges):
    return {(e.subject_id, e.object_id, e.kind.value) for e in edges}


def place_cmd(color, footprint, position, layer) -> PlacementCommand:
    return PlacementCommand(BrickSpec(color, footprint), position, layer)


class TestUpdateNodeStates:
    def test_noop_identity(self, rng):
        g = graph_of(*random_nodes(rng, 3))
        assert update_node_states(g, Action.noop()) == g.nodes

    def test_remove(self, rng):
        a = random_node(rng, "a")
        b = random_node(rng, "b")
        g = graph_of(a, b)
        assert update_node_states(g, Action.remove("a")) == (b,)

    def test_remove_unknown(self, rng):
        g = graph_of(random_node(rng, "a"))
        with pytest.raises(UnknownNodeId):
            update_node_states(g, Action.remove("zz"))

    def test_place_brick_adds_node(self):
        # two-brick tower, then a red 1x1 on its top at (2, 0) layer 1
        base = Action.place_brick(place_cmd("green", (2, 2), (1, 0), 0))
        g = apply_action(apply_action(SceneGraph.empty(), base),
                         Action.place_brick(place_cmd("yellow", (1, 1), (4, 0), 0)))
        nodes = update_node_states(g, Action.place_brick(place_cmd("red", (1, 1), (2, 0), 1)))
        assert len(nodes) == 3
        new = [n for n in nodes if n.id == "brick_2_0_1"][0]
        assert new.color == "red"
        assert new.size_class == "1x1"
        assert new.label == "red 1x1 brick"

    def test_pick_marks_held_and_place_clears(self, rng):
        a = random_node(rng, "a")
        g = graph_of(a)
        picked = update_node_states(g, Action.pick("a"))[0]
        assert picked.attr("held") == "true"
        g2 = SceneGraph.from_nodes((picked,))
        pose = Pose(Box(0.4, 0.4, 0.5, 0.5), 2.0)
        placed = update_node_states(g2, Action.place_object("a", pose))[0]
        assert placed.attr("held") is None
        assert placed.bbox == pose.bbox and placed.depth_m == 2.0

    def test_payload_shape_enforced(self):
        with pytest.raises(ValueError):
            Action(Action.noop().kind, node_id="x")
        with pytest.raises(ValueError):
            Action.remove("")


class TestUpdateRelations:
    def test_no_pairs(self, rng):
        assert apply_action(graph_of(random_node(rng, "a")), Action.noop()).edges == ()

    def test_fixed_point_preserves_confidence(self, rng):
        nodes = (make_node("a", 0.5, 0.5), make_node("b", 0.5, 0.5))
        fresh = graph_of(*nodes)
        tweaked = SceneGraph(t=0, nodes=nodes, edges=tuple(e.with_confidence(0.7) for e in fresh.edges))
        again = apply_action(tweaked, Action.noop())
        assert again.edges == tweaked.edges

    def test_matches_brute_force_after_move(self, rng):
        nodes = random_nodes(rng, 3)
        g = graph_of(*nodes)
        moved = apply_action(
            g, Action.place_object("n1", Pose(Box(0.7, 0.7, 0.8, 0.8), 0.9))
        )
        truth = [TruthObject(n.id, n.bbox, n.depth_m) for n in moved.nodes]
        assert edge_keys(moved.edges) == set(brute_force_edges(truth, DEFAULT_THRESHOLDS))


class TestApplyAction:
    def test_noop_increments_t_only(self, rng):
        g = graph_of(*random_nodes(rng, 4), t=3)
        out = apply_action(g, Action.noop())
        assert out.t == 4
        assert out.nodes == g.nodes and out.edges == g.edges

    def test_remove_cleans_incident_edges(self, rng):
        g = graph_of(*random_nodes(rng, 5))
        out = apply_action(g, Action.remove("n2"))
        assert len(out.nodes) == 4
        assert all("n2" not in (e.subject_id, e.object_id) for e in out.edges)

    def test_deterministic(self, rng):
        g = graph_of(*random_nodes(rng, 5))
        action = Action.pick("n0")
        assert apply_action(g, action) == apply_action(g, action)

    def test_snapshot_immutability(self, rng):
        g = graph_of(*random_nodes(rng, 4))
        before = json.dumps(g.to_dict(), sort_keys=True)
        apply_action(g, Action.remove("n1"))
        apply_action(g, Action.pick("n0"))
        assert json.dumps(g.to_dict(), sort_keys=True) == before

    def test_random_sequence_matches_rebuild(self, rng):
        g = graph_of(*random_nodes(rng, 5))
        counter = 0
        for _ in range(20):
            g = self._random_step(rng, g, counter)
            counter += 1
        rebuilt = SceneGraph.from_nodes(g.nodes, t=g.t, provenance=g.provenance)
        assert graphs_equal_modulo_t(g, rebuilt) and g.t == rebuilt.t
        assert check_closure(g)

    @staticmethod
    def _random_step(rng, g, counter):
        choices = ["noop", "move", "pick"]
        if len(g.nodes) > 1:
            choices.append("remove")
        if len(g.nodes) < 10:
            choices.append("add")
        kind = rng.choice(choices)
        if kind == "noop":
            return apply_action(g, Action.noop())
        if kind == "add":
            return apply_disturbance(g, DisturbanceEvent.add(random_node(rng, f"x{counter}")))
        target = rng.choice(g.nodes).id
        if kind == "remove":
            return apply_action(g, Action.remove(target))
        if kind == "pick":
            return apply_action(g, Action.pick(target))
        fresh = random_node(rng, "tmp")
        return apply_action(g, Action.place_object(target, Pose(fresh.bbox, fresh.depth_m)))


class TestApplyDisturbance:
    def test_add(self, rng):
        g = graph_of(*random_nodes(rng, 2))
        out = apply_disturbance(g, DisturbanceEvent.add(random_node(rng, "new")))
        assert len(out.nodes) == 3 and out.t == g.t + 1

    def test_add_duplicate_rejected(self, rng):
        g = graph_of(*random_nodes(rng, 2))
        with pytest.raises(DuplicateNodeId):
            apply_disturbance(g, DisturbanceEvent.add(random_node(rng, "n0")))

    def test_human_removes_top_block(self):
        # tower built by actions, then an external removal of the top brick
        g = SceneGraph.empty()
        g = apply_action(g, Action.place_brick(place_cmd("red", (1, 1), (0, 0), 0)))
        g = apply_action(g, Action.place_brick(place_cmd("green", (1, 1), (0, 0), 1)))
        assert ("brick_0_0_1", "brick_0_0_0", "on_top_of") in edge_keys(g.edges)
        out = apply_disturbance(g, DisturbanceEvent.remove("brick_0_0_1"))
        assert len(out.nodes) == 1 and out.edges == ()

    def test_move_matches_fresh_derivation(self, rng):
        g = graph_of(*random_nodes(rng, 4))
        pose = Pose(Box(0.1, 0.1, 0.25, 0.2), 1.7)
        out = apply_disturbance(g, DisturbanceEvent.move("n3", pose))
        truth = [TruthObject(n.id, n.bbox, n.depth_m) for n in out.nodes]
        assert edge_keys(out.edges) == set(brute_force_edges(truth, DEFAULT_THRESHOLDS))

    def test_move_unknown(self, rng):
        g = graph_of(*random_nodes(rng, 2))
        with pytest.raises(UnknownNodeId):
            apply_disturbance(g, DisturbanceEvent.move("zz", Pose(Box(0.1, 0.1, 0.2, 0.2), 1.0)))


class TestHistory:
    def test_fold_reproduces_current(self, rng):
        history = GraphHistory(graph_of(*random_nodes(rng, 3)))
        history.apply(Action.pick("n0"))
        history.apply(DisturbanceEvent.add(random_node(rng, "n9")))
        history.apply(Action.remove("n1"))
        assert history.replay() == history.current
        assert history.verify()
        assert [s.graph.t for s in history.steps] == [0, 1, 2, 3]

    def test_rejects_nonzero_start(self, rng):
        g = graph_of(*random_nodes(rng, 2), t=0)
        shifted = apply_action(g, Action.noop())
        with pytest.raises(Exception):
            GraphHistory(shifted)


class TestGraphInvariants:
    def test_edge_endpoints_must_exist(self, rng):
        a, b = random_nodes(rng, 2)
        stray = RelationEdge("n0", "ghost", RelationKind.NEAR, 0.1)
        with pytest.raises(UnknownNodeId):
            SceneGraph(t=0, nodes=(a, b), edges=(stray,))

    def test_duplicate_ids_rejected(self, rng):
        a = random_node(rng, "a")
        with pytest.raises(DuplicateNodeId):
            SceneGraph(t=0, nodes=(a, a.with_attr("x", "1")))

    def test_graph_json_round_trip(self, rng):
        g = graph_of(*random_nodes(rng, 5), t=2)
        assert SceneGraph.from_dict(g.to_dict()) == g
