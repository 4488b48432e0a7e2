"""Query answering across the seven categories, with trace falsifiability."""

from __future__ import annotations

import pytest

from espatial.bricks import BrickSpec, LegoStructure, PlacedBrick, random_structure, recolor_brick
from espatial.errors import CategoryParamMismatch, UnresolvedReference
from espatial.geometry import distance
from espatial.perception import build_graph, frame_from_structure, synth_scene
from espatial.query import (
    QueryCategory,
    SpatialQuery,
    WorkspaceEnvelope,
    answer,
)
from espatial.scene import SceneGraph

from .conftest import make_node, random_nodes


def brick_graph(structure: LegoStructure) -> SceneGraph:
    frame = frame_from_structure(structure)
    return build_graph(frame.detections, frame.depths)


class TestDistance:
    def test_self_distance_zero(self, rng):
        g = SceneGraph.from_nodes(random_nodes(rng, 2))
        result = answer(SpatialQuery(QueryCategory.DISTANCE, "n0", "n0"), g)
        assert result.value == 0.0 and result.units == "m"

    def test_matches_geometry(self, rng):
        g = SceneGraph.from_nodes(random_nodes(rng, 3))
        result = answer(SpatialQuery(QueryCategory.DISTANCE, "n0", "n2"), g)
        assert result.value == distance(g.node("n0"), g.node("n2"))
        assert any("n0" in c.refs and "n2" in c.refs for c in result.trace)

    def test_unresolved_reference(self, rng):
        g = SceneGraph.from_nodes(random_nodes(rng, 1))
        with pytest.raises(UnresolvedReference):
            answer(SpatialQuery(QueryCategory.DISTANCE, "n0", "ghost"), g)

    def test_missing_object_param(self, rng):
        g = SceneGraph.from_nodes(random_nodes(rng, 1))
        with pytest.raises(CategoryParamMismatch):
            answer(SpatialQuery(QueryCategory.DISTANCE, "n0"), g)


class TestDirection:
    def test_left_of(self):
        g = SceneGraph.from_nodes((
            make_node("a", 0.2, 0.5, depth=1.0),
            make_node("b", 0.8, 0.5, depth=1.0),
        ))
        result = answer(SpatialQuery(QueryCategory.DIRECTION, "a", "b"), g)
        assert result.value == ["left_of"]

    def test_no_direction(self):
        g = SceneGraph.from_nodes((
            make_node("a", 0.5, 0.5, depth=1.0),
            make_node("b", 0.5, 0.5, depth=1.0),
        ))
        result = answer(SpatialQuery(QueryCategory.DIRECTION, "a", "b"), g)
        assert result.value == []


class TestReachability:
    def test_annulus_membership(self):
        # center (0.5, 0.5) at depth 0.4 lifts to (0, 0, 0.4): distance 0.4
        g = SceneGraph.from_nodes((make_node("a", 0.5, 0.5, depth=0.4),))
        w = WorkspaceEnvelope(reach_m=0.85, min_reach_m=0.1)
        result = answer(SpatialQuery(QueryCategory.REACHABILITY, "a"), g, w)
        assert result.value is True
        assert any("reach_m" in c.refs for c in result.trace)

    def test_too_far_and_dead_zone(self):
        g = SceneGraph.from_nodes((make_node("a", 0.5, 0.5, depth=2.5),))
        assert answer(SpatialQuery(QueryCategory.REACHABILITY, "a"), g,
                      WorkspaceEnvelope(reach_m=0.85, min_reach_m=0.1)).value is False
        g2 = SceneGraph.from_nodes((make_node("b", 0.5, 0.5, depth=0.05),))
        assert answer(SpatialQuery(QueryCategory.REACHABILITY, "b"), g2,
                      WorkspaceEnvelope(reach_m=0.85, min_reach_m=0.1)).value is False

    def test_monotone_in_reach(self, rng):
        g = SceneGraph.from_nodes(random_nodes(rng, 6))
        for node in g.nodes:
            q = SpatialQuery(QueryCategory.REACHABILITY, node.id)
            small = answer(q, g, WorkspaceEnvelope(reach_m=1.0, min_reach_m=0.1)).value
            large = answer(q, g, WorkspaceEnvelope(reach_m=2.0, min_reach_m=0.1)).value
            if small:
                assert large


class TestArmFeasibility:
    def blocked_graph(self):
        # target behind a nearer overlapping object
        return SceneGraph.from_nodes((
            make_node("target", 0.5, 0.5, 0.2, 0.2, depth=1.0),
            make_node("blocker", 0.5, 0.5, 0.2, 0.2, depth=0.6),
        ))

    def test_blocked(self):
        result = answer(SpatialQuery(QueryCategory.ARM_FEASIBILITY, "target"),
                        self.blocked_graph())
        assert result.value is False
        assert any("blocker" in c.refs for c in result.trace)

    def test_clear_is_feasible(self):
        g = SceneGraph.from_nodes((make_node("target", 0.5, 0.5, depth=1.0),))
        assert answer(SpatialQuery(QueryCategory.ARM_FEASIBILITY, "target"), g).value is True

    def test_implies_reachability(self, rng):
        for seed in range(10):
            _, g = synth_scene(seed, 6)
            for node in g.nodes:
                feasible = answer(SpatialQuery(QueryCategory.ARM_FEASIBILITY, node.id), g).value
                reachable = answer(SpatialQuery(QueryCategory.REACHABILITY, node.id), g).value
                if feasible:
                    assert reachable


class TestAdjacencyOverlap:
    def test_touching_bricks_adjacent(self, rng):
        tower = LegoStructure.of(
            PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0),
            PlacedBrick(BrickSpec("green", (1, 1)), (0, 0), 1),
        )
        g = brick_graph(tower)
        a, b = g.node_ids()
        assert answer(SpatialQuery(QueryCategory.ADJACENCY, a, b), g).value is True

    def test_far_apart_not_adjacent(self):
        g = SceneGraph.from_nodes((
            make_node("a", 0.1, 0.1, depth=1.0),
            make_node("b", 0.9, 0.9, depth=2.0),
        ))
        result = answer(SpatialQuery(QueryCategory.ADJACENCY, "a", "b"), g)
        assert result.value is False
        assert result.trace

    def test_overlap_true_and_false(self):
        g = SceneGraph.from_nodes((
            make_node("a", 0.5, 0.5, 0.2, 0.2, depth=1.0),
            make_node("b", 0.55, 0.5, 0.2, 0.2, depth=1.0),
            make_node("c", 0.9, 0.9, 0.1, 0.1, depth=1.0),
        ))
        assert answer(SpatialQuery(QueryCategory.OVERLAP, "a", "b"), g).value is True
        assert answer(SpatialQuery(QueryCategory.OVERLAP, "a", "c"), g).value is False


class TestSuccessJudgment:
    def test_equal_structures(self, rng):
        target = random_structure(rng, 5)
        g = brick_graph(target)
        result = answer(SpatialQuery(QueryCategory.SUCCESS_JUDGMENT,
                                     params={"target": target}), g)
        assert result.value is True

    def test_recolored_mismatch_named_in_trace(self, rng):
        target = random_structure(rng, 5)
        mutated = recolor_brick(target, rng)
        g = brick_graph(target)
        result = answer(SpatialQuery(QueryCategory.SUCCESS_JUDGMENT,
                                     params={"target": mutated}), g)
        assert result.value is False
        assert "mismatch" in result.trace[0].claim

    def test_target_param_required(self, rng):
        g = brick_graph(random_structure(rng, 2))
        with pytest.raises(CategoryParamMismatch):
            answer(SpatialQuery(QueryCategory.SUCCESS_JUDGMENT), g)


class TestTraceFalsifiability:
    """Deleting or shifting cited evidence must flip boolean answers."""

    def test_adjacency_edge_removal_flips(self, rng):
        tower = LegoStructure.of(
            PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0),
            PlacedBrick(BrickSpec("green", (1, 1)), (0, 0), 1),
        )
        g = brick_graph(tower)
        a, b = g.node_ids()
        q = SpatialQuery(QueryCategory.ADJACENCY, a, b)
        result = answer(q, g)
        assert result.value is True
        cited = {r for c in result.trace for r in c.refs}
        kept = tuple(
            e for e in g.edges
            if f"{e.subject_id}->{e.object_id}:{e.kind.value}" not in cited
        )
        mutated = SceneGraph(t=g.t, nodes=g.nodes, edges=kept, provenance=g.provenance)
        assert answer(q, mutated).value is False

    def test_reachability_parameter_change_flips(self):
        g = SceneGraph.from_nodes((make_node("a", 0.5, 0.5, depth=1.0),))
        q = SpatialQuery(QueryCategory.REACHABILITY, "a")
        assert answer(q, g, WorkspaceEnvelope(reach_m=1.5, min_reach_m=0.1)).value is True
        assert answer(q, g, WorkspaceEnvelope(reach_m=0.9, min_reach_m=0.1)).value is False
