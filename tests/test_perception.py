"""Perception: graph construction, synthetic scenes, file I/O."""

from __future__ import annotations

import json
import math

import pytest

from espatial.errors import InvalidDepth, MisalignedInputs, ParseError, SchemaVersionMismatch
from espatial.geometry import Box
from espatial.perception import (
    DetectionRecord,
    PerceptionFrame,
    build_graph,
    load_graph,
    load_scene,
    save_graph,
    save_scene,
    synth_scene,
)
from espatial.scene import SceneGraph


def det(label, x0=0.1, y0=0.1, x1=0.3, y1=0.3, rgb=(196, 40, 27), score=0.9):
    return DetectionRecord(label, Box(x0, y0, x1, y1), rgb, score)


class TestBuildGraph:
    def test_empty(self):
        g = build_graph((), ())
        assert g.t == 0 and g.nodes == () and g.edges == ()
        assert g.provenance == "perception"

    def test_misaligned_inputs(self):
        with pytest.raises(MisalignedInputs):
            build_graph((det("a thing"),), ())

    @pytest.mark.parametrize("depth", [math.inf, math.nan, 0.0, -1.0])
    def test_frame_rejects_non_positive_or_non_finite_depth(self, depth):
        with pytest.raises(InvalidDepth):
            PerceptionFrame("img", (det("a thing"),), (depth,))

    def test_ids_sorted_by_label_then_origin(self):
        records = (
            det("zebra toy", 0.5, 0.5, 0.6, 0.6),
            det("apple", 0.3, 0.3, 0.4, 0.4),
            det("apple", 0.1, 0.1, 0.2, 0.2),
        )
        g = build_graph(records, (1.0, 1.0, 1.0))
        labels_by_id = {n.id: (n.label, n.bbox.x_min) for n in g.nodes}
        assert labels_by_id["obj0"] == ("apple", 0.1)
        assert labels_by_id["obj1"] == ("apple", 0.3)
        assert labels_by_id["obj2"] == ("zebra toy", 0.5)

    def test_identity_stable_across_steps(self):
        frame, g0 = synth_scene(5, 6)
        g1 = build_graph(frame.detections, frame.depths, prev=g0)
        assert g1.t == g0.t + 1
        assert g0.node_ids() == g1.node_ids()
        g2 = build_graph(frame.detections, frame.depths, prev=g1)
        assert g2.node_ids() == g1.node_ids()

    def test_fresh_ids_for_unmatched(self):
        frame, g0 = synth_scene(5, 3)
        extra = det("brand new thing", 0.05, 0.05, 0.1, 0.1)
        g1 = build_graph(frame.detections + (extra,), frame.depths + (1.0,), prev=g0)
        assert len(g1.nodes) == 4
        assert set(g0.node_ids()) < set(g1.node_ids())

    def test_fresh_id_never_reuses_a_vanished_id(self):
        cup = det("blue cup", 0.1, 0.1, 0.2, 0.2, rgb=(30, 60, 200))
        ball = det("red ball", 0.5, 0.5, 0.6, 0.6)
        g0 = build_graph((cup, ball), (1.0, 1.2))
        assert [(n.id, n.label) for n in g0.nodes] == [("obj0", "blue cup"), ("obj1", "red ball")]
        plate = det("white plate", 0.7, 0.1, 0.8, 0.2, rgb=(240, 240, 240))
        g1 = build_graph((ball, plate), (1.2, 0.9), prev=g0)
        ids = {n.label: n.id for n in g1.nodes}
        assert ids == {"red ball": "obj1", "white plate": "obj2"}

    def test_confidence_preserved_for_unchanged_pairs(self):
        frame, g0 = synth_scene(9, 4)
        if not g0.edges:
            pytest.skip("scene produced no edges")
        lowered = SceneGraph(
            t=g0.t, nodes=g0.nodes,
            edges=tuple(e.with_confidence(0.4) for e in g0.edges),
            provenance=g0.provenance,
        )
        g1 = build_graph(frame.detections, frame.depths, prev=lowered)
        assert all(e.confidence == 0.4 for e in g1.edges)


class TestSynthScene:
    def test_zero_objects(self):
        frame, g = synth_scene(3, 0)
        assert frame.detections == () and g.nodes == ()

    def test_deterministic(self):
        assert synth_scene(21, 7) == synth_scene(21, 7)
        assert synth_scene(21, 7, brick_mode=True) == synth_scene(21, 7, brick_mode=True)

    def test_unique_labels(self):
        frame, _ = synth_scene(13, 8)
        labels = [d.label for d in frame.detections]
        assert len(set(labels)) == len(labels)

    def test_brick_mode_has_hue_stressors(self):
        frame, _ = synth_scene(23, 6, brick_mode=True)
        labels = " ".join(d.label for d in frame.detections)
        assert "light blue" in labels and "dark blue" in labels


class TestSceneFiles:
    def test_scene_round_trip(self, tmp_path):
        frame, _ = synth_scene(31, 5)
        path = tmp_path / "scene.json"
        save_scene(frame, path)
        assert load_scene(path) == frame

    def test_graph_round_trip(self, tmp_path):
        _, g = synth_scene(31, 5)
        path = tmp_path / "graph.json"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "espatial-scene/1", "detections": [{"label"')
        with pytest.raises(ParseError):
            load_scene(path)

    def test_unknown_schema_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"schema": "espatial-scene/9", "detections": []}))
        with pytest.raises(SchemaVersionMismatch):
            load_scene(path)

    def test_missing_field_diagnostics(self, tmp_path):
        path = tmp_path / "missing.json"
        payload = {"schema": "espatial-scene/1", "image_ref": "x",
                   "detections": [{"label": "a thing", "bbox": [0.1, 0.1, 0.2, 0.2],
                                   "rgb": [1, 2, 3], "score": 0.5}]}
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError) as err:
            load_scene(path)
        assert "depth_m" in str(err.value)

