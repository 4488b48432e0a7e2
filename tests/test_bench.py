"""Dataset generation, benchmark runner, reassembly scenario."""

from __future__ import annotations

import hashlib
import json

import pytest

from espatial.bench import (
    QaDataset,
    QaItem,
    SceneRef,
    generate_dataset,
    gold_for_item,
    run_bench,
    run_reassembly,
    score_answer,
)
from espatial.bricks import LegoStructure
from espatial.config import EngineConfig
from espatial.query import QueryCategory


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call ``espatial.bench`` makes to ``name``."""
    import espatial.bench

    calls = []
    real = getattr(espatial.bench, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(espatial.bench, name, counting)
    return calls


class TestGenerateDataset:
    def test_empty(self):
        ds = generate_dataset(1, 0)
        assert ds.items == ()

    def test_deterministic(self):
        a = generate_dataset(5, 40)
        b = generate_dataset(5, 40)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_covers_all_categories(self):
        ds = generate_dataset(2, 120)
        assert {i.category for i in ds.items} == set(QueryCategory)

    def test_double_oracle_agreement(self):
        config = EngineConfig()
        ds = generate_dataset(9, 80, config=config)
        for item in ds.items:
            target = None
            if "target" in item.params and item.params["target"] is not None:
                target = LegoStructure.from_dict(item.params["target"])
            value, units = gold_for_item(
                item.category, item.scene,
                item.params.get("subject_index"), item.params.get("object_index"),
                target, config,
            )
            assert score_answer(value, item.gold_value), item.question
            assert units == item.gold_units

    def test_each_object_scene_rendered_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "synth_frame")
        ds = generate_dataset(5, 200)
        object_items = [i for i in ds.items if not i.scene.brick_mode]
        assert len(calls) == len(object_items) == 177

    def test_each_brick_truth_built_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "synth_structure")
        ds = generate_dataset(5, 200)
        brick_items = [i for i in ds.items if i.scene.brick_mode]
        assert len(calls) == len(brick_items) == 23

    def test_round_trip_file(self, tmp_path):
        ds = generate_dataset(3, 15)
        path = tmp_path / "ds.json"
        ds.save(path)
        loaded = QaDataset.load(path)
        assert json.dumps(loaded.to_dict(), sort_keys=True) == \
            json.dumps(ds.to_dict(), sort_keys=True)

    def test_config_echo(self):
        ds = generate_dataset(4, 5)
        assert "thresholds" in ds.config and "workspace" in ds.config


class TestRunBench:
    def test_empty_dataset(self):
        report = run_bench(QaDataset(seed=0, items=()))
        assert report.items == 0 and report.overall_accuracy == 0.0

    def test_fallback_scores_perfectly(self):
        ds = generate_dataset(11, 120)
        report = run_bench(ds)
        assert report.overall_accuracy == 1.0
        assert not report.failures
        for bucket in report.per_category.values():
            assert bucket["accuracy"] == 1.0

    def test_overall_is_item_weighted_mean(self):
        ds = generate_dataset(13, 60)
        report = run_bench(ds)
        total = sum(b["total"] for b in report.per_category.values())
        correct = sum(b["correct"] for b in report.per_category.values())
        assert total == report.items
        assert report.overall_accuracy == pytest.approx(correct / total)

    def test_corrupted_scene_ref_scored_incorrect(self):
        good = generate_dataset(15, 3)
        broken = QaItem(
            question="Can the robot reach the red ball?",
            category=QueryCategory.REACHABILITY,
            scene=SceneRef(seed=1, n_objects=-4),
            gold_value=True,
        )
        ds = QaDataset(seed=15, items=good.items + (broken,))
        report = run_bench(ds)
        assert report.items == 4
        assert len(report.failures) == 1 and report.failures[0]["index"] == 3
        assert report.per_category["reachability"]["correct"] <= \
            report.per_category["reachability"]["total"] - 1 or \
            report.per_category["reachability"]["total"] == 1

    def test_report_reproducible_modulo_wall_clock(self):
        ds = generate_dataset(17, 40)
        config = EngineConfig()
        first = run_bench(ds, config)
        second = run_bench(ds, config)
        assert first.body_without_wallclock() == second.body_without_wallclock()
        assert first.to_json() != ""  # wall clock present in the full body

    def test_one_graph_built_per_item(self, monkeypatch):
        import espatial.bench
        import espatial.perception

        calls = []
        real = espatial.perception.build_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(espatial.perception, "build_graph", counting)
        monkeypatch.setattr(espatial.bench, "build_graph", counting)
        ds = generate_dataset(21, 40)
        assert {i.category for i in ds.items} == set(QueryCategory)
        assert len(calls) == 0
        report = run_bench(ds)
        assert report.overall_accuracy == 1.0
        assert len(calls) == len(ds.items)


class TestScoring:
    def test_boolean_exact(self):
        assert score_answer(True, True)
        assert not score_answer(False, True)
        assert not score_answer(1, True)  # non-bool never matches a bool gold

    def test_distance_tolerance(self):
        assert score_answer(1.234, 1.240)
        assert not score_answer(1.234, 1.25)

    def test_list_order_insensitive(self):
        assert score_answer(["left_of", "near"], ["near", "left_of"])
        assert not score_answer(["left_of"], ["near"])


class TestReassembly:
    def test_single_brick(self):
        result = run_reassembly(seed=1, max_bricks=1)
        assert result.n_bricks == 1
        assert result.description_ok and result.assembly_ok

    def test_twenty_seeds_all_succeed(self):
        for seed in range(20):
            result = run_reassembly(seed, max_bricks=12)
            assert result.description_ok, f"seed {seed}: {result}"
            assert result.assembly_ok, f"seed {seed}: {result}"

    def test_target_outside_frame_fails_at_perceive(self):
        # seed 358 draws a brick past the stud frame's right edge
        result = run_reassembly(seed=358, max_bricks=24)
        assert result.stage_failed == "perceive"
        assert result.error.startswith("InvalidPose")
        assert not (result.description_ok or result.assembly_ok)

    def test_outcomes_pinned(self):
        # the outcomes a full re-derivation and audit after every placement
        # gives; simulating on brick cells must reproduce them byte for byte
        outcomes = [run_reassembly(s, 24, d).to_dict() for s in range(60) for d in (None, 0)]
        digest = hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
        assert digest == "e10507c3c11cc4a9df68f192908a06218bc067bcdff87a960758eb37b80557e6"

    def test_perception_dropout_detected(self):
        # drop one detection: the described structure can no longer match
        result = run_reassembly(seed=3, max_bricks=8, drop_detection=0)
        assert not result.description_ok
