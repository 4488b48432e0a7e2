"""Black-box CLI checks: subcommands, exit codes, golden report."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from espatial.cli import cli_dispatch
from espatial.config import EngineConfig
from espatial.errors import ParseError
from espatial.perception import frame_to_dict, save_graph, save_scene, synth_scene

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*argv) -> int:
    return cli_dispatch(list(argv))


class TestUsage:
    def test_no_args_is_usage_error(self, capsys):
        assert run_cli() == 2

    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag(self):
        assert run_cli("validate") == 2

    def test_help_exits_clean(self):
        assert run_cli("--help") == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "espatial"], capture_output=True, text=True
        )
        assert proc.returncode == 2


class TestValidate:
    def test_valid_structure(self, capsys):
        assert run_cli("validate", "--structure", str(FIXTURES / "structure_tower.json")) == 0
        assert "ok" in capsys.readouterr().out

    def test_floating_structure_lists_violation(self, capsys):
        code = run_cli("validate", "--structure", str(FIXTURES / "structure_floating.json"))
        assert code == 1
        assert "floating" in capsys.readouterr().out


class TestBuildGraphAndQuery:
    def test_round_trip(self, tmp_path, capsys):
        frame, _ = synth_scene(41, 5)
        scene_path = tmp_path / "scene.json"
        save_scene(frame, scene_path)
        graph_path = tmp_path / "graph.json"
        assert run_cli("build-graph", "--scene", str(scene_path),
                       "--out", str(graph_path)) == 0
        assert graph_path.exists()

        query_path = tmp_path / "q.json"
        graph = json.loads(graph_path.read_text())
        a, b = graph["nodes"][0]["id"], graph["nodes"][1]["id"]
        query_path.write_text(json.dumps({
            "schema": "espatial-query/1", "category": "distance",
            "subject": a, "object": b, "params": {},
        }))
        out_path = tmp_path / "answer.json"
        assert run_cli("query", "--graph", str(graph_path), "--query", str(query_path),
                       "--out", str(out_path)) == 0
        payload = json.loads(out_path.read_text())
        assert payload["value"] > 0 and payload["units"] == "m"

    def test_natural_language_question(self, tmp_path, capsys):
        frame, graph = synth_scene(43, 4)
        graph_path = tmp_path / "graph.json"
        save_graph(graph, graph_path)
        label = graph.nodes[0].label
        assert run_cli("query", "--graph", str(graph_path),
                       "--question", f"Can the robot reach the {label}?") == 0
        out = capsys.readouterr().out
        assert "value:" in out

    def test_missing_graph_file_is_domain_error(self, tmp_path):
        assert run_cli("query", "--graph", str(tmp_path / "absent.json"),
                       "--question", "Can the robot reach the red ball?") == 1


class TestPlan:
    def test_plan_prints_grammar_lines(self, capsys):
        code = run_cli("plan", "--target", str(FIXTURES / "structure_tower.json"))
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("place the")]
        assert len(lines) == 4
        assert lines[0].startswith("place the ")

    def test_invalid_target_fails(self):
        assert run_cli("plan", "--target", str(FIXTURES / "structure_floating.json")) == 1


class TestBenchCommands:
    def test_gen_then_bench(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert run_cli("gen-dataset", "--seed", "7", "--n-items", "12",
                       "--out", str(ds_path)) == 0
        report_path = tmp_path / "report.json"
        assert run_cli("bench", "--dataset", str(ds_path), "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["overall_accuracy"] == 1.0
        assert report["schema"] == "espatial-report/1"

    def test_reassembly_command(self, tmp_path):
        out_path = tmp_path / "re.json"
        assert run_cli("reassembly", "--seed", "5", "--out", str(out_path)) == 0
        payload = json.loads(out_path.read_text())
        assert payload["description_ok"] and payload["assembly_ok"]


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in lines[0]


class TestConfigBoundary:
    @staticmethod
    def gen_dataset(tmp_path, config) -> int:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        return run_cli("gen-dataset", "--seed", "1", "--n-items", "3",
                       "--config", str(config_path), "--out", str(tmp_path / "ds.json"))

    @pytest.mark.parametrize("thresholds, field", [
        ({"tau_bogus": 1}, "tau_bogus"),
        ({"tau_dir": "nan"}, "tau_dir"),
        ({"tau_dir": "0.9"}, "thresholds.tau_dir"),
    ])
    def test_bad_threshold_is_one_error_line(self, tmp_path, capsys, thresholds, field):
        assert self.gen_dataset(tmp_path, {"thresholds": thresholds}) == 1
        assert_one_error_line(capsys, field)
        assert not (tmp_path / "ds.json").exists()

    @pytest.mark.parametrize("config, field", [
        ({"workers": 4}, "workers"),
        ({"max_in_flight": 8}, "max_in_flight"),
        ({"workspace": {"base3": [0, 0]}}, "base3"),
        ({"workspace": {"base3": [0, 0, "inf"]}}, "base3"),
        ({"workspace": {"reach_m": "nan"}}, "reach_m"),
        ({"max_retries": [1]}, "max_retries"),
        ({"workspace": {"reach_m": "1.2"}}, "'workspace.reach_m'"),
        ({"max_retries": 2.7}, "'max_retries'"),
        ({"max_retries": True}, "'max_retries'"),
        ({"workspace": {"reach": 0.2}}, "'workspace.reach'"),
        ({"max_retries": -1}, "'max_retries'"),
    ], ids=["workers", "max_in_flight", "base3_of_two", "base3_infinite", "reach_nan",
            "max_retries_list", "reach_string", "max_retries_float", "max_retries_bool",
            "workspace_typo", "max_retries_negative"])
    def test_bad_config_is_one_error_line(self, tmp_path, capsys, config, field):
        assert self.gen_dataset(tmp_path, config) == 1
        assert_one_error_line(capsys, field)
        assert not (tmp_path / "ds.json").exists()

    @pytest.mark.parametrize("config, field", [
        ({"workspace": {"reach": 0.2}}, "workspace.reach"),
        ({"max_retries": -1}, "max_retries"),
    ], ids=["workspace_typo", "max_retries_negative"])
    def test_bad_config_dict_names_field(self, config, field):
        with pytest.raises(ParseError) as info:
            EngineConfig.from_dict(config)
        assert info.value.field == field

    def test_golden_config_echo_loads_back(self):
        # a run must be reproducible from its report alone
        golden = json.loads((FIXTURES / "report_golden.json").read_text())
        assert EngineConfig.from_dict(golden["config"]) == EngineConfig()


class TestGraphBoundary:
    @pytest.mark.parametrize("mutate, field", [
        (lambda g: g.update(nodes="oops"), "nodes"),
        (lambda g: g["nodes"][0].update(bbox=[0.1, 0.1, 0.2]), "nodes[0].bbox"),
        (lambda g: g["nodes"][0]["attributes"].update(score=0.9), "nodes[0].attributes.score"),
    ], ids=["nodes_not_a_list", "bbox_of_three", "attribute_not_a_string"])
    def test_malformed_graph_is_one_error_line(self, tmp_path, capsys, mutate, field):
        _, graph = synth_scene(43, 4)
        payload = graph.to_dict()
        mutate(payload)
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(payload))
        code = run_cli("query", "--graph", str(graph_path),
                       "--question", "Can the robot reach the red ball?")
        assert code == 1
        assert_one_error_line(capsys, repr(field))


class TestFileBoundary:
    @pytest.mark.parametrize("mutate, fragment", [
        (lambda d: [1], "expected a JSON object"),
        (lambda d: {**d, "items": "oops"}, "'items'"),
        (lambda d: {**d, "items": [{**d["items"][0], "scene": "oops"}]}, "'items[0].scene'"),
    ], ids=["dataset_list", "items_not_a_list", "scene_not_an_object"])
    def test_malformed_dataset_is_one_error_line(self, tmp_path, capsys, mutate, fragment):
        dataset = json.loads((FIXTURES / "qa_100.json").read_text())
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(mutate(dataset)))
        assert run_cli("bench", "--dataset", str(path)) == 1
        assert_one_error_line(capsys, fragment)

    @pytest.mark.parametrize("key, value", [
        ("brick_mode", "false"), ("seed", 12.9), ("n_objects", True), ("n_objects", -2),
    ], ids=["brick_mode_string", "seed_float", "n_objects_bool", "n_objects_negative"])
    def test_mistyped_scene_ref_is_one_error_line(self, tmp_path, capsys, key, value):
        dataset = json.loads((FIXTURES / "qa_100.json").read_text())
        dataset["items"][0]["scene"][key] = value
        path = tmp_path / "ds.json"
        path.write_text(json.dumps(dataset))
        assert run_cli("bench", "--dataset", str(path)) == 1
        assert_one_error_line(capsys, repr(f"items[0].scene.{key}"))

    def test_string_rgb_is_one_error_line(self, tmp_path, capsys):
        frame, _ = synth_scene(41, 5)
        scene = frame_to_dict(frame)
        scene["detections"][0]["rgb"] = ["196", 40, 27]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        assert run_cli("build-graph", "--scene", str(path)) == 1
        assert_one_error_line(capsys, "'detections[0].rgb[0]'")

    def test_malformed_scene_is_one_error_line(self, tmp_path, capsys):
        frame, _ = synth_scene(41, 5)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({**frame_to_dict(frame), "detections": "oops"}))
        assert run_cli("build-graph", "--scene", str(path)) == 1
        assert_one_error_line(capsys, "'detections'")

    @pytest.mark.parametrize("argv", [
        ("query", "--graph", "{graph}", "--query", "{doc}"),
        ("validate", "--structure", "{doc}"),
    ], ids=["query", "validate"])
    def test_list_document_is_one_error_line(self, tmp_path, capsys, argv):
        _, graph = synth_scene(43, 4)
        save_graph(graph, tmp_path / "graph.json")
        (tmp_path / "doc.json").write_text("[1, 2]")
        paths = {"graph": tmp_path / "graph.json", "doc": tmp_path / "doc.json"}
        assert run_cli(*(a.format(**paths) for a in argv)) == 1
        assert_one_error_line(capsys, "expected a JSON object")

    @pytest.mark.parametrize("brick, field", [
        (1, "'bricks[0]'"),
        ({"color": "red", "footprint": [1, 1], "origin": "12", "layer": 0}, "'bricks[0].origin'"),
        ({"color": "red", "footprint": [1], "origin": [0, 0], "layer": 0}, "'bricks[0].footprint'"),
        ({"color": "red", "footprint": [1, 1], "origin": [0, 0], "layer": "0"}, "'bricks[0].layer'"),
        ({"color": "mauve", "footprint": [1, 1], "origin": [0, 0], "layer": 0}, "'bricks[0].color'"),
        ({"color": "red", "footprint": [3, 3], "origin": [0, 0], "layer": 0}, "'bricks[0].footprint'"),
    ], ids=["brick_not_an_object", "origin_string", "footprint_of_one", "layer_string",
            "unknown_color", "unsupported_footprint"])
    @pytest.mark.parametrize("argv", [("validate", "--structure"), ("plan", "--target")],
                             ids=["validate", "plan"])
    def test_malformed_structure_is_one_error_line(self, tmp_path, capsys, argv, brick, field):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps({"schema": "espatial-lego/1", "bricks": [brick]}))
        assert run_cli(*argv, str(path)) == 1
        assert_one_error_line(capsys, field)

    @pytest.mark.parametrize("query, field", [
        ({"category": "distance", "subject": "obj0", "object": "obj1", "params": [1]}, "'params'"),
        ({"category": "success_judgment", "params": {"target": "oops"}}, "'params.target'"),
        ({"category": "success_judgment", "params": {"target": {
            "schema": "espatial-lego/1",
            "bricks": [{"color": "mauve", "footprint": [1, 1], "origin": [0, 0], "layer": 0}],
        }}}, "'params.target.bricks[0].color'"),
        ({"category": "reachability", "subject": ["obj0"]}, "'subject'"),
        ({"category": "distance", "subject": "obj0", "object": 1}, "'object'"),
    ], ids=["params_list", "target_string", "target_brick_color", "subject_list", "object_number"])
    def test_malformed_query_is_one_error_line(self, tmp_path, capsys, query, field):
        _, graph = synth_scene(43, 4)
        save_graph(graph, tmp_path / "graph.json")
        (tmp_path / "query.json").write_text(json.dumps({"schema": "espatial-query/1", **query}))
        assert run_cli("query", "--graph", str(tmp_path / "graph.json"),
                       "--query", str(tmp_path / "query.json")) == 1
        assert_one_error_line(capsys, field)


class TestGoldenReport:
    def test_bench_matches_golden_fixture(self, tmp_path):
        report_path = tmp_path / "report.json"
        code = run_cli("bench", "--dataset", str(FIXTURES / "qa_100.json"),
                       "--out", str(report_path))
        assert code == 0
        produced = json.loads(report_path.read_text())
        golden = json.loads((FIXTURES / "report_golden.json").read_text())
        produced.pop("wall_clock_s")
        golden.pop("wall_clock_s")
        assert produced == golden
