"""Dataset generation, benchmark runner, and the reassembly scenario.

Gold answers are produced only by the brute-force oracle over ground-truth
scenes, never by the engine under test. Reports echo the full configuration
and are byte-reproducible for a fixed (dataset, config, seed) apart from the
wall-clock field.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from . import __version__
from .bricks import LegoStructure, describe, equals, from_graph, random_structure, recolor_brick
from .config import EngineConfig
from .cot import ReasonPolicy, reason, reason_over_plan
from .errors import EngineError, ParseError, SchemaVersionMismatch
from .jsonfile import parse_list, read_json_object, write_json
from .oracle import answer_from_truth, brick_tuples, truth_from_frame
from .perception import PerceptionFrame, build_graph, frame_from_structure, synth_frame, synth_structure
from .planner import replay
from .query import QueryCategory
from .questions import render_question

logger = logging.getLogger(__name__)

DATASET_SCHEMA = "espatial-qa/1"
REPORT_SCHEMA = "espatial-report/1"

DISTANCE_TOLERANCE_M = 0.01


@dataclass(frozen=True)
class SceneRef:
    """Regenerable pointer to a synthetic scene."""

    seed: int
    n_objects: int
    brick_mode: bool = False

    def to_dict(self) -> dict:
        return {"seed": self.seed, "n_objects": self.n_objects, "brick_mode": self.brick_mode}

    @classmethod
    def from_dict(cls, data: dict) -> "SceneRef":
        try:
            return cls(int(data["seed"]), int(data["n_objects"]), bool(data.get("brick_mode", False)))
        except KeyError as e:
            raise ParseError(f"scene missing {e.args[0]!r}", field=e.args[0]) from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad scene value: {e}") from e


@dataclass(frozen=True)
class QaItem:
    question: str
    category: QueryCategory
    scene: SceneRef
    gold_value: object
    gold_units: str | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "category": self.category.value,
            "scene": self.scene.to_dict(),
            "gold": {"value": self.gold_value, "units": self.gold_units},
            "params": self.params,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QaItem":
        try:
            try:
                scene = SceneRef.from_dict(data["scene"])
            except ParseError as e:
                raise e.within("scene") from e
            return cls(
                question=data["question"],
                category=QueryCategory(data["category"]),
                scene=scene,
                gold_value=data["gold"]["value"],
                gold_units=data["gold"].get("units"),
                params=data.get("params", {}),
            )
        except KeyError as e:
            raise ParseError(f"qa item missing {e.args[0]!r}", field=e.args[0]) from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad qa item value: {e}") from e


@dataclass(frozen=True)
class QaDataset:
    seed: int
    items: tuple[QaItem, ...]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": DATASET_SCHEMA,
            "seed": self.seed,
            "config": self.config,
            "items": [item.to_dict() for item in self.items],
        }

    def save(self, path: str | Path):
        write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "QaDataset":
        schema = data.get("schema")
        if schema != DATASET_SCHEMA:
            raise SchemaVersionMismatch(schema, DATASET_SCHEMA)
        try:
            return cls(
                seed=int(data.get("seed", 0)),
                items=parse_list(data, "items", QaItem.from_dict),
                config=data.get("config", {}),
            )
        except KeyError as e:
            raise ParseError(f"dataset missing {e.args[0]!r}", field=e.args[0]) from e
        except (TypeError, ValueError) as e:
            raise ParseError(f"bad dataset value: {e}") from e

    @classmethod
    def load(cls, path: str | Path) -> "QaDataset":
        return cls.from_dict(read_json_object(path))


def gold_for_item(
    category: QueryCategory,
    scene: SceneRef,
    idx_a: int | None,
    idx_b: int | None,
    target: LegoStructure | None,
    config: EngineConfig,
):
    """Oracle gold answer for one item, recomputed from scratch for the
    double-run agreement checks."""
    if category is QueryCategory.SUCCESS_JUDGMENT:
        return _gold_from_structure(synth_structure(scene.seed, scene.n_objects), target, config)
    return _gold_from_frame(category, synth_frame(scene.seed, scene.n_objects), idx_a, idx_b, config)


def _gold_from_structure(truth: LegoStructure, target: LegoStructure, config: EngineConfig):
    """Oracle gold answer for a success judgment of ``target`` against the
    built ``truth``."""
    return answer_from_truth(
        QueryCategory.SUCCESS_JUDGMENT, [], 0, None, config.workspace, config.thresholds,
        truth_bricks=brick_tuples(truth), target_bricks=brick_tuples(target),
    )


def _gold_from_frame(
    category: QueryCategory, frame: PerceptionFrame, idx_a: int, idx_b: int | None, config: EngineConfig
):
    """Oracle gold answer for an object question over a rendered frame."""
    return answer_from_truth(
        category, truth_from_frame(frame), idx_a, idx_b, config.workspace, config.thresholds
    )


def generate_dataset(
    seed: int,
    n_items: int,
    config: EngineConfig | None = None,
) -> QaDataset:
    """Deterministic oracle-labeled dataset across the seven categories."""
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    config = config or EngineConfig()
    categories = list(QueryCategory)
    weights = [1.0] * len(categories)  # rng.choices draws differently without weights
    rng = Random(f"dataset-{seed}")
    items: list[QaItem] = []
    for _ in range(n_items):
        category = rng.choices(categories, weights)[0]
        scene_seed = rng.randrange(2 ** 31)
        if category is QueryCategory.SUCCESS_JUDGMENT:
            n = rng.randint(2, 6)
            scene = SceneRef(scene_seed, n, brick_mode=True)
            truth = synth_structure(scene_seed, n)
            target = truth if rng.random() < 0.5 else recolor_brick(truth, rng)
            value, units = _gold_from_structure(truth, target, config)
            items.append(QaItem(
                question=render_question(category),
                category=category,
                scene=scene,
                gold_value=value,
                gold_units=units,
                params={"target": target.to_dict()},
            ))
            continue
        n = rng.randint(3, 8)
        scene = SceneRef(scene_seed, n)
        frame = synth_frame(scene_seed, n)
        # oracle ids rank objects by (label, x_min, y_min) and labels are unique
        labels = sorted(d.label for d in frame.detections)
        idx_a = rng.randrange(n)
        idx_b = None
        if category in (QueryCategory.ADJACENCY, QueryCategory.DISTANCE,
                        QueryCategory.OVERLAP, QueryCategory.DIRECTION):
            idx_b = rng.choice([i for i in range(n) if i != idx_a])
        value, units = _gold_from_frame(category, frame, idx_a, idx_b, config)
        label_a = labels[idx_a]
        label_b = labels[idx_b] if idx_b is not None else None
        items.append(QaItem(
            question=render_question(category, label_a, label_b),
            category=category,
            scene=scene,
            gold_value=value,
            gold_units=units,
            params={"subject_index": idx_a, "object_index": idx_b},
        ))
    return QaDataset(
        seed=seed,
        items=tuple(items),
        config={
            "n_items": n_items,
            "mix": {c.value: w for c, w in zip(categories, weights)},
            "thresholds": config.thresholds.to_dict(),
            "workspace": config.workspace.to_dict(),
        },
    )


# --- scoring and the runner ---------------------------------------------------

def score_answer(value, gold) -> bool:
    """Exact match for booleans, labels, and lists; metric tolerance for
    distances."""
    if isinstance(gold, bool):
        return isinstance(value, bool) and value == gold
    if isinstance(gold, (int, float)):
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and abs(float(value) - float(gold)) <= DISTANCE_TOLERANCE_M
    if isinstance(gold, list):
        return isinstance(value, (list, tuple)) and sorted(value) == sorted(gold)
    return value == gold


@dataclass(frozen=True)
class Report:
    engine: dict
    config: dict
    dataset: dict
    per_category: dict
    overall_accuracy: float
    items: int
    failures: tuple[dict, ...]
    wall_clock_s: float

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "engine": self.engine,
            "config": self.config,
            "dataset": self.dataset,
            "per_category": self.per_category,
            "overall_accuracy": self.overall_accuracy,
            "items": self.items,
            "failures": list(self.failures),
            "wall_clock_s": self.wall_clock_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def body_without_wallclock(self) -> str:
        body = self.to_dict()
        body.pop("wall_clock_s")
        return json.dumps(body, indent=2, sort_keys=True) + "\n"

    def save(self, path: str | Path):
        write_json(path, self.to_dict())


def _evaluate_item(index: int, item: QaItem, config: EngineConfig, client) -> tuple[bool, str | None]:
    try:
        frame = synth_frame(item.scene.seed, item.scene.n_objects, item.scene.brick_mode)
        graph = build_graph(frame.detections, frame.depths, thresholds=config.thresholds)
        target = None
        if "target" in item.params and item.params["target"] is not None:
            target = LegoStructure.from_dict(item.params["target"])
        answer, _trace = reason(
            item.question, graph, config.workspace, client,
            ReasonPolicy(config.max_retries), target, config.thresholds,
        )
        if answer.abstained:
            return False, None
        return score_answer(answer.value, item.gold_value), None
    except Exception as e:  # per-item resilience: score incorrect, keep going
        logger.warning("item %d failed: %s", index, e)
        return False, f"{type(e).__name__}: {e}"


def run_bench(dataset: QaDataset, config: EngineConfig | None = None, client=None) -> Report:
    """Answer every item through the reasoning loop and score against gold."""
    config = config or EngineConfig()
    client = client or config.make_client()
    started = time.perf_counter()

    results = [_evaluate_item(i, item, config, client) for i, item in enumerate(dataset.items)]

    per_category: dict[str, dict] = {}
    failures: list[dict] = []
    correct_total = 0
    for i, (item, (correct, error)) in enumerate(zip(dataset.items, results)):
        bucket = per_category.setdefault(item.category.value, {"total": 0, "correct": 0})
        bucket["total"] += 1
        if correct:
            bucket["correct"] += 1
            correct_total += 1
        if error:
            failures.append({"index": i, "error": error})
    for bucket in per_category.values():
        bucket["accuracy"] = bucket["correct"] / bucket["total"]
    overall = correct_total / len(dataset.items) if dataset.items else 0.0

    return Report(
        engine={"name": "espatial", "version": __version__, "backend": getattr(client, "name", "custom")},
        config=config.to_dict(),
        dataset={"seed": dataset.seed, "items": len(dataset.items), "config": dataset.config},
        per_category=dict(sorted(per_category.items())),
        overall_accuracy=overall,
        items=len(dataset.items),
        failures=tuple(failures),
        wall_clock_s=round(time.perf_counter() - started, 6),
    )


# --- reassembly scenario ---------------------------------------------------------

@dataclass(frozen=True)
class ReassemblyResult:
    """Desk-scale perceive/describe/plan/assemble cycle outcome."""

    seed: int
    n_bricks: int
    description_ok: bool
    assembly_ok: bool
    stage_failed: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "n_bricks": self.n_bricks,
            "description_ok": self.description_ok,
            "assembly_ok": self.assembly_ok,
            "stage_failed": self.stage_failed,
            "error": self.error,
        }


def run_reassembly(
    seed: int,
    max_bricks: int = 12,
    drop_detection: int | None = None,
    config: EngineConfig | None = None,
) -> ReassemblyResult:
    """Build a random target, perceive it from a rendered frame, describe
    it, plan it, and simulate the assembly, judging both outcomes.

    ``drop_detection`` omits one brick's detection to exercise perception
    dropout; the mismatch must then be detected and reported.
    """
    config = config or EngineConfig()
    rng = Random(f"reassembly-{seed}")
    n_bricks = rng.randint(1, max_bricks)
    target = random_structure(rng, n_bricks)

    stage = "perceive"
    try:
        frame = frame_from_structure(
            target, rgb_seed=seed, image_ref=f"reassembly://{seed}", drop_index=drop_detection
        )
        graph = build_graph(frame.detections, frame.depths, thresholds=config.thresholds)
        rebuilt = from_graph(graph)
        stage = "describe"
        description_ok = describe(rebuilt) == describe(target)
        stage = "plan"
        assembly, _traces = reason_over_plan(rebuilt)
        stage = "assemble"
        built = replay(assembly)
        assembly_ok = equals(built, target)
    except EngineError as e:
        return ReassemblyResult(
            seed=seed, n_bricks=len(target.bricks),
            description_ok=False, assembly_ok=False,
            stage_failed=stage, error=f"{type(e).__name__}: {e}",
        )
    return ReassemblyResult(
        seed=seed, n_bricks=len(target.bricks),
        description_ok=description_ok, assembly_ok=assembly_ok,
    )
